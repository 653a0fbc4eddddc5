//! The Jockey reproduction's benchmark: four workloads covering the
//! paper pipeline, the simulator's inner layers and the SLO admission
//! service, each measured end to end with tracing off and layer by
//! layer in a separate traced run. See `README.md` beside this crate.

pub mod catalog;
pub mod harness;
pub mod repro;
pub mod seams;
pub mod service;
pub mod sim;
pub mod span;

use jockey_experiments::Scale;

use harness::{measure, RunResult};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "repro-quick",
    "sim-scenarios",
    "service-fleet",
    "service-online",
];

/// How big each workload's fixed work is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Seconds-long sizes for the benchmark's own tests.
    Tiny,
}

/// Runs workload `name` for `seconds` (at least `min_iters`
/// iterations; traced runs make that many bare/traced pairs).
///
/// # Errors
///
/// An unknown workload name.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    min_iters: usize,
    traced: bool,
    size: Size,
) -> Result<RunResult, String> {
    let scale = match size {
        Size::Full => Scale::Quick,
        Size::Tiny => Scale::Smoke,
    };
    Ok(match name {
        "repro-quick" => measure(
            &repro::ReproQuick { seed, scale },
            seconds,
            min_iters,
            traced,
        ),
        "sim-scenarios" => measure(
            &sim::SimScenarios {
                seed,
                scale,
                repeats: match size {
                    Size::Full => 18,
                    Size::Tiny => 1,
                },
            },
            seconds,
            min_iters,
            traced,
        ),
        "service-fleet" | "service-online" => {
            let mut cfg = if name == "service-fleet" {
                service::LoadConfig::fleet()
            } else {
                service::LoadConfig::online()
            };
            if size == Size::Tiny {
                cfg.budget /= 20;
                cfg.concurrent /= 20;
                cfg.submissions /= 20;
            }
            measure(
                &service::ServiceLoad::new(cfg, seed),
                seconds,
                min_iters,
                traced,
            )
        }
        other => {
            return Err(format!(
                "unknown workload {other:?}; known: {}",
                WORKLOADS.join(", ")
            ))
        }
    })
}
