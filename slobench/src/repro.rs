//! `repro-quick`: the whole experiment pipeline at quick scale — what
//! a researcher waits for.
//!
//! Set-up builds the environment (`Env::build`, which trains every
//! job's `C(p, a)`). The work materializes each shared artifact and
//! runs every registered experiment in registry order, one at a time
//! (a single runner worker; the experiments' own sweeps still use the
//! machine's cores). Outputs are digested, never written.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use jockey_core::policy::Policy;
use jockey_experiments::artifact::fnv1a;
use jockey_experiments::experiment::registry;
use jockey_experiments::{ArtifactId, ArtifactStore, Env, Scale};

use crate::harness::{Outcome, Trace, Workload};

/// The quick-scale pipeline at one seed.
pub struct ReproQuick {
    /// Environment seed.
    pub seed: u64,
    /// Scale (quick for the benchmark; smoke in tests).
    pub scale: Scale,
}

/// A built environment and how long training took.
pub struct Built {
    env: Env,
    build_nanos: u64,
}

impl Workload for ReproQuick {
    type Ready = Built;

    fn setup(&self) -> Built {
        let t = Instant::now();
        let env = Env::build(self.scale, self.seed);
        Built {
            env,
            build_nanos: t.elapsed().as_nanos() as u64,
        }
    }

    fn run(&self, built: Built, trace: Option<&Trace>) -> Outcome {
        let env = &built.env;
        let mut out = Outcome::default();
        if let Some(trace) = trace {
            // Env::build trains one C(p, a) per job during set-up.
            trace
                .span("core.cpa.train")
                .add_detached(env.jobs.len() as u64, built.build_nanos);
        }
        let store = ArtifactStore::new();
        let mut pipeline = || {
            for id in ArtifactId::ALL {
                match trace {
                    Some(t) => t
                        .span(&artifact_span(id))
                        .time(|| store.materialize(id, env)),
                    None => store.materialize(id, env),
                }
            }
            let mut digest = Vec::new();
            for e in registry() {
                let run = || catch_unwind(AssertUnwindSafe(|| e.run(env, &store)));
                let result = match trace {
                    Some(t) => t.span(&run_span(e.name())).time(run),
                    None => run(),
                };
                out.attempted += 1;
                match result {
                    Ok(emissions) => {
                        for em in emissions {
                            digest.push((em.filename(), fnv1a(em.bytes().as_bytes())));
                        }
                    }
                    Err(_) => out.fail(format!("experiment {} panicked", e.name())),
                }
            }
            digest
        };
        let digest = match trace {
            Some(t) => t.span("experiments").time(pipeline),
            None => pipeline(),
        };

        let mut h = Vec::new();
        for (file, d) in &digest {
            h.extend_from_slice(file.as_bytes());
            h.extend_from_slice(&d.to_le_bytes());
        }
        out.fingerprint = fnv1a(&h);

        // The §5.2 sweep's Jockey runs judge the SLO promise.
        let sweep = store.sweep(env);
        let jockey: Vec<_> = sweep
            .iter()
            .filter(|o| o.policy == Policy::Jockey)
            .collect();
        let met = jockey.iter().filter(|o| o.met).count() as u64;
        out.slo = (met, jockey.len() as u64);
        if !jockey.is_empty() {
            let frac: f64 = jockey.iter().map(|o| o.frac_above_oracle).sum();
            out.layer("frac_above_oracle", frac / jockey.len() as f64);
        }
        if jockey
            .iter()
            .any(|o| !o.frac_above_oracle.is_finite() || !o.rel_deadline.is_finite())
        {
            out.fail("non-finite §5.2 sweep outcome".into());
        }
        out
    }
}

/// Span name of one artifact's materialization.
fn artifact_span(id: ArtifactId) -> String {
    format!("experiments.artifact.{}", id.name())
}

/// Span name of one experiment's run.
fn run_span(name: &str) -> String {
    format!("experiments.run.{name}")
}
