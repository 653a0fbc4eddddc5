//! The online model's reason to exist, as a gate: folding one completed
//! run into a live `C(p, a)` (`CpaModel::absorb_observations`) must be
//! at least 20x cheaper than retraining the table from scratch at the
//! default training grid. Otherwise the control plane could simply
//! retrain on every completion.
//!
//! Both sides are timed in the same process and build profile, and each
//! is taken as the minimum over repeats, so scheduler noise can only
//! inflate a sample, never shrink it.

use std::sync::Arc;
use std::time::Instant;

use jockey_cluster::{ClusterConfig, ClusterSim, FixedAllocation, JobSpec};
use jockey_core::cpa::{CpaModel, RunObservation, TrainConfig};
use jockey_core::progress::{IndicatorContext, ProgressIndicator};
use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
use jockey_simrt::dist::Uniform;

/// The floor the absorb path must clear against a full retrain.
const FLOOR: f64 = 20.0;
const RETRAINS: usize = 3;
const ABSORBS: usize = 64;
/// Control ticks per synthetic completed run (33 observations).
const TICKS: usize = 32;

/// One synthetic completed run at `allocation`: one observation per
/// control tick, the shape the service driver records.
fn synthetic_run(allocation: u32, total_secs: f64) -> Vec<RunObservation> {
    (0..=TICKS)
        .map(|i| {
            let p = i as f64 / TICKS as f64;
            RunObservation {
                elapsed_secs: total_secs * p,
                progress: p,
                allocation,
            }
        })
        .collect()
}

#[test]
fn absorb_beats_a_full_retrain_by_the_floor() {
    // The frozen-mode training job of `examples/train_digest.rs`: three
    // stages profiled on a 12-token dedicated cluster.
    let mut b = JobGraphBuilder::new("absorb-floor-job");
    let m = b.stage("map", 24);
    let mid = b.stage("mid", 24);
    let r = b.stage("reduce", 4);
    b.edge(m, mid, EdgeKind::OneToOne);
    b.edge(mid, r, EdgeKind::AllToAll);
    let graph = Arc::new(b.build().unwrap());
    let spec = JobSpec::uniform(
        graph.clone(),
        Uniform::new(5.0, 15.0),
        Uniform::new(0.0, 1.0),
        0.05,
    );
    let mut sim = ClusterSim::new(ClusterConfig::dedicated_with_failures(12), 77);
    sim.add_job(spec, Box::new(FixedAllocation(12)));
    let profile = sim.run_single().profile;
    let ctx = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &graph, &profile, None);
    // The default grid with bounded sketches: the online deployment
    // shape, where an absorb's cost does not grow with history.
    let cfg = TrainConfig {
        sketch_capacity: Some(64),
        ..TrainConfig::default()
    };

    let mut retrain_min = f64::INFINITY;
    let mut model = None;
    for _ in 0..RETRAINS {
        let t0 = Instant::now();
        model = Some(CpaModel::train(&graph, &profile, &ctx, &cfg, 1234));
        retrain_min = retrain_min.min(t0.elapsed().as_secs_f64());
    }
    let mut live = model.expect("trained at least once");

    let mut absorb_min = f64::INFINITY;
    for i in 0..ABSORBS {
        let a = cfg.allocations[i % cfg.allocations.len()];
        let total_secs = 400.0 + (i % 7) as f64 * 30.0;
        let run = synthetic_run(a, total_secs);
        let t0 = Instant::now();
        let added = live.absorb_observations(&run, total_secs, true);
        absorb_min = absorb_min.min(t0.elapsed().as_secs_f64());
        assert!(added > 0, "absorb added nothing");
    }

    let ratio = retrain_min / absorb_min;
    println!(
        "full retrain {:.3} ms, absorb {:.1} us: {ratio:.0}x",
        1e3 * retrain_min,
        1e6 * absorb_min
    );
    assert!(
        ratio >= FLOOR,
        "absorb must beat a full retrain by >= {FLOOR}x, got {ratio:.1}x \
         (retrain {retrain_min:.6} s, absorb {absorb_min:.6} s)"
    );
}
