//! Multi-job control-path benchmarks: the per-tick cost of serving a
//! fleet of SLO jobs from one shared token budget.
//!
//! `plane` drives the sharded `ControlPlane`, which re-runs the greedy
//! marginal-utility split once per refresh epoch (~once per control
//! round) and serves every other tick from an atomically-swapped
//! allocation snapshot.
//!
//! Each benchmark iteration drives one whole control round (every job
//! ticks once), so ticks/sec is the fleet size divided by the mean
//! iteration time. Fleet sizes 1/16/256 bracket a single job, a typical
//! business-critical cohort, and Cosmos-scale concurrency (§2.1 notes
//! thousands of concurrent jobs per cluster). Results are recorded in
//! `BENCH_control_plane.json` at the repo root.

// Criterion macros expand to undocumented items.
#![allow(missing_docs)]

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jockey_cluster::{JobController, JobStatus};
use jockey_core::predict::CompletionModel;
use jockey_core::progress::{IndicatorContext, ProgressIndicator};
use jockey_core::utility::UtilityFunction;
use jockey_core::ControlPlane;
use jockey_jobgraph::graph::JobGraphBuilder;
use jockey_jobgraph::profile::ProfileBuilder;
use jockey_simrt::time::{SimDuration, SimTime};

/// Closed-form model: `remaining = work · (1 − p) / a`. Keeps each
/// utility evaluation cheap so the benchmark isolates the plane's
/// locking and batching structure rather than model cost.
struct Toy {
    work: f64,
}

impl CompletionModel for Toy {
    fn remaining_secs(&self, _fs: &[f64], progress: f64, allocation: u32) -> f64 {
        self.work * (1.0 - progress) / f64::from(allocation.max(1))
    }
    fn max_allocation(&self) -> u32 {
        100
    }
}

fn toy_indicator() -> IndicatorContext {
    let mut b = JobGraphBuilder::new("bench-plane");
    b.stage("only", 10);
    let g = b.build().unwrap();
    let mut pb = ProfileBuilder::new(&g);
    for _ in 0..10 {
        pb.record_task(jockey_jobgraph::StageId(0), 1.0, 10.0, false);
    }
    let p = pb.finish(100.0, 1.0);
    IndicatorContext::new(ProgressIndicator::VertexFrac, &g, &p, None)
}

fn status(minute: u64, frac: f64, guarantee: u32) -> JobStatus {
    JobStatus {
        now: SimTime::from_mins(minute),
        elapsed: SimDuration::from_mins(minute),
        stage_fraction: vec![frac],
        stage_completed: vec![(frac * 10.0) as u32],
        running: guarantee,
        running_guaranteed: guarantee,
        guarantee,
        work_done: frac * 100.0,
        finished: false,
    }
}

/// Staggered deadlines so the marginal-utility scan has real work to
/// do (identical jobs would converge in one grant each).
fn deadline_mins(i: usize) -> u64 {
    30 + 5 * (i as u64 % 12)
}

/// A budget that scales with the fleet but stays well under the sum of
/// demands, so arbitration always runs its grant loop to exhaustion.
fn budget_for(jobs: usize) -> u32 {
    (jobs as u32) * 4
}

fn bench_control_plane(c: &mut Criterion) {
    // JOCKEY_BENCH_SMOKE=1 (set by scripts/tier1.sh) trims the sweep
    // to the small fleets with minimal sampling: enough to exercise
    // the plane end to end in the CI gate.
    let smoke = std::env::var_os("JOCKEY_BENCH_SMOKE").is_some();
    let fleets: &[usize] = if smoke { &[1, 16] } else { &[1, 16, 256] };

    let mut group = c.benchmark_group("control_plane");
    // Keep sampling bounded so the full sweep stays in CI-friendly
    // time.
    group.sample_size(if smoke { 3 } else { 10 });

    // One iteration = one control round (n ticks), so ticks/sec is
    // n / mean-iteration-time.
    for &n in fleets {
        // Sharded plane: per-job slots, amortized snapshot refresh.
        let plane = ControlPlane::new(budget_for(n));
        let mut plane_handles: Vec<_> = (0..n)
            .map(|i| {
                plane.add_job(
                    Arc::new(Toy { work: 36_000.0 }) as Arc<dyn CompletionModel>,
                    toy_indicator(),
                    UtilityFunction::deadline(SimDuration::from_mins(deadline_mins(i))),
                    1.0,
                )
            })
            .collect();
        let st = status(5, 0.25, 4);
        group.bench_function(BenchmarkId::new("plane", n), |b| {
            b.iter(|| {
                for h in &mut plane_handles {
                    std::hint::black_box(h.tick(&st));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_control_plane);
criterion_main!(benches);
