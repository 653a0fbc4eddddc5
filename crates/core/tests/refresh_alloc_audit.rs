//! Counting-allocator audit of the control plane's refresh.
//!
//! A refresh re-splits the budget across the whole live fleet, so any
//! per-job allocation in it (a cloned model handle, utility or stage
//! vector) costs fleet-size allocations every control period. The
//! refresh is supposed to evaluate every curve into buffers reused
//! across refreshes and allocate only the snapshot it publishes. This
//! test pins that: one control round (one tick per job, one refresh)
//! allocates the same small constant at every fleet size.
//!
//! Integration tests are separate binaries, so the global allocator
//! here affects no other test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jockey_cluster::{JobController, JobStatus};
use jockey_core::plane::{ControlPlane, JobHandle};
use jockey_core::predict::CompletionModel;
use jockey_core::progress::{IndicatorContext, ProgressIndicator};
use jockey_core::utility::UtilityFunction;
use jockey_jobgraph::graph::JobGraphBuilder;
use jockey_jobgraph::profile::ProfileBuilder;
use jockey_jobgraph::StageId;
use jockey_simrt::time::{SimDuration, SimTime};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The published snapshot: its `Arc`, the share vector and the serial
/// vector.
const SNAPSHOT_ALLOCATIONS: u64 = 3;

/// remaining = work * (1 - progress) / a, up to 16 tokens.
struct Linear {
    work: f64,
}

impl CompletionModel for Linear {
    fn remaining_secs(&self, _fs: &[f64], progress: f64, allocation: u32) -> f64 {
        self.work * (1.0 - progress) / f64::from(allocation.max(1))
    }
    fn max_allocation(&self) -> u32 {
        16
    }
}

fn indicator() -> IndicatorContext {
    let mut b = JobGraphBuilder::new("refresh-audit");
    b.stage("only", 10);
    let g = b.build().unwrap();
    let mut pb = ProfileBuilder::new(&g);
    for _ in 0..10 {
        pb.record_task(StageId(0), 1.0, 10.0, false);
    }
    IndicatorContext::new(
        ProgressIndicator::VertexFrac,
        &g,
        &pb.finish(100.0, 1.0),
        None,
    )
}

fn status(minute: u64, frac: f64) -> JobStatus {
    JobStatus {
        now: SimTime::from_mins(minute),
        elapsed: SimDuration::from_mins(minute),
        stage_fraction: vec![frac],
        stage_completed: vec![(frac * 10.0) as u32],
        running: 2,
        running_guaranteed: 2,
        guarantee: 2,
        work_done: frac * 100.0,
        finished: false,
    }
}

/// Allocations of one steady-state control round of an `n`-job fleet.
fn round_allocations(n: usize) -> u64 {
    let plane = ControlPlane::new(3 * n as u32);
    let ctx = indicator();
    let mut handles: Vec<JobHandle> = (0..n)
        .map(|i| {
            plane.add_job(
                Arc::new(Linear {
                    work: 3_600.0 * (1.0 + (i % 7) as f64),
                }),
                ctx.clone(),
                UtilityFunction::deadline(SimDuration::from_mins(30 + (i % 11) as u64 * 5)),
                1.2,
            )
        })
        .collect();
    let statuses: Vec<JobStatus> = (0..6).map(|m| status(m, 0.05 * m as f64)).collect();
    // Warm the refresh scratch to this fleet's size.
    for s in &statuses[..5] {
        for h in &mut handles {
            h.tick(s);
        }
    }
    let refreshes = plane.stats().refreshes;
    let before = allocations();
    for h in &mut handles {
        h.tick(&statuses[5]);
    }
    let spent = allocations() - before;
    assert_eq!(
        plane.stats().refreshes,
        refreshes + 1,
        "a control round of {n} jobs should run exactly one refresh"
    );
    spent
}

#[test]
fn a_refresh_allocates_only_its_snapshot_at_any_fleet_size() {
    let counts: Vec<(usize, u64)> = [16, 256, 4_096]
        .into_iter()
        .map(|n| (n, round_allocations(n)))
        .collect();
    for &(n, spent) in &counts {
        assert!(
            spent <= SNAPSHOT_ALLOCATIONS,
            "a {n}-job control round allocated {spent} times: {counts:?}"
        );
    }
    assert!(
        counts.windows(2).all(|w| w[0].1 == w[1].1),
        "refresh allocations grow with the fleet: {counts:?}"
    );
}
