//! Property-based tests of the cluster simulator's conservation and
//! robustness invariants under arbitrary job shapes and noise.

use std::sync::Arc;

use jockey_cluster::{
    BackgroundConfig, ClusterConfig, ClusterSim, FailureConfig, FixedAllocation, JobSpec,
};
use jockey_jobgraph::graph::{EdgeKind, JobGraph, JobGraphBuilder};
use jockey_simrt::dist::{Constant, LogNormal};
use proptest::prelude::*;

/// Random fork/chain DAGs with consistent one-to-one task counts.
fn arb_graph() -> impl Strategy<Value = Arc<JobGraph>> {
    (
        proptest::collection::vec((1_usize..4, 1_u32..8), 1..5),
        any::<u64>(),
    )
        .prop_map(|(segments, link_seed)| {
            let mut b = JobGraphBuilder::new("cluster-prop");
            let mut last = Vec::new();
            for (si, &(len, tasks)) in segments.iter().enumerate() {
                let mut prev = None;
                for k in 0..len {
                    let s = b.stage(format!("s{si}_{k}"), tasks);
                    if let Some(p) = prev {
                        b.edge(p, s, EdgeKind::OneToOne);
                    }
                    prev = Some(s);
                }
                last.push(prev.expect("non-empty segment"));
            }
            for si in 1..last.len() {
                let from = (link_seed as usize + si) % si;
                // First stage of segment si.
                let first_idx: usize = segments[..si].iter().map(|&(l, _)| l).sum();
                b.edge(
                    last[from],
                    jockey_jobgraph::StageId(first_idx),
                    EdgeKind::AllToAll,
                );
            }
            Arc::new(b.build().expect("valid by construction"))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With failures enabled the job still finishes, and the work
    /// accounting identity holds: completed work equals the failure-free
    /// total, with waste strictly accounting for the extra attempts.
    #[test]
    fn failure_runs_finish_and_account_work(
        graph in arb_graph(),
        fail_prob in 0.0_f64..0.4,
        seed in any::<u64>(),
    ) {
        let spec = JobSpec::uniform(graph.clone(), Constant(4.0), Constant(0.2), fail_prob);
        let mut sim = ClusterSim::new(ClusterConfig::dedicated_with_failures(6), seed);
        sim.add_job(spec, Box::new(FixedAllocation(6)));
        let r = sim.run_single();
        prop_assert!(r.completed_at.is_some(), "wedged with fail_prob {}", fail_prob);
        let clean_work = graph.total_tasks() as f64 * 4.0;
        prop_assert!((r.work_done_secs - clean_work).abs() < 1e-6);
        if fail_prob == 0.0 {
            prop_assert_eq!(r.wasted_secs, 0.0);
        }
    }

    /// Under any background-noise setting the job completes, and the
    /// eviction machinery never loses completed work permanently.
    #[test]
    fn noisy_cluster_never_wedges(
        graph in arb_graph(),
        mean_util in 0.3_f64..0.99,
        volatility in 0.0_f64..0.2,
        seed in any::<u64>(),
    ) {
        let spec = JobSpec::uniform(
            graph.clone(),
            LogNormal::from_median_p90(3.0, 8.0),
            Constant(0.3),
            0.02,
        );
        let cfg = ClusterConfig {
            placement: None,
            topology: None,
            speculation: None,
            total_tokens: 40,
            max_guarantee: 8,
            spare_enabled: true,
            spare_slowdown: 1.3,
            control_period: jockey_simrt::time::SimDuration::from_secs(30),
            background: BackgroundConfig {
                enabled: true,
                mean_util,
                volatility,
                reversion: 0.1,
                overload_rate_per_hour: 4.0,
                overload_duration_mins: 2.0,
                overload_util: 1.0,
                tick: jockey_simrt::time::SimDuration::from_secs(15),
                slowdown_knee: 0.8,
                slowdown_slope: 2.0,
                diurnal_amplitude: 0.0,
                diurnal_period: jockey_simrt::time::SimDuration::from_mins(24 * 60),
                diurnal_phase: 0.0,
            },
            failures: FailureConfig {
                task_failure_prob: None,
                machine_failure_rate_per_hour: 6.0,
                tasks_per_machine: 2,
                data_loss_prob: 0.5,
                rack_failure_rate_per_hour: 0.0,
                replica_loss_prob: 0.0,
            },
            max_sim_time: jockey_simrt::time::SimTime::from_mins(24 * 60),
        };
        let mut sim = ClusterSim::new(cfg, seed);
        sim.add_job(spec, Box::new(FixedAllocation(8)));
        let r = sim.run_single();
        prop_assert!(r.completed_at.is_some(), "job wedged under noise");
        // All tasks completed exactly once at the end.
        let total_attempt_runtime: f64 = r
            .profile
            .stages
            .iter()
            .map(|s| s.runtimes.iter().sum::<f64>())
            .sum();
        prop_assert!(total_attempt_runtime + 1e-6 >= r.work_done_secs);
    }

    /// Guarantee capping: the applied guarantee never exceeds the
    /// configured maximum, whatever the controller requests.
    #[test]
    fn guarantee_is_always_capped(
        graph in arb_graph(),
        request in 1_u32..1000,
        cap in 1_u32..16,
    ) {
        let spec = JobSpec::uniform(graph, Constant(2.0), Constant(0.0), 0.0);
        let mut cfg = ClusterConfig::dedicated(16);
        cfg.max_guarantee = cap;
        let mut sim = ClusterSim::new(cfg, 1);
        sim.add_job(spec, Box::new(FixedAllocation(request)));
        let r = sim.run_single();
        prop_assert!(r.trace.max_guarantee() <= f64::from(cap));
        prop_assert!(r.completed_at.is_some());
    }

    /// Determinism under full noise: identical seeds give identical
    /// traces.
    #[test]
    fn full_noise_determinism(graph in arb_graph(), seed in any::<u64>()) {
        let run = || {
            let spec = JobSpec::uniform(
                graph.clone(),
                LogNormal::from_median_p90(2.0, 6.0),
                Constant(0.1),
                0.05,
            );
            let mut cfg = ClusterConfig::production();
            cfg.total_tokens = 60;
            cfg.max_guarantee = 10;
            let mut sim = ClusterSim::new(cfg, seed);
            sim.add_job(spec, Box::new(FixedAllocation(6)));
            let r = sim.run_single();
            (r.completed_at, r.work_done_secs, r.wasted_secs, r.spare_task_count)
        };
        prop_assert_eq!(run(), run());
    }
}
