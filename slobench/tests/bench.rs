//! The benchmark's own tests: determinism per seed, transparency of
//! every timing decorator, every workload end to end at a tiny size,
//! and the metric catalog against `BENCHMARK.json`.

use std::sync::Arc;

use jockey_cluster::{SchedulerPolicy, WeightedFair};
use jockey_core::predict::CompletionModel;
use jockey_experiments::{Env, Scale};
use jockey_simrt::time::SimDuration;
use jockey_slobench::catalog::{end_to_end, per_layer};
use jockey_slobench::harness::{Outcome, Trace, Workload};
use jockey_slobench::seams::{CountedModel, TimedScheduler};
use jockey_slobench::service::{LoadConfig, ServiceLoad};
use jockey_slobench::sim::SimScenarios;
use jockey_slobench::span::Span;
use jockey_slobench::{run_workload, Size, WORKLOADS};
use jockey_workloads::service::LinearWork;

fn tiny(mut cfg: LoadConfig) -> LoadConfig {
    cfg.budget /= 40;
    cfg.concurrent /= 40;
    cfg.submissions /= 40;
    cfg
}

fn once<W: Workload>(w: &W, trace: Option<&Trace>) -> Outcome {
    w.run(w.setup(), trace)
}

fn sim(seed: u64) -> SimScenarios {
    SimScenarios {
        seed,
        scale: Scale::Smoke,
        repeats: 1,
    }
}

#[test]
fn same_seed_gives_same_service_decisions() {
    for cfg in [LoadConfig::fleet(), LoadConfig::online()] {
        let w = ServiceLoad::new(tiny(cfg), 5);
        let a = once(&w, None);
        let b = once(&w, None);
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert!(a.attempted > 0);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.slo, b.slo);
        let other = once(&ServiceLoad::new(w.cfg.clone(), 6), None);
        assert_ne!(
            a.fingerprint, other.fingerprint,
            "the seed must drive the inputs"
        );
    }
}

#[test]
fn same_seed_gives_same_simulator_fingerprints() {
    let a = once(&sim(3), None);
    let b = once(&sim(3), None);
    assert!(a.failures.is_empty(), "{:?}", a.failures);
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.slo, b.slo);
}

#[test]
fn simulator_decorators_are_transparent() {
    let w = sim(4);
    let bare = once(&w, None);
    let trace = Trace::default();
    let traced = once(&w, Some(&trace));
    assert_eq!(
        bare.fingerprint, traced.fingerprint,
        "tracing changed a JobResult"
    );
    assert_eq!(bare.slo, traced.slo);
    // Every seam was really decorated and exercised by some shape.
    for seam in [
        "cluster.sim.run",
        "cluster.scheduler.schedule",
        "cluster.placement.place",
        "cluster.speculation.watch",
        "cluster.failure",
        "core.control.tick",
        "core.cpa.query",
        "core.cpa.train",
    ] {
        assert!(trace.span(seam).count() > 0, "seam {seam} never called");
    }
}

#[test]
fn service_spans_are_transparent() {
    for cfg in [LoadConfig::fleet(), LoadConfig::online()] {
        let online = cfg.online;
        let w = ServiceLoad::new(tiny(cfg), 8);
        let bare = once(&w, None);
        let trace = Trace::default();
        let traced = once(&w, Some(&trace));
        assert_eq!(
            bare.fingerprint, traced.fingerprint,
            "tracing changed a decision count"
        );
        assert_eq!(traced.admit_nanos.len() as u64, traced.attempted);
        assert!(trace.span("core.plane.model_query").count() > 0);
        assert!(trace.span("core.plane.tick").count() > 0);
        assert_eq!(
            trace.span("core.online.record_completion").count() > 0,
            online
        );
    }
}

#[test]
fn scheduler_decorator_forwards_batchable() {
    let timed = TimedScheduler {
        inner: WeightedFair,
        span: Arc::new(Span::default()),
    };
    assert_eq!(timed.batchable(), WeightedFair.batchable());
}

#[test]
fn counted_model_forwards_every_query() {
    let env = Env::build(Scale::Smoke, 2);
    let cpa: Arc<dyn CompletionModel> = env.jobs[0].setup.cpa.clone();
    let linear: Arc<dyn CompletionModel> = Arc::new(LinearWork {
        work: 9_000.0,
        max_tokens: 16,
    });
    for inner in [cpa, linear] {
        let queries = Arc::new(Span::default());
        let counted = CountedModel {
            inner: inner.clone(),
            queries: queries.clone(),
        };
        assert_eq!(counted.max_allocation(), inner.max_allocation());
        for mins in [1, 5, 20, 60, 240, 1_000] {
            let d = SimDuration::from_mins(mins);
            assert_eq!(
                counted.size_for_deadline(&[0.0], d, 1.2),
                inner.size_for_deadline(&[0.0], d, 1.2)
            );
        }
        for a in [1, 3, 10] {
            let (c, i) = (
                counted.remaining_secs(&[0.5], 0.5, a),
                inner.remaining_secs(&[0.5], 0.5, a),
            );
            assert_eq!(c.to_bits(), i.to_bits());
        }
        assert_eq!(queries.count(), 9);
    }
}

#[test]
fn every_workload_runs_end_to_end_at_a_tiny_size() {
    for name in WORKLOADS {
        for traced in [false, true] {
            let r = run_workload(name, 11, 0.0, 1, traced, Size::Tiny).expect("known workload");
            assert!(r.correct, "{name} traced={traced}: {:?}", r.failures);
            assert!(r.attempted > 0);
            let expected = if traced { per_layer() } else { end_to_end() };
            let got: Vec<_> = r.metrics.iter().map(|(n, _, u)| (n.clone(), *u)).collect();
            assert_eq!(got, expected, "{name} traced={traced}");
            assert!(r.to_json().starts_with("{\"correct\": true,"));
            if !traced {
                for (metric, value, _) in &r.metrics {
                    assert!(*value > 0.0, "{name}: {metric} reads {value}");
                }
            }
        }
    }
    assert!(run_workload("nope", 1, 0.0, 1, false, Size::Tiny).is_err());
}

#[test]
fn catalog_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let metrics: Vec<_> = end_to_end().into_iter().chain(per_layer()).collect();
    for (name, unit) in &metrics {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{}\"", unit.symbol());
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(json.matches("\"unit\"").count(), metrics.len());
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{w}\", \"why\"")),
            "workload {w}"
        );
    }
}
