//! Every metric the benchmark reports, by name and unit.
//!
//! The untraced run prints every [`end_to_end`] metric and the traced
//! run every [`per_layer`] metric, on every workload; a layer a
//! workload never enters reads zero calls and zero time there.
//! `BENCHMARK.json` lists the same names (a test keeps them in step).

use jockey_experiments::experiment::registry;
use jockey_experiments::ArtifactId;

/// A metric's unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Seconds.
    Seconds,
    /// Microseconds.
    Micros,
    /// Megabytes (2^20 bytes).
    Megabytes,
    /// A share in `0..=1`.
    Fraction,
    /// Calls or items per iteration.
    Count,
}

impl Unit {
    /// The unit as printed.
    pub fn symbol(self) -> &'static str {
        match self {
            Unit::Seconds => "s",
            Unit::Micros => "us",
            Unit::Megabytes => "MB",
            Unit::Fraction => "fraction",
            Unit::Count => "count",
        }
    }
}

/// The end-to-end metrics, measured with tracing off.
pub fn end_to_end() -> Vec<(String, Unit)> {
    [
        ("wall_s", Unit::Seconds),
        ("setup_s", Unit::Seconds),
        ("peak_rss_mb", Unit::Megabytes),
        ("slo_attainment", Unit::Fraction),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect()
}

/// The three simulator shapes of the `sim-scenarios` workload.
pub const SHAPES: [&str; 3] = ["baseline", "hostile", "straggler"];

/// The per-layer metrics, measured by the traced run. Counts and busy
/// times are per iteration of the workload's fixed work.
pub fn per_layer() -> Vec<(String, Unit)> {
    use Unit::{Count, Fraction, Micros, Seconds};
    let mut out: Vec<(String, Unit)> = Vec::new();
    let mut push = |name: String, unit: Unit| out.push((name, unit));

    for id in ArtifactId::ALL {
        push(
            format!("experiments.artifact.{}.busy_s", id.name()),
            Seconds,
        );
    }
    for e in registry() {
        push(format!("experiments.run.{}.busy_s", e.name()), Seconds);
    }
    push("experiments.unattributed_frac".into(), Fraction);

    for (name, unit) in [
        ("core.cpa.train.count", Count),
        ("core.cpa.train.busy_s", Seconds),
        ("core.cpa.query.count", Count),
        ("cluster.sim.run.count", Count),
        ("cluster.sim.run.busy_s", Seconds),
    ] {
        push(name.into(), unit);
    }
    for shape in SHAPES {
        push(format!("cluster.sim.run.{shape}.busy_s"), Seconds);
    }
    for (name, unit) in [
        ("cluster.scheduler.schedule.count", Count),
        ("cluster.scheduler.schedule.busy_s", Seconds),
        ("cluster.placement.place.count", Count),
        ("cluster.placement.place.busy_s", Seconds),
        ("cluster.speculation.watch.count", Count),
        ("cluster.speculation.watch.busy_s", Seconds),
        ("cluster.clone_win_ratio", Fraction),
        ("cluster.failure.count", Count),
        ("cluster.failure.busy_s", Seconds),
        ("cluster.wasted_work_ratio", Fraction),
        ("cluster.engine.self_s", Seconds),
        ("cluster.tasks.guaranteed", Count),
        ("cluster.tasks.spare", Count),
        ("cluster.tasks.clones", Count),
        ("core.control.tick.count", Count),
        ("core.control.tick.busy_s", Seconds),
        ("frac_above_oracle", Fraction),
        ("core.plane.try_add_job.count", Count),
        ("core.plane.try_add_job.busy_s", Seconds),
        ("core.plane.rejected_capacity", Count),
        ("core.plane.rejected_infeasible", Count),
        ("admit_p50_us", Micros),
        ("admit_p99_us", Micros),
        ("core.plane.tick.count", Count),
        ("core.plane.tick.busy_s", Seconds),
        ("tick_p50_us", Micros),
        ("tick_p9999_us", Micros),
        ("core.plane.refresh.count", Count),
        ("core.plane.refresh_tick.busy_s", Seconds),
        ("core.plane.model_query.count", Count),
        ("core.plane.deadline_changed.count", Count),
        ("core.plane.deadline_changed.busy_s", Seconds),
        ("core.plane.release.count", Count),
        ("core.plane.release.busy_s", Seconds),
        ("core.plane.max_slots", Count),
        ("core.online.record_completion.count", Count),
        ("core.online.record_completion.busy_s", Seconds),
        ("core.online.size_for_deadline.count", Count),
        ("core.online.size_for_deadline.busy_s", Seconds),
        ("core.online.generations", Count),
        ("core.online.drift_fires", Count),
        ("unattributed_frac", Fraction),
        ("tracing_overhead_s", Seconds),
    ] {
        push(name.into(), unit);
    }
    out
}
