//! The measurement loop shared by every workload: repeated set-up and
//! fixed work until the time budget is spent, medians, the
//! traced/untraced alternation, and the result line.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::catalog::{self, Unit};
use crate::span::Span;

/// Name of the root span wrapped around each traced iteration's work.
pub const ROOT: &str = "iteration";

/// Set-up time below which one iteration repeats its set-up and
/// reports the mean: a sub-millisecond set-up timed once is mostly
/// clock, cache and scheduler noise.
const MIN_SETUP_S: f64 = 0.05;

/// The spans of a traced run, created on first use by name.
#[derive(Default)]
pub struct Trace {
    spans: Mutex<BTreeMap<String, Arc<Span>>>,
}

impl Trace {
    /// The span called `name`.
    pub fn span(&self, name: &str) -> Arc<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics holding the span table");
        if let Some(span) = spans.get(name) {
            return span.clone();
        }
        spans.entry(name.to_string()).or_default().clone()
    }

    fn get(&self, name: &str) -> Option<Arc<Span>> {
        let spans = self
            .spans
            .lock()
            .expect("no thread panics holding the span table");
        spans.get(name).cloned()
    }
}

/// What one iteration of a workload's fixed work produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Digest of every simulated result and decision count; traced and
    /// untraced iterations of one seed must agree on it exactly.
    pub fingerprint: u64,
    /// Operations attempted (experiments, simulated runs, submissions).
    pub attempted: u64,
    /// Operations whose output check failed, with the reasons.
    pub failures: Vec<String>,
    /// SLO attempts: deadlines met and deadlines attempted.
    pub slo: (u64, u64),
    /// Per-layer values this iteration measured itself (counts and
    /// ratios read from results), by catalog name.
    pub layers: Vec<(String, f64)>,
    /// Admission-call latencies in nanoseconds (traced service runs).
    pub admit_nanos: Vec<u64>,
    /// Tick-call latencies in nanoseconds (traced service runs).
    pub tick_nanos: Vec<u64>,
}

impl Outcome {
    /// Records a failed output check.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Sets a per-layer value.
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.push((name.into(), value));
    }
}

/// A benchmark workload: a set-up step and a fixed unit of work.
pub trait Workload {
    /// What set-up hands to the work.
    type Ready;

    /// Builds everything the work needs (timed as `setup_s`).
    fn setup(&self) -> Self::Ready;

    /// Performs the fixed work (timed as `wall_s`). With `trace`, calls
    /// go through the timing decorators and caller-side spans.
    fn run(&self, ready: Self::Ready, trace: Option<&Trace>) -> Outcome;
}

/// One measured iteration.
struct Sample {
    setup_s: f64,
    wall_s: f64,
    traced: bool,
    outcome: Outcome,
}

/// The benchmark's result: checks, counts and named metrics.
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted across all iterations.
    pub attempted: u64,
    /// Operations that failed a check (plus cross-iteration mismatches).
    pub failed: u64,
    /// Reasons for the failures, for the log.
    pub failures: Vec<String>,
    /// Metrics by catalog name, in catalog order.
    pub metrics: Vec<(String, f64, Unit)>,
}

impl RunResult {
    /// The result as the one-line JSON object the benchmark prints.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    unit.symbol()
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `xs` (mean of the middle two for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (in `0..=1`) of sorted `nanos`, in
/// microseconds; 0 without samples.
pub fn percentile_us(sorted_nanos: &[u64], q: f64) -> f64 {
    if sorted_nanos.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_nanos.len() as f64 * q).ceil() as usize).clamp(1, sorted_nanos.len());
    sorted_nanos[rank - 1] as f64 / 1_000.0
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs `workload` until `seconds` have passed and at least
/// `min_iters` iterations are done, then assembles the result.
///
/// Untraced, every iteration runs bare and the end-to-end metrics are
/// reported. Traced, iterations alternate bare and traced (bare first)
/// so the tracing overhead is measured in the same process, and the
/// per-layer metrics are reported. Either way every iteration must
/// reproduce the first one's fingerprint.
pub fn measure<W: Workload>(
    workload: &W,
    seconds: f64,
    min_iters: usize,
    traced: bool,
) -> RunResult {
    let trace = Trace::default();
    let start = Instant::now();
    let min_iters = if traced {
        2 * min_iters.max(1)
    } else {
        min_iters.max(1)
    };
    let mut samples: Vec<Sample> = Vec::new();
    loop {
        let paired = !traced || samples.len().is_multiple_of(2);
        if samples.len() >= min_iters && paired && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let use_trace = traced && samples.len() % 2 == 1;
        let t = Instant::now();
        let mut ready = workload.setup();
        let mut setups = 1_u32;
        while t.elapsed().as_secs_f64() < MIN_SETUP_S {
            drop(ready);
            ready = workload.setup();
            setups += 1;
        }
        let setup_s = t.elapsed().as_secs_f64() / f64::from(setups);
        let t = Instant::now();
        let outcome = if use_trace {
            trace.span(ROOT).time(|| workload.run(ready, Some(&trace)))
        } else {
            workload.run(ready, None)
        };
        let wall_s = t.elapsed().as_secs_f64();
        eprintln!(
            "[slobench] iteration {}{}: setup {setup_s:.3e} s (x{setups}), work {wall_s:.4} s, peak rss {:.1} MB",
            samples.len(),
            if use_trace { " (traced)" } else { "" },
            peak_rss_mb().unwrap_or(0.0),
        );
        samples.push(Sample {
            setup_s,
            wall_s,
            traced: use_trace,
            outcome,
        });
    }
    // Peak memory is read once every iteration is done. With threads
    // allocating in per-thread heaps, one iteration's high-water mark
    // varies by tens of percent between identical runs; over repeated
    // iterations it settles at the envelope the heap reaches.
    assemble(samples, &trace, traced, peak_rss_mb())
}

fn assemble(samples: Vec<Sample>, trace: &Trace, traced: bool, peak_rss: Option<f64>) -> RunResult {
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let first = samples[0].outcome.fingerprint;
    for (i, s) in samples.iter().enumerate() {
        attempted += s.outcome.attempted;
        failed += s.outcome.failures.len() as u64;
        failures.extend(s.outcome.failures.iter().cloned());
        if s.outcome.fingerprint != first {
            failed += 1;
            failures.push(format!(
                "iteration {i} ({}) fingerprint {:016x} differs from the first iteration's {first:016x}",
                if s.traced { "traced" } else { "bare" },
                s.outcome.fingerprint
            ));
        }
        if s.outcome.slo != samples[0].outcome.slo {
            failed += 1;
            failures.push(format!("iteration {i} changed the SLO outcome"));
        }
    }

    let (met, slo_attempts) = samples[0].outcome.slo;
    let bare: Vec<&Sample> = samples.iter().filter(|s| !s.traced).collect();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let catalog_metrics = if traced {
        let traced_samples: Vec<&Sample> = samples.iter().filter(|s| s.traced).collect();
        layer_values(&traced_samples, &bare, trace, &mut values);
        catalog::per_layer()
    } else {
        let walls: Vec<f64> = bare.iter().map(|s| s.wall_s).collect();
        let setups: Vec<f64> = bare.iter().map(|s| s.setup_s).collect();
        values.insert("wall_s".into(), median(&walls));
        values.insert("setup_s".into(), median(&setups));
        match peak_rss {
            Some(mb) => {
                values.insert("peak_rss_mb".into(), mb);
            }
            None => {
                failed += 1;
                failures.push("cannot read VmHWM from /proc/self/status".into());
            }
        }
        if slo_attempts == 0 {
            failed += 1;
            failures.push("no SLO attempts to judge".into());
        } else {
            values.insert("slo_attainment".into(), met as f64 / slo_attempts as f64);
        }
        catalog::end_to_end()
    };

    let mut metrics = Vec::with_capacity(catalog_metrics.len());
    for (name, unit) in catalog_metrics {
        let value = values.get(&name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            failed += 1;
            failures.push(format!("metric {name} is not finite"));
        }
        metrics.push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        failures,
        metrics,
    }
}

/// Fills the per-layer values: span counts and busy times per traced
/// iteration, the values iterations measured themselves, latency
/// percentiles over all traced samples, and the harness's own rows.
fn layer_values(
    traced: &[&Sample],
    bare: &[&Sample],
    trace: &Trace,
    values: &mut BTreeMap<String, f64>,
) {
    let n = traced.len() as f64;
    for (name, _) in catalog::per_layer() {
        let (base, field) = match name.rsplit_once('.') {
            Some(split) => split,
            None => continue,
        };
        let Some(span) = trace.get(base) else {
            continue;
        };
        let value = match field {
            "count" => span.count() as f64 / n,
            "busy_s" => span.busy_s() / n,
            "self_s" => span.self_s() / n,
            "unattributed_frac" => span.self_s() / span.busy_s().max(f64::MIN_POSITIVE),
            _ => continue,
        };
        values.insert(name, value);
    }
    let mut sums: BTreeMap<String, f64> = BTreeMap::new();
    for s in traced {
        for (name, v) in &s.outcome.layers {
            *sums.entry(name.clone()).or_default() += v;
        }
    }
    for (name, sum) in sums {
        values.insert(name, sum / n);
    }

    let pooled = |pick: fn(&Outcome) -> &Vec<u64>| {
        let mut all: Vec<u64> = traced
            .iter()
            .flat_map(|s| pick(&s.outcome).iter().copied())
            .collect();
        all.sort_unstable();
        all
    };
    let admit = pooled(|o| &o.admit_nanos);
    let tick = pooled(|o| &o.tick_nanos);
    values.insert("admit_p50_us".into(), percentile_us(&admit, 0.50));
    values.insert("admit_p99_us".into(), percentile_us(&admit, 0.99));
    values.insert("tick_p50_us".into(), percentile_us(&tick, 0.50));
    values.insert("tick_p9999_us".into(), percentile_us(&tick, 0.9999));

    if let Some(root) = trace.get(ROOT) {
        let unattributed = root.self_s() / root.busy_s().max(f64::MIN_POSITIVE);
        values.insert("unattributed_frac".into(), unattributed);
    }
    let traced_wall = median(&traced.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let bare_wall = median(&bare.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    values.insert("tracing_overhead_s".into(), traced_wall - bare_wall);
}
