//! The resource-allocation control loop (§4.3).
//!
//! Each control period the loop:
//!
//! 1. computes job progress `p` with its progress indicator;
//! 2. evaluates, for every candidate allocation `a`, the expected
//!    utility `U_a = U(t_r + S·C(p, a))` — predictions inflated by the
//!    **slack** factor `S` and the utility **shifted left by the dead
//!    zone** `D`;
//! 3. picks the *minimum* allocation maximizing utility,
//!    `A^r = argmin_a {a : U_a = max_b U_b}`;
//! 4. conditions the raw allocation: **increases** are applied only
//!    when the job is at least `D` behind schedule (predicted, at the
//!    current allocation, to miss the shifted deadline) — decreases
//!    (releasing over-provisioned tokens, Fig. 6(c)) are always
//!    allowed; and **hysteresis** smooths the move:
//!    `A^s_t = A^s_{t−1} + α (A^r − A^s_{t−1})`.
//!
//! Steps 2–3 are the pure [`ArgminPolicy`] core; step 4 is straight-line
//! code in [`JockeyController`]'s tick (dead-zone gate, hysteresis EWMA,
//! then `⌈·⌉` and the min-allocation clamp), which returns every
//! decision as a [`ControlDecision`] for the engine's per-run trace.

use std::fmt;
use std::sync::Arc;

use jockey_cluster::{ControlDecision, JobController, JobStatus};
use jockey_simrt::time::SimDuration;

use crate::alloc::ArgminPolicy;
use crate::predict::CompletionModel;
use crate::progress::IndicatorContext;
use crate::utility::UtilityFunction;

/// Control-loop conditioning parameters (§4.3's three mechanisms).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ControlParams {
    /// Prediction multiplier `S` compensating for model error
    /// (default 1.2).
    pub slack: f64,
    /// Hysteresis coefficient `α ∈ (0, 1]`; 1.0 disables smoothing
    /// (default 0.2).
    pub hysteresis: f64,
    /// Dead zone `D` (default 3 minutes).
    pub dead_zone: SimDuration,
    /// Lower bound on the applied guarantee.
    pub min_allocation: u32,
}

impl Default for ControlParams {
    fn default() -> Self {
        ControlParams {
            slack: 1.2,
            hysteresis: 0.2,
            dead_zone: SimDuration::from_mins(3),
            min_allocation: 1,
        }
    }
}

/// Why a [`ControlParams`] value was rejected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InvalidControlParams {
    /// `slack` must be finite and `>= 1` (NaN is rejected explicitly).
    Slack(f64),
    /// `hysteresis` must be finite and in `(0, 1]` (NaN is rejected
    /// explicitly).
    Hysteresis(f64),
    /// `min_allocation` must be `>= 1`.
    MinAllocation(u32),
}

impl fmt::Display for InvalidControlParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidControlParams::Slack(v) => {
                write!(f, "slack must be a finite value >= 1, got {v}")
            }
            InvalidControlParams::Hysteresis(v) => {
                write!(f, "hysteresis must be a finite value in (0, 1], got {v}")
            }
            InvalidControlParams::MinAllocation(v) => {
                write!(f, "min_allocation must be >= 1, got {v}")
            }
        }
    }
}

impl std::error::Error for InvalidControlParams {}

impl ControlParams {
    /// Validates parameter ranges, returning the first problem found.
    /// NaN slack or hysteresis is rejected (comparison chains alone
    /// would be easy to get wrong around NaN, so finiteness is checked
    /// explicitly).
    pub fn check(&self) -> Result<(), InvalidControlParams> {
        if !self.slack.is_finite() || self.slack < 1.0 {
            return Err(InvalidControlParams::Slack(self.slack));
        }
        if !self.hysteresis.is_finite() || self.hysteresis <= 0.0 || self.hysteresis > 1.0 {
            return Err(InvalidControlParams::Hysteresis(self.hysteresis));
        }
        if self.min_allocation < 1 {
            return Err(InvalidControlParams::MinAllocation(self.min_allocation));
        }
        Ok(())
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range values; see [`ControlParams::check`] for
    /// the non-panicking form.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("invalid control params: {e}");
        }
    }
}

/// Jockey's adaptive controller: a completion model (simulator-trained
/// `C(p, a)` or Amdahl) driven through the §4.3 control policy.
///
/// The pure [`ArgminPolicy`] picks the raw allocation with predictions
/// inflated by the slack; the tick then gates increases on the dead
/// zone, smooths with the hysteresis EWMA and clamps to
/// `min_allocation`.
pub struct JockeyController {
    policy: ArgminPolicy,
    indicator: IndicatorContext,
    utility: UtilityFunction,
    params: ControlParams,
    /// The smoothed allocation in force (`A^s_{t−1}`); `None` before
    /// the first decision and after a deadline change.
    smoothed: Option<f64>,
}

impl JockeyController {
    /// Creates a controller with the §4.3 conditioning.
    ///
    /// # Panics
    ///
    /// Panics on invalid [`ControlParams`].
    pub fn new(
        model: Arc<dyn CompletionModel>,
        indicator: IndicatorContext,
        utility: UtilityFunction,
        params: ControlParams,
    ) -> Self {
        params.validate();
        let shifted_utility = utility.shifted_left(params.dead_zone);
        JockeyController {
            policy: ArgminPolicy::new(model, shifted_utility, params.min_allocation),
            indicator,
            utility,
            params,
            smoothed: None,
        }
    }

    /// The pure argmin decision core.
    pub fn policy(&self) -> &ArgminPolicy {
        &self.policy
    }

    /// The raw allocation `A^r`: the minimum allocation maximizing
    /// expected utility at progress `p` and elapsed time `t_r`.
    pub fn raw_allocation(&self, fs: &[f64], progress: f64, elapsed_secs: f64) -> u32 {
        self.policy
            .raw_allocation(fs, progress, elapsed_secs, self.params.slack)
    }

    /// The conditioning parameters in force.
    pub fn params(&self) -> &ControlParams {
        &self.params
    }

    /// True when the job is at least `D` behind schedule: predicted, at
    /// allocation `probe` and with slack, to finish past the
    /// dead-zone-shifted deadline. With no deadline encoded there is
    /// nothing to be behind, and the verdict is `true` (no gating).
    fn behind_schedule(&self, fs: &[f64], progress: f64, elapsed_secs: f64, probe: u32) -> bool {
        let Some(deadline) = self.utility.deadline_duration() else {
            return true;
        };
        let remaining = self.params.slack * self.policy.model().remaining_secs(fs, progress, probe);
        elapsed_secs + remaining > deadline.as_secs_f64() - self.params.dead_zone.as_secs_f64()
    }
}

impl JobController for JockeyController {
    fn tick(&mut self, status: &JobStatus) -> ControlDecision {
        if status.finished {
            return ControlDecision::simple(self.params.min_allocation);
        }
        let tr = status.elapsed.as_secs_f64();
        let fs = &status.stage_fraction;
        let p = self.indicator.progress(fs);
        let raw = self.policy.raw_allocation(fs, p, tr, self.params.slack);

        let next = match self.smoothed {
            // First decision: adopt the raw allocation outright — the
            // pessimistic initial sizing of §1.
            None => f64::from(raw),
            Some(cur) => {
                // Dead zone: an increase applies only when the job is
                // at least `D` behind schedule at the allocation in
                // force; decreases (releases, Fig. 6(c)) always pass.
                let probe = (cur.round() as u32).max(self.params.min_allocation);
                let target = if f64::from(raw) > cur && !self.behind_schedule(fs, p, tr, probe) {
                    cur
                } else {
                    f64::from(raw)
                };
                // Hysteresis: A^s_t = A^s_{t−1} + α (target − A^s_{t−1}).
                cur + self.params.hysteresis * (target - cur)
            }
        };
        self.smoothed = Some(next);
        let guarantee = (next.ceil() as u32).max(self.params.min_allocation);

        let predicted = tr + self.policy.model().remaining_secs(fs, p, guarantee);
        ControlDecision {
            guarantee,
            raw: Some(f64::from(raw)),
            progress: Some(p),
            predicted_completion: Some(predicted),
        }
    }

    fn deadline_changed(&mut self, new_deadline: SimDuration) {
        self.utility = self.utility.with_deadline(new_deadline);
        self.policy
            .set_shifted_utility(self.utility.shifted_left(self.params.dead_zone));
        // A new SLO is a fresh sizing problem: the next decision jumps
        // straight to the raw allocation (as at job admission) instead
        // of chasing it through the hysteresis filter — a halved
        // deadline cannot afford a multi-period ramp, and a relaxed one
        // should release its over-provision immediately (§5.2 reports
        // 63–83% released on doubling/tripling).
        self.smoothed = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::{IndicatorContext, ProgressIndicator};
    use jockey_simrt::time::SimTime;

    /// A transparent analytic model: remaining = (1 - progress) * work / a.
    struct ToyModel {
        work: f64,
        max: u32,
    }

    impl CompletionModel for ToyModel {
        fn remaining_secs(&self, _fs: &[f64], progress: f64, allocation: u32) -> f64 {
            (1.0 - progress) * self.work / f64::from(allocation.max(1))
        }
        fn max_allocation(&self) -> u32 {
            self.max
        }
    }

    fn indicator() -> IndicatorContext {
        // Single-stage fixture.
        let mut b = jockey_jobgraph::graph::JobGraphBuilder::new("toy");
        b.stage("only", 10);
        let g = b.build().unwrap();
        let mut pb = jockey_jobgraph::profile::ProfileBuilder::new(&g);
        for _ in 0..10 {
            pb.record_task(jockey_jobgraph::StageId(0), 1.0, 10.0, false);
        }
        let p = pb.finish(100.0, 1.0);
        IndicatorContext::new(ProgressIndicator::VertexFrac, &g, &p, None)
    }

    fn status(frac: f64, elapsed_mins: f64, guarantee: u32) -> JobStatus {
        JobStatus {
            now: SimTime::from_secs_f64(elapsed_mins * 60.0),
            elapsed: SimDuration::from_secs_f64(elapsed_mins * 60.0),
            stage_fraction: vec![frac],
            stage_completed: vec![(frac * 10.0) as u32],
            running: guarantee,
            running_guaranteed: guarantee,
            guarantee,
            work_done: frac * 100.0,
            finished: frac >= 1.0,
        }
    }

    fn controller(work: f64, deadline_mins: u64, params: ControlParams) -> JockeyController {
        JockeyController::new(
            Arc::new(ToyModel { work, max: 100 }),
            indicator(),
            UtilityFunction::deadline(SimDuration::from_mins(deadline_mins)),
            params,
        )
    }

    #[test]
    fn raw_allocation_is_minimal_deadline_meeting() {
        // 6000 s of work, 60-min deadline (3600 s), slack 1.0, dead
        // zone 0: need ceil(6000/3600) = 2 tokens.
        let params = ControlParams {
            slack: 1.0,
            hysteresis: 1.0,
            dead_zone: SimDuration::ZERO,
            min_allocation: 1,
        };
        let c = controller(6_000.0, 60, params);
        assert_eq!(c.raw_allocation(&[0.0], 0.0, 0.0), 2);
        // With slack 1.5: 9000/3600 -> 3.
        let c = controller(
            6_000.0,
            60,
            ControlParams {
                slack: 1.5,
                ..params
            },
        );
        assert_eq!(c.raw_allocation(&[0.0], 0.0, 0.0), 3);
    }

    #[test]
    fn first_tick_jumps_to_raw() {
        let params = ControlParams {
            slack: 1.0,
            hysteresis: 0.2,
            dead_zone: SimDuration::ZERO,
            min_allocation: 1,
        };
        let mut c = controller(6_000.0, 60, params);
        let d = c.tick(&status(0.0, 0.0, 0));
        assert_eq!(d.guarantee, 2);
        assert_eq!(d.raw, Some(2.0));
        assert_eq!(d.progress, Some(0.0));
    }

    #[test]
    fn hysteresis_smooths_increases() {
        let params = ControlParams {
            slack: 1.0,
            hysteresis: 0.5,
            dead_zone: SimDuration::ZERO,
            min_allocation: 1,
        };
        let mut c = controller(6_000.0, 60, params);
        c.tick(&status(0.0, 0.0, 0)); // smoothed = 2.
                                      // 30 minutes in, no progress: need 6000/1800 = 4 raw; smoothed
                                      // moves halfway from 2 to 4 = 3.
        let d = c.tick(&status(0.0, 30.0, 2));
        assert_eq!(d.raw, Some(4.0));
        assert_eq!(d.guarantee, 3);
    }

    #[test]
    fn behind_schedule_jobs_get_more_tokens() {
        let mut c = controller(6_000.0, 60, ControlParams::default());
        let first = c.tick(&status(0.0, 0.0, 0)).guarantee;
        // Halfway to deadline with only 10% done: well behind.
        let later = c.tick(&status(0.1, 30.0, first)).guarantee;
        assert!(later > first, "{later} vs {first}");
    }

    #[test]
    fn ahead_of_schedule_jobs_release_tokens() {
        let mut c = controller(6_000.0, 60, ControlParams::default());
        let first = c.tick(&status(0.0, 0.0, 0)).guarantee;
        // 90% done after 10 minutes: way ahead; raw collapses.
        let later = c.tick(&status(0.9, 10.0, first)).guarantee;
        assert!(later <= first, "{later} vs {first}");
        let even_later = c.tick(&status(0.95, 12.0, later)).guarantee;
        assert!(even_later <= later);
    }

    #[test]
    fn dead_zone_tightens_effective_deadline() {
        // 3100 s of work against a 60-min deadline: 1 token meets the
        // raw deadline (3100 < 3600) but not a 50-min shifted one
        // (3100 > 3000), so a 10-minute dead zone asks for 2 tokens.
        let without = controller(
            3_100.0,
            60,
            ControlParams {
                slack: 1.0,
                hysteresis: 1.0,
                dead_zone: SimDuration::ZERO,
                min_allocation: 1,
            },
        );
        let with = controller(
            3_100.0,
            60,
            ControlParams {
                slack: 1.0,
                hysteresis: 1.0,
                dead_zone: SimDuration::from_mins(10),
                min_allocation: 1,
            },
        );
        assert_eq!(without.raw_allocation(&[0.0], 0.0, 0.0), 1);
        assert_eq!(with.raw_allocation(&[0.0], 0.0, 0.0), 2);
    }

    /// Ticks a 3600 s-of-work job (hysteresis 0.25, no slack, no dead
    /// zone) through raw allocations 1, 3, 2, 2, 3 and returns its
    /// guarantees. After the second tick `A^s = 1.5`, which rounds to a
    /// 2-token probe: ticks three and four propose 2 > 1.5 while 2 tokens
    /// meet the deadline, so the dead zone holds `A^s` at 1.5; tick five
    /// proposes 3 while 2 tokens miss, so that increase passes.
    fn gate_script(utility: UtilityFunction) -> Vec<u32> {
        let params = ControlParams {
            slack: 1.0,
            hysteresis: 0.25,
            dead_zone: SimDuration::ZERO,
            min_allocation: 1,
        };
        let mut c = JockeyController::new(
            Arc::new(ToyModel {
                work: 3_600.0,
                max: 100,
            }),
            indicator(),
            utility,
            params,
        );
        let mut guarantee = 0;
        let mut out = Vec::new();
        for (frac, mins, raw) in [
            (0.05, 0.0, 1.0),
            (0.05, 40.0, 3.0),
            (0.5, 42.0, 2.0),
            (0.55, 43.0, 2.0),
            (0.55, 50.0, 3.0),
        ] {
            let d = c.tick(&status(frac, mins, guarantee));
            assert_eq!(d.raw, Some(raw), "at minute {mins}");
            guarantee = d.guarantee;
            out.push(guarantee);
        }
        out
    }

    #[test]
    fn dead_zone_gate_blocks_increases_when_on_schedule() {
        // Gated: A^s = 1, 1.5, 1.5, 1.5, 1.875. Ungated, the two held
        // ticks would have moved it to 1.625 and 1.71875, and the last
        // to 2.0390625 — a third token.
        let g = gate_script(UtilityFunction::deadline(SimDuration::from_mins(60)));
        assert_eq!(g, [1, 2, 2, 2, 2]);
    }

    #[test]
    fn impossible_deadline_pushes_to_max() {
        let params = ControlParams {
            slack: 1.0,
            hysteresis: 1.0,
            dead_zone: SimDuration::ZERO,
            min_allocation: 1,
        };
        let mut c = controller(1_000_000.0, 60, params);
        let d = c.tick(&status(0.0, 0.0, 0));
        // No allocation meets the deadline; utility still improves with
        // earlier completion, so the loop escalates to the cap.
        assert_eq!(d.guarantee, 100);
    }

    #[test]
    fn deadline_change_triggers_reallocation() {
        let params = ControlParams {
            slack: 1.0,
            hysteresis: 1.0,
            dead_zone: SimDuration::ZERO,
            min_allocation: 1,
        };
        let mut c = controller(6_000.0, 60, params);
        let before = c.tick(&status(0.0, 0.0, 0)).guarantee;
        c.deadline_changed(SimDuration::from_mins(30));
        let after = c.tick(&status(0.0, 1.0, before)).guarantee;
        assert!(after > before, "{after} vs {before}");
        // Relaxing the deadline releases resources again.
        c.deadline_changed(SimDuration::from_mins(120));
        let relaxed = c.tick(&status(0.1, 2.0, after)).guarantee;
        assert!(relaxed < after);
    }

    #[test]
    fn finished_job_releases_to_minimum() {
        let mut c = controller(6_000.0, 60, ControlParams::default());
        c.tick(&status(0.0, 0.0, 0));
        let d = c.tick(&status(1.0, 20.0, 5));
        assert_eq!(d.guarantee, 1);
    }

    #[test]
    fn predicted_completion_is_reported() {
        let params = ControlParams {
            slack: 1.0,
            hysteresis: 1.0,
            dead_zone: SimDuration::ZERO,
            min_allocation: 1,
        };
        let mut c = controller(6_000.0, 60, params);
        let d = c.tick(&status(0.0, 0.0, 0));
        // 2 tokens -> 3000 s predicted completion.
        assert_eq!(d.predicted_completion, Some(3_000.0));
    }

    #[test]
    #[should_panic(expected = "slack")]
    fn rejects_sub_one_slack() {
        ControlParams {
            slack: 0.9,
            ..ControlParams::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn rejects_zero_hysteresis() {
        ControlParams {
            hysteresis: 0.0,
            ..ControlParams::default()
        }
        .validate();
    }

    #[test]
    fn check_rejects_nan_and_reports_typed_errors() {
        // `slack >= 1.0` alone would let NaN through: every comparison
        // against NaN is false, so `slack < 1.0` never fires for it.
        let p = ControlParams {
            slack: f64::NAN,
            ..ControlParams::default()
        };
        assert!(matches!(p.check(), Err(InvalidControlParams::Slack(v)) if v.is_nan()));

        let p = ControlParams {
            hysteresis: f64::NAN,
            ..ControlParams::default()
        };
        assert!(matches!(p.check(), Err(InvalidControlParams::Hysteresis(v)) if v.is_nan()));

        let p = ControlParams {
            slack: f64::INFINITY,
            ..ControlParams::default()
        };
        assert!(matches!(p.check(), Err(InvalidControlParams::Slack(_))));

        let p = ControlParams {
            min_allocation: 0,
            ..ControlParams::default()
        };
        assert_eq!(p.check(), Err(InvalidControlParams::MinAllocation(0)));

        assert_eq!(ControlParams::default().check(), Ok(()));
    }

    /// Remaining time collapses by 4x from the second token on, then is
    /// flat — lets the raw allocation drop below the current one while
    /// the job sits inside the dead zone (neither behind nor far
    /// ahead).
    struct TwoTier {
        work: f64,
    }

    impl CompletionModel for TwoTier {
        fn remaining_secs(&self, _fs: &[f64], progress: f64, a: u32) -> f64 {
            let base = (1.0 - progress) * self.work;
            if a >= 2 {
                base / 4.0
            } else {
                base
            }
        }
        fn max_allocation(&self) -> u32 {
            100
        }
    }

    #[test]
    fn releases_are_not_gated_on_ahead_margin() {
        // Decreases are always applied (module doc, step 4); only
        // increases are dead-zone gated. Regression test for a bug
        // where releases waited until the job was 2D *ahead* of
        // schedule, so a job inside the dead zone never gave back
        // over-provisioned tokens (and max-allocation runs tied
        // Jockey's §5.1 impact instead of exceeding it).
        let params = ControlParams {
            slack: 1.0,
            hysteresis: 1.0,
            dead_zone: SimDuration::from_mins(5),
            min_allocation: 1,
        };
        let mut c = JockeyController::new(
            Arc::new(TwoTier { work: 13_000.0 }),
            indicator(),
            UtilityFunction::deadline(SimDuration::from_mins(60)),
            params,
        );
        let g0 = c.tick(&status(0.0, 0.0, 0)).guarantee;
        assert_eq!(g0, 2);
        // 50 minutes in and nearly done: a single token now suffices,
        // and completion at the 2 tokens in force lands inside the dead
        // zone — neither D behind (after 55 min) nor D ahead (before
        // 50 min) of the deadline.
        let d = c.tick(&status(0.984, 50.0, g0));
        let at_current = 3_000.0 + TwoTier { work: 13_000.0 }.remaining_secs(&[0.984], 0.984, 2);
        assert!(
            at_current > 3_000.0 && at_current <= 3_300.0,
            "expected the dead-zone middle: {at_current}"
        );
        assert_eq!(d.raw, Some(1.0));
        assert_eq!(d.guarantee, 1, "release must not wait for the ahead margin");
    }

    #[test]
    fn every_tick_reports_its_decision() {
        let params = ControlParams {
            slack: 1.0,
            hysteresis: 0.5,
            dead_zone: SimDuration::ZERO,
            min_allocation: 1,
        };
        let mut c = controller(6_000.0, 60, params);
        let d0 = c.tick(&status(0.0, 0.0, 0));
        assert_eq!(d0.guarantee, 2);
        // 30 min in with zero progress is behind at the 2 tokens in
        // force, so the increase to a raw 4 passes the gate; hysteresis
        // takes it halfway, and the prediction is at the applied 3.
        let d1 = c.tick(&status(0.0, 30.0, 2));
        assert_eq!(d1.raw, Some(4.0));
        assert_eq!(d1.progress, Some(0.0));
        assert_eq!(d1.guarantee, 3);
        assert_eq!(d1.predicted_completion, Some(1_800.0 + 2_000.0));
    }

    #[test]
    fn finished_ticks_report_the_minimum_without_diagnostics() {
        let params = ControlParams {
            min_allocation: 2,
            ..ControlParams::default()
        };
        let mut c = controller(6_000.0, 60, params);
        c.tick(&status(0.0, 0.0, 0));
        let d = c.tick(&status(1.0, 20.0, 5));
        assert_eq!(d, ControlDecision::simple(2));
    }

    #[test]
    fn finished_status_with_empty_fractions_is_safe() {
        // The finished path must not consult the indicator: a drained
        // job may report no per-stage fractions at all.
        let mut c = controller(6_000.0, 60, ControlParams::default());
        let mut st = status(1.0, 20.0, 5);
        st.stage_fraction.clear();
        assert_eq!(c.tick(&st).guarantee, 1);
    }

    #[test]
    #[should_panic(expected = "fs length mismatch")]
    fn running_status_with_wrong_stage_count_panics() {
        // For a *running* job, a stage-fraction/graph mismatch is a
        // caller bug, surfaced loudly rather than silently mis-read.
        let mut c = controller(6_000.0, 60, ControlParams::default());
        let mut st = status(0.5, 20.0, 5);
        st.stage_fraction.clear();
        c.tick(&st);
    }

    #[test]
    fn progress_extremes_are_handled() {
        let params = ControlParams {
            slack: 1.0,
            hysteresis: 1.0,
            dead_zone: SimDuration::ZERO,
            min_allocation: 1,
        };
        let c = controller(6_000.0, 60, params);
        // Progress exactly 0: the full-work sizing.
        assert_eq!(c.raw_allocation(&[0.0], 0.0, 0.0), 2);
        // Progress exactly 1: nothing remains, the minimum suffices.
        assert_eq!(c.raw_allocation(&[1.0], 1.0, 100.0), 1);
    }

    #[test]
    fn no_deadline_disables_dead_zone_gating() {
        // The gate script's utility shape with no deadline encoded:
        // there is nothing to be behind, so every increase passes and
        // the held ticks of `dead_zone_gate_blocks_increases_when_on_schedule`
        // move A^s to 1.625 and 1.71875, and the last tick to 2.04.
        let g = gate_script(UtilityFunction::from_knots(vec![
            (0.0, 1.0),
            (3_600.0, 1.0),
            (4_200.0, -1.0),
            (63_600.0, -1000.0),
        ]));
        assert_eq!(g, [1, 2, 2, 2, 3]);
    }
}
