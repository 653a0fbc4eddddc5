//! Online model recalibration (§4.4 / §5.6 future work).
//!
//! "We could quickly update the model by running the simulator at
//! runtime" — the cheap, always-on version implemented here observes
//! how fast the job is *actually* progressing relative to the trained
//! model and rescales the model's predictions by the measured inflation
//! factor λ. Between control ticks, the base model's (median) remaining
//! time at the current allocation should shrink by the elapsed wall
//! time; shrinking slower means the cluster delivers less than the
//! model assumes:
//!
//! ```text
//! advance  = C₅₀(p_prev, a) − C₅₀(p_now, a)     (same a at both ends)
//! λ ← EWMA( Σ wall_dt / Σ advance ), clamped to [1/3, 3]
//! remaining'(p, a) = λ · C(p, a)
//! ```
//!
//! Ratios are accumulated until enough modelled progress has accrued
//! (so barrier tails — which exist in training too — aren't misread as
//! slowdowns), with a long-silence override that catches genuine
//! crawls. A job in an overloaded cluster (λ > 1) gets proportionally
//! pessimistic predictions — and therefore more tokens, sooner — while
//! the untouched base model keeps its structure (barriers, tails,
//! allocation sensitivity).
//!
//! [`RecalibrationLayer`] is a [`ControlLayer`]: it updates λ *before*
//! the inner controller's tick (so the tick already sees the rescaled
//! model) and never touches the decision itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jockey_cluster::JobStatus;

use crate::control::{ControlParams, JockeyController};
use crate::cpa::CpaModel;
use crate::layer::{ControlLayer, Layered};
use crate::predict::CompletionModel;
use crate::progress::IndicatorContext;
use crate::utility::UtilityFunction;

/// A completion model whose predictions are scaled by a shared,
/// atomically updated inflation factor.
pub struct ScaledModel {
    inner: Arc<CpaModel>,
    /// λ, stored as `f64` bits.
    scale_bits: AtomicU64,
}

impl ScaledModel {
    /// Wraps `inner` at λ = 1.
    pub fn new(inner: Arc<CpaModel>) -> Arc<Self> {
        Arc::new(ScaledModel {
            inner,
            scale_bits: AtomicU64::new(1.0_f64.to_bits()),
        })
    }

    /// The current inflation factor.
    pub fn scale(&self) -> f64 {
        f64::from_bits(self.scale_bits.load(Ordering::Relaxed))
    }

    /// Overwrites the inflation factor. External recalibrators (or
    /// tests reproducing one) can drive λ directly; the built-in
    /// [`RecalibrationLayer`] is the usual writer.
    pub fn set_scale(&self, scale: f64) {
        self.scale_bits.store(scale.to_bits(), Ordering::Relaxed);
    }

    /// The wrapped base model.
    pub fn base(&self) -> &CpaModel {
        &self.inner
    }
}

impl CompletionModel for ScaledModel {
    fn remaining_secs(&self, fs: &[f64], progress: f64, allocation: u32) -> f64 {
        self.scale() * self.inner.remaining_secs(fs, progress, allocation)
    }

    fn max_allocation(&self) -> u32 {
        self.inner.max_allocation()
    }
}

/// Online λ recalibration as a stackable [`ControlLayer`].
///
/// The layer owns the slip-estimation state and a handle onto the
/// [`ScaledModel`] the inner controller predicts from; each periodic
/// tick it refreshes λ before the controller runs. Admission-time
/// initial decisions skip the update (there is no previous tick to
/// compare against).
pub struct RecalibrationLayer {
    scaled: Arc<ScaledModel>,
    indicator: IndicatorContext,
    /// EWMA coefficient for λ updates.
    ema: f64,
    /// Progress and elapsed time at the previous tick.
    last: Option<(f64, f64)>,
    /// Accumulated wall seconds since the last λ update.
    pending_dt: f64,
    /// Accumulated modelled-advance seconds since the last λ update.
    pending_advance: f64,
}

impl RecalibrationLayer {
    /// A layer recalibrating `scaled` using `indicator` for progress.
    /// The inner controller must predict from the *same* [`ScaledModel`]
    /// for the rescaling to take effect (see [`recalibrated`]).
    pub fn new(scaled: Arc<ScaledModel>, indicator: IndicatorContext) -> Self {
        RecalibrationLayer {
            scaled,
            indicator,
            ema: 0.2,
            last: None,
            pending_dt: 0.0,
            pending_advance: 0.0,
        }
    }

    /// The current inflation factor λ.
    pub fn inflation(&self) -> f64 {
        self.scaled.scale()
    }

    /// A shared handle onto the scaled model, usable to observe λ
    /// after the controller has been handed to a simulator.
    pub fn scaled_handle(&self) -> Arc<ScaledModel> {
        self.scaled.clone()
    }

    /// Per-tick slip estimation: between consecutive ticks, the base
    /// model's (median) remaining time at the *current* allocation
    /// should shrink by the elapsed interval. Shrinking slower means
    /// the cluster is delivering less than the model assumes; the
    /// ratio, smoothed, is λ. Evaluating both endpoints at the same
    /// allocation makes the estimate insensitive to the allocation
    /// trajectory.
    fn update_lambda(&mut self, status: &JobStatus) {
        let elapsed = status.elapsed.as_secs_f64();
        let p = self.indicator.progress(&status.stage_fraction);
        let Some((p_prev, elapsed_prev)) = self.last.replace((p, elapsed)) else {
            return;
        };
        let dt = elapsed - elapsed_prev;
        if dt <= 0.0 {
            return;
        }
        let a = status.guarantee.max(1);
        let base = self.scaled.base();
        let modelled_advance = (base.remaining_percentile(p_prev, a, 50.0)
            - base.remaining_percentile(p, a, 50.0))
        .max(0.0);
        self.pending_dt += dt;
        self.pending_advance += modelled_advance;

        // Flush once enough modelled progress accrued to give a stable
        // ratio, or after a long quiet stretch (a genuine crawl —
        // short quiet stretches are normal barrier tails that exist in
        // training too).
        let enough_signal = self.pending_advance >= 45.0;
        let long_silence = self.pending_dt >= 600.0;
        if !enough_signal && !long_silence {
            return;
        }
        let denom = self.pending_advance.max(self.pending_dt / 3.0);
        let observed = (self.pending_dt / denom).clamp(1.0 / 3.0, 3.0);
        self.pending_dt = 0.0;
        self.pending_advance = 0.0;
        let current = self.scaled.scale();
        self.scaled
            .set_scale(current + self.ema * (observed - current));
    }
}

impl ControlLayer for RecalibrationLayer {
    fn name(&self) -> &'static str {
        "recalibration"
    }

    fn before_tick(&mut self, status: &JobStatus) {
        self.update_lambda(status);
    }
}

/// Builds a recalibrating controller from the same ingredients as a
/// plain [`JockeyController`]: the trained model is wrapped in a
/// [`ScaledModel`] shared between the controller and the layer. Read λ
/// afterwards via `controller.layer::<RecalibrationLayer>()` or a
/// [`RecalibrationLayer::scaled_handle`] taken before handing the
/// controller off.
pub fn recalibrated(
    model: Arc<CpaModel>,
    indicator: IndicatorContext,
    utility: UtilityFunction,
    params: ControlParams,
) -> Layered<JockeyController> {
    let scaled = ScaledModel::new(model);
    let jockey = JockeyController::new(
        scaled.clone() as Arc<dyn CompletionModel>,
        indicator.clone(),
        utility,
        params,
    );
    Layered::new(jockey).with(Box::new(RecalibrationLayer::new(scaled, indicator)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpa::TrainConfig;
    use crate::progress::ProgressIndicator;
    use jockey_cluster::{
        ClusterConfig, ClusterSim, FixedAllocation, JobController, JobSpec, JobStatus,
    };
    use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
    use jockey_simrt::dist::Constant;
    use jockey_simrt::time::{SimDuration, SimTime};

    fn trained() -> (Arc<CpaModel>, IndicatorContext) {
        let mut b = JobGraphBuilder::new("recal");
        let m = b.stage("map", 24);
        let r = b.stage("reduce", 2);
        b.edge(m, r, EdgeKind::AllToAll);
        let graph = Arc::new(b.build().unwrap());
        let spec = JobSpec::uniform(graph.clone(), Constant(30.0), Constant(0.5), 0.0);
        let mut sim = ClusterSim::new(ClusterConfig::dedicated(6), 3);
        sim.add_job(spec, Box::new(FixedAllocation(6)));
        let profile = sim.run_single().profile;
        let ctx = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &graph, &profile, None);
        let model = Arc::new(CpaModel::train(
            &graph,
            &profile,
            &ctx,
            &TrainConfig::fast(vec![1, 2, 4, 8]),
            7,
        ));
        (model, ctx)
    }

    fn status(minute: u64, frac: f64, guarantee: u32) -> JobStatus {
        JobStatus {
            now: SimTime::from_mins(minute),
            elapsed: SimDuration::from_mins(minute),
            stage_fraction: vec![frac, 0.0],
            stage_completed: vec![(frac * 24.0) as u32, 0],
            running: guarantee,
            running_guaranteed: guarantee,
            guarantee,
            work_done: frac * 24.0 * 30.0,
            finished: false,
        }
    }

    fn inflation(c: &Layered<JockeyController>) -> f64 {
        c.layer::<RecalibrationLayer>().unwrap().inflation()
    }

    #[test]
    fn slow_progress_raises_inflation() {
        let (model, ctx) = trained();
        let mut c = recalibrated(
            model,
            ctx,
            UtilityFunction::deadline(SimDuration::from_mins(60)),
            ControlParams::default(),
        );
        c.initial(&status(0, 0.0, 4));
        // The job crawls: 25 minutes in, only 20% of the map stage done
        // at 4 tokens — the clean model would have finished most of it.
        for minute in 1..=25 {
            let frac = 0.2 * minute as f64 / 25.0;
            c.tick(&status(minute, frac, 4));
        }
        assert!(
            inflation(&c) > 1.3,
            "inflation {} did not rise for a crawling job",
            inflation(&c)
        );
    }

    #[test]
    fn on_model_progress_keeps_inflation_near_one() {
        // Run the controller against the real simulator in clean,
        // training-identical conditions: the measured inflation should
        // stay close to 1.
        let mut b = JobGraphBuilder::new("recal-clean");
        let m = b.stage("map", 24);
        let r = b.stage("reduce", 2);
        b.edge(m, r, EdgeKind::AllToAll);
        let graph = Arc::new(b.build().unwrap());
        let spec = JobSpec::uniform(graph.clone(), Constant(30.0), Constant(0.5), 0.0);
        let mut sim = ClusterSim::new(ClusterConfig::dedicated(6), 3);
        sim.add_job(spec.clone(), Box::new(FixedAllocation(6)));
        let profile = sim.run_single().profile;
        let ctx = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &graph, &profile, None);
        let model = Arc::new(CpaModel::train(
            &graph,
            &profile,
            &ctx,
            &TrainConfig::fast(vec![1, 2, 4, 8]),
            7,
        ));
        let controller = recalibrated(
            model,
            ctx,
            UtilityFunction::deadline(SimDuration::from_mins(30)),
            ControlParams {
                dead_zone: SimDuration::from_secs(30),
                ..ControlParams::default()
            },
        );
        let handle = controller
            .layer::<RecalibrationLayer>()
            .unwrap()
            .scaled_handle();
        let mut cfg = ClusterConfig::dedicated(8);
        cfg.control_period = SimDuration::from_secs(30);
        let mut sim = ClusterSim::new(cfg, 9);
        sim.add_job(spec, Box::new(controller));
        let result = sim.run_single();
        assert!(result.completed_at.is_some());
        let lambda = handle.scale();
        assert!(
            (0.5..=1.6).contains(&lambda),
            "inflation {lambda} drifted under clean conditions"
        );
    }

    #[test]
    fn inflated_model_allocates_more() {
        let (model, ctx) = trained();
        let params = ControlParams {
            dead_zone: SimDuration::from_secs(30),
            ..ControlParams::default()
        };
        let mk = || {
            recalibrated(
                model.clone(),
                ctx.clone(),
                UtilityFunction::deadline(SimDuration::from_mins(30)),
                params,
            )
        };
        // Run A progresses on schedule; run B crawls. B must end up
        // asking for at least as many tokens.
        let mut fast = mk();
        let mut slow = mk();
        fast.initial(&status(0, 0.0, 4));
        slow.initial(&status(0, 0.0, 4));
        let mut g_fast = 4;
        let mut g_slow = 4;
        for minute in 1..=15 {
            g_fast = fast
                .tick(&status(minute, (minute as f64 / 16.0).min(0.99), g_fast))
                .guarantee;
            g_slow = slow
                .tick(&status(minute, (minute as f64 / 80.0).min(0.99), g_slow))
                .guarantee;
        }
        assert!(g_slow >= g_fast, "slow {g_slow} vs fast {g_fast}");
    }
}
