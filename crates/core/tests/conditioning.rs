//! Conditioning integration tests.
//!
//! Each §4.3 mechanism — the argmin, slack, the dead-zone gate on
//! increases, the hysteresis EWMA and the min clamp — is checked
//! against its closed form through [`JockeyController`]'s decisions,
//! and the controller's per-tick decisions on Fig. 6-style runs are
//! pinned bit for bit.

use std::sync::Arc;

use jockey_cluster::{
    ClusterConfig, ClusterSim, ControlDecision, FixedAllocation, JobController, JobSpec, JobStatus,
};
use jockey_core::alloc::ArgminPolicy;
use jockey_core::control::{ControlParams, JockeyController};
use jockey_core::cpa::{CpaModel, TrainConfig};
use jockey_core::predict::CompletionModel;
use jockey_core::progress::{IndicatorContext, ProgressIndicator};
use jockey_core::utility::UtilityFunction;
use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
use jockey_simrt::dist::Constant;
use jockey_simrt::time::{SimDuration, SimTime};

/// Closed-form model: `remaining = W · (1 − p) / a`.
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

/// A one-stage job whose progress `p` is its stage fraction.
fn toy_indicator() -> IndicatorContext {
    let mut b = JobGraphBuilder::new("toy");
    b.stage("only", 10);
    let g = b.build().unwrap();
    let mut pb = jockey_jobgraph::profile::ProfileBuilder::new(&g);
    for _ in 0..10 {
        pb.record_task(jockey_jobgraph::StageId(0), 1.0, 10.0, false);
    }
    let p = pb.finish(100.0, 1.0);
    IndicatorContext::new(ProgressIndicator::VertexFrac, &g, &p, None)
}

fn toy_status(progress: f64, elapsed_secs: f64) -> JobStatus {
    JobStatus {
        now: SimTime::from_secs_f64(elapsed_secs),
        elapsed: SimDuration::from_secs_f64(elapsed_secs),
        stage_fraction: vec![progress],
        stage_completed: vec![(progress * 10.0) as u32],
        running: 1,
        running_guaranteed: 1,
        guarantee: 1,
        work_done: progress * 100.0,
        finished: false,
    }
}

/// A Toy controller against a 60-minute deadline.
fn toy_controller(work: f64, params: ControlParams) -> JockeyController {
    JockeyController::new(
        Arc::new(Toy { work }),
        toy_indicator(),
        UtilityFunction::deadline(SimDuration::from_mins(60)),
        params,
    )
}

/// Ticks `(p, t_r secs, expected raw)` and returns the guarantees.
fn guarantees(c: &mut JockeyController, script: &[(f64, f64, f64)]) -> Vec<u32> {
    script
        .iter()
        .map(|&(p, t, raw)| {
            let d = c.tick(&toy_status(p, t));
            assert_eq!(d.raw, Some(raw), "raw at t={t}");
            d.guarantee
        })
        .collect()
}

// ---------------------------------------------------------------------
// Per-mechanism closed forms.
// ---------------------------------------------------------------------

/// §4.3 argmin with the linear toy model: the minimum allocation that
/// makes the deadline is `⌈S·W·(1−p) / (D − t)⌉`.
#[test]
fn argmin_matches_the_ceiling_closed_form() {
    let work = 36_000.0;
    let deadline = 3_600.0;
    let policy = ArgminPolicy::new(
        Arc::new(Toy { work }) as Arc<dyn CompletionModel>,
        UtilityFunction::deadline(SimDuration::from_secs_f64(deadline)),
        1,
    );
    for &(progress, elapsed, inflation) in &[
        (0.0, 0.0, 1.0),
        (0.0, 0.0, 1.2),
        (0.5, 600.0, 1.0),
        (0.5, 600.0, 1.6),
        (0.9, 3_000.0, 1.2),
    ] {
        let expect = (inflation * work * (1.0 - progress) / (deadline - elapsed)).ceil() as u32;
        let got = policy.raw_allocation(&[], progress, elapsed, inflation);
        assert_eq!(got, expect.max(1), "p={progress} t={elapsed} S={inflation}");
    }
}

#[test]
fn slack_inflates_predictions_not_allocations() {
    // 36000/3600 = 10 tokens without slack, ⌈1.5·10⌉ = 15 with
    // S = 1.5 — but the reported prediction is the model's own,
    // uninflated: 36000 s / 15 tokens = 2400 s, not 3600 s.
    let params = ControlParams {
        slack: 1.0,
        hysteresis: 1.0,
        dead_zone: SimDuration::ZERO,
        min_allocation: 1,
    };
    let d = toy_controller(36_000.0, params).tick(&toy_status(0.0, 0.0));
    assert_eq!((d.raw, d.guarantee), (Some(10.0), 10));
    assert_eq!(d.predicted_completion, Some(3_600.0));
    let slacked = ControlParams {
        slack: 1.5,
        ..params
    };
    let d = toy_controller(36_000.0, slacked).tick(&toy_status(0.0, 0.0));
    assert_eq!((d.raw, d.guarantee), (Some(15.0), 15));
    assert_eq!(d.predicted_completion, Some(2_400.0));
}

#[test]
fn dead_zone_gates_increases_on_the_behind_boundary() {
    // W = 3000 s, d = 3600 s, D = 300 s, α = 0.25. An increase over
    // A^s passes iff the job is behind at the probe ⌊A^s⌉:
    // t + W(1−p)/⌊A^s⌉ > d − D = 3300 s. Decreases always pass.
    let params = ControlParams {
        slack: 1.0,
        hysteresis: 0.25,
        dead_zone: SimDuration::from_secs(300),
        min_allocation: 1,
    };
    let mut c = toy_controller(3_000.0, params);
    let g = guarantees(
        &mut c,
        &[
            // First decision adopts the raw allocation: A^s = 1.
            (0.0, 0.0, 1.0),
            // 2100 + 3000/1 > 3300: behind, passes. A^s = 1.5.
            (0.0, 2_100.0, 3.0),
            // Probe 2: 2160 + 1800/2 = 3060 ≤ 3300, blocked. A^s = 1.5.
            (0.4, 2_160.0, 2.0),
            // Probe 2: 2220 + 1740/2 = 3090 ≤ 3300, blocked. A^s = 1.5.
            (0.42, 2_220.0, 2.0),
            // Probe 2: 2700 + 1650/2 = 3525 > 3300, passes. A^s = 1.875.
            (0.45, 2_700.0, 3.0),
            // A decrease passes although 2 tokens are on schedule:
            // A^s = 1.875 + 0.25·(1 − 1.875) = 1.65625.
            (0.98, 2_760.0, 1.0),
        ],
    );
    // Ungated, A^s would be 1.625 and 1.71875 on the held ticks and
    // 2.0390625 on the fifth — a third token.
    assert_eq!(g, [1, 2, 2, 2, 2, 2]);
}

#[test]
fn hysteresis_follows_the_ewma_closed_form() {
    let params = ControlParams {
        slack: 1.0,
        hysteresis: 0.25,
        dead_zone: SimDuration::ZERO,
        min_allocation: 1,
    };
    let mut c = toy_controller(28_000.0, params);
    // First decision jumps to the target: A^s = 8. Then
    // A^s ← A^s + α(A^r − A^s): 8 + 0.25·(4−8) = 7, then 6.25, then
    // 5.6875, each ceiled.
    let g = guarantees(
        &mut c,
        &[
            (0.0, 0.0, 8.0),
            (0.6, 600.0, 4.0),
            (0.62, 720.0, 4.0),
            (0.64, 840.0, 4.0),
        ],
    );
    assert_eq!(g, [8, 7, 7, 6]);
    // A deadline change forgets the smoothed state: the next decision
    // jumps straight to the raw allocation.
    c.deadline_changed(SimDuration::from_mins(120));
    assert_eq!(guarantees(&mut c, &[(0.64, 900.0, 2.0)]), [2]);
}

#[test]
fn min_clamp_ceils_and_floors() {
    let params = ControlParams {
        slack: 1.0,
        hysteresis: 0.25,
        dead_zone: SimDuration::ZERO,
        min_allocation: 2,
    };
    let mut c = toy_controller(360.0, params);
    // One token would do (180 s), but the floor is 2; then a raw 4
    // moves A^s to 2.5, applied as ⌈2.5⌉ = 3.
    let g = guarantees(&mut c, &[(0.5, 0.0, 2.0), (0.0, 3_500.0, 4.0)]);
    assert_eq!(g, [2, 3]);
    // A finished job drops to the floor.
    let mut done = toy_status(1.0, 3_600.0);
    done.finished = true;
    assert_eq!(c.tick(&done), ControlDecision::simple(2));
}

// ---------------------------------------------------------------------
// Pinned decisions on Fig. 6-style runs.
// ---------------------------------------------------------------------

fn trained() -> (Arc<CpaModel>, IndicatorContext) {
    let mut b = JobGraphBuilder::new("conditioning");
    let m = b.stage("map", 24);
    let r = b.stage("reduce", 6);
    b.edge(m, r, EdgeKind::AllToAll);
    let graph = Arc::new(b.build().unwrap());
    let spec = JobSpec::uniform(graph.clone(), Constant(30.0), Constant(20.0), 0.0);
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

fn status(minute: u64, map_frac: f64, reduce_frac: f64, guarantee: u32) -> JobStatus {
    JobStatus {
        now: SimTime::from_mins(minute),
        elapsed: SimDuration::from_mins(minute),
        stage_fraction: vec![map_frac, reduce_frac],
        stage_completed: vec![(map_frac * 24.0) as u32, (reduce_frac * 6.0) as u32],
        running: guarantee,
        running_guaranteed: guarantee,
        guarantee,
        work_done: map_frac * 24.0 * 30.0 + reduce_frac * 6.0 * 20.0,
        finished: false,
    }
}

/// Fig. 6(b)'s scenario shape: the map stage runs on model, then the
/// reduce stage crawls at a fraction of its training rate, forcing the
/// controller to re-size mid-job.
fn fig6_script() -> Vec<(u64, f64, f64)> {
    let mut out = Vec::new();
    for minute in 1..=40 {
        let map = (minute as f64 / 12.0).min(1.0);
        let reduce = if minute <= 12 {
            0.0
        } else {
            ((minute - 12) as f64 * 0.015).min(1.0) // ~10x slower than trained.
        };
        out.push((minute, map, reduce));
    }
    out
}

/// Runs the Fig. 6 script under `utility` with the default parameters,
/// changing the deadline to `change.1` just before minute `change.0`,
/// then ticks the finished job once at minute 41; returns every
/// decision.
fn fig6_decisions(
    utility: UtilityFunction,
    change: Option<(u64, SimDuration)>,
) -> Vec<ControlDecision> {
    let (model, indicator) = trained();
    let mut c = JockeyController::new(model, indicator, utility, ControlParams::default());
    let mut guarantee = 0;
    let mut out = Vec::new();
    for (minute, map, reduce) in fig6_script() {
        if let Some((at, deadline)) = change {
            if at == minute {
                c.deadline_changed(deadline);
            }
        }
        let d = c.tick(&status(minute, map, reduce, guarantee));
        guarantee = d.guarantee;
        out.push(d);
    }
    let mut done = status(41, 1.0, 1.0, guarantee);
    done.finished = true;
    out.push(c.tick(&done));
    out
}

fn assert_pinned(got: &[ControlDecision], raw: &[u32], guarantee: &[u32], predicted: &[u64]) {
    let (finished, running) = got.split_last().unwrap();
    assert_eq!(*finished, ControlDecision::simple(1));
    assert_eq!(running.len(), raw.len());
    for (i, d) in running.iter().enumerate() {
        let minute = i + 1;
        assert_eq!(d.raw, Some(f64::from(raw[i])), "raw at minute {minute}");
        assert_eq!(d.guarantee, guarantee[i], "guarantee at minute {minute}");
        assert_eq!(
            d.predicted_completion.map(f64::to_bits),
            Some(predicted[i]),
            "prediction at minute {minute}"
        );
    }
}

#[rustfmt::skip]
const FIG6_RAW: [u32; 40] = [
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2,
];
#[rustfmt::skip]
const FIG6_GUARANTEE: [u32; 40] = [
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2,
];
#[rustfmt::skip]
const FIG6_PREDICTED_BITS: [u64; 40] = [
    4654113973120008192, 4653916061027008512, 4653784119631675392, 4653586207538675712,
    4653388295445676032, 4653256354050342912, 4653058441957343232, 4652860529864343552,
    4652728588469010432, 4652530676376010752, 4652332764283011072, 4652183230701633536,
    4652464705678344192, 4652728588469010432, 4652992471259676672, 4653256354050342912,
    4653520236841009152, 4653784119631675392, 4653784119631675392, 4654048002422341632,
    4654311885213007872, 4654575768003674112, 4654839650794340352, 4655103533585006592,
    4655367416375672832, 4655631299166339072, 4655895181957005312, 4656159064747671552,
    4656422947538337792, 4656686830329004032, 4656836363910381568, 4656869349259214848,
    4657001290654547968, 4657133232049881088, 4657265173445214208, 4657397114840547328,
    4657529056235880448, 4657660997631213568, 4657562041584713728, 4657693982980046848,
];
#[rustfmt::skip]
const NO_DEADLINE_RAW: [u32; 40] = [
    2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 2, 2, 4, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 4, 4,
];
#[rustfmt::skip]
const NO_DEADLINE_GUARANTEE: [u32; 40] = [
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 4, 5, 5, 6, 6, 7, 7, 7, 8, 8, 8, 8, 8, 7, 7,
];
#[rustfmt::skip]
const NO_DEADLINE_PREDICTED_BITS: [u64; 40] = [
    4649808285585637376, 4649940226980970496, 4650072168376303616, 4650072168376303616,
    4650204109771636736, 4650336051166969856, 4650336051166969856, 4650467992562302976,
    4650599933957636096, 4650599933957636096, 4650731875352969216, 4650863816748302336,
    4651391582329634816, 4651919347910967296, 4652332764283011072, 4652596647073677312,
    4652860529864343552, 4653124412655009792, 4653388295445676032, 4653652178236342272,
    4653916061027008512, 4654179943817674752, 4654443826608340992, 4654707709399007232,
    4654971592189673472, 4655015572654784512, 4655224479864061952, 4655488362654728192,
    4655697269864005632, 4655961152654671872, 4656170059863949312, 4656433942654615552,
    4656697825445281792, 4656814373677826048, 4656946315073159168, 4657078256468492288,
    4657210197863825408, 4657342139259158528, 4657468583096352768, 4657600524491685888,
];
#[rustfmt::skip]
const DEADLINE_CHANGE_RAW: [u32; 40] = [
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 2, 2, 4, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 4, 4,
];
#[rustfmt::skip]
const DEADLINE_CHANGE_GUARANTEE: [u32; 40] = [
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 2, 2, 2, 4, 5, 5, 6, 6, 7, 7, 7, 8, 8, 8, 8, 8, 7, 7,
];
#[rustfmt::skip]
const DEADLINE_CHANGE_PREDICTED_BITS: [u64; 40] = [
    4654113973120008192, 4653916061027008512, 4653784119631675392, 4653586207538675712,
    4653388295445676032, 4653256354050342912, 4653058441957343232, 4652860529864343552,
    4652728588469010432, 4652530676376010752, 4652332764283011072, 4652183230701633536,
    4652464705678344192, 4652728588469010432, 4652992471259676672, 4653256354050342912,
    4653520236841009152, 4653784119631675392, 4653784119631675392, 4654048002422341632,
    4654311885213007872, 4654575768003674112, 4654443826608340992, 4654707709399007232,
    4654971592189673472, 4655015572654784512, 4655224479864061952, 4655488362654728192,
    4655697269864005632, 4655961152654671872, 4656170059863949312, 4656433942654615552,
    4656697825445281792, 4656814373677826048, 4656946315073159168, 4657078256468492288,
    4657210197863825408, 4657342139259158528, 4657468583096352768, 4657600524491685888,
];
#[test]
fn fig6_decisions_are_pinned() {
    let got = fig6_decisions(UtilityFunction::deadline(SimDuration::from_mins(45)), None);
    assert_pinned(&got, &FIG6_RAW, &FIG6_GUARANTEE, &FIG6_PREDICTED_BITS);
}

#[test]
fn no_deadline_decisions_are_pinned() {
    // The 30-minute deadline shape with no deadline encoded: the dead
    // zone shifts the utility but never gates an increase.
    let utility = UtilityFunction::from_knots(vec![
        (0.0, 1.0),
        (1_800.0, 1.0),
        (2_400.0, -1.0),
        (61_800.0, -1000.0),
    ]);
    let got = fig6_decisions(utility, None);
    assert_pinned(
        &got,
        &NO_DEADLINE_RAW,
        &NO_DEADLINE_GUARANTEE,
        &NO_DEADLINE_PREDICTED_BITS,
    );
}

#[test]
fn deadline_change_decisions_are_pinned() {
    // 45 minutes tightened to 30 at minute 20: the smoothed state
    // resets and the slowdown escalates the grant through hysteresis.
    let got = fig6_decisions(
        UtilityFunction::deadline(SimDuration::from_mins(45)),
        Some((20, SimDuration::from_mins(30))),
    );
    assert_pinned(
        &got,
        &DEADLINE_CHANGE_RAW,
        &DEADLINE_CHANGE_GUARANTEE,
        &DEADLINE_CHANGE_PREDICTED_BITS,
    );
}
