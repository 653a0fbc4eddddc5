//! `sim-scenarios`: closed-loop Jockey runs of the quick-scale jobs on
//! three registry shapes, with every `ClusterSim` built by the
//! benchmark so the engine's seams can be timed.
//!
//! - `baseline`: the flat experiment cluster and the environment's
//!   models.
//! - `hostile`: topology, rack failures and diurnal load, with each
//!   job's `C(p, a)` retrained on the scenario's geometry (as the
//!   `scenarios` experiment does). Only this shape places tasks.
//! - `straggler`: Pareto-inflated runtimes under clone-on-slow
//!   speculation, with each job re-profiled and retrained under the
//!   cloning policy and its deadline derived from that model (as
//!   `jockey-cli scenario straggler` does). Only this shape speculates.
//!
//! Set-up builds the environment; retraining is part of the work.

use std::sync::Arc;
use std::time::Instant;

use jockey_cluster::{
    CloneOnSlow, ClusterConfig, ClusterSim, DefaultFailureModel, FixedAllocation, JobController,
    JobResult, JobSpec, LocalityFirst, WeightedFair,
};
use jockey_core::control::{ControlParams, JockeyController};
use jockey_core::oracle::oracle_allocation;
use jockey_core::policy::JockeySetup;
use jockey_core::predict::CompletionModel;
use jockey_core::utility::UtilityFunction;
use jockey_experiments::artifact::fnv1a;
use jockey_experiments::{Env, EvalJob, Scale};
use jockey_jobgraph::JobProfile;
use jockey_simrt::rng::SeedDeriver;
use jockey_simrt::time::{SimDuration, SimTime};
use jockey_workloads::scenario::{self, ScenarioDef};

use crate::catalog::SHAPES;
use crate::harness::{Outcome, Trace, Workload};
use crate::seams::{
    CountedModel, TimedController, TimedFailure, TimedPlacement, TimedScheduler, TimedSpeculation,
};
use crate::span::Span;

/// Seed salt decorrelating these runs from the experiments' own.
const SALT: u64 = 0x51b0_7c4e;

/// Deadline multiple of the model's p90 latency at the full budget,
/// for the re-profiled straggler jobs (the environment's own policy).
const DEADLINE_FACTOR: f64 = 2.6;

/// Tokens of the dedicated profiling run a re-profiled job gets (the
/// environment's training run size).
const TRAINING_TOKENS: u32 = 80;

/// Profiling runs tried per re-profiled job. Under the straggler shape a
/// task drawn far into the Pareto tail can outlive every machine it
/// lands on, so at about a quarter of seeds some job's first
/// dedicated run never finishes; Jockey trains from a prior run that
/// completed (§2.6), so the next run is taken instead.
const PROFILE_ATTEMPTS: u64 = 8;

/// The simulator workload at one seed.
pub struct SimScenarios {
    /// Environment and run seed.
    pub seed: u64,
    /// Scale of the environment's jobs (quick for the benchmark).
    pub scale: Scale,
    /// Runs per (shape, job).
    pub repeats: usize,
}

/// A built environment and how long training took.
pub struct Built {
    env: Env,
    build_nanos: u64,
}

/// One job prepared for one shape: the spec it executes, the model
/// that controls it and the deadline it is held to.
struct Prepared {
    spec: JobSpec,
    setup: JockeySetup,
    deadline: SimDuration,
}

/// Per-iteration totals read from the job results.
#[derive(Default)]
struct Totals {
    guaranteed: u64,
    spare: u64,
    clones: u64,
    clone_wins: u64,
    work: f64,
    wasted: f64,
    frac_above_oracle: f64,
}

impl Workload for SimScenarios {
    type Ready = Built;

    fn setup(&self) -> Built {
        let t = Instant::now();
        let env = Env::build(self.scale, self.seed);
        Built {
            env,
            build_nanos: t.elapsed().as_nanos() as u64,
        }
    }

    fn run(&self, built: Built, trace: Option<&Trace>) -> Outcome {
        let env = &built.env;
        let mut out = Outcome::default();
        let train_span = trace.map(|t| t.span("core.cpa.train"));
        if let Some(span) = &train_span {
            span.add_detached(env.jobs.len() as u64, built.build_nanos);
        }
        let run_span = trace.map(|t| t.span("cluster.sim.run"));
        let engine_self_before = run_span.as_ref().map_or(0.0, |s| s.self_s());
        let mut totals = Totals::default();
        let mut met = 0;
        let mut fp: Vec<u8> = Vec::new();

        for (si, shape) in SHAPES.iter().enumerate() {
            let def = scenario::find(shape).expect("registered scenario shape");
            let cluster = (def.build)(env.experiment_cluster());
            if let Err(e) = cluster.validate() {
                out.fail(format!("shape {shape} builds an invalid cluster: {e}"));
                continue;
            }
            let shape_start = run_span.as_ref().map(|s| s.busy_s());
            for (ji, job) in env.detailed().into_iter().enumerate() {
                let prepared = prepare(
                    def,
                    &cluster,
                    env,
                    job,
                    train_seed(env.seed, si, ji),
                    train_span.as_deref(),
                );
                let spec = Arc::new(prepared.spec);
                for rep in 0..self.repeats {
                    let seed =
                        env.seed ^ SALT ^ ((si as u64) << 28) ^ ((ji as u64) << 12) ^ rep as u64;
                    let mut sim = ClusterSim::new(cluster.clone(), seed);
                    let model: Arc<dyn CompletionModel> = match trace {
                        Some(t) => Arc::new(CountedModel {
                            inner: prepared.setup.cpa.clone(),
                            queries: t.span("core.cpa.query"),
                        }),
                        None => prepared.setup.cpa.clone(),
                    };
                    let controller: Box<dyn JobController> = Box::new(JockeyController::new(
                        model,
                        prepared.setup.indicator_context(),
                        UtilityFunction::deadline(prepared.deadline),
                        ControlParams::default(),
                    ));
                    let controller: Box<dyn JobController> = match trace {
                        Some(t) => {
                            install_seams(&mut sim, t, seed);
                            Box::new(TimedController {
                                inner: controller,
                                span: t.span("core.control.tick"),
                            })
                        }
                        None => controller,
                    };
                    sim.add_job_shared(spec.clone(), controller);
                    let result = match &run_span {
                        Some(span) => span.time(|| sim.run_single()),
                        None => sim.run_single(),
                    };
                    out.attempted += 1;
                    let horizon =
                        result.started_at + cluster.max_sim_time.saturating_since(SimTime::ZERO);
                    if score(&result, prepared.deadline, horizon, &mut totals, &mut fp) {
                        met += 1;
                    }
                    if !result_is_finite(&result) {
                        out.fail(format!("{shape} job {ji} run {rep}: non-finite result"));
                    }
                }
            }
            if let (Some(span), Some(busy0)) = (&run_span, shape_start) {
                out.layer(
                    format!("cluster.sim.run.{shape}.busy_s"),
                    span.busy_s() - busy0,
                );
            }
        }

        out.slo = (met, out.attempted);
        out.fingerprint = fnv1a(&fp);
        if out.attempted > 0 {
            let runs = out.attempted as f64;
            out.layer("frac_above_oracle", totals.frac_above_oracle / runs);
        }
        if let Some(span) = &run_span {
            out.layer("cluster.engine.self_s", span.self_s() - engine_self_before);
            out.layer("cluster.tasks.guaranteed", totals.guaranteed as f64);
            out.layer("cluster.tasks.spare", totals.spare as f64);
            out.layer("cluster.tasks.clones", totals.clones as f64);
            out.layer(
                "cluster.clone_win_ratio",
                ratio(totals.clone_wins as f64, totals.clones as f64),
            );
            out.layer(
                "cluster.wasted_work_ratio",
                ratio(totals.wasted, totals.work + totals.wasted),
            );
        }
        out
    }
}

/// Seed of the retraining (and re-profiling) of job `ji` on shape `si`.
fn train_seed(env_seed: u64, si: usize, ji: usize) -> u64 {
    env_seed ^ SALT ^ ((si as u64) << 40) ^ ((ji as u64) << 16)
}

/// Prepares one job for one shape. The flat shape runs the
/// environment's job and model. A shape with a topology or a workload
/// transformation retrains `C(p, a)` on the geometry and cloning policy
/// the job will run under; a transformed job is also re-profiled, and
/// its deadline derived from the retrained model as the environment
/// derives its own.
fn prepare(
    def: &ScenarioDef,
    cluster: &ClusterConfig,
    env: &Env,
    job: &EvalJob,
    train_seed: u64,
    train_span: Option<&Span>,
) -> Prepared {
    if def.shape.is_none() && cluster.topology.is_none() {
        return Prepared {
            spec: job.gen.spec.clone(),
            setup: job.setup.clone(),
            deadline: job.deadline,
        };
    }
    let spec = match def.shape {
        Some(shape) => shape(job.gen.spec.clone()),
        None => job.gen.spec.clone(),
    };
    let profile = match def.shape {
        Some(_) => completed_profile(&spec, train_seed ^ 0xa5),
        None => job.profile.clone(),
    };
    let mut cfg = env.scale.train_config();
    cfg.topology = cluster.topology.clone();
    cfg.speculation = cluster.speculation.clone();
    let train = || {
        JockeySetup::train(
            job.gen.graph.clone(),
            profile,
            job.setup.indicator,
            &cfg,
            train_seed,
        )
    };
    let setup = match train_span {
        Some(span) => span.time(train),
        None => train(),
    };
    let deadline = match def.shape {
        Some(_) => {
            let p90 = setup.cpa.remaining_percentile(0.0, setup.max_tokens, 90.0);
            SimDuration::from_mins((p90 * DEADLINE_FACTOR / 60.0).ceil().max(5.0) as u64)
        }
        None => job.deadline,
    };
    Prepared {
        spec,
        setup,
        deadline,
    }
}

/// The profile of the first of [`PROFILE_ATTEMPTS`] dedicated runs of
/// `spec` that finishes. The first attempt is the run
/// `jockey_workloads::recurring::training_profile` makes at `seed`.
///
/// # Panics
///
/// Panics if no attempt finishes.
fn completed_profile(spec: &JobSpec, seed: u64) -> JobProfile {
    (0..PROFILE_ATTEMPTS)
        .find_map(|attempt| {
            let result = profiling_run(spec, seed, attempt);
            result.completed_at.map(|_| result.profile)
        })
        .unwrap_or_else(|| {
            panic!(
                "no profiling run of {} finished in {PROFILE_ATTEMPTS} attempts",
                spec.graph.name()
            )
        })
}

/// One dedicated profiling run of `spec` at the environment's training
/// size.
fn profiling_run(spec: &JobSpec, seed: u64, attempt: u64) -> JobResult {
    let cfg = ClusterConfig::dedicated_with_failures(TRAINING_TOKENS);
    let mut sim = ClusterSim::new(cfg, seed ^ (attempt << 40));
    sim.add_job(spec.clone(), Box::new(FixedAllocation(TRAINING_TOKENS)));
    sim.run_single()
}

/// Replaces the engine's default seams with timing decorators over the
/// same implementations, the failure model seeded from the same
/// `machine-failures` stream the engine would fork.
fn install_seams(sim: &mut ClusterSim, trace: &Trace, seed: u64) {
    sim.set_scheduler(Box::new(TimedScheduler {
        inner: WeightedFair,
        span: trace.span("cluster.scheduler.schedule"),
    }));
    sim.set_placement_policy(Box::new(TimedPlacement {
        inner: LocalityFirst,
        span: trace.span("cluster.placement.place"),
    }));
    sim.set_speculation_policy(Box::new(TimedSpeculation {
        inner: CloneOnSlow,
        span: trace.span("cluster.speculation.watch"),
    }));
    sim.set_failure_model(Box::new(TimedFailure {
        inner: DefaultFailureModel::new(SeedDeriver::new(seed).rng("machine-failures")),
        span: trace.span("cluster.failure"),
    }));
}

/// Scores one run against its deadline (incomplete runs are censored
/// at `horizon` and miss), adds it to the totals and the fingerprint,
/// and returns whether the deadline was met.
fn score(
    r: &JobResult,
    deadline: SimDuration,
    horizon: SimTime,
    totals: &mut Totals,
    fp: &mut Vec<u8>,
) -> bool {
    let end = r.completed_at.unwrap_or(horizon);
    let duration = end.saturating_since(r.started_at);
    let met = r.completed_at.is_some() && duration <= deadline;
    let oracle = oracle_allocation(r.work_done_secs, deadline);
    totals.frac_above_oracle += r.trace.fraction_above_oracle(end, oracle);
    totals.guaranteed += r.guaranteed_task_count;
    totals.spare += r.spare_task_count;
    totals.clones += r.clone_task_count;
    totals.clone_wins += r.clone_wins;
    totals.work += r.work_done_secs;
    totals.wasted += r.wasted_secs;
    for x in [
        duration.as_secs_f64(),
        r.work_done_secs,
        r.wasted_secs,
        r.trace.first_guarantee(),
        r.trace.median_guarantee(),
        r.trace.last_guarantee(),
        r.trace.max_guarantee(),
        r.trace.guarantee_token_seconds(end),
    ] {
        fp.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    for n in [
        u64::from(r.completed_at.is_some()),
        r.guaranteed_task_count,
        r.spare_task_count,
        r.clone_task_count,
        r.clone_wins,
    ] {
        fp.extend_from_slice(&n.to_le_bytes());
    }
    met
}

fn result_is_finite(r: &JobResult) -> bool {
    r.work_done_secs.is_finite()
        && r.wasted_secs.is_finite()
        && r.work_done_secs >= 0.0
        && r.wasted_secs >= 0.0
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reprofiled_job_trains_from_a_run_that_finished() {
        // At seed 13 the first dedicated run of straggler-shaped job-G
        // (the one `training_profile` makes) never finishes.
        let env = Env::build(Scale::Quick, 13);
        let si = SHAPES.iter().position(|s| *s == "straggler").unwrap();
        let shape = scenario::find("straggler").unwrap().shape.unwrap();
        let ji = 6;
        let job = env.detailed()[ji];
        assert_eq!(job.gen.graph.name(), "job-G");
        let spec = shape(job.gen.spec.clone());
        let seed = train_seed(env.seed, si, ji) ^ 0xa5;
        assert!(profiling_run(&spec, seed, 0).completed_at.is_none());
        let profile = completed_profile(&spec, seed);
        assert_eq!(profile.stages.len(), spec.graph.num_stages());
    }
}
