//! `service-fleet` and `service-online`: the admission service driven
//! by a closed-loop load generator with one caller.
//!
//! The generator follows `jockey_workloads::service::run_worker`: the
//! same job sampling, one admission attempt per vacant pool slot per
//! control round, virtual-time execution (a job accumulates
//! `guarantee × TICK_SECS` seconds of work per tick), mid-flight
//! deadline tightening, and release on completion. It calls
//! `try_add_job`, `tick`, `deadline_changed`, the handle release and
//! `record_completion` itself so that each call can be timed. Ticks
//! advance virtual time, so there is no wall-clock arrival rate.
//!
//! The submission stream is sampled from the seed once per process.
//! Set-up creates the plane and, for the online workload, bootstraps
//! the family `C(p, a)` model behind a `ModelStore`.

use std::sync::Arc;
use std::time::Instant;

use rand::Rng;

use jockey_cluster::{JobController, JobStatus};
use jockey_core::admission::AdmissionError;
use jockey_core::cpa::{CpaModel, RunObservation, TrainConfig};
use jockey_core::online::{ModelHandle, ModelLifecycleStats, ModelStore, RecordedRun};
use jockey_core::plane::{ControlPlane, JobHandle};
use jockey_core::predict::CompletionModel;
use jockey_core::progress::{IndicatorContext, ProgressIndicator};
use jockey_core::OnlineConfig;
use jockey_experiments::artifact::fnv1a;
use jockey_jobgraph::graph::JobGraphBuilder;
use jockey_jobgraph::profile::ProfileBuilder;
use jockey_jobgraph::StageId;
use jockey_simrt::rng::SeedDeriver;
use jockey_simrt::time::{SimDuration, SimTime};
use jockey_workloads::service::{DriftSpec, LinearWork};

use crate::harness::{Outcome, Trace, Workload};
use crate::seams::CountedModel;
use crate::span::Span;

/// Tasks in the single stage every generated job executes.
const STAGE_TASKS: u32 = 16;

/// Simulated seconds per control tick.
const TICK_SECS: f64 = 60.0;

/// Sampled deadline range, simulated seconds.
const DEADLINE_SECS: (f64, f64) = (1_800.0, 7_200.0);

/// Sampled per-job token requirement range (inclusive).
const TOKENS_NEEDED: (u32, u32) = (1, 4);

/// Slack multiplier for admission and arbitration.
const SLACK: f64 = 1.2;

/// The per-job sizing cap: well above the largest requirement, so
/// infeasible deadlines are found without walking the budget.
const MAX_TOKENS: u32 = 4 * TOKENS_NEEDED.1;

/// Nominal true work (execution seconds) of the online workload's
/// recurring family.
const FAMILY_WORK: f64 = 3_600.0;

/// Mid-run shift in the family's true work.
const DRIFT: DriftSpec = DriftSpec {
    factor: 3.0,
    at_frac: 0.5,
};

/// Shape of one service workload.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Guaranteed tokens under the plane.
    pub budget: u32,
    /// Live-job pool the caller sustains.
    pub concurrent: usize,
    /// Submissions per iteration.
    pub submissions: usize,
    /// Every Nth admitted job has its deadline tightened by 15%
    /// mid-flight.
    pub deadline_change_every: u64,
    /// `false`: each job carries its own exact `LinearWork` model.
    /// `true`: one learned family model behind a `ModelStore`.
    pub online: bool,
}

impl LoadConfig {
    /// `service-fleet`: ~10k live jobs with exact models.
    pub fn fleet() -> LoadConfig {
        LoadConfig {
            budget: 24_000,
            concurrent: 10_000,
            submissions: 20_000,
            deadline_change_every: 50,
            online: false,
        }
    }

    /// `service-online`: a few hundred live jobs sized by the online
    /// family model, whose true work shifts halfway through.
    pub fn online() -> LoadConfig {
        LoadConfig {
            budget: 640,
            concurrent: 256,
            submissions: 2_560,
            deadline_change_every: 7,
            online: true,
        }
    }
}

/// One service workload at one seed.
pub struct ServiceLoad {
    /// Workload shape.
    pub cfg: LoadConfig,
    /// The submission stream, sampled from the seed.
    jobs: Vec<Submission>,
}

impl ServiceLoad {
    /// The workload `cfg` with its submission stream sampled from
    /// `seed`.
    pub fn new(cfg: LoadConfig, seed: u64) -> ServiceLoad {
        let jobs = sample_jobs(&cfg, seed);
        ServiceLoad { cfg, jobs }
    }
}

/// One sampled submission.
struct Submission {
    name: String,
    /// True execution seconds.
    work: f64,
    /// Deadline, simulated seconds.
    deadline: f64,
}

/// The learned family model of the online workload.
struct Family {
    /// What admission consults: the newest store generation over the
    /// nominal closed-form floor.
    model: Arc<dyn CompletionModel>,
    store: Arc<ModelStore>,
}

/// Everything set-up builds.
pub struct Ready {
    plane: Arc<ControlPlane>,
    indicator: IndicatorContext,
    family: Option<Family>,
}

/// A live job in the caller's pool.
struct LiveJob {
    handle: JobHandle,
    seq: u64,
    work: f64,
    deadline: f64,
    work_done: f64,
    elapsed: f64,
    guarantee: u32,
    changed: bool,
    /// The plane's refresh count when the job was admitted: the job is
    /// part of every budget split published after it.
    admitted_at: u64,
    /// The last split whose share this job added to the grant audit.
    audited_split: Option<u64>,
    /// Run trace fed back to the store (online workload only).
    observations: Vec<RunObservation>,
    /// Slack-inflated latency promised at admission (online only).
    predicted: f64,
}

/// The single-stage indicator all generated jobs share: progress is the
/// completed-task fraction of one 16-task stage.
fn job_indicator() -> IndicatorContext {
    let mut b = JobGraphBuilder::new("service-load");
    b.stage("body", STAGE_TASKS);
    let graph = b.build().expect("a one-stage graph is valid");
    let mut pb = ProfileBuilder::new(&graph);
    for _ in 0..STAGE_TASKS {
        pb.record_task(StageId(0), 1.0, 10.0, false);
    }
    let profile = pb.finish(160.0, 1.0);
    IndicatorContext::new(ProgressIndicator::VertexFrac, &graph, &profile, None)
}

/// Cold-start family model: one synthetic nominal-work run absorbed per
/// grid allocation, so every row answers fresh-latency queries before
/// the first completion lands.
fn bootstrap_family_model() -> CpaModel {
    let cfg = TrainConfig {
        progress_bins: 16,
        percentile: 95.0,
        sketch_capacity: Some(64),
        ..TrainConfig::fast((1..=MAX_TOKENS).collect())
    };
    let bins = cfg.progress_bins;
    let mut model = CpaModel::empty(&cfg);
    for a in 1..=MAX_TOKENS {
        let total = FAMILY_WORK / f64::from(a);
        let obs: Vec<RunObservation> = (0..=bins)
            .map(|i| {
                let p = i as f64 / bins as f64;
                RunObservation {
                    elapsed_secs: total * p,
                    progress: p,
                    allocation: a,
                }
            })
            .collect();
        model.absorb_observations(&obs, total, true);
    }
    model
}

/// Samples the submission stream: a deadline, a token requirement, and
/// a work size calibrated so exact admission reserves exactly that many
/// tokens; under the online workload the true work is the family's,
/// shifted by the drift after its onset.
fn sample_jobs(cfg: &LoadConfig, seed: u64) -> Vec<Submission> {
    let mut rng = SeedDeriver::new(seed)
        .child("service")
        .rng_indexed("worker", 0);
    let drift_from = DRIFT.at_frac * cfg.submissions as f64;
    (0..cfg.submissions)
        .map(|seq| {
            let deadline = rng.gen_range(DEADLINE_SECS.0..=DEADLINE_SECS.1);
            let tokens = rng.gen_range(TOKENS_NEEDED.0..=TOKENS_NEEDED.1);
            let u = (f64::from(tokens) - rng.gen_range(0.05..=0.9)) / f64::from(tokens);
            let work = if !cfg.online {
                deadline * f64::from(tokens) * u / SLACK
            } else if seq as f64 >= drift_from {
                FAMILY_WORK * DRIFT.factor
            } else {
                FAMILY_WORK
            };
            Submission {
                name: format!("j{seq}"),
                work,
                deadline,
            }
        })
        .collect()
}

/// The job status one tick reports.
fn status_for(job: &LiveJob, frac: f64, finished: bool) -> JobStatus {
    JobStatus {
        now: SimTime::from_secs_f64(job.elapsed),
        elapsed: SimDuration::from_secs_f64(job.elapsed),
        stage_fraction: vec![frac],
        stage_completed: vec![(frac * f64::from(STAGE_TASKS)) as u32],
        running: job.guarantee,
        running_guaranteed: job.guarantee,
        guarantee: job.guarantee,
        work_done: job.work_done,
        finished,
    }
}

/// The spans the caller records in a traced iteration.
struct Spans {
    admit: Arc<Span>,
    tick: Arc<Span>,
    refresh_tick: Arc<Span>,
    deadline_changed: Arc<Span>,
    release: Arc<Span>,
    record_completion: Arc<Span>,
    size_for_deadline: Arc<Span>,
    model_query: Arc<Span>,
}

impl Spans {
    fn new(trace: &Trace) -> Spans {
        Spans {
            admit: trace.span("core.plane.try_add_job"),
            tick: trace.span("core.plane.tick"),
            refresh_tick: trace.span("core.plane.refresh_tick"),
            deadline_changed: trace.span("core.plane.deadline_changed"),
            release: trace.span("core.plane.release"),
            record_completion: trace.span("core.online.record_completion"),
            size_for_deadline: trace.span("core.online.size_for_deadline"),
            model_query: trace.span("core.plane.model_query"),
        }
    }
}

/// Times `f` into `span` when traced and returns its result and
/// latency in nanoseconds (0 untraced: no clock is read).
fn timed<R>(span: Option<&Span>, f: impl FnOnce() -> R) -> (R, u64) {
    match span {
        None => (f(), 0),
        Some(span) => {
            let t = Instant::now();
            let r = f();
            let nanos = t.elapsed().as_nanos() as u64;
            span.record(nanos);
            (r, nanos)
        }
    }
}

/// Output check on the plane's grants, fed every unfinished tick.
///
/// Between two refreshes every tick is served from one published budget
/// split. A job admitted before that split was folded into it; a later
/// admission is served its reservation until the next split. The shares
/// one split hands to the jobs folded into it must sum within the
/// budget, or to one token each when the fleet outnumbers the budget
/// (the plane's floor). No grant may exceed the per-job cap the models
/// advertise.
#[derive(Debug)]
struct GrantAudit {
    budget: u64,
    max_grant: u32,
    /// Refresh count identifying the split being served.
    split: u64,
    /// Shares served from that split, and to how many jobs.
    shares: u64,
    jobs: u64,
    /// Checks that failed, and the first failure.
    violations: u64,
    first: Option<String>,
}

impl GrantAudit {
    /// An audit of a plane with `budget` tokens whose models cap each
    /// job at `max_grant`.
    fn new(budget: u32, max_grant: u32) -> GrantAudit {
        GrantAudit {
            budget: u64::from(budget),
            max_grant,
            split: 0,
            shares: 0,
            jobs: 0,
            violations: 0,
            first: None,
        }
    }

    /// Records one tick of an unfinished job. `split` is the plane's
    /// refresh count after the tick, `admitted_at` the count when the
    /// job was admitted, `audited` the split the job's share was last
    /// added under, `share` the plane's raw share and `guarantee` the
    /// smoothed grant.
    fn tick(
        &mut self,
        split: u64,
        admitted_at: u64,
        audited: &mut Option<u64>,
        share: u32,
        guarantee: u32,
    ) {
        if guarantee > self.max_grant || share > self.max_grant {
            self.violate(format!(
                "split {split}: share {share}, grant {guarantee} above the per-job cap {}",
                self.max_grant
            ));
        }
        if split != self.split {
            self.close();
            self.split = split;
        }
        if admitted_at < split && *audited != Some(split) {
            *audited = Some(split);
            self.shares += u64::from(share);
            self.jobs += 1;
        }
    }

    /// Checks the split being served and starts the next.
    fn close(&mut self) {
        let cap = self.budget.max(self.jobs);
        if self.shares > cap {
            let msg = format!(
                "split {}: {} tokens granted to {} jobs, above the budget of {cap}",
                self.split, self.shares, self.jobs
            );
            self.violate(msg);
        }
        self.shares = 0;
        self.jobs = 0;
    }

    fn violate(&mut self, msg: String) {
        self.violations += 1;
        self.first.get_or_insert(msg);
    }

    /// Checks the last split and returns the failure, if any.
    fn finish(mut self) -> Option<String> {
        self.close();
        self.first
            .map(|first| format!("{} grant checks failed; first: {first}", self.violations))
    }
}

/// Decision counts of one iteration.
#[derive(Default)]
struct Counts {
    submitted: u64,
    admitted: u64,
    rejected_capacity: u64,
    rejected_infeasible: u64,
    completed: u64,
    slo_met: u64,
    deadline_changes: u64,
    granted: u64,
    max_slots: usize,
}

impl Workload for ServiceLoad {
    type Ready = Ready;

    fn setup(&self) -> Ready {
        let plane = ControlPlane::new(self.cfg.budget);
        let family = self.cfg.online.then(|| {
            let stats = ModelLifecycleStats::shared();
            let store = Arc::new(ModelStore::with_stats(
                bootstrap_family_model(),
                OnlineConfig::default(),
                stats.clone(),
            ));
            plane.register_model_stats(stats);
            let floor: Arc<dyn CompletionModel> = Arc::new(LinearWork {
                work: FAMILY_WORK,
                max_tokens: MAX_TOKENS,
            });
            Family {
                model: Arc::new(ModelHandle::with_floor(store.clone(), floor)),
                store,
            }
        });
        Ready {
            plane,
            indicator: job_indicator(),
            family,
        }
    }

    fn run(&self, ready: Ready, trace: Option<&Trace>) -> Outcome {
        let cfg = &self.cfg;
        assert!(cfg.concurrent > 0, "the caller needs a live-job pool");
        let Ready {
            plane,
            indicator,
            family,
        } = ready;
        let jobs = &self.jobs;
        let spans = trace.map(Spans::new);
        let mut out = Outcome::default();
        let mut c = Counts::default();
        let mut audit = GrantAudit::new(cfg.budget, MAX_TOKENS);
        let mut live: Vec<LiveJob> = Vec::with_capacity(cfg.concurrent);
        let mut next = 0;
        // The plane's refresh count: refreshes run only inside ticks.
        let mut refreshes = plane.stats().refreshes;

        loop {
            // Top the pool up: one attempt per vacant slot per round.
            let mut attempts = cfg.concurrent.saturating_sub(live.len());
            while attempts > 0 && next < jobs.len() {
                attempts -= 1;
                let job = &jobs[next];
                let seq = next as u64;
                next += 1;
                c.submitted += 1;
                let model: Arc<dyn CompletionModel> = match &family {
                    None => Arc::new(LinearWork {
                        work: job.work,
                        max_tokens: MAX_TOKENS,
                    }),
                    Some(f) => f.model.clone(),
                };
                let model: Arc<dyn CompletionModel> = match &spans {
                    Some(s) => Arc::new(CountedModel {
                        inner: model,
                        queries: s.model_query.clone(),
                    }),
                    None => model,
                };
                let deadline = SimDuration::from_secs_f64(job.deadline);
                let indicator = indicator.clone();
                let (admitted, nanos) = timed(spans.as_ref().map(|s| &*s.admit), || {
                    plane.try_add_job(&job.name, model, indicator, deadline, SLACK)
                });
                if spans.is_some() {
                    out.admit_nanos.push(nanos);
                }
                let handle = match admitted {
                    Ok(handle) => handle,
                    Err(AdmissionError::Infeasible) => {
                        c.rejected_infeasible += 1;
                        continue;
                    }
                    Err(_) => {
                        c.rejected_capacity += 1;
                        continue;
                    }
                };
                c.admitted += 1;
                // Online: remember what the model promised at admission
                // (the drift detector's baseline) and seed the run trace.
                let mut observations = Vec::new();
                let mut predicted = f64::NAN;
                if let Some(f) = &family {
                    let fresh = [0.0];
                    let (sized, _) = timed(spans.as_ref().map(|s| &*s.size_for_deadline), || {
                        f.model.size_for_deadline(&fresh, deadline, SLACK)
                    });
                    predicted = sized.map_or(job.deadline, |a| {
                        f.model.remaining_secs(&fresh, 0.0, a) * SLACK
                    });
                    observations.push(RunObservation {
                        elapsed_secs: 0.0,
                        progress: 0.0,
                        allocation: sized.unwrap_or(1),
                    });
                }
                live.push(LiveJob {
                    handle,
                    seq,
                    work: job.work,
                    deadline: job.deadline,
                    work_done: 0.0,
                    elapsed: 0.0,
                    guarantee: 0,
                    changed: false,
                    admitted_at: refreshes,
                    audited_split: None,
                    observations,
                    predicted,
                });
            }
            if live.is_empty() {
                if next >= jobs.len() {
                    break; // Stream exhausted and every job drained.
                }
                continue; // Whole round refused; the next round retries.
            }

            // One control period: tick every live job once.
            let mut i = 0;
            while i < live.len() {
                let job = &mut live[i];
                job.elapsed += TICK_SECS;
                let frac = (job.work_done / job.work).min(1.0);
                let finished = job.work_done >= job.work;
                let status = status_for(job, frac, finished);
                let (decision, nanos) = timed(spans.as_ref().map(|s| &*s.tick), || {
                    job.handle.tick(&status)
                });
                let split = plane.stats().refreshes;
                if let Some(s) = &spans {
                    out.tick_nanos.push(nanos);
                    if split > refreshes {
                        s.refresh_tick.add_detached(1, nanos);
                    }
                }
                refreshes = split;
                c.granted += u64::from(decision.guarantee);
                if finished {
                    c.completed += 1;
                    if job.elapsed <= job.deadline + 1e-9 {
                        c.slo_met += 1;
                    }
                    if let Some(f) = &family {
                        let run = RecordedRun {
                            observations: std::mem::take(&mut job.observations),
                            total_secs: job.elapsed,
                            completed: true,
                            predicted_secs: job.predicted,
                        };
                        timed(spans.as_ref().map(|s| &*s.record_completion), || {
                            f.store.record_completion(run)
                        });
                    }
                    let done = live.swap_remove(i);
                    timed(spans.as_ref().map(|s| &*s.release), || drop(done));
                    continue;
                }
                let share = decision.raw.map_or(0, |raw| raw as u32);
                audit.tick(
                    split,
                    job.admitted_at,
                    &mut job.audited_split,
                    share,
                    decision.guarantee,
                );
                job.guarantee = decision.guarantee;
                job.work_done += f64::from(decision.guarantee) * TICK_SECS;
                if family.is_some() {
                    job.observations.push(RunObservation {
                        elapsed_secs: job.elapsed,
                        progress: frac,
                        allocation: decision.guarantee,
                    });
                }
                if !job.changed && frac > 0.4 && job.seq.is_multiple_of(cfg.deadline_change_every) {
                    // Tighten the SLO mid-flight; attainment is judged
                    // against the new deadline.
                    job.changed = true;
                    job.deadline *= 0.85;
                    let new_deadline = SimDuration::from_secs_f64(job.deadline);
                    let handle = &mut job.handle;
                    timed(spans.as_ref().map(|s| &*s.deadline_changed), || {
                        handle.deadline_changed(new_deadline)
                    });
                    c.deadline_changes += 1;
                }
                i += 1;
            }
            c.max_slots = c.max_slots.max(plane.slot_count());
        }

        let stats = plane.stats();
        // Output checks: the drained plane holds nothing, the ledger
        // never over-committed, no budget split granted more than the
        // budget, and every admitted job ran to completion.
        if plane.reserved() != 0 {
            out.fail(format!(
                "{} tokens still reserved after the drain",
                plane.reserved()
            ));
        }
        if plane.active_jobs() != 0 {
            out.fail(format!(
                "{} jobs still live after the drain",
                plane.active_jobs()
            ));
        }
        if stats.over_committed_rounds != 0 {
            out.fail(format!(
                "{} over-committed refreshes",
                stats.over_committed_rounds
            ));
        }
        if let Some(why) = audit.finish() {
            out.fail(why);
        }
        if c.completed != c.admitted {
            out.fail(format!(
                "{} admitted but {} completed",
                c.admitted, c.completed
            ));
        }

        out.attempted = c.submitted;
        out.slo = (c.slo_met, c.submitted);
        let mut fp = Vec::new();
        for n in [
            c.submitted,
            c.admitted,
            c.rejected_capacity,
            c.rejected_infeasible,
            c.completed,
            c.slo_met,
            c.deadline_changes,
            c.granted,
            c.max_slots as u64,
            stats.ticks,
            stats.refreshes,
            stats.model_generations_swapped,
            stats.drift_detections,
        ] {
            fp.extend_from_slice(&n.to_le_bytes());
        }
        out.fingerprint = fnv1a(&fp);
        if spans.is_some() {
            out.layer("core.plane.rejected_capacity", c.rejected_capacity as f64);
            out.layer(
                "core.plane.rejected_infeasible",
                c.rejected_infeasible as f64,
            );
            out.layer("core.plane.refresh.count", stats.refreshes as f64);
            out.layer("core.plane.max_slots", c.max_slots as f64);
            out.layer(
                "core.online.generations",
                stats.model_generations_swapped as f64,
            );
            out.layer("core.online.drift_fires", stats.drift_detections as f64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::GrantAudit;

    /// Feeds `(split, admitted_at, job, share, guarantee)` ticks.
    fn audit(ticks: &[(u64, u64, usize, u32, u32)]) -> Option<String> {
        let mut a = GrantAudit::new(10, 4);
        let mut audited = [None; 8];
        for &(split, admitted_at, job, share, grant) in ticks {
            a.tick(split, admitted_at, &mut audited[job], share, grant);
        }
        a.finish()
    }

    #[test]
    fn grants_within_the_budget_pass() {
        // Split 1 gives 4 + 4 + 2; a job ticked twice counts once; a job
        // admitted after the split is served its reservation on top.
        assert_eq!(
            audit(&[
                (1, 0, 0, 4, 4),
                (1, 0, 1, 4, 4),
                (1, 0, 2, 2, 2),
                (1, 0, 0, 4, 4),
                (1, 1, 3, 3, 3),
            ]),
            None
        );
        // A fleet that outnumbers the budget gets one token each.
        let floor: Vec<_> = (0..8).map(|j| (2, 0, j, 1, 1)).collect();
        let mut a = GrantAudit::new(5, 4);
        let mut audited = [None; 8];
        for (split, at, job, share, grant) in floor {
            a.tick(split, at, &mut audited[job], share, grant);
        }
        assert_eq!(a.finish(), None);
    }

    #[test]
    fn an_over_granting_split_fails() {
        let why = audit(&[
            (1, 0, 0, 4, 4),
            (1, 0, 1, 4, 4),
            (1, 0, 2, 3, 3),
            (2, 0, 0, 1, 1),
        ])
        .expect("11 tokens from a 10-token budget");
        assert!(
            why.contains("split 1: 11 tokens granted to 3 jobs"),
            "{why}"
        );
    }

    #[test]
    fn a_grant_above_the_cap_fails() {
        let why = audit(&[(1, 0, 0, 4, 5)]).expect("grant 5 above cap 4");
        assert!(why.starts_with("1 grant checks failed"), "{why}");
    }
}
