//! The event-loop core of the cluster simulator.
//!
//! [`EngineCore`] owns the mutable simulation state — jobs, the event
//! queue, the background model, diagnostics — and the *mechanics* every
//! policy layer composes: starting task attempts, killing or evicting
//! running tasks, and rolling back lost outputs. The `Engine` drives
//! the discrete-event loop and delegates every policy decision through
//! two trait seams:
//!
//! - [`SchedulerPolicy`] — token and
//!   spare-capacity arbitration (who runs, in which class, who is
//!   evicted under pressure);
//! - [`FailureModel`] — task-attempt
//!   failures, machine-failure arrivals and their blast radius.
//!
//! Implementation notes that matter:
//!
//! - **Stale-event filtering**: task completions are scheduled when the
//!   task starts; if the task is evicted or killed before the event
//!   fires, the event is recognized as stale by an attempt counter and
//!   ignored.
//! - **Token classes**: a task runs as `Guaranteed` (within the job's
//!   guarantee) or `Spare`. Class changes in flight (upgrades on a
//!   guarantee increase, demotions on a decrease) alter eviction
//!   priority but not the already-sampled completion time.
//! - **Data loss**: machine failures may force recomputation of
//!   completed tasks, but only in *incomplete* stages — outputs of
//!   fully completed stages are treated as durably replicated.

use std::collections::VecDeque;
use std::sync::Arc;

use jockey_jobgraph::profile::ProfileBuilder;
use jockey_jobgraph::task::{TaskDeps, TaskId};
use jockey_simrt::event::EventQueue;
use jockey_simrt::observe;
use jockey_simrt::observe::{EntryKind, NoopObserver, ProgressSink, SimObserver};
use jockey_simrt::rng::SeedDeriver;
use jockey_simrt::time::{SimDuration, SimTime};
use rand::rngs::StdRng;

use crate::background::BackgroundModel;
use crate::config::ClusterConfig;
use crate::controller::{ControlDecision, JobController, JobStatus};
use crate::failure::{DefaultFailureModel, FailureModel};
use crate::invariants;
use crate::job::JobSpec;
use crate::scheduler::{SchedulerPolicy, WeightedFair};
use crate::speculation::{CloneOnSlow, SpeculationPolicy};
use crate::topology::{ClusterTopology, LocalityFirst, PlacementPolicy};
use crate::trace::RunTrace;
use crate::workspace::{JobBuffers, SimWorkspace};

/// Token class a running task occupies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenClass {
    /// Within the job's guarantee: never evicted for capacity.
    Guaranteed,
    /// Opportunistic spare capacity: evictable and slowed down.
    Spare,
    /// A speculative clone racing a straggling sibling attempt on an
    /// idle token (clone-on-slow). Runs at full speed, is never evicted
    /// for capacity, and dies when any sibling attempt finishes first.
    Clone,
}

/// The runtime multiplier a token class imposes: spare-class attempts
/// run slowed by `spare_slowdown`; guaranteed attempts and speculative
/// clones (which exist to *beat* a straggler) run at full speed.
#[inline]
pub(crate) fn class_multiplier(class: TokenClass, spare_slowdown: f64) -> f64 {
    match class {
        TokenClass::Guaranteed | TokenClass::Clone => 1.0,
        TokenClass::Spare => spare_slowdown,
    }
}

/// The single source of truth for per-attempt timing: queueing seconds
/// scale by the background slowdown; execution seconds additionally
/// scale by the token-class and locality multipliers. Shared by the
/// start paths (with sampled bases) and the speculation watcher (with
/// distribution means), so the straggler test and the engine can never
/// disagree about what "expected occupancy" means.
#[inline]
pub(crate) fn attempt_timing(
    base_queue: f64,
    base_run: f64,
    slowdown: f64,
    class_mult: f64,
    locality_mult: f64,
) -> (f64, f64) {
    let queue_secs = base_queue * slowdown;
    let run_secs = base_run * slowdown * class_mult * locality_mult;
    (queue_secs, run_secs)
}

/// Per-task lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TaskState {
    /// Dependencies not yet satisfied.
    Pending,
    /// Ready to run; present in the ready queue.
    Ready,
    /// Occupying a token; the attempt number identifies the scheduled
    /// completion event.
    Running {
        /// Attempt counter at the time the task started.
        attempt: u32,
    },
    /// Completed; remembers the attempt's execution seconds so that
    /// recomputation can roll back work accounting.
    Done {
        /// Execution seconds of the completing attempt.
        run_secs: f64,
    },
}

/// Flat struct-of-arrays task state: one dense slot per task vertex.
///
/// Stage `s` occupies slots `offsets[s] .. offsets[s + 1]`; a task's
/// slot is `offsets[stage] + index`. Replacing the former per-stage
/// `Vec<Vec<_>>` nesting with flat parallel arrays keeps the whole
/// table in two cache-friendly allocations (instead of one heap object
/// per stage), makes per-run resets a pair of `fill`s, and pools
/// across runs via `JobBuffers`.
#[derive(Clone, Debug, Default)]
pub struct TaskTable {
    state: Vec<TaskState>,
    attempts: Vec<u32>,
    /// Prefix sums of per-stage task counts; `offsets[num_stages]` is
    /// the total slot count.
    offsets: Vec<u32>,
}

impl TaskTable {
    /// Rebuilds the table for `graph` (all tasks `Pending`, zero
    /// attempts), reusing the existing allocations.
    pub(crate) fn reset_for(&mut self, graph: &jockey_jobgraph::graph::JobGraph) {
        self.offsets.clear();
        self.offsets.push(0);
        let mut total: u32 = 0;
        for s in graph.stage_ids() {
            total += graph.tasks_in(s);
            self.offsets.push(total);
        }
        self.state.clear();
        self.state.resize(total as usize, TaskState::Pending);
        self.attempts.clear();
        self.attempts.resize(total as usize, 0);
    }

    #[inline]
    fn slot(&self, t: TaskId) -> usize {
        self.offsets[t.stage.index()] as usize + t.index as usize
    }

    /// Lifecycle state of one task.
    #[inline]
    pub fn state(&self, t: TaskId) -> TaskState {
        self.state[self.slot(t)]
    }

    #[inline]
    pub(crate) fn set_state(&mut self, t: TaskId, s: TaskState) {
        let i = self.slot(t);
        self.state[i] = s;
    }

    /// The task's attempt counter.
    #[inline]
    pub fn attempts(&self, t: TaskId) -> u32 {
        self.attempts[self.slot(t)]
    }

    /// Increments and returns the task's attempt counter.
    #[inline]
    pub(crate) fn bump_attempts(&mut self, t: TaskId) -> u32 {
        let i = self.slot(t);
        self.attempts[i] += 1;
        self.attempts[i]
    }

    /// Per-slot lifecycle states of stage `s`.
    pub(crate) fn stage_states(&self, s: usize) -> &[TaskState] {
        &self.state[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    /// Total task slots in the table.
    #[cfg(test)]
    pub(crate) fn total(&self) -> usize {
        self.state.len()
    }
}

/// A task currently occupying a token.
#[derive(Clone, Copy, Debug)]
pub struct RunningTask {
    /// The task.
    pub task: TaskId,
    /// Attempt number; identifies the scheduled completion event.
    pub attempt: u32,
    /// Token class the attempt currently occupies.
    pub class: TokenClass,
    /// When the attempt started.
    pub started: SimTime,
    /// Sampled queueing seconds of this attempt.
    pub queue_secs: f64,
    /// Sampled execution seconds of this attempt.
    pub run_secs: f64,
    /// Hosting machine (placement model only).
    pub machine: Option<u32>,
}

/// Simulation events.
pub(crate) enum Event {
    JobStart {
        job: usize,
    },
    TaskDone {
        job: usize,
        task: TaskId,
        attempt: u32,
    },
    ControlTick {
        job: usize,
    },
    BackgroundTick,
    /// Periodic straggler scan (only scheduled when a
    /// [`SpeculationPolicy`](crate::speculation::SpeculationPolicy)
    /// declares a watch period).
    SpeculationTick,
    MachineFailure,
    RackFailure,
    DeadlineChange {
        job: usize,
        new_deadline: SimDuration,
    },
}

/// One job's dynamic state inside the simulator.
pub struct JobRun {
    pub(crate) spec: Arc<JobSpec>,
    pub(crate) controller: Box<dyn JobController>,
    pub(crate) start_at: SimTime,
    pub(crate) started: Option<SimTime>,
    pub(crate) finished_at: Option<SimTime>,
    pub(crate) tasks: TaskTable,
    pub(crate) completed: Vec<u32>,
    pub(crate) done_tasks: u64,
    pub(crate) ready: VecDeque<TaskId>,
    pub(crate) running: Vec<RunningTask>,
    pub(crate) guarantee: u32,
    pub(crate) work_done: f64,
    pub(crate) wasted: f64,
    pub(crate) guaranteed_task_count: u64,
    pub(crate) spare_task_count: u64,
    /// Speculative clone attempts launched (clone-on-slow).
    pub(crate) clone_task_count: u64,
    /// Completions won by a clone (the straggler lost the race).
    pub(crate) clone_wins: u64,
    pub(crate) profile: ProfileBuilder,
    pub(crate) trace: RunTrace,
    /// Scratch [`JobStatus`] refreshed in place before each controller
    /// consult, so the hot path never allocates per tick.
    pub(crate) status: JobStatus,
    pub(crate) rng_runtime: StdRng,
    pub(crate) rng_queue: StdRng,
    pub(crate) rng_fail: StdRng,
    /// Replica machines per `(stage, split)` under the topology model,
    /// indexed `stage.index() * data_splits + (task.index % data_splits)`.
    /// Empty in the flat model.
    pub(crate) replicas: Vec<Vec<u32>>,
}

impl JobRun {
    /// The job's spec.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Total tasks across all stages.
    pub fn total_tasks(&self) -> u64 {
        self.spec.graph.total_tasks()
    }

    /// True once every task has completed.
    pub fn is_finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// True while the job has started but not finished.
    pub fn is_active(&self) -> bool {
        self.started.is_some() && self.finished_at.is_none()
    }

    /// The job's current token guarantee.
    pub fn guarantee(&self) -> u32 {
        self.guarantee
    }

    /// Tasks currently occupying tokens.
    pub fn running(&self) -> &[RunningTask] {
        &self.running
    }

    /// Mutable running list; schedulers may reclassify tasks in place.
    /// Removal must go through [`EngineCore::evict_spare`] (or the kill
    /// paths) so requeue bookkeeping stays consistent.
    pub fn running_mut(&mut self) -> &mut [RunningTask] {
        &mut self.running
    }

    /// Running tasks occupying the given token class.
    pub fn running_in_class(&self, class: TokenClass) -> u32 {
        self.running.iter().filter(|r| r.class == class).count() as u32
    }

    /// The lifecycle state of one task.
    pub fn task_state(&self, t: TaskId) -> TaskState {
        self.tasks.state(t)
    }

    pub(crate) fn set_task_state(&mut self, t: TaskId, s: TaskState) {
        self.tasks.set_state(t, s);
    }

    /// Pops ready tasks, skipping stale queue entries.
    pub fn pop_ready(&mut self) -> Option<TaskId> {
        while let Some(t) = self.ready.pop_front() {
            if self.task_state(t) == TaskState::Ready {
                return Some(t);
            }
        }
        None
    }

    /// Refreshes the job's scratch [`JobStatus`] in place.
    pub(crate) fn refresh_status(&mut self, now: SimTime) {
        let graph = &self.spec.graph;
        self.status.now = now;
        self.status.elapsed = now.saturating_since(self.started.unwrap_or(now));
        self.status.stage_fraction.clear();
        self.status.stage_fraction.extend(
            graph
                .stage_ids()
                .map(|s| f64::from(self.completed[s.index()]) / f64::from(graph.tasks_in(s))),
        );
        self.status.stage_completed.clone_from(&self.completed);
        self.status.running = self.running.len() as u32;
        self.status.running_guaranteed = self.running_in_class(TokenClass::Guaranteed);
        self.status.guarantee = self.guarantee;
        self.status.work_done = self.work_done;
        self.status.finished = self.is_finished();
    }
}

/// The mutable simulation state plus the mechanics every policy layer
/// composes.
///
/// A [`SchedulerPolicy`] or [`FailureModel`] receives `&mut
/// EngineCore` and acts through the mechanics methods ([`start_task`]
/// [`evict_spare`], [`kill_running_tasks`], ...) — the engine keeps the
/// event queue, stale-attempt filtering and accounting consistent so
/// policies cannot corrupt the run.
///
/// [`start_task`]: EngineCore::start_task
/// [`evict_spare`]: EngineCore::evict_spare
/// [`kill_running_tasks`]: EngineCore::kill_running_tasks
pub struct EngineCore {
    pub(crate) cfg: ClusterConfig,
    pub(crate) jobs: Vec<JobRun>,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) background: BackgroundModel,
    pub(crate) seeds: SeedDeriver,
    pub(crate) observer: Box<dyn SimObserver>,
    pub(crate) invariants_enabled: bool,
    /// When true (the default), the run loop may drain batches of
    /// same-instant task completions through one merged scheduling pass
    /// — the dense-kernel fast path. Only engaged when the batching
    /// gate holds (see [`Engine::run_loop`]); turned off by equivalence
    /// tests to pin the per-event reference semantics.
    pub(crate) batching_enabled: bool,
    /// Time of the most recently dispatched event (event-time
    /// monotonicity invariant).
    pub(crate) last_event_time: SimTime,
    /// Per-job, per-stage floor on completed-task counts (monotone
    /// stage-fraction invariant); lowered explicitly when a data-loss
    /// event legitimately rolls completions back.
    pub(crate) completed_floor: Vec<Vec<u32>>,
    /// When false, skip per-task profile recording (training hot path).
    pub(crate) record_profile: bool,
    /// When false, skip control-trace recording (training hot path).
    pub(crate) record_trace: bool,
    /// Reusable dependent-candidate buffer for task completions.
    pub(crate) cand_scratch: Vec<TaskId>,
    /// Reclaimed per-job buffers available for the next `add_job`.
    pub(crate) spare_buffers: Vec<JobBuffers>,
    /// Realized topology, built once from `cfg.topology`. `None` runs
    /// the legacy flat model bit-identically.
    pub(crate) topology: Option<ClusterTopology>,
    /// Placement decisions under the topology model (unused when flat).
    pub(crate) placement_policy: Box<dyn PlacementPolicy>,
    /// Scratch per-machine running-task counts, refreshed before each
    /// topology placement decision.
    pub(crate) machine_load: Vec<u32>,
}

impl EngineCore {
    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The background-load model.
    pub fn background(&self) -> &BackgroundModel {
        &self.background
    }

    /// Mutable background-load model (schedulers advance it to `now`).
    pub fn background_mut(&mut self) -> &mut BackgroundModel {
        &mut self.background
    }

    /// Number of jobs in the simulation.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// One job's dynamic state.
    pub fn job(&self, j: usize) -> &JobRun {
        &self.jobs[j]
    }

    /// Mutable access to one job's dynamic state.
    pub fn job_mut(&mut self, j: usize) -> &mut JobRun {
        &mut self.jobs[j]
    }

    pub(crate) fn add_job_at(
        &mut self,
        spec: Arc<JobSpec>,
        controller: Box<dyn JobController>,
        start_at: SimTime,
    ) -> usize {
        let idx = self.jobs.len();
        let graph = spec.graph.clone();
        // Clone-on-slow sizes its straggler threshold from the
        // per-stage distribution means; a spec whose stages have no
        // finite mean (e.g. Pareto with alpha <= 1) cannot be watched.
        if self.cfg.speculation.is_some() {
            for s in graph.stage_ids() {
                assert!(
                    spec.stage_runtimes[s.index()].mean().is_some()
                        && spec.stage_queues[s.index()].mean().is_some(),
                    "speculation requires per-stage runtime/queue distributions with finite \
                     means, but stage {} of job {:?} has none",
                    s.index(),
                    graph.name()
                );
            }
        }
        let mut buf = self.spare_buffers.pop().unwrap_or_default();
        buf.reset_for(&graph);
        let JobBuffers {
            tasks,
            completed,
            floor,
            ready,
            running,
            stage_fraction,
            stage_completed,
        } = buf;
        let job = JobRun {
            controller,
            start_at,
            started: None,
            finished_at: None,
            tasks,
            completed,
            done_tasks: 0,
            ready,
            running,
            guarantee: 0,
            work_done: 0.0,
            wasted: 0.0,
            guaranteed_task_count: 0,
            spare_task_count: 0,
            clone_task_count: 0,
            clone_wins: 0,
            // With profiling off (the training hot path) the builder is
            // the allocation-free empty one; `record_task`/
            // `record_stage_window` are already gated on the same flag.
            profile: if self.record_profile {
                ProfileBuilder::new(&graph)
            } else {
                ProfileBuilder::empty()
            },
            trace: RunTrace::new(),
            status: JobStatus {
                now: SimTime::ZERO,
                elapsed: SimDuration::ZERO,
                stage_fraction,
                stage_completed,
                running: 0,
                running_guaranteed: 0,
                guarantee: 0,
                work_done: 0.0,
                finished: false,
            },
            rng_runtime: self.seeds.rng_indexed("job-runtime", idx as u64),
            rng_queue: self.seeds.rng_indexed("job-queue", idx as u64),
            rng_fail: self.seeds.rng_indexed("job-fail", idx as u64),
            // Replica placement draws from its own derived stream, so
            // enabling the topology perturbs no legacy stream (the seed
            // deriver is stateless: streams are independent by label).
            replicas: match &self.topology {
                Some(topo) => {
                    let mut rng = self.seeds.rng_indexed("job-replicas", idx as u64);
                    let splits = topo.data_splits() as usize;
                    (0..graph.num_stages() * splits)
                        .map(|_| topo.assign_replicas(&mut rng))
                        .collect()
                }
                None => Vec::new(),
            },
            spec,
        };
        self.jobs.push(job);
        self.completed_floor.push(floor);
        observe!(
            self.observer,
            start_at,
            EntryKind::RngFork,
            "job {idx}: streams \"job-runtime\"/\"job-queue\"/\"job-fail\" forked"
        );
        idx
    }

    /// Machines in the simulated slice: the topology's realized count
    /// when one is configured, explicit under the placement model,
    /// otherwise implied by token count and machine size. The
    /// per-machine failure hazard scales by this count, so aggregate
    /// failure behavior tracks the cluster actually simulated —
    /// including heterogeneous topologies.
    pub fn machine_count(&self) -> u32 {
        match (&self.topology, &self.cfg.placement) {
            (Some(t), _) => t.machine_count(),
            (None, Some(p)) => p.machines,
            (None, None) => self
                .cfg
                .total_tokens
                .div_ceil(self.cfg.failures.tasks_per_machine.max(1)),
        }
    }

    /// The realized topology, when one is configured.
    pub fn topology(&self) -> Option<&ClusterTopology> {
        self.topology.as_ref()
    }

    /// Starts one task attempt of job `j` in the given token class and
    /// schedules its completion event. `slowdown` is the background
    /// runtime multiplier at `now`.
    ///
    /// # Panics
    ///
    /// Debug builds assert the task is `Ready`.
    pub fn start_task(
        &mut self,
        j: usize,
        task: TaskId,
        class: TokenClass,
        now: SimTime,
        slowdown: f64,
    ) {
        debug_assert_eq!(self.jobs[j].task_state(task), TaskState::Ready);
        self.launch_attempt(j, task, class, now, slowdown);
    }

    /// Launches a speculative clone of a *running* task of job `j` on
    /// an idle token (clone-on-slow). The clone races its straggling
    /// sibling; whichever attempt finishes first wins and the losers
    /// are killed (`task_done_mechanics`'s kill-on-first-finish).
    /// Returns `false` (and does nothing) if the task is not running —
    /// it may have completed between the watcher's scan and this call.
    pub fn start_clone(&mut self, j: usize, task: TaskId, now: SimTime, slowdown: f64) -> bool {
        if !matches!(self.jobs[j].task_state(task), TaskState::Running { .. }) {
            return false;
        }
        self.launch_attempt(j, task, TokenClass::Clone, now, slowdown);
        true
    }

    /// The shared attempt-launch mechanics behind [`start_task`] and
    /// [`start_clone`]: samples the attempt's timing, places it, bumps
    /// the class counters, records the running entry and schedules the
    /// completion event. RNG draw order (runtime, queue, placement) is
    /// part of the bit-identical contract.
    ///
    /// [`start_task`]: EngineCore::start_task
    /// [`start_clone`]: EngineCore::start_clone
    fn launch_attempt(
        &mut self,
        j: usize,
        task: TaskId,
        class: TokenClass,
        now: SimTime,
        slowdown: f64,
    ) {
        // Refresh the per-machine load scratch before borrowing the job
        // mutably: the placement policy sees every job's residents.
        if let Some(topo) = &self.topology {
            self.machine_load.clear();
            self.machine_load.resize(topo.machine_count() as usize, 0);
            for job in &self.jobs {
                for r in &job.running {
                    if let Some(m) = r.machine {
                        self.machine_load[m as usize] += 1;
                    }
                }
            }
        }
        let job = &mut self.jobs[j];
        let s = task.stage.index();
        let attempt = job.tasks.bump_attempts(task);

        // Statically-dispatched draws: `Dist::sample_with` monomorphizes
        // over `StdRng`, the simulator's hottest call.
        let base_run = job.spec.stage_runtimes[s].sample_with(&mut job.rng_runtime);
        let base_queue = job.spec.stage_queues[s].sample_with(&mut job.rng_queue);
        let class_mult = class_multiplier(class, self.cfg.spare_slowdown);
        // Machine placement. Under a topology the policy picks a host
        // and the multiplier *derives* from where the task landed
        // relative to its input replicas (machine class x locality);
        // under the legacy placement model it is a uniform draw plus a
        // locality coin-flip; flat mode consumes no extra draws.
        let (machine, locality_mult) = match (&self.topology, &self.cfg.placement) {
            (Some(topo), _) => {
                let split = (task.index % topo.data_splits()) as usize;
                let replicas = &job.replicas[s * topo.data_splits() as usize + split];
                let m = self.placement_policy.place(
                    topo,
                    &self.machine_load,
                    replicas,
                    &mut job.rng_queue,
                );
                (Some(m), topo.runtime_multiplier(m, replicas))
            }
            (None, Some(p)) => {
                let (m, mult) = p.place(&mut job.rng_queue);
                (Some(m), mult)
            }
            (None, None) => (None, 1.0),
        };
        let (queue_secs, run_secs) =
            attempt_timing(base_queue, base_run, slowdown, class_mult, locality_mult);

        match class {
            TokenClass::Guaranteed => job.guaranteed_task_count += 1,
            TokenClass::Spare => job.spare_task_count += 1,
            TokenClass::Clone => job.clone_task_count += 1,
        }
        job.set_task_state(task, TaskState::Running { attempt });
        job.running.push(RunningTask {
            task,
            attempt,
            class,
            started: now,
            queue_secs,
            run_secs,
            machine,
        });
        observe!(
            self.observer,
            now,
            EntryKind::Task,
            "job {j}: start s{}/{} attempt {attempt} class={class:?} queue={queue_secs:.2}s run={run_secs:.2}s machine={machine:?}",
            task.stage.index(),
            task.index
        );
        let occupancy =
            SimDuration::from_secs_f64(queue_secs + run_secs).max(SimDuration::from_millis(1));
        self.queue.schedule(
            now + occupancy,
            Event::TaskDone {
                job: j,
                task,
                attempt,
            },
        );
    }

    /// Evicts the running task at `pos` in job `j`'s running list under
    /// capacity pressure: partial work is wasted and the task requeues.
    /// Unlike the kill paths this records no profile failure — eviction
    /// is a scheduling decision, not a task fault.
    pub fn evict_spare(&mut self, j: usize, pos: usize, now: SimTime) {
        let job = &mut self.jobs[j];
        let victim = job.running.swap_remove(pos);
        let elapsed = now.saturating_since(victim.started).as_secs_f64();
        job.wasted += elapsed.min(victim.run_secs);
        job.set_task_state(victim.task, TaskState::Ready);
        job.ready.push_back(victim.task);
        observe!(
            self.observer,
            now,
            EntryKind::Task,
            "job {j}: spare task s{}/{} evicted under capacity pressure",
            victim.task.stage.index(),
            victim.task.index
        );
    }

    /// Kills every running task of job `j` hosted on `machine`
    /// (placement model's machine-failure semantics).
    pub fn kill_tasks_on_machine(&mut self, j: usize, machine: u32, now: SimTime) {
        let record_profile = self.record_profile;
        let job = &mut self.jobs[j];
        let mut killed: u32 = 0;
        let mut i = 0;
        while i < job.running.len() {
            if job.running[i].machine == Some(machine) {
                let victim = job.running.swap_remove(i);
                let elapsed = now.saturating_since(victim.started).as_secs_f64();
                job.wasted += elapsed.min(victim.run_secs);
                if record_profile {
                    job.profile.record_task(
                        victim.task.stage,
                        victim.queue_secs,
                        elapsed.min(victim.run_secs),
                        true,
                    );
                }
                job.set_task_state(victim.task, TaskState::Ready);
                job.ready.push_back(victim.task);
                killed += 1;
            } else {
                i += 1;
            }
        }
        if killed > 0 {
            observe!(
                self.observer,
                now,
                EntryKind::Task,
                "job {j}: machine {machine} died, {killed} resident tasks killed"
            );
        }
    }

    /// Kills up to `count` randomly chosen running tasks of job `j`;
    /// they re-queue and rerun from scratch.
    pub fn kill_running_tasks(&mut self, j: usize, count: u32, now: SimTime) {
        let record_profile = self.record_profile;
        let job = &mut self.jobs[j];
        let mut killed: u32 = 0;
        for _ in 0..count {
            if job.running.is_empty() {
                break;
            }
            let pos = rand::Rng::gen_range(&mut job.rng_fail, 0..job.running.len());
            let victim = job.running.swap_remove(pos);
            let elapsed = now.saturating_since(victim.started).as_secs_f64();
            job.wasted += elapsed.min(victim.run_secs);
            if record_profile {
                job.profile.record_task(
                    victim.task.stage,
                    victim.queue_secs,
                    elapsed.min(victim.run_secs),
                    true,
                );
            }
            job.set_task_state(victim.task, TaskState::Ready);
            job.ready.push_back(victim.task);
            killed += 1;
        }
        observe!(
            self.observer,
            now,
            EntryKind::Task,
            "job {j}: machine failure killed {killed} of up to {count} running tasks"
        );
    }

    /// Destroys the outputs of up to `count` completed tasks in one
    /// randomly chosen *incomplete* stage of job `j`, forcing their
    /// recomputation. One-to-one dependents that were only Ready are
    /// demoted back to Pending.
    pub fn lose_completed_outputs(&mut self, j: usize, count: u32, now: SimTime) {
        let graph = self.jobs[j].spec.graph.clone();
        let deps = TaskDeps::new(&graph);
        let job = &mut self.jobs[j];

        // Candidate stages: incomplete, with at least one done task.
        let candidates: Vec<_> = graph
            .stage_ids()
            .filter(|s| {
                let done = job.completed[s.index()];
                done > 0 && done < graph.tasks_in(*s)
            })
            .collect();
        if candidates.is_empty() {
            return;
        }
        let stage = candidates[rand::Rng::gen_range(&mut job.rng_fail, 0..candidates.len())];

        // Collect done tasks of that stage whose one-to-one children
        // have not started (undoing them is then safe).
        let undoable: Vec<TaskId> = (0..graph.tasks_in(stage))
            .map(|i| TaskId::new(stage, i))
            .filter(|&t| matches!(job.task_state(t), TaskState::Done { .. }))
            .filter(|&t| {
                graph.children(stage).iter().all(|&(c, kind)| match kind {
                    jockey_jobgraph::graph::EdgeKind::OneToOne => matches!(
                        job.task_state(TaskId::new(c, t.index)),
                        TaskState::Pending | TaskState::Ready
                    ),
                    // Barrier children can't have started: stage is incomplete.
                    jockey_jobgraph::graph::EdgeKind::AllToAll => true,
                })
            })
            .collect();

        for &t in undoable.iter().take(count as usize) {
            let TaskState::Done { run_secs } = job.task_state(t) else {
                continue;
            };
            job.work_done -= run_secs;
            job.wasted += run_secs;
            job.completed[stage.index()] -= 1;
            job.done_tasks -= 1;
            // Demote one-to-one children back to Pending; their queue
            // entries (if any) become stale.
            for &(c, kind) in graph.children(stage) {
                if kind == jockey_jobgraph::graph::EdgeKind::OneToOne
                    && job.task_state(TaskId::new(c, t.index)) == TaskState::Ready
                {
                    job.set_task_state(TaskId::new(c, t.index), TaskState::Pending);
                }
            }
            // The undone task reruns; its own inputs may still be intact.
            let ready = deps.is_ready(t, &job.completed, |x| {
                matches!(job.tasks.state(x), TaskState::Done { .. })
            });
            if ready {
                job.set_task_state(t, TaskState::Ready);
                job.ready.push_back(t);
            } else {
                job.set_task_state(t, TaskState::Pending);
            }
        }
        let undone = undoable.len().min(count as usize);
        // Legitimate rollback: lower the monotone-fraction floor so the
        // invariant checker accepts the reduced completion count.
        self.completed_floor[j][stage.index()] =
            self.jobs[j].completed[stage.index()].min(self.completed_floor[j][stage.index()]);
        observe!(
            self.observer,
            now,
            EntryKind::Task,
            "job {j}: data loss undid {undone} completed outputs in stage {}",
            stage.index()
        );
    }

    /// Destroys input replicas hosted on `machine` (topology model):
    /// each replica on the machine is lost with probability
    /// `loss_prob`, drawn from `rng`. A split that loses its last copy
    /// is immediately re-replicated onto a fresh machine — the data is
    /// recoverable from upstream, but tasks reading it pay remote
    /// penalties until placement catches up. No-op in the flat model.
    pub fn destroy_replicas_on_machine(
        &mut self,
        machine: u32,
        loss_prob: f64,
        rng: &mut StdRng,
        now: SimTime,
    ) {
        let Some(topo) = &self.topology else {
            return;
        };
        if loss_prob <= 0.0 {
            return;
        }
        let machine_count = topo.machine_count();
        let mut destroyed: u32 = 0;
        let mut rehomed: u32 = 0;
        for job in &mut self.jobs {
            for split in &mut job.replicas {
                let Some(pos) = split.iter().position(|&m| m == machine) else {
                    continue;
                };
                if !jockey_simrt::dist::bernoulli(rng, loss_prob) {
                    continue;
                }
                split.swap_remove(pos);
                destroyed += 1;
                if split.is_empty() {
                    // Last copy gone: re-replicate somewhere healthy.
                    let mut fresh = rand::Rng::gen_range(rng, 0..machine_count);
                    while fresh == machine && machine_count > 1 {
                        fresh = rand::Rng::gen_range(rng, 0..machine_count);
                    }
                    split.push(fresh);
                    rehomed += 1;
                }
            }
        }
        if destroyed > 0 {
            observe!(
                self.observer,
                now,
                EntryKind::Task,
                "machine {machine} death destroyed {destroyed} replicas ({rehomed} splits re-replicated)"
            );
        }
    }
}

/// The discrete-event loop composed with its policy layers.
pub(crate) struct Engine {
    pub(crate) core: EngineCore,
    pub(crate) scheduler: Box<dyn SchedulerPolicy>,
    pub(crate) failure: Box<dyn FailureModel>,
    pub(crate) speculation: Box<dyn SpeculationPolicy>,
}

impl Engine {
    pub(crate) fn new(cfg: ClusterConfig, seed: u64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid cluster config: {e}");
        }
        let seeds = SeedDeriver::new(seed);
        let background = BackgroundModel::new(cfg.background.clone(), seeds.rng("background"));
        let failure = DefaultFailureModel::new(seeds.rng("machine-failures"));
        let queue = EventQueue::new();
        let topology = cfg.topology.as_ref().map(ClusterTopology::build);
        Engine {
            core: EngineCore {
                cfg,
                jobs: Vec::new(),
                queue,
                background,
                seeds,
                observer: Box::new(NoopObserver),
                invariants_enabled: cfg!(debug_assertions),
                batching_enabled: true,
                last_event_time: SimTime::ZERO,
                completed_floor: Vec::new(),
                record_profile: true,
                record_trace: true,
                cand_scratch: Vec::new(),
                spare_buffers: Vec::new(),
                topology,
                placement_policy: Box::new(LocalityFirst),
                machine_load: Vec::new(),
            },
            scheduler: Box::new(WeightedFair),
            failure: Box::new(failure),
            // Inert unless `cfg.speculation` is set: with no config the
            // default policy declares no watch period, so no
            // SpeculationTick is ever scheduled and the event stream is
            // bit-identical to the pre-speculation engine.
            speculation: Box::new(CloneOnSlow),
        }
    }

    pub(crate) fn with_workspace(cfg: ClusterConfig, seed: u64, ws: &mut SimWorkspace) -> Self {
        let mut engine = Engine::new(cfg, seed);
        engine.core.cand_scratch = std::mem::take(&mut ws.candidates);
        engine.core.spare_buffers = std::mem::take(&mut ws.job_buffers);
        if let Some(mut queue) = ws.event_queue.take() {
            // Reset rewinds time and the sequence counter to a fresh
            // queue's state while keeping the allocated bucket storage.
            queue.reset();
            engine.core.queue = queue;
        }
        engine
    }

    /// Seeds the event queue with job starts, the background tick and
    /// the first machine failure.
    pub(crate) fn prime(&mut self) {
        observe!(
            self.core.observer,
            SimTime::ZERO,
            EntryKind::RngFork,
            "root streams \"background\" and \"machine-failures\" forked"
        );
        for j in 0..self.core.jobs.len() {
            self.core
                .queue
                .schedule(self.core.jobs[j].start_at, Event::JobStart { job: j });
        }
        if self.core.cfg.background.enabled {
            let tick = self.core.background.tick();
            self.core
                .queue
                .schedule(SimTime::ZERO + tick, Event::BackgroundTick);
        }
        // The speculation watcher only exists in the event stream when
        // the policy asks for one (the default asks only when
        // `cfg.speculation` is set), keeping the legacy stream intact.
        if let Some(period) = self.speculation.watch_period(&self.core) {
            self.core
                .queue
                .schedule(SimTime::ZERO + period, Event::SpeculationTick);
        }
        self.arm_machine_failure(SimTime::ZERO);
        self.arm_rack_failure(SimTime::ZERO);
    }

    /// Runs the event loop to completion (all jobs done, queue drained,
    /// or the configured horizon reached).
    ///
    /// # The dense-kernel batching gate
    ///
    /// When a `TaskDone` pops and *all* of the following hold, the loop
    /// drains every same-instant completion as one batch and runs the
    /// scheduler's pass once for the whole batch instead of once per
    /// event (see `DESIGN.md` §15 for the equivalence argument):
    ///
    /// - batching has not been disabled (the test seam),
    /// - spare capacity is off and the background model is disabled, so
    ///   a pass cannot start spare tasks, evict, or draw background RNG,
    /// - no topology is configured: machine placement reads the free
    ///   slots live, so a merged pass — which sees every completion's
    ///   slot freed before placing the first replacement — can place
    ///   tasks differently than the interleaved per-event passes,
    /// - no speculation is configured: kill-on-first-finish makes
    ///   same-instant completions order-sensitive (the first sibling to
    ///   complete kills the rest), and the watcher tick must interleave
    ///   with completions exactly as the per-event reference does,
    /// - invariant checks are off (they observe the per-pass state),
    /// - the scheduler declares merged passes safe
    ///   ([`SchedulerPolicy::batchable`]),
    /// - every running task is Guaranteed-class (a demoting controller
    ///   can strand Spare tasks even with spare starts disabled; their
    ///   evictions would make per-event and merged passes diverge).
    ///
    /// In the gated regime a pass consumes RNG only inside
    /// [`EngineCore::start_task`] and fills per job in FIFO order, so
    /// the merged pass is the concatenation of the per-event passes:
    /// task state, RNG streams, results and traces are bit-identical.
    /// Only the *interleaving* of observer lines differs (completion
    /// records group before the batch's start records); journal-based
    /// comparisons must run with batching disabled.
    pub(crate) fn run_loop(&mut self, mut sink: Option<&mut dyn ProgressSink>) {
        self.prime();
        let can_batch = self.core.batching_enabled
            && !self.core.cfg.spare_enabled
            && !self.core.cfg.background.enabled
            && self.core.cfg.topology.is_none()
            && self.core.cfg.speculation.is_none()
            && !self.core.invariants_enabled
            && self.scheduler.batchable();
        while let Some((now, event)) = self.core.queue.pop() {
            if now > self.core.cfg.max_sim_time {
                break;
            }
            if can_batch {
                if let Event::TaskDone { job, task, attempt } = event {
                    if self.all_running_guaranteed() {
                        if self.run_completion_batch(now, (job, task, attempt), &mut sink) {
                            break;
                        }
                        continue;
                    }
                }
            }
            match sink {
                Some(ref mut s) => self.step(now, event, Some(&mut **s)),
                None => self.step(now, event, None),
            }
            if self.core.jobs.iter().all(JobRun::is_finished) {
                break;
            }
        }
    }

    /// Dynamic half of the batching gate: no running task anywhere
    /// holds a Spare-class token.
    fn all_running_guaranteed(&self) -> bool {
        self.core.jobs.iter().all(|job| {
            job.running
                .iter()
                .all(|r| r.class == TokenClass::Guaranteed)
        })
    }

    /// Drains the batch of same-instant `TaskDone` events beginning with
    /// `first`: completion mechanics run per event, the scheduler pass
    /// runs once at the end (or before a non-completion event that
    /// shares the instant). Returns `true` when every job finished and
    /// the caller should stop. See [`Engine::run_loop`] for the gate
    /// that makes this observably identical to per-event stepping.
    fn run_completion_batch(
        &mut self,
        now: SimTime,
        first: (usize, TaskId, u32),
        sink: &mut Option<&mut dyn ProgressSink>,
    ) -> bool {
        let (job, task, attempt) = first;
        self.observe_event(now, &Event::TaskDone { job, task, attempt });
        self.task_done_mechanics(job, task, attempt, now);
        self.core.last_event_time = now;
        loop {
            if self.core.jobs.iter().all(JobRun::is_finished) {
                // Match the reference: the finishing completion's pass
                // still runs before the loop breaks.
                self.scheduler.schedule(&mut self.core, now);
                return true;
            }
            match self.core.queue.pop_at(now) {
                Some(Event::TaskDone { job, task, attempt }) => {
                    self.observe_event(now, &Event::TaskDone { job, task, attempt });
                    self.task_done_mechanics(job, task, attempt, now);
                }
                Some(other) => {
                    // A non-completion shares the instant. Flush the
                    // deferred pass first (the reference ran it before
                    // this event dispatched), then dispatch normally.
                    self.scheduler.schedule(&mut self.core, now);
                    match sink {
                        Some(ref mut s) => self.step(now, other, Some(&mut **s)),
                        None => self.step(now, other, None),
                    }
                    return self.core.jobs.iter().all(JobRun::is_finished);
                }
                None => break,
            }
        }
        self.scheduler.schedule(&mut self.core, now);
        false
    }

    /// Dispatches one event, then (in test/debug builds) checks the
    /// simulator's invariants. Every event path funnels through the
    /// scheduling pass, so post-step state is always consistent.
    pub(crate) fn step(&mut self, now: SimTime, event: Event, sink: Option<&mut dyn ProgressSink>) {
        self.observe_event(now, &event);
        match event {
            Event::JobStart { job } => self.on_job_start(job, now, sink),
            Event::TaskDone { job, task, attempt } => self.on_task_done(job, task, attempt, now),
            Event::ControlTick { job } => self.on_control_tick(job, now, sink),
            Event::BackgroundTick => self.on_background_tick(now),
            Event::SpeculationTick => self.on_speculation_tick(now),
            Event::MachineFailure => self.on_machine_failure(now),
            Event::RackFailure => self.on_rack_failure(now),
            Event::DeadlineChange { job, new_deadline } => {
                self.core.jobs[job]
                    .controller
                    .deadline_changed(new_deadline);
                // Force an immediate control decision at the new
                // deadline rather than waiting for the next tick.
                self.consult_controller(job, now, sink, false);
                self.scheduler.schedule(&mut self.core, now);
            }
        }
        if self.core.invariants_enabled {
            invariants::check(&mut self.core, now);
        } else {
            self.core.last_event_time = now;
        }
    }

    /// Emits the clock-advance and per-event observer records exactly as
    /// the per-event reference path does (shared with the batch drain).
    fn observe_event(&mut self, now: SimTime, event: &Event) {
        if now > self.core.last_event_time {
            observe!(
                self.core.observer,
                now,
                EntryKind::Clock,
                "clock advances from {:.3}s",
                self.core.last_event_time.as_secs_f64()
            );
        }
        match event {
            Event::JobStart { job } => {
                observe!(
                    self.core.observer,
                    now,
                    EntryKind::Event,
                    "JobStart job={job}"
                );
            }
            Event::TaskDone { job, task, attempt } => {
                observe!(
                    self.core.observer,
                    now,
                    EntryKind::Event,
                    "TaskDone job={job} task=s{}/{} attempt={attempt}",
                    task.stage.index(),
                    task.index
                );
            }
            Event::ControlTick { job } => {
                observe!(
                    self.core.observer,
                    now,
                    EntryKind::Event,
                    "ControlTick job={job}"
                );
            }
            Event::BackgroundTick => {
                observe!(self.core.observer, now, EntryKind::Event, "BackgroundTick");
            }
            Event::SpeculationTick => {
                observe!(self.core.observer, now, EntryKind::Event, "SpeculationTick");
            }
            Event::MachineFailure => {
                observe!(self.core.observer, now, EntryKind::Event, "MachineFailure");
            }
            Event::RackFailure => {
                observe!(self.core.observer, now, EntryKind::Event, "RackFailure");
            }
            Event::DeadlineChange { job, new_deadline } => {
                observe!(
                    self.core.observer,
                    now,
                    EntryKind::Event,
                    "DeadlineChange job={job} new_deadline={:.1}s",
                    new_deadline.as_secs_f64()
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Event handlers.
    // ------------------------------------------------------------------

    fn on_job_start(&mut self, j: usize, now: SimTime, sink: Option<&mut dyn ProgressSink>) {
        {
            let job = &mut self.core.jobs[j];
            job.started = Some(now);
            let graph = job.spec.graph.clone();
            let deps = TaskDeps::new(&graph);
            for t in deps.initial_tasks() {
                job.set_task_state(t, TaskState::Ready);
                job.ready.push_back(t);
            }
        }
        // Initial control decision.
        self.consult_controller(j, now, sink, true);
        self.core.queue.schedule(
            now + self.core.cfg.control_period,
            Event::ControlTick { job: j },
        );
        self.scheduler.schedule(&mut self.core, now);
    }

    fn on_control_tick(&mut self, j: usize, now: SimTime, sink: Option<&mut dyn ProgressSink>) {
        if self.core.jobs[j].is_finished() {
            return;
        }
        self.consult_controller(j, now, sink, false);
        self.core.queue.schedule(
            now + self.core.cfg.control_period,
            Event::ControlTick { job: j },
        );
        self.scheduler.schedule(&mut self.core, now);
    }

    /// Refreshes the job's status, feeds it to the progress sink and the
    /// controller, and applies the resulting decision.
    fn consult_controller(
        &mut self,
        j: usize,
        now: SimTime,
        sink: Option<&mut dyn ProgressSink>,
        initial: bool,
    ) {
        self.core.jobs[j].refresh_status(now);
        if let Some(sink) = sink {
            let status = &self.core.jobs[j].status;
            sink.sample(j, status.elapsed.as_secs_f64(), &status.stage_fraction);
        }
        let job = &mut self.core.jobs[j];
        let decision = if initial {
            job.controller.initial(&job.status)
        } else {
            job.controller.tick(&job.status)
        };
        self.apply_decision(j, now, decision);
    }

    fn apply_decision(&mut self, j: usize, now: SimTime, decision: ControlDecision) {
        let record_trace = self.core.record_trace;
        let util = if record_trace {
            self.core.background.utilization(now)
        } else {
            0.0
        };
        let job = &mut self.core.jobs[j];
        job.guarantee = decision.guarantee.min(self.core.cfg.max_guarantee);
        if record_trace {
            job.trace.guarantee.push(now, f64::from(job.guarantee));
            job.trace.running.push(now, job.running.len() as f64);
            job.trace.background_util.push(now, util);
            if let Some(raw) = decision.raw {
                job.trace.raw_allocation.push(now, raw);
            }
            if let Some(p) = decision.progress {
                job.trace.progress.push(now, p);
            }
            if let Some(t) = decision.predicted_completion {
                job.trace.predicted_completion.push(now, t);
            }
            // Record the raw stage-fraction trajectory so progress
            // indicators can be re-evaluated offline over this exact run.
            let graph = &job.spec.graph;
            if job.trace.stage_fractions.is_empty() {
                job.trace.stage_fractions =
                    vec![jockey_simrt::series::TimeSeries::new(); graph.num_stages()];
            }
            for s in graph.stage_ids() {
                let frac = f64::from(job.completed[s.index()]) / f64::from(graph.tasks_in(s));
                job.trace.stage_fractions[s.index()].push(now, frac);
            }
        }
        let guarantee = job.guarantee;
        observe!(
            self.core.observer,
            now,
            EntryKind::Decision,
            "job {j}: guarantee={guarantee} raw={:?} progress={:?} predicted_completion={:?}",
            decision.raw,
            decision.progress,
            decision.predicted_completion
        );
    }

    fn on_task_done(&mut self, j: usize, task: TaskId, attempt: u32, now: SimTime) {
        if self.task_done_mechanics(j, task, attempt, now) {
            self.scheduler.schedule(&mut self.core, now);
        }
    }

    /// Everything a task completion does *except* the trailing
    /// scheduling pass: failure draw, state transition, accounting,
    /// dependent promotion. Returns `false` for a stale completion
    /// (which, as in the reference path, must not trigger a pass — a
    /// pass at a stale event's time could move background advancement
    /// and spare starts to a different instant). Split out so the batch
    /// drain can run the mechanics per event and the pass once.
    fn task_done_mechanics(&mut self, j: usize, task: TaskId, attempt: u32, now: SimTime) -> bool {
        let failure_prob = self
            .core
            .cfg
            .failures
            .task_failure_prob
            .unwrap_or(self.core.jobs[j].spec.task_failure_prob);

        let speculating = self.core.cfg.speculation.is_some();
        let pos = {
            let job = &self.core.jobs[j];
            // Stale completion (task was evicted/killed since scheduling)?
            // The task state holds the *newest* attempt; under
            // speculation an older sibling attempt is still live as
            // long as its running-list entry survives.
            let live = match job.task_state(task) {
                TaskState::Running { attempt: a } if a == attempt => true,
                TaskState::Running { .. } if speculating => job
                    .running
                    .iter()
                    .any(|r| r.task == task && r.attempt == attempt),
                _ => false,
            };
            if !live {
                observe!(
                    self.core.observer,
                    now,
                    EntryKind::Task,
                    "job {j}: stale TaskDone for s{}/{} attempt {attempt} ignored",
                    task.stage.index(),
                    task.index
                );
                return false;
            }
            // One scan both proves presence and locates the entry (the
            // reference scanned twice).
            match job
                .running
                .iter()
                .position(|r| r.task == task && r.attempt == attempt)
            {
                Some(pos) => pos,
                None => return false,
            }
        };
        let failed = self
            .failure
            .task_attempt_fails(&mut self.core, j, failure_prob);

        let record_profile = self.core.record_profile;
        let stage_now_complete;
        {
            let job = &mut self.core.jobs[j];
            debug_assert!(
                job.running[pos].task == task && job.running[pos].attempt == attempt,
                "failure model mutated the running list during the completion draw"
            );
            let running = job.running.swap_remove(pos);

            if record_profile {
                job.profile
                    .record_task(task.stage, running.queue_secs, running.run_secs, failed);
            }
            if failed {
                job.wasted += running.run_secs;
                // A surviving sibling attempt keeps racing: no requeue,
                // repoint the task state at the newest live sibling so
                // its completion is not mistaken for stale. Without
                // speculation there are never siblings.
                let sibling = if speculating {
                    job.running
                        .iter()
                        .filter(|r| r.task == task)
                        .map(|r| r.attempt)
                        .max()
                } else {
                    None
                };
                match sibling {
                    Some(a) => job.set_task_state(task, TaskState::Running { attempt: a }),
                    None => {
                        job.set_task_state(task, TaskState::Ready);
                        job.ready.push_back(task);
                    }
                }
                stage_now_complete = false;
            } else {
                job.work_done += running.run_secs;
                job.set_task_state(
                    task,
                    TaskState::Done {
                        run_secs: running.run_secs,
                    },
                );
                job.completed[task.stage.index()] += 1;
                job.done_tasks += 1;
                // Kill-on-first-finish: every sibling attempt of the
                // winner dies, its partial work wasted. Like eviction
                // (and unlike a task fault) this records no profile
                // failure — losing a race is a scheduling outcome.
                if speculating {
                    if running.class == TokenClass::Clone {
                        job.clone_wins += 1;
                    }
                    let mut killed: u32 = 0;
                    let mut i = 0;
                    while i < job.running.len() {
                        if job.running[i].task == task {
                            let victim = job.running.swap_remove(i);
                            let elapsed = now.saturating_since(victim.started).as_secs_f64();
                            job.wasted += elapsed.min(victim.run_secs);
                            killed += 1;
                        } else {
                            i += 1;
                        }
                    }
                    if killed > 0 {
                        observe!(
                            self.core.observer,
                            now,
                            EntryKind::Task,
                            "job {j}: s{}/{} first finish killed {killed} sibling attempt(s)",
                            task.stage.index(),
                            task.index
                        );
                    }
                }
                if record_profile {
                    job.profile.record_stage_window(
                        task.stage,
                        running
                            .started
                            .saturating_since(job.started.unwrap())
                            .as_secs_f64(),
                        now.saturating_since(job.started.unwrap()).as_secs_f64(),
                    );
                }
                stage_now_complete =
                    job.completed[task.stage.index()] == job.spec.graph.tasks_in(task.stage);
            }
        }
        observe!(
            self.core.observer,
            now,
            EntryKind::Task,
            "job {j}: s{}/{} attempt {attempt} {}{}",
            task.stage.index(),
            task.index,
            if failed { "failed, requeued" } else { "done" },
            if stage_now_complete {
                " (stage complete)"
            } else {
                ""
            }
        );

        // Promote newly ready dependents. (On failure the attempt either
        // requeued or left a sibling racing; neither can ready a
        // dependent. Equivalent to the former `task_state != Ready`
        // check in the sibling-free engine, and additionally correct
        // when a failed attempt leaves the state `Running`.)
        if !failed {
            let graph = self.core.jobs[j].spec.graph.clone();
            let deps = TaskDeps::new(&graph);
            let mut candidates = std::mem::take(&mut self.core.cand_scratch);
            candidates.clear();
            deps.push_candidate_dependents(task, stage_now_complete, &mut candidates);
            let record_trace = self.core.record_trace;
            {
                let job = &mut self.core.jobs[j];
                for &c in &candidates {
                    if job.task_state(c) == TaskState::Pending
                        && deps.is_ready(c, &job.completed, |t| {
                            matches!(job.tasks.state(t), TaskState::Done { .. })
                        })
                    {
                        job.set_task_state(c, TaskState::Ready);
                        job.ready.push_back(c);
                    }
                }
                if job.done_tasks == job.total_tasks() {
                    job.finished_at = Some(now);
                    if record_trace {
                        job.trace.guarantee.push(now, f64::from(job.guarantee));
                        job.trace.running.push(now, 0.0);
                    }
                    observe!(
                        self.core.observer,
                        now,
                        EntryKind::Task,
                        "job {j}: all tasks done"
                    );
                }
            }
            self.core.cand_scratch = candidates;
        }
        true
    }

    fn on_background_tick(&mut self, now: SimTime) {
        self.scheduler.schedule(&mut self.core, now);
        if self.core.jobs.iter().any(|j| !j.is_finished()) {
            self.core
                .queue
                .schedule(now + self.core.background.tick(), Event::BackgroundTick);
        }
    }

    /// One straggler scan: the speculation policy inspects running
    /// attempts and may launch clones through
    /// [`EngineCore::start_clone`]; the pass then re-arms while any job
    /// is unfinished. A trailing scheduling pass keeps the post-event
    /// consistency contract every other event upholds.
    fn on_speculation_tick(&mut self, now: SimTime) {
        self.speculation.watch(&mut self.core, now);
        if self.core.jobs.iter().any(|j| !j.is_finished()) {
            if let Some(period) = self.speculation.watch_period(&self.core) {
                self.core
                    .queue
                    .schedule(now + period, Event::SpeculationTick);
            }
        }
        self.scheduler.schedule(&mut self.core, now);
    }

    /// Asks the failure model for the next machine-failure arrival and
    /// schedules it (if any).
    fn arm_machine_failure(&mut self, now: SimTime) {
        if let Some(delay) = self.failure.next_failure_delay(&self.core) {
            observe!(
                self.core.observer,
                now,
                EntryKind::Decision,
                "next machine failure armed in {:.3}s",
                delay.as_secs_f64()
            );
            self.core.queue.schedule(now + delay, Event::MachineFailure);
        }
    }

    fn on_machine_failure(&mut self, now: SimTime) {
        self.failure.on_machine_failure(&mut self.core, now);
        self.arm_machine_failure(now);
        self.scheduler.schedule(&mut self.core, now);
    }

    /// Asks the failure model for the next correlated rack-failure
    /// arrival and schedules it. The default model returns `None`
    /// without a topology, so the legacy event stream gains no events.
    fn arm_rack_failure(&mut self, now: SimTime) {
        if let Some(delay) = self.failure.next_rack_failure_delay(&self.core) {
            observe!(
                self.core.observer,
                now,
                EntryKind::Decision,
                "next rack failure armed in {:.3}s",
                delay.as_secs_f64()
            );
            self.core.queue.schedule(now + delay, Event::RackFailure);
        }
    }

    fn on_rack_failure(&mut self, now: SimTime) {
        self.failure.on_rack_failure(&mut self.core, now);
        self.arm_rack_failure(now);
        self.scheduler.schedule(&mut self.core, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::controller::FixedAllocation;
    use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
    use jockey_simrt::dist::Constant;

    fn one_job_engine(tokens: u32) -> Engine {
        let mut b = JobGraphBuilder::new("engine-test");
        let m = b.stage("map", 4);
        let r = b.stage("reduce", 2);
        b.edge(m, r, EdgeKind::AllToAll);
        let graph = Arc::new(b.build().unwrap());
        let spec = JobSpec::uniform(graph, Constant(10.0), Constant(0.0), 0.0);
        let mut engine = Engine::new(ClusterConfig::dedicated(tokens), 1);
        engine.core.add_job_at(
            Arc::new(spec),
            Box::new(FixedAllocation(tokens)),
            SimTime::ZERO,
        );
        engine
    }

    #[test]
    fn pop_ready_skips_stale_queue_entries() {
        let mut engine = one_job_engine(2);
        engine.prime();
        let (now, event) = engine.core.queue.pop().unwrap();
        engine.step(now, event, None); // JobStart: tasks become Ready/Running.
        let job = &mut engine.core.jobs[0];
        // Requeue a task that is actually Running: the entry is stale.
        let running_task = job.running[0].task;
        job.ready.push_front(running_task);
        let popped = job.pop_ready();
        assert_ne!(popped, Some(running_task), "stale entry must be skipped");
    }

    #[test]
    fn stale_task_done_is_ignored() {
        let mut engine = one_job_engine(2);
        engine.prime();
        let (now, event) = engine.core.queue.pop().unwrap();
        engine.step(now, event, None);
        let task = engine.core.jobs[0].running[0].task;
        let done_before = engine.core.jobs[0].done_tasks;
        // A completion for a long-gone attempt number must be a no-op.
        engine.on_task_done(0, task, 999, SimTime::from_secs(1));
        assert_eq!(engine.core.jobs[0].done_tasks, done_before);
        assert!(matches!(
            engine.core.jobs[0].task_state(task),
            TaskState::Running { .. }
        ));
    }

    /// The shared timing helper must reproduce the engine's historical
    /// inline formulas bit-for-bit: `queue = base_queue * slowdown` and
    /// `run = base_run * slowdown * class_mult * locality_mult`, in
    /// exactly that association order. Any reassociation (e.g. fusing
    /// multiplications) would drift the training digest.
    #[test]
    fn attempt_timing_is_bit_identical_to_the_inline_derivation() {
        let cases = [
            (3.7, 42.123, 1.0, 1.0, 1.0),
            (0.25, 17.5, 1.37, 1.25, 1.0),
            (1e-9, 9e9, 2.5001, 1.4, 1.3),
            (0.0, 123.456, 1.0101, 1.25, 0.97),
            (5.5, 0.333, 3.3333333333333335, 1.0, 1.15),
        ];
        for (base_queue, base_run, slowdown, class_mult, locality_mult) in cases {
            let (queue, run) =
                attempt_timing(base_queue, base_run, slowdown, class_mult, locality_mult);
            let ref_queue: f64 = base_queue * slowdown;
            let ref_run: f64 = base_run * slowdown * class_mult * locality_mult;
            assert_eq!(queue.to_bits(), ref_queue.to_bits());
            assert_eq!(run.to_bits(), ref_run.to_bits());
        }
    }

    #[test]
    fn class_multiplier_slows_only_spare_attempts() {
        assert_eq!(class_multiplier(TokenClass::Guaranteed, 1.4), 1.0);
        assert_eq!(class_multiplier(TokenClass::Clone, 1.4), 1.0);
        assert_eq!(class_multiplier(TokenClass::Spare, 1.4), 1.4);
    }

    #[test]
    fn start_clone_races_and_first_finish_kills_siblings() {
        use crate::config::SpeculationConfig;
        let mut b = JobGraphBuilder::new("clone-test");
        b.stage("map", 2);
        let graph = Arc::new(b.build().unwrap());
        let spec = JobSpec::uniform(graph, Constant(100.0), Constant(0.0), 0.0);
        let mut cfg = ClusterConfig::dedicated(4);
        cfg.max_guarantee = 2;
        cfg.speculation = Some(SpeculationConfig::clone_on_slow(2.0, 2));
        let mut engine = Engine::new(cfg, 1);
        engine
            .core
            .add_job_at(Arc::new(spec), Box::new(FixedAllocation(2)), SimTime::ZERO);
        engine.prime();
        let (now, event) = engine.core.queue.pop().unwrap();
        engine.step(now, event, None); // JobStart: both tasks running.

        let task = engine.core.jobs[0].running[0].task;
        let straggler_attempt = engine.core.jobs[0].running[0].attempt;
        assert!(engine
            .core
            .start_clone(0, task, SimTime::from_secs(10), 1.0));
        assert_eq!(engine.core.jobs[0].clone_task_count, 1);
        assert_eq!(
            engine.core.jobs[0].running_in_class(TokenClass::Clone),
            1,
            "clone occupies a Clone-class token"
        );
        // Two sibling attempts of the same task are now racing.
        let siblings = engine.core.jobs[0]
            .running
            .iter()
            .filter(|r| r.task == task)
            .count();
        assert_eq!(siblings, 2);

        // The original (older) attempt finishes first: it must be
        // accepted, and the clone must die with it.
        assert!(engine.task_done_mechanics(0, task, straggler_attempt, SimTime::from_secs(110)));
        assert!(matches!(
            engine.core.jobs[0].task_state(task),
            TaskState::Done { .. }
        ));
        assert_eq!(
            engine.core.jobs[0]
                .running
                .iter()
                .filter(|r| r.task == task)
                .count(),
            0,
            "kill-on-first-finish leaves no sibling running"
        );
        assert_eq!(engine.core.jobs[0].clone_wins, 0);
        assert!(
            engine.core.jobs[0].wasted > 0.0,
            "the losing clone's partial work is wasted"
        );
    }

    #[test]
    fn start_clone_refuses_non_running_tasks() {
        let mut engine = one_job_engine(2);
        engine.prime();
        let (now, event) = engine.core.queue.pop().unwrap();
        engine.step(now, event, None);
        // Reduce tasks are still Pending behind the barrier.
        let pending = jockey_jobgraph::task::TaskId::new(
            engine.core.jobs[0].spec.graph.stage_ids().nth(1).unwrap(),
            0,
        );
        assert_eq!(engine.core.jobs[0].task_state(pending), TaskState::Pending);
        assert!(!engine
            .core
            .start_clone(0, pending, SimTime::from_secs(1), 1.0));
        assert_eq!(engine.core.jobs[0].clone_task_count, 0);
    }

    #[test]
    fn refresh_status_matches_job_state() {
        let mut engine = one_job_engine(2);
        engine.prime();
        let (now, event) = engine.core.queue.pop().unwrap();
        engine.step(now, event, None);
        let job = &mut engine.core.jobs[0];
        job.refresh_status(SimTime::from_secs(5));
        assert_eq!(job.status.stage_fraction, vec![0.0, 0.0]);
        assert_eq!(job.status.running, 2);
        assert_eq!(job.status.guarantee, 2);
        assert_eq!(job.status.elapsed, SimDuration::from_secs(5));
        assert!(!job.status.finished);
    }
}
