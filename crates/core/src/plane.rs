//! A multi-job control plane: N concurrent SLO jobs against one shared
//! token budget, without a global lock.
//!
//! Re-running the greedy marginal-utility split
//! ([`arbitrate`](crate::arbiter::arbitrate)) for every job on every
//! tick, behind one lock over all job state, would cost O(N · budget)
//! model evaluations serialized N times per control period.
//! [`ControlPlane`] makes the same decision scalable:
//!
//! - **Sharded per-job slots.** Each job's state snapshot lives behind
//!   its own small `Mutex`; a tick touches only its own slot, so jobs
//!   never contend with each other on the hot path.
//! - **Atomic budget snapshot.** The per-job allocation vector is an
//!   immutable [`Arc`] swapped behind an `RwLock`; readers clone the
//!   `Arc` (no waiting on the arbitration computation).
//! - **Batched tick scheduling.** The expensive greedy split runs once
//!   per *refresh epoch* (about once per control period across the
//!   whole fleet, i.e. every ~N ticks) instead of once per tick. A
//!   single ticking job wins a `try_lock` election, evaluates each
//!   unfinished job's utility curve once (under that job's own lock,
//!   one job at a time), splits the budget from those curves off every
//!   lock, and publishes a new snapshot; everyone else reads the
//!   current snapshot and moves on.
//!
//! Each job's share is still recomputed from a fleet-wide view about
//! once per control period. [`JobHandle`] implements `JobController`
//! (smoothing its raw share with the §4.3 loop's hysteresis), so
//! plane-managed jobs drop into `ClusterSim` or a real scheduler
//! unchanged.
//!
//! # Service lifecycle
//!
//! The plane is built to run *indefinitely* under churn:
//!
//! - **Slot recycling.** A job that finishes (or whose handle is
//!   dropped) releases its slot; released ids go through a free list
//!   and are reissued to later admissions, so a plane that has served
//!   100k recurring jobs costs the same per refresh as one serving its
//!   current live fleet. The refresh epoch counts *active* jobs, not
//!   the slot table's high-water mark.
//! - **Deadline-aware admission.** [`ControlPlane::try_add_job`] sizes
//!   a reservation from the job's completion model
//!   ([`CompletionModel::size_for_deadline`]) against a live
//!   [`AdmissionController`] ledger and rejects jobs whose SLO cannot
//!   fit the configured budget, instead of letting the arbitration's
//!   1-token floor silently over-commit it. Until the next periodic
//!   refresh folds a new SLO job into the fleet split, its ticks serve
//!   the *reservation* as the default share — safe (reservations sum
//!   within the budget) and refresh-free, so sustained admission churn
//!   cannot degenerate into per-tick re-arbitration.
//!   [`ControlPlane::add_job`] remains the unconditional path; jobs
//!   admitted that way bypass the ledger and request an opportunistic
//!   refresh (they have no reservation to fall back on).
//! - **Strict deadline-change visibility.** Deadline changes bump a
//!   *strict* generation counter after updating the slot; a tick that
//!   observes an unapplied strict generation refuses to serve the
//!   current snapshot and instead waits out (or performs) a refresh
//!   that includes the change. This closes the lost-force-refresh race
//!   where an in-flight refresher's counter reset could swallow a
//!   concurrent deadline change for a full epoch.
//! - **Serial-guarded snapshots.** Snapshot entries carry the slot
//!   occupant's serial; a recycled slot id never inherits the previous
//!   occupant's allocation from a stale snapshot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use jockey_cluster::{ControlDecision, JobController, JobStatus};
use jockey_simrt::time::SimDuration;

use crate::admission::{AdmissionController, AdmissionError};
use crate::alloc::{SpeculationLevel, SpeculativeDecision};
use crate::arbiter::{CurveTable, JobView};
use crate::online::ModelLifecycleStats;
use crate::predict::CompletionModel;
use crate::progress::IndicatorContext;
use crate::utility::UtilityFunction;

/// One job's latest state snapshot, sharded behind its own lock.
struct SlotState {
    progress: f64,
    stage_fraction: Vec<f64>,
    elapsed_secs: f64,
    finished: bool,
    utility: UtilityFunction,
}

struct JobSlot {
    model: Arc<dyn CompletionModel>,
    slack: f64,
    /// Unique occupant serial (never reused): distinguishes this job
    /// from earlier occupants of the same recycled slot id.
    serial: u64,
    /// Default share served before the first refresh that includes this
    /// job: the ledger reservation for SLO jobs, 1 otherwise.
    reserved: u32,
    state: Mutex<SlotState>,
}

impl JobSlot {
    /// Per-slot poison recovery: a snapshot is overwritten wholesale on
    /// every tick, so a panicking holder cannot leave it half-updated.
    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// An immutable per-epoch allocation snapshot, swapped atomically.
struct Snapshot {
    /// Guaranteed tokens per slot id.
    alloc: Vec<u32>,
    /// The occupant serial each entry was computed for (0 = vacant).
    /// A job admitted after this snapshot was gathered — including one
    /// reusing a recycled slot id — misses here and falls back to its
    /// reservation until the next refresh.
    serial: Vec<u64>,
}

impl Snapshot {
    fn share_for(&self, id: usize, serial: u64) -> Option<u32> {
        if self.serial.get(id).copied() == Some(serial) {
            Some(self.alloc[id])
        } else {
            None
        }
    }
}

/// Buffers one refresh fills and the next reuses, owned by the refresh
/// gate: a refresh in steady state allocates only the snapshot it
/// publishes.
#[derive(Default)]
struct RefreshScratch {
    /// Slot ids of the unfinished jobs, in curve-table order.
    active: Vec<usize>,
    curves: CurveTable,
}

/// Counters describing how much arbitration work the plane performed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlaneStats {
    /// Total job ticks served.
    pub ticks: u64,
    /// Budget-split recomputations (refresh epochs).
    pub refreshes: u64,
    /// Refreshes in which the active fleet outnumbered the budget, so
    /// the 1-token-per-job floor handed out more tokens than the plane
    /// owns. Zero whenever every job enters through
    /// [`ControlPlane::try_add_job`].
    pub over_committed_rounds: u64,
    /// Model generations published by online model stores registered
    /// via [`ControlPlane::register_model_stats`] — one per absorbed
    /// completion or drift retrain.
    pub model_generations_swapped: u64,
    /// Drift-detector firings across registered model stores.
    pub drift_detections: u64,
    /// Cold-start prior-library hits across registered stores.
    pub prior_hits: u64,
    /// Cold-start prior-library misses across registered stores.
    pub prior_misses: u64,
    /// Jobs admitted through the speculative path
    /// ([`ControlPlane::try_add_job_speculative`]) with a non-zero
    /// clone budget — i.e. admissions where speculation actually won
    /// the (allocation, level) search.
    pub speculative_admissions: u64,
    /// Cumulative clone-budget tokens priced into reservations by
    /// speculative admissions.
    pub clone_tokens_reserved: u64,
}

/// The sharded multi-job control runtime.
pub struct ControlPlane {
    budget: u32,
    /// Slot table: `None` entries are released slots awaiting reuse.
    /// Admission and release take the write lock to push or recycle an
    /// entry. Every tick holds the read lock for its whole duration,
    /// including a refresh it runs (which evaluates every job's model),
    /// so an admission or release arriving mid-refresh waits for that
    /// refresh to finish.
    slots: RwLock<Vec<Option<Arc<JobSlot>>>>,
    /// Released slot ids, reissued to later admissions.
    free: Mutex<Vec<usize>>,
    /// Admitted-and-unreleased job count: the refresh epoch length.
    active: AtomicU64,
    /// SLO reservation ledger backing [`ControlPlane::try_add_job`].
    ledger: Mutex<AdmissionController>,
    /// The published allocation snapshot.
    snapshot: RwLock<Arc<Snapshot>>,
    /// Refresh election: the ticking job that wins this `try_lock`
    /// recomputes the split, in the buffers the gate guards; losers use
    /// the current snapshot.
    refresh_gate: Mutex<RefreshScratch>,
    /// Ticks since the last completed refresh.
    ticks_since_refresh: AtomicU64,
    /// Bumped by every deadline change, *after* the slot update. A tick
    /// observing `applied_strict < strict_gen` refuses to serve the
    /// published snapshot (it may predate the change) and blocks on the
    /// gate until a post-change refresh publishes.
    strict_gen: AtomicU64,
    /// The `strict_gen` the last refresher loaded *before* gathering.
    applied_strict: AtomicU64,
    /// Bumped by unconditional [`ControlPlane::add_job`] admissions,
    /// which have no reservation to fall back on. The next tick
    /// opportunistically refreshes (try-lock, never blocking) even if
    /// the epoch has not elapsed. SLO admissions and releases do *not*
    /// bump this: under sustained churn they ride the periodic epoch
    /// refresh, keeping the arbitration cadence flat.
    forced_gen: AtomicU64,
    /// The `forced_gen` the last refresher loaded *before* gathering.
    applied_forced: AtomicU64,
    /// Occupant serial source; starts at 1 (0 marks vacancy).
    next_serial: AtomicU64,
    ticks: AtomicU64,
    refreshes: AtomicU64,
    over_committed_rounds: AtomicU64,
    speculative_admissions: AtomicU64,
    clone_tokens_reserved: AtomicU64,
    /// Lifecycle counters of the online model stores serving this
    /// plane's jobs, registered via
    /// [`ControlPlane::register_model_stats`] and summed into
    /// [`ControlPlane::stats`].
    model_stats: Mutex<Vec<Arc<ModelLifecycleStats>>>,
}

impl ControlPlane {
    /// Creates a plane managing `budget` guaranteed tokens.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn new(budget: u32) -> Arc<Self> {
        assert!(budget > 0);
        Arc::new(ControlPlane {
            budget,
            slots: RwLock::new(Vec::new()),
            free: Mutex::new(Vec::new()),
            active: AtomicU64::new(0),
            ledger: Mutex::new(AdmissionController::new(budget)),
            snapshot: RwLock::new(Arc::new(Snapshot {
                alloc: Vec::new(),
                serial: Vec::new(),
            })),
            refresh_gate: Mutex::new(RefreshScratch::default()),
            ticks_since_refresh: AtomicU64::new(0),
            strict_gen: AtomicU64::new(0),
            applied_strict: AtomicU64::new(0),
            forced_gen: AtomicU64::new(0),
            applied_forced: AtomicU64::new(0),
            next_serial: AtomicU64::new(1),
            ticks: AtomicU64::new(0),
            refreshes: AtomicU64::new(0),
            over_committed_rounds: AtomicU64::new(0),
            speculative_admissions: AtomicU64::new(0),
            clone_tokens_reserved: AtomicU64::new(0),
            model_stats: Mutex::new(Vec::new()),
        })
    }

    /// Admits a job unconditionally, returning its [`JobHandle`]
    /// controller. `slack` is the prediction multiplier applied inside
    /// the arbitration.
    ///
    /// No SLO reservation is made: enough unconditional admissions can
    /// push the active fleet past the budget, at which point refreshes
    /// fall back to the 1-token floor and count as over-committed in
    /// [`ControlPlane::stats`]. Use [`ControlPlane::try_add_job`] for
    /// the guarded path.
    pub fn add_job(
        self: &Arc<Self>,
        model: Arc<dyn CompletionModel>,
        indicator: IndicatorContext,
        utility: UtilityFunction,
        slack: f64,
    ) -> JobHandle {
        let stage_count = indicator.stage_count();
        let slot = self.new_slot(model, slack, stage_count, utility, 1);
        let handle = self.admit_slot(slot, indicator, None);
        // No reservation to serve before the first fleet refresh that
        // includes this job: request an opportunistic refresh instead.
        self.forced_gen.fetch_add(1, Ordering::Release);
        handle
    }

    /// Admits a job only if its SLO fits: sizes the minimum reservation
    /// meeting `deadline` from the model's fresh predictions, reserves
    /// it in the plane's ledger, and registers the job. The reservation
    /// is freed when the job finishes or its handle is dropped.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Infeasible`] when no allocation meets the
    /// deadline, [`AdmissionError::InsufficientCapacity`] when the
    /// unreserved budget cannot hold the reservation, and
    /// [`AdmissionError::DuplicateName`] while a live job already holds
    /// a reservation under `name`.
    pub fn try_add_job(
        self: &Arc<Self>,
        name: &str,
        model: Arc<dyn CompletionModel>,
        indicator: IndicatorContext,
        deadline: SimDuration,
        slack: f64,
    ) -> Result<JobHandle, AdmissionError> {
        let level = SpeculationLevel {
            label: String::new(),
            clone_budget: 0,
            model,
        };
        self.admit_cheapest_level(
            name,
            std::slice::from_ref(&level),
            indicator,
            deadline,
            slack,
        )
        .map(|(handle, _)| handle)
    }

    /// Admits an SLO job at its cheapest speculation level: sizes each
    /// level's minimum deadline-meeting allocation from its own
    /// `C(p, a, s)` surface, picks the level with the
    /// smallest *total* token cost `a + clone_budget(s)` (ties go to
    /// the lower level), and reserves the full total in the plane's
    /// ledger — a clone token held for straggler races is priced
    /// exactly like a guaranteed token. The job's ticks are served the
    /// guarantee part `a`; the clone budget stays idle headroom the
    /// cluster's clone-on-slow watcher can draw on.
    ///
    /// The chosen level is fixed for the job's lifetime (speculation is
    /// a cluster-level engine configuration, not a per-tick actuator);
    /// the per-tick allocation still floats with the fleet split, over
    /// the chosen level's surface.
    ///
    /// # Errors
    ///
    /// The errors of [`ControlPlane::try_add_job`], checked in the same
    /// order: [`AdmissionError::DuplicateName`] first, then
    /// [`AdmissionError::Infeasible`] when no level has a
    /// deadline-meeting allocation (always so for an empty `levels`),
    /// then capacity — judged against the chosen level's *total* cost.
    pub fn try_add_job_speculative(
        self: &Arc<Self>,
        name: &str,
        levels: &[SpeculationLevel],
        indicator: IndicatorContext,
        deadline: SimDuration,
        slack: f64,
    ) -> Result<(JobHandle, SpeculativeDecision), AdmissionError> {
        self.admit_cheapest_level(name, levels, indicator, deadline, slack)
    }

    /// The one admission body behind [`ControlPlane::try_add_job`] and
    /// [`ControlPlane::try_add_job_speculative`]. Under the ledger lock
    /// it rejects a live duplicate name, sizes each level's minimum
    /// deadline-meeting allocation from fresh predictions, picks the
    /// smallest total `a + clone_budget` (ties keep the earlier level)
    /// and reserves that total. A level whose total does not fit in a
    /// `u32` can never be reserved: it loses to every other level, and
    /// if it is the only sized one the call fails on capacity.
    fn admit_cheapest_level(
        self: &Arc<Self>,
        name: &str,
        levels: &[SpeculationLevel],
        indicator: IndicatorContext,
        deadline: SimDuration,
        slack: f64,
    ) -> Result<(JobHandle, SpeculativeDecision), AdmissionError> {
        let stage_count = indicator.stage_count();
        let fresh = vec![0.0; stage_count];
        let decision = {
            let mut ledger = self.ledger.lock().unwrap_or_else(PoisonError::into_inner);
            if ledger.contains(name) {
                return Err(AdmissionError::DuplicateName);
            }
            let mut best: Option<SpeculativeDecision> = None;
            let mut overflowed = false;
            for (s, level) in levels.iter().enumerate() {
                let Some(a) = level.model.size_for_deadline(&fresh, deadline, slack) else {
                    continue;
                };
                let Some(total) = a.checked_add(level.clone_budget) else {
                    overflowed = true;
                    continue;
                };
                if best.is_none_or(|d| total < d.total_tokens) {
                    best = Some(SpeculativeDecision {
                        allocation: a,
                        level: s,
                        total_tokens: total,
                    });
                }
            }
            let decision = match best {
                Some(decision) => decision,
                None if overflowed => {
                    return Err(AdmissionError::InsufficientCapacity {
                        required: u32::MAX,
                        available: ledger.available(),
                    })
                }
                None => return Err(AdmissionError::Infeasible),
            };
            ledger.try_reserve(name, decision.total_tokens)?;
            decision
        };
        let level = &levels[decision.level];
        if level.clone_budget > 0 {
            self.speculative_admissions.fetch_add(1, Ordering::Relaxed);
            self.clone_tokens_reserved
                .fetch_add(u64::from(level.clone_budget), Ordering::Relaxed);
        }
        let slot = self.new_slot(
            level.model.clone(),
            slack,
            stage_count,
            UtilityFunction::deadline(deadline),
            decision.allocation,
        );
        Ok((
            self.admit_slot(slot, indicator, Some(name.to_string())),
            decision,
        ))
    }

    fn new_slot(
        &self,
        model: Arc<dyn CompletionModel>,
        slack: f64,
        stage_count: usize,
        utility: UtilityFunction,
        reserved: u32,
    ) -> Arc<JobSlot> {
        Arc::new(JobSlot {
            model,
            slack,
            serial: self.next_serial.fetch_add(1, Ordering::Relaxed),
            reserved,
            state: Mutex::new(SlotState {
                progress: 0.0,
                stage_fraction: vec![0.0; stage_count],
                elapsed_secs: 0.0,
                finished: false,
                utility,
            }),
        })
    }

    /// Installs a slot, recycling a released id when one is free. The
    /// published snapshot cannot cover the newcomer (its serial is
    /// fresh), so its ticks serve the slot's reservation until the next
    /// refresh folds it in.
    fn admit_slot(
        self: &Arc<Self>,
        slot: Arc<JobSlot>,
        indicator: IndicatorContext,
        name: Option<String>,
    ) -> JobHandle {
        let id = {
            let mut slots = self.slots.write().unwrap_or_else(PoisonError::into_inner);
            let recycled = self
                .free
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop();
            match recycled {
                Some(id) => {
                    slots[id] = Some(slot);
                    id
                }
                None => {
                    slots.push(Some(slot));
                    slots.len() - 1
                }
            }
        };
        self.active.fetch_add(1, Ordering::Relaxed);
        JobHandle {
            plane: self.clone(),
            id,
            indicator,
            smoothed: None,
            name,
            released: false,
        }
    }

    /// Returns a released job's slot to the free list and frees its
    /// ledger reservation, if it held one.
    fn release_job(&self, id: usize, name: Option<&str>) {
        {
            let mut slots = self.slots.write().unwrap_or_else(PoisonError::into_inner);
            if slots.get_mut(id).and_then(Option::take).is_some() {
                self.free
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(id);
                self.active.fetch_sub(1, Ordering::Relaxed);
            }
        }
        if let Some(name) = name {
            self.ledger
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .release(name);
        }
        // No generation bump: survivors converge on the freed tokens at
        // the next periodic refresh (bounded by one control period),
        // and the serial guard keeps the freed id's stale snapshot
        // entry from leaking to its next occupant.
    }

    /// Registers an online model store's lifecycle counters so
    /// [`ControlPlane::stats`] reports model generations, drift
    /// detections and prior-library traffic alongside the plane's own
    /// arbitration work. Stores serving several jobs register once.
    pub fn register_model_stats(&self, stats: Arc<ModelLifecycleStats>) {
        self.model_stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(stats);
    }

    /// The plane's work counters, including the summed lifecycle
    /// counters of every registered model store.
    pub fn stats(&self) -> PlaneStats {
        let mut stats = PlaneStats {
            ticks: self.ticks.load(Ordering::Relaxed),
            refreshes: self.refreshes.load(Ordering::Relaxed),
            over_committed_rounds: self.over_committed_rounds.load(Ordering::Relaxed),
            speculative_admissions: self.speculative_admissions.load(Ordering::Relaxed),
            clone_tokens_reserved: self.clone_tokens_reserved.load(Ordering::Relaxed),
            ..PlaneStats::default()
        };
        for m in self
            .model_stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            stats.model_generations_swapped += m.generations_swapped.load(Ordering::Relaxed);
            stats.drift_detections += m.drift_detections.load(Ordering::Relaxed);
            stats.prior_hits += m.prior_hits.load(Ordering::Relaxed);
            stats.prior_misses += m.prior_misses.load(Ordering::Relaxed);
        }
        stats
    }

    /// Guaranteed tokens under management.
    pub fn budget(&self) -> u32 {
        self.budget
    }

    /// Live (admitted, unreleased) jobs.
    pub fn active_jobs(&self) -> usize {
        self.active.load(Ordering::Relaxed) as usize
    }

    /// Slot-table length including free entries — the high-water mark
    /// of *concurrent* jobs, bounded under churn by slot recycling.
    pub fn slot_count(&self) -> usize {
        self.slots
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Tokens reserved by SLO jobs admitted via
    /// [`ControlPlane::try_add_job`].
    pub fn reserved(&self) -> u32 {
        self.ledger
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .reserved()
    }

    /// Tokens still unreserved for new SLO admissions.
    pub fn available(&self) -> u32 {
        self.ledger
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .available()
    }

    /// Serves one job tick: updates the job's own slot, opportunistically
    /// refreshes the fleet snapshot when an epoch has elapsed, and
    /// returns the job's share from the published snapshot.
    fn tick_job(&self, id: usize, progress: f64, status: &JobStatus) -> u32 {
        self.ticks.fetch_add(1, Ordering::Relaxed);
        let slots = self.slots.read().unwrap_or_else(PoisonError::into_inner);
        let Some(slot) = slots.get(id).and_then(Option::as_ref) else {
            return 1; // Released slot: nothing to arbitrate.
        };
        {
            let mut s = slot.lock();
            s.progress = progress;
            s.stage_fraction.clear();
            s.stage_fraction.extend_from_slice(&status.stage_fraction);
            s.elapsed_secs = status.elapsed.as_secs_f64();
            s.finished = status.finished;
        }

        // One refresh per epoch: an epoch is one tick per *active* job,
        // so each job sees a fleet-fresh split about once per control
        // period — the cadence of a per-tick split, at 1/N of its
        // arbitration cost.
        let epoch = self.active.load(Ordering::Relaxed).max(1);
        let due = self.ticks_since_refresh.fetch_add(1, Ordering::AcqRel) >= epoch - 1;
        // `goal` is the newest deadline change this tick has observed;
        // a snapshot older than it must never be served.
        let goal = self.strict_gen.load(Ordering::Acquire);
        if self.applied_strict.load(Ordering::Acquire) < goal {
            // Unapplied deadline change: wait out (or perform) a
            // refresh at least as fresh as `goal`. The blocking lock —
            // rather than the opportunistic `try_lock` — is what closes
            // the lost-force-refresh race: an in-flight refresher may
            // have gathered pre-change state, but it cannot advance
            // `applied_strict` past `goal`, so we refresh again behind
            // it.
            while self.applied_strict.load(Ordering::Acquire) < goal {
                let mut scratch = self
                    .refresh_gate
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if self.applied_strict.load(Ordering::Acquire) < goal {
                    self.refresh_locked(&slots, &mut scratch);
                }
            }
        } else if due
            || self.applied_forced.load(Ordering::Acquire) < self.forced_gen.load(Ordering::Acquire)
        {
            if let Ok(mut scratch) = self.refresh_gate.try_lock() {
                self.refresh_locked(&slots, &mut scratch);
            }
        }

        if status.finished {
            return 1;
        }
        let snapshot = {
            let guard = self.snapshot.read().unwrap_or_else(PoisonError::into_inner);
            guard.clone()
        };
        snapshot
            .share_for(id, slot.serial)
            .unwrap_or(slot.reserved)
            .max(1)
    }

    /// Runs one refresh while the caller holds the refresh gate,
    /// recording the generations observed *before* gathering so a
    /// change landing mid-refresh leaves `applied_* < *_gen` and forces
    /// a follow-up.
    fn refresh_locked(&self, slots: &[Option<Arc<JobSlot>>], scratch: &mut RefreshScratch) {
        let strict = self.strict_gen.load(Ordering::Acquire);
        let forced = self.forced_gen.load(Ordering::Acquire);
        self.ticks_since_refresh.store(0, Ordering::Release);
        self.refresh(slots, scratch);
        self.applied_strict.store(strict, Ordering::Release);
        self.applied_forced.store(forced, Ordering::Release);
    }

    /// Recomputes the greedy split from the current slot snapshots and
    /// publishes it. Runs while holding the refresh gate: a first pass
    /// picks the unfinished jobs (their count bounds every curve's
    /// length), a second evaluates each one's utility curve into the
    /// curve table under that job's own lock (one lock at a time), and
    /// the split itself reads only the table, touching no lock and no
    /// model.
    fn refresh(&self, slots: &[Option<Arc<JobSlot>>], scratch: &mut RefreshScratch) {
        self.refreshes.fetch_add(1, Ordering::Relaxed);
        let RefreshScratch { active, curves } = scratch;
        active.clear();
        let mut serial = vec![0_u64; slots.len()];
        for (i, slot) in slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            serial[i] = slot.serial;
            if !slot.lock().finished {
                active.push(i);
            }
        }
        // The split needs at least one token per job; when the active
        // fleet outgrows the budget (possible only through
        // unconditional `add_job`), the floor over-commits — count it
        // instead of absorbing it silently.
        if active.len() as u32 > self.budget {
            self.over_committed_rounds.fetch_add(1, Ordering::Relaxed);
        }
        curves.reset(active.len(), self.budget.max(active.len() as u32));
        for &i in active.iter() {
            let slot = slots[i].as_ref().expect("gathered above");
            let s = slot.lock();
            curves.push(JobView {
                model: slot.model.as_ref(),
                utility: &s.utility,
                progress: s.progress,
                stage_fraction: &s.stage_fraction,
                elapsed_secs: s.elapsed_secs,
                slack: slot.slack,
            });
        }
        let mut alloc = vec![1_u32; slots.len()];
        for (&i, &share) in active.iter().zip(curves.split()) {
            alloc[i] = share;
        }
        let mut guard = self
            .snapshot
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        *guard = Arc::new(Snapshot { alloc, serial });
    }

    fn set_deadline(&self, id: usize, new_deadline: SimDuration) {
        {
            let slots = self.slots.read().unwrap_or_else(PoisonError::into_inner);
            let Some(slot) = slots.get(id).and_then(Option::as_ref) else {
                return; // Released slot: nothing to retarget.
            };
            let mut s = slot.lock();
            s.utility = s.utility.with_deadline(new_deadline);
        }
        // Publish the change *after* the slot update: any tick that
        // observes the new generation is guaranteed a post-change
        // gather (the slot mutex orders the two writes).
        self.strict_gen.fetch_add(1, Ordering::Release);
    }
}

/// Hysteresis coefficient applied to the plane's raw shares: without
/// it, jobs with near-equal marginal utilities would swap tokens every
/// tick, and each swing demotes or evicts running tasks.
const PLANE_HYSTERESIS: f64 = 0.3;

/// A per-job `JobController` served by a [`ControlPlane`].
///
/// The handle owns the job's slot: when the job finishes (first tick
/// with `finished`) or the handle is dropped, the slot is released back
/// to the plane's free list and any SLO reservation is freed.
pub struct JobHandle {
    plane: Arc<ControlPlane>,
    id: usize,
    indicator: IndicatorContext,
    smoothed: Option<f64>,
    /// Ledger reservation name, for jobs admitted via
    /// [`ControlPlane::try_add_job`].
    name: Option<String>,
    released: bool,
}

impl JobHandle {
    /// The plane this handle belongs to.
    pub fn plane(&self) -> &Arc<ControlPlane> {
        &self.plane
    }

    /// The job's slot id within the plane. Slot ids are recycled: a
    /// released id may be reissued to a later admission.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether the job's slot has been released (on finish or by
    /// [`JobHandle::release`]).
    pub fn is_released(&self) -> bool {
        self.released
    }

    /// Releases the job's slot and reservation early (cancellation).
    /// Subsequent ticks return the 1-token floor without touching the
    /// plane. Idempotent.
    pub fn release(&mut self) {
        if !self.released {
            self.released = true;
            self.plane.release_job(self.id, self.name.as_deref());
        }
    }
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        self.release();
    }
}

impl JobController for JobHandle {
    fn tick(&mut self, status: &JobStatus) -> ControlDecision {
        if self.released {
            return ControlDecision {
                guarantee: 1,
                raw: Some(1.0),
                progress: None,
                predicted_completion: None,
            };
        }
        let p = self.indicator.progress(&status.stage_fraction);
        let raw = self.plane.tick_job(self.id, p, status);
        if status.finished {
            // Release immediately: pacing a finished job's give-back
            // through hysteresis would hold budget nobody can use, and
            // a finished slot scanned forever would leak refresh work.
            self.smoothed = Some(1.0);
            self.release();
            return ControlDecision {
                guarantee: 1,
                raw: Some(f64::from(raw)),
                progress: Some(p),
                predicted_completion: None,
            };
        }
        let next = match self.smoothed {
            None => f64::from(raw),
            Some(cur) => cur + PLANE_HYSTERESIS * (f64::from(raw) - cur),
        };
        self.smoothed = Some(next);
        ControlDecision {
            guarantee: (next.ceil() as u32).max(1),
            raw: Some(f64::from(raw)),
            progress: Some(p),
            predicted_completion: None,
        }
    }

    fn deadline_changed(&mut self, new_deadline: SimDuration) {
        if self.released {
            return;
        }
        self.plane.set_deadline(self.id, new_deadline);
        // A new SLO is a fresh sizing problem (same as JockeyController).
        self.smoothed = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpa::{CpaModel, TrainConfig};
    use crate::progress::ProgressIndicator;
    use jockey_cluster::{ClusterConfig, ClusterSim, FixedAllocation, JobSpec};
    use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
    use jockey_simrt::dist::Constant;
    use jockey_simrt::time::SimTime;

    /// remaining = work * (1 - progress) / a.
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

    fn toy_indicator() -> IndicatorContext {
        let mut b = JobGraphBuilder::new("plane-toy");
        b.stage("only", 10);
        let g = b.build().unwrap();
        let mut pb = jockey_jobgraph::profile::ProfileBuilder::new(&g);
        for _ in 0..10 {
            pb.record_task(jockey_jobgraph::StageId(0), 1.0, 10.0, false);
        }
        let p = pb.finish(100.0, 1.0);
        IndicatorContext::new(ProgressIndicator::VertexFrac, &g, &p, None)
    }

    fn status(minute: u64, frac: f64, guarantee: u32) -> JobStatus {
        JobStatus {
            now: SimTime::from_mins(minute),
            elapsed: SimDuration::from_mins(minute),
            stage_fraction: vec![frac],
            stage_completed: vec![(frac * 10.0) as u32],
            running: guarantee,
            running_guaranteed: guarantee,
            guarantee,
            work_done: frac * 100.0,
            finished: frac >= 1.0,
        }
    }

    #[test]
    fn tight_deadline_wins_the_budget() {
        let plane = ControlPlane::new(20);
        let mut tight = plane.add_job(
            Arc::new(Toy { work: 36_000.0 }),
            toy_indicator(),
            UtilityFunction::deadline(SimDuration::from_mins(60)),
            1.0,
        );
        let mut loose = plane.add_job(
            Arc::new(Toy { work: 36_000.0 }),
            toy_indicator(),
            UtilityFunction::deadline(SimDuration::from_mins(120)),
            1.0,
        );
        let dt = tight.tick(&status(0, 0.0, 0));
        let dl = loose.tick(&status(0, 0.0, 0));
        assert!(dt.guarantee > dl.guarantee, "tight {dt:?} vs loose {dl:?}");
        // The tight job needs 10 tokens (36000/3600) to be on time.
        assert!(dt.guarantee >= 10, "{dt:?}");
    }

    #[test]
    fn refreshes_are_amortized_across_ticks() {
        let plane = ControlPlane::new(64);
        let n = 16;
        let mut handles: Vec<JobHandle> = (0..n)
            .map(|_| {
                plane.add_job(
                    Arc::new(Toy { work: 36_000.0 }),
                    toy_indicator(),
                    UtilityFunction::deadline(SimDuration::from_mins(60)),
                    1.0,
                )
            })
            .collect();
        // Drive 20 whole control rounds.
        for minute in 0..20 {
            for h in &mut handles {
                h.tick(&status(minute, 0.02 * minute as f64, 4));
            }
        }
        let stats = plane.stats();
        assert_eq!(stats.ticks, 20 * n as u64);
        // Roughly one refresh per round — far fewer than one per tick.
        assert!(stats.refreshes <= 25 && stats.refreshes >= 10, "{stats:?}");
    }

    #[test]
    fn finished_jobs_release_their_share() {
        let plane = ControlPlane::new(8);
        let mut a = plane.add_job(
            Arc::new(Toy { work: 36_000.0 }),
            toy_indicator(),
            UtilityFunction::deadline(SimDuration::from_mins(10)),
            1.0,
        );
        let mut b = plane.add_job(
            Arc::new(Toy { work: 36_000.0 }),
            toy_indicator(),
            UtilityFunction::deadline(SimDuration::from_mins(10)),
            1.0,
        );
        a.tick(&status(0, 0.0, 0));
        b.tick(&status(0, 0.0, 0));
        // Job A finishes; its share collapses and B inherits the budget
        // at the next refresh.
        let d = a.tick(&status(5, 1.0, 4));
        assert_eq!(d.guarantee, 1, "finished job should hold no budget");
        let before = b.tick(&status(5, 0.1, 4)).guarantee;
        let after = b.tick(&status(6, 0.1, before)).guarantee;
        assert!(after >= before, "survivor kept {after} vs {before}");
    }

    #[test]
    fn deadline_change_forces_a_fresh_split() {
        let plane = ControlPlane::new(20);
        let mut a = plane.add_job(
            Arc::new(Toy { work: 36_000.0 }),
            toy_indicator(),
            UtilityFunction::deadline(SimDuration::from_mins(120)),
            1.0,
        );
        let mut b = plane.add_job(
            Arc::new(Toy { work: 36_000.0 }),
            toy_indicator(),
            UtilityFunction::deadline(SimDuration::from_mins(120)),
            1.0,
        );
        let g0 = a.tick(&status(0, 0.0, 0)).guarantee;
        b.tick(&status(0, 0.0, 0));
        // Halve A's deadline: its share must grow at the next ticks.
        a.deadline_changed(SimDuration::from_mins(30));
        let mut g = g0;
        for minute in 1..=6 {
            g = a.tick(&status(minute, 0.01 * minute as f64, g)).guarantee;
        }
        assert!(g > g0, "tightened job stayed at {g} (was {g0})");
    }

    #[test]
    fn snapshot_is_recovered_after_a_panicking_reader() {
        // Poison one slot lock by panicking while holding it; the
        // plane must keep serving every job.
        let plane = ControlPlane::new(8);
        let mut a = plane.add_job(
            Arc::new(Toy { work: 36_000.0 }),
            toy_indicator(),
            UtilityFunction::deadline(SimDuration::from_mins(60)),
            1.0,
        );
        a.tick(&status(0, 0.0, 0));
        {
            let plane = plane.clone();
            let _ = std::thread::spawn(move || {
                let slots = plane.slots.read().unwrap();
                let _guard = slots[0].as_ref().unwrap().state.lock().unwrap();
                panic!("poison the slot");
            })
            .join();
        }
        let d = a.tick(&status(1, 0.05, 4));
        assert!(d.guarantee >= 1, "plane stopped serving after poison");
    }

    #[test]
    fn slot_count_stays_bounded_across_churn() {
        // Regression: slots used to grow on admission and never shrink,
        // so every finished job was locked, scanned and counted in the
        // refresh epoch forever. 10k admit→finish cycles must leave the
        // table no larger than the peak concurrency.
        let plane = ControlPlane::new(8);
        let mut anchor = plane.add_job(
            Arc::new(Toy { work: 36_000.0 }),
            toy_indicator(),
            UtilityFunction::deadline(SimDuration::from_mins(60)),
            1.0,
        );
        for cycle in 0..10_000_u64 {
            let mut h = plane.add_job(
                Arc::new(Toy { work: 3_600.0 }),
                toy_indicator(),
                UtilityFunction::deadline(SimDuration::from_mins(30)),
                1.0,
            );
            h.tick(&status(0, 0.0, 0));
            let d = h.tick(&status(1, 1.0, 2));
            assert_eq!(d.guarantee, 1);
            assert!(h.is_released(), "finished job must release its slot");
            if cycle % 1000 == 0 {
                anchor.tick(&status(cycle, 0.0, 2));
            }
            assert!(
                plane.slot_count() <= 2,
                "cycle {cycle}: slot table grew to {}",
                plane.slot_count()
            );
            assert_eq!(plane.active_jobs(), 1);
        }
        drop(anchor);
        assert_eq!(plane.active_jobs(), 0);
    }

    #[test]
    fn released_ids_are_recycled() {
        let plane = ControlPlane::new(8);
        let _keep = plane.add_job(
            Arc::new(Toy { work: 36_000.0 }),
            toy_indicator(),
            UtilityFunction::deadline(SimDuration::from_mins(60)),
            1.0,
        );
        let mut a = plane.add_job(
            Arc::new(Toy { work: 36_000.0 }),
            toy_indicator(),
            UtilityFunction::deadline(SimDuration::from_mins(60)),
            1.0,
        );
        let freed = a.id();
        a.release();
        let b = plane.add_job(
            Arc::new(Toy { work: 36_000.0 }),
            toy_indicator(),
            UtilityFunction::deadline(SimDuration::from_mins(60)),
            1.0,
        );
        assert_eq!(b.id(), freed, "released id should be reissued");
        assert_eq!(plane.slot_count(), 2);
    }

    #[test]
    fn deadline_change_survives_a_concurrent_refresh_election() {
        // Regression for the lost-force-refresh race: a refresher that
        // was elected *before* a deadline change used to reset the
        // force flag while publishing pre-change state, delaying the
        // resplit by up to a full epoch. Simulate the in-flight
        // election by holding the refresh gate while the deadline
        // changes; the next tick must still observe the new split.
        let plane = ControlPlane::new(20);
        let mut a = plane.add_job(
            Arc::new(Toy { work: 36_000.0 }),
            toy_indicator(),
            UtilityFunction::deadline(SimDuration::from_mins(120)),
            1.0,
        );
        let mut b = plane.add_job(
            Arc::new(Toy { work: 36_000.0 }),
            toy_indicator(),
            UtilityFunction::deadline(SimDuration::from_mins(120)),
            1.0,
        );
        let g0 = a.tick(&status(0, 0.0, 0)).guarantee;
        b.tick(&status(0, 0.0, 0));

        let gate = plane.refresh_gate.lock().unwrap();
        a.deadline_changed(SimDuration::from_mins(30));
        // While the gate is held, the change cannot have been applied.
        assert!(
            plane.applied_strict.load(Ordering::Acquire) < plane.strict_gen.load(Ordering::Acquire)
        );
        let ticker = std::thread::spawn(move || {
            // This tick blocks until the stale election clears, then
            // refreshes with post-change state.
            b.tick(&status(1, 0.01, 4)).raw.unwrap()
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(gate);
        let b_raw = ticker.join().unwrap();
        let a_raw = a.tick(&status(1, 0.01, g0)).raw.unwrap();
        // 36 000 s of work in 30 min needs ~20 tokens: the tightened
        // job takes essentially the whole budget in the very next
        // published snapshot.
        assert!(a_raw >= 15.0, "tightened job got raw {a_raw}");
        assert!(b_raw < a_raw, "loose job got raw {b_raw} vs {a_raw}");
    }

    #[test]
    fn try_add_job_rejects_what_does_not_fit() {
        let plane = ControlPlane::new(10);
        // 36 000 s of work in 60 min ⇒ 10 tokens: fills the ledger.
        let first = plane
            .try_add_job(
                "big",
                Arc::new(Toy { work: 36_000.0 }),
                toy_indicator(),
                SimDuration::from_mins(60),
                1.0,
            )
            .expect("fits exactly");
        assert_eq!(plane.reserved(), 10);
        assert_eq!(plane.available(), 0);
        // A second SLO job cannot fit, even a tiny one.
        match plane.try_add_job(
            "small",
            Arc::new(Toy { work: 3_600.0 }),
            toy_indicator(),
            SimDuration::from_mins(60),
            1.0,
        ) {
            Err(AdmissionError::InsufficientCapacity {
                required,
                available,
            }) => {
                assert_eq!((required, available), (1, 0));
            }
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("expected capacity rejection"),
        }
        // Duplicate names are refused while the job is live.
        assert!(matches!(
            plane.try_add_job(
                "big",
                Arc::new(Toy { work: 3_600.0 }),
                toy_indicator(),
                SimDuration::from_mins(60),
                1.0,
            ),
            Err(AdmissionError::DuplicateName)
        ));
        // An impossible deadline is rejected without reserving.
        assert!(matches!(
            plane.try_add_job(
                "impossible",
                Arc::new(Toy { work: 1.0e9 }),
                toy_indicator(),
                SimDuration::from_mins(1),
                1.0,
            ),
            Err(AdmissionError::Infeasible)
        ));
        drop(first);
        // Dropping the admitted handle frees the reservation.
        assert_eq!(plane.reserved(), 0);
        assert!(plane
            .try_add_job(
                "small",
                Arc::new(Toy { work: 3_600.0 }),
                toy_indicator(),
                SimDuration::from_mins(60),
                1.0,
            )
            .is_ok());
    }

    #[test]
    fn slo_jobs_serve_their_reservation_before_the_first_refresh() {
        // SLO admissions do not force a refresh (under churn that would
        // degenerate into per-tick arbitration); until the periodic
        // refresh folds them in, their ticks serve the ledger
        // reservation — not the 1-token floor, and not a stale snapshot
        // entry left by a previous occupant of a recycled slot id.
        let plane = ControlPlane::new(20);
        let mut big = plane
            .try_add_job(
                "big",
                Arc::new(Toy { work: 36_000.0 }),
                toy_indicator(),
                SimDuration::from_mins(60), // needs 10 tokens
                1.0,
            )
            .unwrap();
        let mut side = plane
            .try_add_job(
                "side",
                Arc::new(Toy { work: 36_000.0 }),
                toy_indicator(),
                SimDuration::from_mins(120), // needs 5 tokens
                1.0,
            )
            .unwrap();
        // Epoch is 2 ticks: the fleet's first tick precedes any refresh
        // and must serve the new job's reservation as the raw share.
        assert_eq!(big.tick(&status(0, 0.0, 0)).raw, Some(10.0));
        // side's first tick lands on the epoch boundary: it refreshes
        // and reads an arbitrated share instead.
        side.tick(&status(0, 0.0, 0));
        // "big" finishes; its recycled slot id goes to a small job whose
        // first tick must see its own 2-token reservation, not the dead
        // job's snapshot entry.
        big.tick(&status(10, 1.0, 10));
        assert!(big.is_released());
        let freed = big.id();
        side.tick(&status(10, 0.3, 5)); // epoch boundary: refreshes
        let mut next = plane
            .try_add_job(
                "next",
                Arc::new(Toy { work: 7_200.0 }),
                toy_indicator(),
                SimDuration::from_mins(60), // needs 2 tokens
                1.0,
            )
            .unwrap();
        assert_eq!(next.id(), freed, "slot id should be recycled");
        assert_eq!(next.tick(&status(11, 0.0, 0)).raw, Some(2.0));
    }

    #[test]
    fn finished_slo_jobs_free_their_reservation() {
        let plane = ControlPlane::new(12);
        let mut h = plane
            .try_add_job(
                "recurring",
                Arc::new(Toy { work: 7_200.0 }),
                toy_indicator(),
                SimDuration::from_mins(60),
                1.0,
            )
            .unwrap();
        assert_eq!(plane.reserved(), 2);
        h.tick(&status(0, 0.0, 0));
        h.tick(&status(30, 1.0, 2));
        assert!(h.is_released());
        assert_eq!(plane.reserved(), 0);
        assert_eq!(plane.active_jobs(), 0);
        // The name is reusable for the next recurrence.
        assert!(plane
            .try_add_job(
                "recurring",
                Arc::new(Toy { work: 7_200.0 }),
                toy_indicator(),
                SimDuration::from_mins(60),
                1.0,
            )
            .is_ok());
    }

    #[test]
    fn over_commit_is_counted_not_silent() {
        // Five unconditional jobs on a 2-token plane: every refresh
        // must hand out 5 ≥ budget tokens via the 1-token floor, and
        // say so in the stats.
        let plane = ControlPlane::new(2);
        let mut handles: Vec<JobHandle> = (0..5)
            .map(|_| {
                plane.add_job(
                    Arc::new(Toy { work: 36_000.0 }),
                    toy_indicator(),
                    UtilityFunction::deadline(SimDuration::from_mins(60)),
                    1.0,
                )
            })
            .collect();
        for minute in 0..4 {
            for h in &mut handles {
                h.tick(&status(minute, 0.01 * minute as f64, 1));
            }
        }
        let stats = plane.stats();
        assert!(stats.over_committed_rounds > 0, "{stats:?}");
        assert_eq!(stats.over_committed_rounds, stats.refreshes, "{stats:?}");
    }

    #[test]
    fn published_split_matches_arbitrate_on_the_gathered_jobs() {
        use crate::arbiter::{arbitrate, ArbiterJob};

        // Refreshes the plane by hand and checks the published snapshot
        // against the public one-shot split of the same slot states:
        // every unfinished job's share equals `arbitrate`'s, finished
        // and vacant ids keep the floor, and every entry carries its
        // occupant's serial (0 for vacant ids).
        fn check(plane: &ControlPlane) {
            let slots = plane.slots.read().unwrap();
            let mut ids = Vec::new();
            let mut jobs = Vec::new();
            for (i, slot) in slots.iter().enumerate() {
                let Some(slot) = slot else { continue };
                let s = slot.lock();
                if !s.finished {
                    ids.push(i);
                    jobs.push(ArbiterJob {
                        model: slot.model.clone(),
                        utility: s.utility.clone(),
                        progress: s.progress,
                        stage_fraction: s.stage_fraction.clone(),
                        elapsed_secs: s.elapsed_secs,
                        slack: slot.slack,
                    });
                }
            }
            let expected = arbitrate(&jobs, plane.budget.max(jobs.len() as u32));
            plane.refresh_locked(&slots, &mut plane.refresh_gate.lock().unwrap());
            let snapshot = plane.snapshot.read().unwrap().clone();
            assert_eq!(snapshot.alloc.len(), slots.len());
            for (i, slot) in slots.iter().enumerate() {
                let want = ids
                    .iter()
                    .position(|&id| id == i)
                    .map_or(1, |p| expected[p]);
                assert_eq!(snapshot.alloc[i], want, "slot {i}: {:?}", snapshot.alloc);
                let serial = slot.as_ref().map_or(0, |s| s.serial);
                assert_eq!(snapshot.serial[i], serial, "slot {i}");
            }
        }

        let plane = ControlPlane::new(40);
        let admit = |i: u64| {
            plane.add_job(
                Arc::new(Toy {
                    work: 6_000.0 + 4_000.0 * i as f64,
                }),
                toy_indicator(),
                UtilityFunction::deadline(SimDuration::from_mins(20 + 7 * (i % 5))),
                1.0 + 0.05 * i as f64,
            )
        };
        let mut handles: Vec<JobHandle> = (0..9).map(admit).collect();
        for (i, h) in handles.iter_mut().enumerate() {
            h.tick(&status(1, 0.04 * i as f64, 2));
        }
        check(&plane);

        // Churn: two releases, three admissions (two onto recycled ids,
        // one appended), a deadline change and a job marked finished
        // whose slot is still held.
        let freed = [handles.remove(6).id(), handles.remove(2).id()];
        for i in 9..12 {
            handles.push(admit(i));
        }
        let reissued: Vec<usize> = handles[7..].iter().map(JobHandle::id).collect();
        assert!(freed.iter().all(|id| reissued.contains(id)), "{reissued:?}");
        for (i, h) in handles.iter_mut().enumerate() {
            h.tick(&status(3, 0.1 + 0.03 * i as f64, 3));
        }
        handles[4].deadline_changed(SimDuration::from_mins(12));
        {
            let slots = plane.slots.read().unwrap();
            slots[handles[1].id()].as_ref().unwrap().lock().finished = true;
        }
        check(&plane);
    }

    /// [`Toy`] with a straggler tail the speculative surface removes.
    struct TailToy {
        work: f64,
        tail: f64,
    }

    impl CompletionModel for TailToy {
        fn remaining_secs(&self, _fs: &[f64], progress: f64, allocation: u32) -> f64 {
            self.tail * self.work * (1.0 - progress) / f64::from(allocation.max(1))
        }
        fn max_allocation(&self) -> u32 {
            100
        }
    }

    fn tail_levels(work: f64, tail: f64, clone_budget: u32) -> Vec<SpeculationLevel> {
        vec![
            SpeculationLevel {
                label: "off".into(),
                clone_budget: 0,
                model: Arc::new(TailToy { work, tail }),
            },
            SpeculationLevel {
                label: "clone@2.0x".into(),
                clone_budget,
                model: Arc::new(TailToy { work, tail: 1.0 }),
            },
        ]
    }

    #[test]
    fn speculative_admission_prices_the_clone_budget() {
        let plane = ControlPlane::new(20);
        // Tail doubles the plain surface: 36 000 s in 60 min needs 20
        // plain tokens but only 10 + 2 with cloning.
        let (h, d) = plane
            .try_add_job_speculative(
                "tailed",
                &tail_levels(36_000.0, 2.0, 2),
                toy_indicator(),
                SimDuration::from_mins(60),
                1.0,
            )
            .expect("fits with speculation");
        assert_eq!(d.level, 1);
        assert_eq!(d.allocation, 10);
        assert_eq!(d.total_tokens, 12);
        // The ledger holds the *total*: guarantee plus clone budget.
        assert_eq!(plane.reserved(), 12);
        let s = plane.stats();
        assert_eq!(s.speculative_admissions, 1);
        assert_eq!(s.clone_tokens_reserved, 2);
        drop(h);
        assert_eq!(plane.reserved(), 0, "total reservation freed on drop");
    }

    #[test]
    fn speculative_admission_falls_back_to_level_zero() {
        // No tail: speculation is pure surcharge, level 0 must win and
        // the speculative counters stay untouched.
        let plane = ControlPlane::new(20);
        let (_h, d) = plane
            .try_add_job_speculative(
                "plain",
                &tail_levels(36_000.0, 1.0, 2),
                toy_indicator(),
                SimDuration::from_mins(60),
                1.0,
            )
            .unwrap();
        assert_eq!(d.level, 0);
        assert_eq!(d.total_tokens, d.allocation);
        assert_eq!(plane.reserved(), d.allocation);
        let s = plane.stats();
        assert_eq!(s.speculative_admissions, 0);
        assert_eq!(s.clone_tokens_reserved, 0);
    }

    #[test]
    fn speculative_admission_rejects_on_total_cost() {
        // The guarantee alone (10) fits a 11-token plane, but the
        // total with the clone budget (12) does not: capacity is judged
        // against what speculation actually holds.
        let plane = ControlPlane::new(11);
        match plane.try_add_job_speculative(
            "tailed",
            &tail_levels(36_000.0, 2.0, 2),
            toy_indicator(),
            SimDuration::from_mins(60),
            1.0,
        ) {
            Err(AdmissionError::InsufficientCapacity {
                required,
                available,
            }) => assert_eq!((required, available), (12, 11)),
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("expected capacity rejection"),
        }
        assert_eq!(plane.reserved(), 0);
    }

    /// Sizes every deadline at `u32::MAX` tokens.
    struct Huge;

    impl CompletionModel for Huge {
        fn remaining_secs(&self, _fs: &[f64], _progress: f64, _allocation: u32) -> f64 {
            1.0
        }
        fn max_allocation(&self) -> u32 {
            u32::MAX
        }
        fn size_for_deadline(&self, _fs: &[f64], _d: SimDuration, _slack: f64) -> Option<u32> {
            Some(u32::MAX)
        }
    }

    #[test]
    fn overflowing_total_is_rejected_without_reserving() {
        let plane = ControlPlane::new(20);
        let huge = SpeculationLevel {
            label: "clone@2.0x".into(),
            clone_budget: 2,
            model: Arc::new(Huge),
        };
        let deadline = SimDuration::from_mins(60);
        let alone = plane.try_add_job_speculative(
            "x",
            std::slice::from_ref(&huge),
            toy_indicator(),
            deadline,
            1.0,
        );
        assert_eq!(
            alone.err(),
            Some(AdmissionError::InsufficientCapacity {
                required: u32::MAX,
                available: 20
            })
        );
        assert_eq!(plane.reserved(), 0);
        // Next to a level that fits, the overflowing one loses.
        let plain = SpeculationLevel {
            label: "off".into(),
            clone_budget: 0,
            model: Arc::new(Toy { work: 36_000.0 }),
        };
        let (_h, d) = plane
            .try_add_job_speculative("x", &[huge, plain], toy_indicator(), deadline, 1.0)
            .expect("the plain level fits");
        assert_eq!((d.level, d.total_tokens), (1, 10));
        assert_eq!(plane.reserved(), 10);
    }

    #[test]
    fn empty_levels_are_infeasible() {
        let plane = ControlPlane::new(20);
        let result = plane.try_add_job_speculative(
            "x",
            &[],
            toy_indicator(),
            SimDuration::from_mins(60),
            1.0,
        );
        assert_eq!(result.err(), Some(AdmissionError::Infeasible));
        assert_eq!(plane.reserved(), 0);
    }

    #[test]
    fn empty_levels_still_reject_a_live_duplicate() {
        let plane = ControlPlane::new(20);
        let deadline = SimDuration::from_mins(60);
        let _held = plane
            .try_add_job(
                "x",
                Arc::new(Toy { work: 36_000.0 }),
                toy_indicator(),
                deadline,
                1.0,
            )
            .unwrap();
        let result = plane.try_add_job_speculative("x", &[], toy_indicator(), deadline, 1.0);
        assert_eq!(result.err(), Some(AdmissionError::DuplicateName));
        assert_eq!(plane.reserved(), 10);
    }

    #[test]
    fn one_level_speculative_admission_is_try_add_job() {
        // Each case admits "x" on a fresh 20-token plane that may
        // already hold a 15-token "x" or "other": fits, fits exactly,
        // no capacity, infeasible, duplicate, and duplicate with an
        // infeasible deadline (the duplicate check comes first).
        let deadline = SimDuration::from_mins(60);
        let cases: [(Option<&str>, f64); 6] = [
            (None, 36_000.0),
            (None, 72_000.0),
            (Some("other"), 36_000.0),
            (None, 1e9),
            (Some("x"), 3_600.0),
            (Some("x"), 1e9),
        ];
        for (held, work) in cases {
            let fresh = |held: Option<&str>| {
                let plane = ControlPlane::new(20);
                let holder = held.map(|name| {
                    plane
                        .try_add_job(
                            name,
                            Arc::new(Toy { work: 54_000.0 }),
                            toy_indicator(),
                            deadline,
                            1.0,
                        )
                        .unwrap()
                });
                (plane, holder)
            };
            let (one_d, _h1) = fresh(held);
            let plain =
                one_d.try_add_job("x", Arc::new(Toy { work }), toy_indicator(), deadline, 1.0);
            let (two_d, _h2) = fresh(held);
            let level = [SpeculationLevel {
                label: "off".into(),
                clone_budget: 0,
                model: Arc::new(Toy { work }),
            }];
            let spec = two_d.try_add_job_speculative("x", &level, toy_indicator(), deadline, 1.0);
            let case = format!("held={held:?} work={work}");
            match (&plain, &spec) {
                (Ok(_), Ok((_, d))) => {
                    assert_eq!(d.level, 0, "{case}");
                    assert_eq!(d.total_tokens, d.allocation, "{case}");
                    assert_eq!(two_d.reserved(), d.total_tokens, "{case}");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{case}"),
                _ => panic!("admissions disagree: {case}"),
            }
            assert_eq!(one_d.reserved(), two_d.reserved(), "{case}");
            assert_eq!(one_d.stats(), two_d.stats(), "{case}");
        }
    }

    #[test]
    fn registered_model_stats_surface_in_plane_stats() {
        let plane = ControlPlane::new(8);
        let a = ModelLifecycleStats::shared();
        let b = ModelLifecycleStats::shared();
        plane.register_model_stats(a.clone());
        plane.register_model_stats(b.clone());
        a.generations_swapped.fetch_add(3, Ordering::Relaxed);
        a.drift_detections.fetch_add(1, Ordering::Relaxed);
        b.generations_swapped.fetch_add(2, Ordering::Relaxed);
        b.prior_hits.fetch_add(4, Ordering::Relaxed);
        b.prior_misses.fetch_add(5, Ordering::Relaxed);
        let s = plane.stats();
        assert_eq!(s.model_generations_swapped, 5);
        assert_eq!(s.drift_detections, 1);
        assert_eq!(s.prior_hits, 4);
        assert_eq!(s.prior_misses, 5);
        // The plane's own counters are untouched by registration.
        assert_eq!(s.ticks, 0);
        assert_eq!(s.refreshes, 0);
    }

    #[test]
    fn plane_managed_jobs_share_a_cluster_budget() {
        // End-to-end: two trained jobs run concurrently in ClusterSim
        // under one plane.
        let trained_job = |seed: u64| {
            let mut b = JobGraphBuilder::new(format!("plane-{seed}"));
            let m = b.stage("map", 24);
            let r = b.stage("reduce", 2);
            b.edge(m, r, EdgeKind::AllToAll);
            let graph = Arc::new(b.build().unwrap());
            let spec = JobSpec::uniform(graph.clone(), Constant(20.0), Constant(0.5), 0.0);
            let mut sim = ClusterSim::new(ClusterConfig::dedicated(6), seed);
            sim.add_job(spec, Box::new(FixedAllocation(6)));
            (graph.clone(), sim.run_single().profile)
        };
        let (g1, p1) = trained_job(1);
        let (g2, p2) = trained_job(2);
        let ctx1 = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &g1, &p1, None);
        let ctx2 = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &g2, &p2, None);
        let cfg = TrainConfig::fast(vec![1, 2, 4, 8, 12]);
        let m1 = Arc::new(CpaModel::train(&g1, &p1, &ctx1, &cfg, 3));
        let m2 = Arc::new(CpaModel::train(&g2, &p2, &ctx2, &cfg, 4));
        let d1 = SimDuration::from_secs_f64(m1.fresh_latency(12) * 1.6);
        let d2 = SimDuration::from_secs_f64(m2.fresh_latency(12) * 5.0);

        let plane = ControlPlane::new(12);
        let c1 = plane.add_job(
            m1.clone() as Arc<dyn CompletionModel>,
            ctx1,
            UtilityFunction::deadline(d1),
            1.2,
        );
        let c2 = plane.add_job(
            m2.clone() as Arc<dyn CompletionModel>,
            ctx2,
            UtilityFunction::deadline(d2),
            1.2,
        );
        let mut cluster = ClusterConfig::dedicated(12);
        cluster.max_guarantee = 12;
        cluster.control_period = SimDuration::from_secs(15);
        let mut sim = ClusterSim::new(cluster, 9);
        let i1 = sim.add_job(JobSpec::from_profile(g1.clone(), &p1), Box::new(c1));
        let i2 = sim.add_job(JobSpec::from_profile(g2.clone(), &p2), Box::new(c2));
        let results = sim.run();
        let l1 = results[i1].duration().expect("job 1 finished");
        let l2 = results[i2].duration().expect("job 2 finished");
        assert!(l1 <= d1, "tight job missed: {l1:?} vs {d1:?}");
        assert!(l2 <= d2, "loose job missed: {l2:?} vs {d2:?}");
        // The tight job got the larger share while both ran.
        assert!(
            results[i1].trace.median_guarantee() >= results[i2].trace.median_guarantee(),
            "tight {} vs loose {}",
            results[i1].trace.median_guarantee(),
            results[i2].trace.median_guarantee()
        );
        // Combined medians stay within the plane's budget.
        assert!(
            results[i1].trace.median_guarantee() + results[i2].trace.median_guarantee()
                <= 12.0 + 1e-9
        );
    }
}
