//! The `C(p, a)` completion-time model, its offline training pipeline
//! (§4.1), and the online absorb path that keeps trained models alive.
//!
//! `C(p, a)` is a random variable: the remaining time to complete the
//! job when it has made progress `p` and holds `a` tokens. The paper
//! estimates its distribution by *repeatedly simulating the job* at
//! each allocation in a grid: a run at allocation `a` finishing at time
//! `T` contributes, for every sampled instant `t`, one observation
//! `(p_t, T − t)`. At runtime the control loop only queries the
//! precomputed table, so no simulation happens on the critical path.
//!
//! Because "we care about the worst-case completion time" (§5.3), the
//! model answers queries at a configurable high percentile (default
//! p95) of the samples in a cell, interpolating linearly between grid
//! allocations. This built-in pessimism is what lets Jockey
//! "over-allocate resources at the start to compensate for potential
//! future failures" (§1).
//!
//! # Living models
//!
//! Each `(allocation, bin)` cell is a mergeable
//! [`CellSketch`], so a completed run folds
//! into the model with [`CpaModel::absorb`] at the cost of the cells it
//! lands in and their table rows — no retraining. With the default
//! `sketch_capacity: None` the sketches are *exact* (plain sorted
//! sample lists) and the model is byte-identical to the pre-sketch
//! format; a bounded capacity trades memory for the sketch's documented
//! rank-error bound.
//! [`CpaModel::train`] itself is a thin wrapper that harvests
//! simulation runs and absorbs them into an empty model.

use std::fmt;
use std::sync::Arc;

use jockey_cluster::{
    ClusterConfig, ClusterSim, FixedAllocation, JobSpec, RunHooks, RunTrace, SimWorkspace,
};
use jockey_jobgraph::graph::JobGraph;
use jockey_jobgraph::profile::JobProfile;
use jockey_simrt::observe::ProgressSink;
use jockey_simrt::rng::SeedDeriver;
use jockey_simrt::time::{SimDuration, SimTime};

use crate::predict::{min_feasible_allocation, CompletionModel};
use crate::progress::IndicatorContext;
use crate::sketch::{CellSketch, MIN_SKETCH_CAPACITY};

/// Offline training configuration.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Token allocations to simulate (ascending).
    pub allocations: Vec<u32>,
    /// Independent simulated runs per allocation.
    pub runs_per_allocation: usize,
    /// How often progress is sampled during each simulated run.
    pub sample_period: SimDuration,
    /// Number of progress buckets in `[0, 1]`.
    pub progress_bins: usize,
    /// Percentile (0–100) reported by queries; high values encode the
    /// paper's worst-case pessimism.
    pub percentile: f64,
    /// Simulation horizon per training run.
    pub max_sim_time: SimTime,
    /// Worker threads for training; `None` (the default) uses one per
    /// allocation. The trained model is identical for any value — RNG
    /// streams derive from grid position, never from thread scheduling.
    pub threads: Option<usize>,
    /// Per-cell quantile-sketch capacity. `None` (the default) keeps
    /// every sample — cells are exact sorted lists and the model is
    /// byte-identical to the pre-sketch format. `Some(k)` bounds each
    /// sketch level at `k` items, trading memory for the tracked
    /// rank-error bound documented on
    /// [`CellSketch`].
    pub sketch_capacity: Option<usize>,
    /// Optional physical topology for the training simulations. `None`
    /// (the default) trains against the legacy flat dedicated cluster;
    /// `Some` trains C(p, a) against the same racks × machine-classes
    /// geometry the evaluation scenario runs on, so the model's
    /// percentiles absorb locality penalties and slow-machine classes.
    pub topology: Option<jockey_cluster::TopologyConfig>,
    /// Optional speculative-execution (clone-on-slow) configuration for
    /// the training simulations. `None` (the default) trains the legacy
    /// `C(p, a)` surface bit-identically; `Some` trains one `C(p, a, s)`
    /// surface — each allocation `a` simulates with `clone_budget` idle
    /// tokens held aside for clones, so the learned completion times
    /// reflect the cloning policy *and* the total reserved footprint
    /// `a + clone_budget` speculative admission reserves.
    pub speculation: Option<jockey_cluster::SpeculationConfig>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        // The grid reaches down to single tokens: the control loop
        // releases resources toward the *minimum* utility-maximizing
        // allocation, so the model must know how slow the job's tail
        // really is at tiny allocations.
        TrainConfig {
            allocations: [1, 2, 5]
                .into_iter()
                .chain((1..=10).map(|i| i * 10))
                .collect(),
            runs_per_allocation: 10,
            sample_period: SimDuration::from_secs(30),
            progress_bins: 100,
            percentile: 95.0,
            max_sim_time: SimTime::from_mins(24 * 60),
            threads: None,
            sketch_capacity: None,
            topology: None,
            speculation: None,
        }
    }
}

impl TrainConfig {
    /// A cheap configuration for tests: few allocations, few runs.
    /// Include small allocations so release decisions stay informed.
    pub fn fast(allocations: Vec<u32>) -> Self {
        TrainConfig {
            allocations,
            runs_per_allocation: 4,
            sample_period: SimDuration::from_secs(15),
            progress_bins: 50,
            percentile: 90.0,
            max_sim_time: SimTime::from_mins(12 * 60),
            threads: None,
            sketch_capacity: None,
            topology: None,
            speculation: None,
        }
    }

    /// Validates the configuration, returning the first problem found.
    /// NaN percentiles are rejected (`contains` on a float range is
    /// already NaN-safe; finiteness is still checked explicitly so the
    /// intent survives refactoring).
    pub fn check(&self) -> Result<(), InvalidTrainConfig> {
        if self.allocations.is_empty()
            || self.allocations[0] < 1
            || !self.allocations.windows(2).all(|w| w[0] < w[1])
        {
            return Err(InvalidTrainConfig::Allocations);
        }
        if self.runs_per_allocation < 1 {
            return Err(InvalidTrainConfig::Runs);
        }
        if self.progress_bins < 2 {
            return Err(InvalidTrainConfig::Bins(self.progress_bins));
        }
        if !self.percentile.is_finite() || !(50.0..=100.0).contains(&self.percentile) {
            return Err(InvalidTrainConfig::Percentile(self.percentile));
        }
        if self.sample_period.is_zero() {
            return Err(InvalidTrainConfig::SamplePeriod);
        }
        if let Some(k) = self.sketch_capacity {
            if k < MIN_SKETCH_CAPACITY {
                return Err(InvalidTrainConfig::SketchCapacity(k));
            }
        }
        Ok(())
    }

    fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("invalid train config: {e}");
        }
    }
}

/// Why a [`TrainConfig`] was rejected by [`TrainConfig::check`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InvalidTrainConfig {
    /// The allocation grid is empty, starts below 1, or is not strictly
    /// ascending.
    Allocations,
    /// `runs_per_allocation` must be `>= 1`.
    Runs,
    /// `progress_bins` must be `>= 2`.
    Bins(usize),
    /// `percentile` must be a finite value in `[50, 100]` (NaN is
    /// rejected explicitly).
    Percentile(f64),
    /// `sample_period` must be positive.
    SamplePeriod,
    /// `sketch_capacity` must be at least
    /// [`MIN_SKETCH_CAPACITY`].
    SketchCapacity(usize),
}

impl fmt::Display for InvalidTrainConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidTrainConfig::Allocations => {
                write!(
                    f,
                    "allocation grid must be non-empty, >= 1 and strictly ascending"
                )
            }
            InvalidTrainConfig::Runs => write!(f, "runs_per_allocation must be >= 1"),
            InvalidTrainConfig::Bins(v) => write!(f, "progress_bins must be >= 2, got {v}"),
            InvalidTrainConfig::Percentile(v) => {
                write!(f, "percentile must be a finite value in [50, 100], got {v}")
            }
            InvalidTrainConfig::SamplePeriod => write!(f, "sample_period must be positive"),
            InvalidTrainConfig::SketchCapacity(v) => {
                write!(
                    f,
                    "sketch_capacity must be >= {MIN_SKETCH_CAPACITY}, got {v}"
                )
            }
        }
    }
}

impl std::error::Error for InvalidTrainConfig {}

/// Default training worker count when [`TrainConfig::threads`] is
/// `None`: the machine's available parallelism. Training results are
/// byte-identical for any thread count, so this only tunes wall-clock
/// time — on a 1-core machine it keeps the sharded loops inline
/// instead of paying spawn/join overhead for no concurrency.
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps progress `p` (clamped to `[0, 1]`) onto one of `bins` buckets.
/// Shared by model queries and training-time bucketing so the two can
/// never drift apart.
fn progress_bin(p: f64, bins: usize) -> usize {
    (((p.clamp(0.0, 1.0)) * bins as f64) as usize).min(bins - 1)
}

/// Maps `v` to an integer whose unsigned order is `f64::total_cmp`'s
/// order on the floats; [`from_total_order_bits`] inverts it exactly.
fn total_order_bits(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The inverse of [`total_order_bits`].
fn from_total_order_bits(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// Linear interpolation between two grid values, repairing the
/// `inf − inf` case that arises when vacant (sample-free) rows sit
/// next to the query. Finite inputs keep the exact historical
/// expression `va + (vb − va) * w`, bit for bit; only answers the
/// straight-line formula turns into NaN are resolved — by the weight's
/// endpoint when it lands on one, and pessimistically (`INFINITY`)
/// strictly between.
fn lerp_grid(va: f64, vb: f64, w: f64) -> f64 {
    let v = va + (vb - va) * w;
    if !v.is_nan() || va.is_nan() || vb.is_nan() {
        return v;
    }
    if w >= 1.0 {
        vb
    } else if w <= 0.0 {
        va
    } else {
        f64::INFINITY
    }
}

/// One runtime observation fed back into the model: at `elapsed_secs`
/// since job start the job had made `progress` while holding
/// `allocation` tokens. A completed run's observations become
/// remaining-time samples `(total − elapsed).max(0)` exactly as
/// training-time harvesting does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunObservation {
    /// Seconds since the job started.
    pub elapsed_secs: f64,
    /// Progress-indicator value in `[0, 1]` at that instant.
    pub progress: f64,
    /// Tokens held at that instant (snapped to the nearest grid point).
    pub allocation: u32,
}

/// A borrowed [`ProgressSink`] that folds each control-tick snapshot
/// straight into `(elapsed, progress)` pairs — the instrumentation used
/// to harvest `C(p, a)` samples from training runs, with no per-sample
/// stage-fraction clone and no lock.
struct SampleCollector<'a> {
    indicator: &'a IndicatorContext,
    samples: &'a mut Vec<(f64, f64)>,
}

impl ProgressSink for SampleCollector<'_> {
    fn sample(&mut self, _job: usize, elapsed_secs: f64, stage_fraction: &[f64]) {
        self.samples
            .push((elapsed_secs, self.indicator.progress(stage_fraction)));
    }
}

/// The samples harvested from one simulated training run.
struct RunHarvest {
    /// `(elapsed_secs, progress)` pairs at each control tick.
    samples: Vec<(f64, f64)>,
    /// Completion time, horizon-censored for runs that never finished.
    total_secs: f64,
    /// Whether the run actually completed within the horizon.
    completed: bool,
}

/// The trained `C(p, a)` table.
#[derive(Clone, Debug)]
#[cfg_attr(test, derive(PartialEq))]
pub struct CpaModel {
    allocations: Vec<u32>,
    bins: usize,
    percentile: f64,
    /// Per-level sketch capacity shared by every cell (`None` = exact).
    sketch_k: Option<usize>,
    /// `cells[alloc_idx][bin]`: a mergeable quantile sketch over the
    /// remaining-time samples. Exact (a plain sorted list) unless a
    /// `sketch_capacity` was configured. Each allocation's row is
    /// shared copy-on-write, so cloning the model (a published online
    /// snapshot) copies row pointers, and an absorb deep-copies only
    /// the rows it writes that a snapshot still holds.
    cells: Vec<Arc<Vec<CellSketch>>>,
    /// Dense `allocations.len() x bins` lookup table: the configured
    /// percentile of each `(allocation, bin)` cell, with the outward
    /// empty-cell fallback already resolved. [`CpaModel::remaining`] —
    /// the per-controller-tick query — reads this instead of
    /// recomputing the percentile over raw samples. Raw `cells` are
    /// retained for explicit-percentile queries, absorption, and
    /// serialization.
    table: Vec<f64>,
    /// Whether the fresh-latency column (`table[·][bin_of(0)]`) is
    /// non-increasing in allocation. When it is — the overwhelmingly
    /// common case, since more tokens never slow a job — feasibility
    /// sizing binary-searches the allocation range; a noisy
    /// non-monotone table falls back to the exhaustive scan.
    fresh_monotone: bool,
}

impl CpaModel {
    /// An empty (sample-free) model with `cfg`'s shape: the starting
    /// point for purely online accumulation via [`CpaModel::absorb`].
    /// Every query on it answers `INFINITY` until samples arrive.
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`TrainConfig`].
    pub fn empty(cfg: &TrainConfig) -> Self {
        let mut model = Self::empty_unbuilt(cfg);
        model.build_table();
        model
    }

    /// [`CpaModel::empty`] without the initial table build. Private to
    /// the training paths, which absorb every harvested sample and
    /// *then* build the table once — the all-empty table (150 cells,
    /// each running the full outward fallback scan) would be thrown
    /// away unread.
    fn empty_unbuilt(cfg: &TrainConfig) -> Self {
        cfg.validate();
        CpaModel {
            allocations: cfg.allocations.clone(),
            bins: cfg.progress_bins,
            percentile: cfg.percentile,
            sketch_k: cfg.sketch_capacity,
            cells: vacant_rows(
                cfg.allocations.len(),
                cfg.progress_bins,
                cfg.sketch_capacity,
            ),
            table: Vec::new(),
            fresh_monotone: false,
        }
    }

    /// A sample-free model with the same shape (grid, bins, percentile,
    /// sketch capacity) as `self` — the seed for drift-triggered
    /// retraining from a retained run window.
    pub fn vacant_copy(&self) -> Self {
        let mut model = CpaModel {
            allocations: self.allocations.clone(),
            bins: self.bins,
            percentile: self.percentile,
            sketch_k: self.sketch_k,
            cells: vacant_rows(self.allocations.len(), self.bins, self.sketch_k),
            table: Vec::new(),
            fresh_monotone: false,
        };
        model.build_table();
        model
    }

    /// Trains the model by simulating `profile` (replayed through
    /// `spec`'s graph) at every allocation in the grid, indexing
    /// progress with `indicator`.
    ///
    /// Training is deterministic in `seed` and parallelized across the
    /// allocation grid. It is a thin wrapper over the online path: the
    /// harvested runs are absorbed, one by one, into an empty model —
    /// with the default exact sketches this reproduces the historical
    /// trained bytes bit-for-bit, and with a bounded `sketch_capacity`
    /// it matches within the sketch's documented rank-error bound.
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`TrainConfig`].
    pub fn train(
        graph: &Arc<JobGraph>,
        profile: &JobProfile,
        indicator: &IndicatorContext,
        cfg: &TrainConfig,
        seed: u64,
    ) -> Self {
        cfg.validate();
        let seeds = SeedDeriver::new(seed).child("cpa-train");
        let spec = Arc::new(JobSpec::from_profile(graph.clone(), profile));

        // The grid is sharded into contiguous chunks, one worker thread
        // per chunk, each reusing a single SimWorkspace across all its
        // runs. Every shard's RNG seeds derive from (allocation index,
        // run index), so the trained cells are byte-identical for any
        // thread count — including the single-shard case, which runs
        // inline to spare a 1-core machine the spawn/join jitter.
        let n = cfg.allocations.len();
        let threads = cfg
            .threads
            .unwrap_or_else(default_threads)
            .clamp(1, n.max(1));
        let chunk = n.div_ceil(threads);
        let mut harvests: Vec<Vec<RunHarvest>> = Vec::new();
        harvests.resize_with(n, Vec::new);
        let shard = |ci: usize, chunk_harvests: &mut [Vec<RunHarvest>]| {
            let mut ws = SimWorkspace::new();
            for (k, harvest) in chunk_harvests.iter_mut().enumerate() {
                let ai = ci * chunk + k;
                *harvest = train_one_allocation(
                    &spec,
                    indicator,
                    cfg.allocations[ai],
                    cfg,
                    seeds.child_indexed("alloc", ai as u64),
                    &mut ws,
                );
            }
        };
        if threads == 1 {
            shard(0, &mut harvests);
        } else {
            std::thread::scope(|scope| {
                for (ci, chunk_harvests) in harvests.chunks_mut(chunk).enumerate() {
                    let shard = &shard;
                    scope.spawn(move || shard(ci, chunk_harvests));
                }
            });
        }

        // Absorb every harvested run, in grid-then-run order, into an
        // empty model. Deterministic and thread-count independent: the
        // per-cell sample multiset does not depend on absorb order, and
        // sorted merges keep each exact cell identical to a one-shot
        // concat-then-sort of the same samples.
        let mut model = CpaModel::empty_unbuilt(cfg);
        let mut obs: Vec<RunObservation> = Vec::new();
        for (ai, runs) in harvests.iter().enumerate() {
            let allocation = cfg.allocations[ai];
            for run in runs {
                obs.clear();
                obs.extend(run.samples.iter().map(|&(t, p)| RunObservation {
                    elapsed_secs: t,
                    progress: p,
                    allocation,
                }));
                let completed_alloc = run.completed.then_some(allocation);
                model.fold_run(&obs, run.total_secs, completed_alloc, None);
            }
        }
        model.build_table();
        model
    }

    /// Folds one completed (or horizon-censored) run's observations
    /// into the sketches of the cells they land in and rebuilds those
    /// cells' query-table rows. Returns the number of samples added.
    ///
    /// This is the online counterpart of one training run: each
    /// observation contributes `(total_secs − elapsed).max(0)` to the
    /// cell at its progress bin and nearest grid allocation, and a
    /// completed run additionally contributes a zero-remaining sample
    /// at full progress.
    pub fn absorb_observations(
        &mut self,
        obs: &[RunObservation],
        total_secs: f64,
        completed: bool,
    ) -> usize {
        self.absorb_runs([(obs, total_secs, completed)])
    }

    /// Folds a batch of `(observations, total_secs, completed)` runs,
    /// one after another exactly as repeated
    /// [`CpaModel::absorb_observations`] calls would, but rebuilds each
    /// touched table row once at the end instead of once per run. The
    /// cells and table come out identical to the one-by-one absorb.
    /// Returns the number of samples added.
    pub(crate) fn absorb_runs<'a>(
        &mut self,
        runs: impl IntoIterator<Item = (&'a [RunObservation], f64, bool)>,
    ) -> usize {
        let mut dirty = vec![false; self.allocations.len()];
        let mut added = 0;
        for (obs, total_secs, completed) in runs {
            let completed_alloc = if completed {
                obs.last().map(|o| o.allocation)
            } else {
                None
            };
            added += self.fold_run(obs, total_secs, completed_alloc, Some(&mut dirty));
        }
        self.rebuild_rows(&dirty);
        added
    }

    /// Folds one recorded run trace into the model (see
    /// [`CpaModel::absorb_observations`]). Elapsed times are measured
    /// from the trace's first guarantee point (the admission tick);
    /// the allocation paired with each progress point is the applied
    /// guarantee at that instant. Returns the number of samples added
    /// (0 for traces with no progress points).
    pub fn absorb(&mut self, trace: &RunTrace, total_secs: f64, completed: bool) -> usize {
        let start = trace
            .guarantee
            .points()
            .first()
            .map_or(SimTime::ZERO, |&(at, _)| at);
        let obs: Vec<RunObservation> = trace
            .progress
            .points()
            .iter()
            .filter_map(|&(at, p)| {
                let tokens = trace.guarantee.value_at(at)?;
                Some(RunObservation {
                    elapsed_secs: at.saturating_since(start).as_secs_f64(),
                    progress: p,
                    allocation: tokens as u32,
                })
            })
            .collect();
        self.absorb_observations(&obs, total_secs, completed)
    }

    /// Shared absorb core: stages samples per cell, merges each staged
    /// batch into its sketch, and marks touched allocations dirty.
    /// Does *not* rebuild the query table — callers either rebuild the
    /// dirty rows (online absorb) or the whole table once (training).
    fn fold_run(
        &mut self,
        obs: &[RunObservation],
        total_secs: f64,
        completed_alloc: Option<u32>,
        dirty: Option<&mut Vec<bool>>,
    ) -> usize {
        // Stage every sample as one integer, the row-major cell index
        // above the value's `total_cmp` order, and sort once: each
        // cell's batch comes out contiguous and ascending, and cells are
        // visited in the same ascending `(allocation, bin)` order a
        // keyed map would yield — so the sketches absorb byte-identical
        // batches, without a map node and a vector allocation per
        // touched cell, and the sort compares plain integers.
        let stage = |ai: usize, bin: usize, remaining: f64| {
            (((ai * self.bins + bin) as u128) << 64) | u128::from(total_order_bits(remaining))
        };
        let mut staged: Vec<u128> = Vec::with_capacity(obs.len() + 1);
        staged.extend(obs.iter().map(|o| {
            let ai = self.grid_index_nearest(o.allocation);
            let bin = progress_bin(o.progress, self.bins);
            stage(ai, bin, (total_secs - o.elapsed_secs).max(0.0))
        }));
        // Completion itself: zero remaining at full progress (only for
        // runs that actually completed).
        if let Some(a) = completed_alloc {
            let ai = self.grid_index_nearest(a);
            staged.push(stage(ai, self.bins - 1, 0.0));
        }
        staged.sort_unstable();
        let added = staged.len();
        self.absorb_staged(&staged, dirty);
        added
    }

    /// Walks a sorted staging buffer (see [`CpaModel::fold_run`]) and
    /// merges each cell's contiguous, already ascending batch into its
    /// sketch.
    fn absorb_staged(&mut self, staged: &[u128], mut dirty: Option<&mut Vec<bool>>) {
        let mut batch: Vec<f64> = Vec::new();
        let mut i = 0;
        while i < staged.len() {
            let cell = (staged[i] >> 64) as usize;
            let end = staged[i..]
                .iter()
                .position(|&e| (e >> 64) as usize != cell)
                .map_or(staged.len(), |p| i + p);
            batch.clear();
            batch.extend(
                staged[i..end]
                    .iter()
                    .map(|&e| from_total_order_bits(e as u64)),
            );
            let (ai, bin) = (cell / self.bins, cell % self.bins);
            Arc::make_mut(&mut self.cells[ai])[bin].extend_sorted(&batch);
            if let Some(d) = dirty.as_deref_mut() {
                d[ai] = true;
            }
            i = end;
        }
    }

    /// The grid index nearest to `allocation` (lower index wins ties).
    fn grid_index_nearest(&self, allocation: u32) -> usize {
        let grid = &self.allocations;
        let hi = grid.partition_point(|&g| g < allocation);
        if hi == 0 {
            return 0;
        }
        if hi == grid.len() {
            return grid.len() - 1;
        }
        if allocation - grid[hi - 1] <= grid[hi] - allocation {
            hi - 1
        } else {
            hi
        }
    }

    /// Precomputes the dense query table from the raw cells: one
    /// configured-percentile value per `(allocation, bin)`, identical to
    /// what the outward-scanning [`CpaModel::remaining_at_grid`] path
    /// returns (including the all-empty-allocation `INFINITY` case), so
    /// `remaining()` is a load + interpolation per tick.
    fn build_table(&mut self) {
        let mut table = Vec::with_capacity(self.allocations.len() * self.bins);
        for ai in 0..self.allocations.len() {
            for bin in 0..self.bins {
                table.push(self.remaining_at_grid(ai, bin, self.percentile));
            }
        }
        self.table = table;
        self.check_fresh_monotone();
    }

    /// Recomputes the table rows of the dirty allocations and
    /// re-derives the monotone flag. One new sample can change *every*
    /// bin of its allocation's row — the outward empty-cell fallback
    /// scans the whole row — so the incremental unit is a row, never a
    /// single cell; rows never read other allocations' cells, so clean
    /// rows keep their exact bytes.
    fn rebuild_rows(&mut self, dirty: &[bool]) {
        debug_assert_eq!(dirty.len(), self.allocations.len());
        let mut row = Vec::with_capacity(self.bins);
        for (ai, &is_dirty) in dirty.iter().enumerate() {
            if !is_dirty {
                continue;
            }
            row.clear();
            row.extend((0..self.bins).map(|bin| self.remaining_at_grid(ai, bin, self.percentile)));
            self.table[ai * self.bins..(ai + 1) * self.bins].copy_from_slice(&row);
        }
        self.check_fresh_monotone();
    }

    /// Re-derives [`CpaModel::fresh_monotone`] from the dense table.
    fn check_fresh_monotone(&mut self) {
        let bin0 = self.bin_of(0.0);
        self.fresh_monotone = (1..self.allocations.len()).all(|ai| {
            let (prev, cur) = (
                self.table[(ai - 1) * self.bins + bin0],
                self.table[ai * self.bins + bin0],
            );
            // NaN anywhere in the column disqualifies the fast path.
            prev >= cur
        });
    }

    /// A copy that shares no cell row with `self`, so a later write to
    /// either cannot show through in the other.
    #[cfg(test)]
    pub(crate) fn deep_clone(&self) -> CpaModel {
        CpaModel {
            cells: self
                .cells
                .iter()
                .map(|row| Arc::new(Vec::clone(row)))
                .collect(),
            ..self.clone()
        }
    }

    /// The allocation grid the model was trained on.
    pub fn allocations(&self) -> &[u32] {
        &self.allocations
    }

    /// The percentile used by [`CpaModel::remaining`] queries.
    pub fn percentile(&self) -> f64 {
        self.percentile
    }

    /// The per-cell sketch capacity (`None` = exact cells).
    pub fn sketch_capacity(&self) -> Option<usize> {
        self.sketch_k
    }

    /// Total number of represented samples (diagnostics). Bounded
    /// sketches represent more samples than they store — see
    /// [`CpaModel::stored_item_count`].
    pub fn sample_count(&self) -> usize {
        self.cells
            .iter()
            .flat_map(|a| a.iter().map(|c| c.count() as usize))
            .sum()
    }

    /// Number of items physically stored across all sketches — the
    /// model's memory footprint, which a bounded `sketch_capacity`
    /// keeps from growing linearly with absorbed runs.
    pub fn stored_item_count(&self) -> usize {
        self.cells
            .iter()
            .flat_map(|a| a.iter().map(CellSketch::item_count))
            .sum()
    }

    /// The summed worst-case rank error across all cells (diagnostics);
    /// zero for exact models.
    pub fn rank_error_bound(&self) -> u64 {
        self.cells
            .iter()
            .flat_map(|a| a.iter().map(CellSketch::rank_error_bound))
            .sum()
    }

    fn bin_of(&self, p: f64) -> usize {
        progress_bin(p, self.bins)
    }

    /// The remaining-time estimate at a single grid allocation index,
    /// searching outward from the progress bin for the nearest
    /// non-empty cell.
    fn remaining_at_grid(&self, ai: usize, bin: usize, percentile: f64) -> f64 {
        let cells = &self.cells[ai];
        // Search outward: prefer the queried bin, then neighbors.
        for d in 0..self.bins {
            let candidates = [
                bin.checked_sub(d),
                bin.checked_add(d).filter(|&b| b < self.bins),
            ];
            for b in candidates.into_iter().flatten() {
                if !cells[b].is_empty() {
                    return cells[b].quantile(percentile);
                }
            }
        }
        // No samples at this allocation at all: treat it as unusably
        // slow, never as instantaneous.
        f64::INFINITY
    }

    /// `C(p, a)` at the model's configured percentile, linearly
    /// interpolated between grid allocations and clamped to the grid's
    /// endpoints outside it.
    ///
    /// This is the control loop's per-tick query: it reads the
    /// precomputed percentile table (one value per grid cell, empty-cell
    /// fallback already folded in) instead of re-running the percentile
    /// computation over raw samples. Answers are bit-identical to
    /// [`CpaModel::remaining_percentile`] at the configured percentile.
    pub fn remaining(&self, progress: f64, allocation: u32) -> f64 {
        let bin = self.bin_of(progress);
        let at = |ai: usize| self.table[ai * self.bins + bin];
        let grid = &self.allocations;
        if allocation <= grid[0] {
            return at(0);
        }
        if allocation >= *grid.last().expect("non-empty grid") {
            return at(grid.len() - 1);
        }
        // Find surrounding grid points.
        let hi = grid.partition_point(|&g| g < allocation);
        let lo = hi - 1;
        let (ga, gb) = (grid[lo], grid[hi]);
        if ga == allocation {
            return at(lo);
        }
        let (va, vb) = (at(lo), at(hi));
        let w = f64::from(allocation - ga) / f64::from(gb - ga);
        lerp_grid(va, vb, w)
    }

    /// `C(p, a)` at an explicit percentile.
    ///
    /// # Panics
    ///
    /// Panics if `percentile` is outside `[0, 100]`.
    pub fn remaining_percentile(&self, progress: f64, allocation: u32, percentile: f64) -> f64 {
        assert!((0.0..=100.0).contains(&percentile));
        let bin = self.bin_of(progress);
        let grid = &self.allocations;
        if allocation <= grid[0] {
            return self.remaining_at_grid(0, bin, percentile);
        }
        if allocation >= *grid.last().expect("non-empty grid") {
            return self.remaining_at_grid(grid.len() - 1, bin, percentile);
        }
        // Find surrounding grid points.
        let hi = grid.partition_point(|&g| g < allocation);
        let lo = hi - 1;
        let (ga, gb) = (grid[lo], grid[hi]);
        if ga == allocation {
            return self.remaining_at_grid(lo, bin, percentile);
        }
        let va = self.remaining_at_grid(lo, bin, percentile);
        let vb = self.remaining_at_grid(hi, bin, percentile);
        let w = f64::from(allocation - ga) / f64::from(gb - ga);
        lerp_grid(va, vb, w)
    }

    /// Estimated full-job latency at allocation `a` (progress 0) — the
    /// quantity used for a-priori sizing and feasibility checks.
    pub fn fresh_latency(&self, allocation: u32) -> f64 {
        self.remaining(0.0, allocation)
    }

    /// The smallest allocation whose (pessimistic) fresh latency with
    /// multiplier `slack` meets `deadline`, if any does.
    ///
    /// When the fresh-latency grid is monotone (checked once at build
    /// time), this is a binary search over the allocation range —
    /// `fresh_latency` is a piecewise-linear interpolation of the grid
    /// column, so a non-increasing column makes the feasibility
    /// predicate monotone in `a`. Otherwise it falls back to the
    /// exhaustive ascending scan; both paths return identical answers
    /// on monotone tables. Shared with the generic trait default via
    /// [`min_feasible_allocation`].
    pub fn min_allocation_for_deadline(&self, deadline: SimDuration, slack: f64) -> Option<u32> {
        let d = deadline.as_secs_f64();
        let max = *self.allocations.last().expect("non-empty grid");
        min_feasible_allocation(max, self.fresh_monotone, |a| {
            self.fresh_latency(a) * slack <= d
        })
    }

    /// Serializes the trained table to a [`jockey_simrt::table::KvStore`],
    /// so models can be trained once and shipped alongside job profiles.
    ///
    /// Exact cells (the default) serialize precisely as the pre-sketch
    /// format did — one `cell.<alloc>.<bin>` sample list per non-empty
    /// cell — so frozen offline-trained models stay byte-identical.
    /// Bounded sketches additionally emit a top-level `sketch_k`, one
    /// `cell.<alloc>.<bin>.l<i>` list per non-empty upper level, and a
    /// `cell.<alloc>.<bin>.c` compaction-counter list per compacted
    /// cell, which is everything needed to resume absorbing.
    pub fn to_kv(&self) -> jockey_simrt::table::KvStore {
        let mut kv = jockey_simrt::table::KvStore::new();
        kv.set_u64("bins", self.bins as u64);
        kv.set_f64("percentile", self.percentile);
        kv.set_f64_list(
            "allocations",
            &self
                .allocations
                .iter()
                .map(|&a| f64::from(a))
                .collect::<Vec<_>>(),
        );
        if let Some(k) = self.sketch_k {
            kv.set_u64("sketch_k", k as u64);
        }
        for (ai, alloc_cells) in self.cells.iter().enumerate() {
            for (bin, cell) in alloc_cells.iter().enumerate() {
                let levels = cell.levels();
                if !levels[0].is_empty() {
                    kv.set_f64_list(&format!("cell.{ai}.{bin}"), &levels[0]);
                }
                for (li, level) in levels.iter().enumerate().skip(1) {
                    if !level.is_empty() {
                        kv.set_f64_list(&format!("cell.{ai}.{bin}.l{li}"), level);
                    }
                }
                if cell.compactions().iter().any(|&c| c > 0) {
                    let comps: Vec<f64> = cell.compactions().iter().map(|&c| c as f64).collect();
                    kv.set_f64_list(&format!("cell.{ai}.{bin}.c"), &comps);
                }
            }
        }
        kv
    }

    /// Deserializes a table written by [`CpaModel::to_kv`].
    pub fn from_kv(kv: &jockey_simrt::table::KvStore) -> Result<CpaModel, ModelLoadError> {
        let bins = kv
            .get_u64("bins")
            .ok_or(ModelLoadError::MissingKey("bins"))? as usize;
        let percentile = kv
            .get_f64("percentile")
            .ok_or(ModelLoadError::MissingKey("percentile"))?;
        let allocations: Vec<u32> = kv
            .get_f64_list("allocations")
            .ok_or(ModelLoadError::MissingKey("allocations"))?
            .into_iter()
            .map(|a| a as u32)
            .collect();
        if bins == 0 || allocations.is_empty() {
            return Err(ModelLoadError::EmptyModel);
        }
        if !percentile.is_finite() || !(0.0..=100.0).contains(&percentile) {
            return Err(ModelLoadError::BadPercentile(percentile));
        }
        let sketch_k = match kv.get_u64("sketch_k") {
            Some(k) if (k as usize) < MIN_SKETCH_CAPACITY => {
                return Err(ModelLoadError::BadSketchCapacity(k));
            }
            Some(k) => Some(k as usize),
            None => None,
        };
        // Raw per-cell parts (sketch levels, per-level compaction
        // counts), grown level-by-level as keys arrive.
        type RawCell = (Vec<Vec<f64>>, Vec<u64>);
        let mut raw: Vec<Vec<RawCell>> =
            vec![vec![(vec![Vec::new()], Vec::new()); bins]; allocations.len()];
        for key in kv.keys() {
            if let Some(rest) = key.strip_prefix("cell.") {
                let bad = || ModelLoadError::BadCell(key.to_string());
                let parts: Vec<&str> = rest.split('.').collect();
                if parts.len() != 2 && parts.len() != 3 {
                    return Err(bad());
                }
                let ai: usize = parts[0].parse().map_err(|_| bad())?;
                let bin: usize = parts[1].parse().map_err(|_| bad())?;
                if ai >= allocations.len() || bin >= bins {
                    return Err(bad());
                }
                let values = kv.get_f64_list(key).ok_or_else(bad)?;
                let (levels, comps) = &mut raw[ai][bin];
                match parts.get(2) {
                    None => levels[0] = values,
                    Some(&"c") => {
                        let mut parsed = Vec::with_capacity(values.len());
                        for c in values {
                            if !(c.is_finite() && c >= 0.0 && c.fract() == 0.0) {
                                return Err(bad());
                            }
                            parsed.push(c as u64);
                        }
                        if levels.len() < parsed.len() {
                            levels.resize(parsed.len(), Vec::new());
                        }
                        *comps = parsed;
                    }
                    Some(level_key) => {
                        let li: usize = level_key
                            .strip_prefix('l')
                            .and_then(|s| s.parse().ok())
                            .filter(|&li| li >= 1)
                            .ok_or_else(bad)?;
                        if levels.len() <= li {
                            levels.resize(li + 1, Vec::new());
                        }
                        levels[li] = values;
                    }
                }
            }
        }
        let mut cells = Vec::with_capacity(allocations.len());
        for (ai, alloc_raw) in raw.into_iter().enumerate() {
            let mut alloc_cells = Vec::with_capacity(bins);
            for (bin, (levels, comps)) in alloc_raw.into_iter().enumerate() {
                let sketch = CellSketch::from_parts(sketch_k, levels, comps)
                    .ok_or_else(|| ModelLoadError::BadCell(format!("cell.{ai}.{bin}")))?;
                alloc_cells.push(sketch);
            }
            cells.push(Arc::new(alloc_cells));
        }
        let mut model = CpaModel {
            allocations,
            bins,
            percentile,
            sketch_k,
            cells,
            table: Vec::new(),
            fresh_monotone: false,
        };
        model.build_table();
        Ok(model)
    }
}

/// `allocations` sample-free rows of `bins` cells, all sharing one
/// vacant row until an absorb first writes to each.
fn vacant_rows(
    allocations: usize,
    bins: usize,
    sketch_k: Option<usize>,
) -> Vec<Arc<Vec<CellSketch>>> {
    let vacant = Arc::new(vec![CellSketch::new(sketch_k); bins]);
    vec![vacant; allocations]
}

/// Why a serialized `C(p, a)` table failed to load
/// ([`CpaModel::from_kv`]).
#[derive(Clone, Debug, PartialEq)]
pub enum ModelLoadError {
    /// A required key is missing or has the wrong type.
    MissingKey(&'static str),
    /// `bins` is zero or the allocation grid is empty.
    EmptyModel,
    /// The stored `percentile` is not a finite value in `[0, 100]`.
    BadPercentile(f64),
    /// A `cell.<alloc>.<bin>[...]` key is malformed, out of range, not
    /// a float list, or inconsistent with the cell's other parts.
    BadCell(String),
    /// The stored `sketch_k` is below the supported minimum.
    BadSketchCapacity(u64),
}

impl fmt::Display for ModelLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelLoadError::MissingKey(k) => write!(f, "missing or mistyped key `{k}`"),
            ModelLoadError::EmptyModel => write!(f, "model has no bins or no allocations"),
            ModelLoadError::BadPercentile(v) => {
                write!(f, "percentile must be a finite value in [0, 100], got {v}")
            }
            ModelLoadError::BadCell(k) => write!(f, "malformed cell key `{k}`"),
            ModelLoadError::BadSketchCapacity(v) => {
                write!(f, "sketch_k must be >= {MIN_SKETCH_CAPACITY}, got {v}")
            }
        }
    }
}

impl std::error::Error for ModelLoadError {}

impl CompletionModel for CpaModel {
    fn remaining_secs(&self, _fs: &[f64], progress: f64, allocation: u32) -> f64 {
        self.remaining(progress, allocation)
    }

    fn max_allocation(&self) -> u32 {
        *self.allocations.last().expect("non-empty grid")
    }

    fn size_for_deadline(&self, _fs: &[f64], deadline: SimDuration, slack: f64) -> Option<u32> {
        self.min_allocation_for_deadline(deadline, slack)
    }
}

/// Simulates every training run for one allocation and returns the
/// per-run harvests. The hot path is allocation-lean: the shared spec
/// is never deep-cloned, per-job state vectors are rented from `ws`,
/// trace/profile recording is off, and snapshots flow through a
/// borrowed [`SampleCollector`] into one reused buffer.
fn train_one_allocation(
    spec: &Arc<JobSpec>,
    indicator: &IndicatorContext,
    allocation: u32,
    cfg: &TrainConfig,
    seeds: SeedDeriver,
    ws: &mut SimWorkspace,
) -> Vec<RunHarvest> {
    let mut harvests = Vec::with_capacity(cfg.runs_per_allocation);
    for run in 0..cfg.runs_per_allocation {
        let mut samples: Vec<(f64, f64)> = Vec::new();
        let mut sim_cfg = ClusterConfig::dedicated_with_failures(allocation);
        sim_cfg.control_period = cfg.sample_period;
        sim_cfg.max_sim_time = cfg.max_sim_time;
        sim_cfg.topology = cfg.topology.clone();
        if let Some(sp) = &cfg.speculation {
            // The clone budget rides on top of the allocation: training
            // at `a` under speculation level `s` simulates exactly the
            // `a + clone_budget(s)` token footprint speculative
            // admission reserves, with the extra tokens idle unless a straggler
            // draws a clone onto them.
            sim_cfg.total_tokens = allocation + sp.clone_budget;
            sim_cfg.max_guarantee = allocation;
            sim_cfg.speculation = Some(sp.clone());
        }
        let mut sim =
            ClusterSim::with_workspace(sim_cfg, seeds.seed_indexed("run", run as u64), ws);
        sim.set_record_trace(false);
        sim.set_record_profile(false);
        sim.add_job_shared(spec.clone(), Box::new(FixedAllocation(allocation)));
        let result = {
            let mut collector = SampleCollector {
                indicator,
                samples: &mut samples,
            };
            sim.run_single_hooked(RunHooks {
                sink: Some(&mut collector),
                reclaim: Some(ws),
            })
        };
        // A run that hit the simulation horizon is censored: its true
        // completion is *at least* the horizon. Using the horizon as
        // the completion time yields pessimistic-but-finite samples, so
        // starved allocations read as "very slow" rather than leaving
        // empty cells that would be misread as "instant".
        let completed = result.duration().is_some();
        let total_secs = match result.duration() {
            Some(d) => d.as_secs_f64(),
            None => cfg.max_sim_time.as_secs_f64(),
        };
        harvests.push(RunHarvest {
            samples,
            total_secs,
            completed,
        });
    }
    harvests
}

/// Runs the job once on an effectively unconstrained cluster and
/// returns the relative stage windows — the `minstage-inf` indicator's
/// inputs ("a simulation of the job with no constraint on resources",
/// §5.4).
pub fn unconstrained_rel_windows(
    graph: &Arc<JobGraph>,
    profile: &JobProfile,
    seed: u64,
) -> Vec<(f64, f64)> {
    let tokens = u32::try_from(graph.total_tasks())
        .unwrap_or(u32::MAX)
        .max(1);
    let spec = JobSpec::from_profile(graph.clone(), profile);
    let mut sim = ClusterSim::new(ClusterConfig::dedicated(tokens), seed);
    sim.add_job(spec, Box::new(FixedAllocation(tokens)));
    let result = sim.run_single();
    result
        .profile
        .stages
        .iter()
        .map(|s| (s.rel_start, s.rel_end))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::ProgressIndicator;
    use jockey_cluster::FixedAllocation;
    use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
    use jockey_simrt::dist::Constant;

    /// map(12 x 10 s) --barrier--> reduce(2 x 20 s), deterministic.
    fn fixture() -> (Arc<JobGraph>, JobProfile) {
        let mut b = JobGraphBuilder::new("train-me");
        let m = b.stage("map", 12);
        let r = b.stage("reduce", 2);
        b.edge(m, r, EdgeKind::AllToAll);
        let graph = Arc::new(b.build().unwrap());
        // Produce a profile by actually running the job once.
        let spec = JobSpec::uniform(graph.clone(), Constant(10.0), Constant(0.5), 0.0);
        let mut sim = ClusterSim::new(ClusterConfig::dedicated(6), 3);
        sim.add_job(spec, Box::new(FixedAllocation(6)));
        let profile = sim.run_single().profile;
        (graph, profile)
    }

    fn model(graph: &Arc<JobGraph>, profile: &JobProfile) -> (CpaModel, IndicatorContext) {
        let ind = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, graph, profile, None);
        let cfg = TrainConfig::fast(vec![2, 4, 8]);
        let m = CpaModel::train(graph, profile, &ind, &cfg, 42);
        (m, ind)
    }

    #[test]
    fn trained_model_has_samples_and_monotone_allocations() {
        let (graph, profile) = fixture();
        let (m, _) = model(&graph, &profile);
        assert!(m.sample_count() > 20);
        let at = |a| m.fresh_latency(a);
        assert!(at(2) > at(4), "2 tokens {} vs 4 tokens {}", at(2), at(4));
        assert!(at(4) > at(8), "4 tokens {} vs 8 tokens {}", at(4), at(8));
    }

    #[test]
    fn fresh_latency_approximates_true_runtime() {
        let (graph, profile) = fixture();
        let (m, _) = model(&graph, &profile);
        // True latency at 4 tokens: 3 map waves (30s+q) + 1 reduce wave
        // (20s+q) ≈ 52 s. The p90 estimate should be within ~25%.
        let est = m.fresh_latency(4);
        assert!((40.0..70.0).contains(&est), "estimate {est}");
    }

    #[test]
    fn remaining_decreases_with_progress() {
        let (graph, profile) = fixture();
        let (m, _) = model(&graph, &profile);
        let early = m.remaining(0.05, 4);
        let late = m.remaining(0.9, 4);
        assert!(late < early, "late {late} vs early {early}");
        // At completion the remaining time is ~0.
        assert!(m.remaining(1.0, 4) < 16.0);
    }

    #[test]
    fn interpolation_between_grid_points() {
        let (graph, profile) = fixture();
        let (m, _) = model(&graph, &profile);
        let v2 = m.fresh_latency(2);
        let v3 = m.fresh_latency(3);
        let v4 = m.fresh_latency(4);
        assert!((v3 - (v2 + v4) / 2.0).abs() < 1e-9, "{v2} {v3} {v4}");
        // Outside the grid: clamped.
        assert_eq!(m.fresh_latency(1), v2);
        assert_eq!(m.fresh_latency(100), m.fresh_latency(8));
    }

    #[test]
    fn min_allocation_binary_search_matches_exhaustive_scan() {
        let (graph, profile) = fixture();
        let (m, _) = model(&graph, &profile);
        assert!(m.fresh_monotone, "trained fixture should be monotone");
        let max = *m.allocations.last().unwrap();
        // Sweep deadlines from far-infeasible to trivially-feasible,
        // including exact grid latencies, for several slacks.
        let mut deadlines: Vec<f64> = (0..200).map(|i| 0.5 + 1.1 * f64::from(i)).collect();
        deadlines.extend((1..=max).map(|a| m.fresh_latency(a)));
        for slack in [0.8, 1.0, 1.2, 2.0] {
            for &d in &deadlines {
                let deadline = SimDuration::from_secs_f64(d);
                let fast = m.min_allocation_for_deadline(deadline, slack);
                // Reference: the pre-optimization exhaustive ascending
                // scan, over the same tick-quantized deadline.
                let dq = deadline.as_secs_f64();
                let slow = (1..=max).find(|&a| m.fresh_latency(a) * slack <= dq);
                assert_eq!(fast, slow, "deadline {d}s slack {slack}");
            }
        }
    }

    #[test]
    fn non_monotone_tables_fall_back_to_the_scan() {
        let (graph, profile) = fixture();
        let (mut m, _) = model(&graph, &profile);
        // Corrupt the fresh column so latency *rises* with allocation.
        let bin0 = m.bin_of(0.0);
        m.table[m.bins + bin0] = m.table[bin0] + 100.0;
        m.check_fresh_monotone();
        assert!(!m.fresh_monotone);
        let max = *m.allocations.last().unwrap();
        for d in [10.0, 50.0, 120.0, 500.0] {
            let deadline = SimDuration::from_secs_f64(d);
            let fast = m.min_allocation_for_deadline(deadline, 1.0);
            let slow = (1..=max).find(|&a| m.fresh_latency(a) <= d);
            assert_eq!(fast, slow, "deadline {d}s");
        }
    }

    #[test]
    fn min_allocation_for_deadline_is_minimal() {
        let (graph, profile) = fixture();
        let (m, _) = model(&graph, &profile);
        let d = SimDuration::from_secs(80);
        let a = m.min_allocation_for_deadline(d, 1.0).unwrap();
        assert!(m.fresh_latency(a) <= 80.0);
        if a > 1 {
            assert!(m.fresh_latency(a - 1) > 80.0);
        }
        // Impossible deadline -> None.
        assert_eq!(
            m.min_allocation_for_deadline(SimDuration::from_secs(1), 1.0),
            None
        );
    }

    #[test]
    fn percentile_queries_are_ordered() {
        let (graph, profile) = fixture();
        let (m, _) = model(&graph, &profile);
        let p50 = m.remaining_percentile(0.0, 4, 50.0);
        let p95 = m.remaining_percentile(0.0, 4, 95.0);
        assert!(p95 >= p50);
    }

    #[test]
    fn training_is_deterministic() {
        let (graph, profile) = fixture();
        let ind = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &graph, &profile, None);
        let cfg = TrainConfig::fast(vec![2, 4]);
        let a = CpaModel::train(&graph, &profile, &ind, &cfg, 7);
        let b = CpaModel::train(&graph, &profile, &ind, &cfg, 7);
        assert_eq!(a.sample_count(), b.sample_count());
        assert_eq!(a.fresh_latency(3), b.fresh_latency(3));
    }

    /// Satellite: the trained cells must be bit-identical whether the
    /// grid is sharded over one thread or many — seeding is positional,
    /// never scheduling-dependent.
    #[test]
    fn train_is_thread_count_independent() {
        let (graph, profile) = fixture();
        let ind = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &graph, &profile, None);
        let with_threads = |threads: Option<usize>| {
            let mut cfg = TrainConfig::fast(vec![2, 4, 8]);
            cfg.threads = threads;
            CpaModel::train(&graph, &profile, &ind, &cfg, 7)
        };
        let one = with_threads(Some(1));
        let three = with_threads(Some(3));
        let auto = with_threads(None);
        assert_eq!(one.cells, three.cells, "1 thread vs 3 threads");
        assert_eq!(one.cells, auto.cells, "1 thread vs one-per-allocation");
    }

    /// A profile with a genuine straggler tail: most map attempts take
    /// 10 s, a quarter take 240 s, so the empirical runtime dist has
    /// mean 67.5 s and attempts drawing the tail cross any threshold
    /// above ~1.5x well before they finish.
    fn straggler_fixture() -> (Arc<JobGraph>, JobProfile) {
        let mut b = JobGraphBuilder::new("train-straggle");
        b.stage("map", 12);
        let graph = Arc::new(b.build().unwrap());
        let mut pb = jockey_jobgraph::profile::ProfileBuilder::new(&graph);
        for i in 0..12 {
            let rt = if i % 4 == 0 { 240.0 } else { 10.0 };
            pb.record_task(jockey_jobgraph::StageId(0), 0.0, rt, false);
        }
        let profile = pb.finish(300.0, 4.0);
        (graph, profile)
    }

    /// Training with a speculation config simulates a different engine
    /// (idle clone headroom, clone-on-slow watcher) — on a job with a
    /// straggler tail the trained C(p, a, s) surface must differ from
    /// the legacy C(p, a) surface while staying a valid monotone model.
    #[test]
    fn speculation_training_produces_a_distinct_surface() {
        let (graph, profile) = straggler_fixture();
        let ind = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &graph, &profile, None);
        let cfg = TrainConfig::fast(vec![2, 4, 8]);
        let mut sp_cfg = cfg.clone();
        sp_cfg.speculation = Some(jockey_cluster::SpeculationConfig::clone_on_slow(1.5, 2));
        let plain = CpaModel::train(&graph, &profile, &ind, &cfg, 42);
        let spec = CpaModel::train(&graph, &profile, &ind, &sp_cfg, 42);
        assert!(spec.sample_count() > 0);
        // The surfaces come from different simulations (clone launches
        // rewrite straggler completions), so at least one grid latency
        // must differ.
        assert!(
            (2..=8).any(|a| spec.fresh_latency(a) != plain.fresh_latency(a)),
            "speculation-trained surface is identical to the plain one"
        );
        assert!(spec.fresh_latency(2) >= spec.fresh_latency(8));
    }

    #[test]
    fn unconstrained_windows_cover_unit_interval() {
        let (graph, profile) = fixture();
        let rel = unconstrained_rel_windows(&graph, &profile, 5);
        assert_eq!(rel.len(), 2);
        // Map starts at 0; reduce ends at the job end.
        assert_eq!(rel[0].0, 0.0);
        assert!(rel[1].1 > 0.9);
        // Reduce starts after map in an unconstrained run too (barrier).
        assert!(rel[1].0 >= rel[0].1 - 0.3);
    }

    /// Satellite: `remaining()` answers from the precomputed table must
    /// be bit-identical to the raw `percentile_sorted` scan path
    /// (exposed via `remaining_percentile` at the configured percentile)
    /// across the whole trained grid — on-grid, between grid points, and
    /// clamped outside it, at every progress bin.
    #[test]
    fn table_queries_match_percentile_scan_bit_for_bit() {
        let (graph, profile) = fixture();
        let (m, _) = model(&graph, &profile);
        let max = *m.allocations().last().unwrap();
        for bin in 0..m.bins {
            // Probe a progress value inside each bin.
            let p = (bin as f64 + 0.5) / m.bins as f64;
            for a in 1..=(max + 4) {
                let fast = m.remaining(p, a);
                let slow = m.remaining_percentile(p, a, m.percentile());
                assert_eq!(
                    fast.to_bits(),
                    slow.to_bits(),
                    "p={p} a={a}: table {fast} vs scan {slow}"
                );
            }
        }
    }

    /// Satellite: the precomputed table folds in the outward empty-cell
    /// fallback scan exactly — sparse models answer from the nearest
    /// non-empty bin, and allocations with no samples at all read as
    /// `INFINITY`, matching `remaining_at_grid`.
    #[test]
    fn table_matches_scan_on_sparse_and_empty_cells() {
        // Hand-build a sparse model through the kv path: allocation 0
        // has samples only in bins 2 and 7; allocation 1 has none.
        let mut kv = jockey_simrt::table::KvStore::new();
        kv.set_u64("bins", 10);
        kv.set_f64("percentile", 90.0);
        kv.set_f64_list("allocations", &[2.0, 8.0]);
        kv.set_f64_list("cell.0.2", &[5.0, 7.0, 11.0]);
        kv.set_f64_list("cell.0.7", &[1.0, 2.0]);
        let m = CpaModel::from_kv(&kv).expect("loads");
        for bin in 0..10 {
            let p = (bin as f64 + 0.5) / 10.0;
            // Allocation on-grid at 2: nearest non-empty cell answers.
            let fast = m.remaining(p, 2);
            let slow = m.remaining_at_grid(0, bin, 90.0);
            assert_eq!(fast.to_bits(), slow.to_bits(), "bin {bin}");
            assert!(fast.is_finite());
            // Allocation 8 has no samples anywhere: INFINITY, exactly as
            // the scan reports it.
            assert_eq!(m.remaining(p, 8), f64::INFINITY);
            assert_eq!(m.remaining_at_grid(1, bin, 90.0), f64::INFINITY);
            // Interpolating toward an empty allocation stays INFINITY
            // on both paths (finite + w * (inf - finite)).
            assert_eq!(
                m.remaining(p, 5).to_bits(),
                m.remaining_percentile(p, 5, 90.0).to_bits()
            );
        }
        // The queried bin itself wins when non-empty; ties between
        // equidistant neighbors prefer the lower bin — both inherited
        // from the scan, bit-for-bit.
        assert_eq!(
            m.remaining(0.25, 2),
            jockey_simrt::stats::percentile_sorted(&[5.0, 7.0, 11.0], 90.0)
        );
        assert_eq!(
            m.remaining(0.45, 2), // bin 4: closest non-empty are 2 and 7 -> bin 2 wins at d=2.
            jockey_simrt::stats::percentile_sorted(&[5.0, 7.0, 11.0], 90.0)
        );
    }

    #[test]
    fn model_implements_completion_model() {
        let (graph, profile) = fixture();
        let (m, _) = model(&graph, &profile);
        let cm: &dyn CompletionModel = &m;
        assert_eq!(cm.max_allocation(), 8);
        assert!(cm.remaining_secs(&[], 0.0, 4) > 0.0);
    }
}

#[cfg(test)]
mod absorb_tests {
    use super::*;
    use jockey_simrt::rng::SeedDeriver;
    use rand::Rng;

    fn cfg(sketch_capacity: Option<usize>) -> TrainConfig {
        TrainConfig {
            progress_bins: 20,
            sketch_capacity,
            ..TrainConfig::fast(vec![2, 4, 8, 16])
        }
    }

    /// A deterministic synthetic run: samples every `period` seconds at
    /// linearly growing progress, completing at `total`.
    fn synth_run(seed: u64, allocation: u32) -> (Vec<RunObservation>, f64) {
        let mut rng = SeedDeriver::new(seed).rng("synth-run");
        let total: f64 = rng.gen_range(200.0..2000.0) / f64::from(allocation);
        let ticks = rng.gen_range(5..40);
        let obs = (0..ticks)
            .map(|i| {
                let frac = f64::from(i) / f64::from(ticks);
                RunObservation {
                    elapsed_secs: frac * total,
                    progress: (frac + rng.gen_range(-0.05..0.05)).clamp(0.0, 1.0),
                    allocation,
                }
            })
            .collect();
        (obs, total)
    }

    fn runs(seed: u64, n: u64, grid: &[u32]) -> Vec<(Vec<RunObservation>, f64)> {
        (0..n)
            .map(|i| synth_run(seed ^ (i * 977), grid[(i % grid.len() as u64) as usize]))
            .collect()
    }

    /// Satellite: absorbing the same trace set under any batch split or
    /// order yields the *identical* exact model — the per-cell sample
    /// multiset is order-free, and exact sketches are its unique sorted
    /// rendering. Checked on serialized bytes, the strongest equality.
    #[test]
    fn absorb_order_and_batch_split_do_not_change_exact_models() {
        let c = cfg(None);
        let all = runs(31, 24, &c.allocations);

        let mut one_by_one = CpaModel::empty(&c);
        for (obs, total) in &all {
            one_by_one.absorb_observations(obs, *total, true);
        }

        let mut reversed = CpaModel::empty(&c);
        for (obs, total) in all.iter().rev() {
            reversed.absorb_observations(obs, *total, true);
        }

        // One giant batch: all runs' observations fused, completion
        // markers replayed separately to keep per-run semantics.
        let mut fused = CpaModel::empty(&c);
        for (obs, total) in &all {
            let (head, tail) = obs.split_at(obs.len() / 2);
            fused.absorb_observations(head, *total, false);
            fused.absorb_observations(tail, *total, true);
        }

        let bytes = one_by_one.to_kv().to_text();
        assert_eq!(reversed.to_kv().to_text(), bytes, "reversed order");
        assert_eq!(fused.to_kv().to_text(), bytes, "split batches");
        assert_eq!(one_by_one.rank_error_bound(), 0);
    }

    /// Satellite: a bounded-sketch model absorbed in arbitrary batch
    /// splits answers every cell quantile within the documented rank
    /// error of the exact (one-shot) model built from the same samples.
    #[test]
    fn bounded_absorb_stays_within_documented_error_of_one_shot() {
        let exact_cfg = cfg(None);
        let bounded_cfg = cfg(Some(16));
        let all = runs(77, 48, &exact_cfg.allocations);

        let mut exact = CpaModel::empty(&exact_cfg);
        let mut bounded = CpaModel::empty(&bounded_cfg);
        for (i, (obs, total)) in all.iter().enumerate() {
            exact.absorb_observations(obs, *total, true);
            // Vary the split point per run to exercise merge orders.
            let split = (i * 7) % obs.len().max(1);
            let (head, tail) = obs.split_at(split);
            bounded.absorb_observations(head, *total, false);
            bounded.absorb_observations(tail, *total, true);
        }
        assert_eq!(bounded.sample_count(), exact.sample_count());

        let mut checked = 0;
        for ai in 0..exact.allocations.len() {
            for bin in 0..exact.bins {
                let cell = &exact.cells[ai][bin];
                if cell.is_empty() {
                    assert!(bounded.cells[ai][bin].is_empty());
                    continue;
                }
                let sorted = &cell.levels()[0];
                let sk = &bounded.cells[ai][bin];
                // Documented bound: rank error <= sum of compaction
                // errors, plus one top-level item weight for the
                // interpolation straddle.
                let slop = (sk.rank_error_bound() + (1 << (sk.levels().len() - 1))) as f64;
                for q in [10.0, 50.0, 90.0, 95.0] {
                    let v = sk.quantile(q);
                    let rank = q / 100.0 * (sorted.len() as f64 - 1.0);
                    let lo = ((rank - slop).floor().max(0.0)) as usize;
                    let hi = ((rank + slop).ceil() as usize).min(sorted.len() - 1);
                    assert!(
                        sorted[lo] <= v && v <= sorted[hi],
                        "cell ({ai},{bin}) q={q}: {v} outside [{}, {}]",
                        sorted[lo],
                        sorted[hi]
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 100, "too few non-empty cells ({checked} checks)");
    }

    /// Absorb only touches the dirty allocation's table row; the other
    /// rows keep their exact bytes, and untouched allocations stay
    /// INFINITY (vacant).
    #[test]
    fn absorb_rebuilds_only_dirty_rows() {
        let c = cfg(None);
        let mut m = CpaModel::empty(&c);
        assert_eq!(m.fresh_latency(4), f64::INFINITY);

        let (obs, total) = synth_run(5, 4);
        let added = m.absorb_observations(&obs, total, true);
        assert_eq!(added, obs.len() + 1);
        assert!(m.fresh_latency(4).is_finite());
        // Rows of other allocations were never touched.
        assert_eq!(m.remaining(0.5, 2), f64::INFINITY);
        assert_eq!(m.remaining(0.5, 16), f64::INFINITY);
        assert_eq!(m.sample_count(), added);
    }

    /// The staging key orders floats exactly as `f64::total_cmp` does
    /// (signed zeros, infinities and NaNs included) and decodes to the
    /// same bits.
    #[test]
    fn staging_key_orders_like_total_cmp_and_round_trips() {
        let vals = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            5e-324,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in vals {
            let key = total_order_bits(a);
            assert_eq!(from_total_order_bits(key).to_bits(), a.to_bits());
            for b in vals {
                assert_eq!(key.cmp(&total_order_bits(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    /// Off-grid allocations snap to the nearest grid point (lower wins
    /// ties), so online traces from interpolated guarantees land in
    /// real cells.
    #[test]
    fn absorb_snaps_allocations_to_nearest_grid_point() {
        let c = cfg(None);
        let mut m = CpaModel::empty(&c);
        assert_eq!(m.grid_index_nearest(1), 0); // below the grid
        assert_eq!(m.grid_index_nearest(3), 0); // tie 2 vs 4 -> lower
        assert_eq!(m.grid_index_nearest(5), 1); // nearest 4
        assert_eq!(m.grid_index_nearest(7), 2); // nearest 8
        assert_eq!(m.grid_index_nearest(40), 3); // above the grid

        let obs = [RunObservation {
            elapsed_secs: 0.0,
            progress: 0.0,
            allocation: 5,
        }];
        m.absorb_observations(&obs, 100.0, false);
        assert!(m.fresh_latency(4).is_finite(), "sample landed at grid 4");
        assert_eq!(m.fresh_latency(2), f64::INFINITY);
    }

    /// `absorb(&RunTrace)` pairs each progress point with the applied
    /// guarantee at that instant and measures elapsed time from the
    /// first guarantee point.
    #[test]
    fn absorb_run_trace_feeds_observations() {
        let c = cfg(None);
        let mut m = CpaModel::empty(&c);
        let mut trace = RunTrace::new();
        let t0 = SimTime::from_mins(5);
        trace.guarantee.push(t0, 4.0);
        for i in 0..10_u32 {
            let at = t0 + SimDuration::from_secs(u64::from(i) * 30);
            trace.progress.push(at, f64::from(i) / 10.0);
        }
        let added = m.absorb(&trace, 300.0, true);
        assert_eq!(added, 11, "10 samples + completion marker");
        assert!(m.fresh_latency(4).is_finite());
        // First observation: elapsed 0, remaining = full latency.
        assert!((m.remaining_percentile(0.0, 4, 100.0) - 300.0).abs() < 1e-9);

        // An empty trace absorbs nothing.
        assert_eq!(m.absorb(&RunTrace::new(), 100.0, false), 0);
    }

    /// Bounded sketches cap the stored footprint while the represented
    /// sample count keeps growing.
    #[test]
    fn bounded_model_footprint_stays_sublinear() {
        let c = cfg(Some(16));
        let mut m = CpaModel::empty(&c);
        for i in 0..200 {
            let (obs, total) = synth_run(1000 + i, 4);
            m.absorb_observations(&obs, total, true);
        }
        assert!(m.sample_count() > 2000, "samples {}", m.sample_count());
        assert!(
            m.stored_item_count() < m.sample_count() / 2,
            "stored {} vs represented {}",
            m.stored_item_count(),
            m.sample_count()
        );
        assert!(m.rank_error_bound() > 0);
    }

    /// Bounded models round-trip through kv: levels, compaction
    /// counters, and capacity all survive, and queries are preserved
    /// bit-for-bit (serialization is lossless on the sketch state).
    #[test]
    fn bounded_model_round_trips_through_kv() {
        let c = cfg(Some(16));
        let mut m = CpaModel::empty(&c);
        for i in 0..60 {
            let (obs, total) = synth_run(9000 + i, c.allocations[(i % 4) as usize]);
            m.absorb_observations(&obs, total, true);
        }
        assert!(m.rank_error_bound() > 0, "want a compacted model");

        let text = m.to_kv().to_text();
        let kv = jockey_simrt::table::KvStore::from_text(&text).expect("parses");
        let round = CpaModel::from_kv(&kv).expect("loads");
        assert_eq!(round.sketch_capacity(), Some(16));
        assert_eq!(round.sample_count(), m.sample_count());
        assert_eq!(round.rank_error_bound(), m.rank_error_bound());
        assert_eq!(round.cells, m.cells);
        assert_eq!(round.to_kv().to_text(), text, "fixed point");

        // And absorbing *after* the round-trip behaves identically.
        let (obs, total) = synth_run(424_242, 8);
        let mut a = m.clone();
        let mut b = round;
        a.absorb_observations(&obs, total, true);
        b.absorb_observations(&obs, total, true);
        assert_eq!(a.cells, b.cells);
    }

    /// A clone (a published snapshot) shares every row; an absorb into
    /// the original deep-copies only the row it writes, and the clone
    /// keeps its exact contents.
    #[test]
    fn absorb_copies_only_the_rows_a_clone_still_shares() {
        let c = cfg(Some(16));
        let mut m = CpaModel::empty(&c);
        for (i, &a) in c.allocations.iter().enumerate() {
            let (obs, total) = synth_run(40 + i as u64, a);
            m.absorb_observations(&obs, total, true);
        }
        let snap = m.clone();
        let frozen = m.deep_clone();
        let (obs, total) = synth_run(99, 4);
        m.absorb_observations(&obs, total, true);
        for ai in 0..c.allocations.len() {
            assert_eq!(
                Arc::ptr_eq(&m.cells[ai], &snap.cells[ai]),
                ai != 1,
                "row {ai}: only the written row (allocation 4) is copied"
            );
        }
        assert_eq!(snap, frozen, "the clone never sees the later absorb");
        assert_ne!(m, frozen);
    }

    #[test]
    fn vacant_copy_preserves_shape_and_drops_samples() {
        let c = cfg(Some(32));
        let mut m = CpaModel::empty(&c);
        let (obs, total) = synth_run(3, 8);
        m.absorb_observations(&obs, total, true);
        let v = m.vacant_copy();
        assert_eq!(v.allocations(), m.allocations());
        assert_eq!(v.sketch_capacity(), m.sketch_capacity());
        assert_eq!(v.sample_count(), 0);
        assert_eq!(v.fresh_latency(8), f64::INFINITY);
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use crate::progress::{IndicatorContext, ProgressIndicator};
    use jockey_cluster::FixedAllocation;
    use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
    use jockey_simrt::dist::Constant;

    #[test]
    fn kv_roundtrip_preserves_queries() {
        let mut b = JobGraphBuilder::new("persist");
        let m = b.stage("map", 8);
        let r = b.stage("reduce", 2);
        b.edge(m, r, EdgeKind::AllToAll);
        let graph = Arc::new(b.build().unwrap());
        let spec = JobSpec::uniform(graph.clone(), Constant(10.0), Constant(0.5), 0.0);
        let mut sim = ClusterSim::new(ClusterConfig::dedicated(4), 3);
        sim.add_job(spec, Box::new(FixedAllocation(4)));
        let profile = sim.run_single().profile;
        let ctx = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &graph, &profile, None);
        let model = CpaModel::train(&graph, &profile, &ctx, &TrainConfig::fast(vec![2, 4]), 1);

        let round = CpaModel::from_kv(&model.to_kv()).expect("round-trips");
        assert_eq!(round.allocations(), model.allocations());
        assert_eq!(round.percentile(), model.percentile());
        assert_eq!(round.sample_count(), model.sample_count());
        for p in [0.0, 0.3, 0.7, 1.0] {
            for a in [1, 2, 3, 4, 8] {
                assert_eq!(round.remaining(p, a), model.remaining(p, a), "p={p} a={a}");
            }
        }
    }

    /// The on-disk artifact cache persists trained models through the
    /// `to_kv` → `to_text` → `from_text` → `from_kv` path, so a warm
    /// cache is only byte-equivalent to retraining if that full text
    /// round-trip is *bit*-identical — Rust's `{}` float formatting is
    /// shortest-round-trip, and this test is the proof.
    #[test]
    fn kv_text_round_trip_is_bit_identical() {
        let mut b = JobGraphBuilder::new("persist-text");
        let m = b.stage("map", 9);
        let r = b.stage("reduce", 3);
        b.edge(m, r, EdgeKind::AllToAll);
        let graph = Arc::new(b.build().unwrap());
        let spec = JobSpec::uniform(graph.clone(), Constant(7.0), Constant(0.5), 0.0);
        let mut sim = ClusterSim::new(ClusterConfig::dedicated(4), 11);
        sim.add_job(spec, Box::new(FixedAllocation(4)));
        let profile = sim.run_single().profile;
        let ctx = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &graph, &profile, None);
        let model = CpaModel::train(&graph, &profile, &ctx, &TrainConfig::fast(vec![2, 4, 6]), 5);

        let text = model.to_kv().to_text();
        let kv = jockey_simrt::table::KvStore::from_text(&text).expect("parses");
        let round = CpaModel::from_kv(&kv).expect("text round-trips");

        // Fixed point: re-serializing reproduces the exact same text,
        // which covers every stored sample bit-for-bit (any mantissa
        // drift would change the shortest-round-trip rendering).
        assert_eq!(round.to_kv().to_text(), text);

        // And the query surface agrees bitwise, at the configured and
        // at explicit percentiles.
        for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
            for a in [1, 2, 3, 4, 5, 6, 9] {
                assert_eq!(
                    round.remaining(p, a).to_bits(),
                    model.remaining(p, a).to_bits(),
                    "remaining(p={p}, a={a})"
                );
                assert_eq!(
                    round.remaining_percentile(p, a, 90.0).to_bits(),
                    model.remaining_percentile(p, a, 90.0).to_bits(),
                    "remaining_percentile(p={p}, a={a})"
                );
            }
        }
    }

    /// Exact models must not leak any sketch-era keys: their serialized
    /// form is exactly the pre-sketch format (no `sketch_k`, no level
    /// or compaction keys), which is what keeps frozen-mode digests
    /// byte-identical across the refactor.
    #[test]
    fn exact_models_serialize_in_the_legacy_format() {
        let c = TrainConfig::fast(vec![2, 4]);
        let mut m = CpaModel::empty(&c);
        let obs: Vec<RunObservation> = (0..30)
            .map(|i| RunObservation {
                elapsed_secs: f64::from(i),
                progress: f64::from(i) / 30.0,
                allocation: 4,
            })
            .collect();
        m.absorb_observations(&obs, 30.0, true);
        let text = m.to_kv().to_text();
        assert!(!text.contains("sketch_k"), "unexpected sketch_k:\n{text}");
        for key in m.to_kv().keys() {
            if let Some(rest) = key.strip_prefix("cell.") {
                assert_eq!(rest.split('.').count(), 2, "sketch-era key `{key}`");
            }
        }
    }

    #[test]
    fn from_kv_rejects_malformed() {
        let kv = jockey_simrt::table::KvStore::new();
        assert_eq!(
            CpaModel::from_kv(&kv).unwrap_err(),
            ModelLoadError::MissingKey("bins")
        );

        let mut kv = jockey_simrt::table::KvStore::new();
        kv.set_u64("bins", 0);
        kv.set_f64("percentile", 95.0);
        kv.set_f64_list("allocations", &[1.0]);
        assert_eq!(
            CpaModel::from_kv(&kv).unwrap_err(),
            ModelLoadError::EmptyModel
        );

        let mut kv = jockey_simrt::table::KvStore::new();
        kv.set_u64("bins", 10);
        kv.set_f64("percentile", f64::NAN);
        kv.set_f64_list("allocations", &[1.0]);
        assert!(matches!(
            CpaModel::from_kv(&kv),
            Err(ModelLoadError::BadPercentile(v)) if v.is_nan()
        ));

        let mut kv = jockey_simrt::table::KvStore::new();
        kv.set_u64("bins", 10);
        kv.set_f64("percentile", 95.0);
        kv.set_f64_list("allocations", &[1.0]);
        kv.set_f64_list("cell.5.0", &[1.0]); // Allocation index out of range.
        assert_eq!(
            CpaModel::from_kv(&kv).unwrap_err(),
            ModelLoadError::BadCell("cell.5.0".into())
        );

        let mut kv = jockey_simrt::table::KvStore::new();
        kv.set_u64("bins", 10);
        kv.set_f64("percentile", 95.0);
        kv.set_f64_list("allocations", &[1.0]);
        kv.set_f64_list("cell.0.not-a-bin", &[1.0]);
        assert!(matches!(
            CpaModel::from_kv(&kv),
            Err(ModelLoadError::BadCell(_))
        ));

        // Sketch-era malformations: a level-zero suffix (`l0` shadows
        // the base key), a dotted tail that is neither `c` nor `l<i>`,
        // non-integer compaction counters, and an undersized sketch_k.
        for (key, vals) in [
            ("cell.0.1.l0", vec![1.0]),
            ("cell.0.1.x7", vec![1.0]),
            ("cell.0.1.l2.9", vec![1.0]),
            ("cell.0.1.c", vec![1.5]),
            ("cell.0.1.c", vec![-1.0]),
        ] {
            let mut kv = jockey_simrt::table::KvStore::new();
            kv.set_u64("bins", 10);
            kv.set_f64("percentile", 95.0);
            kv.set_f64_list("allocations", &[1.0]);
            kv.set_f64_list(key, &vals);
            assert!(
                matches!(CpaModel::from_kv(&kv), Err(ModelLoadError::BadCell(_))),
                "key `{key}` with {vals:?} should be rejected"
            );
        }

        let mut kv = jockey_simrt::table::KvStore::new();
        kv.set_u64("bins", 10);
        kv.set_f64("percentile", 95.0);
        kv.set_f64_list("allocations", &[1.0]);
        kv.set_u64("sketch_k", 2);
        assert_eq!(
            CpaModel::from_kv(&kv).unwrap_err(),
            ModelLoadError::BadSketchCapacity(2)
        );
    }

    #[test]
    fn train_config_check_rejects_bad_values() {
        assert!(TrainConfig::default().check().is_ok());

        let cfg = TrainConfig {
            allocations: vec![],
            ..TrainConfig::default()
        };
        assert_eq!(cfg.check(), Err(InvalidTrainConfig::Allocations));

        let cfg = TrainConfig {
            allocations: vec![4, 2],
            ..TrainConfig::default()
        };
        assert_eq!(cfg.check(), Err(InvalidTrainConfig::Allocations));

        let cfg = TrainConfig {
            runs_per_allocation: 0,
            ..TrainConfig::default()
        };
        assert_eq!(cfg.check(), Err(InvalidTrainConfig::Runs));

        let cfg = TrainConfig {
            progress_bins: 1,
            ..TrainConfig::default()
        };
        assert_eq!(cfg.check(), Err(InvalidTrainConfig::Bins(1)));

        // NaN must not sneak through the percentile range check.
        let cfg = TrainConfig {
            percentile: f64::NAN,
            ..TrainConfig::default()
        };
        assert!(matches!(
            cfg.check(),
            Err(InvalidTrainConfig::Percentile(v)) if v.is_nan()
        ));

        let cfg = TrainConfig {
            sample_period: SimDuration::ZERO,
            ..TrainConfig::default()
        };
        assert_eq!(cfg.check(), Err(InvalidTrainConfig::SamplePeriod));

        let cfg = TrainConfig {
            sketch_capacity: Some(4),
            ..TrainConfig::default()
        };
        assert_eq!(cfg.check(), Err(InvalidTrainConfig::SketchCapacity(4)));
    }
}
