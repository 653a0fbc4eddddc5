//! A prototype multi-job arbiter (§4.4's future work).
//!
//! "We plan to extend Jockey to reach globally optimal allocations when
//! managing multiple SLO-bound jobs. Doing so requires an additional
//! inter-job arbiter that dynamically shifts resources from jobs with
//! low expected marginal utility to those with high expected marginal
//! utility." This module implements the natural greedy version: starting
//! from each job's minimum, repeatedly grant one token to the job whose
//! expected utility improves the most, until the budget is exhausted or
//! no job benefits.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::predict::CompletionModel;
use crate::utility::UtilityFunction;

/// One job's state as seen by the arbiter.
#[derive(Clone)]
pub struct ArbiterJob {
    /// Completion model (typically a trained [`crate::cpa::CpaModel`]).
    pub model: Arc<dyn CompletionModel>,
    /// The job's utility function.
    pub utility: UtilityFunction,
    /// Current progress (from the job's indicator).
    pub progress: f64,
    /// Per-stage completion fractions (for Amdahl-style models).
    pub stage_fraction: Vec<f64>,
    /// Seconds since the job started.
    pub elapsed_secs: f64,
    /// Prediction slack multiplier.
    pub slack: f64,
}

impl ArbiterJob {
    fn view(&self) -> JobView<'_> {
        JobView {
            model: self.model.as_ref(),
            utility: &self.utility,
            progress: self.progress,
            stage_fraction: &self.stage_fraction,
            elapsed_secs: self.elapsed_secs,
            slack: self.slack,
        }
    }
}

/// A borrowed view of one job's state: everything its utility curve is
/// evaluated from, read in place from wherever the caller keeps it.
pub(crate) struct JobView<'a> {
    pub(crate) model: &'a dyn CompletionModel,
    pub(crate) utility: &'a UtilityFunction,
    pub(crate) progress: f64,
    pub(crate) stage_fraction: &'a [f64],
    pub(crate) elapsed_secs: f64,
    pub(crate) slack: f64,
}

impl JobView<'_> {
    /// `U(elapsed + slack · remaining(allocation))`. A non-finite
    /// prediction maps to NaN, which no gain computed from it survives:
    /// a model answering NaN or ±∞ can never win tokens (a −∞ answer
    /// would otherwise read as "done now", the utility's best value).
    fn utility_at(&self, allocation: u32) -> f64 {
        let remaining = self
            .model
            .remaining_secs(self.stage_fraction, self.progress, allocation);
        if !remaining.is_finite() {
            return f64::NAN;
        }
        self.utility
            .eval(self.elapsed_secs + self.slack * remaining)
    }
}

/// Greedily splits `budget` tokens across `jobs` by marginal utility.
///
/// Every job receives at least one token — the **1-token floor**: a
/// running job stripped to zero guaranteed tokens would be evicted
/// wholesale, so the floor is the smallest allocation that keeps it
/// schedulable. The floor is why callers managing a fixed budget must
/// either keep `jobs.len() <= budget` (admission control) or account
/// the difference as over-commit ([`SharedArbiter::over_committed_rounds`],
/// [`crate::plane::PlaneStats::over_committed_rounds`]). Remaining
/// tokens go to the job with the highest marginal utility gain;
/// allocation stops early when no job's average gain per token exceeds
/// `1e-12` (granting tokens that help nobody would only hurt the rest
/// of the cluster). Each job is capped at its model's
/// [`CompletionModel::max_allocation`]. A model answering NaN or ±∞
/// never wins tokens.
///
/// Returns the per-job allocations, in input order.
///
/// Tokens are granted in **jumps** along each job's concave utility
/// envelope: a job's candidate is the jump size maximizing average
/// utility gain per token, not just the next single token. On concave
/// curves (closed-form models) the best jump is always one token and
/// the loop matches the classic single-token greedy exactly. The jump
/// matters for *learned* models ([`crate::online::ModelHandle`]): a
/// pessimistic learned row sitting below optimistic unexplored rows
/// makes utility non-concave in allocation, and a single-token scan
/// stalls in the zero-or-negative-gain valley right below a large
/// improvement — exactly the shape a drifted `C(p, a)` produces, where
/// it starves jobs below the allocation admission reserved for them.
///
/// Cost: each job's utility curve is evaluated once, at allocations
/// `1..=min(cap, 1 + budget − jobs)` — no job can ever hold more — and
/// no further than the first allocation that already earns the
/// utility's best value, so a split makes at most jobs × cap model
/// queries. The grant loop then reads only those values: a job's
/// candidate jump changes only when *it* is granted tokens, so the
/// loop keeps one candidate per job in a max-heap and re-scans only
/// the winner's curve. Ties are broken by the lowest job index, then
/// the smallest jump, matching the single-token rescan on concave
/// inputs.
///
/// # Panics
///
/// Panics if `budget < jobs.len()` (cannot give everyone a token) and
/// `jobs` is non-empty.
pub fn arbitrate(jobs: &[ArbiterJob], budget: u32) -> Vec<u32> {
    let mut table = CurveTable::default();
    table.reset(jobs.len(), budget);
    for job in jobs {
        table.push(job.view());
    }
    table.split().to_vec()
}

/// Every job's utility curve for one split, flattened into one array,
/// plus the grant loop's working buffers. Callers that split
/// repeatedly keep one table and reuse its buffers, so a split in
/// steady state allocates nothing.
#[derive(Default)]
pub(crate) struct CurveTable {
    budget: u32,
    /// Jobs announced by [`CurveTable::reset`].
    jobs: usize,
    /// The most tokens any one job can end up with: `1 + budget − jobs`.
    reach: u32,
    /// Job after job, the utility at allocations `1..=len`.
    utility: Vec<f64>,
    /// Job `i`'s curve is `utility[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<usize>,
    alloc: Vec<u32>,
    /// (rate, Reverse(job), jump): pops the highest average gain,
    /// lowest index first.
    heap: BinaryHeap<(OrderedGain, Reverse<usize>, u32)>,
}

impl CurveTable {
    /// Starts a split of `budget` tokens across the `jobs` curves
    /// pushed next, discarding the previous split's curves.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is non-zero and above `budget`.
    pub(crate) fn reset(&mut self, jobs: usize, budget: u32) {
        assert!(
            jobs == 0 || budget as usize >= jobs,
            "budget {budget} below job count {jobs}"
        );
        self.budget = budget;
        self.jobs = jobs;
        self.reach = (budget - jobs as u32).saturating_add(1);
        self.utility.clear();
        self.bounds.clear();
        self.bounds.push(0);
    }

    /// Evaluates one job's curve at allocations `1..=min(cap, reach)`.
    /// Bounding by the reach keeps a model advertising a huge cap from
    /// growing the table past what the budget could ever grant it.
    ///
    /// The curve stops early at the first allocation earning the
    /// utility's [ceiling](UtilityFunction::ceiling): a jump past it
    /// gains no more over more tokens, so it can never beat the jump
    /// ending there, and nothing beyond is ever granted.
    pub(crate) fn push(&mut self, job: JobView<'_>) {
        let len = job.model.max_allocation().min(self.reach);
        let ceiling = job.utility.ceiling();
        for a in 1..=len {
            let u = job.utility_at(a);
            self.utility.push(u);
            if Some(u) == ceiling {
                break;
            }
        }
        self.bounds.push(self.utility.len());
    }

    /// Splits the budget across the pushed curves; returns the per-job
    /// allocations in push order.
    pub(crate) fn split(&mut self) -> &[u32] {
        let CurveTable {
            budget,
            jobs,
            utility,
            bounds,
            alloc,
            heap,
            ..
        } = self;
        debug_assert_eq!(bounds.len() - 1, *jobs, "pushed curves != announced jobs");
        let curve = |i: usize| &utility[bounds[i]..bounds[i + 1]];
        alloc.clear();
        alloc.resize(*jobs, 1);
        if *jobs == 0 {
            return alloc;
        }
        let mut remaining = *budget - *jobs as u32;

        // At most one live entry per job, and only for a useful jump: a
        // job's candidate changes only when *it* is granted, and the
        // re-scan of a jump sized before other grants shrank the pool
        // (it may no longer fit) can only lower its rate, so a job
        // without a useful jump can never be granted one.
        let mut entries = std::mem::take(heap).into_vec();
        entries.clear();
        entries.extend((0..*jobs).filter_map(|i| {
            useful_jump(curve(i), 1, remaining).map(|(rate, k)| (OrderedGain(rate), Reverse(i), k))
        }));
        *heap = BinaryHeap::from(entries);
        while remaining > 0 {
            let Some((_, Reverse(i), k)) = heap.pop() else {
                break; // No job has a useful jump left.
            };
            // A jump sized against a larger pool is re-scanned within
            // what is left instead of granted.
            if k <= remaining {
                alloc[i] += k;
                remaining -= k;
            }
            if let Some((r, k2)) = useful_jump(curve(i), alloc[i], remaining) {
                heap.push((OrderedGain(r), Reverse(i), k2));
            }
        }
        alloc
    }
}

/// Best jump from allocation `a` along `curve` (`curve[a - 1]` is the
/// utility at `a`), scanning at most `limit` tokens ahead: the (average
/// gain per token, jump size) pair with the highest rate, if that rate
/// exceeds `1e-12` (granting tokens that help nobody would only hurt
/// the rest of the cluster). Non-finite gains are floored to -inf so a
/// NaN utility can never win tokens. Ties keep the smallest jump so
/// concave curves degrade to the single-token greedy.
fn useful_jump(curve: &[f64], a: u32, limit: u32) -> Option<(f64, u32)> {
    let len = curve.len() as u32;
    if a >= len || limit == 0 {
        return None; // At the curve's end (or dry pool): no candidate.
    }
    let base = curve[a as usize - 1];
    let ahead = &curve[a as usize..(a + limit.min(len - a)) as usize];
    let mut best: Option<(f64, u32)> = None;
    for (k, &u) in (1..).zip(ahead) {
        let g = u - base;
        let rate = if g.is_finite() {
            g / f64::from(k)
        } else {
            f64::NEG_INFINITY
        };
        if best.is_none_or(|(r, _)| rate > r) {
            best = Some((rate, k));
        }
    }
    best.filter(|&(rate, _)| rate > 1e-12)
}

/// A totally ordered f64 wrapper for the arbitration heap (inputs are
/// NaN-free by construction — `useful_jump` floors non-finite gains).
#[derive(PartialEq)]
struct OrderedGain(f64);

impl Eq for OrderedGain {}

impl PartialOrd for OrderedGain {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedGain {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jockey_simrt::time::SimDuration;

    impl ArbiterJob {
        fn utility_at(&self, allocation: u32) -> f64 {
            self.view().utility_at(allocation)
        }
    }

    /// remaining = work * (1 - progress) / a, up to `cap` tokens.
    struct Toy {
        work: f64,
        cap: u32,
    }

    impl CompletionModel for Toy {
        fn remaining_secs(&self, _fs: &[f64], progress: f64, allocation: u32) -> f64 {
            self.work * (1.0 - progress) / f64::from(allocation.max(1))
        }
        fn max_allocation(&self) -> u32 {
            self.cap
        }
    }

    fn job(work: f64, deadline_mins: u64, progress: f64, elapsed_secs: f64) -> ArbiterJob {
        capped_job(work, deadline_mins, progress, elapsed_secs, 100)
    }

    fn capped_job(
        work: f64,
        deadline_mins: u64,
        progress: f64,
        elapsed_secs: f64,
        cap: u32,
    ) -> ArbiterJob {
        ArbiterJob {
            model: Arc::new(Toy { work, cap }),
            utility: UtilityFunction::deadline(SimDuration::from_mins(deadline_mins)),
            progress,
            stage_fraction: vec![],
            elapsed_secs,
            slack: 1.0,
        }
    }

    #[test]
    fn tight_deadline_wins_tokens() {
        // Same work; one job has half the time left.
        let jobs = [job(36_000.0, 60, 0.0, 0.0), job(36_000.0, 120, 0.0, 0.0)];
        let alloc = arbitrate(&jobs, 20);
        assert!(alloc.iter().sum::<u32>() <= 20);
        assert!(alloc[0] > alloc[1], "{alloc:?}");
        // The tight job needs 10 tokens (36000/3600) to be on time.
        assert!(alloc[0] >= 10, "{alloc:?}");
    }

    #[test]
    fn stops_when_no_marginal_gain() {
        // Tiny jobs: one token each already maximizes utility.
        let jobs = [job(60.0, 60, 0.0, 0.0), job(60.0, 60, 0.0, 0.0)];
        let alloc = arbitrate(&jobs, 50);
        assert_eq!(alloc, vec![1, 1]);
    }

    #[test]
    fn budget_is_respected() {
        let jobs = [
            job(100_000.0, 30, 0.0, 0.0),
            job(100_000.0, 30, 0.0, 0.0),
            job(100_000.0, 30, 0.0, 0.0),
        ];
        let alloc = arbitrate(&jobs, 10);
        assert_eq!(alloc.iter().sum::<u32>(), 10);
    }

    #[test]
    fn progressed_jobs_release_demand() {
        let jobs = [job(36_000.0, 60, 0.9, 600.0), job(36_000.0, 60, 0.0, 600.0)];
        let alloc = arbitrate(&jobs, 20);
        assert!(alloc[1] > alloc[0], "{alloc:?}");
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert!(arbitrate(&[], 10).is_empty());
    }

    /// remaining = table[a - 1]: arbitrary per-allocation curves, the
    /// shape a learned-with-floor model produces.
    struct Table {
        remaining: Vec<f64>,
    }

    impl CompletionModel for Table {
        fn remaining_secs(&self, _fs: &[f64], _progress: f64, allocation: u32) -> f64 {
            self.remaining[(allocation as usize - 1).min(self.remaining.len() - 1)]
        }
        fn max_allocation(&self) -> u32 {
            self.remaining.len() as u32
        }
    }

    #[test]
    fn jump_grants_escape_a_non_concave_valley() {
        // A drifted learned model blended with an optimistic floor: the
        // learned row at 2 tokens is *slower* than the floor's answer at
        // 1, so the single-token marginal gain at the floor is negative
        // — but three tokens meet the deadline outright. The jump grant
        // must climb out of the valley instead of stranding the job at
        // its 1-token floor.
        let jobs = [ArbiterJob {
            model: Arc::new(Table {
                remaining: vec![3_600.0, 5_460.0, 1_200.0, 900.0, 720.0],
            }),
            utility: UtilityFunction::deadline(SimDuration::from_secs_f64(3_000.0)),
            progress: 0.0,
            stage_fraction: vec![],
            elapsed_secs: 0.0,
            slack: 1.0,
        }];
        let alloc = arbitrate(&jobs, 12);
        assert_eq!(alloc, vec![3], "stranded below the valley");
    }

    #[test]
    fn oversized_jumps_rescan_within_the_shrunken_pool() {
        // Accelerating gains: both jobs' best jump is 2 tokens straight
        // to the 600-second rung, but after the first job takes it only
        // one token is left. The second job's stale 2-token candidate
        // must be re-scanned under the tighter limit and settle for the
        // single useful step to 8 000 s instead of stalling at the
        // floor.
        let table = || Table {
            remaining: vec![9_000.0, 8_000.0, 600.0, 300.0],
        };
        let mk = || ArbiterJob {
            model: Arc::new(table()),
            utility: UtilityFunction::deadline(SimDuration::from_secs_f64(1_000.0)),
            progress: 0.0,
            stage_fraction: vec![],
            elapsed_secs: 0.0,
            slack: 1.0,
        };
        let jobs = [mk(), mk()];
        let alloc = arbitrate(&jobs, 5);
        assert_eq!(alloc, vec![3, 2], "jump then clamped rescan");
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn budget_below_job_count_panics() {
        let jobs = [job(1.0, 60, 0.0, 0.0), job(1.0, 60, 0.0, 0.0)];
        arbitrate(&jobs, 1);
    }

    /// The per-call grant loop the curve table replaced, kept verbatim
    /// as the reference: it queries the models inside the loop, once
    /// per candidate jump it scans.
    fn arbitrate_reference(jobs: &[ArbiterJob], budget: u32) -> Vec<u32> {
        if jobs.is_empty() {
            return Vec::new();
        }
        assert!(
            budget as usize >= jobs.len(),
            "budget {budget} below job count {}",
            jobs.len()
        );
        let mut alloc: Vec<u32> = vec![1; jobs.len()];
        let mut remaining = budget - jobs.len() as u32;

        let best_jump = |job: &ArbiterJob, a: u32, limit: u32| -> Option<(f64, u32)> {
            let cap = job.model.max_allocation();
            if a >= cap || limit == 0 {
                return None;
            }
            let base = job.utility_at(a);
            let mut best: Option<(f64, u32)> = None;
            for k in 1..=limit.min(cap - a) {
                let g = job.utility_at(a + k) - base;
                let rate = if g.is_finite() {
                    g / f64::from(k)
                } else {
                    f64::NEG_INFINITY
                };
                if best.is_none_or(|(r, _)| rate > r) {
                    best = Some((rate, k));
                }
            }
            best
        };

        let mut heap: BinaryHeap<(OrderedGain, Reverse<usize>, u32)> =
            BinaryHeap::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            if let Some((rate, k)) = best_jump(job, 1, remaining) {
                heap.push((OrderedGain(rate), Reverse(i), k));
            }
        }
        while remaining > 0 {
            let Some((OrderedGain(rate), Reverse(i), k)) = heap.pop() else {
                break;
            };
            if rate <= 1e-12 {
                break;
            }
            if k > remaining {
                if let Some((r, k2)) = best_jump(&jobs[i], alloc[i], remaining) {
                    heap.push((OrderedGain(r), Reverse(i), k2));
                }
                continue;
            }
            alloc[i] += k;
            remaining -= k;
            if let Some((r, k2)) = best_jump(&jobs[i], alloc[i], remaining) {
                heap.push((OrderedGain(r), Reverse(i), k2));
            }
        }
        alloc
    }

    /// The naive O(budget × jobs) rescan the heap loop replaced:
    /// re-evaluates every job's marginal gain on every grant, taking the
    /// first index among ties.
    fn arbitrate_rescan(jobs: &[ArbiterJob], budget: u32) -> Vec<u32> {
        let mut alloc: Vec<u32> = vec![1; jobs.len()];
        let mut remaining = budget - jobs.len() as u32;
        let mut current_u: Vec<f64> = jobs.iter().map(|j| j.utility_at(1)).collect();
        while remaining > 0 {
            let mut best: Option<(usize, f64, f64)> = None;
            for (i, job) in jobs.iter().enumerate() {
                if alloc[i] >= job.model.max_allocation() {
                    continue;
                }
                let u_next = job.utility_at(alloc[i] + 1);
                let gain = u_next - current_u[i];
                if best.is_none_or(|(_, g, _)| gain > g) {
                    best = Some((i, gain, u_next));
                }
            }
            match best {
                Some((i, gain, u_next)) if gain > 1e-12 => {
                    alloc[i] += 1;
                    current_u[i] = u_next;
                    remaining -= 1;
                }
                _ => break,
            }
        }
        alloc
    }

    /// A deterministic LCG: the property tests' only source of fleets.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, m: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % m
        }
    }

    /// A job with a `Table` curve of `len` rungs, each an arbitrary
    /// remaining time (so utility is rarely concave in allocation);
    /// with `hostile`, some rungs answer NaN or ±∞.
    fn table_job(rng: &mut Lcg, len: usize, hostile: bool) -> ArbiterJob {
        let remaining = (0..len)
            .map(|_| match (hostile, rng.below(12)) {
                (true, 0) => f64::NAN,
                (true, 1) => f64::INFINITY,
                (true, 2) => f64::NEG_INFINITY,
                _ => 300.0 + rng.below(9_000) as f64,
            })
            .collect();
        let d = 600.0 + rng.below(6_000) as f64;
        // Mostly the standard deadline shape (non-increasing, so curves
        // stop at its ceiling); sometimes one that rises before the
        // deadline, which has no ceiling.
        let utility = if rng.below(4) == 0 {
            UtilityFunction::from_knots(vec![(0.0, 0.5), (d, 1.0), (d + 600.0, -1.0)])
        } else {
            UtilityFunction::deadline(SimDuration::from_secs_f64(d))
        };
        ArbiterJob {
            model: Arc::new(Table { remaining }),
            utility,
            progress: 0.0,
            stage_fraction: vec![],
            elapsed_secs: rng.below(600) as f64,
            slack: 1.0,
        }
    }

    #[test]
    fn heap_grant_loop_matches_the_full_rescan() {
        // Pseudo-random fleets, checked against the per-call reference
        // loop for bit-identical splits: concave `Toy` fleets with
        // mixed caps (including 0, 1 and u32::MAX), non-concave `Table`
        // curves, curves with NaN and ±∞ answers, and mixes of all
        // three — each at a budget anywhere from one token per job to
        // past saturation. Concave fleets must also match the
        // single-token full rescan.
        let mut rng = Lcg(0x9e37_79b9);
        let mut shapes = [0_u32; 4];
        for trial in 0..320 {
            let n = 1 + rng.below(12) as usize;
            let shape = trial % 4;
            shapes[shape] += 1;
            let jobs: Vec<ArbiterJob> = (0..n)
                .map(|_| {
                    let concave = shape == 0 || (shape == 3 && rng.below(2) == 0);
                    if concave {
                        let cap = match rng.below(8) {
                            0 => 0,
                            1 => 1,
                            2 => u32::MAX,
                            _ => 2 + rng.below(40) as u32,
                        };
                        capped_job(
                            1_000.0 + rng.below(50_000) as f64,
                            10 + rng.below(110),
                            rng.below(90) as f64 / 100.0,
                            rng.below(3_600) as f64,
                            cap,
                        )
                    } else {
                        let len = 1 + rng.below(16) as usize;
                        table_job(&mut rng, len, shape != 1)
                    }
                })
                .collect();
            let saturation: u64 = jobs
                .iter()
                .map(|j| u64::from(j.model.max_allocation().clamp(1, 64)))
                .sum();
            let budget = n as u32 + rng.below(saturation + 8) as u32;
            let split = arbitrate(&jobs, budget);
            assert_eq!(
                split,
                arbitrate_reference(&jobs, budget),
                "trial {trial}: {n} jobs, budget {budget}"
            );
            assert!(split.iter().sum::<u32>() <= budget, "trial {trial}");
            if shape == 0 {
                assert_eq!(
                    split,
                    arbitrate_rescan(&jobs, budget),
                    "trial {trial}: {n} jobs, budget {budget}"
                );
            }
        }
        assert!(shapes.iter().all(|&k| k >= 50), "{shapes:?}");
    }

    #[test]
    fn a_huge_cap_is_bounded_by_what_the_budget_can_grant() {
        // A model advertising u32::MAX tokens must not size the table
        // by its cap: no job can hold more than 1 + budget − jobs. The
        // jobs here never reach their deadline, so only the cap and
        // the reach bound their curves.
        let hostile = capped_job(1.0e9, 60, 0.0, 0.0, u32::MAX);
        let mut table = CurveTable::default();
        table.reset(3, 20);
        table.push(hostile.view());
        table.push(job(1.0e9, 60, 0.0, 0.0).view());
        table.push(capped_job(1.0e9, 60, 0.0, 0.0, 4).view());
        assert_eq!(table.bounds, [0, 18, 36, 40]);
        assert_eq!(table.split().iter().sum::<u32>(), 20);
        let jobs = [hostile.clone(), job(36_000.0, 60, 0.0, 0.0)];
        assert_eq!(arbitrate(&jobs, 30), arbitrate_reference(&jobs, 30));
    }

    #[test]
    fn curves_stop_at_the_utility_ceiling() {
        // 36 000 s of work meets a one-hour deadline at 10 tokens: the
        // curve ends there, though the cap and budget allow 100.
        let mut table = CurveTable::default();
        table.reset(1, 200);
        table.push(job(36_000.0, 60, 0.0, 0.0).view());
        assert_eq!(table.bounds, [0, 10]);
        assert_eq!(table.split(), [10]);
    }

    #[test]
    fn caps_of_zero_or_one_keep_the_floor() {
        // A model capped below the floor still holds its one token and
        // never takes more, however much budget is idle.
        let jobs = [
            capped_job(36_000.0, 60, 0.0, 0.0, 0),
            capped_job(36_000.0, 60, 0.0, 0.0, 1),
            job(36_000.0, 60, 0.0, 0.0),
        ];
        let alloc = arbitrate(&jobs, 40);
        assert_eq!(&alloc[..2], &[1, 1], "{alloc:?}");
        assert!(alloc[2] > 1, "{alloc:?}");
    }

    #[test]
    fn non_finite_predictions_never_win_tokens() {
        // Each hostile rung is the best-looking step on offer: without
        // the NaN mapping, a −∞ prediction would read as "finished
        // now" and an ∞ one could still anchor a gain. None may be
        // granted, and a job whose floor answer is already non-finite
        // gets nothing past the floor.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let landing = ArbiterJob {
                model: Arc::new(Table {
                    remaining: vec![6_000.0, bad, 5_900.0],
                }),
                utility: UtilityFunction::deadline(SimDuration::from_secs_f64(3_000.0)),
                progress: 0.0,
                stage_fraction: vec![],
                elapsed_secs: 0.0,
                slack: 1.0,
            };
            let floor = ArbiterJob {
                model: Arc::new(Table {
                    remaining: vec![bad, 600.0, 300.0],
                }),
                ..landing.clone()
            };
            let alloc = arbitrate(&[landing.clone(), floor.clone()], 10);
            assert_ne!(alloc[0], 2, "{bad}: granted the non-finite rung");
            assert_eq!(alloc[1], 1, "{bad}: non-finite floor won tokens");
            assert_eq!(alloc, arbitrate_reference(&[landing, floor], 10), "{bad}");
        }
    }
}

use jockey_cluster::{ControlDecision, FixedAllocation, JobStatus};
use jockey_simrt::time::SimDuration;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::layer::{ControlLayer, Layered};
use crate::progress::IndicatorContext;

/// Per-job state tracked by a [`SharedArbiter`].
struct Slot {
    model: Arc<dyn CompletionModel>,
    utility: UtilityFunction,
    slack: f64,
    progress: f64,
    stage_fraction: Vec<f64>,
    elapsed_secs: f64,
    finished: bool,
}

impl Slot {
    fn view(&self) -> JobView<'_> {
        JobView {
            model: self.model.as_ref(),
            utility: &self.utility,
            progress: self.progress,
            stage_fraction: &self.stage_fraction,
            elapsed_secs: self.elapsed_secs,
            slack: self.slack,
        }
    }
}

/// A live inter-job arbiter (§4.4): concurrent SLO jobs register
/// against one token budget; each control tick, the ticking job
/// refreshes its state and the greedy marginal-utility split
/// ([`arbitrate`]) decides its guarantee from the latest view of every
/// job. Decentralized — each job's controller runs independently but
/// shares the arbiter — so no global scheduler loop is needed.
pub struct SharedArbiter {
    budget: u32,
    slots: Mutex<Vec<Slot>>,
    /// Ticks whose active fleet outnumbered the budget, forcing the
    /// 1-token floor to hand out more tokens than the arbiter owns.
    over_commits: AtomicU64,
}

impl SharedArbiter {
    /// Creates an arbiter managing `budget` guaranteed tokens.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn new(budget: u32) -> Arc<Self> {
        assert!(budget > 0);
        Arc::new(SharedArbiter {
            budget,
            slots: Mutex::new(Vec::new()),
            over_commits: AtomicU64::new(0),
        })
    }

    /// How many arbitration rounds handed out more tokens than the
    /// budget because the active fleet outnumbered it (the 1-token
    /// floor). Zero for fleets kept within budget by admission control.
    pub fn over_committed_rounds(&self) -> u64 {
        self.over_commits.load(Ordering::Relaxed)
    }

    /// Locks the slot table, recovering it if a previous holder
    /// panicked. Slot entries are plain state snapshots overwritten on
    /// every tick (no multi-step invariants span the lock), so the
    /// table is always usable; propagating the poison would instead
    /// cascade one job's panic into every other job's control thread.
    fn lock_slots(&self) -> MutexGuard<'_, Vec<Slot>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a job, returning its controller. `slack` is the
    /// prediction multiplier applied inside the arbitration.
    pub fn register(
        self: &Arc<Self>,
        model: Arc<dyn CompletionModel>,
        indicator: IndicatorContext,
        utility: UtilityFunction,
        slack: f64,
    ) -> ArbitratedController {
        let slot = self.register_slot(model, utility, slack, indicator.stage_count());
        Layered::new(FixedAllocation(1)).with(Box::new(ArbitrationLayer {
            arbiter: self.clone(),
            slot,
            indicator,
            smoothed: None,
        }))
    }

    /// Registers a bare slot (no controller wiring) and returns its
    /// index.
    pub(crate) fn register_slot(
        &self,
        model: Arc<dyn CompletionModel>,
        utility: UtilityFunction,
        slack: f64,
        stage_count: usize,
    ) -> usize {
        let mut slots = self.lock_slots();
        slots.push(Slot {
            model,
            utility,
            slack,
            progress: 0.0,
            stage_fraction: vec![0.0; stage_count],
            elapsed_secs: 0.0,
            finished: false,
        });
        slots.len() - 1
    }

    /// Updates one slot and recomputes the ticking job's share.
    fn tick_slot(&self, slot: usize, progress: f64, status: &JobStatus) -> u32 {
        let mut slots = self.lock_slots();
        {
            let s = &mut slots[slot];
            s.progress = progress;
            s.stage_fraction = status.stage_fraction.clone();
            s.elapsed_secs = status.elapsed.as_secs_f64();
            s.finished = status.finished;
        }
        // Arbitrate across unfinished jobs with the latest view.
        let active: Vec<usize> = (0..slots.len()).filter(|&i| !slots[i].finished).collect();
        if active.is_empty() || !active.contains(&slot) {
            return 1;
        }
        // The 1-token floor can exceed the configured budget when the
        // active fleet outgrows it; count such rounds instead of
        // absorbing the inflation silently.
        if active.len() as u32 > self.budget {
            self.over_commits.fetch_add(1, Ordering::Relaxed);
        }
        let mut table = CurveTable::default();
        table.reset(active.len(), self.budget.max(active.len() as u32));
        for &i in &active {
            table.push(slots[i].view());
        }
        let pos = active.iter().position(|&i| i == slot).expect("slot active");
        table.split()[pos]
    }

    fn set_deadline(&self, slot: usize, new_deadline: SimDuration) {
        let mut slots = self.lock_slots();
        slots[slot].utility = slots[slot].utility.with_deadline(new_deadline);
    }
}

/// A per-job controller backed by a [`SharedArbiter`]: a passive
/// 1-token inner controller whose decision the [`ArbitrationLayer`]
/// replaces wholesale every tick.
pub type ArbitratedController = Layered<FixedAllocation>;

/// Hysteresis coefficient applied to the arbiter's raw shares.
const ARBITER_HYSTERESIS: f64 = 0.3;

/// Arbitration as a stackable [`ControlLayer`].
///
/// The raw greedy split is smoothed with the same hysteresis the §4.3
/// control loop uses (α = 0.3 here): without it, jobs with near-equal
/// marginal utilities would swap tokens every tick, and each swing
/// demotes or evicts running tasks in the cluster.
pub struct ArbitrationLayer {
    arbiter: Arc<SharedArbiter>,
    slot: usize,
    indicator: IndicatorContext,
    smoothed: Option<f64>,
}

impl ArbitrationLayer {
    fn arbitrated(&mut self, status: &JobStatus) -> ControlDecision {
        let p = self.indicator.progress(&status.stage_fraction);
        let raw = self.arbiter.tick_slot(self.slot, p, status);
        let next = match self.smoothed {
            None => f64::from(raw),
            Some(cur) => cur + ARBITER_HYSTERESIS * (f64::from(raw) - cur),
        };
        self.smoothed = Some(next);
        ControlDecision {
            guarantee: (next.ceil() as u32).max(1),
            raw: Some(f64::from(raw)),
            progress: Some(p),
            predicted_completion: None,
        }
    }
}

impl ControlLayer for ArbitrationLayer {
    fn name(&self) -> &'static str {
        "arbitration"
    }

    fn after_tick(&mut self, status: &JobStatus, _decision: ControlDecision) -> ControlDecision {
        self.arbitrated(status)
    }

    fn after_initial(&mut self, status: &JobStatus, _decision: ControlDecision) -> ControlDecision {
        // Admission behaves like any other tick: the arbiter sizes the
        // job from the budget's current marginal utilities.
        self.arbitrated(status)
    }

    fn deadline_changed(&mut self, new_deadline: SimDuration) {
        self.arbiter.set_deadline(self.slot, new_deadline);
        // A new SLO is a fresh sizing problem (same as JockeyController).
        self.smoothed = None;
    }
}

#[cfg(test)]
mod shared_tests {
    use super::*;
    use crate::cpa::{CpaModel, TrainConfig};
    use crate::progress::{IndicatorContext, ProgressIndicator};
    use jockey_cluster::{ClusterConfig, ClusterSim, FixedAllocation, JobController, JobSpec};
    use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
    use jockey_simrt::dist::Constant;
    use jockey_simrt::time::SimDuration;

    fn trained_job(seed: u64) -> (Arc<jockey_jobgraph::JobGraph>, jockey_jobgraph::JobProfile) {
        let mut b = JobGraphBuilder::new(format!("arb-{seed}"));
        let m = b.stage("map", 24);
        let r = b.stage("reduce", 2);
        b.edge(m, r, EdgeKind::AllToAll);
        let graph = Arc::new(b.build().unwrap());
        let spec = JobSpec::uniform(graph.clone(), Constant(20.0), Constant(0.5), 0.0);
        let mut sim = ClusterSim::new(ClusterConfig::dedicated(6), seed);
        sim.add_job(spec, Box::new(FixedAllocation(6)));
        (graph.clone(), sim.run_single().profile)
    }

    #[test]
    fn two_arbitrated_jobs_share_a_budget_and_meet_deadlines() {
        let (g1, p1) = trained_job(1);
        let (g2, p2) = trained_job(2);
        let ctx1 = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &g1, &p1, None);
        let ctx2 = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &g2, &p2, None);
        let cfg = TrainConfig::fast(vec![1, 2, 4, 8, 12]);
        let m1 = Arc::new(CpaModel::train(&g1, &p1, &ctx1, &cfg, 3));
        let m2 = Arc::new(CpaModel::train(&g2, &p2, &ctx2, &cfg, 4));

        // Tight deadline for job 1, loose for job 2.
        let d1 = SimDuration::from_secs_f64(m1.fresh_latency(12) * 1.6);
        let d2 = SimDuration::from_secs_f64(m2.fresh_latency(12) * 5.0);

        let arbiter = SharedArbiter::new(12);
        let c1 = arbiter.register(
            m1.clone() as Arc<dyn CompletionModel>,
            ctx1,
            UtilityFunction::deadline(d1),
            1.2,
        );
        let c2 = arbiter.register(
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
        // Combined medians stay within the arbiter's budget.
        assert!(
            results[i1].trace.median_guarantee() + results[i2].trace.median_guarantee()
                <= 12.0 + 1e-9
        );
    }

    #[test]
    fn over_commit_rounds_are_counted() {
        let (g, p) = trained_job(7);
        let ctx = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &g, &p, None);
        let cfg = TrainConfig::fast(vec![1, 2, 4]);
        let m = Arc::new(CpaModel::train(&g, &p, &ctx, &cfg, 8));
        // Three jobs on a 2-token arbiter: every arbitration round
        // exceeds the budget via the 1-token floor.
        let arbiter = SharedArbiter::new(2);
        let mut handles: Vec<_> = (0..3)
            .map(|_| {
                arbiter.register(
                    m.clone() as Arc<dyn CompletionModel>,
                    ctx.clone(),
                    UtilityFunction::deadline(SimDuration::from_mins(10)),
                    1.0,
                )
            })
            .collect();
        assert_eq!(arbiter.over_committed_rounds(), 0);
        let status = jockey_cluster::JobStatus {
            now: jockey_simrt::time::SimTime::from_mins(1),
            elapsed: SimDuration::from_mins(1),
            stage_fraction: vec![0.2, 0.0],
            stage_completed: vec![5, 0],
            running: 1,
            running_guaranteed: 1,
            guarantee: 1,
            work_done: 10.0,
            finished: false,
        };
        for h in &mut handles {
            h.tick(&status);
        }
        assert_eq!(arbiter.over_committed_rounds(), 3);
    }

    #[test]
    fn finished_jobs_release_their_share() {
        let (g, p) = trained_job(5);
        let ctx = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &g, &p, None);
        let cfg = TrainConfig::fast(vec![1, 2, 4, 8]);
        let m = Arc::new(CpaModel::train(&g, &p, &ctx, &cfg, 6));
        let arbiter = SharedArbiter::new(8);
        let mut a = arbiter.register(
            m.clone() as Arc<dyn CompletionModel>,
            ctx.clone(),
            UtilityFunction::deadline(SimDuration::from_mins(10)),
            1.2,
        );
        let _b = arbiter.register(
            m as Arc<dyn CompletionModel>,
            ctx,
            UtilityFunction::deadline(SimDuration::from_mins(10)),
            1.2,
        );
        // Drive job A to "finished" and check its share collapses.
        let status = jockey_cluster::JobStatus {
            now: jockey_simrt::time::SimTime::from_mins(5),
            elapsed: SimDuration::from_mins(5),
            stage_fraction: vec![1.0, 1.0],
            stage_completed: vec![24, 2],
            running: 0,
            running_guaranteed: 0,
            guarantee: 4,
            work_done: 0.0,
            finished: true,
        };
        let d = a.tick(&status);
        assert_eq!(d.guarantee, 1, "finished job should hold no budget");
    }
}
