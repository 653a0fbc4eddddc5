//! A mergeable quantile sketch for `C(p, a)` sample cells.
//!
//! [`CellSketch`] is a deterministic fixed-capacity compacting sketch
//! in the KLL/MRL family: items live in levels, an item at level `i`
//! stands for `2^i` original samples, and every level is kept as an
//! ascending-sorted run. When a level outgrows the capacity `k`, its
//! buffer is *pair-compacted*: the sorted buffer is split into adjacent
//! pairs and one item of each pair (alternating parity across
//! compactions) is promoted to the next level with doubled weight.
//!
//! # Error bound
//!
//! One pair-compaction of the level-`i` buffer changes the weight below
//! any query point by at most `2^i` (each pair contributes either its
//! low or its high item; adjacent pairs telescope). The sketch counts
//! every compaction per level, so
//!
//! ```text
//! rank_error_bound() = Σ_i compactions[i] · 2^i
//! ```
//!
//! is a *tracked, worst-case* bound on the rank error of any quantile
//! answer, in units of original samples. Queries interpolate on the
//! expanded weighted multiset exactly as
//! [`percentile_sorted`] does
//! on a raw sorted slice, so a sketch that has never compacted —
//! including every sketch in *exact* mode (`capacity == None`, level 0
//! unbounded) — answers **bit-identically** to the raw sample list.
//! That exactness is what keeps frozen offline-trained models
//! byte-identical to the pre-sketch format.
//!
//! Sketches merge level-wise in `O(items)`: merging preserves both the
//! weighted multiset and the compaction counters, so the bound above
//! survives arbitrary batch splits and absorb orders (the property
//! tests in `cpa` drive this).

use jockey_simrt::stats::percentile_sorted;

/// A mergeable, deterministic compacting quantile sketch over `f64`
/// samples. `capacity == None` is *exact* mode: level 0 is unbounded
/// and never compacts, so the sketch is just a sorted sample list.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSketch {
    /// Per-level buffer capacity; `None` = exact (unbounded level 0).
    capacity: Option<usize>,
    /// `levels[i]`: ascending-sorted items of weight `2^i`.
    levels: Vec<Vec<f64>>,
    /// Pair-compaction operations performed at each level. The low bit
    /// doubles as the next compaction's selection parity, so the
    /// counters fully determine the sketch's future behaviour — no
    /// hidden state to serialize.
    compactions: Vec<u64>,
}

/// Smallest permitted per-level capacity: below this the worst-case
/// rank error per compaction rivals the buffer itself.
pub const MIN_SKETCH_CAPACITY: usize = 8;

impl CellSketch {
    /// An empty sketch. `capacity == None` is exact mode.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is below [`MIN_SKETCH_CAPACITY`].
    pub fn new(capacity: Option<usize>) -> Self {
        if let Some(k) = capacity {
            assert!(k >= MIN_SKETCH_CAPACITY, "sketch capacity {k} too small");
        }
        CellSketch {
            capacity,
            levels: vec![Vec::new()],
            compactions: vec![0],
        }
    }

    /// Builds a sketch by bulk-loading an ascending-sorted batch.
    pub fn from_sorted(sorted: Vec<f64>, capacity: Option<usize>) -> Self {
        let mut s = CellSketch::new(capacity);
        s.levels[0] = sorted;
        s.shrink();
        s
    }

    /// Reconstructs a sketch from serialized parts. Levels are
    /// re-sorted defensively (already-sorted input round-trips
    /// bit-identically). Returns `None` when the shapes disagree.
    pub fn from_parts(
        capacity: Option<usize>,
        mut levels: Vec<Vec<f64>>,
        mut compactions: Vec<u64>,
    ) -> Option<Self> {
        if capacity.is_some_and(|k| k < MIN_SKETCH_CAPACITY) {
            return None;
        }
        if levels.is_empty() {
            levels.push(Vec::new());
        }
        if compactions.len() > levels.len() {
            return None;
        }
        compactions.resize(levels.len(), 0);
        for level in &mut levels {
            level.sort_by(f64::total_cmp);
        }
        Some(CellSketch {
            capacity,
            levels,
            compactions,
        })
    }

    /// The per-level capacity (`None` = exact mode).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The per-level sorted buffers (level `i` items weigh `2^i`).
    pub fn levels(&self) -> &[Vec<f64>] {
        &self.levels
    }

    /// Pair-compactions performed per level.
    pub fn compactions(&self) -> &[u64] {
        &self.compactions
    }

    /// Whether the sketch holds no items at all.
    pub fn is_empty(&self) -> bool {
        self.levels.iter().all(Vec::is_empty)
    }

    /// Total represented sample count (the summed item weights).
    pub fn count(&self) -> u64 {
        self.levels
            .iter()
            .enumerate()
            .map(|(i, l)| (l.len() as u64) << i)
            .sum()
    }

    /// Stored item count (the sketch's actual footprint).
    pub fn item_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Tracked worst-case rank error of any quantile answer, in units
    /// of original samples: `Σ_i compactions[i] · 2^i`. Zero for exact
    /// or never-compacted sketches.
    pub fn rank_error_bound(&self) -> u64 {
        self.compactions
            .iter()
            .enumerate()
            .map(|(i, &c)| c << i)
            .sum()
    }

    /// Inserts one sample.
    pub fn push(&mut self, v: f64) {
        let at = self.levels[0].partition_point(|&x| x.total_cmp(&v).is_lt());
        self.levels[0].insert(at, v);
        self.shrink();
    }

    /// Merges an ascending-sorted batch of samples.
    pub fn extend_sorted(&mut self, sorted: &[f64]) {
        merge_into(&mut self.levels[0], sorted);
        self.shrink();
    }

    /// Folds `other` into `self` level-wise in `O(items)`. The weighted
    /// multisets and compaction counters add, so the merged sketch's
    /// [`CellSketch::rank_error_bound`] is the sum of both bounds plus
    /// whatever compactions the merge itself triggers.
    ///
    /// # Panics
    ///
    /// Panics if the two sketches were built with different capacities.
    pub fn merge(&mut self, other: &CellSketch) {
        assert_eq!(self.capacity, other.capacity, "incompatible sketches");
        if other.levels.len() > self.levels.len() {
            self.levels.resize(other.levels.len(), Vec::new());
            self.compactions.resize(other.levels.len(), 0);
        }
        for (i, level) in other.levels.iter().enumerate() {
            if !level.is_empty() {
                merge_into(&mut self.levels[i], level);
            }
        }
        for (i, &c) in other.compactions.iter().enumerate() {
            self.compactions[i] += c;
        }
        self.shrink();
    }

    /// The `q`-th percentile (`0..=100`) of the expanded weighted
    /// multiset, with the same rank definition and linear interpolation
    /// as [`percentile_sorted`] — to which it is bit-identical whenever
    /// every item weighs 1 (exact mode, or bounded mode before the
    /// first compaction).
    ///
    /// A multi-level sketch is answered without materializing or
    /// sorting its items: the already-sorted levels are walked in
    /// merged order from whichever end is nearer the rank, so a tail
    /// percentile touches only the tail.
    ///
    /// # Panics
    ///
    /// Panics on an empty sketch or a percentile outside `[0, 100]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=100.0).contains(&q), "percentile {q} out of range");
        assert!(!self.is_empty(), "quantile of an empty sketch");
        if self.levels[1..].iter().all(Vec::is_empty) {
            // Single-level fast path: defer to the raw-slice kernel so
            // frozen-mode answers stay bit-for-bit identical.
            return percentile_sorted(&self.levels[0], q);
        }
        let total = self.count();
        // Rank on the expanded multiset of `total` samples, exactly as
        // percentile_sorted ranks a slice of length `total`.
        let rank = q / 100.0 * (total - 1) as f64;
        let lo = rank.floor() as u64;
        let hi = rank.ceil() as u64;
        let (vlo, vhi) = if lo < (total - 1).saturating_sub(hi) {
            self.values_at(false, lo, hi)
        } else {
            // Counted from the top, `hi` comes first. A position past
            // the end saturates to the top item.
            let (vhi, vlo) = self.values_at(
                true,
                (total - 1).saturating_sub(hi),
                (total - 1).saturating_sub(lo),
            );
            (vlo, vhi)
        };
        vlo + (vhi - vlo) * (rank - lo as f64)
    }

    /// The values of the items covering expanded positions `first <=
    /// second` (0-based), counted upward from the smallest item or,
    /// when `from_top`, downward from the largest. The levels are
    /// merged on the fly: each step takes the next item of whichever
    /// level's remaining run holds the extreme value. Items that tie
    /// under `f64::total_cmp` are bitwise equal, so which level yields
    /// a tie first cannot change the answer.
    fn values_at(&self, from_top: bool, first: u64, second: u64) -> (f64, f64) {
        let mut runs: Vec<(&[f64], u64)> = self
            .levels
            .iter()
            .enumerate()
            .filter(|(_, level)| !level.is_empty())
            .map(|(i, level)| (level.as_slice(), 1_u64 << i))
            .collect();
        let mut cum = 0_u64;
        let mut first_value = None;
        loop {
            let (r, v) = if from_top {
                runs.iter()
                    .enumerate()
                    .map(|(r, (run, _))| (r, run[run.len() - 1]))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
            } else {
                runs.iter()
                    .enumerate()
                    .map(|(r, (run, _))| (r, run[0]))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
            }
            .expect("both positions lie within the sketch's count");
            let (run, w) = runs[r];
            cum += w;
            let rest = if from_top {
                &run[..run.len() - 1]
            } else {
                &run[1..]
            };
            if rest.is_empty() {
                runs.swap_remove(r);
            } else {
                runs[r].0 = rest;
            }
            if first < cum && first_value.is_none() {
                first_value = Some(v);
            }
            if second < cum {
                return (first_value.expect("first <= second"), v);
            }
        }
    }

    /// Compacts every over-full level, cascading promotions upward.
    fn shrink(&mut self) {
        let Some(k) = self.capacity else { return };
        let mut i = 0;
        while i < self.levels.len() {
            if self.levels[i].len() > k {
                self.compact_level(i);
            }
            i += 1;
        }
    }

    /// One pair-compaction of level `i`: promote alternate items of the
    /// sorted buffer to level `i + 1` with doubled weight. An odd
    /// trailing item stays at level `i` un-promoted (no error). The
    /// selection parity alternates with the compaction counter so
    /// successive compactions' rank errors partially cancel.
    fn compact_level(&mut self, i: usize) {
        if self.levels.len() == i + 1 {
            self.levels.push(Vec::new());
            self.compactions.push(0);
        }
        let parity = (self.compactions[i] & 1) as usize;
        let (lower, upper) = self.levels.split_at_mut(i + 1);
        let buf = &mut lower[i];
        let even = buf.len() & !1;
        // Gather the promoted items into the buffer's front (each read
        // index `2j + parity` is at or past its write index `j`).
        for j in 0..even / 2 {
            buf[j] = buf[2 * j + parity];
        }
        merge_into(&mut upper[0], &buf[..even / 2]);
        buf.drain(..even);
        self.compactions[i] += 1;
    }
}

/// Merges the ascending-sorted `src` into the ascending-sorted `dst`
/// in place, preserving the bitwise order `f64::total_cmp` defines. The
/// merge fills `dst` from the back, so it needs no scratch buffer. Growth
/// is exact: an unbounded exact-mode level keeps no spare capacity.
fn merge_into(dst: &mut Vec<f64>, src: &[f64]) {
    let (mut i, mut j) = (dst.len(), src.len());
    dst.reserve_exact(j);
    dst.resize(i + j, 0.0);
    while j > 0 {
        let k = i + j - 1;
        if i > 0 && dst[i - 1].total_cmp(&src[j - 1]).is_gt() {
            dst[k] = dst[i - 1];
            i -= 1;
        } else {
            dst[k] = src[j - 1];
            j -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jockey_simrt::rng::SeedDeriver;
    use rand::Rng;

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        percentile_sorted(sorted, q)
    }

    /// The materialize-and-sort quantile the merged walk replaced: the
    /// reference [`CellSketch::quantile`] must match bit for bit.
    fn quantile_by_sort(sketch: &CellSketch, q: f64) -> f64 {
        if sketch.levels()[1..].iter().all(Vec::is_empty) {
            return percentile_sorted(&sketch.levels()[0], q);
        }
        let mut items: Vec<(f64, u64)> = Vec::with_capacity(sketch.item_count());
        for (i, level) in sketch.levels().iter().enumerate() {
            items.extend(level.iter().map(|&v| (v, 1_u64 << i)));
        }
        items.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: u64 = items.iter().map(|&(_, w)| w).sum();
        let rank = q / 100.0 * (total - 1) as f64;
        let lo = rank.floor() as u64;
        let hi = rank.ceil() as u64;
        let value_at = |j: u64| {
            let mut cum = 0_u64;
            for &(v, w) in &items {
                cum += w;
                if j < cum {
                    return v;
                }
            }
            items.last().expect("non-empty items").0
        };
        let (vlo, vhi) = (value_at(lo), value_at(hi));
        vlo + (vhi - vlo) * (rank - lo as f64)
    }

    /// The sketch's documented guarantee, checked directly: for every
    /// probed percentile, the answer must lie between the exact values
    /// at ranks `rank ± (bound + w_max)` — `w_max` covering the
    /// interpolation straddle between two adjacent heavy items.
    fn assert_within_bound(sketch: &CellSketch, sorted: &[f64], q: f64) {
        let v = sketch.quantile(q);
        let n = sorted.len() as f64;
        let slop = (sketch.rank_error_bound() + (1 << (sketch.levels().len() - 1))) as f64;
        let rank = q / 100.0 * (n - 1.0);
        let lo_rank = ((rank - slop).floor().max(0.0)) as usize;
        let hi_rank = ((rank + slop).ceil() as usize).min(sorted.len() - 1);
        assert!(
            sorted[lo_rank] <= v && v <= sorted[hi_rank],
            "q={q}: {v} outside [{}, {}] (bound {slop} ranks)",
            sorted[lo_rank],
            sorted[hi_rank],
        );
    }

    #[test]
    fn exact_mode_matches_percentile_sorted_bit_for_bit() {
        let mut rng = SeedDeriver::new(7).rng("sketch-exact");
        let mut s = CellSketch::new(None);
        let mut raw: Vec<f64> = Vec::new();
        for _ in 0..257 {
            let v: f64 = rng.gen_range(-5.0..5000.0);
            s.push(v);
            raw.push(v);
        }
        raw.sort_by(f64::total_cmp);
        assert_eq!(s.levels()[0], raw);
        assert_eq!(s.rank_error_bound(), 0);
        for q in [0.0, 1.0, 37.5, 50.0, 90.0, 95.0, 99.9, 100.0] {
            assert_eq!(
                s.quantile(q).to_bits(),
                exact_quantile(&raw, q).to_bits(),
                "q={q}"
            );
        }
    }

    #[test]
    fn bounded_mode_stays_within_tracked_rank_error() {
        let mut rng = SeedDeriver::new(11).rng("sketch-bound");
        for k in [8, 16, 64] {
            let mut s = CellSketch::new(Some(k));
            let mut raw: Vec<f64> = Vec::new();
            for _ in 0..4000 {
                let v: f64 = rng.gen_range(0.0..1.0_f64).powi(3) * 1e4;
                s.push(v);
                raw.push(v);
            }
            raw.sort_by(f64::total_cmp);
            assert_eq!(s.count(), raw.len() as u64);
            assert!(s.item_count() <= raw.len());
            assert!(s.rank_error_bound() > 0, "k={k} never compacted");
            for q in [0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
                assert_within_bound(&s, &raw, q);
            }
        }
    }

    /// The merged-order walk answers bit-identically to sorting the
    /// weighted items, on random bounded sketches with heavy ties (a
    /// small value alphabet, signed zeros), several levels, and both
    /// fixed and random percentiles, so both walk directions and the
    /// interpolation straddle across levels are exercised.
    #[test]
    fn merged_walk_matches_sort_based_quantile_bit_for_bit() {
        let mut rng = SeedDeriver::new(17).rng("sketch-walk");
        let (mut checked, mut deep) = (0, 0);
        for case in 0..600 {
            let k = [8, 9, 16, 33][case % 4];
            let mut s = CellSketch::new(Some(k));
            let n = rng.gen_range(1..3000);
            let alphabet = rng.gen_range(1..40);
            for _ in 0..n {
                let v = match case % 3 {
                    0 => f64::from(rng.gen_range(0..alphabet)) - 3.0,
                    1 => [0.0, -0.0, 1.5, -2.25][rng.gen_range(0..4)],
                    _ => rng.gen_range(-1e3..1e4),
                };
                s.push(v);
            }
            // Merge a second sketch in now and then, so counters and
            // levels come from more than one compaction history.
            if case % 5 == 0 {
                let mut other = CellSketch::new(Some(k));
                for _ in 0..rng.gen_range(0..500) {
                    other.push(f64::from(rng.gen_range(0..alphabet)));
                }
                s.merge(&other);
            }
            deep += usize::from(s.levels().len() > 3);
            let mut qs = vec![0.0, 1.0, 50.0, 95.0, 99.9, 100.0];
            qs.extend((0..6).map(|_| rng.gen_range(0.0..=100.0)));
            for q in qs {
                assert_eq!(
                    s.quantile(q).to_bits(),
                    quantile_by_sort(&s, q).to_bits(),
                    "case {case} k={k} n={n} q={q} levels={}",
                    s.levels().len()
                );
                checked += 1;
            }
        }
        assert!(
            checked >= 7000 && deep > 300,
            "{checked} checks, {deep} deep"
        );
    }

    #[test]
    fn merge_is_weight_preserving_and_split_insensitive() {
        let mut rng = SeedDeriver::new(13).rng("sketch-merge");
        let vals: Vec<f64> = (0..3000).map(|_| rng.gen_range(0.0..100.0)).collect();
        let mut sorted = vals.clone();
        sorted.sort_by(f64::total_cmp);

        // One sketch per arbitrary chunk, merged pairwise in a skewed
        // order; the result must keep the total weight and the bound.
        for chunk in [1, 7, 128, 1000] {
            let mut merged = CellSketch::new(Some(16));
            for piece in vals.chunks(chunk) {
                let mut part = CellSketch::new(Some(16));
                for &v in piece {
                    part.push(v);
                }
                merged.merge(&part);
            }
            assert_eq!(merged.count(), vals.len() as u64, "chunk {chunk}");
            for q in [5.0, 50.0, 95.0] {
                assert_within_bound(&merged, &sorted, q);
            }
        }
    }

    #[test]
    fn from_parts_round_trips() {
        let mut s = CellSketch::new(Some(8));
        for i in 0..100 {
            s.push(f64::from(i) * 0.5);
        }
        let rebuilt =
            CellSketch::from_parts(s.capacity(), s.levels().to_vec(), s.compactions().to_vec())
                .expect("parts are valid");
        assert_eq!(rebuilt, s);
        // Shape mismatches are rejected, not mangled.
        assert!(CellSketch::from_parts(Some(8), vec![vec![1.0]], vec![0, 0, 0]).is_none());
        assert!(CellSketch::from_parts(Some(2), vec![vec![1.0]], vec![0]).is_none());
    }

    #[test]
    fn empty_and_tiny_sketches_behave() {
        let mut s = CellSketch::new(None);
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        s.push(3.5);
        assert_eq!(s.quantile(0.0), 3.5);
        assert_eq!(s.quantile(100.0), 3.5);
    }
}
