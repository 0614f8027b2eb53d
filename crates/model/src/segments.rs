//! Incremental per-segment aggregates over the Δ array — the watched-data
//! layer that makes candidate selection scan-free.
//!
//! The one-flip update (paper Eqs. 4–5) is `O(deg(i))`, but every search
//! strategy then *selects* the next bit from the Δ array, and a naive
//! selection re-scans all `n` gains — often twice (min/max pass plus a
//! reservoir pass). At n = 1024 the selection scan, not the kernel,
//! dominates the flip loop.
//!
//! [`SegmentAggregates`] fixes that with the same lazy-structure idea DPLL
//! solvers use for watched literals: state is updated only where a change
//! lands, never globally re-derived. The Δ array is partitioned into
//! [`SEG_WIDTH`]-wide segments (aligned to [`crate::Solution`] words) and a
//! per-segment `min`/`max` is kept:
//!
//! * a flip **marks** the segments it dirtied (CSR: tighten-or-mark per
//!   updated entry of the mirrored row, so a segment goes dirty only when
//!   its recorded extremum's holder moves; dense: every lane changes, so
//!   the whole array is marked and the first query re-reduces it in one
//!   branchless pass — fusing the reduction into the strip update measured
//!   slower, see the dense kernel's note),
//! * a **query** first re-reduces only the dirty segments with chunked,
//!   branchless, autovectorizable loops ([`SegmentAggregates::refresh`]),
//!   then answers from the `n / 64` aggregates,
//! * a **pick** turns the segments that may hold candidates into 64-lane
//!   words with the lane helpers `le_mask` and `positive_min` (AVX-512
//!   mask compares where the CPU has them).
//!
//! Strategies that never scan (simulated annealing's random proposals, the
//! Straight walk) pay only the marking cost — a shift and an `or` per
//! touched row entry — and never a refresh.

/// log2 of the segment width.
pub const SEG_SHIFT: usize = 6;

/// Segment width: 64 gains per segment, matching the 64-bit words of
/// [`crate::Solution`] and the strip width of [`crate::DenseStrips`].
pub const SEG_WIDTH: usize = 1 << SEG_SHIFT;

/// Segment index covering bit `i`.
#[inline(always)]
pub fn seg_of(i: usize) -> usize {
    i >> SEG_SHIFT
}

/// Number of segments covering `n` gains.
#[inline(always)]
pub fn seg_count(n: usize) -> usize {
    n.div_ceil(SEG_WIDTH)
}

/// Per-segment `min`/`max` of a Δ array, maintained incrementally with a
/// dirty bitset (one bit per segment) and lazy re-reduction.
#[derive(Debug, Clone)]
pub struct SegmentAggregates {
    n: usize,
    mins: Vec<i64>,
    /// Lowest index attaining each segment's min — kept alongside the min
    /// so argmin queries never rescan a segment's 64 lanes, and so an
    /// update only invalidates the segment when the *holder itself* moves
    /// up (another lane reaching the same value keeps the aggregates
    /// valid).
    argmins: Vec<u32>,
    maxs: Vec<i64>,
    /// Bit per segment: set = the segment's min/argmin is stale. Min and
    /// max staleness are tracked separately so min-only consumers (greedy
    /// argmin, `select_le`, window scans) never pay for max re-reduction.
    dirty_min: Vec<u64>,
    /// Bit per segment: set = the segment's max is stale.
    dirty_max: Vec<u64>,
    /// Fast path: false means no `dirty_min` bit can be set.
    any_dirty_min: bool,
    /// Fast path: false means no `dirty_max` bit can be set.
    any_dirty_max: bool,
    /// Lifetime count of segment re-reductions (one per segment side
    /// recomputed by [`SegmentAggregates::refresh_min`] /
    /// [`SegmentAggregates::refresh_max`]). A plain field, not an atomic:
    /// observability reads it at batch granularity through
    /// [`SegmentAggregates::reductions`], so the flip loop pays one
    /// register increment per O(64) re-reduction and nothing else.
    reductions: u64,
}

impl SegmentAggregates {
    /// Aggregates for an `n`-gain array, with every segment marked dirty so
    /// the first query reduces from whatever the Δ array then holds.
    pub fn all_dirty(n: usize) -> Self {
        let segs = seg_count(n);
        let mut s = Self {
            n,
            mins: vec![0; segs],
            argmins: vec![0; segs],
            maxs: vec![0; segs],
            dirty_min: vec![0u64; segs.div_ceil(64)],
            dirty_max: vec![0u64; segs.div_ceil(64)],
            any_dirty_min: false,
            any_dirty_max: false,
            reductions: 0,
        };
        s.mark_all();
        s
    }

    /// Number of segments.
    #[inline]
    pub fn segments(&self) -> usize {
        self.mins.len()
    }

    /// Index range `[lo, hi)` of gains covered by segment `seg`.
    #[inline]
    pub fn bounds(&self, seg: usize) -> (usize, usize) {
        let lo = seg << SEG_SHIFT;
        (lo, (lo + SEG_WIDTH).min(self.n))
    }

    /// Mark segment `seg`'s min/argmin stale.
    #[inline(always)]
    pub fn mark_min(&mut self, seg: usize) {
        self.dirty_min[seg >> 6] |= 1u64 << (seg & 63);
        self.any_dirty_min = true;
    }

    /// Mark segment `seg`'s max stale.
    #[inline(always)]
    pub fn mark_max(&mut self, seg: usize) {
        self.dirty_max[seg >> 6] |= 1u64 << (seg & 63);
        self.any_dirty_max = true;
    }

    /// Mark both sides of segment `seg` stale.
    #[inline(always)]
    pub fn mark(&mut self, seg: usize) {
        self.mark_min(seg);
        self.mark_max(seg);
    }

    /// Account for gain `j` changing from `old` to `new` — the incremental
    /// heart of the layer. A changed gain almost never invalidates its
    /// segment's aggregates:
    ///
    /// * `new` below the recorded min ⇒ the min *is* `new` at `j` (tighten,
    ///   no re-reduction; no other lane can tie it, because the recorded
    ///   min bounded every lane from below);
    /// * `new` equal to the min ⇒ the value stands; the holder moves to
    ///   `j` only if `j` is lower (lowest-index tie-break);
    /// * `new` above it ⇒ the min is unchanged **unless** `j` was the
    ///   recorded holder, in which case the true min is unknown and the
    ///   segment is marked for lazy re-reduction (probability ≈ 1/64 for a
    ///   random entry);
    ///
    /// and analogously for the max (value-based, no holder: any update
    /// from the max value marks). A segment that is already dirty
    /// tolerates any interleaving: tightening writes are overwritten by the
    /// eventual [`SegmentAggregates::refresh`], and stale-extremum
    /// comparisons can only add marks.
    #[inline(always)]
    pub fn update(&mut self, j: usize, old: i64, new: i64) {
        let s = j >> SEG_SHIFT;
        let mn = self.mins[s];
        if new < mn {
            self.mins[s] = new;
            self.argmins[s] = j as u32;
        } else if new == mn {
            if (j as u32) < self.argmins[s] {
                self.argmins[s] = j as u32;
            }
        } else if self.argmins[s] == j as u32 {
            self.mark_min(s);
        }
        if new >= self.maxs[s] {
            self.maxs[s] = new;
        } else if old == self.maxs[s] {
            self.mark_max(s);
        }
    }

    /// Mark the segment containing bit `i` stale.
    #[inline(always)]
    pub fn mark_bit(&mut self, i: usize) {
        self.mark(i >> SEG_SHIFT);
    }

    /// Mark every segment stale on both sides (wholesale Δ replacement).
    pub fn mark_all(&mut self) {
        let segs = self.segments();
        for w in 0..self.dirty_min.len() {
            let covered = segs.saturating_sub(w << 6).min(64);
            let word = if covered == 64 {
                u64::MAX
            } else {
                (1u64 << covered) - 1
            };
            self.dirty_min[w] = word;
            self.dirty_max[w] = word;
        }
        let stale = segs > 0;
        self.any_dirty_min = stale;
        self.any_dirty_max = stale;
    }

    /// Store freshly computed aggregates (min, its lowest attaining index,
    /// max) and clear the segment's dirty bits — the integration point for
    /// a backend that re-reduces inline during its update pass. No current
    /// kernel takes that route (the dense backend's fused variant measured
    /// slower than mark-all + one lazy refresh, see
    /// `DenseKernel::apply_flip_seg`'s note), so today only tests and the
    /// trait contract exercise it.
    #[inline(always)]
    pub fn set(&mut self, seg: usize, min: i64, argmin: usize, max: i64) {
        self.mins[seg] = min;
        self.argmins[seg] = argmin as u32;
        self.maxs[seg] = max;
        let clear = !(1u64 << (seg & 63));
        self.dirty_min[seg >> 6] &= clear;
        self.dirty_max[seg >> 6] &= clear;
    }

    /// Minimum gain in segment `seg`. Only meaningful after
    /// [`SegmentAggregates::refresh`].
    #[inline(always)]
    pub fn min_of(&self, seg: usize) -> i64 {
        self.mins[seg]
    }

    /// Lowest index attaining [`SegmentAggregates::min_of`]. Only
    /// meaningful after [`SegmentAggregates::refresh`].
    #[inline(always)]
    pub fn argmin_of(&self, seg: usize) -> usize {
        self.argmins[seg] as usize
    }

    /// Maximum gain in segment `seg`. Only meaningful after
    /// [`SegmentAggregates::refresh`].
    #[inline(always)]
    pub fn max_of(&self, seg: usize) -> i64 {
        self.maxs[seg]
    }

    /// Re-reduce every min-dirty segment's min/argmin from `delta` and
    /// clear the min-dirty set. `O(dirty × 64)` with branchless,
    /// autovectorizable inner loops.
    pub fn refresh_min(&mut self, delta: &[i64]) {
        debug_assert_eq!(delta.len(), self.n);
        if !self.any_dirty_min {
            return;
        }
        for w in 0..self.dirty_min.len() {
            let mut bits = self.dirty_min[w];
            self.dirty_min[w] = 0;
            while bits != 0 {
                let seg = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (lo, hi) = self.bounds(seg);
                let (mn, am) = reduce_min_argmin(lo, &delta[lo..hi]);
                self.mins[seg] = mn;
                self.argmins[seg] = am as u32;
                self.reductions += 1;
            }
        }
        self.any_dirty_min = false;
    }

    /// Re-reduce every max-dirty segment's max from `delta` and clear the
    /// max-dirty set.
    pub fn refresh_max(&mut self, delta: &[i64]) {
        debug_assert_eq!(delta.len(), self.n);
        if !self.any_dirty_max {
            return;
        }
        for w in 0..self.dirty_max.len() {
            let mut bits = self.dirty_max[w];
            self.dirty_max[w] = 0;
            while bits != 0 {
                let seg = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (lo, hi) = self.bounds(seg);
                let mut mx = i64::MIN;
                for &v in &delta[lo..hi] {
                    mx = if v > mx { v } else { mx };
                }
                self.maxs[seg] = mx;
                self.reductions += 1;
            }
        }
        self.any_dirty_max = false;
    }

    /// Lifetime segment re-reductions performed by the lazy refresh paths
    /// (the cost the Δ-segment layer exists to amortize; exported as a
    /// sampled solver counter).
    #[inline]
    pub fn reductions(&self) -> u64 {
        self.reductions
    }

    /// Bring both sides up to date.
    pub fn refresh(&mut self, delta: &[i64]) {
        self.refresh_min(delta);
        self.refresh_max(delta);
    }

    /// True when at least one segment may be stale on either side.
    #[inline]
    pub fn is_dirty(&self) -> bool {
        self.any_dirty_min || self.any_dirty_max
    }

    /// Test-support: assert every segment aggregate equals a fresh
    /// reduction of `delta`. Panics on divergence.
    pub fn assert_matches(&self, delta: &[i64]) {
        assert!(!self.is_dirty(), "aggregates queried while dirty");
        for seg in 0..self.segments() {
            let (lo, hi) = self.bounds(seg);
            let (mn, am, mx) = reduce_min_argmin_max(lo, &delta[lo..hi]);
            assert_eq!(self.mins[seg], mn, "segment {seg} min diverged");
            assert_eq!(
                self.argmins[seg] as usize, am,
                "segment {seg} argmin diverged"
            );
            assert_eq!(self.maxs[seg], mx, "segment {seg} max diverged");
        }
    }
}

/// Lane mask of one segment's gains: bit `k` is set iff `chunk[k] ≤ bound`
/// (`chunk` holds at most [`SEG_WIDTH`] gains; lanes past its end stay
/// clear). Full segments take eight AVX-512 mask compares when the CPU has
/// them; a partial tail segment, or a CPU without AVX-512, takes the
/// portable loop, which gives the same mask.
#[inline]
pub(crate) fn le_mask(chunk: &[i64], bound: i64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if let (Ok(seg), true) = (<&[i64; SEG_WIDTH]>::try_from(chunk), simd::available()) {
        // SAFETY: `simd::available()` just confirmed AVX-512F at runtime.
        #[allow(unsafe_code)]
        return unsafe { simd::le_mask(seg, bound) };
    }
    le_mask_portable(chunk, bound)
}

/// Smallest strictly positive gain of one segment, or `i64::MAX` when none
/// is positive — the masked min of the positive lanes. Dispatches like
/// `le_mask`.
#[inline]
pub(crate) fn positive_min(chunk: &[i64]) -> i64 {
    #[cfg(target_arch = "x86_64")]
    if let (Ok(seg), true) = (<&[i64; SEG_WIDTH]>::try_from(chunk), simd::available()) {
        // SAFETY: `simd::available()` just confirmed AVX-512F at runtime.
        #[allow(unsafe_code)]
        return unsafe { simd::positive_min(seg) };
    }
    positive_min_portable(chunk)
}

/// Portable body of [`le_mask`], and its behavioural reference.
fn le_mask_portable(chunk: &[i64], bound: i64) -> u64 {
    debug_assert!(chunk.len() <= SEG_WIDTH);
    let mut m = 0u64;
    for (k, &d) in chunk.iter().enumerate() {
        m |= u64::from(d <= bound) << k;
    }
    m
}

/// Portable body of [`positive_min`], and its behavioural reference.
fn positive_min_portable(chunk: &[i64]) -> i64 {
    let mut mn = i64::MAX;
    for &d in chunk {
        mn = if d > 0 && d < mn { d } else { mn };
    }
    mn
}

/// Explicit AVX-512 bodies of the lane helpers, one 64-gain segment at a
/// time: eight 8×i64 loads, each resolved by one mask compare.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Runtime CPU check, resolved once: F has the 64-bit mask compares
    /// and masked min.
    pub(super) fn available() -> bool {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
    }

    /// Eight gains of `seg` starting at lane `c·8` (panics past lane 63).
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load8(seg: &[i64; 64], c: usize) -> __m512i {
        let lanes = &seg[c * 8..c * 8 + 8];
        // SAFETY: `lanes` holds exactly eight i64, the extent of the
        // unaligned 8×i64 load.
        unsafe { _mm512_loadu_epi64(lanes.as_ptr()) }
    }

    /// AVX-512 body of [`super::le_mask`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F: callers check [`available`] first.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn le_mask(seg: &[i64; 64], bound: i64) -> u64 {
        let b = _mm512_set1_epi64(bound);
        // Shift-and-or from the top byte down: a serial chain keeps the
        // eight mask bytes in scalar registers (an independent `<< (c·8)`
        // per byte gets vectorized into a slow byte-insert sequence).
        let mut m = 0u64;
        for c in (0..8).rev() {
            m = m << 8 | u64::from(_mm512_cmple_epi64_mask(load8(seg, c), b));
        }
        m
    }

    /// AVX-512 body of [`super::positive_min`]: a running min that only
    /// the positive lanes (`vpcmpgtq` against zero) may lower.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F: callers check [`available`] first.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn positive_min(seg: &[i64; 64]) -> i64 {
        let zero = _mm512_setzero_si512();
        let mut acc = _mm512_set1_epi64(i64::MAX);
        for c in 0..8 {
            let v = load8(seg, c);
            acc = _mm512_mask_min_epi64(acc, _mm512_cmpgt_epi64_mask(v, zero), acc, v);
        }
        _mm512_reduce_min_epi64(acc)
    }
}

/// Min with its lowest attaining absolute index (the chunk starts at
/// `base`) over a (non-empty) slice.
///
/// Two passes on purpose: the value fold compiles to branchless
/// conditional moves, and the index is recovered with one first-match scan
/// (a single well-predicted exit) — measurably faster than a fused
/// `if v < mn { mn = v; am = k }` loop, which mispredicts on every new
/// prefix minimum.
#[inline]
pub fn reduce_min_argmin(base: usize, chunk: &[i64]) -> (i64, usize) {
    debug_assert!(!chunk.is_empty());
    let mut mn = i64::MAX;
    for &v in chunk {
        mn = if v < mn { v } else { mn };
    }
    let mut am = 0usize;
    for (k, &v) in chunk.iter().enumerate() {
        if v == mn {
            am = k;
            break;
        }
    }
    (mn, base + am)
}

/// Min (with lowest attaining absolute index) and max fold over a
/// (non-empty) slice — see [`reduce_min_argmin`] for the two-pass shape.
#[inline]
pub fn reduce_min_argmin_max(base: usize, chunk: &[i64]) -> (i64, usize, i64) {
    let (mn, am) = reduce_min_argmin(base, chunk);
    let mut mx = i64::MIN;
    for &v in chunk {
        mx = if v > mx { v } else { mx };
    }
    (mn, am, mx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabs_rng::{Rng64, Xorshift64Star};

    fn random_delta(n: usize, seed: u64) -> Vec<i64> {
        let mut rng = Xorshift64Star::new(seed);
        (0..n).map(|_| rng.next_range_i64(-500, 500)).collect()
    }

    #[test]
    fn seg_geometry() {
        assert_eq!(seg_count(1), 1);
        assert_eq!(seg_count(64), 1);
        assert_eq!(seg_count(65), 2);
        assert_eq!(seg_of(63), 0);
        assert_eq!(seg_of(64), 1);
        let s = SegmentAggregates::all_dirty(130);
        assert_eq!(s.segments(), 3);
        assert_eq!(s.bounds(2), (128, 130));
    }

    #[test]
    fn refresh_matches_full_reduction_at_word_boundaries() {
        for n in [1usize, 63, 64, 65, 128, 129, 300] {
            let delta = random_delta(n, n as u64);
            let mut s = SegmentAggregates::all_dirty(n);
            s.refresh(&delta);
            s.assert_matches(&delta);
        }
    }

    #[test]
    fn only_marked_segments_are_re_reduced() {
        let mut delta = random_delta(256, 9);
        let mut s = SegmentAggregates::all_dirty(256);
        s.refresh(&delta);
        // mutate two segments, mark only one: the unmarked one stays stale
        delta[0] = -9_999;
        delta[200] = -9_999;
        s.mark_bit(200);
        s.refresh(&delta);
        assert_eq!(s.min_of(3), -9_999);
        assert_ne!(s.min_of(0), -9_999, "unmarked segment must not refresh");
        // marking it catches up
        s.mark_bit(0);
        s.refresh(&delta);
        s.assert_matches(&delta);
    }

    #[test]
    fn set_clears_dirty_for_that_segment() {
        let delta = random_delta(128, 4);
        let mut s = SegmentAggregates::all_dirty(128);
        let (mn, am, mx) = reduce_min_argmin_max(64, &delta[64..128]);
        s.set(1, mn, am, mx);
        s.refresh(&delta);
        s.assert_matches(&delta);
    }

    #[test]
    fn mark_all_covers_partial_last_word() {
        // 70 segments → dirty words [64, 6]: the second word's high bits
        // must not be set (they would index past the segment arrays).
        let n = 70 * SEG_WIDTH;
        let delta = random_delta(n, 5);
        let mut s = SegmentAggregates::all_dirty(n);
        s.refresh(&delta);
        s.assert_matches(&delta);
    }

    #[test]
    fn reduce_handles_extremes_and_breaks_ties_low() {
        assert_eq!(
            reduce_min_argmin_max(0, &[i64::MAX]),
            (i64::MAX, 0, i64::MAX)
        );
        assert_eq!(reduce_min_argmin_max(5, &[i64::MIN, 0]), (i64::MIN, 5, 0));
        assert_eq!(reduce_min_argmin_max(10, &[3, -1, 7, -1]), (-1, 11, 7));
    }

    #[test]
    fn lane_helpers_match_the_portable_path() {
        // Word-boundary sizes: full segments take the AVX-512 bodies where
        // the CPU has them, the partial tails always take the portable
        // loop; the portable path is also run directly on every segment.
        for n in [63usize, 64, 65, 129] {
            let mut delta = random_delta(n, 40 + n as u64);
            // extremes and zeros, so sign and bound edges are on the grid
            delta[0] = i64::MIN;
            delta[n / 2] = i64::MAX;
            delta[n - 1] = 0;
            let s = SegmentAggregates::all_dirty(n);
            for seg in 0..s.segments() {
                let (lo, hi) = s.bounds(seg);
                let chunk = &delta[lo..hi];
                for bound in [i64::MIN, -501, -7, 0, 1, 250, i64::MAX] {
                    let m = le_mask_portable(chunk, bound);
                    let naive = chunk
                        .iter()
                        .enumerate()
                        .filter(|&(_, &d)| d <= bound)
                        .fold(0u64, |m, (k, _)| m | 1 << k);
                    assert_eq!(m, naive, "n={n} seg={seg} bound={bound}: portable mask");
                    assert_eq!(le_mask(chunk, bound), m, "n={n} seg={seg} bound={bound}");
                }
                let p = positive_min_portable(chunk);
                let naive = chunk.iter().copied().filter(|&d| d > 0).min();
                assert_eq!(
                    p,
                    naive.unwrap_or(i64::MAX),
                    "n={n} seg={seg}: portable posmin"
                );
                assert_eq!(positive_min(chunk), p, "n={n} seg={seg}: posmin");
            }
        }
        // no positive lane at all
        assert_eq!(positive_min(&[0; SEG_WIDTH]), i64::MAX);
        assert_eq!(positive_min_portable(&[-3; SEG_WIDTH]), i64::MAX);
    }

    #[test]
    fn update_tracks_holder_moves_and_invalidation() {
        let mut delta = vec![5i64, 3, 9, 3];
        let mut s = SegmentAggregates::all_dirty(4);
        s.refresh(&delta);
        assert_eq!((s.min_of(0), s.argmin_of(0)), (3, 1));
        // a tie at a higher index leaves the holder alone
        delta[3] = 3;
        s.update(3, 3, 3);
        assert_eq!(s.argmin_of(0), 1);
        // the holder moving up marks the segment; refresh finds the tie
        delta[1] = 8;
        s.update(1, 3, 8);
        assert!(s.is_dirty());
        s.refresh(&delta);
        assert_eq!((s.min_of(0), s.argmin_of(0)), (3, 3));
        // an interior move (touching neither extremum) keeps aggregates
        // valid without any re-reduction
        delta[0] = 4;
        s.update(0, 5, 4);
        assert!(!s.is_dirty());
        s.assert_matches(&delta);
    }
}
