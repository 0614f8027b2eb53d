//! Incremental one-flip search state (the paper's §III-A).
//!
//! [`IncrementalState`] maintains, for a current vector `X`:
//!
//! * the energy `E(X)`,
//! * every one-flip gain `Δ_k(X) = E(f_k(X)) − E(X)`.
//!
//! After flipping bit `i`, the update rules are (paper Eqs. 4–5):
//!
//! ```text
//! Δ_k ← Δ_k + W_ik · σ(x_i) · σ(x_k)   for k ≠ i   (σ of the pre-flip x_i)
//! Δ_i ← −Δ_i
//! E   ← E + Δ_i(old)
//! ```
//!
//! so a flip costs `O(deg(i))` instead of the `O(n²)` direct evaluation.
//! Every search algorithm in `dabs-search` and every annealing baseline runs
//! on this state.
//!
//! The state is generic over a [`QuboKernel`] backend so the flip loop
//! monomorphizes per weight layout: [`CsrKernel`] (the default, and the only
//! choice before the backend layer existed) chases the mirrored CSR row of
//! the flipped bit, while [`crate::DenseKernel`] streams a padded dense row
//! in 64-column strips. Both produce bit-identical energies and deltas; the
//! backend only changes how fast they appear.
//!
//! On top of the Δ array the state maintains a lazy
//! [`SegmentAggregates`] layer (per-64-gain `min`/`max`, dirty-tracked by
//! the kernels — see [`crate::segments`]), which turns the selection
//! primitives every search strategy uses ([`IncrementalState::min_delta`],
//! [`IncrementalState::min_max_argmin`], [`IncrementalState::select_le`],
//! [`IncrementalState::window_argmin`], …) from `O(n)` re-scans into
//! `O(n/64 + dirty)` reductions, while keeping their results **bit-identical**
//! to a sequential scan (same tie-breaks, and for the uniform pick of
//! [`IncrementalState::select_le`] the same count-then-one-draw RNG stream
//! — the parity suite in `tests/solver_parity.rs` enforces this against
//! the reference scan path in `dabs_search::reference`). Candidate sets
//! are built as 64-lane words, one per segment, so a pick costs one RNG
//! draw however many bits qualify. The one sampler without a scan twin,
//! [`IncrementalState::sampled_argmin`], is held to its exact choice law
//! instead.

use crate::segments::{self, seg_count, seg_of, SegmentAggregates, SEG_SHIFT, SEG_WIDTH};
use crate::{CsrKernel, DenseKernel, QuboKernel, QuboModel, Solution};
use dabs_rng::Rng64;

/// Current solution, its energy, and all one-flip gains.
#[derive(Debug, Clone)]
pub struct IncrementalState<'m, K: QuboKernel = CsrKernel<'m>> {
    model: &'m QuboModel,
    kernel: K,
    x: Solution,
    energy: i64,
    delta: Vec<i64>,
    segs: SegmentAggregates,
    /// Per-segment candidate words of the last [`IncrementalState::select_le`]
    /// (scratch, so a pick allocates nothing).
    cand: Vec<u64>,
    flips: u64,
}

impl<'m> IncrementalState<'m, CsrKernel<'m>> {
    /// CSR-backed state from the all-zeros vector: `E = 0`, `Δ_k = W_kk`.
    pub fn new(model: &'m QuboModel) -> Self {
        Self::with_kernel(model, CsrKernel::new(model))
    }

    /// CSR-backed state from an arbitrary vector (`O(n + m)` single-pass
    /// initialisation).
    pub fn from_solution(model: &'m QuboModel, x: Solution) -> Self {
        Self::from_solution_with(model, CsrKernel::new(model), x)
    }
}

impl<'m> IncrementalState<'m, DenseKernel<'m>> {
    /// Dense-backed state from the all-zeros vector. Panics when `model`
    /// did not build dense storage (`KernelChoice::Dense`, or `Auto` on a
    /// dense instance).
    pub fn new_dense(model: &'m QuboModel) -> Self {
        Self::with_kernel(model, DenseKernel::new(model))
    }

    /// Dense-backed state from an arbitrary vector.
    pub fn from_solution_dense(model: &'m QuboModel, x: Solution) -> Self {
        Self::from_solution_with(model, DenseKernel::new(model), x)
    }
}

impl<'m, K: QuboKernel> IncrementalState<'m, K> {
    /// Start from the all-zeros vector on an explicit kernel:
    /// `E = 0`, `Δ_k = W_kk` — no weight pass needed.
    pub fn with_kernel(model: &'m QuboModel, kernel: K) -> Self {
        assert_eq!(kernel.n(), model.n(), "kernel/model size mismatch");
        Self {
            x: Solution::zeros(model.n()),
            energy: 0,
            delta: kernel.diag().to_vec(),
            segs: SegmentAggregates::all_dirty(model.n()),
            cand: vec![0; seg_count(model.n())],
            model,
            kernel,
            flips: 0,
        }
    }

    /// Start from an arbitrary vector on an explicit kernel. Uses the
    /// kernel's single-pass `O(n + m)` initialisation: energy and all `n`
    /// gains come out of one sweep over the stored weights (the old path
    /// swept them twice — once for `E(X)`, once more for the `Δ_k`).
    pub fn from_solution_with(model: &'m QuboModel, kernel: K, x: Solution) -> Self {
        assert_eq!(kernel.n(), model.n(), "kernel/model size mismatch");
        assert_eq!(x.len(), model.n(), "solution length mismatch");
        let mut delta = vec![0i64; model.n()];
        let energy = kernel.init(&x, &mut delta);
        Self {
            segs: SegmentAggregates::all_dirty(model.n()),
            cand: vec![0; seg_count(model.n())],
            model,
            kernel,
            x,
            energy,
            delta,
            flips: 0,
        }
    }

    /// The model this state evaluates.
    #[inline]
    pub fn model(&self) -> &'m QuboModel {
        self.model
    }

    /// Name of the kernel backend driving the flips.
    #[inline]
    pub fn kernel_name(&self) -> &'static str {
        self.kernel.kernel_name()
    }

    /// Number of bits.
    #[inline]
    pub fn n(&self) -> usize {
        self.delta.len()
    }

    /// Current energy `E(X)`.
    #[inline]
    pub fn energy(&self) -> i64 {
        self.energy
    }

    /// Current vector.
    #[inline]
    pub fn solution(&self) -> &Solution {
        &self.x
    }

    /// Gain of flipping bit `k`.
    #[inline]
    pub fn delta(&self, k: usize) -> i64 {
        self.delta[k]
    }

    /// All gains (hot-path accessor for the scan-style algorithms).
    #[inline]
    pub fn deltas(&self) -> &[i64] {
        &self.delta
    }

    /// Value of bit `i`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        self.x.get(i)
    }

    /// Total flips applied to this state since creation (the paper counts
    /// search effort in flips; batch termination is `≥ b·n` flips).
    #[inline]
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// Lifetime lazy segment re-reductions performed by this state's
    /// aggregates (see [`SegmentAggregates::reductions`]).
    #[inline]
    pub fn seg_reductions(&self) -> u64 {
        self.segs.reductions()
    }

    /// Flip bit `i`, updating the energy, all gains, and the dirtied
    /// segment aggregates. Returns the new energy. `O(deg(i))` (dense
    /// backend: `O(n)` cheap contiguous lanes).
    pub fn flip(&mut self, i: usize) -> i64 {
        let d_i = self.delta[i];
        self.energy += d_i;
        // Δ_j += W_ij σ(x_i_pre) σ(x_j) for all j ≠ i — the backend's job,
        // which also reports (or inline-repairs) the segments it dirtied.
        self.kernel
            .apply_flip_seg(&self.x, i, &mut self.delta, &mut self.segs);
        self.delta[i] = -d_i;
        self.segs.update(i, d_i, -d_i);
        self.x.flip(i);
        self.flips += 1;
        self.energy
    }

    /// Bring both sides of the segment aggregates up to date
    /// (`O(dirty × 64)`, no-op when clean).
    #[inline]
    fn refresh(&mut self) {
        self.segs.refresh(&self.delta);
    }

    /// Bring only the min/argmin side up to date — what every min-bound
    /// primitive needs; max staleness is left for the (rarer) max readers.
    #[inline]
    fn refresh_min(&mut self) {
        self.segs.refresh_min(&self.delta);
    }

    /// Index of a minimum-gain bit and its gain (`argmin_k Δ_k`). Ties break
    /// to the lowest index, matching a sequential scan. `O(n/64 + dirty)`
    /// via the segment aggregates.
    pub fn min_delta(&mut self) -> (usize, i64) {
        self.refresh_min();
        let mut seg = 0usize;
        let mut mn = self.segs.min_of(0);
        for s in 1..self.segs.segments() {
            let m = self.segs.min_of(s);
            if m < mn {
                mn = m;
                seg = s;
            }
        }
        (self.segs.argmin_of(seg), mn)
    }

    /// `(min Δ, max Δ)` over all bits — used by MaxMin's threshold schedule.
    pub fn min_max_delta(&mut self) -> (i64, i64) {
        let (_, lo, hi) = self.min_max_argmin();
        (lo, hi)
    }

    /// `(argmin, min Δ, max Δ)` in one aggregate pass — the fused "pass 1"
    /// of the MaxMin-style strategies. The argmin ties break to the lowest
    /// index, exactly like the sequential scan it replaces.
    pub fn min_max_argmin(&mut self) -> (usize, i64, i64) {
        self.refresh();
        let mut seg = 0usize;
        let mut lo = self.segs.min_of(0);
        let mut hi = self.segs.max_of(0);
        for s in 1..self.segs.segments() {
            let m = self.segs.min_of(s);
            if m < lo {
                lo = m;
                seg = s;
            }
            let x = self.segs.max_of(s);
            hi = if x > hi { x } else { hi };
        }
        (self.segs.argmin_of(seg), lo, hi)
    }

    /// Smallest strictly positive gain, or `i64::MAX` when no gain is
    /// positive — PositiveMin's threshold. A segment whose min is positive
    /// resolves from the aggregate alone (its min *is* its smallest
    /// positive); a segment holding non-positive gains resolves with one
    /// masked min of its positive lanes (`segments::positive_min`).
    /// Near a local minimum nearly all gains are positive, so this is
    /// `O(n/64)` exactly where PositiveMin spends its time.
    pub fn positive_min_delta(&mut self) -> i64 {
        self.refresh_min();
        let mut posmin = i64::MAX;
        for s in 0..self.segs.segments() {
            let mn = self.segs.min_of(s);
            let seg_posmin = if mn > 0 {
                mn
            } else {
                let (lo, hi) = self.segs.bounds(s);
                segments::positive_min(&self.delta[lo..hi])
            };
            posmin = posmin.min(seg_posmin);
        }
        posmin
    }

    /// Pick uniformly among `{k : Δ_k ≤ bound, k allowed}` by counting, with
    /// one RNG draw per pick. `allowed(s)` is the allowed-bit word of
    /// segment `s` (bit `ℓ` ↔ bit `64·s + ℓ`; a tabu list's complement).
    ///
    /// Each segment's candidate word is its `Δ ≤ bound` lane mask
    /// (`segments::le_mask`) and `allowed(s)` — zero, without a look at
    /// its lanes, when the segment min exceeds the bound. With `c`
    /// candidates in all, one `r = rng.next_below(c)` picks the `r`-th in
    /// index order; with none, nothing is drawn and `None` comes back.
    /// That is exactly the protocol of the full-scan references in
    /// `dabs_search::reference`, so choices and RNG streams match them
    /// bit for bit.
    pub fn select_le<R: Rng64 + ?Sized>(
        &mut self,
        bound: i64,
        rng: &mut R,
        allowed: impl Fn(usize) -> u64,
    ) -> Option<usize> {
        self.refresh_min();
        let mut count = 0u64;
        for (s, word) in self.cand.iter_mut().enumerate() {
            *word = if self.segs.min_of(s) > bound {
                0
            } else {
                let (lo, hi) = self.segs.bounds(s);
                segments::le_mask(&self.delta[lo..hi], bound) & allowed(s)
            };
            count += u64::from(word.count_ones());
        }
        if count == 0 {
            return None;
        }
        let mut r = rng.next_below(count);
        for (s, &word) in self.cand.iter().enumerate() {
            let c = u64::from(word.count_ones());
            if r < c {
                return Some((s << SEG_SHIFT) + nth_set_bit(word, r as u32));
            }
            r -= c;
        }
        unreachable!("r < count = total candidate bits")
    }

    /// [`IncrementalState::select_le`] against a floating-point threshold
    /// (MaxMin's `d ~ Uniform[minΔ, D(t)]`), with the candidate test
    /// `(Δ_k as f64) ≤ bound` evaluated exactly as the scan does.
    pub fn select_le_f64<R: Rng64 + ?Sized>(
        &mut self,
        bound: f64,
        rng: &mut R,
        allowed: impl Fn(usize) -> u64,
    ) -> Option<usize> {
        let bound = f64_bound_as_i64(bound)?;
        self.select_le(bound, rng, allowed)
    }

    /// RandomMin's selection: make every bit a candidate independently with
    /// probability `p` and return the allowed candidate of least gain
    /// (ties to the lowest index), or `None` when no allowed bit was drawn.
    /// `allowed(s)` is the allowed-bit word of segment `s`, as in
    /// [`IncrementalState::select_le`].
    ///
    /// Segments are walked in index order against a running best. A
    /// segment whose aggregate min is not below the running best holds no
    /// bit that could win, so its coins are never tossed; every other
    /// segment tosses all 64 at once with one bit-sliced mask
    /// ([`Rng64::next_bernoulli_mask`]), and the walk stops once the best
    /// equals the global min. Leaving out coins that cannot change the
    /// result keeps its law exactly that of the full independent sample —
    /// `P(k) = p·(1−p)^#{allowed j : (Δ_j, j) < (Δ_k, k)}` — while the RNG
    /// stream has no per-bit scan to match.
    pub fn sampled_argmin<R: Rng64 + ?Sized>(
        &mut self,
        p: f64,
        rng: &mut R,
        allowed: impl Fn(usize) -> u64,
    ) -> Option<usize> {
        self.refresh_min();
        let segs = self.segs.segments();
        let global = (0..segs).map(|s| self.segs.min_of(s)).min()?;
        let mut arg = None;
        let mut min_d = i64::MAX;
        for s in 0..segs {
            if self.segs.min_of(s) >= min_d {
                continue;
            }
            let (lo, hi) = self.segs.bounds(s);
            let mut drawn =
                rng.next_bernoulli_mask(p) & allowed(s) & (u64::MAX >> (SEG_WIDTH - (hi - lo)));
            while drawn != 0 {
                let k = lo + drawn.trailing_zeros() as usize;
                drawn &= drawn - 1;
                let d = self.delta[k];
                if d < min_d {
                    min_d = d;
                    arg = Some(k);
                }
            }
            if min_d == global {
                break;
            }
        }
        arg
    }

    /// Argmin over the cyclic window `[start, start + width)` (mod `n`),
    /// visited in window order — CyclicMin's selection. Returns
    /// `(allowed_argmin, unrestricted_argmin)`; the first is `usize::MAX`
    /// when `allowed` rejects the whole window. Both argmins break ties to
    /// the earliest window position, exactly like the element-wise sweep;
    /// whole segments inside the window are skipped when their aggregate
    /// min cannot improve either running minimum.
    pub fn window_argmin(
        &mut self,
        start: usize,
        width: usize,
        allowed: impl Fn(usize) -> bool,
    ) -> (usize, usize) {
        let n = self.n();
        debug_assert!(start < n && width >= 1 && width <= n);
        self.refresh_min();
        let mut arg = usize::MAX;
        let mut min_d = i64::MAX;
        let mut arg_any = usize::MAX;
        let mut min_any = i64::MAX;
        let scan_range = |lo: usize,
                          hi: usize,
                          arg: &mut usize,
                          min_d: &mut i64,
                          arg_any: &mut usize,
                          min_any: &mut i64| {
            let mut k = lo;
            while k < hi {
                let seg = seg_of(k);
                let (_, seg_hi) = self.segs.bounds(seg);
                let chunk_hi = seg_hi.min(hi);
                // A whole in-window segment whose min cannot beat the
                // allowed minimum cannot beat the unrestricted one either
                // (min_any ≤ min_d always) — skip it outright.
                if k == seg << SEG_SHIFT && chunk_hi == seg_hi && self.segs.min_of(seg) >= *min_d {
                    k = chunk_hi;
                    continue;
                }
                for j in k..chunk_hi {
                    let d = self.delta[j];
                    if d < *min_any {
                        *min_any = d;
                        *arg_any = j;
                    }
                    if d < *min_d && allowed(j) {
                        *min_d = d;
                        *arg = j;
                    }
                }
                k = chunk_hi;
            }
        };
        let end = start + width;
        if end <= n {
            scan_range(start, end, &mut arg, &mut min_d, &mut arg_any, &mut min_any);
        } else {
            scan_range(start, n, &mut arg, &mut min_d, &mut arg_any, &mut min_any);
            scan_range(0, end - n, &mut arg, &mut min_d, &mut arg_any, &mut min_any);
        }
        (arg, arg_any)
    }

    /// The best energy among all one-bit neighbours: `E(X) + min_k Δ_k`
    /// (Step 1 of the paper's incremental search algorithm). Returns
    /// `(bit, neighbour_energy)`.
    pub fn best_neighbor(&mut self) -> (usize, i64) {
        let (k, d) = self.min_delta();
        (k, self.energy + d)
    }

    /// Replace the current vector wholesale (`O(n + m)` single-pass
    /// re-init). Keeps the flip counter.
    pub fn reset_to(&mut self, x: Solution) {
        assert_eq!(x.len(), self.model.n());
        self.energy = self.kernel.init(&x, &mut self.delta);
        self.segs.mark_all();
        self.x = x;
    }

    /// Debug-build consistency check: recompute energy, all gains, and the
    /// segment aggregates from scratch — via the model's direct CSR
    /// evaluation, which is independent of the active kernel backend — and
    /// compare. Test helper; panics on divergence.
    pub fn assert_consistent(&mut self) {
        let e = self.model.energy(&self.x);
        assert_eq!(e, self.energy, "incremental energy diverged");
        assert_eq!(
            self.kernel.energy(&self.x),
            self.energy,
            "kernel energy diverged"
        );
        for i in 0..self.n() {
            assert_eq!(
                self.model.delta(&self.x, i),
                self.delta[i],
                "Δ_{i} diverged"
            );
        }
        self.refresh();
        self.segs.assert_matches(&self.delta);
    }
}

/// Index of the `r`-th (0-based) set bit of `word`; `r < word.count_ones()`.
#[inline]
fn nth_set_bit(mut word: u64, r: u32) -> usize {
    debug_assert!(r < word.count_ones());
    for _ in 0..r {
        word &= word - 1;
    }
    word.trailing_zeros() as usize
}

/// The largest `d` with `(d as f64) ≤ bound`, or `None` when no `i64`
/// qualifies (`bound` NaN or below −2⁶³). Since `d ↦ d as f64` is
/// monotone, `(d as f64) ≤ bound ⟺ d ≤` this value, so a float threshold
/// becomes an integer one with the same candidate set.
fn f64_bound_as_i64(bound: f64) -> Option<i64> {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if bound.is_nan() || bound < -TWO_63 {
        return None;
    }
    if bound >= TWO_63 {
        return Some(i64::MAX);
    }
    // ⌊bound⌋ is an i64 here and qualifies. Below 2⁵² every integer near it
    // is exact, so it is the answer; above, integers up to half an ulp
    // (≤ 2¹⁰) past it can still round down to ≤ bound — find the last one.
    let mut t = bound.floor() as i64;
    if bound.abs() >= TWO_52 {
        for step in (0..=10).rev().map(|e| 1i64 << e) {
            if t.checked_add(step).is_some_and(|c| c as f64 <= bound) {
                t += step;
            }
        }
    }
    Some(t)
}

/// Tracks the best (lowest-energy) solution observed during a search,
/// including one-bit neighbours (the paper's `BEST` / `E(BEST)` registers
/// kept in shared memory, updated via `atomicMin`).
#[derive(Debug, Clone)]
pub struct BestTracker {
    best: Solution,
    best_energy: i64,
}

impl BestTracker {
    /// Start from an explicit solution/energy pair.
    pub fn new(solution: Solution, energy: i64) -> Self {
        Self {
            best: solution,
            best_energy: energy,
        }
    }

    /// Start "empty": any observation will replace it.
    pub fn unbounded(n: usize) -> Self {
        Self {
            best: Solution::zeros(n),
            best_energy: i64::MAX,
        }
    }

    /// Record the state's current vector if it improves the best.
    #[inline]
    pub fn observe<K: QuboKernel>(&mut self, state: &IncrementalState<'_, K>) {
        if state.energy() < self.best_energy {
            self.best_energy = state.energy();
            self.best = state.solution().clone();
        }
    }

    /// Record the state's best one-bit neighbour if it improves the best
    /// (Step 1 of the incremental search algorithm). Costs `O(n/64 + dirty)`
    /// for the aggregate argmin plus `O(n)` for the clone only when an
    /// improvement is found — the same "atomicMin rarely fires" argument as
    /// the paper's §V. Takes the state mutably because the argmin may
    /// refresh dirty segment aggregates.
    pub fn observe_neighborhood<K: QuboKernel>(&mut self, state: &mut IncrementalState<'_, K>) {
        let (k, e) = state.best_neighbor();
        if e < self.best_energy {
            let mut sol = state.solution().clone();
            sol.flip(k);
            self.best_energy = e;
            self.best = sol;
        }
        // the current point itself also counts
        self.observe(state);
    }

    /// Record the one-bit neighbour `f_k(X)` if it improves the best.
    /// Used by algorithms that already know their argmin bit, so the `O(n)`
    /// rescan of [`Self::observe_neighborhood`] is skipped.
    #[inline]
    pub fn observe_neighbor<K: QuboKernel>(&mut self, state: &IncrementalState<'_, K>, k: usize) {
        let e = state.energy() + state.delta(k);
        if e < self.best_energy {
            let mut sol = state.solution().clone();
            sol.flip(k);
            self.best_energy = e;
            self.best = sol;
        }
    }

    /// Record an explicit solution/energy pair (e.g. from another worker).
    #[inline]
    pub fn observe_value(&mut self, solution: &Solution, energy: i64) {
        if energy < self.best_energy {
            self.best_energy = energy;
            self.best = solution.clone();
        }
    }

    /// Best energy so far.
    #[inline]
    pub fn energy(&self) -> i64 {
        self.best_energy
    }

    /// Best solution so far.
    #[inline]
    pub fn solution(&self) -> &Solution {
        &self.best
    }

    /// Consume into `(solution, energy)`.
    pub fn into_parts(self) -> (Solution, i64) {
        (self.best, self.best_energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuboBuilder;
    use dabs_rng::{Rng64, Xorshift64Star};

    fn random_model(n: usize, density: f64, seed: u64) -> QuboModel {
        let mut rng = Xorshift64Star::new(seed);
        let mut b = QuboBuilder::new(n);
        for i in 0..n {
            b.add_linear(i, rng.next_range_i64(-9, 9));
            for j in (i + 1)..n {
                if rng.next_bool(density) {
                    b.add_quadratic(i, j, rng.next_range_i64(-9, 9));
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn initial_state_matches_paper() {
        let q = random_model(20, 0.3, 1);
        let mut st = IncrementalState::new(&q);
        assert_eq!(st.energy(), 0);
        for i in 0..20 {
            assert_eq!(st.delta(i), q.diag(i));
        }
        st.assert_consistent();
    }

    #[test]
    fn flips_stay_consistent() {
        let q = random_model(30, 0.25, 2);
        let mut st = IncrementalState::new(&q);
        let mut rng = Xorshift64Star::new(3);
        for _ in 0..200 {
            st.flip(rng.next_index(30));
        }
        st.assert_consistent();
        assert_eq!(st.flips(), 200);
    }

    #[test]
    fn double_flip_is_identity() {
        let q = random_model(15, 0.4, 4);
        let mut st = IncrementalState::new(&q);
        let before_e = st.energy();
        let before_d: Vec<i64> = st.deltas().to_vec();
        st.flip(7);
        st.flip(7);
        assert_eq!(st.energy(), before_e);
        assert_eq!(st.deltas(), &before_d[..]);
    }

    #[test]
    fn flip_returns_new_energy() {
        let q = random_model(10, 0.5, 5);
        let mut st = IncrementalState::new(&q);
        let expect = st.energy() + st.delta(3);
        assert_eq!(st.flip(3), expect);
    }

    #[test]
    fn from_solution_matches_fresh_flips() {
        let q = random_model(25, 0.3, 6);
        let mut rng = Xorshift64Star::new(7);
        let x = Solution::random(25, &mut rng);
        let mut st = IncrementalState::from_solution(&q, x.clone());
        st.assert_consistent();
        assert_eq!(st.energy(), q.energy(&x));
    }

    #[test]
    fn min_delta_and_minmax() {
        let q = random_model(40, 0.2, 8);
        let mut rng = Xorshift64Star::new(9);
        let mut st = IncrementalState::from_solution(&q, Solution::random(40, &mut rng));
        let (k, d) = st.min_delta();
        assert_eq!(d, *st.deltas().iter().min().unwrap());
        assert_eq!(st.delta(k), d);
        let (lo, hi) = st.min_max_delta();
        assert_eq!(lo, d);
        assert_eq!(hi, *st.deltas().iter().max().unwrap());
    }

    /// Upper `z = 4.5` (tail ≈ 3·10⁻⁶) chi-square quantile with `df`
    /// degrees of freedom, by the Wilson–Hilferty cube approximation.
    fn chi2_bound(df: usize) -> f64 {
        let df = df.max(1) as f64;
        let c = 2.0 / (9.0 * df);
        df * (1.0 - c + 4.5 * c.sqrt()).powi(3)
    }

    /// Pearson chi-square of `observed` outcome counts over `trials` draws
    /// against the outcome probabilities `law`, under [`chi2_bound`].
    /// Outcomes expected fewer than 5 times share one pooled bin;
    /// impossible ones must never occur.
    fn assert_law(observed: &[u64], law: impl Iterator<Item = f64>, trials: u32, what: &str) {
        let (mut stat, mut bins) = (0.0, 0usize);
        let (mut pool_obs, mut pool_exp) = (0.0, 0.0);
        for (&o, q) in observed.iter().zip(law) {
            let (o, e) = (o as f64, q * trials as f64);
            if q == 0.0 {
                assert_eq!(o, 0.0, "{what}: outcome of probability 0 drawn");
            } else if e < 5.0 {
                pool_obs += o;
                pool_exp += e;
            } else {
                stat += (o - e).powi(2) / e;
                bins += 1;
            }
        }
        if pool_exp > 0.0 {
            stat += (pool_obs - pool_exp).powi(2) / pool_exp;
            bins += 1;
        }
        let bound = chi2_bound(bins - 1);
        assert!(
            stat <= bound,
            "{what}: chi-square {stat:.1} over {bins} bins exceeds {bound:.1}"
        );
    }

    /// Tabu bits of the choice-law state: among them the lowest holder of
    /// the global min and one bit of the two-bit tail.
    const TABU: [usize; 3] = [0, 77, 129];

    fn allowed(k: usize) -> bool {
        !TABU.contains(&k)
    }

    /// Allowed-bit word of segment `s`: every lane but the [`TABU`] bits.
    fn allowed_word(s: usize) -> u64 {
        TABU.iter()
            .filter(|&&k| k >> SEG_SHIFT == s)
            .fold(u64::MAX, |w, &k| w & !(1 << (k & 63)))
    }

    /// The fixed choice-law model: n = 130 (two full segments and a
    /// two-bit tail), Δ_k = W_kk = `base` + one of 11 offsets in −5..=5,
    /// each offset shared across segments.
    fn tie_model(base: i64) -> QuboModel {
        let n = 130;
        let mut b = QuboBuilder::new(n);
        for k in 0..n {
            b.add_linear(k, base + (k * 37 % 11) as i64 - 5);
        }
        b.build().unwrap()
    }

    #[test]
    fn sampled_argmin_matches_the_exact_choice_law() {
        let q = tie_model(0);
        let n = q.n();
        let mut st = IncrementalState::new(&q);

        // Allowed bits in (Δ, index) order: rank r wins with p·(1−p)^r,
        // and no allowed bit is drawn with (1−p)^#allowed.
        let mut order: Vec<usize> = (0..n).filter(|&k| allowed(k)).collect();
        order.sort_by_key(|&k| (st.delta(k), k));
        let m = order.len();
        let mut rank = vec![usize::MAX; n];
        for (r, &k) in order.iter().enumerate() {
            rank[k] = r;
        }

        let trials = 100_000u32;
        let mut rng = Xorshift64Star::new(31);
        for p in [0.05, 0.3, 0.9, 1.0] {
            // observed[r] per rank; observed[m] counts empty samples.
            let mut observed = vec![0u64; m + 1];
            for _ in 0..trials {
                match st.sampled_argmin(p, &mut rng, allowed_word) {
                    Some(k) => {
                        assert!(allowed(k), "p={p}: tabu bit {k} chosen");
                        observed[rank[k]] += 1;
                    }
                    None => observed[m] += 1,
                }
            }
            let law = (0..=m).map(|r| {
                if r < m {
                    p * (1.0 - p).powi(r as i32)
                } else {
                    (1.0 - p).powi(m as i32)
                }
            });
            assert_law(&observed, law, trials, &format!("p={p}"));
        }
    }

    #[test]
    fn select_le_picks_uniformly_among_the_allowed_candidates() {
        // Count-and-pick must choose every allowed bit with Δ at or below
        // the bound with probability 1/#candidates, across segments, ties
        // and tabu bits — for integer bounds and for float bounds past
        // 2⁵², where `(Δ as f64) ≤ bound` admits 2⁵³ + 1 (it rounds to 2⁵³)
        // but not 2⁵³ − 1 against 2⁵³ − 2.
        const TWO_53: i64 = 1 << 53;
        let trials = 100_000u32;
        let mut rng = Xorshift64Star::new(37);
        let q = tie_model(0);
        let mut st = IncrementalState::new(&q);
        for bound in [-5i64, -2, 3] {
            let cands: Vec<bool> = (0..q.n())
                .map(|k| st.delta(k) <= bound && allowed(k))
                .collect();
            let mut observed = vec![0u64; q.n()];
            for _ in 0..trials {
                observed[st.select_le(bound, &mut rng, allowed_word).unwrap()] += 1;
            }
            let c = cands.iter().filter(|&&b| b).count() as f64;
            let law = cands.iter().map(|&b| if b { 1.0 / c } else { 0.0 });
            assert_law(&observed, law, trials, &format!("bound={bound}"));
        }
        assert_eq!(st.select_le(-6, &mut rng, allowed_word), None);

        let q = tie_model(TWO_53);
        let mut st = IncrementalState::new(&q);
        for bound in [TWO_53 as f64, (TWO_53 - 2) as f64] {
            let cands: Vec<bool> = (0..q.n())
                .map(|k| st.delta(k) as f64 <= bound && allowed(k))
                .collect();
            assert_eq!(
                cands
                    .iter()
                    .zip(0..)
                    .any(|(&b, k)| b && st.delta(k) > bound as i64),
                bound == TWO_53 as f64,
                "bound={bound}: a candidate above ⌊bound⌋ exactly when rounding admits one"
            );
            let mut observed = vec![0u64; q.n()];
            for _ in 0..trials {
                observed[st.select_le_f64(bound, &mut rng, allowed_word).unwrap()] += 1;
            }
            let c = cands.iter().filter(|&&b| b).count() as f64;
            let law = cands.iter().map(|&b| if b { 1.0 / c } else { 0.0 });
            assert_law(&observed, law, trials, &format!("f64 bound={bound}"));
        }
    }

    #[test]
    fn float_bounds_map_to_the_integer_candidate_set() {
        const TWO_53: i64 = 1 << 53;
        assert_eq!(f64_bound_as_i64(2.5), Some(2));
        assert_eq!(f64_bound_as_i64(-2.5), Some(-3));
        assert_eq!(f64_bound_as_i64(TWO_53 as f64), Some(TWO_53 + 1));
        assert_eq!(f64_bound_as_i64(-(TWO_53 as f64)), Some(-TWO_53));
        assert_eq!(f64_bound_as_i64(f64::NAN), None);
        assert_eq!(f64_bound_as_i64(-1e300), None);
        assert_eq!(f64_bound_as_i64(i64::MIN as f64), Some(i64::MIN + 512));
        assert_eq!(f64_bound_as_i64(1e300), Some(i64::MAX));
        // the defining property, at scales where the f64 grid is coarse
        for e in [52, 53, 60, 62] {
            for off in [-3i64, 0, 5] {
                let bound = ((1i64 << e) + off * (1 << (e - 52))) as f64;
                let t = f64_bound_as_i64(bound).unwrap();
                assert!(t as f64 <= bound && (t + 1) as f64 > bound, "2^{e}{off:+}");
            }
        }
    }

    #[test]
    fn best_neighbor_energy() {
        let q = random_model(12, 0.5, 10);
        let mut rng = Xorshift64Star::new(11);
        let mut st = IncrementalState::from_solution(&q, Solution::random(12, &mut rng));
        let (k, e) = st.best_neighbor();
        let mut y = st.solution().clone();
        y.flip(k);
        assert_eq!(q.energy(&y), e);
        // no neighbour beats it
        for i in 0..12 {
            let mut z = st.solution().clone();
            z.flip(i);
            assert!(q.energy(&z) >= e);
        }
    }

    #[test]
    fn reset_to_reinitialises() {
        let q = random_model(16, 0.4, 12);
        let mut rng = Xorshift64Star::new(13);
        let mut st = IncrementalState::new(&q);
        st.flip(0);
        st.flip(5);
        let y = Solution::random(16, &mut rng);
        st.reset_to(y.clone());
        assert_eq!(st.energy(), q.energy(&y));
        st.assert_consistent();
    }

    #[test]
    fn best_tracker_observes_improvements() {
        let q = random_model(10, 0.5, 14);
        let mut st = IncrementalState::new(&q);
        let mut best = BestTracker::unbounded(10);
        best.observe(&st);
        assert_eq!(best.energy(), 0);
        let mut rng = Xorshift64Star::new(15);
        let mut lowest = 0i64;
        for _ in 0..100 {
            st.flip(rng.next_index(10));
            best.observe(&st);
            lowest = lowest.min(st.energy());
        }
        assert_eq!(best.energy(), lowest);
        assert_eq!(q.energy(best.solution()), best.energy());
    }

    #[test]
    fn best_tracker_sees_one_bit_neighbours() {
        let q = random_model(10, 0.5, 16);
        let mut st = IncrementalState::new(&q);
        let mut best = BestTracker::unbounded(10);
        best.observe_neighborhood(&mut st);
        let (_, e) = st.best_neighbor();
        assert_eq!(best.energy(), e.min(st.energy()));
        assert_eq!(q.energy(best.solution()), best.energy());
    }

    #[test]
    fn dense_model_consistency_walk() {
        let q = random_model(50, 1.0, 17);
        let mut st = IncrementalState::new(&q);
        let mut rng = Xorshift64Star::new(18);
        for step in 0..500 {
            st.flip(rng.next_index(50));
            if step % 97 == 0 {
                st.assert_consistent();
            }
        }
        st.assert_consistent();
    }

    #[test]
    fn single_pass_init_matches_the_old_two_pass_path() {
        // Regression for the `from_solution` rewrite: the single-pass
        // kernel init must equal the old reference computation — a full
        // `model.energy(&x)` sweep followed by n independent
        // `model.delta(&x, i)` evaluations — on both backends, across
        // densities and word-boundary sizes.
        for (n, density) in [(25, 0.05), (63, 0.3), (64, 0.95), (65, 0.5), (100, 1.0)] {
            let mut q = random_model(n, density, 600 + n as u64);
            q.select_kernel(crate::KernelChoice::Dense);
            let mut rng = Xorshift64Star::new(700 + n as u64);
            for _ in 0..5 {
                let x = Solution::random(n, &mut rng);
                let old_energy = q.energy(&x);
                let old_delta: Vec<i64> = (0..n).map(|i| q.delta(&x, i)).collect();
                let csr = IncrementalState::from_solution(&q, x.clone());
                assert_eq!(csr.energy(), old_energy, "csr energy n={n}");
                assert_eq!(csr.deltas(), &old_delta[..], "csr deltas n={n}");
                let dense = IncrementalState::from_solution_dense(&q, x.clone());
                assert_eq!(dense.energy(), old_energy, "dense energy n={n}");
                assert_eq!(dense.deltas(), &old_delta[..], "dense deltas n={n}");
            }
        }
    }

    #[test]
    fn dense_backed_state_walks_consistently() {
        let mut q = random_model(70, 0.8, 19);
        q.select_kernel(crate::KernelChoice::Dense);
        assert_eq!(q.kernel_kind(), crate::KernelKind::Dense);
        let mut st = IncrementalState::new_dense(&q);
        assert_eq!(st.kernel_name(), "dense");
        let mut rng = Xorshift64Star::new(20);
        for step in 0..400 {
            st.flip(rng.next_index(70));
            if step % 89 == 0 {
                st.assert_consistent();
            }
        }
        st.assert_consistent();
    }

    #[test]
    fn reset_to_reinitialises_dense_state() {
        let mut q = random_model(33, 0.7, 21);
        q.select_kernel(crate::KernelChoice::Dense);
        let mut rng = Xorshift64Star::new(22);
        let mut st = IncrementalState::new_dense(&q);
        st.flip(3);
        st.flip(17);
        let y = Solution::random(33, &mut rng);
        st.reset_to(y.clone());
        assert_eq!(st.energy(), q.energy(&y));
        st.assert_consistent();
    }
}
