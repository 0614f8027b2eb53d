//! RandomMin search (paper §III-A-5).
//!
//! At iteration `t` of `T`, every bit becomes a *candidate* independently
//! with probability `p(t) = max((t/T)³, c)` where `c = 32/n`; the candidate
//! with minimum gain is flipped. Early iterations sample few bits (diverse,
//! frequently uphill flips); late iterations sample nearly all bits
//! (converging to greedy) — the same annealing shape as MaxMin/CyclicMin
//! with a different randomisation.
//!
//! Candidates are drawn on the segment layer
//! ([`IncrementalState::sampled_argmin`]): a segment's 64 coins are tossed
//! with one bit-sliced Bernoulli mask (≈ 7 raw draws, no logarithm), and
//! only in segments whose aggregate min can still beat the running best.
//! An iteration therefore costs `O(n/64)` plus a mask per contending
//! segment. There is no scan twin in `dabs_search::reference`: the exact
//! choice law is pinned by the sampler's distribution test.

use crate::{cubic, TabuList};
use dabs_model::{BestTracker, IncrementalState, QuboKernel};
use dabs_rng::Rng64;

/// Run RandomMin for `total_flips` flips. Returns the flips performed.
pub fn random_min<K: QuboKernel, R: Rng64 + ?Sized>(
    state: &mut IncrementalState<'_, K>,
    best: &mut BestTracker,
    tabu: &mut TabuList,
    rng: &mut R,
    total_flips: u64,
) -> u64 {
    let n = state.n();
    let floor_p = (32.0 / n as f64).min(1.0);
    let t_max = total_flips;
    for t in 1..=t_max {
        let p = cubic(t as f64 / t_max as f64).max(floor_p).min(1.0);

        // Flip the sampled argmin. With no usable candidate (empty sample
        // or all tabu), flip one uniformly random non-tabu bit instead so
        // the flip count stays exact.
        let bit = match state.sampled_argmin(p, rng, |s| tabu.allowed_word(s)) {
            Some(k) => {
                best.observe_neighbor(state, k);
                k
            }
            None => fallback_bit(state, tabu, rng),
        };
        state.flip(bit);
        tabu.record(bit);
        best.observe(state);
    }
    t_max
}

/// Uniformly random bit, preferring non-tabu ones.
fn fallback_bit<K: QuboKernel, R: Rng64 + ?Sized>(
    state: &IncrementalState<'_, K>,
    tabu: &TabuList,
    rng: &mut R,
) -> usize {
    let n = state.n();
    for _ in 0..8 {
        let k = rng.next_index(n);
        if !tabu.is_tabu(k) {
            return k;
        }
    }
    rng.next_index(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{brute_force_optimum, random_model};
    use dabs_rng::Xorshift64Star;

    #[test]
    fn performs_requested_flips_and_stays_consistent() {
        let q = random_model(64, 0.2, 61);
        let mut st = IncrementalState::new(&q);
        let mut best = BestTracker::unbounded(64);
        let mut tabu = TabuList::new(64, 8);
        let mut rng = Xorshift64Star::new(62);
        let used = random_min(&mut st, &mut best, &mut tabu, &mut rng, 777);
        assert_eq!(used, 777);
        assert_eq!(st.flips(), 777);
        st.assert_consistent();
    }

    #[test]
    fn finds_optimum_of_small_model() {
        let q = random_model(13, 0.6, 63);
        let opt = brute_force_optimum(&q);
        let mut st = IncrementalState::new(&q);
        let mut best = BestTracker::unbounded(13);
        let mut tabu = TabuList::new(13, 4);
        let mut rng = Xorshift64Star::new(64);
        random_min(&mut st, &mut best, &mut tabu, &mut rng, 6_000);
        assert_eq!(best.energy(), opt);
    }

    #[test]
    fn late_iterations_approach_greedy() {
        // At t = T, p = 1, so the flip must be the global (non-tabu) argmin.
        let q = random_model(30, 0.4, 67);
        let mut st = IncrementalState::new(&q);
        let mut tabu = TabuList::new(30, 0);
        let mut rng = Xorshift64Star::new(68);
        // run T-1 of T flips manually via the public fn on a clone, then
        // check: single-iteration call with t_max = 1 gives p = 1 → argmin.
        let (argmin, _) = st.min_delta();
        let mut best = BestTracker::unbounded(30);
        random_min(&mut st, &mut best, &mut tabu, &mut rng, 1);
        assert_eq!(st.flips(), 1);
        // starting from the zero vector, the flipped bit must now be 1
        assert!(st.bit(argmin), "p=1 iteration must flip the global argmin");
    }
}
