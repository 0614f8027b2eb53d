//! PositiveMin search (paper §III-A-6; originally from the authors' FPGA
//! solver \[13\]).
//!
//! Let `posmin = min{Δ_i : Δ_i > 0}`. Every bit with `Δ_i ≤ posmin` is a
//! candidate and one is flipped uniformly at random. Near a local minimum
//! few bits have negative gain, so the smallest *uphill* move gets selected
//! with substantial probability — a built-in escape mechanism that jumps
//! from one local minimum toward another.

use crate::TabuList;
use dabs_model::{BestTracker, IncrementalState, QuboKernel};
use dabs_rng::Rng64;

/// Run PositiveMin for `total_flips` flips. Returns the flips performed.
pub fn positive_min<K: QuboKernel, R: Rng64 + ?Sized>(
    state: &mut IncrementalState<'_, K>,
    best: &mut BestTracker,
    tabu: &mut TabuList,
    rng: &mut R,
    total_flips: u64,
) -> u64 {
    for _ in 0..total_flips {
        // posmin = smallest positive gain, plus the global argmin for the
        // Step-1 observation — both answered from the segment aggregates
        // (a mixed-sign segment takes one masked min of its lanes).
        let (argmin, _) = state.min_delta();
        let posmin = state.positive_min_delta();
        best.observe_neighbor(state, argmin);
        // If no gain is positive, every bit is a candidate (posmin = +∞).

        // Pick uniformly among non-tabu bits with Δ_i ≤ posmin: one
        // candidate word per segment, one RNG draw.
        let chosen = state.select_le(posmin, rng, |s| tabu.allowed_word(s));
        let bit = chosen.unwrap_or(argmin);
        state.flip(bit);
        tabu.record(bit);
        best.observe(state);
    }
    total_flips
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{brute_force_optimum, random_model};
    use dabs_rng::Xorshift64Star;

    #[test]
    fn performs_requested_flips_and_stays_consistent() {
        let q = random_model(48, 0.25, 71);
        let mut st = IncrementalState::new(&q);
        let mut best = BestTracker::unbounded(48);
        let mut tabu = TabuList::new(48, 8);
        let mut rng = Xorshift64Star::new(72);
        let used = positive_min(&mut st, &mut best, &mut tabu, &mut rng, 300);
        assert_eq!(used, 300);
        st.assert_consistent();
    }

    #[test]
    fn finds_optimum_of_small_model() {
        let q = random_model(14, 0.5, 73);
        let opt = brute_force_optimum(&q);
        let mut st = IncrementalState::new(&q);
        let mut best = BestTracker::unbounded(14);
        let mut tabu = TabuList::new(14, 4);
        let mut rng = Xorshift64Star::new(74);
        positive_min(&mut st, &mut best, &mut tabu, &mut rng, 6_000);
        assert_eq!(best.energy(), opt);
    }

    #[test]
    fn escapes_local_minima() {
        // From a local minimum, PositiveMin must take an uphill step
        // (some Δ become candidates via posmin) instead of stalling.
        let q = random_model(20, 0.5, 75);
        let mut st = IncrementalState::new(&q);
        let mut best = BestTracker::unbounded(20);
        let mut tabu = TabuList::new(20, 0);
        // descend to a local min first
        crate::greedy(&mut st, &mut best, &mut tabu, u64::MAX);
        let local_min = st.solution().clone();
        let mut rng = Xorshift64Star::new(76);
        positive_min(&mut st, &mut best, &mut tabu, &mut rng, 5);
        assert_ne!(st.solution(), &local_min, "must move off the local minimum");
        st.assert_consistent();
    }

    #[test]
    fn candidate_set_obeys_posmin_rule() {
        // Verify the selection invariant on a crafted state: candidates are
        // exactly {i : Δ_i ≤ posmin}. We approximate by running one flip
        // many times from the same state and recording which bits get
        // chosen.
        let q = random_model(16, 0.5, 77);
        let base = IncrementalState::new(&q);
        let deltas: Vec<i64> = base.deltas().to_vec();
        let posmin = deltas
            .iter()
            .copied()
            .filter(|&d| d > 0)
            .min()
            .unwrap_or(i64::MAX);
        let allowed: Vec<usize> = (0..16).filter(|&i| deltas[i] <= posmin).collect();
        let mut seen = std::collections::HashSet::new();
        for seed in 0..200u64 {
            let mut st = base.clone();
            let mut best = BestTracker::unbounded(16);
            let mut tabu = TabuList::new(16, 0);
            let mut rng = Xorshift64Star::new(1000 + seed);
            positive_min(&mut st, &mut best, &mut tabu, &mut rng, 1);
            let flipped: Vec<usize> = (0..16).filter(|&i| st.bit(i)).collect();
            assert_eq!(flipped.len(), 1);
            assert!(
                allowed.contains(&flipped[0]),
                "flipped bit {} not in candidate set {allowed:?}",
                flipped[0]
            );
            seen.insert(flipped[0]);
        }
        // with 200 seeds we should see more than one distinct candidate
        // unless the candidate set is a singleton
        if allowed.len() > 1 {
            assert!(seen.len() > 1, "selection should be randomized");
        }
    }
}
