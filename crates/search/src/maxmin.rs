//! MaxMin search (paper §III-A-3).
//!
//! An iteration-dependent, simulated-annealing-like schedule. At iteration
//! `t` of `T`:
//!
//! ```text
//! u    = ((T − t)/T)³
//! D(t) = (1 − u)·minΔ + u·maxΔ          (decreasing from maxΔ to minΔ)
//! d    ~ Uniform[minΔ, D(t)]
//! ```
//!
//! and a bit is chosen uniformly at random among `{i : Δ_i ≤ d}`. Early
//! iterations accept large-gain (uphill) flips; late iterations concentrate
//! near the minimum, exactly like a cooling schedule.

use crate::{cubic, TabuList};
use dabs_model::{BestTracker, IncrementalState, QuboKernel};
use dabs_rng::Rng64;

/// Run MaxMin for `total_flips` flips. Returns the flips performed.
pub fn max_min<K: QuboKernel, R: Rng64 + ?Sized>(
    state: &mut IncrementalState<'_, K>,
    best: &mut BestTracker,
    tabu: &mut TabuList,
    rng: &mut R,
    total_flips: u64,
) -> u64 {
    let t_max = total_flips;
    for t in 1..=t_max {
        // Global min/max of Δ plus the argmin for the Step-1 neighbourhood
        // observation — one segment-aggregate reduction, not a full scan.
        let (argmin, min_d, max_d) = state.min_max_argmin();
        best.observe_neighbor(state, argmin);

        let u = cubic((t_max - t) as f64 / t_max as f64);
        let upper = (1.0 - u) * min_d as f64 + u * max_d as f64;
        let span = upper - min_d as f64;
        let threshold = min_d as f64 + rng.next_f64() * span.max(0.0);

        // Pick uniformly among non-tabu bits with Δ_i ≤ threshold: one
        // candidate word per segment, one RNG draw. Since threshold ≥ minΔ
        // a candidate exists unless tabu excludes them all; fall back to
        // the global argmin then.
        let chosen = state.select_le_f64(threshold, rng, |s| tabu.allowed_word(s));
        let bit = chosen.unwrap_or(argmin);
        state.flip(bit);
        tabu.record(bit);
        best.observe(state);
    }
    t_max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{brute_force_optimum, random_model};
    use dabs_rng::Xorshift64Star;

    #[test]
    fn performs_requested_flips_and_stays_consistent() {
        let q = random_model(40, 0.3, 41);
        let mut st = IncrementalState::new(&q);
        let mut best = BestTracker::unbounded(40);
        let mut tabu = TabuList::new(40, 8);
        let mut rng = Xorshift64Star::new(42);
        let used = max_min(&mut st, &mut best, &mut tabu, &mut rng, 500);
        assert_eq!(used, 500);
        assert_eq!(st.flips(), 500);
        st.assert_consistent();
        assert!(best.energy() <= st.energy());
    }

    #[test]
    fn finds_optimum_of_small_model() {
        let q = random_model(14, 0.5, 43);
        let opt = brute_force_optimum(&q);
        let mut st = IncrementalState::new(&q);
        let mut best = BestTracker::unbounded(14);
        let mut tabu = TabuList::new(14, 4);
        let mut rng = Xorshift64Star::new(44);
        max_min(&mut st, &mut best, &mut tabu, &mut rng, 5_000);
        assert_eq!(best.energy(), opt, "MaxMin should solve a 14-bit model");
    }

    #[test]
    fn late_iterations_favor_descent() {
        // Cooling metric: the gap between the selected bit's gain and the
        // current minimum gain, normalised by the min–max spread, must
        // shrink from the early to the late phase of the schedule.
        let q = random_model(60, 0.3, 45);
        let mut st = IncrementalState::new(&q);
        let tabu = TabuList::new(60, 0);
        let mut rng = Xorshift64Star::new(46);
        let t_total = 2_000u64;
        let (mut early_sum, mut late_sum) = (0f64, 0f64);
        let (mut early_n, mut late_n) = (0u64, 0u64);
        // re-implement the loop to observe the normalised selection rank
        for t in 1..=t_total {
            let (min_d, max_d) = st.min_max_delta();
            let u = crate::cubic((t_total - t) as f64 / t_total as f64);
            let upper = (1.0 - u) * min_d as f64 + u * max_d as f64;
            let threshold = min_d as f64 + rng.next_f64() * (upper - min_d as f64).max(0.0);
            let chosen = st
                .select_le_f64(threshold, &mut rng, |s| tabu.allowed_word(s))
                .unwrap();
            let spread = (max_d - min_d).max(1) as f64;
            let gap = (st.delta(chosen) - min_d) as f64 / spread;
            if t <= t_total / 5 {
                early_sum += gap;
                early_n += 1;
            } else if t > t_total - t_total / 5 {
                late_sum += gap;
                late_n += 1;
            }
            st.flip(chosen);
        }
        let early_avg = early_sum / early_n as f64;
        let late_avg = late_sum / late_n as f64;
        assert!(
            late_avg < early_avg * 0.8,
            "cooling failed: early {early_avg}, late {late_avg}"
        );
    }

    #[test]
    fn tabu_fallback_never_stalls() {
        // With a tenure larger than n, nearly everything is tabu; the
        // algorithm must still perform its flips via the argmin fallback.
        let q = random_model(6, 0.8, 47);
        let mut st = IncrementalState::new(&q);
        let mut best = BestTracker::unbounded(6);
        let mut tabu = TabuList::new(6, 100);
        let mut rng = Xorshift64Star::new(48);
        let used = max_min(&mut st, &mut best, &mut tabu, &mut rng, 50);
        assert_eq!(used, 50);
        st.assert_consistent();
    }
}
