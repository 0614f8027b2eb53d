//! The pre-segment **full-scan** selection path, kept as a
//! reference implementation.
//!
//! Before the segment-aggregate layer existed, every strategy re-scanned
//! the whole Δ array (often twice) to pick its next bit. These functions
//! keep that element-by-element code, for two jobs:
//!
//! * **parity** — `tests/solver_parity.rs` proves the segment-accelerated
//!   strategies produce bit-identical trajectories, best solutions, and
//!   flip counts against these scans under the same RNG streams;
//! * **measurement** — the bench suite's `scan_sweep` entry reports the
//!   strategy-level flips/s of the segment path *relative to this one*, a
//!   machine-independent speedup that CI gates (`docs/BENCHMARKS.md`).
//!
//! The uniform picks of MaxMin and PositiveMin follow the production
//! protocol — count the candidates, draw once, walk to the drawn rank —
//! with per-element scans instead of segment words, so the RNG streams
//! match draw for draw.
//!
//! Nothing in the production solvers calls into this module.

use crate::{cubic, TabuList};
use dabs_model::{BestTracker, IncrementalState, QuboKernel};
use dabs_rng::Rng64;

/// Full-scan argmin over the Δ array (the old `IncrementalState::min_delta`).
pub fn min_delta_scan<K: QuboKernel>(state: &IncrementalState<'_, K>) -> (usize, i64) {
    let deltas = state.deltas();
    let mut best = (0usize, deltas[0]);
    for (k, &d) in deltas.iter().enumerate().skip(1) {
        if d < best.1 {
            best = (k, d);
        }
    }
    best
}

/// [`crate::greedy`] with full-scan argmin selection.
pub fn greedy_scan<K: QuboKernel>(
    state: &mut IncrementalState<'_, K>,
    best: &mut BestTracker,
    tabu: &mut TabuList,
    max_flips: u64,
) -> u64 {
    let mut used = 0;
    best.observe(state);
    while used < max_flips {
        let (k, d) = min_delta_scan(state);
        if d >= 0 {
            break;
        }
        state.flip(k);
        tabu.record(k);
        used += 1;
        best.observe(state);
    }
    used
}

/// Uniform pick among the non-tabu bits whose gain passes `candidate`,
/// element by element: one full scan counts them, one `next_below(count)`
/// draw picks a rank, and a second scan walks to that candidate in index
/// order. No candidate: no draw, `None`.
fn pick_uniform_scan<K: QuboKernel, R: Rng64 + ?Sized>(
    state: &IncrementalState<'_, K>,
    tabu: &TabuList,
    rng: &mut R,
    candidate: impl Fn(i64) -> bool,
) -> Option<usize> {
    let is_candidate = |&(k, &d): &(usize, &i64)| candidate(d) && !tabu.is_tabu(k);
    let deltas = state.deltas().iter().enumerate();
    let count = deltas.clone().filter(is_candidate).count();
    if count == 0 {
        return None;
    }
    let r = rng.next_below(count as u64) as usize;
    deltas.filter(is_candidate).nth(r).map(|(k, _)| k)
}

/// [`crate::max_min`] with three full Δ scans per flip (min/max/argmin
/// pass, then the count and pick passes of the uniform choice).
pub fn max_min_scan<K: QuboKernel, R: Rng64 + ?Sized>(
    state: &mut IncrementalState<'_, K>,
    best: &mut BestTracker,
    tabu: &mut TabuList,
    rng: &mut R,
    total_flips: u64,
) -> u64 {
    let t_max = total_flips;
    for t in 1..=t_max {
        let deltas = state.deltas();
        let mut min_d = deltas[0];
        let mut max_d = deltas[0];
        let mut argmin = 0usize;
        for (k, &d) in deltas.iter().enumerate().skip(1) {
            if d < min_d {
                min_d = d;
                argmin = k;
            }
            if d > max_d {
                max_d = d;
            }
        }
        best.observe_neighbor(state, argmin);

        let u = cubic((t_max - t) as f64 / t_max as f64);
        let upper = (1.0 - u) * min_d as f64 + u * max_d as f64;
        let span = upper - min_d as f64;
        let threshold = min_d as f64 + rng.next_f64() * span.max(0.0);

        let bit =
            pick_uniform_scan(state, tabu, rng, |d| (d as f64) <= threshold).unwrap_or(argmin);
        state.flip(bit);
        tabu.record(bit);
        best.observe(state);
    }
    t_max
}

/// [`crate::positive_min`] with three full Δ scans per flip.
pub fn positive_min_scan<K: QuboKernel, R: Rng64 + ?Sized>(
    state: &mut IncrementalState<'_, K>,
    best: &mut BestTracker,
    tabu: &mut TabuList,
    rng: &mut R,
    total_flips: u64,
) -> u64 {
    for _ in 0..total_flips {
        let deltas = state.deltas();
        let mut posmin = i64::MAX;
        let mut argmin = 0usize;
        let mut min_d = deltas[0];
        for (k, &d) in deltas.iter().enumerate() {
            if d > 0 && d < posmin {
                posmin = d;
            }
            if d < min_d {
                min_d = d;
                argmin = k;
            }
        }
        best.observe_neighbor(state, argmin);

        let bit = pick_uniform_scan(state, tabu, rng, |d| d <= posmin).unwrap_or(argmin);
        state.flip(bit);
        tabu.record(bit);
        best.observe(state);
    }
    total_flips
}

/// [`crate::cyclic_min`] with an element-wise window scan per flip.
pub fn cyclic_min_scan<K: QuboKernel>(
    state: &mut IncrementalState<'_, K>,
    best: &mut BestTracker,
    tabu: &mut TabuList,
    total_flips: u64,
) -> u64 {
    let n = state.n();
    let floor = crate::cyclicmin::WINDOW_FLOOR.min(n);
    let t_max = total_flips;
    let mut pos = 0usize;
    for t in 1..=t_max {
        let frac = cubic(t as f64 / t_max as f64);
        let width = ((frac * n as f64).ceil() as usize).clamp(floor, n);

        let mut arg = usize::MAX;
        let mut min_d = i64::MAX;
        let mut arg_any = usize::MAX;
        let mut min_any = i64::MAX;
        for off in 0..width {
            let k = (pos + off) % n;
            let d = state.delta(k);
            if d < min_any {
                min_any = d;
                arg_any = k;
            }
            if d < min_d && !tabu.is_tabu(k) {
                min_d = d;
                arg = k;
            }
        }
        let bit = if arg == usize::MAX { arg_any } else { arg };
        best.observe_neighbor(state, arg_any);
        state.flip(bit);
        tabu.record(bit);
        best.observe(state);
        pos = (pos + width) % n;
    }
    t_max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_model;
    use dabs_rng::Xorshift64Star;

    #[test]
    fn min_delta_scan_agrees_with_segment_primitive() {
        let q = random_model(90, 0.3, 501);
        let mut st = dabs_model::IncrementalState::new(&q);
        let mut rng = Xorshift64Star::new(502);
        use dabs_rng::Rng64;
        for _ in 0..300 {
            st.flip(rng.next_index(90));
            let naive = min_delta_scan(&st);
            assert_eq!(st.min_delta(), naive);
        }
    }
}
