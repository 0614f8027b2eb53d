//! Solver-side per-layer metrics for the traced run: `solver_obs()`
//! counter deltas over the measured phase, plus side measurements of bare
//! kernel and strategy flip rates on the workload's own instances, calling
//! the `dabs-model` and `dabs-search` public API directly, outside any
//! solve.

use crate::Outcome;
use dabs_core::solver_obs;
use dabs_model::{
    BestTracker, CsrKernel, DenseKernel, IncrementalState, KernelKind, QuboKernel, QuboModel,
    Solution,
};
use dabs_rng::{Rng64, Xorshift64Star};
use dabs_search::{MainAlgorithm, SearchParams, TabuList};
use std::time::Instant;

/// `solver_obs()` counters at one instant.
pub struct SolverCounters {
    algo_flips: Vec<u64>,
    batches: u64,
    seg_reductions: u64,
    incumbents: u64,
}

impl SolverCounters {
    pub fn now() -> Self {
        let s = solver_obs();
        Self {
            algo_flips: s.flips_by_algo.iter().map(|c| c.get()).collect(),
            batches: s.batches.get(),
            seg_reductions: s.seg_reductions.get(),
            incumbents: s.total_incumbents(),
        }
    }
}

fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Segment re-reductions per flip, flips per batch, improving batches and
/// each strategy's share of flips between `before` and `after`; kernel and
/// strategy flip rates measured on `models`.
pub fn report(
    out: &mut Outcome,
    before: &SolverCounters,
    after: &SolverCounters,
    models: &[&QuboModel],
) {
    let flips: Vec<f64> = after
        .algo_flips
        .iter()
        .zip(&before.algo_flips)
        .map(|(a, b)| a.saturating_sub(*b) as f64)
        .collect();
    let total: f64 = flips.iter().sum();
    let batches = after.batches.saturating_sub(before.batches) as f64;
    let reductions = after.seg_reductions.saturating_sub(before.seg_reductions) as f64;
    let improved = after.incumbents.saturating_sub(before.incumbents) as f64;
    out.layer("model.seg_reductions_per_flip", per(reductions, total));
    out.layer("core.flips_per_batch", per(total, batches));
    out.layer("core.improve_ratio", per(improved, batches));
    let csr = kernel_rate(models, KernelKind::Csr, 400_000, 0xC5);
    let dense = kernel_rate(models, KernelKind::Dense, 400_000, 0xDE);
    out.layer("model.csr_mflips", csr.mflips());
    out.layer("model.dense_mflips", dense.mflips());
    out.layer(
        "model.bytes_per_flip",
        per(csr.bytes + dense.bytes, (csr.flips + dense.flips) as f64),
    );
    for algo in MainAlgorithm::ALL {
        let key = algo.name().to_lowercase();
        let rate = strategy_rate(models, algo, 100_000, 0x5A);
        out.layer(&format!("search.{key}_mflips"), rate.mflips());
        out.layer(
            &format!("search.flip_share.{key}"),
            per(flips[algo.index()], total),
        );
    }
}

/// A measured rate plus how many flips it rests on.
#[derive(Debug, Clone, Copy, Default)]
struct Rate {
    flips: u64,
    secs: f64,
    /// Bytes the flips touch, computed from row lengths (not measured).
    bytes: f64,
}

impl Rate {
    fn mflips(&self) -> f64 {
        if self.secs > 0.0 {
            self.flips as f64 / self.secs / 1e6
        } else {
            0.0
        }
    }

    fn add(&mut self, other: Rate) {
        self.flips += other.flips;
        self.secs += other.secs;
        self.bytes += other.bytes;
    }
}

/// Seeded `IncrementalState::flip` sequence of `flips` flips on every model
/// whose selected kernel is `kind`. Bytes per flip: a CSR flip reads the
/// row's column indices (4 B) and weights (8 B) and reads and writes one
/// gain (16 B) per entry; a dense flip streams the padded row (8 B per
/// column) and reads and writes every gain.
fn kernel_rate(models: &[&QuboModel], kind: KernelKind, flips: u64, seed: u64) -> Rate {
    let mut total = Rate::default();
    for (m, model) in models.iter().enumerate() {
        if model.kernel_kind() != kind {
            continue;
        }
        let n = model.n();
        let mut rng = Xorshift64Star::new(seed ^ (m as u64 + 1));
        let seq: Vec<usize> = (0..flips).map(|_| rng.next_index(n)).collect();
        let start = Solution::random(n, &mut rng);
        let bytes: f64 = match kind {
            KernelKind::Csr => seq
                .iter()
                .map(|&i| model.adjacency().degree(i) as f64 * 28.0 + 16.0)
                .sum(),
            KernelKind::Dense => {
                flips as f64 * ((n.div_ceil(64) * 64) as f64 * 8.0 + n as f64 * 16.0)
            }
        };
        let secs = match kind {
            KernelKind::Csr => time_flips(model, CsrKernel::new(model), start, &seq),
            KernelKind::Dense => time_flips(model, DenseKernel::new(model), start, &seq),
        };
        total.add(Rate { flips, secs, bytes });
    }
    total
}

fn time_flips<K: QuboKernel>(model: &QuboModel, kernel: K, x: Solution, seq: &[usize]) -> f64 {
    let mut state = IncrementalState::from_solution_with(model, kernel, x);
    // One untimed pass warms caches and the lazily built segment layer.
    for &i in seq.iter().take(seq.len() / 4) {
        state.flip(i);
    }
    let t = Instant::now();
    for &i in seq {
        state.flip(i);
    }
    std::hint::black_box(state.energy());
    t.elapsed().as_secs_f64()
}

/// Strategy-level rate of `algo`: repeated main-algorithm legs of the
/// engine's own length (`search_flips(n)`) from a seeded random start, on
/// each model's selected kernel, until `flips` flips per model.
fn strategy_rate(models: &[&QuboModel], algo: MainAlgorithm, flips: u64, seed: u64) -> Rate {
    let mut total = Rate::default();
    for (m, model) in models.iter().enumerate() {
        let r = match model.kernel_kind() {
            KernelKind::Csr => run_legs(model, CsrKernel::new(model), algo, flips, seed ^ m as u64),
            KernelKind::Dense => {
                run_legs(model, DenseKernel::new(model), algo, flips, seed ^ m as u64)
            }
        };
        total.add(r);
    }
    total
}

fn run_legs<K: QuboKernel>(
    model: &QuboModel,
    kernel: K,
    algo: MainAlgorithm,
    flips: u64,
    seed: u64,
) -> Rate {
    let n = model.n();
    let params = SearchParams::default();
    let mut rng = Xorshift64Star::new(seed.wrapping_add(0x5EED));
    let start = Solution::random(n, &mut rng);
    let mut state = IncrementalState::from_solution_with(model, kernel, start);
    let mut best = BestTracker::unbounded(n);
    let mut tabu = TabuList::new(n, params.tabu_tenure);
    let leg = params.search_flips(n);
    let t = Instant::now();
    let mut done = 0u64;
    while done < flips {
        let f = algo.run(&mut state, &mut best, &mut tabu, &mut rng, leg);
        // A leg that cannot move (TwoNeighbor at a 2-opt local minimum)
        // restarts from a fresh random vector.
        if f == 0 {
            state.reset_to(Solution::random(n, &mut rng));
        }
        done += f.max(1);
    }
    std::hint::black_box(best.energy());
    Rate {
        flips: done,
        secs: t.elapsed().as_secs_f64(),
        bytes: 0.0,
    }
}
