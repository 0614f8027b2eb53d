//! Criterion microbenchmarks for the flip hot loop: `apply_flip` (both
//! kernel backends, with segment-aggregate maintenance) and the selection
//! primitives the search strategies run between flips — at the three
//! parity densities, so a change to the segment layer shows its cost and
//! payoff in one table.
//!
//! Run with `cargo bench -p dabs-model --bench flip_loop`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dabs_model::{IncrementalState, KernelChoice, QuboBuilder, QuboModel};
use dabs_rng::{Rng64, Xorshift64Star};

const N: usize = 512;
const DENSITIES: [f64; 3] = [0.05, 0.5, 0.95];

fn density_model(density: f64) -> QuboModel {
    let mut rng = Xorshift64Star::new(42);
    let mut b = QuboBuilder::new(N);
    b.kernel(KernelChoice::Dense); // build both storages
    for i in 0..N {
        b.add_linear(i, rng.next_range_i64(-99, 99));
        for j in (i + 1)..N {
            if rng.next_bool(density) {
                b.add_quadratic(i, j, rng.next_range_i64(-99, 99));
            }
        }
    }
    b.build().unwrap()
}

fn key(density: f64) -> String {
    format!("d{:02}", (density * 100.0).round() as u32)
}

/// One incremental flip (Eq. 4–5 update + aggregate maintenance), kept on a
/// 2-cycle so the state never drifts: flip i, flip it back.
fn bench_apply_flip(c: &mut Criterion) {
    let mut group = c.benchmark_group("apply_flip");
    for density in DENSITIES {
        let q = density_model(density);
        let mut rng = Xorshift64Star::new(7);
        {
            let mut st = IncrementalState::new(&q);
            let mut i = 0usize;
            group.bench_with_input(BenchmarkId::new("csr", key(density)), &N, |b, _| {
                b.iter(|| {
                    st.flip(i);
                    st.flip(i);
                    i = (i + 97) % N;
                    black_box(st.energy())
                })
            });
        }
        {
            let mut st = IncrementalState::new_dense(&q);
            let mut i = rng.next_index(N);
            group.bench_with_input(BenchmarkId::new("dense", key(density)), &N, |b, _| {
                b.iter(|| {
                    st.flip(i);
                    st.flip(i);
                    i = (i + 97) % N;
                    black_box(st.energy())
                })
            });
        }
    }
    group.finish();
}

/// The selection primitives, each measured right after a flip so the
/// dirty-segment refresh cost is on the clock (that is the real per-flip
/// shape in every strategy).
fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection");
    for density in DENSITIES {
        let q = density_model(density);
        let k = key(density);
        {
            let mut st = IncrementalState::new(&q);
            let mut i = 0usize;
            group.bench_with_input(BenchmarkId::new("min_delta", &k), &N, |b, _| {
                b.iter(|| {
                    st.flip(i % N);
                    i += 31;
                    black_box(st.min_delta())
                })
            });
        }
        {
            let mut st = IncrementalState::new(&q);
            let mut i = 0usize;
            group.bench_with_input(BenchmarkId::new("min_max_argmin", &k), &N, |b, _| {
                b.iter(|| {
                    st.flip(i % N);
                    i += 31;
                    black_box(st.min_max_argmin())
                })
            });
        }
        {
            let mut st = IncrementalState::new(&q);
            let mut i = 0usize;
            group.bench_with_input(BenchmarkId::new("positive_min_delta", &k), &N, |b, _| {
                b.iter(|| {
                    st.flip(i % N);
                    i += 31;
                    black_box(st.positive_min_delta())
                })
            });
        }
        {
            let mut st = IncrementalState::new(&q);
            let mut rng = Xorshift64Star::new(9);
            let mut i = 0usize;
            group.bench_with_input(BenchmarkId::new("select_le_min+4", &k), &N, |b, _| {
                b.iter(|| {
                    st.flip(i % N);
                    i += 31;
                    let (_, min_d) = st.min_delta();
                    black_box(st.select_le(min_d.saturating_add(4), &mut rng, |_| u64::MAX))
                })
            });
        }
        {
            let mut st = IncrementalState::new(&q);
            let mut i = 0usize;
            group.bench_with_input(BenchmarkId::new("window_argmin_n8", &k), &N, |b, _| {
                b.iter(|| {
                    st.flip(i % N);
                    let pos = (i * 13) % N;
                    i += 31;
                    black_box(st.window_argmin(pos, N / 8, |_| true))
                })
            });
        }
    }
    group.finish();
}

/// The full-scan selection the segment layer replaced, for an on-demand
/// before/after on the same machine.
fn bench_naive_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("naive_scan");
    for density in DENSITIES {
        let q = density_model(density);
        let mut st = IncrementalState::new(&q);
        let mut i = 0usize;
        group.bench_with_input(
            BenchmarkId::new("full_min_scan", key(density)),
            &N,
            |b, _| {
                b.iter(|| {
                    st.flip(i % N);
                    i += 31;
                    let deltas = st.deltas();
                    let mut best = (0usize, deltas[0]);
                    for (k, &d) in deltas.iter().enumerate().skip(1) {
                        if d < best.1 {
                            best = (k, d);
                        }
                    }
                    black_box(best)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_apply_flip, bench_selection, bench_naive_scan);
criterion_main!(benches);
