//! Deterministic pseudo-random number generation for the DABS solver.
//!
//! The paper's GPU implementation seeds every CUDA thread with a 64-bit seed
//! produced by a host-side Mersenne twister, and each device thread then runs
//! Xorshift for cheap per-flip randomness. This crate reproduces that split:
//!
//! * [`Mt19937_64`] — the 64-bit Mersenne twister (Matsumoto & Nishimura),
//!   used on the host to derive seeds for pools, devices and blocks.
//! * [`Xorshift64Star`] — Marsaglia's xorshift with the `*` output scrambler,
//!   the per-"thread" generator used inside search kernels.
//! * [`SplitMix64`] — a tiny seeding generator used to expand a single `u64`
//!   seed into well-distributed initial state.
//!
//! All generators implement the object-safe [`Rng64`] trait, so search code
//! can be written once and tested against any generator (including the
//! [`CountingRng`] / [`FixedSequence`] test doubles).

mod mt;
mod splitmix;
mod xorshift;

pub use mt::Mt19937_64;
pub use splitmix::SplitMix64;
pub use xorshift::{Xorshift64Star, Xoshiro256StarStar};

/// A 64-bit pseudo-random generator.
///
/// The provided methods derive bounded integers, floats and Bernoulli draws
/// from the raw `next_u64` stream; implementors only supply the stream.
pub trait Rng64 {
    /// Next raw 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// Uniform `u32`.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits: the standard (value >> 11) * 2^-53 recipe.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased and
    /// avoids the modulo on the hot path.
    #[inline]
    fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_below bound must be > 0");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            // threshold = 2^64 mod bound
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` index in `[0, bound)`.
    #[inline]
    fn next_index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    fn next_range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u64 + 1;
        lo + self.next_below(span) as i64
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// 64 independent Bernoulli(`p`) draws packed as a bit mask (`p`
    /// clamped to `[0, 1]`; NaN counts as 0).
    ///
    /// Lane `ℓ` fires iff its uniform binary fraction `U_ℓ = 0.b₁b₂…` is
    /// below `p = 0.p₁p₂…`. The comparison is bit-sliced, most significant
    /// digit first: the `k`-th `next_u64` supplies digit `b_k` of all 64
    /// lanes at once, a lane is decided at its first digit that differs
    /// from `p_k`, and the loop stops once every lane is decided or `p`'s
    /// remaining digits are zero. Each digit decides half of the open
    /// lanes, so a mask costs about `log₂ 64 + 1.3 ≈ 7.3` draws whatever
    /// `p` is, and no floating-point math beyond the one scaling of `p`
    /// (resolved to 2⁻⁶⁴).
    #[inline]
    fn next_bernoulli_mask(&mut self, p: f64) -> u64 {
        if p.is_nan() || p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return u64::MAX;
        }
        // p·2⁶⁴: p as a 64-digit binary fraction (exact for p ≥ 2⁻¹¹).
        let mut digits = (p * 18_446_744_073_709_551_616.0) as u64;
        let mut fire = 0u64;
        let mut open = u64::MAX;
        while digits != 0 && open != 0 {
            let b = self.next_u64();
            // All ones where p's current digit is 1.
            let pk = 0u64.wrapping_sub(digits >> 63);
            // b_k < p_k decides "below"; a lane stays open only on b_k = p_k.
            fire |= open & !b & pk;
            open &= !(b ^ pk);
            digits <<= 1;
        }
        fire
    }
}

impl<R: Rng64 + ?Sized> Rng64 for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Fisher–Yates shuffle of a slice, driven by any [`Rng64`].
pub fn shuffle<T, R: Rng64 + ?Sized>(slice: &mut [T], rng: &mut R) {
    for i in (1..slice.len()).rev() {
        let j = rng.next_index(i + 1);
        slice.swap(i, j);
    }
}

/// Sample a random permutation of `0..n`.
pub fn random_permutation<R: Rng64 + ?Sized>(n: usize, rng: &mut R) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    shuffle(&mut perm, rng);
    perm
}

/// Test double: yields a fixed sequence, then panics when exhausted.
#[derive(Debug, Clone)]
pub struct FixedSequence {
    values: Vec<u64>,
    pos: usize,
}

impl FixedSequence {
    pub fn new(values: Vec<u64>) -> Self {
        Self { values, pos: 0 }
    }
}

impl Rng64 for FixedSequence {
    fn next_u64(&mut self) -> u64 {
        let v = self.values[self.pos % self.values.len()];
        self.pos += 1;
        v
    }
}

/// Test double: yields 0, 1, 2, ... wrapping; useful for deterministic walks.
#[derive(Debug, Clone, Default)]
pub struct CountingRng(pub u64);

impl Rng64 for CountingRng {
    fn next_u64(&mut self) -> u64 {
        let v = self.0;
        self.0 = self.0.wrapping_add(1);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xorshift64Star::new(12345);
        for _ in 0..10_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f), "f64 out of range: {f}");
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = Xorshift64Star::new(99);
        for bound in [1u64, 2, 3, 7, 100, 1 << 33] {
            for _ in 0..1000 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_small_range() {
        let mut rng = Xorshift64Star::new(7);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.next_below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn next_range_inclusive_endpoints() {
        let mut rng = Xorshift64Star::new(42);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..10_000 {
            let v = rng.next_range_i64(-3, 3);
            assert!((-3..=3).contains(&v));
            lo_seen |= v == -3;
            hi_seen |= v == 3;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xorshift64Star::new(5);
        let mut v: Vec<usize> = (0..100).collect();
        shuffle(&mut v, &mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn random_permutation_has_all_elements() {
        let mut rng = Mt19937_64::new(2023);
        let p = random_permutation(64, &mut rng);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = Xorshift64Star::new(1);
        for _ in 0..100 {
            assert!(!rng.next_bool(0.0));
            assert!(rng.next_bool(1.1)); // clamp semantics: p >= 1 always true
        }
    }

    /// Counts `next_u64` calls of the wrapped generator.
    struct Draws<R>(R, u64);

    impl<R: Rng64> Rng64 for Draws<R> {
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.next_u64()
        }
    }

    #[test]
    fn bernoulli_mask_lanes_fire_with_probability_p() {
        let mut rng = Draws(Xorshift64Star::new(77), 0);
        for _ in 0..100 {
            assert_eq!(rng.next_bernoulli_mask(0.0), 0);
            assert_eq!(rng.next_bernoulli_mask(f64::NAN), 0);
            assert_eq!(rng.next_bernoulli_mask(1.0), u64::MAX);
        }
        assert_eq!(rng.1, 0, "p = 0 and p = 1 need no draws");
        // p = 0.5 has a single nonzero digit: one draw decides every lane.
        rng.next_bernoulli_mask(0.5);
        assert_eq!(rng.1, 1);

        // Per-lane frequency: lanes are independent Bernoulli(p), so each
        // of the 64 lanes must fire at rate p (tolerance ≥ 5.5 σ).
        let masks = 20_000u32;
        for p in [0.5, 0.3, 0.9] {
            let mut hits = [0u32; 64];
            for _ in 0..masks {
                let m = rng.next_bernoulli_mask(p);
                for (lane, h) in hits.iter_mut().enumerate() {
                    *h += ((m >> lane) & 1) as u32;
                }
            }
            for (lane, &h) in hits.iter().enumerate() {
                let f = h as f64 / masks as f64;
                assert!((f - p).abs() < 0.02, "p={p} lane {lane}: rate {f}");
            }
        }

        // A p below 2⁻¹¹: pooled over all lanes, the fire count must sit
        // within 5 σ of its expectation, and a mask still costs ~7 draws.
        let p = 1.5 / 4096.0;
        let masks = 100_000u64;
        rng.1 = 0;
        let fired: u64 = (0..masks)
            .map(|_| rng.next_bernoulli_mask(p).count_ones() as u64)
            .sum();
        let trials = (masks * 64) as f64;
        let (mean, sd) = (trials * p, (trials * p * (1.0 - p)).sqrt());
        assert!(
            (fired as f64 - mean).abs() < 5.0 * sd,
            "fired {fired}, expected {mean:.0} ± {sd:.0}"
        );
        let per_mask = rng.1 as f64 / masks as f64;
        assert!((6.0..9.0).contains(&per_mask), "{per_mask} draws per mask");
    }

    #[test]
    fn counting_rng_counts() {
        let mut rng = CountingRng(10);
        assert_eq!(rng.next_u64(), 10);
        assert_eq!(rng.next_u64(), 11);
    }

    #[test]
    fn fixed_sequence_cycles() {
        let mut rng = FixedSequence::new(vec![1, 2]);
        assert_eq!(rng.next_u64(), 1);
        assert_eq!(rng.next_u64(), 2);
        assert_eq!(rng.next_u64(), 1);
    }
}
