//! Tabu bookkeeping (paper §III-A-8).
//!
//! "A tabu period t is specified … If a bit is flipped, we do not flip it
//! again in the next t iterations." The list is shared across all algorithm
//! legs of one batch so a Greedy→MaxMin hand-off cannot immediately undo the
//! previous leg's moves.

use std::collections::VecDeque;

/// Per-bit recency list with O(1) `is_tabu` / `record`, plus the same
/// information as one tabu word per 64-bit segment for the word-mask
/// selections (`IncrementalState::select_le` and friends).
#[derive(Debug, Clone)]
pub struct TabuList {
    /// Logical clock; one tick per recorded flip.
    clock: u64,
    /// Clock value at which each bit was last flipped; 0 = never
    /// (the clock starts at `tenure + 1` so "never" is never tabu).
    last_flip: Vec<u64>,
    tenure: u64,
    /// Bit `i` set iff `is_tabu(i)`.
    tabu: Vec<u64>,
    /// The last `tenure` records, oldest first: the record `tenure` flips
    /// old leaves at each `record`, freeing its bit unless that bit was
    /// recorded again since.
    recent: VecDeque<u32>,
}

impl TabuList {
    /// A list over `n` bits with the given tenure. Tenure 0 disables the
    /// mechanism entirely (`is_tabu` is always false).
    pub fn new(n: usize, tenure: u64) -> Self {
        Self {
            clock: tenure + 1,
            last_flip: vec![0; n],
            tenure,
            tabu: vec![0; n.div_ceil(64)],
            recent: VecDeque::new(),
        }
    }

    /// Tenure this list was created with.
    #[inline]
    pub fn tenure(&self) -> u64 {
        self.tenure
    }

    /// True when bit `i` may not be flipped yet: fewer than `tenure` flips
    /// have been recorded since `i` itself was recorded.
    #[inline]
    pub fn is_tabu(&self, i: usize) -> bool {
        self.tenure > 0 && self.clock - self.last_flip[i] < self.tenure
    }

    /// Allowed-bit word of 64-bit segment `seg`: bit `ℓ` is set iff bit
    /// `64·seg + ℓ` is not tabu (lanes past `n` are set too; the
    /// selections mask them off). The word argument of
    /// `IncrementalState::select_le` and `sampled_argmin`.
    #[inline]
    pub fn allowed_word(&self, seg: usize) -> u64 {
        !self.tabu[seg]
    }

    /// Record that bit `i` was just flipped.
    #[inline]
    pub fn record(&mut self, i: usize) {
        self.clock += 1;
        self.last_flip[i] = self.clock;
        if self.tenure == 0 {
            return;
        }
        self.tabu[i >> 6] |= 1 << (i & 63);
        self.recent.push_back(i as u32);
        if self.recent.len() as u64 > self.tenure {
            let old = self.recent.pop_front().expect("non-empty ring") as usize;
            if self.last_flip[old] == self.clock - self.tenure {
                self.tabu[old >> 6] &= !(1 << (old & 63));
            }
        }
    }

    /// Forget all history (used between batches).
    pub fn clear(&mut self) {
        self.clock = self.tenure + 1;
        self.last_flip.fill(0);
        self.tabu.fill(0);
        self.recent.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_list_has_no_tabu_bits() {
        let t = TabuList::new(10, 8);
        for i in 0..10 {
            assert!(!t.is_tabu(i));
        }
    }

    #[test]
    fn recorded_bit_is_tabu_for_tenure_flips() {
        let mut t = TabuList::new(4, 3);
        t.record(2);
        assert!(t.is_tabu(2));
        t.record(0); // 1 other flip
        assert!(t.is_tabu(2));
        t.record(1); // 2 other flips
        assert!(t.is_tabu(2));
        t.record(3); // 3 other flips: tenure exhausted
        assert!(!t.is_tabu(2), "bit frees after tenure flips");
    }

    #[test]
    fn zero_tenure_disables() {
        let mut t = TabuList::new(4, 0);
        t.record(1);
        assert!(!t.is_tabu(1));
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = TabuList::new(4, 5);
        t.record(0);
        t.record(1);
        assert!(t.is_tabu(0));
        t.clear();
        for i in 0..4 {
            assert!(!t.is_tabu(i));
        }
    }

    #[test]
    fn tabu_words_equal_is_tabu_under_random_records_and_clears() {
        use dabs_rng::{Rng64, Xorshift64Star};
        let mut rng = Xorshift64Star::new(91);
        for n in [5usize, 64, 130] {
            for tenure in [0u64, 1, 8, n as u64 + 3] {
                let mut t = TabuList::new(n, tenure);
                for step in 0..3_000 {
                    if rng.next_below(200) == 0 {
                        t.clear();
                    } else {
                        t.record(rng.next_index(n));
                    }
                    for seg in 0..n.div_ceil(64) {
                        let lanes = (n - seg * 64).min(64);
                        let word = (0..lanes)
                            .filter(|&l| !t.is_tabu(seg * 64 + l))
                            .fold(0u64, |w, l| w | 1 << l);
                        let live = u64::MAX >> (64 - lanes);
                        assert_eq!(
                            t.allowed_word(seg) & live,
                            word,
                            "n={n} tenure={tenure} step={step} seg={seg}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn re_recording_refreshes() {
        let mut t = TabuList::new(3, 2);
        t.record(0);
        t.record(1);
        t.record(0); // refresh bit 0
        t.record(2);
        assert!(t.is_tabu(0), "refreshed bit still tabu");
        assert!(!t.is_tabu(1), "stale bit expired");
    }
}
