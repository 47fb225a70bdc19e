//! Deterministic pseudo-random number generation for workloads.
//!
//! Benchmarks in the paper are measured over repeated trials of real
//! programs; our simulated runs are deterministic instead (see DESIGN.md).
//! Workload programs still need *internal* randomness (e.g. which token type
//! povray's scanner sees next), which the [`crate::Op::Rand`] instruction
//! draws from this generator, seeded per run.

use crate::hash::{mix64, GOLDEN};

/// SplitMix64: a tiny, high-quality, seedable PRNG (Steele et al., 2014).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value: the finaliser of the advanced state.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let z = mix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN);
        z
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "rand bound must be positive");
        // Multiply-shift bounded generation (Lemire); bias is negligible for
        // the small bounds used by workloads and, crucially, deterministic.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_small_range() {
        let mut r = SplitMix64::new(9);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.next_below(4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "rand bound must be positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }
}
