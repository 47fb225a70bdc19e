//! The workspace's one hasher for trusted integer keys.
//!
//! Hot paths hash page numbers and object ids millions of times per run —
//! [`crate::Memory`]'s page index here, the object tracker's page index
//! and the affinity queue's dedup table in `halo_profile`. SipHash (std's
//! default) is overkill for keys the program itself generates, so they all
//! use the SplitMix64 finalizer, a cheap bijective mixer with full
//! avalanche. It lives in this crate because this is the bottom of the
//! dependency graph.

use std::hash::{BuildHasher, Hasher};

/// SplitMix64's increment, 2⁶⁴ divided by the golden ratio.
pub(crate) const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 finalizer: bijective, full-avalanche integer mixing.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A `BuildHasher` for `HashMap`s keyed by trusted integers (page numbers,
/// object ids). Not DoS-resistant — do not use for attacker-chosen keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastIntState;

impl BuildHasher for FastIntState {
    type Hasher = FastIntHasher;

    fn build_hasher(&self) -> FastIntHasher {
        FastIntHasher(0)
    }
}

/// Hasher produced by [`FastIntState`]; mixes each written word into the
/// running state with [`mix64`].
#[derive(Debug, Default)]
pub struct FastIntHasher(u64);

impl Hasher for FastIntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.0 = mix64(self.0 ^ u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = mix64(self.0 ^ n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_injective_on_a_sample() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)), "collision at {i}");
        }
    }

    #[test]
    fn hasher_distinguishes_nearby_keys() {
        let s = FastIntState;
        let h = |n: u64| {
            let mut h = s.build_hasher();
            h.write_u64(n);
            h.finish()
        };
        assert_ne!(h(0), h(1));
        assert_ne!(h(1) & 0xff, h(2) & 0xff, "low bits avalanche");
    }

    #[test]
    fn byte_writes_match_word_writes_for_whole_words() {
        let s = FastIntState;
        let mut a = s.build_hasher();
        a.write_u64(0xdead_beef);
        let mut b = s.build_hasher();
        b.write(&0xdead_beefu64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }
}
