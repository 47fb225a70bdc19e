//! Property test: the set-associative cache agrees with the move-to-front
//! list it used to be, and the hierarchy obeys basic conservation laws.

#[path = "reference/lru.rs"]
mod lru;

use halo_cache::{CacheConfig, CoherentHierarchy, HierarchyConfig, SetAssocCache, TimingModel};
use lru::MoveToFrontCache;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Hit for hit and victim for victim, at every width the packed order
    /// word allows and over set counts that mask (1, 2, 4) and that
    /// divide (3, 5); a flush part-way returns both to empty. The universe
    /// is three times the capacity, so sets fill, evict and are hit at
    /// every depth. At the end the same lines are resident (probed on a
    /// clone, the shipped cache having no public query that leaves
    /// recency alone).
    #[test]
    fn set_assoc_cache_matches_reference_lru(
        picks in proptest::collection::vec(0u64..1 << 32, 1..800),
        ways in 1u32..17,
        sets in 1u64..6,
        flush_at in 0usize..1600,
    ) {
        let config = CacheConfig {
            size_bytes: sets * ways as u64 * 64,
            line_bytes: 64,
            ways,
        };
        let universe = 3 * sets * ways as u64;
        let mut cache = SetAssocCache::new(config);
        let mut reference = MoveToFrontCache::new(config);
        for (step, pick) in picks.into_iter().enumerate() {
            let line = pick % universe; // treat inputs as line numbers directly
            prop_assert_eq!(
                cache.access_line(line), reference.access_line(line),
                "divergence at step {} on line {}", step, line);
            if step == flush_at {
                cache.flush();
                reference.flush();
            }
        }
        for line in 0..universe {
            prop_assert_eq!(
                cache.clone().access_line(line).0, reference.contains(line * 64),
                "residency of line {} diverged", line);
        }
    }

    #[test]
    fn hierarchy_counters_are_conserved(
        accesses in proptest::collection::vec((0u64..100_000, 1u8..9, any::<bool>()), 1..500),
    ) {
        let mut h = CoherentHierarchy::new(HierarchyConfig::tiny());
        for &(addr, width, store) in &accesses {
            h.access(addr, width, store);
        }
        let s = h.stats();
        // Loads + stores equals the request count (line splitting affects
        // hits/misses, not the request counters).
        prop_assert_eq!(s.loads + s.stores, accesses.len() as u64);
        // Miss counts are monotone down the hierarchy.
        prop_assert!(s.l1_misses <= s.accesses());
        prop_assert!(s.l2_misses <= s.l1_misses);
        prop_assert!(s.l3_misses <= s.l2_misses);
        // The timing model is monotone in the counters.
        let t = TimingModel::default();
        let zero = halo_cache::AccessStats::default();
        prop_assert!(t.cycles(1000, &s) >= t.cycles(1000, &zero));
    }

    #[test]
    fn repeating_any_sequence_cannot_miss_more(
        accesses in proptest::collection::vec(0u64..64, 1..100),
    ) {
        // Replaying the same (small-footprint) sequence twice: the second
        // pass over a working set that fits in L3 never increases the
        // DRAM-level miss count.
        let mut h = CoherentHierarchy::new(HierarchyConfig::tiny());
        for &a in &accesses {
            h.access(a * 64, 8, false);
        }
        let first = h.stats();
        for &a in &accesses {
            h.access(a * 64, 8, false);
        }
        let second = h.stats();
        prop_assert_eq!(
            second.l3_misses, first.l3_misses,
            "a 64-line working set fits L3; the replay must add no DRAM misses"
        );
    }
}
