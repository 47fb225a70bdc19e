//! Property test: the set-associative cache agrees with a naive reference
//! model, and the hierarchy obeys basic conservation laws.

use halo_cache::{CacheConfig, CoherentHierarchy, HierarchyConfig, SetAssocCache, TimingModel};
use proptest::prelude::*;

/// The simplest possible LRU cache: per set, a vector ordered by recency,
/// searched linearly.
struct ReferenceLru {
    sets: usize,
    ways: usize,
    data: Vec<Vec<u64>>,
}

impl ReferenceLru {
    fn new(sets: usize, ways: usize) -> Self {
        ReferenceLru { sets, ways, data: vec![Vec::new(); sets] }
    }

    fn access(&mut self, line: u64) -> bool {
        let set = &mut self.data[(line as usize) % self.sets];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            set.remove(pos);
            set.insert(0, line);
            true
        } else {
            set.insert(0, line);
            set.truncate(self.ways);
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn set_assoc_cache_matches_reference_lru(
        accesses in proptest::collection::vec(0u64..512, 1..800),
        ways in 1u32..8,
        sets_log2 in 0u32..4,
    ) {
        let sets = 1u64 << sets_log2;
        let config = CacheConfig {
            size_bytes: sets * ways as u64 * 64,
            line_bytes: 64,
            ways,
        };
        let mut cache = SetAssocCache::new(config);
        let mut reference = ReferenceLru::new(sets as usize, ways as usize);
        for addr in accesses {
            let line = addr; // treat inputs as line numbers directly
            let hit = cache.access_line(line).0;
            let ref_hit = reference.access(line);
            prop_assert_eq!(hit, ref_hit, "divergence at line {}", line);
        }
        prop_assert!(cache.resident_lines() <= (sets * ways as u64) as usize);
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
