//! Differential property suite: the fused fast-path hierarchy against the
//! retained reference walk.
//!
//! [`CoherentHierarchy`]'s fast paths (precomputed shift/mask geometry,
//! single-line short-circuit, per-thread MRU line filter, timestamp-LRU L1)
//! are all claimed to be *exactly* equivalent to the original per-access
//! division-based walk preserved in `reference/mod.rs`. These properties
//! prove it on randomized traces across geometries (including ways=1,
//! non-power-of-two set counts and page sizes, an L1 line narrower than the
//! L2/L3 line, and prefetch on/off), thread interleavings (one thread and
//! four) and interleaved flushes — counter for counter, MESI-lite state
//! for state.
//!
//! Case count per property follows the vendored proptest's config and the
//! `HALO_PROPTEST_CASES` override (CI trims it, soak runs raise it).

mod reference;

use halo_cache::{CacheConfig, CoherenceStats, CoherentHierarchy, HierarchyConfig, TimingModel};
use proptest::prelude::*;
use reference::ReferenceCoherentHierarchy;

/// A small geometry from the generated knobs. L1 set counts of 3 exercise
/// the modulo fallback (no mask); sets=1 exercises the degenerate
/// fully-associative corner; ways=1 the direct-mapped one. `outer_line` is
/// the L2/L3 line size, never below the L1's: the mixed case (32 B over
/// 64 B) is where a line number derived with the wrong level's shift
/// shows. The L2/L3 stay small so evictions and prefetch interactions
/// actually happen within a few hundred accesses.
#[allow(clippy::too_many_arguments)]
fn geometry(
    line: u64,
    outer_line: u64,
    l1_ways: u32,
    l1_sets: u64,
    prefetch: bool,
    page_bytes: u64,
    tlb_ways: u32,
    tlb_sets: u32,
) -> HierarchyConfig {
    let outer = outer_line.max(line);
    HierarchyConfig {
        l1: CacheConfig {
            size_bytes: line * u64::from(l1_ways) * l1_sets,
            line_bytes: line,
            ways: l1_ways,
        },
        l2: CacheConfig { size_bytes: outer * 4 * 8, line_bytes: outer, ways: 4 },
        l3: CacheConfig { size_bytes: outer * 8 * 16, line_bytes: outer, ways: 8 },
        tlb_entries: tlb_ways * tlb_sets,
        tlb_ways,
        page_bytes,
        adjacent_line_prefetch: prefetch,
    }
}

/// Page sizes under test: the real 4 KiB, a non-power-of-two (the page
/// divider must fall back to division), and one small enough that most
/// accesses touch several pages.
const PAGES: [u64; 3] = [4096, 1000, 128];

/// Width from a generated exponent: 1..=16 bytes, so wide accesses
/// straddle lines and pages.
fn widths(step_exp: u8) -> u8 {
    1u8 << (step_exp % 5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fast path ≡ reference MESI-lite walk: aggregate counters,
    /// coherence traffic, per-thread breakdowns, and the MESI-lite state of
    /// every touched line in every thread's L1D, including across
    /// interleaved flushes (which reset every MRU filter). A quarter of the
    /// accesses revisit the previous address — by the same thread that is
    /// the MRU-filter hit, by another it is true sharing — which uniform
    /// addresses almost never produce. On one thread the model is the
    /// plain single-core hierarchy: no coherence counter may move and the
    /// coherent cycle formula must reduce to the plain one.
    #[test]
    fn coherent_hierarchy_matches_reference(
        line_exp in 5u32..7,
        outer_line_exp in 5u32..7,
        l1_ways in 1u32..5,
        l1_sets in 1u64..5,
        prefetch in any::<bool>(),
        page_sel in 0usize..3,
        tlb_ways in 1u32..3,
        tlb_sets in 1u32..5,
        threads in prop_oneof![Just(1u16), Just(4u16)],
        trace in proptest::collection::vec(
            (0u16..4, 0u64..8192, 0u8..5, any::<bool>(), 0u8..4), 1..400),
    ) {
        let config = geometry(
            1 << line_exp, 1 << outer_line_exp, l1_ways, l1_sets, prefetch, PAGES[page_sel],
            tlb_ways, tlb_sets,
        );
        // Four threads share a 2 KiB universe so that lines really are
        // contended; one thread roams the full 8 KiB so that the TLB and
        // the shared levels evict.
        let universe = 8192 / u64::from(threads);
        let mut fast = CoherentHierarchy::new(config);
        let mut reference = ReferenceCoherentHierarchy::new(config);
        let mut touched = Vec::with_capacity(trace.len());
        for (i, &(thread, addr, wexp, store, revisit)) in trace.iter().enumerate() {
            let addr = match touched.last() {
                Some(&previous) if revisit == 0 => previous,
                _ => addr % universe,
            };
            touched.push(addr);
            fast.set_thread(thread % threads);
            reference.set_thread(thread % threads);
            fast.access(addr, widths(wexp), store);
            reference.access(addr, widths(wexp), store);
            if i % 97 == 96 {
                fast.flush();
                reference.flush();
            }
            prop_assert_eq!(fast.stats(), reference.stats(), "stats diverged at step {}", i);
            prop_assert_eq!(
                fast.coherence(), reference.coherence(), "coherence diverged at step {}", i);
        }
        prop_assert_eq!(fast.thread_stats(), reference.thread_stats());
        for &addr in &touched {
            for t in 0..threads {
                prop_assert_eq!(
                    fast.line_state(t, addr),
                    reference.line_state(t, addr),
                    "state of addr {:#x} in thread {} diverged", addr, t
                );
            }
        }
        if threads == 1 {
            prop_assert_eq!(fast.coherence(), CoherenceStats::default());
            let per = fast.thread_stats();
            prop_assert_eq!(per.len(), 1);
            prop_assert_eq!((per[0].thread, per[0].stats), (0, fast.stats()));
            let t = TimingModel::skylake_like();
            let instructions = trace.len() as u64;
            prop_assert_eq!(
                t.cycles_coherent(instructions, &fast.stats(), &fast.coherence()),
                t.cycles(instructions, &fast.stats()),
                "single-thread cycles must not change under the coherent model"
            );
        }
    }

    /// Coherent `access_batch` ≡ per-access delivery. Batches never span a
    /// thread switch (the engine flushes before announcing one), so the
    /// trace is chunked within each thread's run of accesses.
    #[test]
    fn coherent_batch_matches_per_access(
        l1_ways in 1u32..5,
        l1_sets in 1u64..5,
        chunk in 1usize..32,
        trace in proptest::collection::vec(
            (0u16..4, 0u64..2048, 0u8..5, any::<bool>()), 1..400),
    ) {
        let config = geometry(64, 64, l1_ways, l1_sets, true, 4096, 2, 4);
        let mut batched = CoherentHierarchy::new(config);
        let mut serial = CoherentHierarchy::new(config);
        // Split the trace into same-thread runs, then feed each run in
        // `chunk`-sized batches.
        let mut start = 0;
        while start < trace.len() {
            let thread = trace[start].0;
            let mut end = start;
            while end < trace.len() && trace[end].0 == thread {
                end += 1;
            }
            let addrs: Vec<u64> = trace[start..end].iter().map(|&(_, a, _, _)| a).collect();
            let ws: Vec<u8> = trace[start..end].iter().map(|&(_, _, w, _)| widths(w)).collect();
            let stores: Vec<bool> = trace[start..end].iter().map(|&(_, _, _, s)| s).collect();
            batched.set_thread(thread);
            for s in (0..addrs.len()).step_by(chunk) {
                let e = (s + chunk).min(addrs.len());
                batched.access_batch(&addrs[s..e], &ws[s..e], &stores[s..e]);
            }
            serial.set_thread(thread);
            for i in 0..addrs.len() {
                serial.access(addrs[i], ws[i], stores[i]);
            }
            start = end;
        }
        prop_assert_eq!(batched.stats(), serial.stats());
        prop_assert_eq!(batched.coherence(), serial.coherence());
        prop_assert_eq!(batched.thread_stats(), serial.thread_stats());
    }
}
