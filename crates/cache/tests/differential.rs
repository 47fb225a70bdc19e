//! Differential property suite: the fused fast-path hierarchy against the
//! retained reference walk.
//!
//! [`CoherentHierarchy`]'s fast paths (precomputed shift/mask geometry,
//! single-line short-circuit, per-thread MRU line filter with its
//! same-page dTLB skip, and the packed-order set-walk kernel under the
//! L1D, the dTLB, L2 and L3) are all claimed to be *exactly* equivalent to
//! the original per-access division-based walk over move-to-front lists
//! preserved in `reference/`. These properties prove it on randomized
//! traces across geometries (ways 1–4 and the evaluation machine's 8, 11
//! and 16 at every level, non-power-of-two set counts, an L1 line narrower
//! than the L2/L3 line, and prefetch on/off), three address layouts (dense,
//! and two that give every 128-byte block a page of its own so the dTLB
//! thrashes and accesses straddle pages), thread
//! interleavings (one thread and four) and interleaved flushes — counter
//! for counter, MESI-lite state for state.
//!
//! Case count per property follows the vendored proptest's config and the
//! `HALO_PROPTEST_CASES` override (CI trims it, soak runs raise it).

mod reference;

use halo_cache::{
    CacheConfig, CoherenceStats, CoherentHierarchy, HierarchyConfig, TimingModel, PAGE_BYTES,
};
use proptest::prelude::*;
use reference::ReferenceCoherentHierarchy;

/// Ways and sets of one L2 or L3.
type Shape = (u32, u64);

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
    (l2_ways, l2_sets): Shape,
    (l3_ways, l3_sets): Shape,
    prefetch: bool,
    tlb_ways: u32,
    tlb_sets: u32,
) -> HierarchyConfig {
    let outer = outer_line.max(line);
    let level = |line_bytes: u64, ways: u32, sets: u64| CacheConfig {
        size_bytes: line_bytes * u64::from(ways) * sets,
        line_bytes,
        ways,
    };
    HierarchyConfig {
        l1: level(line, l1_ways, l1_sets),
        l2: level(outer, l2_ways, l2_sets),
        l3: level(outer, l3_ways, l3_sets),
        tlb_entries: tlb_ways * tlb_sets,
        tlb_ways,
        adjacent_line_prefetch: prefetch,
    }
}

/// The L2 and L3 every case had before the wide strata were added.
const NARROW_L2: Shape = (4, 8);
const NARROW_L3: Shape = (8, 16);

/// Associativities of the evaluation machine (L1D 8, L3 11, L2 16): the
/// widths the set-walk kernel is instantiated at, 16 filling the packed
/// order word to its last nibble.
fn wide_ways() -> impl Strategy<Value = u32> {
    prop_oneof![Just(8u32), Just(11u32), Just(16u32)]
}

/// An L2 or L3: the narrow shape, or a wide one of one to three sets (two
/// mask, three divides).
fn outer_shape(narrow: Shape) -> impl Strategy<Value = Shape> {
    prop_oneof![Just(narrow), (wide_ways(), 1u64..4)]
}

/// Bytes of the dense address universe each page holds in the spread
/// layouts.
const BLOCK: u64 = 128;

/// Where a dense-universe address lands under `layout`:
/// - 0, dense: where it is.
/// - 1, block at page end: every [`BLOCK`]-byte block at the end of its
///   own page, so an access running off a block's end straddles into the
///   next page — the page pattern the universe had under 128-byte pages,
///   though every line then falls in the last sets of a small cache.
/// - 2, block in place: every block on its own page at its dense in-page
///   offset, so lines still spread over every set while the dTLB evicts.
fn place(addr: u64, layout: u8) -> u64 {
    let (block, offset) = (addr / BLOCK, addr % BLOCK);
    match layout {
        0 => addr,
        1 => (block + 1) * PAGE_BYTES - BLOCK + offset,
        _ => block * PAGE_BYTES + addr % PAGE_BYTES,
    }
}

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
        l1_ways in prop_oneof![1u32..5, wide_ways()],
        l1_sets in 1u64..5,
        l2 in outer_shape(NARROW_L2),
        l3 in outer_shape(NARROW_L3),
        prefetch in any::<bool>(),
        layout in 0u8..3,
        tlb_ways in 1u32..5,
        tlb_sets in 1u32..5,
        threads in prop_oneof![Just(1u16), Just(4u16)],
        trace in proptest::collection::vec(
            (0u16..4, 0u64..8192, 0u8..5, any::<bool>(), 0u8..4), 1..1000),
    ) {
        let l1_sets = if l1_ways >= 8 { l1_sets.min(3) } else { l1_sets };
        let config = geometry(
            1 << line_exp, 1 << outer_line_exp, l1_ways, l1_sets, l2, l3, prefetch,
            tlb_ways, tlb_sets,
        );
        // Four threads share a 2 KiB universe so that lines really are
        // contended; one thread roams the full 8 KiB so that the TLB and
        // the shared levels evict. A case with a wide level gets 4 KiB
        // either way — 64 to 128 lines over at most 48 ways — so that a
        // 16-way set fills, evicts and is hit at every recency depth
        // (counted once on the oracle at 300 cases: every depth of every
        // wide width at L1, L2 and L3, in both thread universes).
        let wide = l1_ways >= 8 || l2 != NARROW_L2 || l3 != NARROW_L3;
        let universe = if wide { 4096 } else { 8192 / u64::from(threads) };
        let mut fast = CoherentHierarchy::new(config);
        let mut reference = ReferenceCoherentHierarchy::new(config);
        let mut touched = Vec::with_capacity(trace.len());
        for (i, &(thread, addr, wexp, store, revisit)) in trace.iter().enumerate() {
            let addr = match touched.last() {
                Some(&previous) if revisit == 0 => previous,
                _ => place(addr % universe, layout),
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
        let config = geometry(64, 64, l1_ways, l1_sets, NARROW_L2, NARROW_L3, true, 2, 4);
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
