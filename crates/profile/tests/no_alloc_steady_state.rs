//! Proves the profiler's hot path is allocation-free in steady state
//! (DESIGN.md §7): after warm-up, neither the affinity queue's
//! `record_with` nor a whole `Profiler::on_access` — object lookup, both
//! lanes' queues, co-allocatability, the edge upsert — may touch the
//! global allocator.
//!
//! The count is thread-local so that only allocations made by the
//! measuring thread itself are charged — libtest's supervisor thread may
//! allocate concurrently (channel waits, slow-test timers), and so may the
//! other test's warm-up, and neither must pollute the count.

use halo_graph::{Granularity, NodeId};
use halo_profile::{AffinityQueue, ProfileConfig, Profiler, QueueEntry};
use halo_vm::{AllocKind, CallSite, Monitor, ProgramBuilder, SplitMix64};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `Some(n)` only on a measuring thread, only inside its timed window:
    /// the allocations it has made there.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn charge() {
    // `try_with`: TLS may already be torn down when late allocations
    // happen on exiting threads.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|k| k + 1)));
}

/// The host allocations `f` makes on this thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    f();
    ALLOCATIONS.with(|n| n.take()).expect("still counting")
}

/// Counts every allocator entry point that can hand out memory; frees are
/// deliberately uncounted (a pop-only path is still allocation-free).
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn entry(rng: &mut SplitMix64, seq: u64) -> QueueEntry {
    let obj = rng.next_below(64);
    QueueEntry { obj, ctx: NodeId((obj % 8) as u32), alloc_seq: seq, size: 1 + rng.next_below(8) }
}

#[test]
fn record_is_allocation_free_in_steady_state() {
    let mut q = AffinityQueue::new(128);
    let mut rng = SplitMix64::new(7);

    // Adversarial warm-up: distinct objects with 1-byte accesses drive the
    // window to its hard bound (A entries), taking the ring and the dedup
    // table to the high-water marks no later stream can exceed.
    for i in 0..256u64 {
        let warm = QueueEntry { obj: 1 << 32 | i, ctx: NodeId(0), alloc_seq: i, size: 1 };
        q.record_with(warm, |_| {});
    }
    // Then settle into the measured distribution.
    for i in 0..10_000u64 {
        q.record_with(entry(&mut rng, i), |_| {});
    }

    let mut streamed = 0u64;
    let allocated = allocations_during(|| {
        for i in 0..200_000u64 {
            q.record_with(entry(&mut rng, i), |p| streamed += p.size);
        }
    });

    assert!(streamed > 0, "the workload must actually produce partners");
    assert_eq!(allocated, 0, "steady-state record_with allocated");
}

#[test]
fn a_warmed_profiler_records_accesses_allocation_free() {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main");
    f.ret(None);
    let main = f.finish();
    let program = pb.finish(main);
    let config = ProfileConfig { granularity: Granularity::Page, ..Default::default() };
    let mut profiler = Profiler::new(&program, config);

    // 512 objects of 48 bytes, 64 apart (64 per 4 KiB page), allocated
    // round-robin from 8 contexts: every context pair, loops included, is
    // co-allocatable somewhere.
    const OBJECTS: u64 = 512;
    let base = 0x10_0000u64;
    for k in 0..OBJECTS {
        profiler.on_alloc(
            AllocKind::Malloc,
            CallSite::new(main, (k % 8) as u32),
            48,
            base + k * 64,
            0,
        );
    }
    // Adversarial warm-up: 1-byte accesses to distinct objects, alternating
    // pages, take both lanes' rings and dedup tables to their high-water
    // marks; then the measured distribution settles every edge in.
    for i in 0..1_024u64 {
        profiler.on_access(base + ((i % 2) * 64 + (i / 2) % 64) * 64, 1, false);
    }
    let mut rng = SplitMix64::new(11);
    let mut access = |profiler: &mut Profiler| {
        let k = rng.next_below(OBJECTS);
        profiler.on_access(base + k * 64 + rng.next_below(40), 1 << rng.next_below(4), false);
    };
    for _ in 0..50_000 {
        access(&mut profiler);
    }

    let allocated = allocations_during(|| {
        for _ in 0..200_000 {
            access(&mut profiler);
        }
    });

    let profile = profiler.finish();
    assert_eq!(profile.graph.edge_count(), 36, "every context pair is an edge");
    assert!(profile.page_graph.edge_count() > 0);
    assert_eq!(allocated, 0, "steady-state on_access allocated");
}
