//! Proves the affinity-queue hot path is allocation-free in steady state
//! (DESIGN.md §7): after warm-up, `record_with` may not touch the global
//! allocator.
//!
//! Counting is gated on a thread-local flag so that only allocations made
//! by the measuring thread itself are charged — libtest's supervisor
//! thread may allocate concurrently (channel waits, slow-test timers) and
//! must not pollute the count.

use halo_graph::NodeId;
use halo_profile::{AffinityQueue, QueueEntry};
use halo_vm::SplitMix64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// True only on the measuring thread, only inside the timed window.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    // `try_with`: TLS may already be torn down when late allocations
    // happen on exiting threads.
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

/// Counts every allocator entry point that can hand out memory; frees are
/// deliberately uncounted (a pop-only path is still allocation-free).
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
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

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let mut streamed = 0u64;
    for i in 0..200_000u64 {
        q.record_with(entry(&mut rng, i), |p| streamed += p.size);
    }
    COUNTING.with(|c| c.set(false));
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert!(streamed > 0, "the workload must actually produce partners");
    assert_eq!(after - before, 0, "steady-state record_with allocated");
}
