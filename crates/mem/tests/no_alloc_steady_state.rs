//! Proves the sharded allocator's request path makes no host allocations
//! in steady state (DESIGN.md §6, §10): after warm-up, a stream of
//! requests — 256 `malloc`s on one logical thread, then the thread's
//! previous request freed half locally and half from the next logical
//! thread, so every other free rides a remote queue and every shard entry
//! may drain one — must not touch the global allocator. That pins the
//! remote-free double buffer (a drain hands its emptied buffer back instead
//! of dropping it) and the per-chunk granule arrays (carried through spare
//! and clean reuse instead of reallocated per incarnation), along with the
//! free-slot heaps and the page tables, which only grow with the footprint.
//! Plan swaps are not part of the steady state and are left out.
//!
//! Counting is gated on a thread-local flag so that only allocations made
//! by the measuring thread itself are charged — libtest's supervisor
//! thread may allocate concurrently and must not pollute the count.

use halo_mem::{AllocatorStats, GroupAllocConfig, ShardedHaloAllocator};
use halo_vm::{GroupState, Memory, SyncVmAllocator};
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
/// deliberately uncounted.
struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are passed through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

mod common;
use common::{site, small_config, two_group_table};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const ALLOCS_PER_REQUEST: usize = 256;
const LOGICAL_THREADS: usize = 4;

struct Heap {
    alloc: ShardedHaloAllocator,
    mem: Memory,
    gs: GroupState,
    /// Per logical thread, what its previous request allocated.
    backlog: [[u64; ALLOCS_PER_REQUEST]; LOGICAL_THREADS],
}

impl Heap {
    fn new() -> Heap {
        let config = small_config();
        // Group 0 on smaller chunks than group 1, so both chunk sizes and
        // both reuse pools are in play.
        let plans = vec![GroupAllocConfig { chunk_size: 16_384, ..config }, config];
        Heap {
            alloc: ShardedHaloAllocator::new(4, config, two_group_table(), plans),
            mem: Memory::new(),
            gs: GroupState::new(2),
            backlog: [[0; ALLOCS_PER_REQUEST]; LOGICAL_THREADS],
        }
    }

    fn free_slots(&mut self, thread: usize, first: usize) {
        for i in (first..ALLOCS_PER_REQUEST).step_by(2) {
            let ptr = std::mem::take(&mut self.backlog[thread][i]);
            if ptr != 0 {
                SyncVmAllocator::free(&self.alloc, ptr, &mut self.mem);
            }
        }
    }

    fn request(&mut self, request: usize) {
        let thread = request % LOGICAL_THREADS;
        let mut fresh = [0; ALLOCS_PER_REQUEST];
        SyncVmAllocator::thread_switched(&self.alloc, thread as u16);
        for (i, slot) in fresh.iter_mut().enumerate() {
            // Group 0, group 1, fallback, repeating; sizes 16–192 bytes on
            // a fixed cycle, so every high-water mark (free-slot heaps,
            // queue depth, reuse pools) is reached within the warm-up.
            self.gs.reset();
            if i % 3 < 2 {
                self.gs.set((i % 3) as u16);
            }
            let size = 16 * (1 + (i * 7 + request) as u64 % 12);
            *slot = SyncVmAllocator::malloc(&self.alloc, size, site(), &self.gs, &mut self.mem);
        }
        self.free_slots(thread, 0);
        SyncVmAllocator::thread_switched(&self.alloc, ((request + 1) % LOGICAL_THREADS) as u16);
        self.free_slots(thread, 1);
        self.backlog[thread] = fresh;
    }
}

#[test]
fn request_loop_is_allocation_free_in_steady_state() {
    let mut heap = Heap::new();
    // Warm-up: chunks carved, reuse pools, free-slot heaps and both halves
    // of every remote-free double buffer at their high-water marks.
    for request in 0..400 {
        heap.request(request);
    }
    let warm = heap.alloc.sharded_stats();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    for request in 400..2_400 {
        heap.request(request);
    }
    COUNTING.with(|c| c.set(false));
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    let stats = heap.alloc.sharded_stats();
    let requests = 2_000;
    assert_eq!(
        stats.remote_frees - warm.remote_frees,
        requests * ALLOCS_PER_REQUEST as u64 / 2,
        "half of every request's frees ride a remote queue"
    );
    assert!(stats.remote_drained > warm.remote_drained, "the window includes drains");
    assert!(
        stats.alloc.chunks_reused > warm.alloc.chunks_reused
            && stats.alloc.chunks_purged > warm.alloc.chunks_purged,
        "the window cycles chunks through the spare and clean pools: {stats:?}"
    );
    assert_eq!(stats.alloc.chunks_created, warm.alloc.chunks_created, "footprint is steady");
    assert!(heap.alloc.live_objects() > 0);
    assert_eq!(after - before, 0, "steady-state malloc/free/drain touched the host allocator");
}
