//! A jemalloc-style size-segregated allocator — the paper's baseline.
//!
//! "Almost all contemporary general-purpose allocators — including
//! ptmalloc2, jemalloc, and tcmalloc — are based on size-segregated
//! allocation schemes … allocations are co-located based primarily on their
//! size and the order in which they're made" (§2.1, Fig. 1). This allocator
//! reproduces exactly that placement policy: spaced size classes, slab runs
//! per class, lowest-address-first slot reuse, and page-granular large
//! allocations.
//!
//! Bookkeeping is address-indexed (DESIGN.md §6): every reservation is a
//! page-aligned **run**, a dense page table maps a pointer's page to its
//! run, and the run holds one small cell per slot. No pointer is ever
//! hashed, and a pointer with no live slot behind it is recognised as such.

use crate::page_index::PageIndex;
use crate::stats::AllocatorStats;
use crate::vmm::Vmm;
use halo_vm::{realloc_by_move, CallSite, GroupState, Memory, VmAllocator, PAGE_SIZE};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Largest size served from the small size classes; larger requests are
/// page-rounded and reserved individually (jemalloc's "large" path).
pub const SMALL_MAX: u64 = 14336;

const CLASSES: [u64; 36] = [
    8, 16, 32, 48, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320, 384, 448, 512, 640, 768, 896,
    1024, 1280, 1536, 1792, 2048, 2560, 3072, 3584, 4096, 5120, 6144, 7168, 8192, 10240, 12288,
    14336,
];

/// jemalloc 5.x-style size-class table: 8, 16, 32, 48, 64, then four
/// linearly spaced classes per power-of-two group up to [`SMALL_MAX`].
pub static SIZE_CLASSES: &[u64] = &CLASSES;

/// Class index per 8-byte size step. Every class is a multiple of 8, so
/// `ceil(size / 8)` alone decides the class.
const CLASS_OF_STEP: [u8; (SMALL_MAX / 8) as usize + 1] = {
    let mut table = [0u8; (SMALL_MAX / 8) as usize + 1];
    let (mut step, mut class) = (0, 0);
    while step < table.len() {
        while CLASSES[class] < step as u64 * 8 {
            class += 1;
        }
        table[step] = class as u8;
        step += 1;
    }
    table
};

fn class_index(size: u64) -> Option<usize> {
    let step = usize::try_from(size.div_ceil(8)).ok()?;
    CLASS_OF_STEP.get(step).map(|&class| usize::from(class))
}

// A slot cell holds `requested + 1`, and `requested` never exceeds the
// slot's class.
const _: () = assert!(SMALL_MAX < u16::MAX as u64);

/// One page-aligned [`Vmm`] reservation.
#[derive(Debug)]
enum Run {
    /// A slab run of one size class. `cells[slot]` is the slot's requested
    /// size plus one, `0` while the slot is free — so the cell is both the
    /// size record `live_size` reads and the liveness bit that makes an
    /// invalid free detectable.
    Small { base: u64, class: usize, cells: Box<[u16]> },
    /// One page-rounded large extent; `requested` is `None` once freed
    /// (large extents are not recycled).
    Large { base: u64, requested: Option<u64> },
}

/// A live allocation, found from its address.
#[derive(Debug, Clone, Copy)]
enum SlotInfo {
    Small { run: usize, slot: usize, class: usize, requested: u64 },
    Large { run: usize, requested: u64 },
}

/// The size-segregated simulated allocator (see module docs).
#[derive(Debug)]
pub struct SizeClassAllocator {
    vmm: Vmm,
    /// Per class: min-heap of free slot addresses (lowest address first).
    /// A slot enters only on its live → free transition, so no address is
    /// ever queued twice.
    free_slots: Vec<BinaryHeap<Reverse<u64>>>,
    /// Per class: bump cursor and end of the current run.
    runs: Vec<Option<(u64, u64)>>,
    /// Every reservation made so far, in address order.
    run_table: Vec<Run>,
    /// Page → index into `run_table`. Dense because `vmm` hands out
    /// page-aligned, page-multiple reservations back to back.
    pages: PageIndex,
    live_bytes: u64,
    live_objects: usize,
}

impl SizeClassAllocator {
    /// Default base address for standalone use.
    pub const DEFAULT_BASE: u64 = 0x10_0000_0000;

    /// Create an allocator rooted at [`Self::DEFAULT_BASE`].
    pub fn new() -> Self {
        Self::with_base(Self::DEFAULT_BASE)
    }

    /// Create an allocator rooted at `base` (for composition without
    /// address-range collisions).
    pub fn with_base(base: u64) -> Self {
        Self::with_base_span(base, 1 << 38)
    }

    /// Create an allocator rooted at `base` whose reservations must stay
    /// within `span` bytes. Tiled instances (one fallback per shard of a
    /// sharded allocator) use this so exceeding the tile is a loud
    /// reservation panic, never silent aliasing of a neighbour's range.
    pub fn with_base_span(base: u64, span: u64) -> Self {
        SizeClassAllocator {
            vmm: Vmm::new(base, span),
            free_slots: vec![BinaryHeap::new(); SIZE_CLASSES.len()],
            runs: vec![None; SIZE_CLASSES.len()],
            run_table: Vec::new(),
            pages: PageIndex::new(base),
            live_bytes: 0,
            live_objects: 0,
        }
    }

    /// Reserve `bytes` (a page multiple) as a new run and enter its pages
    /// in the page table. `None` when the span is exhausted — genuine OOM,
    /// which the callers report as a null pointer.
    fn reserve_run(&mut self, bytes: u64, run: impl FnOnce(u64) -> Run) -> Option<u64> {
        let base = self.vmm.reserve(bytes, PAGE_SIZE).ok()?;
        self.pages.cover(base, bytes, self.run_table.len())?;
        self.run_table.push(run(base));
        Some(base)
    }

    /// The live allocation starting exactly at `ptr`. An address inside a
    /// slot, on a free slot, or outside every run is not one.
    fn live_slot(&self, ptr: u64) -> Option<SlotInfo> {
        let run = self.pages.find(ptr)?;
        match &self.run_table[run] {
            Run::Small { base, class, cells } => {
                let (off, csize) = (ptr - base, SIZE_CLASSES[*class]);
                let slot = (off / csize) as usize;
                let cell = *cells.get(slot).filter(|_| off.is_multiple_of(csize))?;
                let requested = u64::from(cell.checked_sub(1)?);
                Some(SlotInfo::Small { run, slot, class: *class, requested })
            }
            Run::Large { base, requested } => {
                let requested = requested.filter(|_| ptr == *base)?;
                Some(SlotInfo::Large { run, requested })
            }
        }
    }

    /// Record `requested` (`None`: free) in a small run's slot cell.
    fn set_cell(&mut self, run: usize, slot: usize, requested: Option<u64>) {
        if let Run::Small { cells, .. } = &mut self.run_table[run] {
            // Fits: `requested` is at most the class size (see the const
            // assertion on `SMALL_MAX`).
            cells[slot] = requested.map_or(0, |r| r as u16 + 1);
        }
    }

    fn alloc_small(&mut self, class: usize, requested: u64) -> u64 {
        let csize = SIZE_CLASSES[class];
        let ptr = if let Some(Reverse(slot)) = self.free_slots[class].pop() {
            slot
        } else {
            match &mut self.runs[class] {
                Some((cursor, end)) if *cursor + csize <= *end => {
                    let p = *cursor;
                    *cursor += csize;
                    p
                }
                _ => {
                    // New run: at least 16 KiB or 8 objects, page aligned.
                    let run_bytes = (16 * 1024).max(csize * 8).div_ceil(PAGE_SIZE) * PAGE_SIZE;
                    let cells = vec![0; (run_bytes / csize) as usize].into_boxed_slice();
                    let Some(base) =
                        self.reserve_run(run_bytes, |base| Run::Small { base, class, cells })
                    else {
                        return 0; // span exhausted: genuine OOM, reported as null
                    };
                    self.runs[class] = Some((base + csize, base + run_bytes));
                    base
                }
            }
        };
        if let Some(run) = self.pages.find(ptr) {
            if let Run::Small { base, .. } = self.run_table[run] {
                self.set_cell(run, ((ptr - base) / csize) as usize, Some(requested));
            }
        }
        ptr
    }

    fn alloc_large(&mut self, requested: u64) -> u64 {
        // No span holds a request whose page rounding overflows, nor one
        // past the span's end: genuine OOM, reported as null.
        requested
            .div_ceil(PAGE_SIZE)
            .checked_mul(PAGE_SIZE)
            .and_then(|bytes| {
                self.reserve_run(bytes, |base| Run::Large { base, requested: Some(requested) })
            })
            .unwrap_or(0)
    }

    /// The rounded (usable) size backing `ptr`, if live.
    pub fn usable_size(&self, ptr: u64) -> Option<u64> {
        self.live_slot(ptr).map(|s| match s {
            SlotInfo::Small { class, .. } => SIZE_CLASSES[class],
            SlotInfo::Large { requested, .. } => requested.div_ceil(PAGE_SIZE) * PAGE_SIZE,
        })
    }

    /// `free`, saying whether `ptr` was live — what a composing allocator
    /// needs to tell a fallback free from an invalid one.
    pub(crate) fn release(&mut self, ptr: u64) -> bool {
        let requested = match self.live_slot(ptr) {
            Some(SlotInfo::Small { run, slot, class, requested }) => {
                self.set_cell(run, slot, None);
                self.free_slots[class].push(Reverse(ptr));
                requested
            }
            Some(SlotInfo::Large { run, requested }) => {
                // Large extents are not recycled; reservation bookkeeping
                // only (the pages can be discarded by the caller if the
                // experiment models purging).
                if let Run::Large { requested, .. } = &mut self.run_table[run] {
                    *requested = None;
                }
                requested
            }
            None => return false,
        };
        self.live_bytes -= requested;
        self.live_objects -= 1;
        true
    }
}

impl Default for SizeClassAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl AllocatorStats for SizeClassAllocator {
    fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    fn live_objects(&self) -> usize {
        self.live_objects
    }
}

impl VmAllocator for SizeClassAllocator {
    fn malloc(&mut self, size: u64, _site: CallSite, _gs: &GroupState, _mem: &mut Memory) -> u64 {
        let size = size.max(1);
        let ptr = match class_index(size) {
            Some(class) => self.alloc_small(class, size),
            None => self.alloc_large(size),
        };
        if ptr == 0 {
            return 0; // allocation failed: no accounting for the null
        }
        self.live_bytes += size;
        self.live_objects += 1;
        ptr
    }

    /// A pointer with no live allocation behind it — double free, interior
    /// or never-allocated address — is absorbed as a no-op: nothing is
    /// counted, nothing is queued for reuse.
    fn free(&mut self, ptr: u64, _mem: &mut Memory) {
        self.release(ptr);
    }

    fn live_size(&self, ptr: u64) -> Option<u64> {
        self.live_slot(ptr).map(|s| match s {
            SlotInfo::Small { requested, .. } | SlotInfo::Large { requested, .. } => requested,
        })
    }

    fn realloc(
        &mut self,
        ptr: u64,
        size: u64,
        site: CallSite,
        gs: &GroupState,
        mem: &mut Memory,
    ) -> u64 {
        if let Some(SlotInfo::Small { run, slot, class, requested }) = self.live_slot(ptr) {
            let size = size.max(1);
            if size <= SIZE_CLASSES[class] {
                // Same slot suffices: update requested-size accounting
                // in place.
                self.live_bytes = self.live_bytes - requested + size;
                self.set_cell(run, slot, Some(size));
                return ptr;
            }
        }
        realloc_by_move(self, ptr, size, site, gs, mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> CallSite {
        CallSite::new(halo_vm::FuncId(0), 0)
    }

    fn setup() -> (SizeClassAllocator, GroupState, Memory) {
        (SizeClassAllocator::new(), GroupState::default(), Memory::new())
    }

    /// The size class (rounded size) that a request of `size` bytes lands
    /// in, or `None` for the large path.
    fn class_of(size: u64) -> Option<u64> {
        class_index(size.max(1)).map(|i| SIZE_CLASSES[i])
    }

    #[test]
    fn size_class_table_is_sorted_and_capped() {
        assert!(SIZE_CLASSES.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*SIZE_CLASSES.last().unwrap(), SMALL_MAX);
        assert_eq!(class_of(1), Some(8));
        assert_eq!(class_of(9), Some(16));
        assert_eq!(class_of(128), Some(128));
        assert_eq!(class_of(129), Some(160));
        assert_eq!(class_of(SMALL_MAX + 1), None);
    }

    #[test]
    fn same_class_allocations_pack_contiguously() {
        let (mut a, gs, mut mem) = setup();
        // The Fig. 1 behaviour: same-size allocations land next to each
        // other regardless of what the program means by them.
        let p1 = a.malloc(4, site(), &gs, &mut mem);
        let p2 = a.malloc(4, site(), &gs, &mut mem);
        let p3 = a.malloc(4, site(), &gs, &mut mem);
        assert_eq!(p2, p1 + 8);
        assert_eq!(p3, p2 + 8);
    }

    #[test]
    fn different_classes_live_in_different_runs() {
        let (mut a, gs, mut mem) = setup();
        let small = a.malloc(8, site(), &gs, &mut mem);
        let big = a.malloc(1000, site(), &gs, &mut mem);
        // Different runs are at least a run apart.
        assert!(small.abs_diff(big) >= 16 * 1024);
    }

    #[test]
    fn freed_slot_is_reused_lowest_first() {
        let (mut a, gs, mut mem) = setup();
        let p1 = a.malloc(32, site(), &gs, &mut mem);
        let p2 = a.malloc(32, site(), &gs, &mut mem);
        let p3 = a.malloc(32, site(), &gs, &mut mem);
        a.free(p3, &mut mem);
        a.free(p1, &mut mem);
        a.free(p2, &mut mem);
        // Reuse picks the lowest address first.
        assert_eq!(a.malloc(32, site(), &gs, &mut mem), p1);
        assert_eq!(a.malloc(32, site(), &gs, &mut mem), p2);
        assert_eq!(a.malloc(32, site(), &gs, &mut mem), p3);
    }

    #[test]
    fn class_lookup_matches_the_table_scan() {
        for size in 0..=SMALL_MAX + 9 {
            let scanned = SIZE_CLASSES.iter().position(|&c| c >= size);
            assert_eq!(class_index(size), scanned, "size {size}");
        }
        assert_eq!(class_index(u64::MAX), None);
    }

    #[test]
    fn free_slot_heap_hands_out_lowest_address_across_runs() {
        let (mut a, gs, mut mem) = setup();
        // 14336-byte slots: 8 per run, so 20 allocations span three runs.
        let ptrs: Vec<u64> = (0..20).map(|_| a.malloc(SMALL_MAX, site(), &gs, &mut mem)).collect();
        for &i in &[17, 3, 11, 0, 8, 19, 5] {
            a.free(ptrs[i], &mut mem);
        }
        let reused: Vec<u64> = (0..7).map(|_| a.malloc(SMALL_MAX, site(), &gs, &mut mem)).collect();
        let mut expected: Vec<u64> = [17, 3, 11, 0, 8, 19, 5].iter().map(|&i| ptrs[i]).collect();
        expected.sort_unstable();
        assert_eq!(reused, expected);
    }

    #[test]
    fn invalid_frees_are_absorbed_without_accounting() {
        let (mut a, gs, mut mem) = setup();
        let small = a.malloc(48, site(), &gs, &mut mem);
        let large = a.malloc(SMALL_MAX + 1, site(), &gs, &mut mem);
        let (bytes, objects) = (a.live_bytes(), a.live_objects());
        // Interior and misaligned addresses of live allocations, the free
        // slot after a live one, the page after the last run, an address
        // below the span, and null.
        let past = large + 4 * PAGE_SIZE;
        for bad in [small + 8, small + 1, small + 48, large + 8, large + PAGE_SIZE, past, 16, 0] {
            a.free(bad, &mut mem);
            assert_eq!(a.usable_size(bad), None);
        }
        assert_eq!((a.live_bytes(), a.live_objects()), (bytes, objects));
        a.free(small, &mut mem);
        a.free(large, &mut mem);
        // Double frees of both kinds.
        a.free(small, &mut mem);
        a.free(large, &mut mem);
        assert_eq!((a.live_bytes(), a.live_objects()), (0, 0));
        // The small slot is queued for reuse once, not twice.
        assert_eq!(a.malloc(48, site(), &gs, &mut mem), small);
        assert_ne!(a.malloc(48, site(), &gs, &mut mem), small);
    }

    #[test]
    fn last_slot_of_a_run_and_the_unused_tail_behind_it() {
        let (mut a, gs, mut mem) = setup();
        // Class 48: a 16 KiB run holds 341 slots and a 16-byte tail.
        let ptrs: Vec<u64> = (0..342).map(|_| a.malloc(48, site(), &gs, &mut mem)).collect();
        let last = ptrs[340];
        assert_eq!(last, ptrs[0] + 340 * 48);
        assert_eq!(ptrs[341], ptrs[0] + 16 * 1024, "slot 342 opens the next run");
        assert_eq!(a.usable_size(last), Some(48));
        // The tail is no slot.
        a.free(last + 48, &mut mem);
        assert_eq!(a.live_objects(), 342);
        a.free(last, &mut mem);
        assert_eq!(a.live_objects(), 341);
        assert_eq!(a.malloc(48, site(), &gs, &mut mem), last);
    }

    #[test]
    fn unaligned_base_still_maps_every_run() {
        let mut a = SizeClassAllocator::with_base(0x10_0000_0808);
        let (gs, mut mem) = (GroupState::default(), Memory::new());
        let p = a.malloc(64, site(), &gs, &mut mem);
        let q = a.malloc(SMALL_MAX + 1, site(), &gs, &mut mem);
        assert_eq!(p % PAGE_SIZE, 0);
        assert_eq!((a.usable_size(p), a.usable_size(q)), (Some(64), Some(4 * PAGE_SIZE)));
        a.free(0x10_0000_0808, &mut mem);
        a.free(p, &mut mem);
        a.free(q, &mut mem);
        assert_eq!(a.live_objects(), 0);
    }

    #[test]
    fn absurd_large_requests_report_null() {
        let (mut a, gs, mut mem) = setup();
        for size in [u64::MAX, u64::MAX - PAGE_SIZE, 1 << 40] {
            assert_eq!(a.malloc(size, site(), &gs, &mut mem), 0);
        }
        assert_eq!((a.live_bytes(), a.live_objects()), (0, 0));
    }

    #[test]
    fn large_allocations_are_page_granular() {
        let (mut a, gs, mut mem) = setup();
        let p = a.malloc(SMALL_MAX + 1, site(), &gs, &mut mem);
        assert_eq!(p % PAGE_SIZE, 0);
        assert_eq!(a.usable_size(p), Some(PAGE_SIZE * 4));
    }

    #[test]
    fn live_accounting_tracks_requests() {
        let (mut a, gs, mut mem) = setup();
        let p1 = a.malloc(10, site(), &gs, &mut mem);
        let p2 = a.malloc(20000, site(), &gs, &mut mem);
        assert_eq!(a.live_bytes(), 20010);
        assert_eq!(a.live_objects(), 2);
        a.free(p1, &mut mem);
        a.free(p2, &mut mem);
        assert_eq!(a.live_bytes(), 0);
        assert_eq!(a.live_objects(), 0);
    }

    #[test]
    fn realloc_in_place_when_class_allows() {
        let (mut a, gs, mut mem) = setup();
        let p = a.malloc(100, site(), &gs, &mut mem); // class 112
        let q = a.realloc(p, 112, site(), &gs, &mut mem);
        assert_eq!(p, q);
        let r = a.realloc(q, 113, site(), &gs, &mut mem); // class 128: move
        assert_ne!(q, r);
        assert_eq!(a.live_objects(), 1);
    }

    #[test]
    fn realloc_moves_preserve_contents() {
        let (mut a, gs, mut mem) = setup();
        let p = a.malloc(16, site(), &gs, &mut mem);
        mem.write(p, 8, 0xabcd);
        mem.write(p + 8, 8, 0x1234);
        let q = a.realloc(p, 4096, site(), &gs, &mut mem);
        assert_eq!(mem.read(q, 8), 0xabcd);
        assert_eq!(mem.read(q + 8, 8), 0x1234);
    }

    #[test]
    fn interleaved_types_scatter_across_the_heap() {
        // The motivating pathology (Fig. 3a): A-B-C interleaving in one
        // class leaves unrelated objects adjacent.
        let (mut a, gs, mut mem) = setup();
        let mut a_ptrs = Vec::new();
        for i in 0..30 {
            let p = a.malloc(16, site(), &gs, &mut mem);
            if i % 3 != 2 {
                a_ptrs.push(p);
            }
        }
        // Hot objects (A/B) are NOT contiguous: every third slot is a C.
        let contiguous = a_ptrs.windows(2).filter(|w| w[1] == w[0] + 16).count();
        assert!(contiguous < a_ptrs.len() - 1);
    }
}
