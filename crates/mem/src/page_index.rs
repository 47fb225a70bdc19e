//! The dense page → extent table behind address-indexed metadata
//! (DESIGN.md §6): [`crate::SizeClassAllocator`] finds a pointer's run with
//! it, [`crate::HaloGroupAllocator`] a pointer's chunk.

use halo_vm::PAGE_SIZE;

/// Entry of a page no extent covers.
const NONE: u32 = u32::MAX;

/// Maps page `(addr - origin) / PAGE_SIZE` to the id of the page-aligned,
/// page-multiple extent covering it. Extents are never uncovered, so an
/// entry is written once and never goes stale. Dense from the span's base:
/// 4 bytes per page of reserved space, nothing for the address space below.
#[derive(Debug)]
pub(crate) struct PageIndex {
    ids: Vec<u32>,
    /// Page-aligned address of entry 0.
    origin: u64,
}

impl PageIndex {
    /// An empty index over the address span starting at `base`.
    pub(crate) fn new(base: u64) -> Self {
        PageIndex { ids: Vec::new(), origin: base & !(PAGE_SIZE - 1) }
    }

    /// Enter the extent `[base, base + bytes)` under `id`. `None` — nothing
    /// entered — when `id` or the extent's pages have no entry to go in.
    pub(crate) fn cover(&mut self, base: u64, bytes: u64, id: usize) -> Option<()> {
        let id = u32::try_from(id).ok().filter(|&id| id != NONE)?;
        let first = usize::try_from(base.checked_sub(self.origin)? / PAGE_SIZE).ok()?;
        let last = first.checked_add(usize::try_from(bytes / PAGE_SIZE).ok()?)?;
        if self.ids.len() < last {
            self.ids.resize(last, NONE);
        }
        self.ids[first..last].fill(id);
        Some(())
    }

    /// The id of the extent containing `ptr`. On every `free`.
    #[inline]
    pub(crate) fn find(&self, ptr: u64) -> Option<usize> {
        let page = usize::try_from(ptr.checked_sub(self.origin)? / PAGE_SIZE).ok()?;
        self.ids.get(page).filter(|&&id| id != NONE).map(|&id| id as usize)
    }
}
