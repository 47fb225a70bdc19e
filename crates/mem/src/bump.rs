//! A contiguous bump allocator.

use crate::stats::AllocatorStats;
use crate::vmm::Vmm;
use halo_vm::{CallSite, FastIntState, GroupState, Memory, VmAllocator};
use std::collections::HashMap;

/// Allocates by bumping a pointer through a reserved span; `free` releases
/// accounting but never reuses memory. The minimum alignment is 8 bytes,
/// as in the paper's group allocator (§4.4, citing SuperMalloc).
///
/// Used directly by tests, as the pool mechanism inside
/// [`crate::RandomGroupAllocator`], and as the "perfect contiguity"
/// reference layout in experiments.
#[derive(Debug)]
pub struct BumpAllocator {
    vmm: Vmm,
    sizes: HashMap<u64, u64, FastIntState>,
    live_bytes: u64,
}

impl BumpAllocator {
    /// Default base address for standalone use.
    pub const DEFAULT_BASE: u64 = 0x50_0000_0000;

    /// Create a bump allocator rooted at [`Self::DEFAULT_BASE`].
    pub fn new() -> Self {
        Self::with_base(Self::DEFAULT_BASE)
    }

    /// Create a bump allocator rooted at `base`.
    pub fn with_base(base: u64) -> Self {
        BumpAllocator { vmm: Vmm::new(base, 1 << 36), sizes: HashMap::default(), live_bytes: 0 }
    }

    /// Total bytes ever handed out (live + freed).
    pub fn high_water(&self) -> u64 {
        self.vmm.reserved_bytes()
    }

    /// Requested size of a live allocation, if `ptr` is one.
    pub fn size_of(&self, ptr: u64) -> Option<u64> {
        self.sizes.get(&ptr).copied()
    }
}

impl Default for BumpAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl AllocatorStats for BumpAllocator {
    fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    fn live_objects(&self) -> usize {
        self.sizes.len()
    }
}

impl VmAllocator for BumpAllocator {
    fn malloc(&mut self, size: u64, _site: CallSite, _gs: &GroupState, _mem: &mut Memory) -> u64 {
        let size = size.max(1);
        let Ok(ptr) = self.vmm.reserve(size, 8) else {
            return 0; // span exhausted: allocation failure, not a panic
        };
        self.sizes.insert(ptr, size);
        self.live_bytes += size;
        ptr
    }

    fn free(&mut self, ptr: u64, _mem: &mut Memory) {
        if let Some(sz) = self.sizes.remove(&ptr) {
            self.live_bytes -= sz;
        }
    }

    fn realloc(
        &mut self,
        ptr: u64,
        size: u64,
        site: CallSite,
        gs: &GroupState,
        mem: &mut Memory,
    ) -> u64 {
        let old = self.sizes.get(&ptr).copied().unwrap_or(0);
        let newp = self.malloc(size, site, gs, mem);
        mem.copy(newp, ptr, old.min(size));
        self.free(ptr, mem);
        newp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> CallSite {
        CallSite::new(halo_vm::FuncId(0), 0)
    }

    #[test]
    fn consecutive_allocations_are_contiguous_modulo_alignment() {
        let mut a = BumpAllocator::new();
        let gs = GroupState::default();
        let mut mem = Memory::new();
        let p1 = a.malloc(24, site(), &gs, &mut mem);
        let p2 = a.malloc(8, site(), &gs, &mut mem);
        assert_eq!(p2, p1 + 24);
        let p3 = a.malloc(5, site(), &gs, &mut mem);
        assert_eq!(p3 % 8, 0);
        assert_eq!(p3, p2 + 8);
    }

    #[test]
    fn free_updates_accounting_but_not_reuse() {
        let mut a = BumpAllocator::new();
        let gs = GroupState::default();
        let mut mem = Memory::new();
        let p1 = a.malloc(100, site(), &gs, &mut mem);
        assert_eq!(a.live_bytes(), 100);
        a.free(p1, &mut mem);
        assert_eq!(a.live_bytes(), 0);
        let p2 = a.malloc(100, site(), &gs, &mut mem);
        assert_ne!(p1, p2, "bump allocators never reuse");
    }

    #[test]
    fn realloc_copies_contents() {
        let mut a = BumpAllocator::new();
        let gs = GroupState::default();
        let mut mem = Memory::new();
        let p = a.malloc(16, site(), &gs, &mut mem);
        mem.write(p, 8, 0xfeed);
        let q = a.realloc(p, 64, site(), &gs, &mut mem);
        assert_eq!(mem.read(q, 8), 0xfeed);
        assert_eq!(a.live_objects(), 1);
    }
}
