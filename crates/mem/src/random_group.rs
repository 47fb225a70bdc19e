//! The Fig. 15 stress allocator: random assignment to four bump pools.
//!
//! "Figure 15 shows the results of running each benchmark under an allocator
//! that randomly allocates objects smaller than the page size from four
//! 'groups', much in the same way that a variant of HALO with an extremely
//! poor grouping algorithm might." Benchmarks sensitive to this extreme
//! policy are exactly the ones where layout matters — and where HALO helps.

use crate::stats::AllocatorStats;
use crate::SizeClassAllocator;
use halo_vm::{
    CallSite, GroupState, MallocOnlyAllocator, Memory, SplitMix64, VmAllocator, PAGE_SIZE,
};

/// Number of random pools, per the paper.
const POOLS: usize = 4;
/// Address span reserved per pool.
const POOL_SPAN: u64 = 1 << 34;

/// Routes small allocations to one of four bump pools uniformly at random;
/// page-sized and larger requests go to a jemalloc-style fallback.
#[derive(Debug)]
pub struct RandomGroupAllocator {
    pools: Vec<MallocOnlyAllocator>,
    pools_base: u64,
    rng: SplitMix64,
    fallback: SizeClassAllocator,
}

impl RandomGroupAllocator {
    /// Default base address for the pools.
    pub const DEFAULT_BASE: u64 = 0x90_0000_0000;

    /// Create the allocator with deterministic pool choice from `seed`.
    pub fn new(seed: u64) -> Self {
        let pools_base = Self::DEFAULT_BASE;
        RandomGroupAllocator {
            pools: (0..POOLS as u64)
                .map(|i| MallocOnlyAllocator::with_base_span(pools_base + i * POOL_SPAN, POOL_SPAN))
                .collect(),
            pools_base,
            rng: SplitMix64::new(seed),
            fallback: SizeClassAllocator::with_base(pools_base + POOLS as u64 * POOL_SPAN),
        }
    }

    fn pool_of(&self, ptr: u64) -> Option<usize> {
        if ptr < self.pools_base {
            return None;
        }
        let idx = (ptr - self.pools_base) / POOL_SPAN;
        (idx < POOLS as u64).then_some(idx as usize)
    }
}

impl AllocatorStats for RandomGroupAllocator {
    fn live_bytes(&self) -> u64 {
        self.pools.iter().map(|p| p.live_bytes()).sum::<u64>() + self.fallback.live_bytes()
    }

    fn live_objects(&self) -> usize {
        self.pools.iter().map(|p| p.live_objects()).sum::<usize>() + self.fallback.live_objects()
    }
}

impl VmAllocator for RandomGroupAllocator {
    fn malloc(&mut self, size: u64, site: CallSite, gs: &GroupState, mem: &mut Memory) -> u64 {
        if size < PAGE_SIZE {
            let pool = self.rng.next_below(POOLS as u64) as usize;
            self.pools[pool].malloc(size, site, gs, mem)
        } else {
            self.fallback.malloc(size, site, gs, mem)
        }
    }

    fn free(&mut self, ptr: u64, mem: &mut Memory) {
        match self.pool_of(ptr) {
            Some(pool) => self.pools[pool].free(ptr, mem),
            None => self.fallback.free(ptr, mem),
        }
    }

    fn live_size(&self, ptr: u64) -> Option<u64> {
        match self.pool_of(ptr) {
            Some(pool) => self.pools[pool].live_size(ptr),
            None => self.fallback.live_size(ptr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> CallSite {
        CallSite::new(halo_vm::FuncId(0), 0)
    }

    #[test]
    fn small_allocations_scatter_across_pools() {
        let mut a = RandomGroupAllocator::new(1);
        let gs = GroupState::default();
        let mut mem = Memory::new();
        let mut pools_hit = std::collections::HashSet::new();
        for _ in 0..64 {
            let p = a.malloc(32, site(), &gs, &mut mem);
            pools_hit.insert(a.pool_of(p).expect("small goes to a pool"));
        }
        assert_eq!(pools_hit.len(), POOLS, "all four pools used");
    }

    #[test]
    fn large_allocations_use_fallback() {
        let mut a = RandomGroupAllocator::new(1);
        let gs = GroupState::default();
        let mut mem = Memory::new();
        let p = a.malloc(PAGE_SIZE, site(), &gs, &mut mem);
        assert_eq!(a.pool_of(p), None);
        a.free(p, &mut mem);
        assert_eq!(a.live_objects(), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let gs = GroupState::default();
        let run = |seed| {
            let mut a = RandomGroupAllocator::new(seed);
            let mut mem = Memory::new();
            (0..16).map(|_| a.malloc(16, site(), &gs, &mut mem)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn free_routes_to_owning_pool() {
        let mut a = RandomGroupAllocator::new(3);
        let gs = GroupState::default();
        let mut mem = Memory::new();
        let ptrs: Vec<u64> = (0..20).map(|_| a.malloc(64, site(), &gs, &mut mem)).collect();
        assert_eq!(a.live_objects(), 20);
        for p in ptrs {
            a.free(p, &mut mem);
        }
        assert_eq!(a.live_objects(), 0);
        assert_eq!(a.live_bytes(), 0);
    }
}
