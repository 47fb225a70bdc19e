//! Common allocator statistics.

/// Live-data accounting implemented by every simulated allocator, used by
/// tests and the fragmentation experiment (Table 1).
pub trait AllocatorStats {
    /// Bytes currently live (as requested by the program, before rounding).
    fn live_bytes(&self) -> u64;

    /// Number of live allocations.
    fn live_objects(&self) -> usize;
}

/// The bump allocator lives in `halo_vm` (which cannot see this crate);
/// its accounting joins the common trait here.
impl AllocatorStats for halo_vm::MallocOnlyAllocator {
    fn live_bytes(&self) -> u64 {
        self.live_bytes()
    }

    fn live_objects(&self) -> usize {
        self.live_objects()
    }
}
