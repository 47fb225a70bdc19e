//! The allocator-side contract of the evaluation's backend registry.
//!
//! Every allocator a `BackendSpec` (in `halo_core`) can construct
//! implements [`BackendAllocator`]: the plain [`VmAllocator`] interface
//! plus one reader for the technique-specific diagnostics the evaluation
//! reports (fragmentation, event counters, the degradation ladder), so the
//! evaluation loop needs no per-backend downcasting or special arms.

use crate::group_alloc::FragReport;
use crate::sharded::ShardedAllocStats;
use crate::{
    BoundaryTagAllocator, HaloGroupAllocator, RandomGroupAllocator, ShardedHaloAllocator,
    SizeClassAllocator,
};
use halo_vm::VmAllocator;

/// What an allocator with grouped pools reports after a measured run: the
/// one snapshot [`HaloGroupAllocator::report`] takes of an arena, and
/// [`ShardedHaloAllocator::report`] merges over its shards.
#[derive(Debug, Clone, Copy)]
pub struct BackendReport {
    /// Fragmentation of grouped data at peak (Table 1).
    pub frag: FragReport,
    /// Event and degradation-ladder counters, and the remote-free queue
    /// pressure — all zero for an allocator that is one arena.
    pub stats: ShardedAllocStats,
    /// Whether the allocator shards by thread.
    pub sharded: bool,
}

/// A [`VmAllocator`] measurable as an evaluation backend.
pub trait BackendAllocator: VmAllocator {
    /// The diagnostics of an allocator that maintains grouped pools; the
    /// baselines have none.
    fn backend_report(&self) -> Option<BackendReport> {
        None
    }
}

impl BackendAllocator for SizeClassAllocator {}
impl BackendAllocator for BoundaryTagAllocator {}
impl BackendAllocator for RandomGroupAllocator {}

impl BackendAllocator for HaloGroupAllocator {
    fn backend_report(&self) -> Option<BackendReport> {
        Some(self.report())
    }
}

impl BackendAllocator for ShardedHaloAllocator {
    fn backend_report(&self) -> Option<BackendReport> {
        Some(self.report())
    }
}
