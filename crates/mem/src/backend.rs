//! The allocator-side contract of the evaluation's backend registry.
//!
//! Every allocator a `BackendSpec` (in `halo_core`) can construct
//! implements [`BackendAllocator`]: the plain [`VmAllocator`] interface
//! plus uniform, optional access to the technique-specific diagnostics the
//! evaluation reports (fragmentation and group-allocator event counters).
//! Allocators without grouped pools simply report `None`, so the
//! evaluation loop needs no per-backend downcasting or special arms.

use crate::faults::{DegradeStats, FaultInjector, FaultPlan};
use crate::group_alloc::{FragReport, GroupAllocStats};
use crate::sharded::ShardedAllocStats;
use crate::stats::AllocatorStats;
use crate::{
    BoundaryTagAllocator, BumpAllocator, HaloGroupAllocator, RandomGroupAllocator,
    ShardedHaloAllocator, SizeClassAllocator,
};
use halo_vm::VmAllocator;

/// A [`VmAllocator`] measurable as an evaluation backend.
pub trait BackendAllocator: VmAllocator {
    /// Fragmentation of grouped data at peak (Table 1), if this allocator
    /// maintains grouped pools.
    fn backend_frag(&self) -> Option<FragReport> {
        None
    }

    /// Group-allocator event counters, if this allocator maintains grouped
    /// pools.
    fn backend_stats(&self) -> Option<GroupAllocStats> {
        None
    }

    /// Cross-shard remote-free pressure counters (queue pushes, drains,
    /// peak depth), if this allocator shards by thread.
    fn backend_sharded_stats(&self) -> Option<ShardedAllocStats> {
        None
    }

    /// Attach a fault injector replaying `plan` (chaos runs / `halo run
    /// --inject`). Returns whether this backend supports injection; the
    /// baselines do not — they predate the degradation ladder and are not
    /// what the robustness claim is about.
    fn backend_inject(&mut self, _plan: &FaultPlan) -> bool {
        false
    }

    /// Degradation-ladder counters, if this backend maintains them.
    fn backend_degrade(&self) -> Option<DegradeStats> {
        None
    }
}

impl BackendAllocator for SizeClassAllocator {}
impl BackendAllocator for BoundaryTagAllocator {}
impl BackendAllocator for BumpAllocator {}
impl BackendAllocator for RandomGroupAllocator {}

impl<F: VmAllocator + AllocatorStats> BackendAllocator for HaloGroupAllocator<F> {
    fn backend_frag(&self) -> Option<FragReport> {
        Some(self.frag_report())
    }

    fn backend_stats(&self) -> Option<GroupAllocStats> {
        Some(self.stats())
    }

    fn backend_inject(&mut self, plan: &FaultPlan) -> bool {
        self.set_fault_injector(std::sync::Arc::new(FaultInjector::new(plan.clone())));
        true
    }

    fn backend_degrade(&self) -> Option<DegradeStats> {
        Some(self.degrade_stats())
    }
}

impl BackendAllocator for ShardedHaloAllocator {
    fn backend_frag(&self) -> Option<FragReport> {
        Some(self.frag_report())
    }

    fn backend_stats(&self) -> Option<GroupAllocStats> {
        Some(self.stats())
    }

    fn backend_sharded_stats(&self) -> Option<ShardedAllocStats> {
        Some(self.sharded_stats())
    }

    fn backend_inject(&mut self, plan: &FaultPlan) -> bool {
        self.set_fault_injector(std::sync::Arc::new(FaultInjector::new(plan.clone())));
        true
    }

    fn backend_degrade(&self) -> Option<DegradeStats> {
        Some(self.degrade_stats())
    }
}
