//! Allocators for the HALO reproduction: the baselines the paper measures
//! against and the specialised group allocator it contributes (§4.4).
//!
//! Everything here implements [`halo_vm::VmAllocator`], so any allocator can
//! be plugged under any simulated program:
//!
//! * [`SizeClassAllocator`] — a jemalloc-style size-segregated allocator;
//!   the paper's default/baseline allocator (jemalloc 5.1.0 in §5.1).
//! * [`BoundaryTagAllocator`] — a ptmalloc2/dlmalloc-style best-fit
//!   free-list allocator with inline chunk headers, for the §5.1
//!   jemalloc-vs-ptmalloc2 baseline comparison.
//! * [`RandomGroupAllocator`] — the deliberately terrible allocator of
//!   Fig. 15: small objects go to one of four bump pools
//!   ([`halo_vm::MallocOnlyAllocator`]) at random.
//! * [`HaloGroupAllocator`] — the paper's specialised allocator: group
//!   selectors evaluated against the shared group-state vector route
//!   allocations into group-owned, size-aligned chunks carved from large
//!   demand-paged slabs, with bump allocation inside chunks, a
//!   `live_regions` count in the chunk bookkeeping, and spare-chunk
//!   reuse/purging. Non-grouped requests forward to a fallback allocator.
//! * [`ShardedHaloAllocator`] — the thread-safe sharded runtime: N
//!   complete group allocators at disjoint address strides, thread-keyed
//!   shard selection, and mimalloc-style owner-shard remote-free queues,
//!   so the grouped layout survives a multi-threaded malloc/free stream.
//! * [`rt`] — a *native* (non-simulated) group-pool runtime implementing
//!   [`std::alloc::GlobalAlloc`], demonstrating the synthesised-allocator
//!   half of HALO on real memory.
//!
//! The [`SelectorTable`] type is the runtime form of the identification
//! stage's output (Fig. 10): per-group DNF formulae over group-state bits,
//! evaluated in group-popularity order with first match winning.
//!
//! Failure policy: this crate is the production-facing allocator runtime,
//! so non-test code must not `unwrap`/`expect` its way into a process
//! abort — resource edges degrade (typed errors, fallback routing,
//! [`DegradeStats`] counters; see DESIGN.md §12). The lint below enforces
//! it; the few remaining panics are genuine invariants and are
//! allow-listed at the call site with a justification.

#![warn(clippy::unwrap_used, clippy::expect_used)]

mod backend;
mod boundary_tag;
mod faults;
mod group_alloc;
mod page_index;
mod random_group;
pub mod rt;
mod selector;
mod sharded;
mod size_class;
mod stats;
mod vmm;

pub use backend::{BackendAllocator, BackendReport};
pub use boundary_tag::BoundaryTagAllocator;
pub use faults::{DegradeStats, FaultInjector, FaultPlan, FaultSite};
pub use group_alloc::{FragReport, GroupAllocConfig, GroupAllocStats, HaloGroupAllocator};
/// Re-exported from `halo_graph`, where the reuse-policy choice lives.
pub use halo_graph::ReusePolicy;
pub use random_group::RandomGroupAllocator;
pub use selector::{GroupSelector, SelectorTable};
pub use sharded::{ForeignPointer, ShardedAllocStats, ShardedHaloAllocator, GROUP_SHARD_STRIDE};
pub use size_class::{SizeClassAllocator, SIZE_CLASSES, SMALL_MAX};
pub use stats::AllocatorStats;
pub use vmm::{ReserveError, Vmm};
