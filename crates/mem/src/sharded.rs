//! A thread-safe, sharded front for the HALO group allocator.
//!
//! The paper's specialised allocator ([`HaloGroupAllocator`]) is a
//! single-arena design: correct under one thread, a bottleneck (and a data
//! race) under many. Production allocators solve this with per-thread
//! arenas (jemalloc) or per-heap sharding with remote-free queues
//! (mimalloc); [`ShardedHaloAllocator`] brings that architecture to the
//! grouped allocator so HALO's layout optimisation survives a
//! multi-threaded malloc/free stream:
//!
//! * **N shards**, each a complete [`HaloGroupAllocator`] — same selector
//!   table, same per-group [`GroupAllocConfig`] overrides — behind its own
//!   mutex, rooted at a shard-private slice of the address space
//!   ([`GROUP_SHARD_STRIDE`] bytes of group slabs plus a private fallback
//!   range). Any pointer's owning shard is therefore pure address
//!   arithmetic, no lock required.
//! * **Thread-keyed shard selection.** Each OS thread is assigned a shard
//!   slot round-robin on first use (the moral equivalent of a TLS arena
//!   pointer; see the `tracking-allocator` thread-token pattern), and the
//!   simulated program's logical thread — delivered through
//!   [`halo_vm::VmAllocator::thread_switched`] — offsets it, which is how a
//!   single-threaded [`halo_vm::Engine`] drives a genuinely multi-threaded
//!   allocation stream deterministically.
//! * **Owner-shard remote-free queues.** `free(p)` from a thread mapped to
//!   a different shard than `p`'s owner never takes the owner's allocator
//!   lock (which its owning thread may be holding for a long grouped
//!   operation) and never takes any global lock: the pointer is pushed
//!   onto the owner's dedicated remote queue (its own small mutex), and
//!   the owner applies the queued frees the next time it enters its shard
//!   — mimalloc's deferred-free protocol. The queue and the owner trade
//!   two buffers back and forth, so a drain allocates nothing.
//!
//! Every sweeping reader (`report`, `live_grouped_bytes`, `live_bytes`,
//! `live_objects`) is one sweep over the shards (`read_shards`);
//! [`ShardedHaloAllocator::report`] merges each shard's own
//! [`HaloGroupAllocator::report`] snapshot, and `sharded_stats` and
//! `frag_report` project it. DESIGN.md §10 says what a snapshot guarantees
//! and why summing preserves the Table 1 peak-snapshot semantics per shard
//! (each shard is an independent arena, exactly as jemalloc's per-thread
//! arenas are counted in practice).

use crate::backend::BackendReport;
use crate::faults::{DegradeStats, FaultInjector, FaultSite};
use crate::group_alloc::{FragReport, GroupAllocConfig, GroupAllocStats};
use crate::selector::SelectorTable;
use crate::stats::AllocatorStats;
use crate::{HaloGroupAllocator, SizeClassAllocator};
use halo_vm::{CallSite, GroupState, Memory, SyncVmAllocator, VmAllocator};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;

/// A pointer handed to `free`/`realloc` that no shard of this allocator
/// owns. The documented typed form of what used to be a panic: callers on
/// the [`SyncVmAllocator`] face get it from
/// [`ShardedHaloAllocator::try_free`]; the infallible `free` absorbs it as
/// a counted no-op ([`DegradeStats::invalid_frees`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForeignPointer {
    /// The offending pointer.
    pub ptr: u64,
}

impl std::fmt::Display for ForeignPointer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pointer {:#x} belongs to no shard of this allocator", self.ptr)
    }
}

impl std::error::Error for ForeignPointer {}

/// Group-slab address space per shard. Matches the [`HaloGroupAllocator`]
/// reservation span exactly, so shard group regions tile with no gaps:
/// `owner = (ptr - HaloGroupAllocator::SLAB_BASE) / GROUP_SHARD_STRIDE`.
pub const GROUP_SHARD_STRIDE: u64 = 1 << 38;

/// Fallback address space per shard (16 GiB — orders of magnitude above
/// any simulated workload; exceeding it is a loud `Vmm` panic, not
/// aliasing).
const FALLBACK_SHARD_STRIDE: u64 = 1 << 34;

/// Where shard 0's fallback starts; shard `i`'s is
/// `FALLBACK_BASE + i * FALLBACK_SHARD_STRIDE`.
const FALLBACK_BASE: u64 = SizeClassAllocator::DEFAULT_BASE;

/// Process-unique ids so the per-thread shard-slot cache can tell
/// allocator instances apart.
static NEXT_ALLOC_ID: AtomicUsize = AtomicUsize::new(0);

#[derive(Debug, Clone, Copy)]
struct ThreadState {
    /// Round-robin slot assigned to the OS thread on first use.
    slot: usize,
    /// Logical (simulated) thread last announced via `thread_switched`.
    logical: u16,
}

thread_local! {
    /// Last-used (allocator id, thread state): makes shard selection
    /// lock-free in the steady state. `usize::MAX` never collides with a
    /// real allocator id.
    static THREAD_CACHE: Cell<(usize, ThreadState)> =
        const { Cell::new((usize::MAX, ThreadState { slot: 0, logical: 0 })) };
}

#[cfg(test)]
thread_local! {
    /// Shard allocator locks this thread has taken, so a test can tell how
    /// many a reader paid for.
    static SHARD_LOCKS_TAKEN: Cell<u64> = const { Cell::new(0) };
}

#[derive(Debug, Default)]
struct ThreadRegistry {
    slots: HashMap<ThreadId, ThreadState>,
    next_slot: usize,
}

/// Bound on each shard's remote-free queue: a push that would exceed it
/// frees directly under the owner's allocator lock instead (backpressure,
/// not unbounded growth under a free-storm). No measured workload comes
/// near it (the mt models peak in the thousands), while a runaway
/// producer is still capped at 512 KiB of queued pointers per shard.
const REMOTE_QUEUE_CAP: usize = 65_536;

/// What a shard's allocator lock protects.
#[derive(Debug)]
struct ShardState {
    alloc: HaloGroupAllocator,
    /// The drained half of the remote-free double buffer: empty between
    /// drains, swapped with the queue's buffer when the owner drains (so
    /// the queue keeps the capacity it grew and a drain allocates nothing).
    drain_buf: Vec<u64>,
    /// Queued remote frees this shard has applied so far.
    drained: u64,
}

/// A shard's remote-free queue and the push-side counters its lock covers.
#[derive(Debug, Default)]
struct RemoteQueue {
    /// Pointers freed by threads mapped to other shards, waiting for this
    /// shard to apply them ("remote frees").
    ptrs: Vec<u64>,
    /// Frees ever pushed onto this queue.
    queued: u64,
    /// Deepest this queue has been, observed at push time.
    peak: u64,
}

#[derive(Debug)]
struct Shard {
    inner: Mutex<ShardState>,
    remote: Mutex<RemoteQueue>,
    /// Lock-free view of the remote queue's length, written while the
    /// queue lock is held: lets the hot path skip the queue mutex
    /// entirely when nothing is pending (mimalloc's deferred-free flag).
    /// A stale zero read merely defers draining to the next shard entry.
    pending: AtomicUsize,
}

/// Cross-shard event counters, alongside the summed per-shard
/// [`GroupAllocStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardedAllocStats {
    /// Per-shard group-allocator counters, summed.
    pub alloc: GroupAllocStats,
    /// Frees enqueued onto a foreign shard's remote queue.
    pub remote_frees: u64,
    /// Queued remote frees applied by their owner shard so far.
    pub remote_drained: u64,
    /// High-water mark of any single shard's remote queue (entries
    /// observed at push time) — the queue-pressure signal `halo run
    /// --json` reports: a depth that keeps growing means some owner shard
    /// is never entered and its memory is only reclaimed by the join-time
    /// flush.
    pub remote_peak_queue: u64,
    /// Degradation-ladder counters, summed across shards plus the
    /// sharded runtime's own rungs (queue overflows, poisoned-lock
    /// recoveries, invalid frees).
    pub degrade: DegradeStats,
}

impl ShardedAllocStats {
    /// Field-wise sum, except `remote_peak_queue`, which takes the max: the
    /// deepest queue ever observed. Fully destructured like
    /// [`GroupAllocStats::merge`].
    pub fn merge(&mut self, other: ShardedAllocStats) {
        let ShardedAllocStats { alloc, remote_frees, remote_drained, remote_peak_queue, degrade } =
            other;
        self.alloc.merge(alloc);
        self.remote_frees += remote_frees;
        self.remote_drained += remote_drained;
        self.remote_peak_queue = self.remote_peak_queue.max(remote_peak_queue);
        self.degrade.merge(degrade);
    }
}

/// The thread-safe sharded HALO runtime (see module docs).
#[derive(Debug)]
pub struct ShardedHaloAllocator {
    id: usize,
    /// The configuration every shard runs (shard `i`'s slabs start at
    /// `HaloGroupAllocator::SLAB_BASE + i * GROUP_SHARD_STRIDE`).
    config: GroupAllocConfig,
    shards: Vec<Shard>,
    threads: Mutex<ThreadRegistry>,
    queue_overflows: AtomicU64,
    poisoned_recovered: AtomicU64,
    invalid_frees: AtomicU64,
    /// Number of plan hot-swaps applied so far ([`Self::swap_plans`]);
    /// `0` means the construction-time plan is still in force.
    plan_epoch: AtomicU64,
    /// Fault injector for chaos runs, shared with every shard's inner
    /// allocator; `None` in production.
    faults: Option<Arc<FaultInjector>>,
}

impl ShardedHaloAllocator {
    /// Create an allocator with `shards` shards, each a full
    /// [`HaloGroupAllocator`] with the given selector table and per-group
    /// configurations (entry `g` is group `g`'s layout; empty for
    /// all-default groups).
    ///
    /// With `shards == 1` the allocator degenerates to exactly the plain
    /// single-arena allocator: same bases, same placement, pointer for
    /// pointer (the differential identity the property tests pin).
    ///
    /// # Panics
    ///
    /// Panics with [`Self::check_shards`]'s text if it rejects `shards`,
    /// or with [`GroupAllocConfig::check_chunk_size`]'s if `config`'s own
    /// chunk size or an override's breaks it. The plan is checked once,
    /// whatever the shard count.
    pub fn new(
        shards: usize,
        config: GroupAllocConfig,
        selectors: SelectorTable,
        overrides: Vec<GroupAllocConfig>,
    ) -> Self {
        if let Err(rule) = Self::check_shards(shards) {
            panic!("{rule}");
        }
        let groups = config.group_table(selectors.num_groups(), overrides);
        let shards = (0..shards as u64)
            .map(|i| {
                let fallback = SizeClassAllocator::with_base_span(
                    FALLBACK_BASE + i * FALLBACK_SHARD_STRIDE,
                    FALLBACK_SHARD_STRIDE,
                );
                let slab_base = HaloGroupAllocator::SLAB_BASE + i * GROUP_SHARD_STRIDE;
                let mut alloc = HaloGroupAllocator::build(config, slab_base, fallback);
                alloc.install(selectors.clone(), &groups);
                Shard {
                    inner: Mutex::new(ShardState { alloc, drain_buf: Vec::new(), drained: 0 }),
                    remote: Mutex::new(RemoteQueue::default()),
                    pending: AtomicUsize::new(0),
                }
            })
            .collect();
        ShardedHaloAllocator {
            id: NEXT_ALLOC_ID.fetch_add(1, Ordering::Relaxed),
            config,
            shards,
            threads: Mutex::new(ThreadRegistry::default()),
            queue_overflows: AtomicU64::new(0),
            poisoned_recovered: AtomicU64::new(0),
            invalid_frees: AtomicU64::new(0),
            plan_epoch: AtomicU64::new(0),
            faults: None,
        }
    }

    /// The number of plan hot-swaps applied so far; epoch `0` is the
    /// construction-time plan. Serve mode stamps its per-epoch report
    /// rows with this.
    pub fn plan_epoch(&self) -> u64 {
        self.plan_epoch.load(Ordering::Acquire)
    }

    /// Hot-swap every shard onto a new plan (DESIGN.md §15): replace the
    /// selector table and per-group configuration, then advance the plan
    /// epoch. Every shard installs the same checked table, as in
    /// [`Self::new`].
    ///
    /// All shard locks are taken in index order and held across the
    /// installation, so the swap is atomic with respect to allocation: no
    /// thread can observe shard `i` on the new plan while shard `j` still
    /// serves the old one. No other path acquires two shard locks at
    /// once, so the ordered sweep cannot deadlock, and
    /// [`Self::lock_shard`]'s poisoning recovery applies — a swap never
    /// wedges on a shard whose previous holder panicked.
    ///
    /// The swap is prospective, exactly as
    /// [`HaloGroupAllocator::install_plan`]: changed groups start fresh
    /// chunks, unchanged groups keep filling their current ones (an
    /// identical plan is observably a no-op apart from the epoch bump),
    /// live pointers never move, and retired chunks drain through the
    /// ordinary free and remote-queue machinery.
    ///
    /// # Panics
    ///
    /// Panics with [`GroupAllocConfig::check_chunk_size`]'s text if an
    /// override breaks it. The plan is checked once, before any shard lock
    /// is taken, so a bad plan leaves every shard unchanged.
    pub fn swap_plans(&self, selectors: SelectorTable, overrides: Vec<GroupAllocConfig>) -> u64 {
        let groups = self.config.group_table(selectors.num_groups(), overrides);
        let mut guards: Vec<_> = (0..self.shards.len()).map(|s| self.lock_shard(s)).collect();
        for guard in &mut guards {
            guard.alloc.install(selectors.clone(), &groups);
        }
        let epoch = self.plan_epoch.fetch_add(1, Ordering::AcqRel) + 1;
        drop(guards);
        epoch
    }

    /// Attach a fault injector (chaos runs): the sharded runtime draws
    /// its queue/panic faults from it and every shard's inner allocator
    /// draws its reservation/chunk faults from the same schedule.
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        for s in 0..self.shards.len() {
            self.lock_shard(s).alloc.set_fault_injector(Arc::clone(&injector));
        }
        self.faults = Some(injector);
    }

    /// Take shard `s`'s allocator lock, recovering from poisoning: a
    /// panicking holder leaves the data intact more often than not, so
    /// recovery is `PoisonError::into_inner` plus an invariant re-check.
    /// If the structures cannot be trusted the shard's allocator is
    /// quarantined ([`HaloGroupAllocator::quarantine`]) — every group
    /// degraded, all its traffic on the fallback, through every later plan
    /// swap — under the lock it was recovered under. Either way, other
    /// threads are never wedged.
    fn lock_shard(&self, s: usize) -> MutexGuard<'_, ShardState> {
        #[cfg(test)]
        SHARD_LOCKS_TAKEN.set(SHARD_LOCKS_TAKEN.get() + 1);
        match self.shards[s].inner.lock() {
            Ok(inner) => inner,
            Err(poisoned) => {
                self.poisoned_recovered.fetch_add(1, Ordering::Relaxed);
                let mut inner = poisoned.into_inner();
                if inner.alloc.check_invariants().is_err() {
                    inner.alloc.quarantine();
                }
                self.shards[s].inner.clear_poison();
                inner
            }
        }
    }

    /// Take shard `s`'s remote-queue lock, recovering from poisoning. The
    /// queue is a plain list of pointers and two counters — there is no
    /// partial state a panicking pusher could leave behind — so recovery
    /// keeps the contents.
    fn lock_remote(&self, s: usize) -> MutexGuard<'_, RemoteQueue> {
        match self.shards[s].remote.lock() {
            Ok(queue) => queue,
            Err(poisoned) => {
                self.poisoned_recovered.fetch_add(1, Ordering::Relaxed);
                self.shards[s].remote.clear_poison();
                poisoned.into_inner()
            }
        }
    }

    /// Take the thread-registry lock, recovering from poisoning (slot
    /// assignments are monotonic inserts; a torn update is impossible).
    fn lock_registry(&self) -> MutexGuard<'_, ThreadRegistry> {
        match self.threads.lock() {
            Ok(reg) => reg,
            Err(poisoned) => {
                self.poisoned_recovered.fetch_add(1, Ordering::Relaxed);
                self.threads.clear_poison();
                poisoned.into_inner()
            }
        }
    }

    /// Largest shard count the address layout supports: the per-shard
    /// fallback tiles must all fit below the group slabs. The bound is
    /// checked in one place, [`Self::check_shards`].
    pub const MAX_SHARDS: usize =
        ((HaloGroupAllocator::SLAB_BASE - FALLBACK_BASE) / FALLBACK_SHARD_STRIDE) as usize;

    /// Whether the address layout holds `shards` shards, from one to
    /// [`Self::MAX_SHARDS`]; the `Err` names the broken rule. [`Self::new`]
    /// panics with that text, so whoever holds user input (the CLI's
    /// `--shards`, `halo_core::serve`) checks here first.
    pub fn check_shards(shards: usize) -> Result<(), String> {
        let max = Self::MAX_SHARDS;
        if (1..=max).contains(&shards) {
            return Ok(());
        }
        Err(format!("shards {shards} must be within [1, {max}], the address layout's limit"))
    }

    /// The calling thread's state, consulting the registry only on a
    /// cache miss (first touch, or after using a different allocator).
    fn thread_state(&self) -> ThreadState {
        THREAD_CACHE.with(|cache| {
            let (id, state) = cache.get();
            if id == self.id {
                return state;
            }
            let state = self.registry_state(None);
            cache.set((self.id, state));
            state
        })
    }

    /// Look up (or create) the calling thread's registry entry, optionally
    /// recording a logical-thread switch.
    fn registry_state(&self, set_logical: Option<u16>) -> ThreadState {
        let tid = std::thread::current().id();
        let mut reg = self.lock_registry();
        let next = reg.next_slot;
        let known = reg.slots.len();
        let entry = reg.slots.entry(tid).or_insert(ThreadState { slot: next, logical: 0 });
        if let Some(logical) = set_logical {
            entry.logical = logical;
        }
        let state = *entry;
        if reg.slots.len() > known {
            reg.next_slot = next + 1;
        }
        state
    }

    fn set_logical(&self, logical: u16) {
        let state = self.registry_state(Some(logical));
        THREAD_CACHE.with(|cache| cache.set((self.id, state)));
    }

    /// The shard serving the calling (OS, logical) thread pair.
    fn current_shard(&self) -> usize {
        let state = self.thread_state();
        (state.slot + state.logical as usize) % self.shards.len()
    }

    /// The shard owning `ptr`, by address arithmetic alone.
    ///
    /// # Errors
    ///
    /// Returns [`ForeignPointer`] when no shard's address range contains
    /// `ptr` — a caller bug (wild or already-unmapped pointer), reported
    /// as data instead of a panic so the runtime can absorb it.
    fn owner_of(&self, ptr: u64) -> Result<usize, ForeignPointer> {
        let n = self.shards.len() as u64;
        let slabs = HaloGroupAllocator::SLAB_BASE;
        if ptr >= slabs && ptr < slabs + n * GROUP_SHARD_STRIDE {
            Ok(((ptr - slabs) / GROUP_SHARD_STRIDE) as usize)
        } else if ptr >= FALLBACK_BASE && ptr < FALLBACK_BASE + n * FALLBACK_SHARD_STRIDE {
            Ok(((ptr - FALLBACK_BASE) / FALLBACK_SHARD_STRIDE) as usize)
        } else {
            Err(ForeignPointer { ptr })
        }
    }

    /// Enter shard `s`: take its allocator lock, apply its queued remote
    /// frees (the owner services its queue on every entry, so queues drain
    /// as long as the shard stays active), and return the held lock.
    ///
    /// The hot path (`force` off) reads the lock-free pending flag first
    /// and skips the queue mutex when it shows empty; `drain_remote` forces
    /// the lock so the join-time flush is authoritative even against a
    /// racing push.
    ///
    /// Lock discipline: the queue's mutex is only ever taken *inside* the
    /// owner's allocator lock (here, for the length of a buffer swap) or
    /// on its own (a push, which releases it before touching any allocator
    /// lock), and no operation ever holds two shards' allocator locks — so
    /// there is no ordering to violate.
    fn service_shard(&self, s: usize, mem: &mut Memory, force: bool) -> MutexGuard<'_, ShardState> {
        let shard = &self.shards[s];
        let mut inner = self.lock_shard(s);
        if force || shard.pending.load(Ordering::Acquire) != 0 {
            let state = &mut *inner;
            {
                let mut queue = self.lock_remote(s);
                shard.pending.store(0, Ordering::Release);
                // Hand the queue the buffer the last drain emptied and
                // take the full one: neither side ever regrows.
                std::mem::swap(&mut queue.ptrs, &mut state.drain_buf);
            }
            state.drained += state.drain_buf.len() as u64;
            for ptr in state.drain_buf.drain(..) {
                state.alloc.free(ptr, mem);
            }
        }
        inner
    }

    /// Free `ptr`, reporting — rather than absorbing — a pointer no shard
    /// owns. The allocator's state is untouched on the error path: no
    /// counter moves, nothing is queued, later operations are unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`ForeignPointer`] when `ptr` lies outside every shard's
    /// address ranges.
    pub fn try_free(&self, ptr: u64, mem: &mut Memory) -> Result<(), ForeignPointer> {
        let owner = self.owner_of(ptr)?;
        if owner == self.current_shard() {
            let mut inner = self.service_shard(owner, mem, false);
            inner.alloc.free(ptr, mem);
            return Ok(());
        }
        let shard = &self.shards[owner];
        {
            let mut queue = self.lock_remote(owner);
            let forced_overflow =
                self.faults.as_ref().is_some_and(|f| f.should_fail(FaultSite::RemoteQueue));
            if !forced_overflow && queue.ptrs.len() < REMOTE_QUEUE_CAP {
                // The counters are plain fields: the queue lock this push
                // already holds orders them against every other push, and
                // a drain and a reader take the same lock.
                queue.queued += 1;
                queue.ptrs.push(ptr);
                shard.pending.store(queue.ptrs.len(), Ordering::Release);
                queue.peak = queue.peak.max(queue.ptrs.len() as u64);
                return Ok(());
            }
        }
        // Queue at capacity (or a fault says it is): backpressure. Drop
        // the queue lock and free directly under the owner's allocator
        // lock — slower (it contends with the owner) but bounded.
        self.queue_overflows.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.service_shard(owner, mem, false);
        inner.alloc.free(ptr, mem);
        Ok(())
    }

    /// Apply every queued remote free on every shard — the join-time
    /// flush (a shard left idle forever would otherwise never service its
    /// queue). [`halo_vm::Engine`] invokes this automatically when an
    /// execution completes (via `run_finished`), so measured runs report
    /// exact free counters; call it directly after joining native driver
    /// threads.
    pub fn drain_remote(&self, mem: &mut Memory) {
        for s in 0..self.shards.len() {
            drop(self.service_shard(s, mem, true));
        }
    }

    /// The one place shard locks are taken for reading: fold `read` over
    /// the shards, each under one hold of its allocator lock with its queue
    /// lock nested inside (allocator → queue, the nesting a drain uses). A
    /// shard's allocator counters, its `drained` count and its queue are
    /// therefore read at one instant; different shards are read at
    /// different instants, so cross-shard sums are exact only when the
    /// allocator is quiescent (DESIGN.md §10).
    fn read_shards<T>(
        &self,
        mut acc: T,
        mut read: impl FnMut(&mut T, &ShardState, &RemoteQueue),
    ) -> T {
        for s in 0..self.shards.len() {
            self.read_shard(s, |shard, queue| read(&mut acc, shard, queue));
        }
        acc
    }

    /// One shard's step of [`Self::read_shards`].
    fn read_shard<T>(&self, s: usize, read: impl FnOnce(&ShardState, &RemoteQueue) -> T) -> T {
        let inner = self.lock_shard(s);
        let queue = self.lock_remote(s);
        read(&inner, &queue)
    }

    /// Everything a measured backend reports, from one sweep: each shard's
    /// own [`HaloGroupAllocator::report`] merged, plus its queue counters,
    /// plus the runtime's own rungs. A shard's queue is read under its
    /// allocator lock, so `remote_frees - remote_drained` is the number of
    /// remote frees still queued (DESIGN.md §10).
    pub fn report(&self) -> BackendReport {
        let empty = BackendReport {
            frag: FragReport::default(),
            stats: ShardedAllocStats::default(),
            sharded: true,
        };
        let mut report =
            self.read_shards(empty, |BackendReport { frag, stats, .. }, shard, queue| {
                let own = shard.alloc.report();
                frag.merge(own.frag);
                stats.merge(ShardedAllocStats {
                    remote_frees: queue.queued,
                    remote_drained: shard.drained,
                    remote_peak_queue: queue.peak,
                    ..own.stats
                });
            });
        let d = &mut report.stats.degrade;
        d.queue_overflows += self.queue_overflows.load(Ordering::Relaxed);
        d.poisoned_recovered += self.poisoned_recovered.load(Ordering::Relaxed);
        d.invalid_frees += self.invalid_frees.load(Ordering::Relaxed);
        // Every shard draws from one shared injector: the sum above counts
        // its faults once per shard.
        d.injected_faults = self.faults.as_ref().map_or(0, |f| f.fired());
        report
    }

    /// [`Self::report`]'s counters.
    pub fn sharded_stats(&self) -> ShardedAllocStats {
        self.report().stats
    }

    /// [`Self::report`]'s aggregate Table 1 snapshot: the field-wise sum of
    /// each shard's own peak snapshot. Each shard is an independent arena,
    /// so its snapshot keeps the paper's semantics exactly; the sum is the
    /// standard per-arena accounting (see DESIGN.md §10).
    pub fn frag_report(&self) -> FragReport {
        self.report().frag
    }

    /// Bytes of grouped data currently live, across all shards. Remote
    /// frees still queued count as live — they have not been applied yet.
    pub fn live_grouped_bytes(&self) -> u64 {
        self.read_shards(0, |n, shard, _| *n += shard.alloc.live_grouped_bytes())
    }
}

impl SyncVmAllocator for ShardedHaloAllocator {
    fn malloc(&self, size: u64, site: CallSite, gs: &GroupState, mem: &mut Memory) -> u64 {
        let s = self.current_shard();
        let inner = self.service_shard(s, mem, false);
        if self.faults.as_ref().is_some_and(|f| f.should_fail(FaultSite::ShardPanic)) {
            // The injected mid-operation panic: this thread dies holding
            // the shard's allocator lock, poisoning it for everyone else.
            // No structure has been touched yet, so the invariant re-check
            // in `lock_shard` will pass and recovery is clean.
            panic!("injected fault: thread panicked holding shard {s}'s allocator lock");
        }
        let mut inner = inner;
        inner.alloc.malloc(size, site, gs, mem)
    }

    fn free(&self, ptr: u64, mem: &mut Memory) {
        if self.try_free(ptr, mem).is_err() {
            // The infallible face absorbs the invalid free as a counted
            // no-op (see DESIGN.md §12) — matching `libc::free`, which has
            // no error channel either.
            self.invalid_frees.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A free still on its owner's remote queue has happened as far as the
    /// program can tell (the owner applies it before its next operation),
    /// so the pointer already reads as not live. Linear in that queue: a
    /// reader for tests and oracles, on no request's path (`realloc` asks
    /// the owning shard's allocator after the drain).
    fn live_size(&self, ptr: u64) -> Option<u64> {
        let owner = self.owner_of(ptr).ok()?;
        self.read_shard(owner, |shard, queue| {
            shard.alloc.live_size(ptr).filter(|_| !queue.ptrs.contains(&ptr))
        })
    }

    fn realloc(
        &self,
        ptr: u64,
        size: u64,
        site: CallSite,
        gs: &GroupState,
        mem: &mut Memory,
    ) -> u64 {
        // The whole operation runs on the owning shard (which knows the
        // old region's size); ownership of the object stays with its
        // original shard even when a foreign thread grows it.
        let Ok(owner) = self.owner_of(ptr) else {
            // realloc of a pointer no shard owns: serve a fresh block
            // (there is nothing to copy or free) and count the anomaly.
            self.invalid_frees.fetch_add(1, Ordering::Relaxed);
            return SyncVmAllocator::malloc(self, size, site, gs, mem);
        };
        let mut inner = self.service_shard(owner, mem, false);
        inner.alloc.realloc(ptr, size, site, gs, mem)
    }

    fn thread_switched(&self, thread: u16) {
        self.set_logical(thread)
    }

    fn run_finished(&self, mem: &mut Memory) {
        self.drain_remote(mem);
        // Process-exit semantics: the finished program's last
        // ThreadSwitch must not leak into a later run on this OS thread
        // (placement would silently differ from a fresh first run).
        self.set_logical(0);
    }
}

/// The exclusive-access face, so the sharded runtime plugs into every
/// existing single-threaded harness (`measure`, the backend registry)
/// unchanged: each method is the shared one.
impl VmAllocator for ShardedHaloAllocator {
    fn malloc(&mut self, size: u64, site: CallSite, gs: &GroupState, mem: &mut Memory) -> u64 {
        SyncVmAllocator::malloc(self, size, site, gs, mem)
    }

    fn free(&mut self, ptr: u64, mem: &mut Memory) {
        SyncVmAllocator::free(self, ptr, mem)
    }

    fn live_size(&self, ptr: u64) -> Option<u64> {
        SyncVmAllocator::live_size(self, ptr)
    }

    fn realloc(
        &mut self,
        ptr: u64,
        size: u64,
        site: CallSite,
        gs: &GroupState,
        mem: &mut Memory,
    ) -> u64 {
        SyncVmAllocator::realloc(self, ptr, size, site, gs, mem)
    }

    fn thread_switched(&mut self, thread: u16) {
        SyncVmAllocator::thread_switched(self, thread)
    }

    fn run_finished(&mut self, mem: &mut Memory) {
        SyncVmAllocator::run_finished(self, mem)
    }
}

impl AllocatorStats for ShardedHaloAllocator {
    fn live_bytes(&self) -> u64 {
        self.read_shards(0, |n, shard, _| *n += shard.alloc.live_bytes())
    }

    fn live_objects(&self) -> usize {
        self.read_shards(0, |n, shard, _| *n += shard.alloc.live_objects())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::GroupSelector;

    include!("../tests/common/fixtures.rs");

    fn sharded(n: usize) -> (ShardedHaloAllocator, GroupState, Memory) {
        (
            ShardedHaloAllocator::new(n, tiny_config(), two_group_table(), Vec::new()),
            GroupState::new(2),
            Memory::new(),
        )
    }

    #[test]
    fn logical_threads_land_on_distinct_shards() {
        let (a, mut gs, mut mem) = sharded(2);
        gs.set(0);
        SyncVmAllocator::thread_switched(&a, 0);
        let p0 = SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem);
        SyncVmAllocator::thread_switched(&a, 1);
        let p1 = SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem);
        assert!(grouped(p0) && grouped(p1));
        assert_ne!(a.owner_of(p0), a.owner_of(p1), "thread key picks the shard");
        // Same logical thread → same shard, contiguous bumping resumes.
        let p1b = SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem);
        assert_eq!(p1b, p1 + 64);
    }

    #[test]
    fn foreign_free_queues_then_owner_drains() {
        let (a, mut gs, mut mem) = sharded(2);
        gs.set(0);
        SyncVmAllocator::thread_switched(&a, 0);
        let p = SyncVmAllocator::malloc(&a, 128, site(), &gs, &mut mem);
        let live_before = a.live_grouped_bytes();
        // A different logical thread frees the pointer: deferred, not lost.
        SyncVmAllocator::thread_switched(&a, 1);
        SyncVmAllocator::free(&a, p, &mut mem);
        assert_eq!(pending(a.sharded_stats()), 1, "foreign free is queued");
        assert_eq!(a.live_grouped_bytes(), live_before, "not applied yet");
        assert_eq!(a.sharded_stats().remote_frees, 1);
        // The owner re-enters its shard: queue drains before allocating.
        SyncVmAllocator::thread_switched(&a, 0);
        let q = SyncVmAllocator::malloc(&a, 128, site(), &gs, &mut mem);
        assert_eq!(pending(a.sharded_stats()), 0);
        assert_eq!(q, p, "freed region was recycled by the in-place chunk reset");
        assert_eq!(a.sharded_stats().remote_drained, 1);
    }

    #[test]
    fn drain_remote_flushes_idle_shards() {
        let (a, mut gs, mut mem) = sharded(4);
        gs.set(1);
        for t in 0..4u16 {
            SyncVmAllocator::thread_switched(&a, t);
            let p = SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem);
            // Free everything from logical thread (t + 1): always foreign.
            SyncVmAllocator::thread_switched(&a, t + 1);
            SyncVmAllocator::free(&a, p, &mut mem);
        }
        assert_eq!(pending(a.sharded_stats()), 4);
        assert!(a.live_grouped_bytes() > 0);
        a.drain_remote(&mut mem);
        assert_eq!(pending(a.sharded_stats()), 0);
        assert_eq!(a.live_grouped_bytes(), 0);
        assert_eq!(a.live_bytes(), 0);
    }

    #[test]
    fn remote_peak_queue_is_a_high_water_mark() {
        let (a, mut gs, mut mem) = sharded(2);
        gs.set(0);
        SyncVmAllocator::thread_switched(&a, 0);
        let ptrs: Vec<u64> =
            (0..3).map(|_| SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem)).collect();
        assert_eq!(a.sharded_stats().remote_peak_queue, 0, "no remote traffic yet");
        // Thread 1 frees all three: shard 0's queue grows to depth 3.
        SyncVmAllocator::thread_switched(&a, 1);
        for p in ptrs {
            SyncVmAllocator::free(&a, p, &mut mem);
        }
        assert_eq!(a.sharded_stats().remote_peak_queue, 3);
        a.drain_remote(&mut mem);
        let s = a.sharded_stats();
        assert_eq!(s.remote_peak_queue, 3, "the peak survives the drain");
        assert_eq!((s.remote_frees, s.remote_drained), (3, 3));
    }

    #[test]
    fn run_finished_resets_the_logical_thread() {
        let (a, mut gs, mut mem) = sharded(2);
        gs.set(0);
        SyncVmAllocator::thread_switched(&a, 0);
        let base_run = SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem);
        SyncVmAllocator::thread_switched(&a, 1);
        let foreign = SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem);
        SyncVmAllocator::run_finished(&a, &mut mem);
        // A later run on this OS thread must start from its base shard
        // again, not wherever the previous program's last ThreadSwitch
        // left it — otherwise reusing an allocator across engine runs
        // places differently than a fresh first run.
        let next_run = SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem);
        assert_eq!(a.owner_of(next_run), a.owner_of(base_run));
        assert_ne!(a.owner_of(next_run), a.owner_of(foreign));
    }

    #[test]
    fn fallback_pointers_route_home_too() {
        let (a, gs, mut mem) = sharded(2);
        // No group bits set: everything falls back, per shard.
        SyncVmAllocator::thread_switched(&a, 0);
        let p0 = SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem);
        SyncVmAllocator::thread_switched(&a, 1);
        let p1 = SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem);
        assert!(!grouped(p0) && !grouped(p1));
        assert_ne!(a.owner_of(p0), a.owner_of(p1), "per-shard fallbacks");
        // Cross-thread fallback free defers like a grouped one.
        SyncVmAllocator::free(&a, p0, &mut mem);
        assert_eq!(pending(a.sharded_stats()), 1);
        a.drain_remote(&mut mem);
        SyncVmAllocator::thread_switched(&a, 1);
        SyncVmAllocator::free(&a, p1, &mut mem);
        assert_eq!(a.live_bytes(), 0);
    }

    #[test]
    fn aggregates_sum_over_shards_and_groups() {
        let (a, mut gs, mut mem) = sharded(2);
        for (t, bit) in [(0u16, 0u16), (1, 1)] {
            SyncVmAllocator::thread_switched(&a, t);
            gs.reset();
            gs.set(bit);
            for _ in 0..16 {
                let p = SyncVmAllocator::malloc(&a, 256, site(), &gs, &mut mem);
                mem.write(p, 8, 1);
            }
        }
        let BackendReport { frag, stats, .. } = a.report();
        assert_eq!(stats.alloc.grouped_allocs, 32);
        // Each shard dirtied one 4 KiB page of its own group's chunk, with
        // its first 256-byte region: the worst live size at that peak.
        assert_eq!(frag, FragReport { peak_resident_bytes: 8192, live_at_peak_bytes: 512 });
    }

    #[test]
    fn os_threads_get_round_robin_slots() {
        let (a, mut gs, mut mem) = sharded(2);
        gs.set(0);
        let here = SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem);
        let there = std::thread::scope(|s| {
            s.spawn(|| {
                let mut mem = Memory::new();
                let mut gs = GroupState::new(2);
                gs.set(0);
                SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem)
            })
            .join()
            .expect("worker thread")
        });
        assert_ne!(a.owner_of(here), a.owner_of(there), "second OS thread gets the next shard");
    }

    #[test]
    fn shards_one_matches_the_plain_allocator_addresses() {
        // The differential identity in miniature (the property test in
        // tests/property_invariants.rs replays randomized traces).
        let (a, mut gs, mut mem_a) = sharded(1);
        let mut plain = HaloGroupAllocator::new(tiny_config(), two_group_table());
        let mut mem_b = Memory::new();
        gs.set(0);
        for i in 0..32u64 {
            let size = 16 + (i % 5) * 24;
            let pa = SyncVmAllocator::malloc(&a, size, site(), &gs, &mut mem_a);
            let pb = plain.malloc(size, site(), &gs, &mut mem_b);
            assert_eq!(pa, pb);
        }
        let (BackendReport { frag, stats, .. }, own) = (a.report(), plain.report());
        assert_eq!((frag, stats), (own.frag, own.stats));
    }

    #[test]
    fn a_snapshot_takes_each_shard_lock_once() {
        let (a, mut gs, mut mem) = sharded(4);
        gs.set(0);
        let p = SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem);
        SyncVmAllocator::thread_switched(&a, 1);
        SyncVmAllocator::free(&a, p, &mut mem);
        let locks_taken_by = |read: &dyn Fn()| {
            let before = SHARD_LOCKS_TAKEN.get();
            read();
            SHARD_LOCKS_TAKEN.get() - before
        };
        assert_eq!(locks_taken_by(&|| assert_eq!(a.sharded_stats().remote_frees, 1)), 4);
        // What `evaluate` reads off a measured sharded backend.
        let measured = || assert!(crate::BackendAllocator::backend_report(&a).is_some());
        assert_eq!(locks_taken_by(&measured), 4);
        let BackendReport { frag, stats, .. } = a.report();
        assert_eq!((stats.remote_frees, stats.remote_drained), (1, 0), "queued, not applied yet");
        assert_eq!((frag, stats), (a.frag_report(), a.sharded_stats()));
    }

    // --- faults, bounded queues, and the degradation ladder -------------

    use crate::faults::{FaultPlan, FaultSite};

    #[test]
    fn foreign_pointer_free_is_a_typed_error_and_leaves_state_untouched() {
        let (a, mut gs, mut mem) = sharded(2);
        gs.set(0);
        let p = SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem);
        let stats_before = a.sharded_stats();
        let live_before = a.live_bytes();
        // An address below every shard range: owned by nobody.
        let err = a.try_free(0x10, &mut mem).unwrap_err();
        assert_eq!(err, ForeignPointer { ptr: 0x10 });
        assert_eq!(
            err.to_string(),
            "pointer 0x10 belongs to no shard of this allocator",
            "the old panic message, now data"
        );
        // try_free's error path touches nothing: same counters, same live
        // set, and the allocator keeps serving.
        assert_eq!(a.sharded_stats(), stats_before);
        assert_eq!(a.live_bytes(), live_before);
        assert_eq!(pending(a.sharded_stats()), 0);
        // The infallible face absorbs it as a counted no-op instead.
        SyncVmAllocator::free(&a, 0x10, &mut mem);
        assert_eq!(a.sharded_stats().degrade.invalid_frees, 1);
        SyncVmAllocator::free(&a, p, &mut mem);
        assert_eq!(a.live_bytes(), 0);
    }

    #[test]
    fn invalid_fallback_free_is_counted_on_the_local_and_remote_paths() {
        let (a, gs, mut mem) = sharded(2);
        // No group bit: shard 0's fallback serves it.
        SyncVmAllocator::thread_switched(&a, 0);
        let p = SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem);
        assert!(!grouped(p));
        SyncVmAllocator::free(&a, p, &mut mem);
        let before = a.sharded_stats().alloc;
        assert_eq!(before.fallback_frees, 1);
        // Local path: the owner's own thread double-frees.
        SyncVmAllocator::free(&a, p, &mut mem);
        assert_eq!(a.sharded_stats().degrade.invalid_frees, 1);
        // Remote path: another thread double-frees; the pointer rides the
        // owner's queue and is recognised when the owner drains it.
        SyncVmAllocator::thread_switched(&a, 1);
        SyncVmAllocator::free(&a, p, &mut mem);
        SyncVmAllocator::free(&a, p + 8, &mut mem);
        assert_eq!(pending(a.sharded_stats()), 2);
        assert_eq!(a.sharded_stats().degrade.invalid_frees, 1, "not applied yet");
        a.drain_remote(&mut mem);
        assert_eq!(a.sharded_stats().degrade.invalid_frees, 3);
        assert_eq!(a.sharded_stats().alloc, before, "an invalid free is not a fallback free");
        assert_eq!((a.live_bytes(), a.live_objects()), (0, 0));
    }

    #[test]
    fn drained_queue_buffer_is_handed_back() {
        let (a, mut gs, mut mem) = sharded(2);
        gs.set(0);
        let mut capacity = 0;
        for round in 0..3 {
            SyncVmAllocator::thread_switched(&a, 0);
            let ptrs: Vec<u64> =
                (0..64).map(|_| SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem)).collect();
            SyncVmAllocator::thread_switched(&a, 1);
            for p in ptrs {
                SyncVmAllocator::free(&a, p, &mut mem);
            }
            let queue = a.lock_remote(0).ptrs.capacity();
            let drain = a.lock_shard(0).drain_buf.capacity();
            if round > 0 {
                assert_eq!(queue, capacity, "the queue refills the buffer it grew, round {round}");
                assert_eq!(drain, capacity, "both halves of the double buffer are warm");
            }
            capacity = queue;
            assert!(capacity >= 64);
        }
        a.drain_remote(&mut mem);
        let s = a.sharded_stats();
        assert_eq!((s.remote_frees, s.remote_drained, s.remote_peak_queue), (192, 192, 64));
        assert_eq!(a.live_bytes(), 0);
    }

    #[test]
    fn realloc_of_foreign_pointer_serves_fresh_and_counts() {
        let (a, gs, mut mem) = sharded(2);
        let q = SyncVmAllocator::realloc(&a, 0x10, 64, site(), &gs, &mut mem);
        assert_ne!(q, 0, "request still served");
        assert_eq!(a.sharded_stats().degrade.invalid_frees, 1);
        SyncVmAllocator::free(&a, q, &mut mem);
        assert_eq!(a.live_bytes(), 0);
    }

    #[test]
    fn remote_queue_bound_applies_backpressure() {
        let (a, gs, mut mem) = sharded(2);
        // No group bit: shard 0's fallback serves them, and a foreign
        // free of a fallback pointer queues like a grouped one.
        SyncVmAllocator::thread_switched(&a, 0);
        let ptrs: Vec<u64> = (0..REMOTE_QUEUE_CAP + 2)
            .map(|_| SyncVmAllocator::malloc(&a, 16, site(), &gs, &mut mem))
            .collect();
        SyncVmAllocator::thread_switched(&a, 1);
        for &p in &ptrs {
            SyncVmAllocator::free(&a, p, &mut mem);
            assert!(
                a.lock_remote(0).ptrs.len() <= REMOTE_QUEUE_CAP,
                "the queue never exceeds its cap"
            );
        }
        // The first `cap` frees queue; the next one hits the cap and goes
        // direct — which services the owner shard, draining the backlog
        // on the way — and the last starts a fresh queue.
        assert_eq!(pending(a.sharded_stats()), 1);
        assert_eq!(a.sharded_stats().degrade.queue_overflows, 1, "exactly one push overflowed");
        let s = a.sharded_stats();
        assert_eq!(s.remote_peak_queue, REMOTE_QUEUE_CAP as u64);
        assert_eq!(
            s.remote_frees,
            REMOTE_QUEUE_CAP as u64 + 1,
            "only queued frees count as remote"
        );
        assert_eq!(s.remote_drained, REMOTE_QUEUE_CAP as u64, "the overflow drained the backlog");
        a.drain_remote(&mut mem);
        assert_eq!(pending(a.sharded_stats()), 0);
        assert_eq!(a.live_bytes(), 0, "every path applied its free exactly once");
    }

    #[test]
    fn injected_queue_fault_forces_the_overflow_path() {
        let (mut a, mut gs, _) = sharded(2);
        a.set_fault_injector(Arc::new(FaultInjector::new(
            FaultPlan::new(5).at(FaultSite::RemoteQueue, 1),
        )));
        let a = a;
        let mut mem = Memory::new();
        gs.set(0);
        SyncVmAllocator::thread_switched(&a, 0);
        let p = SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem);
        SyncVmAllocator::thread_switched(&a, 1);
        SyncVmAllocator::free(&a, p, &mut mem);
        assert_eq!(pending(a.sharded_stats()), 0, "fault skipped the queue");
        let d = a.sharded_stats().degrade;
        assert_eq!(d.queue_overflows, 1);
        assert_eq!(d.injected_faults, 1);
        assert_eq!(a.live_bytes(), 0, "freed directly under the owner lock");
    }

    #[test]
    fn poisoned_shard_lock_recovers_without_wedging_other_threads() {
        let mut owned = ShardedHaloAllocator::new(1, tiny_config(), two_group_table(), Vec::new());
        owned.set_fault_injector(Arc::new(FaultInjector::new(
            FaultPlan::new(9).at(FaultSite::ShardPanic, 1),
        )));
        let a = &owned;
        // A worker thread hits the injected panic while holding shard 0's
        // allocator lock (the only shard — every thread maps to it).
        let joined = std::thread::scope(|s| {
            s.spawn(|| {
                let mut mem = Memory::new();
                let mut gs = GroupState::new(2);
                gs.set(0);
                SyncVmAllocator::malloc(a, 64, site(), &gs, &mut mem)
            })
            .join()
        });
        assert!(joined.is_err(), "the injected panic propagated to join");
        // This thread must not be wedged: the poisoned lock is recovered,
        // invariants re-validated (they hold — the panic preceded any
        // mutation), and service continues on the grouped path.
        let mut mem = Memory::new();
        let mut gs = GroupState::new(2);
        gs.set(0);
        let p = SyncVmAllocator::malloc(a, 64, site(), &gs, &mut mem);
        assert_ne!(p, 0);
        assert!(grouped(p), "no quarantine: the grouped path survives");
        let d = a.sharded_stats().degrade;
        assert!(d.poisoned_recovered >= 1, "the recovery was counted: {d:?}");
        assert_eq!(d.degraded_shards, 0, "invariants held, no shard degraded");
        assert_eq!(d.injected_faults, 1);
        SyncVmAllocator::free(a, p, &mut mem);
        assert_eq!(a.live_bytes(), 0);
    }

    #[test]
    fn shard_degradation_aggregates_without_double_counting_injections() {
        let mut owned = ShardedHaloAllocator::new(2, tiny_config(), two_group_table(), Vec::new());
        owned.set_fault_injector(Arc::new(FaultInjector::new(
            FaultPlan::new(2).at(FaultSite::VmmReserve, 1),
        )));
        let a = owned;
        let mut mem = Memory::new();
        let mut gs = GroupState::new(2);
        gs.set(0);
        // First slab reservation (whichever shard gets there) fails: that
        // shard's group 0 degrades; the request is still served.
        SyncVmAllocator::thread_switched(&a, 0);
        let p = SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem);
        assert_ne!(p, 0);
        let d = a.sharded_stats().degrade;
        assert_eq!(d.fallback_routes, 1);
        assert_eq!(d.degraded_groups, 1, "one group on one shard");
        assert_eq!(d.injected_faults, 1, "shared injector counted once, not per shard");
        // The other shard's group 0 is independent and still groups.
        SyncVmAllocator::thread_switched(&a, 1);
        let q = SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem);
        assert!(grouped(q));
        SyncVmAllocator::free(&a, q, &mut mem);
        SyncVmAllocator::thread_switched(&a, 0);
        SyncVmAllocator::free(&a, p, &mut mem);
        a.drain_remote(&mut mem);
        assert_eq!(a.live_bytes(), 0);
    }

    /// Poison shard 0's allocator lock the way a holder that dies
    /// mid-update does: its live-region count broken, then the panic.
    fn poison_with_broken_invariants(a: &ShardedHaloAllocator) {
        let joined = std::thread::scope(|s| {
            s.spawn(|| {
                let mut held = a.lock_shard(0);
                held.alloc.break_live_regions();
                panic!("a holder of shard 0's lock dies mid-update");
            })
            .join()
        });
        assert!(joined.is_err(), "the panic propagated to join");
    }

    #[test]
    fn a_shard_whose_invariants_broke_is_quarantined_and_keeps_serving() {
        let (a, mut gs, mut mem) = sharded(2);
        gs.set(0);
        // This thread's first touch takes slot 0: shard 0 serves it.
        let before = SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem);
        assert!(grouped(before));
        poison_with_broken_invariants(&a);
        // The next operation recovers the lock, finds the count broken and
        // quarantines the shard; the request is still served.
        let p = SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem);
        assert!(p != 0 && !grouped(p), "served from the fallback");
        let d = a.sharded_stats().degrade;
        assert_eq!((d.degraded_shards, d.poisoned_recovered), (1, 1), "{d:?}");
        assert_eq!(d.degraded_groups, 2, "every group of the quarantined shard: {d:?}");
        assert_eq!(d.fallback_routes, 1, "{d:?}");
        // Service continues on the fallback, for every group, and the
        // pointer grouped before the quarantine still frees.
        gs.reset();
        gs.set(1);
        let q = SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem);
        assert!(!grouped(q));
        for ptr in [before, p, q] {
            SyncVmAllocator::free(&a, ptr, &mut mem);
        }
        let stats = a.sharded_stats();
        assert_eq!((stats.alloc.fallback_allocs, stats.alloc.fallback_frees), (2, 2));
        assert_eq!(stats.degrade.poisoned_recovered, 1, "recovered once");
        assert_eq!(a.live_bytes(), 0);
        assert_eq!(a.live_objects(), 0);
        assert_eq!(
            a.lock_shard(0).alloc.check_invariants(),
            Ok(()),
            "the quarantine mended the count"
        );
    }

    #[test]
    fn a_quarantined_shard_stays_on_its_fallback_across_a_plan_swap() {
        let a = ShardedHaloAllocator::new(1, tiny_config(), one_group_table(), Vec::new());
        let (mut gs, mut mem) = (GroupState::new(2), Memory::new());
        poison_with_broken_invariants(&a);
        // The swap recovers the lock and quarantines the shard, then adds
        // group 1, which must not serve grouped memory.
        assert_eq!(a.swap_plans(two_group_table(), Vec::new()), 1);
        gs.set(1);
        let p = SyncVmAllocator::malloc(&a, 64, site(), &gs, &mut mem);
        assert!(!grouped(p), "the group the swap added is on the fallback too");
        let d = a.sharded_stats().degrade;
        assert_eq!((d.degraded_shards, d.degraded_groups, d.fallback_routes), (1, 2, 1), "{d:?}");
    }

    #[test]
    #[should_panic(expected = "shards 0 must be within [1, ")]
    fn zero_shards_panics() {
        let _ = ShardedHaloAllocator::new(0, tiny_config(), two_group_table(), Vec::new());
    }

    #[test]
    #[should_panic(expected = "address layout")]
    fn absurd_shard_counts_trip_the_layout_guard() {
        let _ = ShardedHaloAllocator::new(64, tiny_config(), two_group_table(), Vec::new());
    }
}
