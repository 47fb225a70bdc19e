//! HALO's specialised group allocator (§4.4, Fig. 11).
//!
//! Memory is reserved from the simulated OS in large demand-paged **slabs**
//! and managed in smaller group-owned **chunks** from which regions are bump
//! allocated with no per-object headers. Each chunk counts its
//! `live_regions`; when the count reaches zero the chunk is empty and can be
//! reused or freed, subject to a spare-chunk policy that keeps up to
//! `max_spare_chunks` dirty chunks around before purging pages back to the
//! OS (as early jemalloc versions did, per §5.1).
//!
//! The allocator honours **per-group configuration overrides**: each group
//! may run its own chunk size, spare-chunk budget, and in-chunk reuse
//! policy (bump vs mimalloc-style sharded free lists), so a per-group
//! layout plan — not one global decision — shapes the heap. Chunk sizes may
//! therefore differ per group; a freed pointer finds its chunk through a
//! page-granular address index rather than pointer masking.
//!
//! Metadata is address-indexed throughout (DESIGN.md §6): chunks live in an
//! append-only table, a dense page table maps a pointer's page to its chunk,
//! and each chunk carries one cell per 8-byte granule holding the requested
//! size of the region that starts there. `malloc` and `free` hash nothing
//! and walk no tree.
//!
//! Allocations that are not grouped — selector mismatch, size at or above
//! the page-size cap, or too large for the group's own chunks — forward to
//! the fallback allocator (the paper uses `dlsym` to find the next
//! allocator; composition plays that role here).

use crate::faults::{DegradeStats, FaultInjector, FaultSite};
use crate::page_index::PageIndex;
use crate::selector::SelectorTable;
use crate::stats::AllocatorStats;
use crate::vmm::{ReserveError, Vmm};
use crate::{BackendReport, ShardedAllocStats, SizeClassAllocator};
use halo_graph::ReusePolicy;
use halo_vm::{
    realloc_by_move, CallSite, FastIntState, GroupState, Memory, VmAllocator, PAGE_SIZE,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Tunables of the group allocator, mirroring the artefact's flags
/// (`--chunk-size`, `--max-spare-chunks`, `--max-groups` lives in grouping).
///
/// One value acts as the allocator-wide default; [`HaloGroupAllocator`]
/// additionally accepts per-group overrides, of which the **per-group**
/// fields are `chunk_size`, `max_spare_chunks`, and `reuse_policy` —
/// `max_grouped_size` and `slab_size` remain allocator-global. Where the
/// slabs live is not a knob: [`HaloGroupAllocator::SLAB_BASE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupAllocConfig {
    /// Chunk size in bytes; must be a power of two of at least a page.
    /// Paper default: 1 MiB.
    pub chunk_size: u64,
    /// Dirty chunks a group may keep for reuse before purging pages. Paper
    /// default: 1; omnetpp/xalanc run with 0; `usize::MAX` models the
    /// "always reuse" configuration.
    pub max_spare_chunks: usize,
    /// Requests of this size or larger are never grouped (§4.4 uses the
    /// page size; profiling uses a 4 KiB max grouped-object size).
    /// Allocator-global (the check precedes group classification).
    pub max_grouped_size: u64,
    /// Bytes reserved per slab. Paper: "large, demand-paged slabs".
    /// Allocator-global.
    pub slab_size: u64,
    /// In-chunk recycling policy (the paper's future-work axis; see
    /// [`ReusePolicy`]).
    pub reuse_policy: ReusePolicy,
}

impl Default for GroupAllocConfig {
    fn default() -> Self {
        GroupAllocConfig {
            chunk_size: 1 << 20,
            max_spare_chunks: 1,
            max_grouped_size: 4096,
            slab_size: 64 << 20,
            reuse_policy: ReusePolicy::Bump,
        }
    }
}

impl std::fmt::Display for GroupAllocConfig {
    /// A group's layout in the compact `reuse@chunk` form of reports, e.g.
    /// `sharded@8KiB` or `bump@1MiB`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (size, unit) = if self.chunk_size >= 1 << 20 {
            (self.chunk_size >> 20, "MiB")
        } else {
            (self.chunk_size >> 10, "KiB")
        };
        write!(f, "{}@{}{}", self.reuse_policy, size, unit)
    }
}

impl GroupAllocConfig {
    /// Whether chunks of `chunk_size` bytes can be carved from this
    /// configuration's slabs; the `Err` names the broken rule. The
    /// constructors and plan swaps panic with that text, so whoever holds
    /// user input (the CLI's `--chunk-size`) checks here first.
    pub fn check_chunk_size(&self, chunk_size: u64) -> Result<(), &'static str> {
        if !chunk_size.is_power_of_two() {
            return Err("chunk size must be a power of two");
        }
        if chunk_size < PAGE_SIZE {
            return Err("chunks must be at least a page");
        }
        if self.slab_size == 0 || !self.slab_size.is_multiple_of(chunk_size) {
            return Err("slabs must hold whole chunks");
        }
        Ok(())
    }

    /// This configuration with `chunk_size`-byte chunks and the slab size
    /// they imply — 64 chunks, and at least 4 MiB — checked by
    /// [`check_chunk_size`](Self::check_chunk_size); the `Err` names the
    /// broken rule.
    pub fn with_chunk_size(self, chunk_size: u64) -> Result<Self, &'static str> {
        let slab_size =
            chunk_size.checked_mul(64).ok_or("a slab of 64 chunks overflows")?.max(4 << 20);
        let config = GroupAllocConfig { chunk_size, slab_size, ..self };
        config.check_chunk_size(chunk_size)?;
        Ok(config)
    }

    /// A plan's per-group table: `overrides`, each chunk size checked
    /// against these slabs, padded with this configuration to at least
    /// `num_groups` entries. The one place a plan meets the chunk rule;
    /// [`HaloGroupAllocator::install`] puts the table in force.
    ///
    /// # Panics
    ///
    /// Panics with [`Self::check_chunk_size`]'s text if an override breaks
    /// it.
    pub(crate) fn group_table(&self, num_groups: usize, mut overrides: Vec<Self>) -> Vec<Self> {
        for over in &overrides {
            if let Err(rule) = self.check_chunk_size(over.chunk_size) {
                panic!("{rule}");
            }
        }
        overrides.resize(num_groups.max(overrides.len()), *self);
        overrides
    }
}

/// Event counters exposed for experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupAllocStats {
    /// Allocations served from group chunks.
    pub grouped_allocs: u64,
    /// Allocations forwarded to the fallback allocator.
    pub fallback_allocs: u64,
    /// Frees of group-allocated regions.
    pub grouped_frees: u64,
    /// Frees forwarded to the fallback allocator.
    pub fallback_frees: u64,
    /// Chunks carved fresh from slabs.
    pub chunks_created: u64,
    /// Empty chunks reused (spare or purged pool, or in-place reset).
    pub chunks_reused: u64,
    /// Chunks whose pages were purged back to the OS.
    pub chunks_purged: u64,
}

impl GroupAllocStats {
    /// Field-wise sum. Fully destructured (no `..`): a field added to
    /// [`GroupAllocStats`] must be accounted for here or this stops
    /// compiling — a silently-unsummed counter would poison every
    /// aggregate.
    pub fn merge(&mut self, other: GroupAllocStats) {
        let GroupAllocStats {
            grouped_allocs,
            fallback_allocs,
            grouped_frees,
            fallback_frees,
            chunks_created,
            chunks_reused,
            chunks_purged,
        } = other;
        self.grouped_allocs += grouped_allocs;
        self.fallback_allocs += fallback_allocs;
        self.grouped_frees += grouped_frees;
        self.fallback_frees += fallback_frees;
        self.chunks_created += chunks_created;
        self.chunks_reused += chunks_reused;
        self.chunks_purged += chunks_purged;
    }
}

/// Fragmentation at the peak, in the format of the paper's Table 1.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FragReport {
    /// Resident bytes of group chunks at the observed peak.
    pub peak_resident_bytes: u64,
    /// Live (requested) grouped bytes at that moment.
    pub live_at_peak_bytes: u64,
}

impl FragReport {
    /// Field-wise sum of two arenas' snapshots, fully destructured like
    /// [`GroupAllocStats::merge`].
    pub fn merge(&mut self, other: FragReport) {
        let FragReport { peak_resident_bytes, live_at_peak_bytes } = other;
        self.peak_resident_bytes += peak_resident_bytes;
        self.live_at_peak_bytes += live_at_peak_bytes;
    }

    /// Wasted bytes: resident but not live (Table 1 "Frag. (bytes)").
    pub fn wasted_bytes(&self) -> u64 {
        self.peak_resident_bytes.saturating_sub(self.live_at_peak_bytes)
    }

    /// Wasted fraction of resident memory (Table 1 "Frag. (%)"), in
    /// `[0, 1]`; 0 when nothing was ever resident.
    pub fn frag_fraction(&self) -> f64 {
        if self.peak_resident_bytes == 0 {
            0.0
        } else {
            self.wasted_bytes() as f64 / self.peak_resident_bytes as f64
        }
    }
}

/// Running resident/live accounting for one pool (the whole allocator or a
/// single group), maintaining the Table 1 peak snapshot.
#[derive(Debug, Clone, Copy, Default)]
struct PoolUsage {
    resident: u64,
    live: u64,
    frag: FragReport,
}

impl PoolUsage {
    /// Maintain the Table 1 snapshot: at the peak resident footprint,
    /// record the *worst* (smallest) live size observed — a chunk pinned by
    /// a lone survivor shows up as fragmentation exactly as in the paper.
    fn note(&mut self) {
        if self.resident > self.frag.peak_resident_bytes {
            self.frag.peak_resident_bytes = self.resident;
            self.frag.live_at_peak_bytes = self.live;
        } else if self.resident == self.frag.peak_resident_bytes
            && self.live < self.frag.live_at_peak_bytes
        {
            self.frag.live_at_peak_bytes = self.live;
        }
    }
}

/// One group's row of the allocator's per-group table.
#[derive(Debug, Clone, Copy)]
struct GroupPool {
    /// Effective configuration (the global one unless a per-group plan
    /// overrode it).
    cfg: GroupAllocConfig,
    /// Handle of the chunk the group bumps into.
    current: Option<u32>,
    /// Usage and Table 1 snapshot of the group's own chunks (what the
    /// per-group `auto` reuse policy ranks groups by).
    usage: PoolUsage,
    /// Set when the group's chunk supply failed: new requests route
    /// wholesale to the fallback (the paper's ungrouped path), live
    /// pointers keep working. The optimisation is lost for the group,
    /// never the process.
    degraded: bool,
}

/// Regions start on 8-byte boundaries (§4.4's minimum alignment), so one
/// metadata cell per 8-byte granule can describe every region of a chunk.
const GRANULE: u64 = 8;

/// Bytes of chunk a region of `size` (at least 1) requested bytes
/// occupies: whole granules.
fn round_to_granules(size: u64) -> u64 {
    size.next_multiple_of(GRANULE)
}

/// The granule cell of a live region of `size` requested bytes: `size + 1`,
/// so that `0` can mean "no live region starts here". `None` when the tag
/// does not fit a cell — such a request is not groupable and forwards to
/// the fallback (it would need a chunk of 4 GiB or more).
fn size_tag(size: u64) -> Option<u32> {
    u32::try_from(size).ok()?.checked_add(1)
}

/// A chunk's granule table, all zero, or `None` when the host has no memory
/// for it — the `ChunkAlloc` rung of the degradation ladder, not an abort
/// (`vec![0; n]` aborts). Zeroed by the host allocator rather than written,
/// so the cells of granules a chunk never reaches cost no resident page.
fn zeroed_cells(n: usize) -> Option<Box<[u32]>> {
    let layout = std::alloc::Layout::array::<u32>(n).ok().filter(|l| l.size() > 0)?;
    // SAFETY: `layout` has non-zero size. A non-null result is `n` zeroed,
    // `u32`-aligned words from the global allocator, which is what a
    // `Box<[u32]>` of that length owns and later frees with this layout.
    unsafe {
        let cells = std::alloc::alloc_zeroed(layout).cast::<u32>();
        (!cells.is_null()).then(|| Box::from_raw(std::ptr::slice_from_raw_parts_mut(cells, n)))
    }
}

/// A chunk carved from a slab. Chunks are never returned to the OS span, so
/// a chunk record — and its place in the page table — is permanent; it
/// cycles between *in use* (owned by `group`, possibly its current chunk),
/// *spare* (empty but dirty, on `spare`) and *clean* (purged, on `clean`).
#[derive(Debug)]
struct Chunk {
    base: u64,
    /// One past the last usable byte.
    end: u64,
    /// The owning group; for a spare chunk, the group that last used it
    /// (its dirty pages stay attributed there until the chunk is purged or
    /// handed to another group).
    group: usize,
    /// Next bump address.
    bump: u64,
    /// Regions allocated and not yet freed.
    live_regions: u64,
    /// Highest bump address reached since the chunk was last clean (dirty
    /// extent).
    high_water: u64,
    /// Sharded free lists: rounded size → freed region addresses
    /// (only populated under [`ReusePolicy::ShardedFreeLists`]).
    shards: HashMap<u64, Vec<u64>, FastIntState>,
    /// One cell per granule: [`size_tag`] of the live region starting at
    /// that granule, `0` everywhere else. The real allocator needs no
    /// per-object metadata for `free` (only `live_regions`), but `realloc`
    /// must know how many bytes to copy; a native implementation gets this
    /// from the C library's usable-size machinery, which the simulation
    /// does not model, so it is kept out of band here. The non-zero cell is
    /// also what tells a valid free from a double or interior one. Every
    /// free zeroes its own cell, so an empty chunk's array is all zero and
    /// rides along through spare and clean reuse untouched.
    cells: Box<[u32]>,
}

impl Chunk {
    fn size(&self) -> u64 {
        self.end - self.base
    }

    /// Index of the granule cell for `ptr` (which lies inside the chunk),
    /// or `None` when `ptr` is not on a granule boundary.
    fn cell_of(&self, ptr: u64) -> Option<usize> {
        let off = ptr - self.base;
        off.is_multiple_of(GRANULE).then_some((off / GRANULE) as usize)
    }
}

/// The specialised allocator synthesised by the HALO pipeline. Whatever it
/// does not group goes to the jemalloc-style baseline, its fallback.
#[derive(Debug)]
pub struct HaloGroupAllocator {
    config: GroupAllocConfig,
    /// The per-group table, indexed by group. It only grows: a group's
    /// chunks and counters outlive a plan that stops naming it.
    groups: Vec<GroupPool>,
    selectors: SelectorTable,
    /// Immediate-call-site classification (the hot-data-streams comparison
    /// technique "utilise[s] the same specialised allocator as HALO, but
    /// with groups … identified at runtime using the immediate call site of
    /// the allocation procedure", §5.1). Empty in selector mode.
    site_groups: HashMap<CallSite, usize>,
    vmm: Vmm,
    /// Cursor into the current slab: `(next_free_byte, slab_end)`.
    slab_cursor: Option<(u64, u64)>,
    /// Every chunk ever carved, in address order; the index is the
    /// chunk's handle.
    chunks: Vec<Chunk>,
    /// Page → handle of the chunk covering it. Page granular because
    /// chunk sizes vary per plan and a page is the smallest chunk
    /// [`GroupAllocConfig::check_chunk_size`] admits.
    pages: PageIndex,
    /// Empty-but-dirty chunks available for reuse, oldest first.
    spare: Vec<u32>,
    /// Purged (clean) chunks available for reuse.
    clean: Vec<u32>,
    /// Live grouped regions across all chunks.
    live_regions: u64,
    fallback: SizeClassAllocator,
    /// Allocator-wide usage and Table 1 snapshot.
    usage: PoolUsage,
    stats: GroupAllocStats,
    /// The quarantine rung: every group, including one a later plan adds,
    /// routes to the fallback ([`Self::quarantine`]).
    quarantined: bool,
    /// Degradation-ladder counters. `degraded_groups`, `degraded_shards`
    /// and `injected_faults` are snapshots computed on read (see
    /// [`Self::report`]); the rest accumulate here.
    degrade: DegradeStats,
    /// Fault injector for chaos runs; `None` in production costs one
    /// branch per resource edge and changes no behaviour.
    faults: Option<Arc<FaultInjector>>,
}

impl HaloGroupAllocator {
    /// Where the slabs of a standalone allocator start: above every
    /// fallback allocator's span, so a pointer's owner is a range check.
    /// A sharded allocator roots shard `i` at
    /// `SLAB_BASE + i * GROUP_SHARD_STRIDE`.
    pub const SLAB_BASE: u64 = 0x70_0000_0000;

    /// Create an allocator with the default jemalloc-style fallback.
    pub fn new(config: GroupAllocConfig, selectors: SelectorTable) -> Self {
        Self::with_group_configs(config, selectors, Vec::new())
    }

    /// Create an allocator whose group `g` runs under `overrides[g]`
    /// instead of `config` (missing entries inherit `config`). Only the
    /// per-group fields are honoured — see [`GroupAllocConfig`].
    ///
    /// # Panics
    ///
    /// Panics with [`GroupAllocConfig::check_chunk_size`]'s text if
    /// `config`'s own chunk size or any override's breaks it.
    pub fn with_group_configs(
        config: GroupAllocConfig,
        selectors: SelectorTable,
        overrides: Vec<GroupAllocConfig>,
    ) -> Self {
        let mut a = Self::build(config, Self::SLAB_BASE, SizeClassAllocator::new());
        a.install_plan(selectors, overrides);
        a
    }

    /// Create an allocator classifying by immediate call site (the
    /// hot-data-streams comparison) with the default fallback.
    pub fn with_site_groups(
        config: GroupAllocConfig,
        site_groups: HashMap<CallSite, usize>,
    ) -> Self {
        let num_groups = site_groups.values().map(|&g| g + 1).max().unwrap_or(0);
        let mut a =
            Self::with_group_configs(config, SelectorTable::empty(), vec![config; num_groups]);
        a.site_groups = site_groups;
        a
    }

    /// An allocator with no groups yet, its slabs from `slab_base` over an
    /// explicit fallback — the shape [`crate::ShardedHaloAllocator`]
    /// needs: per-shard slabs *and* a per-shard fallback, each rooted at a
    /// shard-private base address. [`Self::install`] puts a plan in force.
    pub(crate) fn build(
        config: GroupAllocConfig,
        slab_base: u64,
        fallback: SizeClassAllocator,
    ) -> Self {
        if let Err(rule) = config.check_chunk_size(config.chunk_size) {
            panic!("{rule}");
        }
        HaloGroupAllocator {
            config,
            groups: Vec::new(),
            selectors: SelectorTable::empty(),
            vmm: Vmm::new(slab_base, 1 << 38),
            slab_cursor: None,
            chunks: Vec::new(),
            pages: PageIndex::new(slab_base),
            site_groups: HashMap::new(),
            spare: Vec::new(),
            clean: Vec::new(),
            live_regions: 0,
            fallback,
            usage: PoolUsage::default(),
            stats: GroupAllocStats::default(),
            quarantined: false,
            degrade: DegradeStats::default(),
            faults: None,
        }
    }

    /// Everything the allocator reports, in one snapshot: fragmentation
    /// of grouped memory at the peak observed so far (Table 1's
    /// measurement), the event counters, and the degradation ladder with
    /// the attached injector's fired faults. The remote-free counters are
    /// zero: one arena has no queue.
    pub fn report(&self) -> BackendReport {
        let degraded_groups = (0..self.groups.len()).filter(|&g| self.is_degraded(g)).count();
        let degrade = DegradeStats {
            degraded_groups: degraded_groups as u64,
            degraded_shards: u64::from(self.quarantined),
            injected_faults: self.faults.as_ref().map_or(0, |f| f.fired()),
            ..self.degrade
        };
        let stats =
            ShardedAllocStats { alloc: self.stats, degrade, ..ShardedAllocStats::default() };
        BackendReport { frag: self.usage.frag, stats, sharded: false }
    }

    /// Per-group fragmentation snapshots (same rule as [`Self::report`]'s,
    /// scoped to each group's own chunks). Indexed by group.
    pub fn group_frag_reports(&self) -> Vec<FragReport> {
        self.groups.iter().map(|p| p.usage.frag).collect()
    }

    /// The effective configuration of `group` (the global configuration
    /// unless overridden).
    pub fn group_config(&self, group: usize) -> GroupAllocConfig {
        self.groups.get(group).map_or(self.config, |p| p.cfg)
    }

    /// Hot-swap the allocator onto a new plan: replace the selector table
    /// and per-group configuration in place (DESIGN.md §15).
    ///
    /// The swap is *prospective*: it takes effect for freshly carved
    /// chunks only. A group whose effective configuration changed retires
    /// its open chunk (the next grouped allocation carves under the new
    /// configuration); a group whose configuration is unchanged keeps
    /// filling its current chunk, so swapping in an identical plan is
    /// observably a no-op. Live pointers never move — a free locates its
    /// chunk by address and recycles it under the configuration in force
    /// *at free time*, exactly as before the swap, and retired chunks
    /// drain through the normal free/spare/purge machinery. Groups parked
    /// by the degradation ladder stay parked, and a quarantined allocator
    /// stays quarantined: a plan change does not resurrect a group whose
    /// chunk supply already failed, and a group it adds starts degraded.
    ///
    /// # Panics
    ///
    /// Panics with [`GroupAllocConfig::check_chunk_size`]'s text if an
    /// override's chunk size breaks it — before any state is touched, so a
    /// bad plan leaves the allocator unchanged.
    pub fn install_plan(&mut self, selectors: SelectorTable, overrides: Vec<GroupAllocConfig>) {
        let groups = self.config.group_table(selectors.num_groups(), overrides);
        self.install(selectors, &groups);
    }

    /// Put `selectors` and a [`GroupAllocConfig::group_table`] in force: the
    /// one step by which a plan takes effect, at construction and on a swap
    /// alike. A group the table does not reach returns to the global
    /// configuration, and a group whose configuration changes retires its
    /// open chunk.
    pub(crate) fn install(&mut self, selectors: SelectorTable, groups: &[GroupAllocConfig]) {
        let fresh = GroupPool {
            cfg: self.config,
            current: None,
            usage: PoolUsage::default(),
            degraded: false,
        };
        self.groups.resize(groups.len().max(self.groups.len()), fresh);
        for (g, pool) in self.groups.iter_mut().enumerate() {
            let new = groups.get(g).copied().unwrap_or(self.config);
            if pool.cfg != new {
                // The next allocation for the group carves fresh under the
                // new configuration.
                pool.cfg = new;
                pool.current = None;
            }
        }
        self.selectors = selectors;
    }

    /// Whether `ptr` was group allocated (lies within a slab reserved so
    /// far; anything else is fallback-owned).
    pub fn is_group_allocated(&self, ptr: u64) -> bool {
        self.vmm.contains(ptr)
    }

    /// Bytes of grouped data currently live.
    pub fn live_grouped_bytes(&self) -> u64 {
        self.usage.live
    }

    /// Dirty (resident) bytes of a chunk whose bump high-water mark is
    /// `high_water`, in whole pages.
    fn dirty_bytes(base: u64, high_water: u64) -> u64 {
        (high_water - base).div_ceil(PAGE_SIZE) * PAGE_SIZE
    }

    /// Carve a fresh chunk of `cs` bytes for `group`, enter it in the chunk
    /// table and the page table, and return its handle.
    fn carve_chunk(&mut self, group: usize, cs: u64) -> Option<u32> {
        let handle = u32::try_from(self.chunks.len()).ok()?;
        let cells = zeroed_cells(usize::try_from(cs / GRANULE).ok()?)?;
        let base = self.carve_span(cs).ok()?;
        self.pages.cover(base, cs, self.chunks.len())?;
        self.chunks.push(Chunk {
            base,
            end: base + cs,
            group,
            bump: base,
            live_regions: 0,
            high_water: base,
            shards: HashMap::default(),
            cells,
        });
        Some(handle)
    }

    fn carve_span(&mut self, cs: u64) -> Result<u64, ReserveError> {
        if let Some((next, end)) = self.slab_cursor {
            // Chunks of different groups may differ in size; align each to
            // its own size within the slab.
            let base = (next + cs - 1) & !(cs - 1);
            if base + cs <= end {
                self.slab_cursor = Some((base + cs, end));
                return Ok(base);
            }
        }
        if self.faults.as_ref().is_some_and(|f| f.should_fail(FaultSite::VmmReserve)) {
            return Err(ReserveError::SpanExhausted {
                requested: self.config.slab_size,
                available: 0,
            });
        }
        let slab = self.vmm.reserve(self.config.slab_size, cs)?;
        self.slab_cursor = Some((slab + cs, slab + self.config.slab_size));
        Ok(slab)
    }

    /// Supply a chunk for `group`, or `None` when the chunk table cannot
    /// grow or the slab span is exhausted — the caller's cue to degrade
    /// the group, never a panic.
    fn acquire_chunk(&mut self, group: usize) -> Option<u32> {
        if self.faults.as_ref().is_some_and(|f| f.should_fail(FaultSite::ChunkAlloc)) {
            return None;
        }
        let cs = self.groups[group].cfg.chunk_size;
        // Reuse pools are shared between groups, but only a chunk of the
        // group's own size qualifies.
        let chunks = &self.chunks;
        let of_size = |&h: &u32| chunks[h as usize].size() == cs;
        let handle = if let Some(i) = self.spare.iter().position(of_size) {
            let h = self.spare.remove(i);
            self.stats.chunks_reused += 1;
            let c = &self.chunks[h as usize];
            let dirty = Self::dirty_bytes(c.base, c.high_water);
            if c.group != group && dirty > 0 {
                // The dirty pages change hands with the chunk.
                self.groups[c.group].usage.resident -= dirty;
                self.groups[group].usage.resident += dirty;
            }
            h
        } else if let Some(i) = self.clean.iter().position(of_size) {
            self.stats.chunks_reused += 1;
            self.clean.remove(i)
        } else {
            let h = self.carve_chunk(group, cs)?;
            self.stats.chunks_created += 1;
            h
        };
        // An empty chunk is already reset (bump at base, no live regions,
        // cells zero); it only changes owner.
        self.chunks[handle as usize].group = group;
        self.groups[group].current = Some(handle);
        Some(handle)
    }

    /// Serve a grouped request of `size` bytes (granule cell `tag`), or
    /// `None` when the group's chunk supply failed (the degradation path:
    /// the caller routes to the fallback).
    fn group_malloc(&mut self, group: usize, size: u64, tag: u32) -> Option<u64> {
        let GroupPool { cfg, current, .. } = self.groups[group];
        let rounded = round_to_granules(size);
        // Sharded reuse: recycle a freed same-size region from the group's
        // current chunk before bumping (mimalloc-style, §6 future work).
        let recycled = if cfg.reuse_policy == ReusePolicy::ShardedFreeLists {
            current
                .and_then(|h| self.chunks[h as usize].shards.get_mut(&rounded))
                .and_then(Vec::pop)
        } else {
            None
        };
        let fits = |c: &Chunk| recycled.is_some() || c.bump + rounded <= c.end;
        let handle = match current {
            Some(h) if fits(&self.chunks[h as usize]) => h,
            _ => self.acquire_chunk(group)?,
        };
        let c = &mut self.chunks[handle as usize];
        let ptr = recycled.unwrap_or(c.bump);
        if recycled.is_none() {
            c.bump += rounded;
            if c.bump > c.high_water {
                let old_dirty = Self::dirty_bytes(c.base, c.high_water);
                c.high_water = c.bump;
                let new_dirty = Self::dirty_bytes(c.base, c.high_water);
                self.usage.resident += new_dirty - old_dirty;
                self.groups[group].usage.resident += new_dirty - old_dirty;
            }
        }
        c.live_regions += 1;
        c.cells[((ptr - c.base) / GRANULE) as usize] = tag;
        self.live_regions += 1;
        self.usage.live += size;
        self.groups[group].usage.live += size;
        self.stats.grouped_allocs += 1;
        self.note_usage(group);
        Some(ptr)
    }

    /// Refresh the global and per-group Table 1 snapshots.
    fn note_usage(&mut self, group: usize) {
        self.usage.note();
        self.groups[group].usage.note();
    }

    /// The live grouped region starting exactly at `ptr`: its chunk's
    /// handle, its granule cell and its requested size. A pointer in the
    /// slab range with no live region (double free, interior or misaligned
    /// address, a page no chunk covers) has none.
    fn live_region(&self, ptr: u64) -> Option<(u32, usize, u64)> {
        let handle = self.pages.find(ptr)?;
        let chunk = &self.chunks[handle];
        let cell = chunk.cell_of(ptr)?;
        let size = chunk.cells[cell].checked_sub(1)?;
        Some((u32::try_from(handle).ok()?, cell, u64::from(size)))
    }

    fn group_free(&mut self, ptr: u64, mem: &mut Memory) {
        // An invalid free is absorbed as a counted no-op — it must not
        // corrupt accounting or take the process down with it.
        let Some((handle, cell, size)) = self.live_region(ptr) else {
            self.degrade.invalid_frees += 1;
            return;
        };
        // Chunk sizes vary per group and per plan epoch; the chunk found
        // by address recycles under its group's configuration in force now.
        let chunk = &mut self.chunks[handle as usize];
        chunk.cells[cell] = 0;
        self.live_regions -= 1;
        let group = chunk.group;
        let cfg = self.groups[group].cfg;
        self.usage.live -= size;
        self.groups[group].usage.live -= size;
        self.stats.grouped_frees += 1;
        debug_assert!(chunk.live_regions > 0);
        chunk.live_regions -= 1;
        if chunk.live_regions > 0 {
            if cfg.reuse_policy == ReusePolicy::ShardedFreeLists {
                chunk.shards.entry(round_to_granules(size)).or_default().push(ptr);
            }
            self.note_usage(group);
            return;
        }
        // Chunk is empty: reuse or free (§4.4). Either way it starts over
        // from its base with no free lists.
        chunk.bump = chunk.base;
        chunk.shards.clear();
        if self.groups[group].current == Some(handle) {
            // Still the group's current chunk: keep using it in place (its
            // pages stay dirty/resident).
            self.stats.chunks_reused += 1;
            self.note_usage(group);
            return;
        }
        self.spare.push(handle);
        // Each group keeps at most its own spare-chunk budget in the pool;
        // the oldest excess donation is purged back to the OS. Under the
        // "always reuse" budget (usize::MAX) no donation can ever exceed
        // it, so skip the ownership scan entirely — the pool is unbounded
        // precisely in that configuration, and an O(pool) count per
        // emptied chunk would make teardown quadratic.
        let chunks = &mut self.chunks;
        while cfg.max_spare_chunks != usize::MAX
            && self.spare.iter().filter(|&&h| chunks[h as usize].group == group).count()
                > cfg.max_spare_chunks
        {
            let Some(i) = self.spare.iter().position(|&h| chunks[h as usize].group == group) else {
                break; // counted above; bail rather than spin if gone
            };
            let h = self.spare.remove(i);
            let c = &mut chunks[h as usize];
            let dirty = Self::dirty_bytes(c.base, c.high_water);
            self.usage.resident -= dirty;
            self.groups[group].usage.resident -= dirty;
            mem.discard(c.base, c.size());
            c.high_water = c.base;
            self.clean.push(h);
            self.stats.chunks_purged += 1;
        }
        self.note_usage(group);
    }

    /// Attach a fault injector (chaos runs). Shared by `Arc` so one
    /// schedule can span an allocator and its shards.
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.faults = Some(injector);
    }

    /// Whether `group` has been degraded (its requests route to the
    /// fallback): its own chunk supply failed, or the allocator is
    /// quarantined.
    pub fn is_degraded(&self, group: usize) -> bool {
        self.quarantined || self.groups.get(group).is_some_and(|p| p.degraded)
    }

    /// Degrade every group at once, and every group a later plan adds —
    /// the quarantine rung of the ladder, used when invariants can no
    /// longer be trusted (e.g. after a lock poisoning whose re-validation
    /// failed). The allocator keeps serving every request through the
    /// fallback; live grouped pointers still free through their chunks,
    /// so the allocator-wide live-region count is reset to the per-chunk
    /// counts those frees act on.
    pub fn quarantine(&mut self) {
        self.quarantined = true;
        self.live_regions = self.chunks.iter().map(|c| c.live_regions).sum();
    }

    /// Cheap structural self-check, run when recovering a poisoned lock:
    /// every chunk's bump/high-water within its span, the per-chunk
    /// live-region counts in agreement with the allocator-wide counter,
    /// and every current chunk present and owned by its group.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), &'static str> {
        let mut live_regions: u64 = 0;
        for c in &self.chunks {
            if c.bump < c.base || c.bump > c.end {
                return Err("chunk bump pointer outside its span");
            }
            if c.high_water < c.base || c.high_water > c.end {
                return Err("chunk high-water mark outside its span");
            }
            live_regions += c.live_regions;
        }
        if live_regions != self.live_regions {
            return Err("per-chunk live-region counts disagree with the allocator-wide counter");
        }
        for (g, pool) in self.groups.iter().enumerate() {
            if let Some(handle) = pool.current {
                match self.chunks.get(handle as usize) {
                    Some(c) if c.group == g => {}
                    _ => return Err("current chunk missing or owned by another group"),
                }
            }
        }
        Ok(())
    }
}

impl AllocatorStats for HaloGroupAllocator {
    fn live_bytes(&self) -> u64 {
        self.usage.live + self.fallback.live_bytes()
    }

    fn live_objects(&self) -> usize {
        self.live_regions as usize + self.fallback.live_objects()
    }
}

impl VmAllocator for HaloGroupAllocator {
    fn malloc(&mut self, size: u64, site: CallSite, gs: &GroupState, mem: &mut Memory) -> u64 {
        // §4.4: the allocator "compares the size of the allocation with the
        // maximum grouped object size, and checks the contents of the group
        // state vector against the set of selectors". In site mode (the
        // hot-data-streams comparison) the immediate call site decides.
        if size < self.config.max_grouped_size {
            if let Some(group) =
                self.selectors.classify(gs).or_else(|| self.site_groups.get(&site).copied())
            {
                // A zero-byte request is a one-byte region, as everywhere
                // (`VmAllocator::malloc`). A request too large for the
                // group's own (possibly plan-shrunken) chunks forwards like
                // any other non-groupable request; so does one whose size
                // has no granule cell (which also keeps the rounding below
                // from overflowing when the cap is lifted to `u64::MAX`).
                let size = size.max(1);
                let groupable = size_tag(size)
                    .filter(|_| round_to_granules(size) <= self.groups[group].cfg.chunk_size);
                if let Some(tag) = groupable {
                    if self.is_degraded(group) {
                        // Degradation ladder: a group whose chunk supply
                        // failed serves from the fallback (the ungrouped
                        // path of §4.4) instead of crashing or refusing.
                        self.degrade.fallback_routes += 1;
                    } else if let Some(ptr) = self.group_malloc(group, size, tag) {
                        return ptr;
                    } else {
                        // Degrade the group: new requests take the fallback
                        // path from now on; live grouped pointers still
                        // find their chunks.
                        self.groups[group].degraded = true;
                        self.degrade.fallback_routes += 1;
                    }
                }
            }
        }
        self.stats.fallback_allocs += 1;
        self.fallback.malloc(size, site, gs, mem)
    }

    fn free(&mut self, ptr: u64, mem: &mut Memory) {
        if self.is_group_allocated(ptr) {
            self.group_free(ptr, mem);
            return;
        }
        // A free that released nothing (double free, never-allocated
        // address, null) is an invalid free, not a fallback free.
        if self.fallback.release(ptr) {
            self.stats.fallback_frees += 1;
        } else {
            self.degrade.invalid_frees += 1;
        }
    }

    fn live_size(&self, ptr: u64) -> Option<u64> {
        if self.is_group_allocated(ptr) {
            self.live_region(ptr).map(|(_, _, size)| size)
        } else {
            self.fallback.live_size(ptr)
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
        // What the fallback placed stays the fallback's: it may grow in
        // its slot, and is not re-classified into a group.
        if self.is_group_allocated(ptr) {
            realloc_by_move(self, ptr, size, site, gs, mem)
        } else {
            self.fallback.realloc(ptr, size, site, gs, mem)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::GroupSelector;

    include!("../tests/common/fixtures.rs");

    impl HaloGroupAllocator {
        /// Break the allocator-wide live-region count, as a holder that
        /// panicked mid-update would leave it.
        pub(crate) fn break_live_regions(&mut self) {
            self.live_regions += 1;
        }
    }

    fn setup() -> (HaloGroupAllocator, GroupState, Memory) {
        setup_with(tiny_config())
    }

    fn setup_with(config: GroupAllocConfig) -> (HaloGroupAllocator, GroupState, Memory) {
        (HaloGroupAllocator::new(config, two_group_table()), GroupState::new(2), Memory::new())
    }

    #[test]
    fn grouped_allocations_bump_contiguously() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        let p1 = a.malloc(24, site(), &gs, &mut mem);
        let p2 = a.malloc(24, site(), &gs, &mut mem);
        let p3 = a.malloc(10, site(), &gs, &mut mem);
        assert_eq!(p2, p1 + 24);
        assert_eq!(p3, p2 + 24);
        assert_eq!(p3 % 8, 0, "minimum 8-byte alignment");
        assert_eq!(a.report().stats.alloc.grouped_allocs, 3);
    }

    #[test]
    fn groups_get_separate_chunks() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        let p0 = a.malloc(16, site(), &gs, &mut mem);
        gs.clear(0);
        gs.set(1);
        let p1 = a.malloc(16, site(), &gs, &mut mem);
        let cs = tiny_config().chunk_size;
        assert_ne!(p0 & !(cs - 1), p1 & !(cs - 1), "different chunks");
        // Interleaving keeps each group contiguous.
        gs.clear(1);
        gs.set(0);
        let p0b = a.malloc(16, site(), &gs, &mut mem);
        assert_eq!(p0b, p0 + 16);
    }

    #[test]
    fn unmatched_state_falls_back() {
        let (mut a, gs, mut mem) = setup();
        let p = a.malloc(16, site(), &gs, &mut mem);
        assert!(!a.is_group_allocated(p));
        assert_eq!(a.report().stats.alloc.fallback_allocs, 1);
        a.free(p, &mut mem);
        assert_eq!(a.report().stats.alloc.fallback_frees, 1);
    }

    #[test]
    fn large_requests_fall_back_even_when_selected() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        let p = a.malloc(4096, site(), &gs, &mut mem);
        assert!(!a.is_group_allocated(p));
        let q = a.malloc(4095, site(), &gs, &mut mem);
        assert!(a.is_group_allocated(q));
    }

    #[test]
    fn chunk_exhaustion_rolls_to_new_chunk() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        // 8192-byte chunks; 5 × 2048 forces a second chunk.
        let ptrs: Vec<u64> = (0..5).map(|_| a.malloc(2048, site(), &gs, &mut mem)).collect();
        let cs = tiny_config().chunk_size;
        let chunk0 = ptrs[0] & !(cs - 1);
        assert!(ptrs[..4].iter().all(|p| p & !(cs - 1) == chunk0));
        assert_ne!(ptrs[4] & !(cs - 1), chunk0);
        assert_eq!(a.report().stats.alloc.chunks_created, 2);
    }

    #[test]
    fn emptied_current_chunk_is_reset_in_place() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        let p1 = a.malloc(64, site(), &gs, &mut mem);
        let p2 = a.malloc(64, site(), &gs, &mut mem);
        a.free(p1, &mut mem);
        a.free(p2, &mut mem);
        // Bump pointer reset: next allocation reuses the same addresses.
        let p3 = a.malloc(64, site(), &gs, &mut mem);
        assert_eq!(p3, p1);
        assert_eq!(a.report().stats.alloc.chunks_created, 1);
    }

    #[test]
    fn emptied_non_current_chunk_goes_spare_then_purges() {
        let cfg = GroupAllocConfig { max_spare_chunks: 0, ..tiny_config() };
        let (mut a, mut gs, mut mem) = setup_with(cfg);
        gs.set(0);
        // Fill chunk 1 fully, so chunk 2 becomes current.
        let big: Vec<u64> = (0..4).map(|_| a.malloc(2048, site(), &gs, &mut mem)).collect();
        let p_new = a.malloc(2048, site(), &gs, &mut mem);
        // Touch pages so residency is real, then empty the first chunk.
        for &p in &big {
            mem.write(p, 8, 1);
        }
        let resident_before = a.usage.resident;
        for &p in &big {
            a.free(p, &mut mem);
        }
        // max_spare_chunks = 0 → immediate purge.
        assert_eq!(a.report().stats.alloc.chunks_purged, 1);
        assert!(a.usage.resident < resident_before);
        // Purged chunk returns zeroed when reused.
        let _ = p_new;
        assert_eq!(mem.read(big[0], 8), 0);
    }

    #[test]
    fn spare_chunk_is_reused_before_carving() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        // Fill chunk A, roll to chunk B, then empty chunk A → spare.
        let a_ptrs: Vec<u64> = (0..4).map(|_| a.malloc(2048, site(), &gs, &mut mem)).collect();
        let _b = a.malloc(2048, site(), &gs, &mut mem);
        for &p in &a_ptrs {
            a.free(p, &mut mem);
        }
        let created_before = a.report().stats.alloc.chunks_created;
        // Group 1 needs a chunk: the spare one is handed over.
        gs.clear(0);
        gs.set(1);
        let p = a.malloc(16, site(), &gs, &mut mem);
        assert_eq!(
            p & !(tiny_config().chunk_size - 1),
            a_ptrs[0] & !(tiny_config().chunk_size - 1)
        );
        assert_eq!(a.report().stats.alloc.chunks_created, created_before);
    }

    #[test]
    fn realloc_between_group_and_fallback() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        let p = a.malloc(64, site(), &gs, &mut mem);
        mem.write(p, 8, 0xbeef);
        // Growing past the grouped cap moves it to the fallback.
        let q = a.realloc(p, 100_000, site(), &gs, &mut mem);
        assert!(!a.is_group_allocated(q));
        assert_eq!(mem.read(q, 8), 0xbeef);
        // A fallback-owned region stays with the fallback on realloc
        // (§4.4: non-group requests are forwarded wholesale).
        let r = a.realloc(q, 64, site(), &gs, &mut mem);
        assert!(!a.is_group_allocated(r));
        assert_eq!(mem.read(r, 8), 0xbeef);
        // A still-grouped region realloc'd within the cap stays grouped.
        let g1 = a.malloc(64, site(), &gs, &mut mem);
        mem.write(g1, 8, 0xcafe);
        let g2 = a.realloc(g1, 128, site(), &gs, &mut mem);
        assert!(a.is_group_allocated(g2));
        assert_eq!(mem.read(g2, 8), 0xcafe);
    }

    #[test]
    fn fragmentation_report_tracks_worst_live_at_peak() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        // 16 × 256 B fill one 4 KiB page: peak resident 4096, live 4096.
        let ptrs: Vec<u64> = (0..16).map(|_| a.malloc(256, site(), &gs, &mut mem)).collect();
        assert_eq!(a.report().frag.peak_resident_bytes, 4096);
        // A lone survivor pins the page: the snapshot at the (unchanged)
        // peak degrades to the leela-style pathology of Table 1.
        for &p in &ptrs[1..] {
            a.free(p, &mut mem);
        }
        let rep = a.report().frag;
        assert_eq!(rep.peak_resident_bytes, 4096);
        assert_eq!(rep.live_at_peak_bytes, 256);
        assert_eq!(rep.wasted_bytes(), 3840);
        assert!((rep.frag_fraction() - 0.9375).abs() < 1e-9);
    }

    #[test]
    fn frag_report_zero_resident_is_all_zeroes() {
        // A run that never groups anything (or an allocator never used):
        // nothing resident, nothing live — every derived metric must be a
        // finite zero, not 0/0.
        let rep = FragReport::default();
        assert_eq!(rep.peak_resident_bytes, 0);
        assert_eq!(rep.wasted_bytes(), 0);
        assert_eq!(rep.frag_fraction(), 0.0);
        assert!(rep.frag_fraction().is_finite());
        // And straight off an untouched allocator.
        let (a, _, _) = setup();
        assert_eq!(a.report().frag, FragReport::default());
    }

    #[test]
    fn frag_report_live_above_resident_saturates() {
        // live > resident cannot arise from the allocator's own accounting,
        // but FragReport is a plain data type consumed by harness code —
        // a hand-built (or future buggy) report must saturate at zero
        // waste, not underflow to u64::MAX wasted bytes.
        let rep = FragReport { peak_resident_bytes: 4096, live_at_peak_bytes: 5000 };
        assert_eq!(rep.wasted_bytes(), 0, "saturating_sub, not wrap");
        assert_eq!(rep.frag_fraction(), 0.0);
        assert!(rep.frag_fraction() >= 0.0 && rep.frag_fraction() <= 1.0);
    }

    #[test]
    fn sharded_reuse_recycles_holes_within_the_chunk() {
        let cfg = GroupAllocConfig { reuse_policy: ReusePolicy::ShardedFreeLists, ..tiny_config() };
        let (mut a, mut gs, mut mem) = setup_with(cfg);
        gs.set(0);
        let p1 = a.malloc(64, site(), &gs, &mut mem);
        let p2 = a.malloc(64, site(), &gs, &mut mem);
        let p3 = a.malloc(24, site(), &gs, &mut mem);
        // Free the middle region: under bump it would be lost until the
        // chunk empties; sharded reuse hands it straight back.
        a.free(p2, &mut mem);
        let p4 = a.malloc(64, site(), &gs, &mut mem);
        assert_eq!(p4, p2, "same-size hole recycled");
        // A different size shard does not steal it.
        a.free(p4, &mut mem);
        let p5 = a.malloc(24, site(), &gs, &mut mem);
        assert_ne!(p5, p2, "different shard bumps instead");
        let _ = (p1, p3);
    }

    #[test]
    fn sharded_reuse_reduces_survivor_fragmentation() {
        // The leela scenario: allocate a burst, free all but one survivor,
        // allocate another burst. Bump marches on; sharding backfills.
        let run = |policy: ReusePolicy| {
            let cfg = GroupAllocConfig { reuse_policy: policy, ..tiny_config() };
            let (mut a, mut gs, mut mem) = setup_with(cfg);
            gs.set(0);
            for _round in 0..4 {
                let ptrs: Vec<u64> = (0..32).map(|_| a.malloc(48, site(), &gs, &mut mem)).collect();
                for &p in &ptrs[1..] {
                    a.free(p, &mut mem);
                }
            }
            a.report().frag
        };
        let bump = run(ReusePolicy::Bump);
        let sharded = run(ReusePolicy::ShardedFreeLists);
        assert!(
            sharded.peak_resident_bytes <= bump.peak_resident_bytes,
            "sharding must not grow the footprint"
        );
        assert!(
            sharded.wasted_bytes() <= bump.wasted_bytes(),
            "sharded {} vs bump {}",
            sharded.wasted_bytes(),
            bump.wasted_bytes()
        );
    }

    #[test]
    fn live_accounting_spans_group_and_fallback() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        let g = a.malloc(100, site(), &gs, &mut mem);
        gs.clear(0);
        let f = a.malloc(200, site(), &gs, &mut mem);
        assert_eq!(a.live_bytes(), 300);
        assert_eq!(a.live_objects(), 2);
        a.free(g, &mut mem);
        a.free(f, &mut mem);
        assert_eq!(a.live_bytes(), 0);
    }

    // --- per-group configuration overrides -----------------------------

    /// Group 0 on 8 KiB chunks, group 1 on 16 KiB chunks.
    fn mixed_chunk_alloc() -> HaloGroupAllocator {
        let global = GroupAllocConfig { slab_size: 16384 * 8, ..tiny_config() };
        HaloGroupAllocator::with_group_configs(
            global,
            two_group_table(),
            vec![global, GroupAllocConfig { chunk_size: 16384, ..global }],
        )
    }

    #[test]
    fn per_group_chunk_sizes_coexist() {
        let mut a = mixed_chunk_alloc();
        let mut gs = GroupState::new(2);
        let mut mem = Memory::new();
        // Group 1's 16 KiB chunks hold eight 2 KiB regions where group 0's
        // 8 KiB chunks hold four.
        gs.set(1);
        let g1: Vec<u64> = (0..8).map(|_| a.malloc(2048, site(), &gs, &mut mem)).collect();
        assert!(g1.windows(2).all(|w| w[1] == w[0] + 2048), "one contiguous 16 KiB chunk");
        gs.clear(1);
        gs.set(0);
        let g0: Vec<u64> = (0..5).map(|_| a.malloc(2048, site(), &gs, &mut mem)).collect();
        // Chunks are aligned to their own size, so the 8 KiB mask finds
        // group 0's chunk boundaries: four regions per chunk, then roll.
        let m = |p: u64| p & !(8192 - 1);
        assert!(g0[..4].iter().all(|&p| m(p) == m(g0[0])), "first four share one 8 KiB chunk");
        assert_ne!(m(g0[4]), m(g0[0]), "group 0 rolls to a second chunk after four regions");
        // Frees locate the right chunk despite the mixed sizes.
        for &p in g1.iter().chain(&g0) {
            a.free(p, &mut mem);
        }
        assert_eq!(a.live_grouped_bytes(), 0);
    }

    #[test]
    fn per_group_reuse_policies_are_independent() {
        let global = tiny_config();
        let mut a = HaloGroupAllocator::with_group_configs(
            global,
            two_group_table(),
            vec![
                global, // group 0: bump
                GroupAllocConfig { reuse_policy: ReusePolicy::ShardedFreeLists, ..global },
            ],
        );
        let mut gs = GroupState::new(2);
        let mut mem = Memory::new();
        for group in [0u16, 1] {
            gs.reset();
            gs.set(group);
            let p1 = a.malloc(64, site(), &gs, &mut mem);
            let _p2 = a.malloc(64, site(), &gs, &mut mem);
            a.free(p1, &mut mem);
            let p3 = a.malloc(64, site(), &gs, &mut mem);
            if group == 1 {
                assert_eq!(p3, p1, "sharded group recycles the hole");
            } else {
                assert_ne!(p3, p1, "bump group never reuses until the chunk empties");
            }
        }
    }

    #[test]
    fn per_group_spare_budgets_are_independent() {
        let global = tiny_config(); // budget 1
        let mut a = HaloGroupAllocator::with_group_configs(
            global,
            two_group_table(),
            vec![GroupAllocConfig { max_spare_chunks: 0, ..global }, global],
        );
        let mut gs = GroupState::new(2);
        let mut mem = Memory::new();
        // For each group: fill a chunk, roll to the next, then empty the
        // first so it leaves the in-use set.
        fn cycle(a: &mut HaloGroupAllocator, gs: &mut GroupState, mem: &mut Memory, bit: u16) {
            gs.reset();
            gs.set(bit);
            let ptrs: Vec<u64> = (0..4).map(|_| a.malloc(2048, site(), gs, mem)).collect();
            let _keep = a.malloc(2048, site(), gs, mem);
            for &p in &ptrs {
                a.free(p, mem);
            }
        }
        cycle(&mut a, &mut gs, &mut mem, 0);
        assert_eq!(a.report().stats.alloc.chunks_purged, 1, "budget-0 group purges immediately");
        cycle(&mut a, &mut gs, &mut mem, 1);
        assert_eq!(a.report().stats.alloc.chunks_purged, 1, "budget-1 group keeps its spare");
    }

    #[test]
    fn oversized_for_group_chunk_falls_back() {
        // Global cap admits the request, but the group's plan shrank its
        // chunks below the request size: it must forward to the fallback
        // rather than overflow a chunk.
        let global =
            GroupAllocConfig { max_grouped_size: 16384, slab_size: 16384 * 8, ..tiny_config() };
        let mut a = HaloGroupAllocator::with_group_configs(
            global,
            two_group_table(),
            vec![GroupAllocConfig { chunk_size: 4096, ..global }],
        );
        let mut gs = GroupState::new(2);
        let mut mem = Memory::new();
        gs.set(0);
        let p = a.malloc(6000, site(), &gs, &mut mem);
        assert!(!a.is_group_allocated(p), "request larger than the group's chunk");
        assert_eq!(a.report().stats.alloc.fallback_allocs, 1);
        let q = a.malloc(4000, site(), &gs, &mut mem);
        assert!(a.is_group_allocated(q), "request fitting the group's chunk is grouped");
    }

    #[test]
    fn spare_chunks_only_serve_matching_sizes() {
        let mut a = mixed_chunk_alloc();
        let mut gs = GroupState::new(2);
        let mut mem = Memory::new();
        // Group 0 donates an 8 KiB spare.
        gs.set(0);
        let ptrs: Vec<u64> = (0..4).map(|_| a.malloc(2048, site(), &gs, &mut mem)).collect();
        let _keep = a.malloc(2048, site(), &gs, &mut mem);
        for &p in &ptrs {
            a.free(p, &mut mem);
        }
        let created = a.report().stats.alloc.chunks_created;
        // Group 1 needs a 16 KiB chunk: the 8 KiB spare must not serve it.
        gs.reset();
        gs.set(1);
        let p = a.malloc(2048, site(), &gs, &mut mem);
        assert_eq!(
            a.report().stats.alloc.chunks_created,
            created + 1,
            "fresh carve, spare size mismatch"
        );
        assert!(a.is_group_allocated(p));
    }

    #[test]
    fn per_group_frag_reports_isolate_the_offender() {
        let global = tiny_config();
        let mut a = HaloGroupAllocator::new(global, two_group_table());
        let mut gs = GroupState::new(2);
        let mut mem = Memory::new();
        // Group 0: survivor pathology (free all but the first).
        gs.set(0);
        let ptrs: Vec<u64> = (0..16).map(|_| a.malloc(256, site(), &gs, &mut mem)).collect();
        for &p in &ptrs[1..] {
            a.free(p, &mut mem);
        }
        // Group 1: everything stays live (three pages' worth, so its peak
        // is hit mid-growth with most of the pool live).
        gs.reset();
        gs.set(1);
        for _ in 0..33 {
            a.malloc(256, site(), &gs, &mut mem);
        }
        let reports = a.group_frag_reports();
        assert_eq!(reports.len(), 2);
        assert!(reports[0].frag_fraction() > 0.9, "group 0 is the offender: {reports:?}");
        assert!(reports[1].frag_fraction() < 0.5, "group 1 is healthy: {reports:?}");
        // The global report spans both pools.
        assert_eq!(
            a.report().frag.peak_resident_bytes,
            reports.iter().map(|r| r.peak_resident_bytes).sum::<u64>()
        );
    }

    #[test]
    fn homogeneous_overrides_match_the_plain_constructor() {
        // with_group_configs with every entry equal to the global config
        // must behave exactly like new(): same pointers, same stats.
        let cfg = tiny_config();
        let mut plain = HaloGroupAllocator::new(cfg, two_group_table());
        let mut over =
            HaloGroupAllocator::with_group_configs(cfg, two_group_table(), vec![cfg, cfg]);
        let mut gs = GroupState::new(2);
        let mut mem_a = Memory::new();
        let mut mem_b = Memory::new();
        let mut ptrs_a = Vec::new();
        let mut ptrs_b = Vec::new();
        for i in 0..64u64 {
            gs.reset();
            gs.set((i % 2) as u16);
            let size = 32 + (i % 7) * 24;
            ptrs_a.push(plain.malloc(size, site(), &gs, &mut mem_a));
            ptrs_b.push(over.malloc(size, site(), &gs, &mut mem_b));
            if i % 3 == 0 {
                plain.free(ptrs_a.pop().unwrap(), &mut mem_a);
                over.free(ptrs_b.pop().unwrap(), &mut mem_b);
            }
        }
        assert_eq!(ptrs_a, ptrs_b);
        assert_eq!(plain.report().stats.alloc, over.report().stats.alloc);
        assert_eq!(plain.report().frag, over.report().frag);
    }

    #[test]
    fn config_display_is_compact() {
        let config = GroupAllocConfig::default();
        assert_eq!(config.to_string(), "bump@1MiB");
        let sharded = GroupAllocConfig {
            reuse_policy: ReusePolicy::ShardedFreeLists,
            chunk_size: 8192,
            ..config
        };
        assert_eq!(sharded.to_string(), "sharded@8KiB");
    }

    // --- fault injection and the degradation ladder ---------------------

    use crate::faults::{FaultInjector, FaultPlan, FaultSite};
    use std::sync::Arc;

    #[test]
    fn slab_exhaustion_degrades_the_group_not_the_process() {
        let (mut a, mut gs, mut mem) = setup();
        a.set_fault_injector(Arc::new(FaultInjector::new(
            FaultPlan::new(1).at(FaultSite::VmmReserve, 1),
        )));
        gs.set(0);
        // First grouped request needs a slab; the injected reservation
        // failure must degrade group 0 and serve from the fallback.
        let p = a.malloc(64, site(), &gs, &mut mem);
        assert_ne!(p, 0, "the request is still served");
        assert!(!a.is_group_allocated(p), "served by the fallback");
        assert!(a.is_degraded(0));
        let d = a.report().stats.degrade;
        assert_eq!(d.fallback_routes, 1);
        assert_eq!(d.degraded_groups, 1);
        assert_eq!(d.injected_faults, 1);
        // Later requests for the degraded group keep routing, no retry.
        let q = a.malloc(64, site(), &gs, &mut mem);
        assert!(!a.is_group_allocated(q));
        assert_eq!(a.report().stats.degrade.fallback_routes, 2);
        // The other group is untouched by group 0's degradation.
        gs.reset();
        gs.set(1);
        let r = a.malloc(64, site(), &gs, &mut mem);
        assert!(a.is_group_allocated(r));
        // Everything frees cleanly; nothing leaks across the ladder.
        a.free(p, &mut mem);
        a.free(q, &mut mem);
        a.free(r, &mut mem);
        assert_eq!(a.live_bytes(), 0);
        a.check_invariants().expect("invariants hold after degradation");
    }

    #[test]
    fn chunk_alloc_fault_degrades_identically() {
        let (mut a, mut gs, mut mem) = setup();
        a.set_fault_injector(Arc::new(FaultInjector::new(
            FaultPlan::new(1).at(FaultSite::ChunkAlloc, 2),
        )));
        gs.set(0);
        // Occurrence 1 (fresh chunk) succeeds; fill the chunk so the
        // second acquisition — which the plan fails — is needed.
        let ptrs: Vec<u64> = (0..4).map(|_| a.malloc(2048, site(), &gs, &mut mem)).collect();
        assert!(ptrs.iter().all(|&p| a.is_group_allocated(p)));
        let p = a.malloc(2048, site(), &gs, &mut mem);
        assert_ne!(p, 0);
        assert!(!a.is_group_allocated(p), "chunk-map failure routes to fallback");
        assert!(a.is_degraded(0));
        assert_eq!(a.report().stats.degrade.injected_faults, 1);
        // Live grouped pointers still free through their chunks.
        for &q in &ptrs {
            a.free(q, &mut mem);
        }
        a.free(p, &mut mem);
        assert_eq!(a.live_bytes(), 0);
    }

    #[test]
    fn invalid_group_free_is_a_counted_noop() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        let p = a.malloc(64, site(), &gs, &mut mem);
        let live = a.live_bytes();
        // An interior address inside the slab range: no live region.
        a.free(p + 8, &mut mem);
        assert_eq!(a.report().stats.degrade.invalid_frees, 1);
        assert_eq!(a.live_bytes(), live, "accounting untouched");
        // Double free of a real pointer is also absorbed.
        a.free(p, &mut mem);
        a.free(p, &mut mem);
        assert_eq!(a.report().stats.degrade.invalid_frees, 2);
        assert_eq!(a.live_bytes(), 0);
        a.check_invariants().expect("no-op frees leave a consistent state");
    }

    #[test]
    fn invalid_fallback_free_is_a_counted_noop() {
        let (mut a, gs, mut mem) = setup();
        let p = a.malloc(64, site(), &gs, &mut mem);
        assert!(!a.is_group_allocated(p), "no group bit set: served by the fallback");
        a.free(p, &mut mem);
        let stats = a.report().stats.alloc;
        assert_eq!(stats.fallback_frees, 1);
        // A double free, an interior address, an address the fallback
        // never handed out, and null all land in the fallback's range.
        for bad in [p, p + 8, p + (1 << 20), 0] {
            a.free(bad, &mut mem);
        }
        assert_eq!(a.report().stats.degrade.invalid_frees, 4);
        assert_eq!(a.report().stats.alloc, stats, "an invalid free is not a fallback free");
        assert_eq!((a.live_bytes(), a.live_objects()), (0, 0));
        // The double free did not queue the slot for reuse a second time.
        let q = a.malloc(64, site(), &gs, &mut mem);
        let r = a.malloc(64, site(), &gs, &mut mem);
        assert_eq!(q, p);
        assert_ne!(r, p);
        a.check_invariants().expect("no-op frees leave a consistent state");
    }

    // --- address-indexed metadata: the seams the tables create ----------

    #[test]
    fn region_may_end_on_the_chunks_last_granule() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        let cs = tiny_config().chunk_size;
        // 4088 + 4088 + 8 + 8 fill the 8 KiB chunk to its last byte.
        let ptrs: Vec<u64> =
            [4088, 4088, 8, 8].iter().map(|&n| a.malloc(n, site(), &gs, &mut mem)).collect();
        let chunk = ptrs[0] & !(cs - 1);
        assert_eq!(ptrs[3], chunk + cs - 8, "the last region sits on the last granule");
        let next = a.malloc(8, site(), &gs, &mut mem);
        assert_ne!(next & !(cs - 1), chunk, "a full chunk rolls over");
        assert_eq!(a.live_objects(), 5);
        // The last granule frees like any other, exactly once.
        a.free(ptrs[3], &mut mem);
        a.free(ptrs[3], &mut mem);
        assert_eq!(a.report().stats.degrade.invalid_frees, 1);
        for &p in &ptrs[..3] {
            a.free(p, &mut mem);
        }
        a.free(next, &mut mem);
        assert_eq!((a.live_bytes(), a.live_objects()), (0, 0));
        a.check_invariants().expect("consistent");
    }

    #[test]
    fn whole_chunk_regions_group_when_the_cap_is_lifted() {
        // Page granularity lifts `max_grouped_size`; a request of exactly
        // the chunk size then owns a whole chunk.
        let cfg = GroupAllocConfig { max_grouped_size: u64::MAX, ..tiny_config() };
        let (mut a, mut gs, mut mem) = setup_with(cfg);
        gs.set(0);
        let cs = cfg.chunk_size;
        let p = a.malloc(cs, site(), &gs, &mut mem);
        let q = a.malloc(cs, site(), &gs, &mut mem);
        assert!(a.is_group_allocated(p) && a.is_group_allocated(q));
        assert_eq!((p % cs, q % cs), (0, 0), "each fills one chunk");
        assert_ne!(p, q);
        let over = a.malloc(cs + 1, site(), &gs, &mut mem);
        assert!(!a.is_group_allocated(over), "one byte more than a chunk forwards");
        assert_eq!(a.live_bytes(), 3 * cs + 1);
        // The size recorded for the whole-chunk region is exact: realloc
        // copies the last byte too.
        mem.write(p + cs - 8, 8, 0xfeed);
        let moved = a.realloc(p, cs, site(), &gs, &mut mem);
        assert_eq!(mem.read(moved + cs - 8, 8), 0xfeed);
        for ptr in [moved, q, over] {
            a.free(ptr, &mut mem);
        }
        assert_eq!((a.live_bytes(), a.live_objects()), (0, 0));
        assert_eq!(a.report().stats.degrade.invalid_frees, 0);
    }

    #[test]
    fn sizes_without_a_granule_cell_forward_instead_of_overflowing() {
        // With the cap lifted to u64::MAX nothing above stops an absurd
        // request from reaching the rounding arithmetic.
        let cfg = GroupAllocConfig { max_grouped_size: u64::MAX, ..tiny_config() };
        let (mut a, mut gs, mut mem) = setup_with(cfg);
        gs.set(0);
        assert_eq!(size_tag(0), Some(1));
        assert_eq!(size_tag(u64::from(u32::MAX) - 1), Some(u32::MAX));
        assert_eq!(size_tag(u64::from(u32::MAX)), None);
        // 4 GiB − 1 has no cell: the fallback's large path serves it.
        let p = a.malloc(u64::from(u32::MAX), site(), &gs, &mut mem);
        assert!(p != 0 && !a.is_group_allocated(p));
        a.free(p, &mut mem);
        for size in [u64::MAX - 7, u64::MAX - 1] {
            assert_eq!(a.malloc(size, site(), &gs, &mut mem), 0, "no span holds {size} bytes");
        }
        assert_eq!(a.report().stats.alloc.fallback_allocs, 3);
        assert_eq!((a.live_bytes(), a.live_objects()), (0, 0));
    }

    #[test]
    fn zero_sized_regions_are_live_objects() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        let p = a.malloc(0, site(), &gs, &mut mem);
        let q = a.malloc(0, site(), &gs, &mut mem);
        assert_eq!(q, p + 8, "a zero-byte request still owns a granule");
        assert_eq!(a.live_size(p), Some(1), "and is a one-byte region");
        assert_eq!((a.live_bytes(), a.live_objects()), (2, 2));
        a.free(p, &mut mem);
        a.free(p, &mut mem);
        assert_eq!(
            a.report().stats.degrade.invalid_frees,
            1,
            "the cell tells live-and-empty from freed"
        );
        assert_eq!(a.live_objects(), 1);
        a.free(q, &mut mem);
        assert_eq!(a.report().stats.alloc.grouped_frees, 2);
    }

    #[test]
    fn misaligned_and_interior_pointers_are_invalid_frees() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        let p = a.malloc(64, site(), &gs, &mut mem);
        let live = a.live_bytes();
        // Inside the live region: off the granule grid, on it, and on its
        // last byte; then past the bump pointer, and in a page of the slab
        // no chunk covers yet.
        for bad in [p + 1, p + 4, p + 8, p + 63, p + 64, p + tiny_config().chunk_size] {
            assert!(a.is_group_allocated(bad));
            a.free(bad, &mut mem);
            assert_eq!(a.realloc(bad, 0, site(), &GroupState::new(2), &mut mem), 0x10_0000_0000);
            a.free(0x10_0000_0000, &mut mem);
        }
        assert_eq!(
            a.report().stats.degrade.invalid_frees,
            6,
            "each bad free; the reallocs free nothing"
        );
        assert_eq!(a.live_bytes(), live, "accounting untouched");
        a.free(p, &mut mem);
        assert_eq!((a.live_bytes(), a.live_objects()), (0, 0));
    }

    #[test]
    fn the_last_chunk_of_a_slab_is_indexed_to_its_last_page() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        let cfg = tiny_config();
        // Eight 8 KiB chunks fill the 64 KiB slab; the ninth opens a new one.
        let per_chunk = cfg.chunk_size / 2048;
        let ptrs: Vec<u64> = (0..cfg.slab_size / 2048 + per_chunk)
            .map(|_| a.malloc(2048, site(), &gs, &mut mem))
            .collect();
        assert_eq!(a.report().stats.alloc.chunks_created, 9);
        let slab_end = HaloGroupAllocator::SLAB_BASE + cfg.slab_size;
        let last_of_slab = ptrs[(cfg.slab_size / 2048 - 1) as usize];
        assert_eq!(last_of_slab, slab_end - 2048, "last region of the slab's last chunk");
        assert_eq!(ptrs[(cfg.slab_size / 2048) as usize], slab_end, "next slab follows on");
        for &p in ptrs.iter().rev() {
            a.free(p, &mut mem);
        }
        assert_eq!(a.report().stats.degrade.invalid_frees, 0);
        assert_eq!((a.live_bytes(), a.live_objects()), (0, 0));
        // One past the highest slab belongs to the fallback's side.
        assert!(!a.is_group_allocated(slab_end + cfg.slab_size));
        a.free(slab_end + cfg.slab_size, &mut mem);
        assert_eq!(a.report().stats.degrade.invalid_frees, 1);
        a.check_invariants().expect("consistent");
    }

    #[test]
    fn free_finds_an_older_larger_chunk_after_the_plan_shrank_the_group() {
        let global = GroupAllocConfig { slab_size: 16384 * 8, ..tiny_config() };
        let big = GroupAllocConfig { chunk_size: 16384, ..global };
        let small = GroupAllocConfig { chunk_size: 4096, ..global };
        let mut a = HaloGroupAllocator::with_group_configs(global, two_group_table(), vec![big]);
        let mut gs = GroupState::new(2);
        let mut mem = Memory::new();
        gs.set(0);
        // Seven regions in the 16 KiB chunk: the later ones lie beyond
        // where a 4 KiB-chunk view of the address would look.
        let old: Vec<u64> = (0..7).map(|_| a.malloc(2048, site(), &gs, &mut mem)).collect();
        a.install_plan(two_group_table(), vec![small]);
        let new = a.malloc(2048, site(), &gs, &mut mem);
        assert_ne!(new & !(16384 - 1), old[0] & !(16384 - 1), "a fresh 4 KiB chunk");
        for &p in old.iter().rev() {
            a.free(p, &mut mem);
        }
        assert_eq!(a.report().stats.degrade.invalid_frees, 0);
        assert_eq!(a.report().stats.alloc.grouped_frees, 7);
        assert_eq!(a.live_bytes(), 2048);
        // The emptied 16 KiB chunk went spare; the 4 KiB plan cannot take it.
        let again = a.malloc(4000, site(), &gs, &mut mem);
        assert!(!(old[0]..old[0] + 16384).contains(&again));
        a.free(new, &mut mem);
        a.free(again, &mut mem);
        assert_eq!((a.live_bytes(), a.live_objects()), (0, 0));
        a.check_invariants().expect("consistent");
    }

    #[test]
    fn quarantine_routes_every_group_to_the_fallback() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        let grouped = a.malloc(64, site(), &gs, &mut mem);
        assert!(a.is_group_allocated(grouped));
        a.quarantine();
        let p = a.malloc(64, site(), &gs, &mut mem);
        assert!(!a.is_group_allocated(p), "quarantined group falls back");
        assert_eq!(a.report().stats.degrade.degraded_groups, 2, "both groups degraded");
        // Pre-quarantine pointers still free through their chunks.
        a.free(grouped, &mut mem);
        a.free(p, &mut mem);
        assert_eq!(a.live_bytes(), 0);
    }

    #[test]
    fn no_injector_means_no_degradation_branch_taken() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        let p = a.malloc(64, site(), &gs, &mut mem);
        a.free(p, &mut mem);
        assert_eq!(a.report().stats.degrade, crate::faults::DegradeStats::default());
        assert!(!a.report().stats.degrade.any());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_override_chunk_size_panics() {
        let cfg = tiny_config();
        let _ = HaloGroupAllocator::with_group_configs(
            cfg,
            two_group_table(),
            vec![GroupAllocConfig { chunk_size: 12288, ..cfg }],
        );
    }

    #[test]
    fn chunk_size_check_names_the_broken_rule() {
        let cfg = tiny_config();
        assert_eq!(cfg.check_chunk_size(cfg.chunk_size), Ok(()));
        assert_eq!(cfg.check_chunk_size(0), Err("chunk size must be a power of two"));
        assert_eq!(cfg.check_chunk_size(12288), Err("chunk size must be a power of two"));
        assert_eq!(cfg.check_chunk_size(PAGE_SIZE / 2), Err("chunks must be at least a page"));
        assert_eq!(cfg.check_chunk_size(cfg.slab_size * 2), Err("slabs must hold whole chunks"));
        // Zero is a multiple of every chunk size, yet holds no chunk.
        let empty = GroupAllocConfig { slab_size: 0, ..cfg };
        assert_eq!(empty.check_chunk_size(cfg.chunk_size), Err("slabs must hold whole chunks"));
    }

    #[test]
    fn a_slab_holds_64_chunks_and_at_least_4_mib() {
        let cfg = GroupAllocConfig::default();
        let sized = |cs| cfg.with_chunk_size(cs).map(|c| (c.chunk_size, c.slab_size));
        assert_eq!(sized(131_072), Ok((131_072, 131_072 * 64)));
        assert_eq!(sized(PAGE_SIZE), Ok((PAGE_SIZE, 4 << 20)));
        assert_eq!(sized(1 << 60), Err("a slab of 64 chunks overflows"));
        assert_eq!(sized(12288), Err("chunk size must be a power of two"));
        let kept = GroupAllocConfig { max_spare_chunks: 0, ..cfg }.with_chunk_size(PAGE_SIZE);
        assert_eq!(kept.map(|c| c.max_spare_chunks), Ok(0), "other fields are kept");
    }

    #[test]
    #[should_panic(expected = "slabs must hold whole chunks")]
    fn a_zero_slab_size_is_refused_at_construction() {
        let config = GroupAllocConfig { slab_size: 0, ..tiny_config() };
        let _ = HaloGroupAllocator::new(config, two_group_table());
    }
}
