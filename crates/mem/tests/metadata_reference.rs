//! Differential suite for the allocators' address-indexed metadata
//! (DESIGN.md §6): the shipped [`SizeClassAllocator`],
//! [`HaloGroupAllocator`] and [`ShardedHaloAllocator`] against the
//! bookkeeping they replaced — a pointer-keyed `HashMap` of slot and region
//! sizes, a `BTreeSet` of free slots per class, and a `BTreeMap` of in-use
//! chunks keyed by base address — which lives on only here.
//!
//! Each case replays one random stream of malloc / free / realloc / double
//! free / interior free / `install_plan` requests (plus logical-thread
//! switches for the sharded runs) through both sides and demands the same
//! pointer from every request and, after every request, the same
//! [`GroupAllocStats`], [`FragReport`], live bytes and objects, and
//! invalid-free count. Chunks and slabs are tiny so a short stream crosses
//! every seam: chunk roll-over, spare and purge, slab roll-over, plans that
//! grow and shrink a group's chunk size, regions that fill a whole chunk.
//!
//! Case count: `HALO_PROPTEST_CASES` (the knob the compat proptest runner
//! honours), default 48. A failure names the seed that replays it.

use halo_mem::{
    AllocatorStats, FragReport, GroupAllocConfig, GroupAllocStats, GroupSelector,
    HaloGroupAllocator, ReusePolicy, SelectorTable, ShardedHaloAllocator, SizeClassAllocator, Vmm,
    GROUP_SHARD_STRIDE, SIZE_CLASSES, SMALL_MAX,
};
use halo_vm::{
    CallSite, FuncId, GroupState, Memory, SplitMix64, SyncVmAllocator, VmAllocator, PAGE_SIZE,
};
use proptest::prelude::{ProptestConfig, TestRunner};
use std::collections::{BTreeMap, BTreeSet, HashMap};

fn cases(default: u32) -> u64 {
    TestRunner::new(ProptestConfig::with_cases(default)).effective_cases().into()
}

fn site() -> CallSite {
    CallSite::new(FuncId(0), 0)
}

// --- the reference bookkeeping ----------------------------------------------

#[derive(Clone, Copy)]
enum RefSlot {
    Small { class: usize, requested: u64 },
    Large { requested: u64 },
}

/// The size-class allocator with a hashed slot map and ordered free sets.
struct RefSizeClass {
    vmm: Vmm,
    free_slots: Vec<BTreeSet<u64>>,
    runs: Vec<Option<(u64, u64)>>,
    slots: HashMap<u64, RefSlot>,
    live_bytes: u64,
}

impl RefSizeClass {
    fn new(base: u64, span: u64) -> Self {
        RefSizeClass {
            vmm: Vmm::new(base, span),
            free_slots: vec![BTreeSet::new(); SIZE_CLASSES.len()],
            runs: vec![None; SIZE_CLASSES.len()],
            slots: HashMap::new(),
            live_bytes: 0,
        }
    }

    fn malloc(&mut self, size: u64) -> u64 {
        let size = size.max(1);
        let class = SIZE_CLASSES.iter().position(|&c| c >= size).filter(|_| size <= SMALL_MAX);
        let ptr = match class {
            Some(class) => {
                let csize = SIZE_CLASSES[class];
                let ptr = if let Some(slot) = self.free_slots[class].pop_first() {
                    slot
                } else {
                    match &mut self.runs[class] {
                        Some((cursor, end)) if *cursor + csize <= *end => {
                            *cursor += csize;
                            *cursor - csize
                        }
                        run => {
                            let bytes = (16 * 1024).max(csize * 8).div_ceil(PAGE_SIZE) * PAGE_SIZE;
                            let Ok(base) = self.vmm.reserve(bytes, PAGE_SIZE) else { return 0 };
                            *run = Some((base + csize, base + bytes));
                            base
                        }
                    }
                };
                self.slots.insert(ptr, RefSlot::Small { class, requested: size });
                ptr
            }
            None => {
                let Some(bytes) = size.div_ceil(PAGE_SIZE).checked_mul(PAGE_SIZE) else { return 0 };
                let Ok(ptr) = self.vmm.reserve(bytes, PAGE_SIZE) else { return 0 };
                self.slots.insert(ptr, RefSlot::Large { requested: size });
                ptr
            }
        };
        self.live_bytes += size;
        ptr
    }

    /// Whether `ptr` was live.
    fn free(&mut self, ptr: u64) -> bool {
        match self.slots.remove(&ptr) {
            Some(RefSlot::Small { class, requested }) => {
                self.live_bytes -= requested;
                self.free_slots[class].insert(ptr);
                true
            }
            Some(RefSlot::Large { requested }) => {
                self.live_bytes -= requested;
                true
            }
            None => false,
        }
    }

    fn realloc(&mut self, ptr: u64, size: u64) -> u64 {
        let Some(info) = self.slots.get(&ptr).copied() else { return self.malloc(size) };
        let size = size.max(1);
        if let RefSlot::Small { class, requested } = info {
            if size <= SIZE_CLASSES[class] {
                self.live_bytes = self.live_bytes - requested + size;
                self.slots.insert(ptr, RefSlot::Small { class, requested: size });
                return ptr;
            }
        }
        let newp = self.malloc(size);
        if newp != 0 {
            self.free(ptr);
        }
        newp
    }

    fn usable_size(&self, ptr: u64) -> Option<u64> {
        self.slots.get(&ptr).map(|s| match *s {
            RefSlot::Small { class, .. } => SIZE_CLASSES[class],
            RefSlot::Large { requested } => requested.div_ceil(PAGE_SIZE) * PAGE_SIZE,
        })
    }
}

#[derive(Clone, Copy, Default)]
struct RefUsage {
    resident: u64,
    live: u64,
    frag: FragReport,
}

impl RefUsage {
    fn note(&mut self) {
        if self.resident > self.frag.peak_resident_bytes {
            self.frag =
                FragReport { peak_resident_bytes: self.resident, live_at_peak_bytes: self.live };
        } else if self.resident == self.frag.peak_resident_bytes {
            self.frag.live_at_peak_bytes = self.frag.live_at_peak_bytes.min(self.live);
        }
    }
}

struct RefChunk {
    group: usize,
    bump: u64,
    end: u64,
    live_regions: u64,
    high_water: u64,
    shards: HashMap<u64, Vec<u64>>,
}

struct RefSpare {
    base: u64,
    high_water: u64,
    size: u64,
    owner: usize,
}

/// The group allocator with a hashed region-size map and an ordered map of
/// in-use chunks, over [`RefSizeClass`].
struct RefGroup {
    config: GroupAllocConfig,
    slab_base: u64,
    group_cfg: Vec<GroupAllocConfig>,
    vmm: Vmm,
    slab_cursor: Option<(u64, u64)>,
    slabs_end: u64,
    chunks: BTreeMap<u64, RefChunk>,
    current: Vec<Option<u64>>,
    spare: Vec<RefSpare>,
    clean: Vec<(u64, u64)>,
    region_sizes: HashMap<u64, u64>,
    fallback: RefSizeClass,
    usage: RefUsage,
    group_usage: Vec<RefUsage>,
    stats: GroupAllocStats,
    invalid_frees: u64,
}

fn rounded(size: u64) -> u64 {
    (size.max(1) + 7) & !7
}

fn dirty_bytes(base: u64, high_water: u64) -> u64 {
    (high_water - base).div_ceil(PAGE_SIZE) * PAGE_SIZE
}

impl RefGroup {
    fn new(
        config: GroupAllocConfig,
        slab_base: u64,
        overrides: &[GroupAllocConfig],
        fallback: RefSizeClass,
    ) -> Self {
        let groups = overrides.len().max(2);
        let mut group_cfg = vec![config; groups];
        group_cfg[..overrides.len()].copy_from_slice(overrides);
        RefGroup {
            config,
            slab_base,
            group_cfg,
            vmm: Vmm::new(slab_base, 1 << 38),
            slab_cursor: None,
            slabs_end: slab_base,
            chunks: BTreeMap::new(),
            current: vec![None; groups],
            spare: Vec::new(),
            clean: Vec::new(),
            region_sizes: HashMap::new(),
            fallback,
            usage: RefUsage::default(),
            group_usage: vec![RefUsage::default(); groups],
            stats: GroupAllocStats::default(),
            invalid_frees: 0,
        }
    }

    fn install_plan(&mut self, overrides: &[GroupAllocConfig]) {
        let mut new_cfg = vec![self.config; self.group_cfg.len()];
        new_cfg[..overrides.len()].copy_from_slice(overrides);
        for (g, cfg) in new_cfg.iter().enumerate() {
            if *cfg != self.group_cfg[g] {
                self.current[g] = None;
            }
        }
        self.group_cfg = new_cfg;
    }

    fn is_group_allocated(&self, ptr: u64) -> bool {
        (self.slab_base..self.slabs_end).contains(&ptr)
    }

    fn carve(&mut self, cs: u64) -> Option<u64> {
        if let Some((next, end)) = self.slab_cursor {
            let base = (next + cs - 1) & !(cs - 1);
            if base + cs <= end {
                self.slab_cursor = Some((base + cs, end));
                return Some(base);
            }
        }
        let slab = self.vmm.reserve(self.config.slab_size, cs).ok()?;
        self.slabs_end = self.slabs_end.max(slab + self.config.slab_size);
        self.slab_cursor = Some((slab + cs, slab + self.config.slab_size));
        Some(slab)
    }

    fn acquire(&mut self, group: usize) -> Option<u64> {
        let cs = self.group_cfg[group].chunk_size;
        let (base, high_water) = if let Some(i) = self.spare.iter().position(|s| s.size == cs) {
            let s = self.spare.remove(i);
            self.stats.chunks_reused += 1;
            let dirty = dirty_bytes(s.base, s.high_water);
            if s.owner != group {
                self.group_usage[s.owner].resident -= dirty;
                self.group_usage[group].resident += dirty;
            }
            (s.base, s.high_water)
        } else if let Some(i) = self.clean.iter().position(|&(_, size)| size == cs) {
            self.stats.chunks_reused += 1;
            let (base, _) = self.clean.remove(i);
            (base, base)
        } else {
            let base = self.carve(cs)?;
            self.stats.chunks_created += 1;
            (base, base)
        };
        let fresh = RefChunk {
            group,
            bump: base,
            end: base + cs,
            live_regions: 0,
            high_water,
            shards: HashMap::new(),
        };
        self.chunks.insert(base, fresh);
        self.current[group] = Some(base);
        Some(base)
    }

    fn region_allocated(&mut self, group: usize, ptr: u64, size: u64) {
        self.region_sizes.insert(ptr, size);
        self.usage.live += size;
        self.group_usage[group].live += size;
        self.stats.grouped_allocs += 1;
        self.note(group);
    }

    fn note(&mut self, group: usize) {
        self.usage.note();
        self.group_usage[group].note();
    }

    fn group_malloc(&mut self, group: usize, size: u64) -> Option<u64> {
        let cfg = self.group_cfg[group];
        let rounded = rounded(size);
        if cfg.reuse_policy == ReusePolicy::ShardedFreeLists {
            let current = self.current[group].and_then(|base| self.chunks.get_mut(&base));
            if let Some(chunk) = current {
                if let Some(ptr) = chunk.shards.get_mut(&rounded).and_then(Vec::pop) {
                    chunk.live_regions += 1;
                    self.region_allocated(group, ptr, size);
                    return Some(ptr);
                }
            }
        }
        let base = match self.current[group] {
            Some(base) if self.chunks[&base].bump + rounded <= self.chunks[&base].end => base,
            _ => self.acquire(group)?,
        };
        let c = self.chunks.get_mut(&base).expect("current chunk is in use");
        let ptr = c.bump;
        c.bump += rounded;
        c.live_regions += 1;
        if c.bump > c.high_water {
            let grown = dirty_bytes(base, c.bump) - dirty_bytes(base, c.high_water);
            c.high_water = c.bump;
            self.usage.resident += grown;
            self.group_usage[group].resident += grown;
        }
        self.region_allocated(group, ptr, size);
        Some(ptr)
    }

    fn malloc(&mut self, size: u64, group: Option<usize>) -> u64 {
        if let Some(group) = group.filter(|_| size < self.config.max_grouped_size) {
            // A zero-byte request is a one-byte region, as in the fallback.
            let size = size.max(1);
            if rounded(size) <= self.group_cfg[group].chunk_size {
                if let Some(ptr) = self.group_malloc(group, size) {
                    return ptr;
                }
                unreachable!("the reference runs without faults or span exhaustion");
            }
        }
        self.stats.fallback_allocs += 1;
        self.fallback.malloc(size)
    }

    fn group_free(&mut self, ptr: u64) {
        let Some(size) = self.region_sizes.remove(&ptr) else {
            self.invalid_frees += 1;
            return;
        };
        let (&base, chunk) =
            self.chunks.range_mut(..=ptr).next_back().expect("a live region has a chunk");
        assert!(ptr < chunk.end, "a live region lies inside its chunk");
        let group = chunk.group;
        let cfg = self.group_cfg[group];
        self.usage.live -= size;
        self.group_usage[group].live -= size;
        self.stats.grouped_frees += 1;
        chunk.live_regions -= 1;
        if chunk.live_regions > 0 {
            if cfg.reuse_policy == ReusePolicy::ShardedFreeLists {
                chunk.shards.entry(rounded(size)).or_default().push(ptr);
            }
            self.note(group);
            return;
        }
        if self.current[group] == Some(base) {
            chunk.bump = base;
            chunk.shards.clear();
            self.stats.chunks_reused += 1;
            self.note(group);
            return;
        }
        let chunk = self.chunks.remove(&base).expect("just seen");
        let emptied =
            RefSpare { base, high_water: chunk.high_water, size: chunk.end - base, owner: group };
        self.spare.push(emptied);
        while self.spare.iter().filter(|s| s.owner == group).count() > cfg.max_spare_chunks {
            let i = self.spare.iter().position(|s| s.owner == group).expect("counted above");
            let s = self.spare.remove(i);
            let dirty = dirty_bytes(s.base, s.high_water);
            self.usage.resident -= dirty;
            self.group_usage[group].resident -= dirty;
            self.clean.push((s.base, s.size));
            self.stats.chunks_purged += 1;
        }
        self.note(group);
    }

    fn free(&mut self, ptr: u64) {
        if self.is_group_allocated(ptr) {
            self.group_free(ptr);
        } else if self.fallback.free(ptr) {
            self.stats.fallback_frees += 1;
        } else {
            self.invalid_frees += 1;
        }
    }

    fn realloc(&mut self, ptr: u64, size: u64, group: Option<usize>) -> u64 {
        if self.is_group_allocated(ptr) {
            let newp = self.malloc(size, group);
            self.group_free(ptr);
            newp
        } else {
            self.fallback.realloc(ptr, size)
        }
    }

    fn live_bytes(&self) -> u64 {
        self.usage.live + self.fallback.live_bytes
    }

    fn live_objects(&self) -> usize {
        self.region_sizes.len() + self.fallback.slots.len()
    }
}

// --- request streams --------------------------------------------------------

fn two_group_table() -> SelectorTable {
    SelectorTable::new(
        vec![
            GroupSelector { group: 0, conjunctions: vec![vec![0]] },
            GroupSelector { group: 1, conjunctions: vec![vec![1]] },
        ],
        2,
    )
}

const SLAB: u64 = 16384 * 4;

/// The allocator-wide configuration of a case: tiny chunks, and the
/// grouped-size cap either at its object-granularity default or lifted the
/// way page granularity lifts it.
fn global_config(rng: &mut SplitMix64) -> GroupAllocConfig {
    GroupAllocConfig {
        chunk_size: 8192,
        max_spare_chunks: 1,
        max_grouped_size: if rng.next_below(3) == 0 { u64::MAX } else { 4096 },
        slab_size: SLAB,
        ..GroupAllocConfig::default()
    }
}

/// A random per-group plan set: chunk sizes from one page to a quarter
/// slab, every spare budget, both reuse policies.
fn plan_set(rng: &mut SplitMix64, global: GroupAllocConfig) -> Vec<GroupAllocConfig> {
    (0..rng.next_below(3))
        .map(|_| GroupAllocConfig {
            chunk_size: [4096, 8192, 16384][rng.next_below(3) as usize],
            max_spare_chunks: [0, 1, 2, usize::MAX][rng.next_below(4) as usize],
            reuse_policy: if rng.next_below(3) == 0 {
                ReusePolicy::ShardedFreeLists
            } else {
                ReusePolicy::Bump
            },
            ..global
        })
        .collect()
}

/// Request sizes: mostly small, some around a page and a chunk (which the
/// lifted cap groups and the default cap forwards), a few on the fallback's
/// large path, the odd zero.
fn request_size(rng: &mut SplitMix64) -> u64 {
    match rng.next_below(16) {
        0 => 0,
        1..=9 => 1 + rng.next_below(256),
        10 | 11 => 2040 + rng.next_below(16),
        12 => 4090 + rng.next_below(12),
        13 => [4096, 8192, 16384][rng.next_below(3) as usize] - rng.next_below(2) * 8,
        14 => 8185 + rng.next_below(16),
        _ => SMALL_MAX - 8 + rng.next_below(6000),
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Malloc {
        size: u64,
        group: Option<usize>,
    },
    /// Free the live pointer at this index (modulo the live count).
    Free(u64),
    Realloc {
        index: u64,
        size: u64,
        group: Option<usize>,
    },
    /// Free again a pointer freed earlier.
    DoubleFree(u64),
    /// Free an address inside (or just off) a live region.
    InteriorFree {
        index: u64,
        delta: u64,
    },
    /// Free an address nothing ever handed out.
    WildFree(u64),
    InstallPlan(u64),
    Thread(u16),
}

fn random_group(rng: &mut SplitMix64) -> Option<usize> {
    let g = rng.next_below(3) as usize;
    (g < 2).then_some(g)
}

fn random_op(rng: &mut SplitMix64) -> Op {
    match rng.next_below(32) {
        0..=12 => Op::Malloc { size: request_size(rng), group: random_group(rng) },
        13..=21 => Op::Free(rng.next_u64()),
        22 | 23 => {
            Op::Realloc { index: rng.next_u64(), size: request_size(rng), group: random_group(rng) }
        }
        24 | 25 => Op::DoubleFree(rng.next_u64()),
        26 | 27 => Op::InteriorFree {
            index: rng.next_u64(),
            delta: [1, 4, 8, 16, 4096, 8192][rng.next_below(6) as usize],
        },
        28 => Op::WildFree(rng.next_u64()),
        29 => Op::InstallPlan(rng.next_u64()),
        _ => Op::Thread(rng.next_below(6) as u16),
    }
}

fn group_state(group: Option<usize>) -> GroupState {
    let mut gs = GroupState::new(2);
    if let Some(g) = group {
        gs.set(g as u16);
    }
    gs
}

/// Addresses nothing hands out: null, below every range, inside the
/// fallback's and the slabs' address ranges but beyond anything reserved,
/// and in the gap between the two.
fn wild_address(raw: u64, base: u64) -> u64 {
    match raw % 5 {
        0 => 0,
        1 => 0x1000 + (raw >> 8) % 4096,
        2 => SizeClassAllocator::DEFAULT_BASE + (1 << 33) + ((raw >> 8) % (1 << 20)) * 8,
        3 => base + (1 << 30) + ((raw >> 8) % (1 << 20)) * 8,
        _ => base - 4096 + (raw >> 8) % 4096,
    }
}

// --- the three shipped allocators, each against its reference ---------------

/// What the driver needs from a side under test.
trait Side {
    fn malloc(&mut self, size: u64, group: Option<usize>) -> u64;
    fn free(&mut self, ptr: u64);
    fn realloc(&mut self, ptr: u64, size: u64, group: Option<usize>) -> u64;
    fn install(&mut self, overrides: &[GroupAllocConfig]);
    fn thread(&mut self, logical: u16);
    /// Everything compared after every request.
    fn observe(&mut self) -> Observed;
}

#[derive(Debug, PartialEq)]
struct Observed {
    stats: GroupAllocStats,
    frag: FragReport,
    group_frag: Vec<FragReport>,
    live_bytes: u64,
    live_objects: usize,
    invalid_frees: u64,
    remote_pending: usize,
}

struct ShippedGroup {
    alloc: HaloGroupAllocator,
    mem: Memory,
}

impl Side for ShippedGroup {
    fn malloc(&mut self, size: u64, group: Option<usize>) -> u64 {
        self.alloc.malloc(size, site(), &group_state(group), &mut self.mem)
    }
    fn free(&mut self, ptr: u64) {
        self.alloc.free(ptr, &mut self.mem);
    }
    fn realloc(&mut self, ptr: u64, size: u64, group: Option<usize>) -> u64 {
        self.alloc.realloc(ptr, size, site(), &group_state(group), &mut self.mem)
    }
    fn install(&mut self, overrides: &[GroupAllocConfig]) {
        self.alloc.install_plan(two_group_table(), overrides.to_vec());
    }
    fn thread(&mut self, _logical: u16) {}
    fn observe(&mut self) -> Observed {
        self.alloc.check_invariants().expect("shipped allocator invariants");
        Observed {
            stats: self.alloc.stats(),
            frag: self.alloc.frag_report(),
            group_frag: self.alloc.group_frag_reports(),
            live_bytes: self.alloc.live_bytes(),
            live_objects: self.alloc.live_objects(),
            invalid_frees: self.alloc.degrade_stats().invalid_frees,
            remote_pending: 0,
        }
    }
}

impl Side for RefGroup {
    fn malloc(&mut self, size: u64, group: Option<usize>) -> u64 {
        RefGroup::malloc(self, size, group)
    }
    fn free(&mut self, ptr: u64) {
        RefGroup::free(self, ptr);
    }
    fn realloc(&mut self, ptr: u64, size: u64, group: Option<usize>) -> u64 {
        RefGroup::realloc(self, ptr, size, group)
    }
    fn install(&mut self, overrides: &[GroupAllocConfig]) {
        self.install_plan(overrides);
    }
    fn thread(&mut self, _logical: u16) {}
    fn observe(&mut self) -> Observed {
        Observed {
            stats: self.stats,
            frag: self.usage.frag,
            group_frag: self.group_usage.iter().map(|u| u.frag).collect(),
            live_bytes: self.live_bytes(),
            live_objects: self.live_objects(),
            invalid_frees: self.invalid_frees,
            remote_pending: 0,
        }
    }
}

struct ShippedSharded {
    alloc: ShardedHaloAllocator,
    mem: Memory,
}

impl Side for ShippedSharded {
    fn malloc(&mut self, size: u64, group: Option<usize>) -> u64 {
        SyncVmAllocator::malloc(&self.alloc, size, site(), &group_state(group), &mut self.mem)
    }
    fn free(&mut self, ptr: u64) {
        SyncVmAllocator::free(&self.alloc, ptr, &mut self.mem);
    }
    fn realloc(&mut self, ptr: u64, size: u64, group: Option<usize>) -> u64 {
        let gs = group_state(group);
        SyncVmAllocator::realloc(&self.alloc, ptr, size, site(), &gs, &mut self.mem)
    }
    fn install(&mut self, overrides: &[GroupAllocConfig]) {
        self.alloc.swap_plans(two_group_table(), overrides.to_vec());
    }
    fn thread(&mut self, logical: u16) {
        SyncVmAllocator::thread_switched(&self.alloc, logical);
    }
    fn observe(&mut self) -> Observed {
        Observed {
            stats: self.alloc.stats(),
            frag: self.alloc.frag_report(),
            group_frag: self.alloc.group_frag_reports(),
            live_bytes: self.alloc.live_bytes(),
            live_objects: self.alloc.live_objects(),
            invalid_frees: self.alloc.degrade_stats().invalid_frees,
            remote_pending: self.alloc.remote_pending(),
        }
    }
}

/// The sharded runtime over reference shards: address-arithmetic ownership,
/// a remote queue per shard that its owner drains on entry.
struct RefSharded {
    shards: Vec<RefGroup>,
    queues: Vec<Vec<u64>>,
    logical: usize,
    foreign_frees: u64,
}

const FALLBACK_STRIDE: u64 = 1 << 34;

impl RefSharded {
    fn new(n: usize, config: GroupAllocConfig, overrides: &[GroupAllocConfig]) -> Self {
        let shards = (0..n as u64)
            .map(|i| {
                let slab_base = HaloGroupAllocator::SLAB_BASE + i * GROUP_SHARD_STRIDE;
                let fallback = RefSizeClass::new(
                    SizeClassAllocator::DEFAULT_BASE + i * FALLBACK_STRIDE,
                    FALLBACK_STRIDE,
                );
                RefGroup::new(config, slab_base, overrides, fallback)
            })
            .collect();
        RefSharded { shards, queues: vec![Vec::new(); n], logical: 0, foreign_frees: 0 }
    }

    fn current(&self) -> usize {
        self.logical % self.shards.len()
    }

    fn owner_of(&self, ptr: u64) -> Option<usize> {
        let n = self.shards.len() as u64;
        let (slab_base, fallback_base) =
            (HaloGroupAllocator::SLAB_BASE, SizeClassAllocator::DEFAULT_BASE);
        if (slab_base..slab_base + n * GROUP_SHARD_STRIDE).contains(&ptr) {
            Some(((ptr - slab_base) / GROUP_SHARD_STRIDE) as usize)
        } else if (fallback_base..fallback_base + n * FALLBACK_STRIDE).contains(&ptr) {
            Some(((ptr - fallback_base) / FALLBACK_STRIDE) as usize)
        } else {
            None
        }
    }

    fn enter(&mut self, s: usize) -> &mut RefGroup {
        for ptr in std::mem::take(&mut self.queues[s]) {
            self.shards[s].free(ptr);
        }
        &mut self.shards[s]
    }
}

impl Side for RefSharded {
    fn malloc(&mut self, size: u64, group: Option<usize>) -> u64 {
        let s = self.current();
        self.enter(s).malloc(size, group)
    }
    fn free(&mut self, ptr: u64) {
        match self.owner_of(ptr) {
            None => self.foreign_frees += 1,
            Some(owner) if owner == self.current() => self.enter(owner).free(ptr),
            Some(owner) => self.queues[owner].push(ptr),
        }
    }
    fn realloc(&mut self, ptr: u64, size: u64, group: Option<usize>) -> u64 {
        match self.owner_of(ptr) {
            Some(owner) => self.enter(owner).realloc(ptr, size, group),
            None => {
                self.foreign_frees += 1;
                self.malloc(size, group)
            }
        }
    }
    fn install(&mut self, overrides: &[GroupAllocConfig]) {
        for shard in &mut self.shards {
            shard.install_plan(overrides);
        }
    }
    fn thread(&mut self, logical: u16) {
        self.logical = usize::from(logical);
    }
    fn observe(&mut self) -> Observed {
        let mut stats = GroupAllocStats::default();
        let mut frag = FragReport::default();
        let mut group_frag = vec![FragReport::default(); 2];
        let add = |total: &mut FragReport, r: FragReport| {
            total.peak_resident_bytes += r.peak_resident_bytes;
            total.live_at_peak_bytes += r.live_at_peak_bytes;
        };
        for shard in &self.shards {
            stats.grouped_allocs += shard.stats.grouped_allocs;
            stats.fallback_allocs += shard.stats.fallback_allocs;
            stats.grouped_frees += shard.stats.grouped_frees;
            stats.fallback_frees += shard.stats.fallback_frees;
            stats.chunks_created += shard.stats.chunks_created;
            stats.chunks_reused += shard.stats.chunks_reused;
            stats.chunks_purged += shard.stats.chunks_purged;
            add(&mut frag, shard.usage.frag);
            for (total, u) in group_frag.iter_mut().zip(&shard.group_usage) {
                add(total, u.frag);
            }
        }
        Observed {
            stats,
            frag,
            group_frag,
            live_bytes: self.shards.iter().map(RefGroup::live_bytes).sum(),
            live_objects: self.shards.iter().map(RefGroup::live_objects).sum(),
            invalid_frees: self.foreign_frees
                + self.shards.iter().map(|s| s.invalid_frees).sum::<u64>(),
            remote_pending: self.queues.iter().map(Vec::len).sum(),
        }
    }
}

/// Replay one stream through both sides.
fn drive(
    seed: u64,
    base: u64,
    plans: &[Vec<GroupAllocConfig>],
    shipped: &mut dyn Side,
    oracle: &mut dyn Side,
) {
    let mut rng = SplitMix64::new(seed ^ 0x5eed);
    let mut live: Vec<u64> = Vec::new();
    let mut freed: Vec<u64> = Vec::new();
    let steps = 200 + rng.next_below(600);
    for step in 0..steps {
        let op = random_op(&mut rng);
        let at = |what: &str| format!("seed {seed} step {step} {op:?}: {what}");
        match op {
            Op::Malloc { size, group } => {
                let (got, want) = (shipped.malloc(size, group), oracle.malloc(size, group));
                assert_eq!(got, want, "{}", at("malloc"));
                live.push(got);
            }
            Op::Free(index) if !live.is_empty() => {
                let ptr = live.swap_remove((index % live.len() as u64) as usize);
                shipped.free(ptr);
                oracle.free(ptr);
                freed.push(ptr);
            }
            Op::Realloc { index, size, group } if !live.is_empty() => {
                let slot = (index % live.len() as u64) as usize;
                let (got, want) = (
                    shipped.realloc(live[slot], size, group),
                    oracle.realloc(live[slot], size, group),
                );
                assert_eq!(got, want, "{}", at("realloc"));
                freed.push(std::mem::replace(&mut live[slot], got));
            }
            // A freed address that has since been handed out again is a
            // live pointer, not a double free.
            Op::DoubleFree(index) if !freed.is_empty() => {
                let ptr = freed[(index % freed.len() as u64) as usize];
                if !live.contains(&ptr) {
                    shipped.free(ptr);
                    oracle.free(ptr);
                }
            }
            Op::InteriorFree { index, delta } if !live.is_empty() => {
                let ptr = live[(index % live.len() as u64) as usize] + delta;
                if !live.contains(&ptr) {
                    shipped.free(ptr);
                    oracle.free(ptr);
                }
            }
            Op::WildFree(raw) => {
                let ptr = wild_address(raw, base);
                shipped.free(ptr);
                oracle.free(ptr);
            }
            Op::InstallPlan(pick) => {
                let plan = &plans[(pick % plans.len() as u64) as usize];
                shipped.install(plan);
                oracle.install(plan);
            }
            Op::Thread(logical) => {
                shipped.thread(logical);
                oracle.thread(logical);
            }
            _ => continue,
        }
        assert_eq!(shipped.observe(), oracle.observe(), "{}", at("state after the request"));
    }
    // Tear down in a scrambled order, then once more for good measure.
    while !live.is_empty() {
        let ptr = live.swap_remove(rng.next_below(live.len() as u64) as usize);
        shipped.free(ptr);
        oracle.free(ptr);
        shipped.free(ptr);
        oracle.free(ptr);
    }
}

fn case_plans(rng: &mut SplitMix64, global: GroupAllocConfig) -> Vec<Vec<GroupAllocConfig>> {
    (0..4).map(|_| plan_set(rng, global)).collect()
}

#[test]
fn group_allocator_matches_the_hashed_reference() {
    for seed in 0..cases(48) {
        let mut rng = SplitMix64::new(seed);
        let global = global_config(&mut rng);
        let plans = case_plans(&mut rng, global);
        let mut shipped = ShippedGroup {
            alloc: HaloGroupAllocator::with_group_configs(
                global,
                two_group_table(),
                plans[0].clone(),
            ),
            mem: Memory::new(),
        };
        let fallback = RefSizeClass::new(SizeClassAllocator::DEFAULT_BASE, 1 << 38);
        let mut oracle = RefGroup::new(global, HaloGroupAllocator::SLAB_BASE, &plans[0], fallback);
        drive(seed, HaloGroupAllocator::SLAB_BASE, &plans, &mut shipped, &mut oracle);
        assert_eq!(shipped.observe(), oracle.observe(), "seed {seed}: after teardown");
        assert_eq!(shipped.alloc.live_objects(), 0, "seed {seed}");
    }
}

#[test]
fn sharded_allocator_matches_reference_shards() {
    for shards in [1, 4] {
        for seed in 0..cases(48) {
            let mut rng = SplitMix64::new(seed ^ (shards as u64) << 32);
            let global = global_config(&mut rng);
            let plans = case_plans(&mut rng, global);
            let alloc =
                ShardedHaloAllocator::new(shards, global, two_group_table(), plans[0].clone());
            let mut shipped = ShippedSharded { alloc, mem: Memory::new() };
            let mut oracle = RefSharded::new(shards, global, &plans[0]);
            drive(seed, HaloGroupAllocator::SLAB_BASE, &plans, &mut shipped, &mut oracle);
            shipped.alloc.drain_remote(&mut shipped.mem);
            for s in 0..shards {
                oracle.enter(s);
            }
            let at = format!("{shards} shards seed {seed}: after the join-time flush");
            assert_eq!(shipped.observe(), oracle.observe(), "{at}");
            assert_eq!(shipped.alloc.live_objects(), 0, "{at}");
            let stats = shipped.alloc.sharded_stats();
            assert_eq!(stats.remote_frees, stats.remote_drained, "{at}");
        }
    }
}

/// The size-class allocator on its own, where the stream can lean on what
/// the grouped runs only brush: every class, slot reuse order across runs,
/// in-place realloc, the large path.
#[test]
fn size_class_allocator_matches_the_hashed_reference() {
    let gs = GroupState::default();
    for seed in 0..cases(48) {
        let mut rng = SplitMix64::new(seed ^ 0xc1a55);
        let base = SizeClassAllocator::DEFAULT_BASE + rng.next_below(3) * 0x808;
        let mut shipped = SizeClassAllocator::with_base(base);
        let mut oracle = RefSizeClass::new(base, 1 << 38);
        let mut mem = Memory::new();
        let mut live: Vec<u64> = Vec::new();
        let mut freed: Vec<u64> = Vec::new();
        let size = |rng: &mut SplitMix64| match rng.next_below(8) {
            0..=4 => rng.next_below(300),
            5 => {
                SIZE_CLASSES[rng.next_below(SIZE_CLASSES.len() as u64) as usize] + rng.next_below(2)
            }
            6 => rng.next_below(SMALL_MAX + 2),
            _ => SMALL_MAX + rng.next_below(40_000),
        };
        for step in 0..400 + rng.next_below(1200) {
            let at = format!("seed {seed} step {step}");
            match rng.next_below(16) {
                0..=6 => {
                    let n = size(&mut rng);
                    let got = shipped.malloc(n, site(), &gs, &mut mem);
                    assert_eq!(got, oracle.malloc(n), "{at}: malloc({n})");
                    live.push(got);
                }
                7..=11 if !live.is_empty() => {
                    let ptr = live.swap_remove(rng.next_below(live.len() as u64) as usize);
                    shipped.free(ptr, &mut mem);
                    assert!(oracle.free(ptr), "{at}: the driver frees live pointers");
                    freed.push(ptr);
                }
                12 | 13 if !live.is_empty() => {
                    let slot = rng.next_below(live.len() as u64) as usize;
                    let n = size(&mut rng);
                    let got = shipped.realloc(live[slot], n, site(), &gs, &mut mem);
                    assert_eq!(got, oracle.realloc(live[slot], n), "{at}: realloc to {n}");
                    freed.push(std::mem::replace(&mut live[slot], got));
                }
                14 if !freed.is_empty() => {
                    let ptr = freed[rng.next_below(freed.len() as u64) as usize];
                    if !live.contains(&ptr) {
                        shipped.free(ptr, &mut mem);
                        assert!(!oracle.free(ptr), "{at}: double free");
                    }
                }
                15 if !live.is_empty() => {
                    let delta = [1, 8, 48, PAGE_SIZE][rng.next_below(4) as usize];
                    let ptr = live[rng.next_below(live.len() as u64) as usize] + delta;
                    if !live.contains(&ptr) {
                        shipped.free(ptr, &mut mem);
                        assert!(!oracle.free(ptr), "{at}: interior free");
                    }
                }
                _ => continue,
            }
            assert_eq!(shipped.live_bytes(), oracle.live_bytes, "{at}");
            assert_eq!(shipped.live_objects(), oracle.slots.len(), "{at}");
            if let Some(&probe) = live.last() {
                assert_eq!(shipped.usable_size(probe), oracle.usable_size(probe), "{at}");
                assert_eq!(shipped.usable_size(probe + 8), oracle.usable_size(probe + 8), "{at}");
            }
        }
    }
}
