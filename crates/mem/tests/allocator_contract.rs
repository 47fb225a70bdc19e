//! The allocator contract, one body over every allocator (DESIGN.md §6).
//!
//! Whatever sits behind `halo_vm::VmAllocator` answers the same questions
//! the same way — this is the oracle an adversarial `malloc`/`free`/
//! `realloc` sequence search (ROADMAP direction 1(b)) will be pointed at:
//!
//! * **One size reader.** `live_size(p)` is the size that was *requested*
//!   for the live region starting exactly at `p`, and `None` for a freed
//!   pointer, `p + 1`, `p + 8`, one past the end, and wild addresses —
//!   unless that address happens to start another live region.
//! * **Zero bytes is one byte.** `malloc(0)` returns a live region of its
//!   own that reads back as size 1 and counts one live byte.
//! * **`realloc` is a move** of `min(old, new)` requested bytes and never
//!   more: the slack between a region's requested size and its granule is
//!   poisoned before every call and must not travel.
//! * **`realloc` of a non-live pointer is a `malloc`** and lowers no live
//!   count.
//! * **A `realloc` that cannot be served returns 0** and leaves the old
//!   region live and readable.
//!
//! A seeded stream drives each allocator against a `BTreeMap` model of the
//! live set; regions are filled with a per-allocation byte pattern so any
//! lost, torn or over-long copy shows.

use halo_mem::{
    AllocatorStats, BoundaryTagAllocator, GroupAllocConfig, GroupSelector, HaloGroupAllocator,
    RandomGroupAllocator, SelectorTable, ShardedHaloAllocator, SizeClassAllocator,
};
use halo_vm::{
    CallSite, FuncId, GroupState, MallocOnlyAllocator, Memory, SplitMix64, VmAllocator, PAGE_SIZE,
};
use std::collections::{BTreeMap, HashMap};

/// Written into a region's slack (requested size up to the next 8-byte
/// granule, which every allocator here leaves to the region) just before
/// a `realloc`, and nowhere else: pattern bytes stay below it, so a
/// poisoned byte in a new region is an over-long copy, not stale data.
const POISON: u8 = 0xFE;

/// No allocator here has a span this large: a request for it cannot be
/// served.
const UNSERVABLE: u64 = 1 << 40;

fn site(n: u32) -> CallSite {
    CallSite::new(FuncId(0), n)
}

fn round8(size: u64) -> u64 {
    size.next_multiple_of(8)
}

fn pattern(tag: u64, i: u64) -> u8 {
    1 + ((tag.wrapping_mul(31).wrapping_add(i.wrapping_mul(7))) % 0xEF) as u8
}

/// Fill `[ptr, ptr + size)` with `tag`'s pattern and clear the slack.
fn fill(mem: &mut Memory, ptr: u64, size: u64, tag: u64) {
    let bytes: Vec<u8> = (0..size).map(|i| pattern(tag, i)).collect();
    mem.write_bytes(ptr, &bytes);
    mem.zero(ptr + size, round8(size) - size);
}

fn bytes_at(mem: &Memory, ptr: u64, len: u64) -> Vec<u8> {
    let mut buf = vec![0; len as usize];
    mem.read_bytes(ptr, &mut buf);
    buf
}

fn assert_pattern(mem: &Memory, ptr: u64, len: u64, tag: u64, what: &str) {
    let want: Vec<u8> = (0..len).map(|i| pattern(tag, i)).collect();
    assert_eq!(bytes_at(mem, ptr, len), want, "{what}: bytes of region {ptr:#x}");
}

fn random_size(rng: &mut SplitMix64) -> u64 {
    match rng.next_below(100) {
        0..=69 => 1 + rng.next_below(256),
        70..=84 => 257 + rng.next_below(PAGE_SIZE - 257),
        // At or above a page: the group and random allocators' fallback.
        85..=94 => PAGE_SIZE + rng.next_below(5_000),
        // Past the size classes: the baseline's large path.
        _ => 15_000 + rng.next_below(25_000),
    }
}

/// The stream's view of the heap: live regions by address, and addresses
/// that were live once.
#[derive(Default)]
struct Model {
    /// `ptr → (requested size, pattern tag)`.
    live: BTreeMap<u64, (u64, u64)>,
    dead: Vec<u64>,
    next_tag: u64,
}

impl Model {
    fn size_at(&self, addr: u64) -> Option<u64> {
        self.live.get(&addr).map(|&(size, _)| size)
    }

    /// Enter a region the allocator just handed out, checking it overlaps
    /// no live one, and fill it.
    fn admit(&mut self, mem: &mut Memory, ptr: u64, size: u64, what: &str) {
        assert!(ptr != 0 && ptr.is_multiple_of(8), "{what}: bad pointer {ptr:#x}");
        if let Some((&prev, &(prev_size, _))) = self.live.range(..=ptr).next_back() {
            assert!(prev + prev_size <= ptr, "{what}: {ptr:#x} lies inside live {prev:#x}");
        }
        if let Some((&next, _)) = self.live.range(ptr..).next() {
            assert!(ptr + size <= next, "{what}: {ptr:#x}+{size} runs into live {next:#x}");
        }
        self.next_tag += 1;
        fill(mem, ptr, size, self.next_tag);
        self.live.insert(ptr, (size, self.next_tag));
    }

    fn retire(&mut self, ptr: u64) -> (u64, u64) {
        self.dead.push(ptr);
        self.live.remove(&ptr).expect("the stream only retires live pointers")
    }

    fn pick_live(&self, rng: &mut SplitMix64) -> Option<u64> {
        let n = rng.next_below(self.live.len().max(1) as u64) as usize;
        self.live.keys().nth(n).copied()
    }

    /// An address with no live region starting at it: once-live, interior,
    /// misaligned, past the end, or wild.
    fn pick_non_live(&self, rng: &mut SplitMix64) -> u64 {
        let near = self.pick_live(rng).map(|p| (p, self.live[&p].0));
        let candidates = [
            self.dead.get(rng.next_below(self.dead.len().max(1) as u64) as usize).copied(),
            near.map(|(p, _)| p + 1),
            near.map(|(p, _)| p + 8),
            near.map(|(p, size)| p + size),
            Some(0x1000),
        ];
        let start = rng.next_below(candidates.len() as u64) as usize;
        (0..candidates.len())
            .filter_map(|i| candidates[(start + i) % candidates.len()])
            .find(|a| !self.live.contains_key(a))
            .expect("0x1000 is never live")
    }

    /// Every live region reads back its requested size and its bytes; every
    /// nearby, once-live and wild address reads as what the model holds
    /// there — `None`, unless another region starts exactly on it.
    fn check_reader<A: VmAllocator + ?Sized>(&self, alloc: &A, mem: &Memory, what: &str) {
        for (&ptr, &(size, tag)) in &self.live {
            assert_eq!(alloc.live_size(ptr), Some(size), "{what}: live {ptr:#x}");
            assert_pattern(mem, ptr, size, tag, what);
            for probe in [ptr + 1, ptr + 8, ptr + size, ptr + round8(size)] {
                assert_eq!(alloc.live_size(probe), self.size_at(probe), "{what}: probe {probe:#x}");
            }
        }
        let wild = [8, 0x1000, 0x7fff_ffff_fff8, u64::MAX - 7, u64::MAX];
        for &addr in self.dead.iter().chain(&wild) {
            assert_eq!(alloc.live_size(addr), self.size_at(addr), "{what}: dead/wild {addr:#x}");
        }
    }
}

/// The contract, over `alloc`. `observe` sees the allocator at every full
/// check (the sharded cases watch their remote queues through it).
fn check_contract<A: VmAllocator + AllocatorStats>(
    name: &str,
    mut alloc: A,
    seed: u64,
    mut observe: impl FnMut(&A),
) {
    let mut mem = Memory::new();
    let mut rng = SplitMix64::new(seed);
    let mut model = Model::default();
    // Bit 0 / bit 1 / neither, and three call sites: the selector and the
    // site allocators each route two thirds of the stream into groups.
    let route = |rng: &mut SplitMix64| {
        let k = rng.next_below(3);
        let mut gs = GroupState::new(2);
        if k < 2 {
            gs.set(k as u16);
        }
        (gs, site(k as u32))
    };

    for step in 0..3_000u64 {
        let what = format!("{name} seed {seed} step {step}");
        let (gs, at) = route(&mut rng);
        match rng.next_below(100) {
            0..=44 => {
                // One request in 32 asks for zero bytes: a one-byte region.
                let size = if rng.next_below(32) == 0 { 0 } else { random_size(&mut rng) };
                let ptr = alloc.malloc(size, at, &gs, &mut mem);
                model.admit(&mut mem, ptr, size.max(1), &what);
                assert_eq!(alloc.live_size(ptr), Some(size.max(1)), "{what}: fresh region");
            }
            45..=64 => {
                if let Some(ptr) = model.pick_live(&mut rng) {
                    alloc.free(ptr, &mut mem);
                    model.retire(ptr);
                    assert_eq!(alloc.live_size(ptr), None, "{what}: freed {ptr:#x}");
                }
            }
            65..=84 => {
                let Some(ptr) = model.pick_live(&mut rng) else { continue };
                let (old, tag) = model.live[&ptr];
                let new = random_size(&mut rng);
                mem.write_bytes(ptr + old, &vec![POISON; (round8(old) - old) as usize]);
                let newp = alloc.realloc(ptr, new, at, &gs, &mut mem);
                assert_ne!(newp, 0, "{what}: realloc {old} -> {new}");
                assert_eq!(alloc.live_size(newp), Some(new), "{what}: resized region");
                assert_pattern(&mem, newp, old.min(new), tag, &what);
                if newp != ptr {
                    assert_eq!(alloc.live_size(ptr), None, "{what}: moved-from {ptr:#x}");
                    let tail = bytes_at(&mem, newp + old.min(new), new - old.min(new));
                    assert!(!tail.contains(&POISON), "{what}: more than min(old, new) bytes moved");
                }
                model.retire(ptr);
                mem.zero(ptr + old, round8(old) - old);
                model.admit(&mut mem, newp, new, &what);
            }
            85..=92 => {
                // Not live: `realloc` is a `malloc`, and frees nothing.
                let stale = model.pick_non_live(&mut rng);
                let size = random_size(&mut rng);
                let ptr = alloc.realloc(stale, size, at, &gs, &mut mem);
                model.admit(&mut mem, ptr, size, &what);
                assert_eq!(alloc.live_size(ptr), Some(size), "{what}: realloc of non-live");
            }
            _ => alloc.thread_switched(rng.next_below(4) as u16),
        }
        if step % 64 == 63 {
            model.check_reader(&alloc, &mem, &what);
            observe(&alloc);
        }
    }

    // Quiesce (a sharded allocator applies its queued frees): the live
    // counts are now the model's.
    alloc.run_finished(&mut mem);
    let what = format!("{name} seed {seed} at rest");
    let live = |m: &Model| (m.live.len(), m.live.values().map(|&(size, _)| size).sum::<u64>());
    assert_eq!((alloc.live_objects(), alloc.live_bytes()), live(&model), "{what}");

    // A non-live `realloc` lowers no live count.
    for _ in 0..16 {
        let (gs, at) = route(&mut rng);
        let stale = model.pick_non_live(&mut rng);
        let ptr = alloc.realloc(stale, 24, at, &gs, &mut mem);
        model.admit(&mut mem, ptr, 24, &what);
        assert_eq!(alloc.live_objects(), model.live.len(), "{what}: realloc({stale:#x})");
    }

    // Growth that cannot be served: 0 comes back, nothing else changes.
    let victims: Vec<u64> = model.live.keys().copied().step_by(7).collect();
    for ptr in victims {
        let (gs, at) = route(&mut rng);
        assert_eq!(alloc.realloc(ptr, UNSERVABLE, at, &gs, &mut mem), 0, "{what}: {ptr:#x}");
    }
    let counts = (alloc.live_objects(), alloc.live_bytes());
    assert_eq!(counts, live(&model), "{what}: an unserved realloc freed its region");
    model.check_reader(&alloc, &mem, &what);
}

const SEEDS: [u64; 3] = [1, 0x5eed, 0xa11c_a7ed];

fn small_config() -> GroupAllocConfig {
    GroupAllocConfig { chunk_size: 65_536, slab_size: 65_536 * 64, ..GroupAllocConfig::default() }
}

fn two_group_table() -> SelectorTable {
    SelectorTable::new(
        vec![
            GroupSelector { group: 0, conjunctions: vec![vec![0]] },
            GroupSelector { group: 1, conjunctions: vec![vec![1]] },
        ],
        2,
    )
}

#[test]
fn size_class_allocator_honours_the_contract() {
    for seed in SEEDS {
        check_contract("size-class", SizeClassAllocator::new(), seed, |_| {});
    }
}

#[test]
fn boundary_tag_allocator_honours_the_contract() {
    for seed in SEEDS {
        check_contract("boundary-tag", BoundaryTagAllocator::new(), seed, |_| {});
    }
}

#[test]
fn bump_allocator_honours_the_contract() {
    for seed in SEEDS {
        check_contract("bump", MallocOnlyAllocator::new(), seed, |_| {});
    }
}

#[test]
fn random_group_allocator_honours_the_contract() {
    for seed in SEEDS {
        check_contract("random-group", RandomGroupAllocator::new(seed), seed, |_| {});
    }
}

#[test]
fn group_allocator_honours_the_contract_in_selector_and_site_mode() {
    for seed in SEEDS {
        let by_selector = HaloGroupAllocator::new(small_config(), two_group_table());
        check_contract("group/selectors", by_selector, seed, |a| {
            assert!(a.stats().grouped_allocs > 0 && a.stats().fallback_allocs > 0);
        });
        let sites = HashMap::from([(site(0), 0), (site(1), 1)]);
        let by_site = HaloGroupAllocator::with_site_groups(small_config(), sites);
        check_contract("group/sites", by_site, seed, |a| {
            assert!(a.stats().grouped_allocs > 0 && a.stats().fallback_allocs > 0);
        });
    }
}

#[test]
fn sharded_allocator_honours_the_contract_at_one_and_four_shards() {
    for seed in SEEDS {
        let one = ShardedHaloAllocator::new(1, small_config(), two_group_table(), Vec::new());
        check_contract("sharded/1", one, seed, |a| assert_eq!(a.remote_pending(), 0));
        // At four shards the reader is checked while remote frees sit in
        // their owners' queues: a queued free already reads as not live.
        let four = ShardedHaloAllocator::new(4, small_config(), two_group_table(), Vec::new());
        let mut checked_with_pending = 0;
        check_contract("sharded/4", four, seed, |a| {
            checked_with_pending += usize::from(a.remote_pending() > 0);
        });
        assert!(checked_with_pending > 0, "seed {seed}: no check saw a queued remote free");
    }
}
