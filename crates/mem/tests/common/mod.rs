//! What halo_mem's integration suites share: the allocator fixtures
//! (`fixtures.rs`, which the unit tests include too), the request stream,
//! the live-set model every suite checks an allocator against, and the
//! single- and multi-threaded streams built on it (`churn`, `Storm`).

// Each suite uses its own part.
#![allow(dead_code)]

use halo_mem::{
    AllocatorStats, GroupAllocConfig, GroupSelector, HaloGroupAllocator, SelectorTable,
    ShardedAllocStats, ShardedHaloAllocator,
};
use halo_vm::{GroupState, Memory, SplitMix64, SyncVmAllocator, VmAllocator};
use proptest::prelude::{ProptestConfig, TestRunner};
use std::collections::BTreeMap;
use std::sync::{mpsc, Mutex};

include!("fixtures.rs");

/// Cases per property loop; `HALO_PROPTEST_CASES` overrides `default`
/// through the proptest runner's own reader (an invalid value warns once
/// and falls back to `default`).
pub fn cases(default: u32) -> u64 {
    TestRunner::new(ProptestConfig::with_cases(default)).effective_cases().into()
}

/// Request `i` of a stream: group bit `i % 2` in `gs`, and a grouped size
/// of 16–192 bytes except every `cold_every`th request, 5000 bytes, above
/// the group cap so the fallback takes part.
pub fn request(i: u64, cold_every: u64, rng: &mut SplitMix64, gs: &mut GroupState) -> u64 {
    gs.reset();
    gs.set((i % 2) as u16);
    if i.is_multiple_of(cold_every) {
        5000
    } else {
        16 + rng.next_below(12) * 16
    }
}

/// The live-set model: the regions an allocator has handed out and not
/// had back, by address, each with its requested size and a payload `T`.
/// Ordered, so an operation that picks a region by index replays from
/// its seed.
pub struct LiveSet<T = ()> {
    regions: BTreeMap<u64, (u64, T)>,
}

impl<T> Default for LiveSet<T> {
    fn default() -> Self {
        LiveSet { regions: BTreeMap::new() }
    }
}

impl<T> LiveSet<T> {
    /// Enter `[ptr, ptr + size)` (zero bytes span one), panicking with
    /// `what` if it overlaps a live region: a double hand-out.
    pub fn admit(&mut self, ptr: u64, size: u64, payload: T, what: &str) {
        let size = size.max(1);
        if let Some((&prev, &(prev_size, _))) = self.regions.range(..=ptr).next_back() {
            assert!(prev + prev_size <= ptr, "{what}: {ptr:#x} lies inside live {prev:#x}");
        }
        if let Some((&next, _)) = self.regions.range(ptr..).next() {
            assert!(ptr + size <= next, "{what}: {ptr:#x}+{size} runs into live {next:#x}");
        }
        self.regions.insert(ptr, (size, payload));
    }

    /// Take `ptr` out, panicking if it was never handed out; its size and
    /// payload come back.
    pub fn retire(&mut self, ptr: u64) -> (u64, T) {
        self.regions.remove(&ptr).unwrap_or_else(|| panic!("{ptr:#x} was never handed out"))
    }

    /// A live region chosen by `rng`, if any.
    pub fn pick(&self, rng: &mut SplitMix64) -> Option<u64> {
        let n = rng.next_below(self.regions.len().max(1) as u64) as usize;
        self.regions.keys().nth(n).copied()
    }

    pub fn get(&self, ptr: u64) -> Option<&(u64, T)> {
        self.regions.get(&ptr)
    }

    pub fn iter(&self) -> impl Iterator<Item = (u64, &(u64, T))> {
        self.regions.iter().map(|(&ptr, region)| (ptr, region))
    }

    /// Live regions and live bytes, as `live_objects` / `live_bytes`
    /// count them.
    pub fn counts(&self) -> (usize, u64) {
        (self.regions.len(), self.regions.values().map(|&(size, _)| size).sum())
    }
}

/// A deterministic single-threaded churn of `n` requests from `seed`:
/// every third request also frees a random survivor, and at request
/// `n / 2` half the survivors are freed before `halfway` runs. The rest
/// are freed at the end and the allocator quiesced; the pointer stream
/// comes back.
pub fn churn<A: VmAllocator>(
    alloc: &mut A,
    n: u64,
    cold_every: u64,
    seed: u64,
    mut halfway: impl FnMut(&mut A),
) -> Vec<u64> {
    let mut mem = Memory::new();
    let mut gs = GroupState::new(2);
    let mut rng = SplitMix64::new(seed);
    let mut stream = Vec::new();
    let mut live = Vec::new();
    for i in 0..n {
        if i == n / 2 {
            for p in live.drain(..live.len() / 2) {
                alloc.free(p, &mut mem);
            }
            halfway(alloc);
        }
        let size = request(i, cold_every, &mut rng, &mut gs);
        let ptr = alloc.malloc(size, site(), &gs, &mut mem);
        stream.push(ptr);
        live.push(ptr);
        if i % 3 == 0 {
            let victim = live.swap_remove(rng.next_below(live.len() as u64) as usize);
            alloc.free(victim, &mut mem);
        }
    }
    for p in live {
        alloc.free(p, &mut mem);
    }
    alloc.run_finished(&mut mem);
    stream
}

/// Producer/consumer traffic over one sharded allocator.
pub struct Storm {
    pub producers: usize,
    pub consumers: usize,
    /// Requests per producer.
    pub mallocs: u64,
    /// See [`request`].
    pub cold_every: u64,
    /// Producer `p` draws its sizes from `seed + p`.
    pub seed: u64,
}

impl Storm {
    /// Run the storm: producer `p` sends each pointer it is served to
    /// consumer `p % consumers`, which frees it. The live set is the
    /// double-hand-out detector: a pointer enters it the moment the
    /// allocator returns it and leaves before its free is issued — a
    /// premature recycle inside that last window goes unflagged, the price
    /// of never flagging the legitimate recycle after a drain.
    /// `before(p, i)` runs ahead of producer `p`'s request `i`, and
    /// `freed(n)` after a consumer's `n`th free. Every pointer handed out
    /// is freed; the number of producers that panicked comes back.
    pub fn run(
        &self,
        alloc: &ShardedHaloAllocator,
        before: impl Fn(usize, u64) + Sync,
        freed: impl Fn(u64) + Sync,
    ) -> u64 {
        let live = Mutex::new(LiveSet::<()>::default());
        let (before, freed, live) = (&before, &freed, &live);
        let panicked = std::thread::scope(|scope| {
            let (senders, receivers): (Vec<_>, Vec<_>) =
                (0..self.consumers).map(|_| mpsc::channel::<u64>()).unzip();
            let producers: Vec<_> = (0..self.producers)
                .map(|p| {
                    let tx = senders[p % self.consumers].clone();
                    scope.spawn(move || {
                        let mut mem = Memory::new();
                        let mut gs = GroupState::new(2);
                        let mut rng = SplitMix64::new(self.seed + p as u64);
                        for i in 0..self.mallocs {
                            before(p, i);
                            let size = request(i, self.cold_every, &mut rng, &mut gs);
                            let ptr = SyncVmAllocator::malloc(alloc, size, site(), &gs, &mut mem);
                            assert_ne!(ptr, 0, "continued service: request {i} was refused");
                            live.lock().expect("live set").admit(ptr, size, (), "storm");
                            tx.send(ptr).expect("consumer alive");
                        }
                    })
                })
                .collect();
            drop(senders); // consumers stop when every producer has finished
            for rx in receivers {
                scope.spawn(move || {
                    let mut mem = Memory::new();
                    for (n, ptr) in (1..).zip(rx) {
                        live.lock().expect("live set").retire(ptr);
                        SyncVmAllocator::free(alloc, ptr, &mut mem);
                        freed(n);
                    }
                });
            }
            producers.into_iter().filter_map(|h| h.join().err()).count() as u64
        });
        assert_eq!(live.lock().expect("live set").counts().0, 0, "a pointer remained live");
        panicked
    }
}

/// The join-time flush after a storm of `total` requests: the owners
/// apply whatever is still queued, after which every queue is empty,
/// nothing is live anywhere — grouped pools and fallbacks alike — and
/// every request was allocated and freed exactly once.
pub fn assert_drains(alloc: &ShardedHaloAllocator, total: u64) {
    alloc.drain_remote(&mut Memory::new());
    assert_eq!(alloc.live_grouped_bytes(), 0, "grouped live bytes reach exactly zero");
    assert_eq!((alloc.live_objects(), alloc.live_bytes()), (0, 0), "nothing remains live");
    let stats = alloc.sharded_stats();
    assert_eq!(pending(stats), 0, "every queued free was applied");
    assert_eq!(stats.alloc.grouped_allocs + stats.alloc.fallback_allocs, total);
    assert_eq!(stats.alloc.grouped_frees + stats.alloc.fallback_frees, total);
}
