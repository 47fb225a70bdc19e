//! Cross-thread stress for [`ShardedHaloAllocator`]: N producer threads
//! allocate, M consumer threads free pointers they never allocated, and
//! the whole stream must come out exact — no pointer handed out twice
//! while live, every remote-free queue drained, and aggregate live bytes
//! exactly zero after the join.
//!
//! The live-set oracle is the double-hand-out detector: a pointer is
//! inserted into a shared set the moment the allocator returns it (insert
//! must find it absent) and removed by the consumer *before* the free is
//! issued. A shard recycling an address whose free was never issued trips
//! the insert assertion; the remove-before-free ordering does leave a
//! small window (between the consumer's remove and its free completing)
//! in which a premature recycle would go unflagged — the price of never
//! false-positive-ing on the legitimate recycle-after-drain path.

use halo_mem::{
    AllocatorStats, GroupAllocConfig, GroupSelector, HaloGroupAllocator, SelectorTable,
    ShardedHaloAllocator, GROUP_SHARD_STRIDE,
};
use halo_vm::{CallSite, FuncId, GroupState, Memory, SplitMix64, SyncVmAllocator};
use std::collections::HashSet;
use std::sync::mpsc;
use std::sync::Mutex;

const PRODUCERS: usize = 4;
const CONSUMERS: usize = 2;
const MALLOCS_PER_PRODUCER: u64 = 12_500; // ×4 producers ×(1 malloc + 1 free) = 100k ops

fn site() -> CallSite {
    CallSite::new(FuncId(0), 0)
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
fn producers_allocate_consumers_free_and_everything_drains() {
    let config = GroupAllocConfig {
        chunk_size: 65_536,
        slab_size: 65_536 * 64,
        ..GroupAllocConfig::default()
    };
    let alloc = ShardedHaloAllocator::new(4, config, two_group_table(), Vec::new());
    let live: Mutex<HashSet<u64>> = Mutex::new(HashSet::new());
    let freed = Mutex::new(0u64);

    std::thread::scope(|scope| {
        // Producer i feeds consumer i % CONSUMERS.
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..CONSUMERS).map(|_| mpsc::channel::<u64>()).unzip();
        for p in 0..PRODUCERS {
            let tx = senders[p % CONSUMERS].clone();
            let (alloc, live) = (&alloc, &live);
            scope.spawn(move || {
                let mut mem = Memory::new();
                let mut gs = GroupState::new(2);
                let mut rng = SplitMix64::new(p as u64 * 71 + 5);
                for i in 0..MALLOCS_PER_PRODUCER {
                    gs.reset();
                    gs.set((i % 2) as u16);
                    // Mostly grouped sizes, with a trickle of above-cap
                    // requests so the per-shard fallbacks shard too.
                    let size = if i % 97 == 0 { 5000 } else { 16 + rng.next_below(12) * 16 };
                    let ptr = alloc.malloc(size, site(), &gs, &mut mem);
                    assert!(
                        live.lock().expect("live set").insert(ptr),
                        "pointer {ptr:#x} handed out while still live (double hand-out)"
                    );
                    tx.send(ptr).expect("consumer alive");
                }
            });
        }
        drop(senders); // consumers stop when every producer has finished
        for rx in receivers {
            let (alloc, live, freed) = (&alloc, &live, &freed);
            scope.spawn(move || {
                let mut mem = Memory::new();
                let mut count = 0u64;
                for ptr in rx {
                    assert!(
                        live.lock().expect("live set").remove(&ptr),
                        "freeing a pointer that was never handed out"
                    );
                    alloc.free(ptr, &mut mem);
                    count += 1;
                    if count.is_multiple_of(256) {
                        // A snapshot taken mid-traffic reads each shard's
                        // queued and drained counts at one instant, so it
                        // never shows more frees applied than queued.
                        let s = alloc.sharded_stats();
                        assert!(s.remote_drained <= s.remote_frees, "torn snapshot: {s:?}");
                    }
                }
                *freed.lock().expect("freed count") += count;
            });
        }
    });

    let total = PRODUCERS as u64 * MALLOCS_PER_PRODUCER;
    assert_eq!(*freed.lock().expect("freed count"), total, "every pointer was freed exactly once");
    assert!(live.lock().expect("live set").is_empty(), "no pointer remained live");

    // Frees routed to foreign shards rode the remote queues: with six
    // threads over four shards, each consumer serves at least one
    // producer mapped to another shard, whatever the slot assignment.
    let stats = alloc.sharded_stats();
    assert!(stats.remote_frees > 0, "cross-thread frees must take the remote path: {stats:?}");

    // Join-time flush: the owners apply whatever is still queued, after
    // which every queue is empty and nothing is live anywhere — grouped
    // pools and fallbacks alike.
    let mut mem = Memory::new();
    alloc.drain_remote(&mut mem);
    assert_eq!(alloc.remote_pending(), 0, "all remote-free queues drain");
    assert_eq!(alloc.live_grouped_bytes(), 0, "grouped live bytes reach exactly zero");
    assert_eq!(alloc.live_bytes(), 0, "aggregate live bytes reach exactly zero");
    assert_eq!(alloc.live_objects(), 0);

    let stats = alloc.sharded_stats();
    assert_eq!(stats.remote_drained, stats.remote_frees, "every queued free was applied");
    assert_eq!(stats.alloc.grouped_allocs + stats.alloc.fallback_allocs, total);
    assert_eq!(stats.alloc.grouped_frees + stats.alloc.fallback_frees, total);
}

#[test]
fn concurrent_engines_share_one_sharded_allocator() {
    // The Sync VM backend end to end: several OS threads each run their
    // own `Engine` (own program copy, own Memory) against one shared
    // allocator through the `&S: VmAllocator` bridge. Pointer streams
    // from different engines must never collide.
    use halo_vm::{Cond, Engine, ProgramBuilder, Reg, Width};
    fn burst_program() -> halo_vm::Program {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.function("main");
        let r = Reg;
        // Hand-instrumented: group bit 0 stays set, so every malloc is
        // grouped and lands in the serving shard's group slabs.
        m.raw(halo_vm::Op::GroupSet(0));
        m.imm(r(9), 0);
        m.imm(r(10), 0);
        m.imm(r(11), 400);
        m.imm(r(0), 48);
        let top = m.label();
        let done = m.label();
        m.bind(top);
        m.branch(Cond::Ge, r(10), r(11), done);
        m.malloc(r(0), r(1));
        m.store(r(9), r(1), 0, Width::W8);
        m.mov(r(9), r(1));
        m.add_imm(r(10), r(10), 1);
        m.jump(top);
        m.bind(done);
        m.ret(Some(r(9)));
        let main = m.finish();
        pb.finish(main)
    }
    let config = GroupAllocConfig {
        chunk_size: 65_536,
        slab_size: 65_536 * 64,
        ..GroupAllocConfig::default()
    };
    let alloc = ShardedHaloAllocator::new(4, config, two_group_table(), Vec::new());
    let program = burst_program();
    let heads: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (alloc, program) = (&alloc, &program);
                scope.spawn(move || {
                    let mut handle = alloc;
                    let mut mon = halo_vm::NullMonitor;
                    let stats =
                        Engine::new(program).run(&mut handle, &mut mon).expect("engine runs");
                    stats.return_value.expect("list head") as u64
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("engine thread")).collect()
    });
    // Four engines, four distinct shards: list heads live in four
    // distinct shard group ranges.
    assert!(heads.iter().all(|&p| alloc.is_group_allocated(p)), "{heads:?}");
    let shards: HashSet<u64> =
        heads.iter().map(|&p| (p - HaloGroupAllocator::SLAB_BASE) / GROUP_SHARD_STRIDE).collect();
    assert_eq!(shards.len(), 4, "each engine thread was served by its own shard: {heads:?}");
    assert_eq!(alloc.live_objects(), 4 * 400);
}
