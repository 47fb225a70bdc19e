//! Cross-thread stress for [`ShardedHaloAllocator`]: N producer threads
//! allocate, M consumer threads free pointers they never allocated, and
//! the whole stream must come out exact — no pointer handed out twice
//! while live, every remote-free queue drained, and aggregate live bytes
//! exactly zero after the join.
//!
//! The live-set oracle is `common::Storm`'s.

use halo_mem::{AllocatorStats, HaloGroupAllocator, ShardedHaloAllocator, GROUP_SHARD_STRIDE};
use std::collections::HashSet;

mod common;
use common::{assert_drains, grouped, small_config, two_group_table, Storm};

#[test]
fn producers_allocate_consumers_free_and_everything_drains() {
    let alloc = ShardedHaloAllocator::new(4, small_config(), two_group_table(), Vec::new());
    // ×4 producers ×(1 malloc + 1 free) = 100k ops.
    let storm = Storm { producers: 4, consumers: 2, mallocs: 12_500, cold_every: 97, seed: 5 };
    let panicked = storm.run(
        &alloc,
        |_, _| {},
        |n| {
            if n.is_multiple_of(256) {
                // A snapshot taken mid-traffic reads each shard's queued
                // and drained counts at one instant, so it never shows
                // more frees applied than queued.
                let s = alloc.sharded_stats();
                assert!(s.remote_drained <= s.remote_frees, "torn snapshot: {s:?}");
            }
        },
    );
    assert_eq!(panicked, 0);
    // Frees routed to foreign shards rode the remote queues: with six
    // threads over four shards, each consumer serves at least one
    // producer mapped to another shard, whatever the slot assignment.
    let stats = alloc.sharded_stats();
    assert!(stats.remote_frees > 0, "cross-thread frees must take the remote path: {stats:?}");
    assert_drains(&alloc, 4 * 12_500);
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
    let alloc = ShardedHaloAllocator::new(4, small_config(), two_group_table(), Vec::new());
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
    assert!(heads.iter().copied().all(grouped), "{heads:?}");
    let shards: HashSet<u64> =
        heads.iter().map(|&p| (p - HaloGroupAllocator::SLAB_BASE) / GROUP_SHARD_STRIDE).collect();
    assert_eq!(shards.len(), 4, "each engine thread was served by its own shard: {heads:?}");
    assert_eq!(alloc.live_objects(), 4 * 400);
}
