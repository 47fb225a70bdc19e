//! Properties of the epoch-based plan hot-swap (DESIGN.md §15).
//!
//! Two guarantees are pinned here:
//!
//! * **Identity**: swapping in a plan identical to the active one is
//!   observably a no-op — the pointer stream, statistics, and
//!   fragmentation reports match a twin allocator that never swapped,
//!   pointer for pointer. Only the plan epoch advances.
//! * **Safety under load**: a swap to a *different* plan while producer
//!   and consumer threads hammer the allocator never double-hands-out a
//!   pointer (live-set oracle), never loses a free, and drains to exactly
//!   zero live bytes at join — old chunks retire through the ordinary
//!   free machinery while new chunks carve under the new plan.

use halo_mem::{
    AllocatorStats, GroupAllocConfig, GroupSelector, HaloGroupAllocator, SelectorTable,
    ShardedHaloAllocator,
};
use halo_vm::{GroupState, Memory, VmAllocator};
use std::sync::atomic::{AtomicBool, Ordering};

mod common;
use common::{assert_drains, churn, one_group_table, site, small_config, two_group_table, Storm};

/// One deterministic malloc/free round against `alloc` (mixed grouped and
/// fallback traffic, a rotating free pattern so chunks retire and
/// recycle), `swap` invoked halfway through; the pointer stream.
fn drive(alloc: &ShardedHaloAllocator, swap: impl FnMut(&mut &ShardedHaloAllocator)) -> Vec<u64> {
    churn(&mut { alloc }, 4_000, 97, 0x91a7_50a9, swap)
}

#[test]
fn identical_plan_swap_is_observably_a_noop() {
    let table = two_group_table();
    let overrides = vec![
        GroupAllocConfig { chunk_size: 16_384, ..small_config() },
        GroupAllocConfig { chunk_size: 65_536, ..small_config() },
    ];
    let swapped = ShardedHaloAllocator::new(2, small_config(), table.clone(), overrides.clone());
    let control = ShardedHaloAllocator::new(2, small_config(), table.clone(), overrides.clone());

    let swapped_stream = drive(&swapped, |a| {
        let epoch = a.swap_plans(table.clone(), overrides.clone());
        assert_eq!(epoch, 1, "the epoch advances even for an identity swap");
    });
    let control_stream = drive(&control, |_| {});

    assert_eq!(swapped_stream, control_stream, "identity swap: pointer-for-pointer equal");
    let (swapped_report, control_report) = (swapped.report(), control.report());
    assert_eq!(swapped_report.stats, control_report.stats, "identical statistics");
    assert_eq!(swapped_report.frag, control_report.frag, "identical fragmentation");
    assert_eq!(swapped.live_bytes(), 0);
    assert_eq!(control.live_bytes(), 0);
    assert_eq!(swapped.plan_epoch(), 1);
    assert_eq!(control.plan_epoch(), 0, "the control never swapped");
}

#[test]
fn changed_plan_applies_to_fresh_chunks_only() {
    // Single-arena view of the same property: after a swap that changes
    // group 0's chunk size, group 0 carves its next chunk under the new
    // size while group 1 keeps filling its open chunk, and pointers
    // allocated before the swap free cleanly after it.
    let cfg = small_config();
    let mut a = HaloGroupAllocator::with_group_configs(
        cfg,
        two_group_table(),
        vec![
            GroupAllocConfig { chunk_size: 16_384, ..cfg },
            GroupAllocConfig { chunk_size: 65_536, ..cfg },
        ],
    );
    let mut mem = Memory::new();
    let mut gs = GroupState::new(2);
    let grouped = |a: &mut HaloGroupAllocator, gs: &mut GroupState, mem: &mut Memory, g: u16| {
        gs.reset();
        gs.set(g);
        VmAllocator::malloc(a, 64, site(), gs, mem)
    };
    let pre_g0 = grouped(&mut a, &mut gs, &mut mem, 0);
    let pre_g1 = grouped(&mut a, &mut gs, &mut mem, 1);

    a.install_plan(
        two_group_table(),
        vec![
            GroupAllocConfig { chunk_size: 32_768, ..cfg },
            GroupAllocConfig { chunk_size: 65_536, ..cfg },
        ],
    );
    assert_eq!(a.group_config(0).chunk_size, 32_768, "group 0 runs the new plan");

    let post_g0 = grouped(&mut a, &mut gs, &mut mem, 0);
    let post_g1 = grouped(&mut a, &mut gs, &mut mem, 1);
    // Group 1's configuration did not change: it bumps within the chunk
    // it was already filling. Group 0's did: it abandoned its 16 KiB
    // chunk and carved a fresh 32 KiB one.
    assert_eq!(post_g1, pre_g1 + 64, "unchanged group keeps its open chunk");
    assert_ne!(post_g0, pre_g0 + 64, "changed group starts a fresh chunk");

    // Pre-swap pointers free through the normal path and the heap drains.
    for p in [pre_g0, pre_g1, post_g0, post_g1] {
        VmAllocator::free(&mut a, p, &mut mem);
    }
    assert_eq!(a.live_bytes(), 0, "pre- and post-swap pointers all drain");
}

#[test]
fn a_quarantined_allocator_stays_on_its_fallback_across_a_plan_swap() {
    let mut a = HaloGroupAllocator::new(small_config(), one_group_table());
    a.quarantine();
    // The plan adds group 1; the quarantine covers it too.
    a.install_plan(two_group_table(), Vec::new());
    let (mut gs, mut mem) = (GroupState::new(2), Memory::new());
    gs.set(1);
    let p = VmAllocator::malloc(&mut a, 64, site(), &gs, &mut mem);
    assert!(!a.is_group_allocated(p) && a.is_degraded(1), "the group the plan added falls back");
    let d = a.report().stats.degrade;
    assert_eq!((d.degraded_shards, d.degraded_groups, d.fallback_routes), (1, 2, 1), "{d:?}");
}

#[test]
fn a_swapped_plan_runs_what_a_fresh_allocator_on_it_runs() {
    // A plan of `n` groups, group `g` on bit `g` with `2^g` times `chunk`.
    let cfg = small_config();
    let plan = |n: usize, chunk: u64| {
        let selectors =
            (0..n).map(|g| GroupSelector { group: g, conjunctions: vec![vec![g as u16]] });
        let overrides = (0..n).map(|g| GroupAllocConfig { chunk_size: chunk << g, ..cfg });
        (SelectorTable::new(selectors.collect(), n as u16), overrides.collect::<Vec<_>>())
    };
    // Onto more groups than the allocator runs, and onto fewer: a group the
    // new plan does not name returns to the global configuration.
    for (p, q) in [(plan(2, 16_384), plan(3, 32_768)), (plan(3, 16_384), plan(1, 32_768))] {
        let fresh = HaloGroupAllocator::with_group_configs(cfg, q.0.clone(), q.1.clone());
        let mut swapped = HaloGroupAllocator::with_group_configs(cfg, p.0, p.1);
        swapped.install_plan(q.0, q.1);
        for g in 0..4 {
            assert_eq!(swapped.group_config(g), fresh.group_config(g), "group {g}");
        }
    }
}

#[test]
fn swap_under_load_keeps_the_heap_exact() {
    let config = small_config();
    let alloc = ShardedHaloAllocator::new(4, config, two_group_table(), Vec::new());
    let swapped = AtomicBool::new(false);
    let storm = Storm { producers: 4, consumers: 2, mallocs: 10_000, cold_every: 97, seed: 7 };
    let before = |p, i| {
        if p == 0 && i == storm.mallocs / 2 {
            // Producer 0 doubles as the serve loop: swap the whole fleet
            // onto a different plan mid-storm.
            alloc.swap_plans(
                two_group_table(),
                vec![
                    GroupAllocConfig { chunk_size: 16_384, ..config },
                    GroupAllocConfig { chunk_size: 131_072, ..config },
                ],
            );
            swapped.store(true, Ordering::Release);
        }
    };
    assert_eq!(storm.run(&alloc, before, |_| {}), 0);
    assert!(swapped.load(Ordering::Acquire), "the mid-storm swap ran");
    assert_eq!(alloc.plan_epoch(), 1, "exactly one swap epoch");
    assert_drains(&alloc, 4 * 10_000);
}
