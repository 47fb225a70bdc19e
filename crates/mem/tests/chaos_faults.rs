//! Chaos property suite for the fault-injection subsystem and the
//! degradation ladder (DESIGN.md §12): randomized fault schedules ×
//! randomized allocation traces, single- and multi-threaded, under the
//! same live-set oracle as `sharded_stress.rs`. The properties proved for
//! every schedule:
//!
//! 1. **No double hand-out** — a returned region never overlaps a live
//!    region (interval oracle, stronger than pointer-equality);
//! 2. **No lost bytes** — after every pointer is freed, live bytes reach
//!    exactly zero, degraded groups and all;
//! 3. **Continued service** — every request after a fault is still served
//!    (non-zero pointer), and after a mid-operation thread panic the
//!    surviving threads keep allocating;
//! 4. **Observability** — every fault the injector fired is counted in
//!    `DegradeStats` (`injected_faults` matches the injector, and each
//!    fired site moves its ladder counter);
//! 5. **Identity** — an attached injector with an *empty* plan changes
//!    nothing: pointer-for-pointer identical to no injector at all.
//!
//! Each test prints a `chaos verdict: zero leaks` line on success, which
//! CI greps under pipefail (release mode, the `chaos` job).

use halo_mem::{
    AllocatorStats, FaultInjector, FaultPlan, FaultSite, HaloGroupAllocator, ShardedHaloAllocator,
};
use halo_vm::{GroupState, Memory, SplitMix64, SyncVmAllocator, VmAllocator};
use std::sync::Arc;

mod common;
use common::{cases, churn, pending, request, site, tiny_config, two_group_table, LiveSet, Storm};

/// A randomized schedule over `sites`: each site independently gets no
/// entry, an exact `site@n` entry, or a `site~p` rate entry.
fn random_plan(rng: &mut SplitMix64, sites: &[FaultSite]) -> FaultPlan {
    let mut plan = FaultPlan::new(rng.next_u64());
    for &s in sites {
        match rng.next_below(3) {
            0 => {}
            1 => plan = plan.at(s, 1 + rng.next_below(40)),
            _ => plan = plan.rate(s, (1 + rng.next_below(20)) as f64 / 100.0),
        }
    }
    plan
}

/// Drive one randomized trace (malloc/free/realloc mix) against `a`
/// under the live-set model, then free every survivor.
fn run_trace(a: &mut HaloGroupAllocator, rng: &mut SplitMix64, ops: u64) {
    let mut mem = Memory::new();
    let mut gs = GroupState::new(2);
    let mut live = LiveSet::<()>::default();
    for i in 0..ops {
        let size = request(i, 23, rng, &mut gs);
        match (rng.next_below(4), live.pick(rng)) {
            (2, Some(ptr)) => {
                live.retire(ptr);
                a.free(ptr, &mut mem);
            }
            (3, Some(ptr)) => {
                live.retire(ptr);
                let moved = a.realloc(ptr, size, site(), &gs, &mut mem);
                assert_ne!(moved, 0, "continued service: realloc {i} was refused");
                live.admit(moved, size, (), "chaos trace");
            }
            // Mostly allocate.
            _ => {
                let ptr = a.malloc(size, site(), &gs, &mut mem);
                assert_ne!(ptr, 0, "continued service: request {i} was refused");
                live.admit(ptr, size, (), "chaos trace");
            }
        }
    }
    for (ptr, _) in live.iter() {
        a.free(ptr, &mut mem);
    }
}

#[test]
fn randomized_schedules_degrade_but_never_leak() {
    let cases = cases(32);
    for case in 0..cases {
        let mut rng = SplitMix64::new(0xC0_FFEE ^ (case * 0x9E37));
        let plan = random_plan(&mut rng, &[FaultSite::VmmReserve, FaultSite::ChunkAlloc]);
        let injector = Arc::new(FaultInjector::new(plan.clone()));
        let mut a = HaloGroupAllocator::new(tiny_config(), two_group_table());
        a.set_fault_injector(Arc::clone(&injector));
        run_trace(&mut a, &mut rng, 600);
        assert_eq!(a.live_bytes(), 0, "schedule {plan}: live bytes reach exactly zero");
        assert_eq!(a.live_objects(), 0, "schedule {plan}: no lost objects");
        // Observability: the ladder counted exactly what the injector
        // fired, and each fired site moved its counter.
        let d = a.report().stats.degrade;
        assert_eq!(d.injected_faults, injector.fired(), "schedule {plan}: every fault counted");
        let carve_faults =
            injector.fired_at(FaultSite::VmmReserve) + injector.fired_at(FaultSite::ChunkAlloc);
        if carve_faults > 0 {
            assert!(d.degraded_groups >= 1, "schedule {plan}: a failed carve degrades: {d:?}");
            assert!(d.fallback_routes >= 1, "schedule {plan}: traffic was routed: {d:?}");
        } else {
            assert!(!d.any(), "schedule {plan}: no fault, no degradation: {d:?}");
        }
        // Deterministic replay: the same schedule over the same trace
        // fires identically.
        let replay = Arc::new(FaultInjector::new(plan.clone()));
        let mut b = HaloGroupAllocator::new(tiny_config(), two_group_table());
        b.set_fault_injector(Arc::clone(&replay));
        let mut rng2 = SplitMix64::new(0xC0_FFEE ^ (case * 0x9E37));
        let _ = random_plan(&mut rng2, &[FaultSite::VmmReserve, FaultSite::ChunkAlloc]);
        run_trace(&mut b, &mut rng2, 600);
        assert_eq!(b.report().stats.degrade, d, "schedule {plan}: replay is deterministic");
    }
    println!("chaos verdict: zero leaks ({cases} single-threaded schedules)");
}

#[test]
fn multithreaded_chaos_with_panicking_threads_never_leaks() {
    let cases = cases(32).div_ceil(4);
    for case in 0..cases {
        let mut rng = SplitMix64::new(0xBAD_5EED ^ (case * 0x51_F15E));
        // All four sites, including the mid-operation panicking thread
        // and remote-free-queue overflow (the one way a run this small
        // reaches the queue's bound).
        let plan = random_plan(
            &mut rng,
            &[
                FaultSite::VmmReserve,
                FaultSite::ChunkAlloc,
                FaultSite::RemoteQueue,
                FaultSite::ShardPanic,
            ],
        );
        let injector = Arc::new(FaultInjector::new(plan.clone()));
        let mut owned = ShardedHaloAllocator::new(4, tiny_config(), two_group_table(), Vec::new());
        owned.set_fault_injector(Arc::clone(&injector));
        let a = &owned;
        // An injected ShardPanic fires *inside* the shard lock: the
        // pointer was never handed out, so the live set stays exact, and a
        // panicked producer is the *intended* failure of the faulted
        // thread — the suite proves everyone else keeps going.
        let storm =
            Storm { producers: 3, consumers: 1, mallocs: 400, cold_every: 23, seed: case * 31 };
        let panicked = storm.run(a, |_, _| {}, |_| {});
        // Accounting is read while the chaos plan is still attached:
        // `injected_faults` is snapshotted from the live injector.
        let d = a.sharded_stats().degrade;
        assert_eq!(d.injected_faults, injector.fired(), "schedule {plan}: every fault counted");
        if injector.fired_at(FaultSite::RemoteQueue) > 0 {
            assert!(d.queue_overflows >= 1, "schedule {plan}: overflow counted: {d:?}");
        }
        if injector.fired_at(FaultSite::ShardPanic) > 0 {
            assert_eq!(panicked, injector.fired_at(FaultSite::ShardPanic));
            assert!(
                d.poisoned_recovered >= 1,
                "schedule {plan}: the poisoned lock was recovered, not wedged: {d:?}"
            );
        }
        let carve =
            injector.fired_at(FaultSite::VmmReserve) + injector.fired_at(FaultSite::ChunkAlloc);
        if carve > 0 {
            assert!(d.degraded_groups + d.degraded_shards >= 1, "schedule {plan}: {d:?}");
        }
        // The chaos window closes when the workers join: detach the plan so
        // a rate-based entry cannot fire inside the probe below and panic
        // the checking thread itself.
        owned.set_fault_injector(Arc::new(FaultInjector::new(FaultPlan::new(0))));
        let a = &owned;
        // Continued service after every fault: the main thread still gets
        // memory out of the surviving runtime.
        let mut mem = Memory::new();
        let mut gs = GroupState::new(2);
        gs.set(0);
        let p = SyncVmAllocator::malloc(a, 64, site(), &gs, &mut mem);
        assert_ne!(p, 0, "schedule {plan}: allocator serves after the chaos run");
        SyncVmAllocator::free(a, p, &mut mem);
        a.drain_remote(&mut mem);
        assert_eq!(pending(a.sharded_stats()), 0, "schedule {plan}: every queue drains");
        assert_eq!(a.live_bytes(), 0, "schedule {plan}: live bytes reach exactly zero");
        assert_eq!(a.live_objects(), 0);
    }
    println!("chaos verdict: zero leaks ({cases} multi-threaded schedules)");
}

#[test]
fn empty_plan_is_pointer_for_pointer_identical_to_no_injector() {
    // The byte-identity half of the acceptance bar, at the allocator
    // level: attaching an injector whose plan never fires must not change
    // a single returned address or counter.
    let drive = |a: &mut HaloGroupAllocator| churn(a, 500, 23, 42, |_| {});
    let mut plain = HaloGroupAllocator::new(tiny_config(), two_group_table());
    let mut injected = HaloGroupAllocator::new(tiny_config(), two_group_table());
    injected.set_fault_injector(Arc::new(FaultInjector::new(FaultPlan::new(7))));
    assert_eq!(drive(&mut plain), drive(&mut injected), "address streams diverge");
    let stats = injected.report().stats;
    assert_eq!(plain.report().stats, stats);
    assert_eq!(plain.live_bytes(), injected.live_bytes());
    assert!(!stats.degrade.any(), "an empty plan never degrades");
    println!("chaos verdict: zero leaks (empty-plan identity)");
}
