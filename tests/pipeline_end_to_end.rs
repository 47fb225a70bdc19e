//! Cross-crate integration tests: the full HALO pipeline applied to the
//! motivating workload and the benchmark models, checking the paper's
//! qualitative claims end to end.

use halo::core::{measure, Halo, HaloConfig, MeasureConfig};
use halo::graph::GroupingParams;
use halo::mem::{AllocatorStats, SizeClassAllocator};
use halo::profile::{ProfileConfig, Profiler};
use halo::vm::{Engine, EngineLimits, NullMonitor};
use halo::workloads::{self, toy, Workload};

fn limits() -> EngineLimits {
    EngineLimits { max_instructions: 500_000_000, max_call_depth: 256 }
}

fn pipeline_config() -> HaloConfig {
    HaloConfig {
        profile: ProfileConfig::default(),
        grouping: GroupingParams { min_weight: 8, ..Default::default() },
        alloc: Default::default(),
        limits: limits(),
        ..Default::default()
    }
}

fn measure_config(w: &Workload) -> MeasureConfig {
    MeasureConfig {
        limits: limits(),
        seed: w.reference.seed,
        entry_arg: w.reference.arg,
        ..Default::default()
    }
}

/// The headline claim on the motivating example: HALO reduces L1D misses
/// and does not slow the program down.
#[test]
fn fig2_pattern_improves_under_halo() {
    let w = toy::build();
    let halo = Halo::new(pipeline_config());
    let opt = halo.optimise_with_arg(&w.program, w.train.seed, w.train.arg).expect("pipeline");
    assert!(!opt.groups.is_empty(), "A and B form a group");

    let mut base = SizeClassAllocator::new();
    let base_m = measure(&w.program, &mut base, &measure_config(&w)).expect("baseline");
    let mut halo_alloc = halo.make_allocator(&opt);
    let halo_m = measure(&opt.program, &mut halo_alloc, &measure_config(&w)).expect("halo");

    assert!(
        halo_m.miss_reduction_vs(&base_m) > 0.05,
        "expected >5% miss reduction, got {:.1}%",
        halo_m.miss_reduction_vs(&base_m) * 100.0
    );
    assert!(halo_m.speedup_vs(&base_m) > -0.01, "no slowdown");
}

/// The cold type (C) must not be pooled with the hot pair (A/B): its
/// allocations fall back to the default allocator.
#[test]
fn fig2_cold_type_falls_back() {
    let w = toy::build();
    let halo = Halo::new(pipeline_config());
    let opt = halo.optimise_with_arg(&w.program, w.train.seed, w.train.arg).expect("pipeline");
    let mut alloc = halo.make_allocator(&opt);
    measure(&opt.program, &mut alloc, &measure_config(&w)).expect("runs");
    let stats = alloc.report().stats.alloc;
    assert!(stats.grouped_allocs > 0);
    assert!(stats.fallback_allocs > 0, "create_c is ungrouped");
    // Roughly one third of the tokens are C (plus do_something noise).
    let grouped_fraction =
        stats.grouped_allocs as f64 / (stats.grouped_allocs + stats.fallback_allocs) as f64;
    assert!(grouped_fraction > 0.4 && grouped_fraction < 0.9, "{grouped_fraction}");
}

/// Rewriting must not change program behaviour: identical allocation and
/// access counts under the same allocator policy.
#[test]
fn rewriting_preserves_workload_semantics() {
    for w in workloads::all() {
        let halo = Halo::new(pipeline_config());
        let opt = match halo.optimise_with_arg(&w.program, w.train.seed, w.train.arg) {
            Ok(o) => o,
            Err(e) => panic!("{}: {e}", w.name),
        };
        let run = |p: &halo::vm::Program| {
            let mut alloc = halo::vm::MallocOnlyAllocator::new();
            Engine::new(p)
                .with_seed(w.train.seed)
                .with_entry_arg(w.train.arg)
                .with_limits(limits())
                .run(&mut alloc, &mut NullMonitor)
                .expect("runs")
        };
        let original = run(&w.program);
        let rewritten = run(&opt.program);
        assert_eq!(original.allocs, rewritten.allocs, "{}", w.name);
        assert_eq!(original.frees, rewritten.frees, "{}", w.name);
        assert_eq!(original.loads, rewritten.loads, "{}", w.name);
        assert_eq!(original.stores, rewritten.stores, "{}", w.name);
        assert_eq!(original.return_value, rewritten.return_value, "{}", w.name);
        // Instrumentation adds instructions, never removes them.
        assert!(rewritten.instructions >= original.instructions, "{}", w.name);
    }
}

/// The synthesised allocator never leaks or double-counts: after a full
/// run, live accounting matches what the program left allocated.
#[test]
fn allocator_accounting_is_consistent_across_pipeline() {
    let w = toy::build();
    let halo = Halo::new(pipeline_config());
    let opt = halo.optimise_with_arg(&w.program, w.train.seed, w.train.arg).expect("pipeline");
    let mut alloc = halo.make_allocator(&opt);
    let exit = halo::core::measure_detailed(&opt.program, &mut alloc, &measure_config(&w))
        .expect("runs")
        .exit;
    let live = exit.allocs - exit.frees;
    assert_eq!(alloc.live_objects() as u64, live);
}

/// Profiling is deterministic: two runs with the same seed produce the
/// same graph, groups, and monitored sites.
#[test]
fn pipeline_determinism_across_workloads() {
    for name in ["health", "povray", "xalanc"] {
        let w = &workloads::by_name(name).unwrap();
        let halo = Halo::new(pipeline_config());
        let a = halo.optimise_with_arg(&w.program, w.train.seed, w.train.arg).unwrap();
        let b = halo.optimise_with_arg(&w.program, w.train.seed, w.train.arg).unwrap();
        assert_eq!(a.groups, b.groups, "{name}");
        assert_eq!(a.ident.site_bits, b.ident.site_bits, "{name}");
        assert_eq!(a.rewrite, b.rewrite, "{name}");
    }
}

/// povray's wrapper must not defeat HALO: groups still form, and they
/// separate geometry from textures (the §3 claim).
#[test]
fn povray_wrapper_is_pierced_by_full_context() {
    let w = &workloads::by_name("povray").unwrap();
    let halo = Halo::new(pipeline_config());
    let opt = halo.optimise_with_arg(&w.program, w.train.seed, w.train.arg).unwrap();
    assert!(!opt.groups.is_empty(), "wrapper did not stop grouping");
    // The grouped contexts are the plane/csg creators, not the texture one.
    for g in &opt.groups {
        for &m in &g.members {
            let name = &opt.profile.context(m).name;
            assert!(
                name.contains("create_plane") || name.contains("create_csg"),
                "unexpected grouped context {name}"
            );
        }
    }
}

/// leela's external operator new: contexts are origin-traced through the
/// library frame, so node and board allocations are distinguishable.
#[test]
fn leela_contexts_pierce_operator_new() {
    let w = &workloads::by_name("leela").unwrap();
    let halo = Halo::new(pipeline_config());
    let profile = halo.profile_with_arg(&w.program, w.train.seed, w.train.arg).unwrap();
    let names: Vec<&str> = profile.alive_contexts().map(|c| c.name.as_str()).collect();
    assert!(
        names.iter().any(|n| n.contains("expand_node")),
        "node context visible through operator new: {names:?}"
    );
    // No context is identified *only* by the wrapper-internal site.
    for c in profile.alive_contexts() {
        assert!(c.chain.len() >= 2, "context {} has no caller information", c.name);
    }
}

/// Profiler object tracking against a real allocator: no tracked-object
/// overlap panics in debug mode across every workload (debug_assert in
/// ObjectTracker::insert fires on overlapping live regions).
#[test]
fn profiling_never_sees_overlapping_objects() {
    for w in workloads::all() {
        let mut profiler = Profiler::new(&w.program, ProfileConfig::default());
        let mut alloc = SizeClassAllocator::new();
        Engine::new(&w.program)
            .with_seed(w.train.seed)
            .with_entry_arg(w.train.arg)
            .with_limits(limits())
            .run(&mut alloc, &mut profiler)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let profile = profiler.finish();
        assert!(profile.total_allocs > 0, "{}", w.name);
    }
}
