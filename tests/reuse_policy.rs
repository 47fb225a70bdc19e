//! Pins the per-group reuse-policy outcomes: leela — the paper's Table-1
//! fragmentation extreme — gets a strict fragmentation improvement from
//! the per-group `auto` policy while keeping its L1D-miss win, and groups
//! whose bump contiguity is winning (roms's page-granularity grid group)
//! stay at bump. Runs measure on the paper's ref scale, exactly what
//! `halo run` reports.

use halo::core::{measure, EvalConfig, Halo};
use halo::graph::{Granularity, ReusePolicy, ReusePolicyChoice};
use halo::mem::{FragReport, SizeClassAllocator};
use halo::workloads::{by_name, Workload};

/// Optimise and measure one workload under `config`, returning the miss
/// reduction vs the plain baseline, the whole-allocator fragmentation
/// report, and the resolved optimisation artefacts.
fn run(w: &Workload, config: &EvalConfig) -> (f64, FragReport, halo::core::Optimised) {
    let halo = Halo::new(config.halo);
    let opt = halo.optimise_with_arg(&w.program, w.train.seed, w.train.arg).expect("pipeline runs");
    let mut base_alloc = SizeClassAllocator::new();
    let base = measure(&w.program, &mut base_alloc, &config.measure).expect("baseline runs");
    let mut alloc = halo.make_allocator(&opt);
    let m = measure(&opt.program, &mut alloc, &config.measure).expect("halo runs");
    (m.miss_reduction_vs(&base), alloc.report().frag, opt)
}

/// The leela row: under the promoted per-group auto policy,
/// leela's fragmentation fraction drops strictly below its bump-only value
/// while the L1D-miss reduction stays within one point of the bump-only
/// (PR-3) result.
#[test]
fn leela_per_group_auto_cuts_fragmentation_and_keeps_the_miss_win() {
    let w = by_name("leela").unwrap();
    let auto_config = halo_bench::paper_config(&w);
    assert_eq!(
        auto_config.halo.reuse,
        ReusePolicyChoice::Auto,
        "the ablation winner is promoted into leela's paper defaults"
    );
    let mut bump_config = auto_config.clone();
    bump_config.halo.reuse = ReusePolicyChoice::Bump;

    let (bump_mr, bump_frag, bump_opt) = run(&w, &bump_config);
    let (auto_mr, auto_frag, auto_opt) = run(&w, &auto_config);

    assert!(
        auto_frag.frag_fraction() < bump_frag.frag_fraction(),
        "auto frag {:.4} must be strictly below bump-only {:.4}",
        auto_frag.frag_fraction(),
        bump_frag.frag_fraction()
    );
    assert!(
        auto_frag.wasted_bytes() < bump_frag.wasted_bytes(),
        "auto wastes {} vs bump {}",
        auto_frag.wasted_bytes(),
        bump_frag.wasted_bytes()
    );
    assert!(
        auto_mr >= bump_mr - 0.01,
        "miss reduction stays within 1% of the bump-only result: auto {:.4} vs bump {:.4}",
        auto_mr,
        bump_mr
    );
    // The improvement comes from a per-group plan flip, not from touching
    // the binary: same groups, at least one flipped to sharded free lists.
    assert_eq!(bump_opt.groups.len(), auto_opt.groups.len());
    assert!(
        auto_opt.groups.iter().any(|g| g.plan.reuse == ReusePolicy::ShardedFreeLists),
        "leela's fragmentation-heavy group flips to sharded: {:?}",
        auto_opt.groups.iter().map(|g| g.plan).collect::<Vec<_>>()
    );
    assert!(
        bump_opt.groups.iter().all(|g| g.plan.reuse == ReusePolicy::Bump),
        "the bump-only reference keeps every plan at bump"
    );
}

/// Groups whose bump contiguity is winning keep bump: roms's Table-1 row
/// is healthy (0.89% fragmentation), so its page-granularity grid group
/// must come out of the auto validator untouched — with the PR-3 page win
/// intact.
#[test]
fn roms_auto_keeps_bump_where_contiguity_wins() {
    let w = by_name("roms").unwrap();
    let config = halo_bench::paper_config(&w);
    assert_eq!(config.halo.reuse, ReusePolicyChoice::Auto);
    let (mr, _, opt) = run(&w, &config);
    assert_eq!(opt.granularity, Granularity::Page, "auto granularity still resolves to page");
    assert!(!opt.groups.is_empty());
    assert!(
        opt.groups.iter().all(|g| g.plan.reuse == ReusePolicy::Bump),
        "no roms group clears the fragmentation threshold: {:?}",
        opt.groups.iter().map(|g| g.plan).collect::<Vec<_>>()
    );
    assert!(mr > 0.10, "the page-granularity win survives reuse auto (got {:.2}%)", mr * 100.0);
}

/// An explicit `--reuse-policy sharded` stamps every group's plan, and the
/// synthesised allocator honours it (leela's wasted bytes collapse).
#[test]
fn explicit_sharded_choice_stamps_every_plan() {
    let w = by_name("leela").unwrap();
    let mut config = halo_bench::paper_config(&w);
    config.halo.reuse = ReusePolicyChoice::Sharded;
    let (_, frag, opt) = run(&w, &config);
    assert!(opt.groups.iter().all(|g| g.plan.reuse == ReusePolicy::ShardedFreeLists));
    let mut bump_config = halo_bench::paper_config(&w);
    bump_config.halo.reuse = ReusePolicyChoice::Bump;
    let (_, bump_frag, _) = run(&w, &bump_config);
    assert!(frag.wasted_bytes() < bump_frag.wasted_bytes());
}
