//! Pins the per-group reuse-policy outcomes: leela — the paper's Table-1
//! fragmentation extreme — gets a strict fragmentation improvement from
//! the per-group `auto` policy while keeping its L1D-miss win, and groups
//! whose bump contiguity is winning (roms's page-granularity grid group)
//! stay at bump. Runs measure on the paper's ref scale, exactly what
//! `halo run` reports.

use halo::core::{EvalConfig, Optimised};
use halo::graph::{Granularity, ReusePolicy, ReusePolicyChoice};
use halo::mem::FragReport;
use halo::workloads::{by_name, Workload};

/// Optimise and measure one workload under `config`, returning the miss
/// reduction vs the plain baseline, the whole-allocator fragmentation
/// report, and the resolved optimisation artefacts. The measured
/// allocator runs group `g` under exactly `group_configs[g]`: the table
/// the pipeline chose is the one measured.
fn run(w: &Workload, config: &EvalConfig) -> (f64, FragReport, Optimised) {
    let base = halo_bench::baseline(w, config);
    let (opt, alloc, m) = halo_bench::halo_run(w, config);
    assert_eq!(opt.group_configs.len(), opt.groups.len(), "one layout per group");
    for (g, layout) in opt.group_configs.iter().enumerate() {
        assert_eq!(alloc.group_config(g), *layout, "group {g} runs its chosen layout");
    }
    (m.miss_reduction_vs(&base), alloc.report().frag, opt)
}

/// The reuse policy of every group's layout.
fn reuse_policies(opt: &Optimised) -> Vec<ReusePolicy> {
    opt.group_configs.iter().map(|c| c.reuse_policy).collect()
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
    // The improvement comes from a per-group layout flip, not from
    // touching the binary: same groups, at least one flipped to sharded
    // free lists.
    assert_eq!(bump_opt.groups.len(), auto_opt.groups.len());
    assert!(
        reuse_policies(&auto_opt).contains(&ReusePolicy::ShardedFreeLists),
        "leela's fragmentation-heavy group flips to sharded: {:?}",
        auto_opt.group_configs
    );
    assert!(
        reuse_policies(&bump_opt).iter().all(|&r| r == ReusePolicy::Bump),
        "the bump-only reference keeps every group at bump"
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
        reuse_policies(&opt).iter().all(|&r| r == ReusePolicy::Bump),
        "no roms group clears the fragmentation threshold: {:?}",
        opt.group_configs
    );
    assert!(mr > 0.10, "the page-granularity win survives reuse auto (got {:.2}%)", mr * 100.0);
}

/// An explicit `--reuse-policy sharded` gives every group sharded free
/// lists, and the synthesised allocator honours it (leela's wasted bytes
/// collapse).
#[test]
fn explicit_sharded_choice_stamps_every_plan() {
    let w = by_name("leela").unwrap();
    let mut config = halo_bench::paper_config(&w);
    config.halo.reuse = ReusePolicyChoice::Sharded;
    let (_, frag, opt) = run(&w, &config);
    assert!(!opt.groups.is_empty());
    assert!(reuse_policies(&opt).iter().all(|&r| r == ReusePolicy::ShardedFreeLists));
    let mut bump_config = halo_bench::paper_config(&w);
    bump_config.halo.reuse = ReusePolicyChoice::Bump;
    let (_, bump_frag, _) = run(&w, &bump_config);
    assert!(frag.wasted_bytes() < bump_frag.wasted_bytes());
}
