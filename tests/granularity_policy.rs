//! Pins the granularity policy's headline outcomes (ISSUE 3 / ROADMAP):
//! roms — the one benchmark object-granularity HALO cannot move — gains a
//! measurable miss reduction at page granularity, and omnetpp's
//! object-granularity regression is neutralised by `auto` declining to
//! group. Runs measure on the *train* scale to keep the suite fast; the
//! ref-scale numbers are reproduced by `halo run` and the
//! `ablation_granularity` harness.

use halo::cache::HierarchyConfig;
use halo::core::{evaluate_with_arg, EvalConfig, Halo};
use halo::graph::Granularity;
use halo::workloads::{by_name, Workload};

fn train_scale_config(w: &Workload) -> EvalConfig {
    let mut config = halo_bench::paper_config(w);
    config.measure.seed = w.train.seed;
    config.measure.entry_arg = w.train.arg;
    config
}

#[test]
fn roms_is_unmovable_at_object_granularity_but_wins_at_page() {
    let w = by_name("roms").unwrap();
    let base = halo_bench::baseline(&w, &train_scale_config(&w));
    let run = |granularity: Granularity| {
        let mut config = train_scale_config(&w);
        config.halo.profile.granularity = granularity;
        let (optimised, _, opt) = halo_bench::halo_run(&w, &config);
        (opt.miss_reduction_vs(&base), optimised)
    };

    let (object_gain, object_opt) = run(Granularity::Object);
    assert!(
        object_gain.abs() < 0.01,
        "roms at object granularity reproduces the paper's ~0% (got {:.2}%)",
        object_gain * 100.0
    );
    assert_eq!(object_opt.granularity, Granularity::Object);

    let (page_gain, page_opt) = run(Granularity::Page);
    assert!(
        page_gain > 0.10,
        "page granularity must find the grid regularity (got {:.2}%)",
        page_gain * 100.0
    );
    assert_eq!(page_opt.granularity, Granularity::Page);
    // The win comes from grouping the large grids, which only the lifted
    // page-mode cap admits.
    assert!(!page_opt.groups.is_empty());

    let (auto_gain, auto_opt) = run(Granularity::Auto);
    assert_eq!(auto_opt.granularity, Granularity::Page, "auto resolves roms to page");
    assert!(!auto_opt.auto_declined);
    assert!((auto_gain - page_gain).abs() < 1e-9, "auto reproduces the page result");
}

#[test]
fn omnetpp_auto_declines_to_group_and_is_not_negative() {
    let w = by_name("omnetpp").unwrap();
    // paper_config already selects Auto for omnetpp (the pinned default).
    let config = train_scale_config(&w);
    assert_eq!(config.halo.profile.granularity, Granularity::Auto);
    let base = halo_bench::baseline(&w, &config);
    let (optimised, _, opt) = halo_bench::halo_run(&w, &config);
    assert!(
        optimised.auto_declined,
        "grouping regresses omnetpp at both granularities; auto must decline"
    );
    assert!(optimised.groups.is_empty());
    let gain = opt.miss_reduction_vs(&base);
    assert_eq!(gain, 0.0, "declining to group leaves the binary byte-identical: {gain}");
}

#[test]
fn auto_keeps_object_granularity_where_it_already_wins() {
    // health is the canonical direct-malloc win: auto must not disturb it.
    let w = by_name("health").unwrap();
    let mut config = train_scale_config(&w);
    config.halo.profile.granularity = Granularity::Auto;
    let base = halo_bench::baseline(&w, &config);
    let (optimised, _, opt) = halo_bench::halo_run(&w, &config);
    assert_eq!(optimised.granularity, Granularity::Object);
    assert!(!optimised.auto_declined);
    assert!(opt.miss_reduction_vs(&base) > 0.05, "health keeps its object-granularity win");
}

/// `halo_bench`'s door hands the `auto` validators the geometry it is
/// about to measure on, like `evaluate_with_arg`: on the tiny hierarchy
/// roms's page grouping fails the train-input bar it clears on the
/// default caches, so both decline — where a pipeline built by hand from
/// `config.halo` alone validates on the default caches and groups.
#[test]
fn the_bench_door_validates_auto_on_the_geometry_it_measures() {
    let w = by_name("roms").unwrap();
    let mut config = train_scale_config(&w);
    assert_eq!(config.halo.profile.granularity, Granularity::Auto);
    config.measure.hierarchy = HierarchyConfig::tiny();

    let (optimised, _, measured) = halo_bench::halo_run(&w, &config);
    let evaluated = evaluate_with_arg(&w.program, w.name, w.train.seed, w.train.arg, &config)
        .expect("evaluation runs");
    assert_eq!(measured, evaluated.halo().measurement);
    assert_eq!(optimised.groups, evaluated.optimised.groups);
    assert!(optimised.auto_declined && evaluated.optimised.auto_declined);

    let by_hand = Halo::new(config.halo)
        .optimise_with_arg(&w.program, w.train.seed, w.train.arg)
        .expect("pipeline runs");
    assert_eq!(by_hand.granularity, Granularity::Page, "the default caches reward page grouping");
}
