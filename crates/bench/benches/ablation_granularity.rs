//! Granularity ablation (§6's page-granularity suggestion, which the paper
//! sketches for roms but never builds): run each benchmark under object,
//! page, and auto grouping granularity and report the L1D miss reduction,
//! the granularity auto resolved to, and whether it declined to group.
//!
//! The headline rows:
//!
//! * **roms** — object granularity cannot see the persistent grids (they
//!   exceed the 4 KiB tracked cap) and reports ~0%; page granularity
//!   groups the grid context, bump co-location staggers the page-aligned
//!   arrays across cache sets, and the same-index stencil stops
//!   thrashing. `auto` finds this on the train input and picks page.
//! * **omnetpp** — grouping per-module contexts splits each event wave
//!   across chunks at *both* granularities; `auto` measures the train
//!   regression and declines to group (0%, instead of the object mode's
//!   regression).
//! * The six direct-malloc benchmarks — object granularity already wins;
//!   `auto` keeps it.

use halo_graph::Granularity;

fn main() {
    halo_bench::banner("Ablation: grouping granularity (object | page | auto)");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>9}   auto resolved",
        "benchmark", "object", "page", "auto", "obj-cov"
    );
    let workloads = halo_workloads::all();
    for row in halo_core::par_map(&workloads, |w| {
        let base = halo_bench::baseline(w, &halo_bench::paper_config(w));
        let run = |granularity: Granularity| {
            let mut config = halo_bench::paper_config(w);
            config.halo.profile.granularity = granularity;
            let (optimised, _, opt) = halo_bench::halo_run(w, &config);
            (opt.miss_reduction_vs(&base), optimised)
        };
        let (object, _) = run(Granularity::Object);
        let (page, _) = run(Granularity::Page);
        let (auto, resolved) = run(Granularity::Auto);
        // How much of the page-level (salient, uncapped) access stream do
        // the object-granularity groups cover? The auto run's profile has
        // both graphs; regroup its object graph to ask. roms's near-zero
        // row is the §6 diagnosis in one number.
        let object_groups =
            halo_graph::group(&resolved.profile.graph, &halo_bench::paper_config(w).halo.grouping);
        let coverage = resolved
            .profile
            .page_graph
            .coverage_of(object_groups.iter().flat_map(|g| g.members.iter().copied()));
        format!(
            "{:<10} {:>10} {:>10} {:>10} {:>8.1}%   {}{}",
            w.name,
            halo_bench::pct(object),
            halo_bench::pct(page),
            halo_bench::pct(auto),
            coverage * 100.0,
            resolved.granularity,
            if resolved.auto_declined { " (declined to group)" } else { "" },
        )
    }) {
        println!("{row}");
    }
}
