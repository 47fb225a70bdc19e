//! Co-allocatability ablation (§4.1): the fourth affinity-queue constraint
//! drops edges between contexts whose objects could never actually be
//! adjacent in a shared bump pool. Without it, groups form around
//! unrealisable affinities and the allocator's layout no longer matches
//! the graph's promises.

fn main() {
    halo_bench::banner("Ablation: co-allocatability constraint on/off");
    println!(
        "{:<10} {:<6} {:>8} {:>12} {:>14} {:>10}",
        "benchmark", "constr", "groups", "graph edges", "L1D misses", "vs base"
    );
    let workloads = halo_workloads::all();
    for name in ["health", "ft", "omnetpp"] {
        let w = workloads.iter().find(|w| w.name == name).expect("known");
        let base = halo_bench::baseline(w, &halo_bench::paper_config(w));
        for enforce in [true, false] {
            let mut config = halo_bench::paper_config(w);
            config.halo.profile.enforce_coallocatability = enforce;
            let (opt, _, m) = halo_bench::halo_run(w, &config);
            println!(
                "{:<10} {:<6} {:>8} {:>12} {:>14} {:>10}",
                name,
                if enforce { "on" } else { "off" },
                opt.groups.len(),
                opt.profile.graph.edge_count(),
                m.stats.l1_misses,
                halo_bench::pct(m.miss_reduction_vs(&base)),
            );
        }
    }
}
