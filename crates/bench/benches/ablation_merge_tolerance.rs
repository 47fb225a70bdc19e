//! Merge-tolerance ablation (§4.2): "This slack in the merge-benefit
//! calculation can be controlled through the tolerance parameter T, which
//! we find performs well at around 5%. … Without this proviso, merging
//! behaviour would be too strict, and the majority of groups would consist
//! only of one or two nodes around the strongest edges."

fn main() {
    halo_bench::banner("Ablation: merge tolerance T (grouping slack)");
    println!(
        "{:<10} {:>6} {:>8} {:>12} {:>14} {:>10}",
        "benchmark", "T", "groups", "max members", "L1D misses", "vs base"
    );
    let workloads = halo_workloads::all();
    for name in ["povray", "health", "xalanc"] {
        let w = workloads.iter().find(|w| w.name == name).expect("known");
        let base = halo_bench::baseline(w, &halo_bench::paper_config(w));
        for t in [0.0, 0.01, 0.05, 0.15, 0.40] {
            let mut config = halo_bench::paper_config(w);
            config.halo.grouping.merge_tolerance = t;
            let (opt, _, m) = halo_bench::halo_run(w, &config);
            let max_members = opt.groups.iter().map(|g| g.members.len()).max().unwrap_or(0);
            println!(
                "{:<10} {:>6.2} {:>8} {:>12} {:>14} {:>10}",
                name,
                t,
                opt.groups.len(),
                max_members,
                m.stats.l1_misses,
                halo_bench::pct(m.miss_reduction_vs(&base)),
            );
        }
    }
}
