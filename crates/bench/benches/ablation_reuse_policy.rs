//! Future-work ablation (§6): bump allocation vs. mimalloc-style free-list
//! sharding inside group chunks, plus the per-group `auto` policy that
//! promotes the winner. The paper names fragmentation as its prototype's
//! main weakness and suggests exactly this replacement; the interesting
//! trade-off is fragmentation (Table 1's metric) against the contiguity
//! that bump allocation guarantees (misses). `auto` resolves the tension
//! per group: flips are validated on the train input and kept only where
//! they cut fragmentation without costing misses.

use halo_graph::ReusePolicyChoice;

fn main() {
    halo_bench::banner("Ablation: in-chunk reuse policy (bump | sharded | per-group auto)");
    println!(
        "{:<10} {:<10} {:>14} {:>10} {:>10} {:>12}   resolved plans",
        "benchmark", "policy", "L1D misses", "vs base", "frag %", "wasted"
    );
    for name in ["leela", "health", "omnetpp", "povray"] {
        let w = &halo_workloads::by_name(name).expect("known");
        let base = halo_bench::baseline(w, &halo_bench::paper_config(w));
        for choice in ReusePolicyChoice::ALL {
            let mut config = halo_bench::paper_config(w);
            config.halo.reuse = choice;
            let (opt, alloc, m) = halo_bench::halo_run(w, &config);
            let frag = alloc.report().frag;
            let plans: Vec<String> =
                opt.group_configs.iter().enumerate().map(|(i, c)| format!("g{i} {c}")).collect();
            println!(
                "{:<10} {:<10} {:>14} {:>10} {:>9.2}% {:>12}   [{}]",
                name,
                choice.to_string(),
                m.stats.l1_misses,
                halo_bench::pct(m.miss_reduction_vs(&base)),
                frag.frag_fraction() * 100.0,
                halo_bench::human_bytes(frag.wasted_bytes()),
                plans.join(", "),
            );
        }
    }
}
