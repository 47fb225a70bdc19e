//! Future-work ablation (§6): bump allocation vs. mimalloc-style free-list
//! sharding inside group chunks, plus the per-group `auto` policy that
//! promotes the winner. The paper names fragmentation as its prototype's
//! main weakness and suggests exactly this replacement; the interesting
//! trade-off is fragmentation (Table 1's metric) against the contiguity
//! that bump allocation guarantees (misses). `auto` resolves the tension
//! per group: flips are validated on the train input and kept only where
//! they cut fragmentation without costing misses.
//!
//! The first non-flag CLI argument filters the benchmark list (`cargo
//! bench --bench ablation_reuse_policy -- leela` runs just the leela
//! rows) — CI's bench-smoke step relies on this to stay cheap.

use halo_core::{measure, Halo};
use halo_graph::ReusePolicyChoice;

fn main() {
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    halo_bench::banner("Ablation: in-chunk reuse policy (bump | sharded | per-group auto)");
    println!(
        "{:<10} {:<10} {:>14} {:>10} {:>10} {:>12}   resolved plans",
        "benchmark", "policy", "L1D misses", "vs base", "frag %", "wasted"
    );
    let workloads = halo_workloads::all();
    for name in ["leela", "health", "omnetpp", "povray"] {
        if filter.as_deref().is_some_and(|needle| !name.contains(needle)) {
            continue;
        }
        let w = workloads.iter().find(|w| w.name == name).expect("known");
        for choice in ReusePolicyChoice::ALL {
            let mut config = halo_bench::paper_config(w);
            config.halo.reuse = choice;
            let halo = Halo::new(config.halo);
            let opt = halo
                .optimise_with_arg(&w.program, w.train.seed, w.train.arg)
                .expect("pipeline runs");
            let mut base_alloc = halo_mem::SizeClassAllocator::new();
            let base = measure(&w.program, &mut base_alloc, &config.measure).expect("base runs");
            let mut alloc = halo.make_allocator(&opt);
            let m = measure(&opt.program, &mut alloc, &config.measure).expect("halo runs");
            let frag = alloc.frag_report();
            let plans: Vec<String> =
                opt.groups.iter().enumerate().map(|(i, g)| format!("g{i} {}", g.plan)).collect();
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
