//! Identification ablation (§3, §5.2): HALO's full-context selectors vs
//! identifying the *same groups* by the immediate call site of the
//! allocation. Wrapper-heavy benchmarks collapse under immediate-site
//! identification because unrelated contexts share their final site.

use halo_core::measure;
use std::collections::HashMap;

fn main() {
    halo_bench::banner("Ablation: full-context selectors vs immediate call sites");
    println!("{:<10} {:<14} {:>14} {:>10}", "benchmark", "identification", "L1D misses", "vs base");
    for name in ["health", "povray", "xalanc", "leela"] {
        let w = &halo_workloads::by_name(name).expect("known");
        let config = halo_bench::paper_config(w);
        let base = halo_bench::baseline(w, &config);

        // Full context: the real HALO configuration.
        let (opt, _, full) = halo_bench::halo_run(w, &config);
        println!(
            "{:<10} {:<14} {:>14} {:>10}",
            name,
            "full-context",
            full.stats.l1_misses,
            halo_bench::pct(full.miss_reduction_vs(&base)),
        );

        // Immediate site: same groups, identified by each member's final
        // call site (no rewriting needed — runs the original binary).
        let mut site_map: HashMap<halo_vm::CallSite, usize> = HashMap::new();
        for (gi, g) in opt.groups.iter().enumerate() {
            for &m in &g.members {
                let chain = &opt.profile.context(m).chain;
                if let Some(&site) = chain.last() {
                    site_map.entry(site).or_insert(gi);
                }
            }
        }
        let mut site_alloc =
            halo_mem::HaloGroupAllocator::with_site_groups(config.halo.alloc, site_map);
        let site = measure(&w.program, &mut site_alloc, &config.measure).expect("runs");
        println!(
            "{:<10} {:<14} {:>14} {:>10}",
            name,
            "immediate-site",
            site.stats.l1_misses,
            halo_bench::pct(site.miss_reduction_vs(&base)),
        );
    }
}
