//! Grouping-algorithm ablation (§4.2): the paper claims its greedy
//! density-based algorithm "generates clusters we find to be more amenable
//! to region-based co-allocation than standard modularity, HCS, or
//! cut-based clustering techniques". This harness swaps the clusterer while
//! keeping every other stage fixed and measures the end-to-end result.

use halo_bench::alt::{hcs_clusters, modularity_clusters};
use halo_core::measure;
use halo_graph::{group, AffinityGraph, Group, NodeId};
use halo_ident::{contexts_from_profile, identify};
use halo_rewrite::instrument;

fn clusters_to_groups(graph: &AffinityGraph, clusters: Vec<Vec<NodeId>>) -> Vec<Group> {
    clusters
        .into_iter()
        .map(|members| {
            let mut weight = 0;
            for i in 0..members.len() {
                for j in i..members.len() {
                    weight += graph.weight(members[i], members[j]);
                }
            }
            let accesses = members.iter().map(|&m| graph.accesses(m)).sum();
            Group { members, weight, accesses, plan: Default::default() }
        })
        .collect()
}

fn main() {
    halo_bench::banner("Ablation: grouping algorithm (density-greedy vs modularity vs HCS)");
    println!(
        "{:<10} {:<12} {:>8} {:>14} {:>10}",
        "benchmark", "algorithm", "groups", "L1D misses", "vs base"
    );
    for name in ["health", "ft", "povray", "xalanc"] {
        let w = &halo_workloads::by_name(name).expect("known");
        let config = halo_bench::paper_config(w);
        // The profile every clusterer reads is the pipeline's own; the
        // stages after grouping are re-run per candidate below, which is
        // the point of this harness.
        let profile = halo_bench::optimise(w, &config).1.profile;
        let base = halo_bench::baseline(w, &config);

        let candidates: Vec<(&str, Vec<Group>)> = vec![
            ("density", group(&profile.graph, &config.halo.grouping)),
            ("modularity", clusters_to_groups(&profile.graph, modularity_clusters(&profile.graph))),
            (
                "hcs",
                clusters_to_groups(
                    &profile.graph,
                    hcs_clusters(&profile.graph, config.halo.grouping.min_weight),
                ),
            ),
        ];
        for (alg, groups) in candidates {
            let contexts = contexts_from_profile(&profile);
            let ident = identify(&groups, &contexts);
            let (rewritten, _) = instrument(&w.program, &ident.site_bits);
            let mut alloc =
                halo_mem::HaloGroupAllocator::new(config.halo.alloc, ident.table.clone());
            let m = measure(&rewritten, &mut alloc, &config.measure).expect("run ok");
            println!(
                "{:<10} {:<12} {:>8} {:>14} {:>10}",
                name,
                alg,
                groups.len(),
                m.stats.l1_misses,
                halo_bench::pct(m.miss_reduction_vs(&base)),
            );
        }
    }
}
