//! Figure 9: allocation groups generated by instrumenting the povray test
//! workload. The paper renders a graph with nodes coloured by group and
//! "edges with weight less than 200,000 hidden to reduce visual noise";
//! this harness prints the same structure textually: each group with its
//! member contexts, plus the strong inter-context edges.

fn main() {
    halo_bench::banner("Figure 9: allocation groups for the povray test workload");
    let w = &halo_workloads::by_name("povray").expect("povray exists");
    let (_, opt) = halo_bench::optimise(w, &halo_bench::paper_config(w));

    // Hide weak edges, like the paper's figure. Our simulated profile is
    // smaller, so scale the threshold with the observed total weight.
    let total_weight: u64 = opt.profile.graph.edges().map(|(_, _, w)| w).sum();
    let threshold = total_weight / 50;

    println!("contexts ({} after filtering):", opt.profile.alive_contexts().count());
    for c in opt.profile.alive_contexts() {
        let group = opt
            .groups
            .iter()
            .position(|g| g.members.contains(&c.id))
            .map(|g| format!("group {g}"))
            .unwrap_or_else(|| "ungrouped".to_string());
        println!("  [{group:>9}] {} (allocs {}, accesses {})", c.name, c.allocs, c.accesses);
    }
    println!("\ngroups:");
    for (gi, g) in opt.groups.iter().enumerate() {
        let names: Vec<&str> =
            g.members.iter().map(|&m| opt.profile.context(m).name.as_str()).collect();
        println!("  group {gi}: weight {} accesses {} members {:?}", g.weight, g.accesses, names);
    }
    println!("\nedges with weight ≥ {threshold} (weaker edges hidden):");
    let mut edges: Vec<_> = opt.profile.graph.edges().filter(|&(_, _, w)| w >= threshold).collect();
    edges.sort_by_key(|&(_, _, w)| std::cmp::Reverse(w));
    for (u, v, weight) in edges {
        println!(
            "  {} ←→ {}  weight {weight}",
            opt.profile.context(u).name,
            opt.profile.context(v).name
        );
    }
    println!("\nselectors (evaluation order):");
    for s in &opt.ident.selectors {
        println!(
            "  group {}: {} conjunction(s) over {} monitored sites",
            s.group,
            s.conjunctions.len(),
            opt.ident.site_bits.len()
        );
    }

    // Emit the actual figure as Graphviz, like the paper's rendering.
    let dot = halo_graph::to_dot(
        &opt.profile.graph,
        &|n| opt.profile.context(n).name.clone(),
        &opt.groups,
        threshold,
    );
    let path = std::env::temp_dir().join("halo_fig09_povray.dot");
    match std::fs::write(&path, &dot) {
        Ok(()) => {
            println!("\nGraphviz figure written to {} (render with `neato -Tpdf`)", path.display())
        }
        Err(e) => println!("\n(could not write DOT file: {e})"),
    }
}
