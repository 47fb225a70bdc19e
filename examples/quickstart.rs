//! Quickstart: the paper's Figure 2 program, optimised end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the motivating workload (a token loop allocating three object
//! types, then a traversal touching only two of them), runs the full HALO
//! pipeline — profile → group → identify → rewrite → synthesise — and
//! compares L1D misses and simulated time against the jemalloc-style
//! baseline.

use halo::core::{measure, Halo, HaloConfig, MeasureConfig};
use halo::mem::SizeClassAllocator;
use halo::workloads::toy;

fn main() {
    let workload = toy::build();
    println!("workload: {} — {}", workload.name, workload.note);

    // 1. The pipeline: profile on the small train input, then group,
    //    identify, and rewrite.
    let halo = Halo::new(HaloConfig::default());
    let optimised = halo
        .optimise_with_arg(&workload.program, workload.train.seed, workload.train.arg)
        .expect("pipeline runs");
    println!(
        "\nprofile: {} contexts ({} retained), {} affinity edges",
        optimised.profile.contexts.len(),
        optimised.profile.alive_contexts().count(),
        optimised.profile.graph.edge_count(),
    );
    for group in &optimised.groups {
        let members: Vec<&str> =
            group.members.iter().map(|&m| optimised.profile.context(m).name.as_str()).collect();
        println!("group (weight {}): {:?}", group.weight, members);
    }
    println!(
        "identification: {} monitored call sites; rewriting added {} instructions",
        optimised.ident.site_bits.len(),
        optimised.rewrite.instructions_added,
    );

    // 2. Measure on the larger ref input: baseline vs HALO.
    let measure_cfg = MeasureConfig {
        seed: workload.reference.seed,
        entry_arg: workload.reference.arg,
        ..MeasureConfig::default()
    };
    let mut baseline_alloc = SizeClassAllocator::new();
    let baseline =
        measure(&workload.program, &mut baseline_alloc, &measure_cfg).expect("baseline runs");
    let mut halo_alloc = halo.make_allocator(&optimised);
    let optimised_run =
        measure(&optimised.program, &mut halo_alloc, &measure_cfg).expect("optimised runs");

    println!("\n{:<12} {:>14} {:>14}", "", "baseline", "HALO");
    println!(
        "{:<12} {:>14} {:>14}",
        "L1D misses", baseline.stats.l1_misses, optimised_run.stats.l1_misses
    );
    println!(
        "{:<12} {:>14.2} {:>14.2}",
        "Mcycles",
        baseline.cycles / 1e6,
        optimised_run.cycles / 1e6
    );
    println!(
        "\nmiss reduction: {:.1}%   speedup: {:.1}%",
        optimised_run.miss_reduction_vs(&baseline) * 100.0,
        optimised_run.speedup_vs(&baseline) * 100.0,
    );
    let stats = halo_alloc.report().stats.alloc;
    println!(
        "allocator: {} grouped, {} fell back to the default allocator",
        stats.grouped_allocs, stats.fallback_allocs
    );
}
