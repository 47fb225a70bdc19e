//! The §3 case study: povray's allocation-wrapper pattern.
//!
//! ```text
//! cargo run --release --example povray_pipeline
//! ```
//!
//! Runs both HALO and the hot-data-streams comparison technique on the
//! povray model, showing why full-context identification pierces the
//! `pov_malloc` wrapper while immediate-call-site identification cannot
//! (the technique finds nothing it can act on).

use halo::core::{evaluate_with_arg, EvalConfig, HaloConfig};
use halo::graph::GroupingParams;
use halo::workloads::povray;

fn main() {
    let workload = povray::build();
    println!("workload: {} — {}", workload.name, workload.note);

    let config = EvalConfig {
        halo: HaloConfig {
            grouping: GroupingParams { min_weight: 32, ..Default::default() },
            ..HaloConfig::default()
        },
        ..EvalConfig::default()
    };
    let mut config = config;
    config.measure.seed = workload.reference.seed;
    config.measure.entry_arg = workload.reference.arg;

    let result = evaluate_with_arg(
        &workload.program,
        workload.name,
        workload.train.seed,
        workload.train.arg,
        &config,
    )
    .expect("evaluation runs");

    println!("\n--- HALO (full-context identification) ---");
    for (gi, group) in result.optimised.groups.iter().enumerate() {
        let members: Vec<&str> = group
            .members
            .iter()
            .map(|&m| result.optimised.profile.context(m).name.as_str())
            .collect();
        println!("group {gi}: {members:?}");
    }
    println!(
        "monitored sites: {}  (the wrapper-internal malloc site is useless,\n\
         so selectors key on the create_* call sites instead)",
        result.optimised.ident.site_bits.len()
    );

    println!("\n--- hot data streams (immediate-call-site identification) ---");
    println!(
        "hot streams: {}  co-allocation sets surviving the benefit model: {}",
        result.hds_analysis.stats.hot_streams, result.hds_analysis.stats.beneficial_sets
    );
    println!(
        "site groups: {} (every allocation shares pov_malloc's one site, so\n\
         pooling it would reproduce the original layout — the analysis\n\
         projects no gain and emits nothing)",
        result.hds_analysis.site_map.values().max().map_or(0, |&g| g + 1)
    );

    let (hds_mr, halo_mr) = result.miss_reduction_row();
    let (hds_su, halo_su) = result.speedup_row();
    println!("\n{:<22} {:>10} {:>10}", "", "HDS", "HALO");
    println!("{:<22} {:>9.1}% {:>9.1}%", "L1D miss reduction", hds_mr * 100.0, halo_mr * 100.0);
    println!("{:<22} {:>9.1}% {:>9.1}%", "speedup", hds_su * 100.0, halo_su * 100.0);
    println!(
        "\n(povray is compute-bound: HALO removes misses but the render loop's\n\
         arithmetic dominates simulated time, as in the paper's Figs. 13/14)"
    );
}
