//! Figure 12: time taken by omnetpp at various affinity distances
//! (A ∈ {2³ … 2¹⁷}), against the median baseline time as a reference line.
//!
//! The paper uses this sweep to select A = 128 for the evaluation. Our
//! omnetpp model responds only weakly to layout optimisation (see
//! EXPERIMENTS.md), so the harness also prints the same sweep for health,
//! where the characteristic shape — good at moderate distances, degrading
//! at the extremes — is clearly visible.
//!
//! The fifteen distance points are independent pipeline runs, so each
//! benchmark's sweep fans out across cores (`halo_core::par_map`) with
//! rows printed in ascending-A order. `HALO_THREADS=1` forces the serial
//! path.

fn main() {
    halo_bench::banner("Figure 12: simulated time vs affinity distance");
    let workloads = halo_workloads::all();
    for name in ["omnetpp", "health"] {
        let w = workloads.iter().find(|w| w.name == name).expect("known benchmark");
        let config = halo_bench::paper_config(w);
        // Baseline reference (the dashed line in the paper's figure).
        let base = halo_bench::baseline(w, &config);
        println!("\n--- {name}: baseline {:.2} Mcycles ---", base.cycles / 1e6);
        println!(
            "{:>10} {:>14} {:>10} {:>8} {:>16}",
            "A (bytes)", "halo Mcycles", "vs base", "groups", "profile Mqueue-ops"
        );
        let distances: Vec<u64> = (3..=17u32).map(|exp| 1u64 << exp).collect();
        for row in halo_core::par_map(&distances, |&a| {
            let mut cfg = config.clone();
            cfg.halo.profile.affinity_distance = a;
            let (optimised, _, halo) = halo_bench::halo_run(w, &cfg);
            format!(
                "{:>10} {:>14.2} {:>10} {:>8} {:>16.2}",
                a,
                halo.cycles / 1e6,
                halo_bench::pct(halo.speedup_vs(&base)),
                optimised.groups.len(),
                optimised.profile.queue_work as f64 / 1e6,
            )
        }) {
            println!("{row}");
        }
    }
}
