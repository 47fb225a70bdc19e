//! Coherence ablation: does per-thread sharding actually cut invalidation
//! traffic? The paper's §5.4 motivates thread-sharded arenas by contention
//! on shared allocator state; the MESI-lite model makes the claim
//! measurable in simulation. For each multi-threaded workload this harness
//! measures the jemalloc-style baseline, plain HALO (one arena — producer
//! and consumer objects share lines), and `halo-sharded` (per-thread
//! shards), printing misses, simulated cycles, the coherence counters, and
//! the per-thread miss breakdown, then states the sharded-vs-plain
//! invalidation verdict the acceptance gate checks.

use halo_core::ConfigResult;

fn thread_misses(r: &ConfigResult) -> String {
    let parts: Vec<String> =
        r.thread_stats.iter().map(|t| format!("t{}:{}", t.thread, t.stats.l1_misses)).collect();
    format!("[{}]", parts.join(" "))
}

fn row(name: &str, id: &str, r: &ConfigResult) {
    let c = r.measurement.coherence;
    println!(
        "{:<10} {:<13} {:>12} {:>14.0} {:>8} {:>8} {:>8}   {}",
        name,
        id,
        r.measurement.stats.l1_misses,
        r.measurement.cycles,
        c.invalidations,
        c.upgrades,
        c.remote_fills,
        thread_misses(r),
    );
}

fn main() {
    halo_bench::banner("Ablation: coherence traffic, sharded vs plain HALO");
    println!(
        "{:<10} {:<13} {:>12} {:>14} {:>8} {:>8} {:>8}   per-thread L1D misses",
        "benchmark", "backend", "L1D misses", "cycles", "inval", "upgrade", "rfill"
    );
    for w in halo_workloads::multithreaded() {
        let result = halo_bench::run_workload(&w, &["halo-sharded"]);
        let plain = result.halo();
        let sharded = result.get("halo-sharded").expect("extra backend measured");
        row(w.name, "baseline", result.baseline());
        row(w.name, "halo", plain);
        row(w.name, "halo-sharded", sharded);
        let pc = plain.measurement.coherence;
        let sc = sharded.measurement.coherence;
        let verdict = if sc.invalidations < pc.invalidations { "FEWER" } else { "NOT FEWER" };
        println!(
            "{:<10} sharded invalidations vs plain: {} ({} vs {})",
            w.name, verdict, sc.invalidations, pc.invalidations
        );
    }
}
