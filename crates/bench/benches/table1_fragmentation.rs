//! Table 1: fragmentation behaviour of grouped objects at peak memory
//! usage — percentage of resident grouped memory that is not live, and the
//! absolute wasted bytes.

fn main() {
    halo_bench::banner("Table 1: fragmentation of grouped data at peak usage");
    println!(
        "{:<10} {:>10} {:>14} {:>16} {:>14}",
        "benchmark", "Frag. (%)", "Frag. (bytes)", "peak resident", "grouped allocs"
    );
    // The paper lists the nine benchmarks where this could be measured.
    let order = ["health", "equake", "analyzer", "ammp", "art", "ft", "povray", "roms", "leela"];
    for name in order {
        let w = &halo_workloads::by_name(name).expect("known benchmark");
        let r = halo_bench::run_workload(w, &[]);
        let frag = r.halo().frag.expect("HALO config reports fragmentation");
        let stats = r.halo().alloc_stats.expect("HALO config reports allocator stats");
        println!(
            "{:<10} {:>9.2}% {:>14} {:>16} {:>14}",
            name,
            frag.frag_fraction() * 100.0,
            halo_bench::human_bytes(frag.wasted_bytes()),
            halo_bench::human_bytes(frag.peak_resident_bytes),
            stats.grouped_allocs,
        );
    }
}
