//! Chunk-size and spare-chunk-policy ablation (§5.1 configuration, §A.8
//! flags): the paper runs most benchmarks with 1 MiB chunks and one spare
//! chunk, omnetpp with 128 KiB chunks, and omnetpp/xalanc with chunks
//! always reused. This harness sweeps both knobs on health and reports
//! misses and fragmentation.

fn main() {
    halo_bench::banner("Ablation: chunk size × spare-chunk policy (health)");
    println!(
        "{:>10} {:>8} {:>14} {:>10} {:>10} {:>12}",
        "chunk", "spare", "L1D misses", "vs base", "frag %", "wasted"
    );
    let w = &halo_workloads::by_name("health").expect("health exists");
    // The sweep moves allocator knobs only: one baseline serves every row.
    let base = halo_bench::baseline(w, &halo_bench::paper_config(w));
    for chunk_size in [64 << 10, 256 << 10, 1 << 20, 4 << 20] {
        for (label, spare) in [("0", 0usize), ("1", 1), ("inf", usize::MAX)] {
            let mut config = halo_bench::paper_config(w);
            config.halo.alloc =
                config.halo.alloc.with_chunk_size(chunk_size).expect("swept sizes are valid");
            config.halo.alloc.max_spare_chunks = spare;
            let (_, alloc, m) = halo_bench::halo_run(w, &config);
            let frag = alloc.frag_report();
            println!(
                "{:>10} {:>8} {:>14} {:>10} {:>9.2}% {:>12}",
                halo_bench::human_bytes(chunk_size),
                label,
                m.stats.l1_misses,
                halo_bench::pct(m.miss_reduction_vs(&base)),
                frag.frag_fraction() * 100.0,
                halo_bench::human_bytes(frag.wasted_bytes()),
            );
        }
    }
}
