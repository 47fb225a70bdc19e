//! Criterion micro-benchmarks of the pipeline's algorithmic components:
//! affinity-queue throughput, grouping, SEQUITUR, selector evaluation, and
//! allocator hot paths. These are performance regressions guards for the
//! library itself (the figures/tables live in the `harness = false`
//! targets).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use halo_graph::{group, AffinityGraph, GroupingParams};
use halo_hds::Grammar;
use halo_mem::{
    GroupAllocConfig, GroupSelector, HaloGroupAllocator, SelectorTable, SizeClassAllocator,
};
use halo_profile::{AffinityQueue, QueueEntry};
use halo_vm::{CallSite, FuncId, GroupState, Memory, SplitMix64, VmAllocator};

fn synthetic_graph(nodes: u32, seed: u64) -> AffinityGraph {
    let mut g = AffinityGraph::new();
    let mut rng = SplitMix64::new(seed);
    let ids: Vec<_> = (0..nodes).map(|_| g.add_node(rng.next_below(10_000) + 1)).collect();
    // Clustered edges: dense within blocks of 8, sparse across.
    for (i, &u) in ids.iter().enumerate() {
        for (j, &v) in ids.iter().enumerate().skip(i + 1) {
            let same_block = i / 8 == j / 8;
            let p = if same_block { 2 } else { 64 };
            if rng.next_below(p) == 0 {
                g.add_edge_weight(u, v, rng.next_below(1000) + 1);
            }
        }
    }
    g
}

fn bench_grouping(c: &mut Criterion) {
    let graph = synthetic_graph(160, 42);
    let params = GroupingParams { min_weight: 1, ..Default::default() };
    c.bench_function("grouping/density_160_nodes", |b| {
        b.iter(|| group(std::hint::black_box(&graph), &params))
    });
}

fn bench_affinity_queue(c: &mut Criterion) {
    // Body shared with `halo bench` (halo_bench::affinity_queue_100k) so
    // the committed BENCH_profile.json rows stay comparable to this one.
    c.bench_function("profile/affinity_queue_100k", |b| b.iter(halo_bench::affinity_queue_100k));
    // Streaming variant: partners visit a closure instead of the reusable
    // scratch buffer — the shape the profiler itself uses.
    c.bench_function("profile/affinity_queue_100k_streaming", |b| {
        b.iter_batched(
            || AffinityQueue::new(128),
            |mut q| {
                let mut rng = SplitMix64::new(7);
                let mut partner_bytes = 0u64;
                for i in 0..100_000u64 {
                    let obj = rng.next_below(64);
                    let entry = QueueEntry {
                        obj,
                        ctx: halo_graph::NodeId((obj % 8) as u32),
                        alloc_seq: i,
                        size: 8,
                    };
                    q.record_with(entry, |p| partner_bytes += p.size);
                }
                partner_bytes
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_object_tracker(c: &mut Criterion) {
    // 1k live 40-byte objects, uniformly random lookups: the page index's
    // worst-friendly case (the last-hit cache misses ~100% of the time).
    // Body shared with `halo bench` (halo_bench::object_find_100k).
    c.bench_function("profile/object_find_100k", |b| b.iter(halo_bench::object_find_100k));
}

fn bench_coherent_cache(c: &mut Criterion) {
    // Shared body with `halo bench` (same name ⇒ comparable rows in
    // BENCH_profile.json): four logical threads through the MESI-lite
    // coherent hierarchy, mixing private and contended shared lines.
    c.bench_function("cache/coherent_access_100k", |b| b.iter(halo_bench::coherent_access_100k));
}

fn bench_vm(c: &mut Criterion) {
    // Shared bodies with `halo bench` (same names ⇒ comparable rows in
    // BENCH_profile.json): the interpreter with no monitor attached, and
    // simulated memory alone.
    let health = halo_workloads::health::build();
    c.bench_function("vm/null_run_health", |b| b.iter(|| halo_bench::vm_null_run(&health)));
    c.bench_function("vm/memory_rw_1m", |b| b.iter(halo_bench::vm_memory_rw_1m));
}

fn bench_identify(c: &mut Criterion) {
    // Shared body with `halo bench` (same name ⇒ comparable rows in
    // BENCH_profile.json): one Fig. 10 pass over 2 048 clustered contexts.
    let profile = halo_bench::identify_profile_2k();
    c.bench_function("ident/identify_2k", |b| b.iter(|| halo_bench::identify_2k(&profile)));
}

fn bench_sequitur(c: &mut Criterion) {
    let mut rng = SplitMix64::new(3);
    let input: Vec<u32> = (0..50_000).map(|_| rng.next_below(32) as u32).collect();
    c.bench_function("hds/sequitur_50k_symbols", |b| {
        b.iter(|| Grammar::build(std::hint::black_box(&input)).num_rules())
    });
}

fn bench_selector_classify(c: &mut Criterion) {
    let selectors = (0..16)
        .map(|g| GroupSelector {
            group: g,
            conjunctions: vec![vec![g as u16 * 2, g as u16 * 2 + 1]],
        })
        .collect();
    let table = SelectorTable::new(selectors, 32);
    let mut gs = GroupState::new(32);
    gs.set(30);
    gs.set(31);
    c.bench_function("mem/selector_classify_miss_16_groups", |b| {
        b.iter(|| table.classify(std::hint::black_box(&gs)))
    });
}

fn bench_allocators(c: &mut Criterion) {
    let site = CallSite::new(FuncId(0), 0);
    c.bench_function("mem/size_class_malloc_free_1k", |b| {
        b.iter_batched(
            || (SizeClassAllocator::new(), GroupState::default(), Memory::new()),
            |(mut a, gs, mut mem)| {
                let mut ptrs = Vec::with_capacity(1000);
                for i in 0..1000u64 {
                    ptrs.push(a.malloc(8 + (i % 8) * 16, site, &gs, &mut mem));
                }
                for p in ptrs {
                    a.free(p, &mut mem);
                }
            },
            BatchSize::SmallInput,
        )
    });
    // Shared body with `halo bench` (same name ⇒ comparable rows in
    // BENCH_profile.json): grouped hot path under per-group plans.
    c.bench_function("mem/group_alloc_malloc_free_100k", |b| {
        b.iter(halo_bench::group_alloc_malloc_free_100k)
    });
    // Shared with `halo bench` likewise: the thread-safe sharded runtime
    // under real producer/consumer threads and remote frees.
    c.bench_function("mem/sharded_alloc_mt", |b| b.iter(halo_bench::sharded_alloc_mt));
    // Shared with `halo bench` likewise: epoch-based plan hot-swaps under
    // steady allocation traffic (the `halo serve` transition, §15).
    c.bench_function("serve/plan_swap", |b| b.iter(halo_bench::serve_plan_swap));
    c.bench_function("mem/group_alloc_malloc_free_1k", |b| {
        let table =
            SelectorTable::new(vec![GroupSelector { group: 0, conjunctions: vec![vec![0]] }], 1);
        b.iter_batched(
            || {
                let a = HaloGroupAllocator::new(GroupAllocConfig::default(), table.clone());
                let mut gs = GroupState::new(1);
                gs.set(0);
                (a, gs, Memory::new())
            },
            |(mut a, gs, mut mem)| {
                let mut ptrs = Vec::with_capacity(1000);
                for i in 0..1000u64 {
                    ptrs.push(a.malloc(8 + (i % 8) * 16, site, &gs, &mut mem));
                }
                for p in ptrs {
                    a.free(p, &mut mem);
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn config() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_grouping, bench_affinity_queue, bench_object_tracker,
              bench_coherent_cache, bench_vm, bench_identify, bench_sequitur,
              bench_selector_classify, bench_allocators
}
criterion_main!(benches);
