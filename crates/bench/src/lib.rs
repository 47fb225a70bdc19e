//! Shared machinery for the benchmark harnesses that regenerate every
//! table and figure of the paper's evaluation (see DESIGN.md §5 for the
//! index).
//!
//! Each figure/table lives in `benches/` as a `harness = false` target, so
//! `cargo bench --workspace` reproduces the full evaluation; the Criterion
//! micro-benchmarks of pipeline components live in `benches/micro_*`.

pub mod compare;

use halo_core::{evaluate_with_arg, EvalConfig, EvalResult, HaloConfig, MeasureConfig};
use halo_graph::{Granularity, GroupingParams, ReusePolicyChoice};
use halo_hds::HdsConfig;
use halo_mem::GroupAllocConfig;
use halo_profile::ProfileConfig;
use halo_vm::EngineLimits;
use halo_workloads::Workload;

/// Engine limits generous enough for every ref-scale run.
pub fn bench_limits() -> EngineLimits {
    EngineLimits { max_instructions: 2_000_000_000, max_call_depth: 256 }
}

/// The per-workload configuration used throughout the evaluation,
/// reproducing §5.1 plus the artefact appendix's per-benchmark flags
/// (§A.8): omnetpp runs with `--chunk-size 131072 --max-spare-chunks 0`,
/// xalanc with `--max-spare-chunks 0`, and roms with `--max-groups 4`.
/// omnetpp and xalanc "have group chunks always reused due to a limitation
/// of [the] current implementation", which `max_spare_chunks = usize::MAX`
/// models.
///
/// On top of the artefact flags, roms and omnetpp run under
/// `--granularity auto` (our §6 extension): roms's regularities live at
/// page granularity (the fallback finds them), and omnetpp's grouping
/// splits each event wave across per-module chunks — a measured *train*
/// regression at both granularities, so auto declines to group. A
/// chunk-size × spare-chunk sweep (`ablation_chunk_policy` run on
/// omnetpp) leaves the regression untouched at every setting, which is
/// why the fix is the policy, not the chunk knobs.
///
/// The fragmentation-extreme benchmarks of Table 1 (leela, health — plus
/// roms, §6's other named offender) additionally run under
/// `--reuse-policy auto`: the `ablation_reuse_policy` winner (mimalloc-
/// style sharded free lists) promoted as a per-group, train-validated
/// default rather than a blanket switch, so groups whose bump contiguity
/// is winning misses keep bump.
pub fn paper_config(workload: &Workload) -> EvalConfig {
    let mut grouping = GroupingParams {
        min_weight: 32,
        merge_tolerance: 0.05,
        group_threshold: 0.0005,
        ..GroupingParams::default()
    };
    let mut alloc = GroupAllocConfig {
        chunk_size: 1 << 20,
        max_spare_chunks: 1,
        max_grouped_size: 4096,
        ..GroupAllocConfig::default()
    };
    let mut granularity = Granularity::Object;
    let mut reuse = ReusePolicyChoice::Bump;
    match workload.name {
        "omnetpp" => {
            alloc.chunk_size = 131_072;
            alloc.slab_size = 131_072 * 64;
            alloc.max_spare_chunks = usize::MAX;
            granularity = Granularity::Auto;
        }
        "xalanc" => {
            alloc.max_spare_chunks = usize::MAX;
        }
        "roms" => {
            grouping.max_groups = Some(4);
            granularity = Granularity::Auto;
            reuse = ReusePolicyChoice::Auto;
        }
        "leela" | "health" => {
            reuse = ReusePolicyChoice::Auto;
        }
        _ => {}
    }
    EvalConfig {
        halo: HaloConfig {
            profile: ProfileConfig {
                affinity_distance: 128,
                max_tracked_size: 4096,
                keep_fraction: 0.9,
                enforce_coallocatability: true,
                granularity,
            },
            grouping,
            alloc,
            limits: bench_limits(),
            reuse,
            ..HaloConfig::default()
        },
        hds: HdsConfig::default(),
        measure: MeasureConfig {
            limits: bench_limits(),
            seed: workload.reference.seed,
            entry_arg: workload.reference.arg,
            ..MeasureConfig::default()
        },
        extras: Vec::new(),
        ..EvalConfig::default()
    }
}

/// Evaluate one workload with the paper configuration (plus the named
/// optional registry backends), following the §5.1 methodology.
pub fn run_workload(workload: &Workload, extras: &[&'static str]) -> EvalResult {
    let mut config = paper_config(workload);
    config.extras = extras.to_vec();
    evaluate_with_arg(
        &workload.program,
        workload.name,
        workload.train.seed,
        workload.train.arg,
        &config,
    )
    .unwrap_or_else(|e| panic!("workload {} failed: {e}", workload.name))
}

/// Measure only the jemalloc-style baseline and the HALO configuration for
/// a workload under `config` — the light-weight path used by sweeps
/// (Fig. 12 and the ablations), which do not need the comparison technique.
pub fn run_halo_only(
    workload: &Workload,
    config: &EvalConfig,
) -> (halo_core::Measurement, halo_core::Measurement, halo_core::Optimised) {
    // Mirror evaluate_with_arg: the auto-granularity policy validates by
    // measurement and must see the same memory-subsystem geometry.
    let mut halo_config = config.halo;
    halo_config.hierarchy = config.measure.hierarchy;
    halo_config.timing = config.measure.timing;
    let halo = halo_core::Halo::new(halo_config);
    let optimised = halo
        .optimise_with_arg(&workload.program, workload.train.seed, workload.train.arg)
        .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", workload.name));
    let mut base_alloc = halo_mem::SizeClassAllocator::new();
    let base = halo_core::measure(&workload.program, &mut base_alloc, &config.measure)
        .unwrap_or_else(|e| panic!("{}: baseline run failed: {e}", workload.name));
    let mut halo_alloc = halo.make_allocator(&optimised);
    let opt = halo_core::measure(&optimised.program, &mut halo_alloc, &config.measure)
        .unwrap_or_else(|e| panic!("{}: HALO run failed: {e}", workload.name));
    (base, opt, optimised)
}

/// Measure the baseline against one registry backend on the unmodified
/// binary (Fig. 15 and the §5.1 allocator comparison) — the light-weight
/// path that skips the pipeline, so only backends that measure the
/// original binary without pipeline artefacts qualify.
///
/// # Panics
///
/// Panics if `id` is not a registry backend, or names one that needs the
/// rewritten binary or the pipeline artefacts.
pub fn run_backend_pair(
    workload: &Workload,
    id: &str,
) -> (halo_core::Measurement, halo_core::Measurement) {
    let spec = halo_core::backend_spec(id)
        .unwrap_or_else(|| panic!("unknown backend '{id}' (see halo_core::BACKENDS)"));
    assert!(
        spec.needs == halo_core::BackendNeeds::Nothing,
        "backend '{id}' needs the full evaluate() path"
    );
    let config = paper_config(workload);
    let mut base_alloc = halo_mem::SizeClassAllocator::new();
    let base = halo_core::measure(&workload.program, &mut base_alloc, &config.measure)
        .unwrap_or_else(|e| panic!("{}: baseline run failed: {e}", workload.name));
    let ctx = halo_core::BackendCtx { config: &config, halo: None, optimised: None, hds: None };
    let mut other = spec.make_allocator(&ctx);
    let m = halo_core::measure(&workload.program, &mut other, &config.measure)
        .unwrap_or_else(|e| panic!("{}: comparison run failed: {e}", workload.name));
    (base, m)
}

/// The `profile/affinity_queue_100k` micro-workload: A = 128, 64 hot
/// objects, 8-byte accesses, 100k records. One body shared by the
/// Criterion micro-bench and `halo bench` so their same-named rows stay
/// comparable PR-over-PR.
pub fn affinity_queue_100k() -> usize {
    let mut q = halo_profile::AffinityQueue::new(128);
    let mut rng = halo_vm::SplitMix64::new(7);
    for i in 0..100_000u64 {
        let obj = rng.next_below(64);
        q.record(halo_profile::QueueEntry {
            obj,
            ctx: halo_graph::NodeId((obj % 8) as u32),
            alloc_seq: i,
            size: 8,
        });
    }
    q.len()
}

/// The `profile/object_find_100k` micro-workload: 1k live 40-byte objects,
/// 100k uniformly random lookups (the last-hit cache misses almost always,
/// exercising the page index). Shared like [`affinity_queue_100k`].
pub fn object_find_100k() -> u64 {
    let mut t = halo_profile::ObjectTracker::new();
    for i in 0..1000u64 {
        t.insert(i, 0x1000 + i * 48, 40, halo_graph::NodeId((i % 16) as u32));
    }
    let mut rng = halo_vm::SplitMix64::new(11);
    let mut hits = 0u64;
    for _ in 0..100_000u64 {
        let obj = rng.next_below(1000);
        let addr = 0x1000 + obj * 48 + rng.next_below(48);
        if t.find(addr).is_some() {
            hits += 1;
        }
    }
    hits
}

/// The `mem/group_alloc_malloc_free_100k` micro-workload: 100k
/// malloc/free pairs through [`halo_mem::HaloGroupAllocator`]'s grouped
/// hot path — two groups with different per-group plans (bump and sharded
/// free lists) plus interleaved fallback traffic, mixed sizes, and
/// periodic burst frees so chunk reuse, the sharded shards, and the spare
/// pool all stay exercised. One body shared by the Criterion micro-bench
/// and `halo bench` so allocator-layer regressions land in
/// `BENCH_profile.json` like the profiler ones do.
pub fn group_alloc_malloc_free_100k() -> u64 {
    use halo_mem::{GroupSelector, HaloGroupAllocator, ReusePolicy, SelectorTable};
    use halo_vm::VmAllocator as _;
    let config = GroupAllocConfig {
        chunk_size: 65_536,
        slab_size: 65_536 * 64,
        ..GroupAllocConfig::default()
    };
    let table = SelectorTable::new(
        vec![
            GroupSelector { group: 0, conjunctions: vec![vec![0]] },
            GroupSelector { group: 1, conjunctions: vec![vec![1]] },
        ],
        2,
    );
    let overrides =
        vec![config, GroupAllocConfig { reuse_policy: ReusePolicy::ShardedFreeLists, ..config }];
    let mut a = HaloGroupAllocator::with_group_configs(config, table, overrides);
    let site = halo_vm::CallSite::new(halo_vm::FuncId(0), 0);
    let mut gs = halo_vm::GroupState::new(2);
    let mut mem = halo_vm::Memory::new();
    let mut rng = halo_vm::SplitMix64::new(23);
    let mut live: Vec<u64> = Vec::with_capacity(1024);
    for i in 0..100_000u64 {
        gs.reset();
        match i % 3 {
            0 => gs.set(0),
            1 => gs.set(1),
            _ => {} // fallback traffic
        }
        let size = 16 + rng.next_below(12) * 16;
        live.push(a.malloc(size, site, &gs, &mut mem));
        // Burst-free most of the backlog so chunks empty and recycle.
        if live.len() == 1024 {
            for p in live.drain(64..) {
                a.free(p, &mut mem);
            }
        }
    }
    for p in live.drain(..) {
        a.free(p, &mut mem);
    }
    let stats = a.stats();
    stats.grouped_allocs + stats.fallback_allocs + stats.chunks_reused
}

/// The `mem/sharded_alloc_mt` micro-workload: four OS threads (two
/// producers, two consumers) hammer one 4-shard
/// [`halo_mem::ShardedHaloAllocator`] through the [`halo_vm::SyncVmAllocator`]
/// face — 50k mallocs, every pointer freed on a *different* thread so the
/// whole stream rides the owner-shard remote-free queues. One body shared
/// by the Criterion micro-bench and `halo bench` so the concurrent hot
/// path's regressions land in `BENCH_profile.json` like the rest.
pub fn sharded_alloc_mt() -> u64 {
    use halo_mem::{GroupSelector, SelectorTable, ShardedHaloAllocator};
    use halo_vm::SyncVmAllocator as _;
    const PRODUCERS: usize = 2;
    const MALLOCS_PER_PRODUCER: u64 = 25_000;
    let config = GroupAllocConfig {
        chunk_size: 65_536,
        slab_size: 65_536 * 64,
        ..GroupAllocConfig::default()
    };
    let table = SelectorTable::new(
        vec![
            GroupSelector { group: 0, conjunctions: vec![vec![0]] },
            GroupSelector { group: 1, conjunctions: vec![vec![1]] },
        ],
        2,
    );
    let site = halo_vm::CallSite::new(halo_vm::FuncId(0), 0);
    let alloc = ShardedHaloAllocator::new(4, config, table, Vec::new());
    std::thread::scope(|scope| {
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..PRODUCERS).map(|_| std::sync::mpsc::channel::<u64>()).unzip();
        for (p, tx) in senders.into_iter().enumerate() {
            let alloc = &alloc;
            scope.spawn(move || {
                let mut mem = halo_vm::Memory::new();
                let mut gs = halo_vm::GroupState::new(2);
                gs.set((p % 2) as u16);
                let mut rng = halo_vm::SplitMix64::new(p as u64 + 29);
                for _ in 0..MALLOCS_PER_PRODUCER {
                    let size = 16 + rng.next_below(12) * 16;
                    tx.send(alloc.malloc(size, site, &gs, &mut mem)).expect("consumer alive");
                }
            });
        }
        for rx in receivers {
            let alloc = &alloc;
            scope.spawn(move || {
                let mut mem = halo_vm::Memory::new();
                for ptr in rx {
                    alloc.free(ptr, &mut mem);
                }
            });
        }
    });
    let mut mem = halo_vm::Memory::new();
    alloc.drain_remote(&mut mem);
    let stats = alloc.sharded_stats();
    assert_eq!(
        stats.alloc.grouped_allocs + stats.alloc.fallback_allocs,
        PRODUCERS as u64 * MALLOCS_PER_PRODUCER
    );
    stats.alloc.grouped_allocs + stats.remote_frees + stats.remote_drained
}

/// The `serve/plan_swap` micro-workload: 50k malloc/free pairs through a
/// 4-shard [`halo_mem::ShardedHaloAllocator`] with a
/// [`halo_mem::ShardedHaloAllocator::swap_plans`] hot-swap every 2k
/// operations, alternating between two per-group plans — the `halo serve`
/// epoch transition (DESIGN.md §15) under steady allocation traffic, so
/// both the swap latency (all shard locks held) and the post-swap
/// fresh-chunk carving land in `BENCH_profile.json`. One body shared by
/// the Criterion micro-bench and `halo bench` like the rest.
pub fn serve_plan_swap() -> u64 {
    use halo_mem::{GroupSelector, SelectorTable, ShardedHaloAllocator};
    use halo_vm::SyncVmAllocator as _;
    let config = GroupAllocConfig {
        chunk_size: 65_536,
        slab_size: 65_536 * 64,
        ..GroupAllocConfig::default()
    };
    let table = SelectorTable::new(
        vec![
            GroupSelector { group: 0, conjunctions: vec![vec![0]] },
            GroupSelector { group: 1, conjunctions: vec![vec![1]] },
        ],
        2,
    );
    let plans = [
        vec![GroupAllocConfig { chunk_size: 16_384, ..config }, config],
        vec![config, GroupAllocConfig { chunk_size: 131_072, ..config }],
    ];
    let alloc = ShardedHaloAllocator::new(4, config, table.clone(), plans[0].clone());
    let site = halo_vm::CallSite::new(halo_vm::FuncId(0), 0);
    let mut mem = halo_vm::Memory::new();
    let mut gs = halo_vm::GroupState::new(2);
    let mut rng = halo_vm::SplitMix64::new(41);
    let mut live: Vec<u64> = Vec::with_capacity(1024);
    for i in 0..50_000u64 {
        if i % 2_000 == 1_000 {
            let next = &plans[((i / 2_000) % 2) as usize];
            alloc.swap_plans(table.clone(), next.clone());
        }
        gs.reset();
        match i % 3 {
            0 => gs.set(0),
            1 => gs.set(1),
            _ => {} // fallback traffic
        }
        let size = 16 + rng.next_below(12) * 16;
        live.push(alloc.malloc(size, site, &gs, &mut mem));
        if live.len() == 1024 {
            for p in live.drain(64..) {
                alloc.free(p, &mut mem);
            }
        }
    }
    for p in live.drain(..) {
        alloc.free(p, &mut mem);
    }
    alloc.drain_remote(&mut mem);
    let stats = alloc.sharded_stats();
    assert_eq!(alloc.plan_epoch(), 25, "one swap per 2k operations");
    stats.alloc.grouped_allocs + stats.alloc.fallback_allocs + alloc.plan_epoch()
}

/// The `cache/coherent_access_100k` micro-workload: four logical threads
/// round-robin over a [`halo_cache::CoherentHierarchy`] (Xeon W-2195
/// geometry), each mostly walking a private 16 KiB region but with every
/// eighth access landing in one shared 4 KiB region and every fourth
/// access a store — so the MESI-lite probe, invalidation, and upgrade
/// paths all stay hot. One body shared by the Criterion micro-bench and
/// `halo bench` so coherence-model regressions land in
/// `BENCH_profile.json` like the rest.
pub fn coherent_access_100k() -> u64 {
    use halo_cache::{CoherentHierarchy, HierarchyConfig};
    const THREADS: u16 = 4;
    let mut h = CoherentHierarchy::new(HierarchyConfig::xeon_w2195());
    let mut rng = halo_vm::SplitMix64::new(37);
    for i in 0..100_000u64 {
        let t = (i % THREADS as u64) as u16;
        h.set_thread(t);
        let store = rng.next_below(4) == 0;
        let addr = if rng.next_below(8) == 0 {
            // Shared 4 KiB region all threads contend on.
            0x10_0000 + rng.next_below(4096)
        } else {
            // Per-thread private 16 KiB region.
            0x20_0000 + t as u64 * 0x1_0000 + rng.next_below(16_384)
        };
        h.access(addr, 8, store);
    }
    let s = h.stats();
    let c = h.coherence();
    assert!(c.invalidations > 0, "shared stores must ping-pong lines: {c:?}");
    s.l1_hits + s.l1_misses + c.invalidations + c.upgrades + c.remote_fills
}

/// The `vm/null_run_health` micro-workload: `workload`'s ref input under
/// [`halo_mem::SizeClassAllocator`] with no monitor attached — the
/// interpreter and simulated memory alone, the floor under every
/// profile, trace, validation and measurement run. Returns instructions
/// retired, so callers can quote ns/instr. One body shared by the
/// Criterion micro-bench and `halo bench`.
pub fn vm_null_run(workload: &Workload) -> u64 {
    let mut alloc = halo_mem::SizeClassAllocator::new();
    halo_vm::Engine::new(&workload.program)
        .with_seed(workload.reference.seed)
        .with_entry_arg(workload.reference.arg)
        .with_limits(bench_limits())
        .run(&mut alloc, &mut halo_vm::NullMonitor)
        .unwrap_or_else(|e| panic!("{}: null run failed: {e}", workload.name))
        .instructions
}

/// Operations one [`vm_memory_rw_1m`] call issues.
pub const VM_MEMORY_RW_OPS: u64 = 1_000_000;

/// The `vm/memory_rw_1m` micro-workload: 1M aligned 8-byte accesses to
/// [`halo_vm::Memory`], uniformly random over a 4 MiB working set — 1024
/// pages, more than the page table's translation cache maps, so both its
/// hit and its miss path are on the clock — every third one a write.
/// Returns a checksum of the values read. Shared like [`vm_null_run`].
pub fn vm_memory_rw_1m() -> u64 {
    const BASE: u64 = 0x4000_0000;
    const WORDS: u64 = (4 << 20) / 8;
    let mut mem = halo_vm::Memory::new();
    let mut rng = halo_vm::SplitMix64::new(41);
    let mut sum = 0u64;
    for i in 0..VM_MEMORY_RW_OPS {
        let addr = BASE + rng.next_below(WORDS) * 8;
        if i.is_multiple_of(3) {
            mem.write(addr, 8, i);
        } else {
            sum = sum.wrapping_add(mem.read(addr, 8));
        }
    }
    sum.wrapping_add(mem.resident_pages() as u64)
}

/// Shape of a synthetic affinity graph for the million-node scale
/// benchmarks (`graph/build_csr_1m`, `graph/group_1m_nodes`).
///
/// Endpoints are drawn heavy-tailed — `idx = floor(n · u^skew)` for
/// uniform `u` — so a few contexts are hubs with enormous degree and the
/// long tail is nearly isolated, the degree profile a profiler produces
/// on allocation-site graphs (most sites touch little; arenas and string
/// pools touch everything).
#[derive(Debug, Clone, Copy)]
pub struct GraphSpec {
    /// Number of nodes (allocation contexts).
    pub nodes: u32,
    /// Number of edge *increments* drawn (distinct edges come out lower
    /// as hub pairs repeat and accumulate weight).
    pub edges: u64,
    /// Heavy-tail exponent; larger skews harder toward low node ids.
    pub skew: f64,
    /// Generator seed.
    pub seed: u64,
}

impl GraphSpec {
    /// The committed baseline scale: a million nodes, four million edge
    /// increments.
    pub fn million() -> GraphSpec {
        GraphSpec { nodes: 1_000_000, edges: 4_000_000, skew: 3.0, seed: 42 }
    }

    /// [`GraphSpec::million`], with the node count overridable via
    /// `HALO_GRAPH_BENCH_NODES` (edge increments scale with it at 4×) so
    /// CI smoke runs can shrink the workload without touching the
    /// committed baseline rows. An invalid value warns once on stderr and
    /// falls back to the committed scale (the workspace env-override
    /// policy of [`halo_core::parse_env_or_warn`]).
    pub fn from_env() -> GraphSpec {
        let mut spec = GraphSpec::million();
        if let Some(nodes) = halo_core::parse_env_or_warn(
            "HALO_GRAPH_BENCH_NODES",
            "benching the committed million-node scale",
            Self::parse_nodes,
        ) {
            spec.nodes = nodes;
            spec.edges = nodes as u64 * 4;
        }
        spec
    }

    /// [`GraphSpec::from_env`]'s pure core, split out so the override
    /// logic is testable without mutating the process environment.
    pub fn parse_nodes(value: &str) -> Result<u32, String> {
        value.trim().parse::<u32>().ok().filter(|&n| n > 0).ok_or_else(|| {
            format!("HALO_GRAPH_BENCH_NODES={value} is invalid: expected a positive node count")
        })
    }
}

/// Generate `spec`'s edge stream split across `shards` per-worker
/// [`SubGraph`]s, the shape the sharded profiler hands to
/// `par_merge_subgraphs`. Deterministic for a given spec (each shard's
/// stream is seeded `seed + shard`); node access counts accumulate the
/// incident edge weights, every ~97th increment is a loop.
pub fn synthetic_subgraphs(spec: &GraphSpec, shards: usize) -> Vec<halo_graph::SubGraph> {
    use halo_graph::NodeId;
    let shards = shards.max(1) as u64;
    let per_shard = spec.edges / shards;
    (0..shards)
        .map(|s| {
            let mut sub = halo_graph::SubGraph::new();
            let mut rng = halo_vm::SplitMix64::new(spec.seed.wrapping_add(s));
            // Heavy-tailed endpoint draw: u in [0, 1), idx = floor(n·u^skew).
            let endpoint = |rng: &mut halo_vm::SplitMix64| {
                let u = rng.next_below(1 << 30) as f64 / (1u64 << 30) as f64;
                ((spec.nodes as f64 * u.powf(spec.skew)) as u32).min(spec.nodes - 1)
            };
            let count =
                if s == shards - 1 { spec.edges - per_shard * (shards - 1) } else { per_shard };
            for i in 0..count {
                let u = endpoint(&mut rng);
                let v = if i % 97 == 0 { u } else { endpoint(&mut rng) };
                let w = 1 + rng.next_below(16);
                sub.add_edge_weight(NodeId(u), NodeId(v), w);
                sub.add_accesses(NodeId(u), w);
                if u != v {
                    sub.add_accesses(NodeId(v), w);
                }
            }
            sub
        })
        .collect()
}

/// The `graph/build_csr_1m` bench body: generate the spec's edge stream
/// on 8 shards, union them in a parallel tree, and finalise into CSR.
/// Returns the finalised graph so `group_graph_nodes` can reuse it.
pub fn build_graph(spec: &GraphSpec) -> halo_graph::AffinityGraph {
    let shards = synthetic_subgraphs(spec, 8);
    let merged = halo_core::par_merge_subgraphs(shards);
    let graph = merged.into_graph();
    assert!(graph.is_finalised());
    graph
}

/// The `graph/group_1m_nodes` bench body: one Fig. 6 grouping pass over a
/// pre-built graph at bulk-scale parameters (`min_weight` prunes the
/// heavy-tail noise floor; `group_threshold` 0 keeps every positive-
/// benefit group). Returns the group count as the black-box value.
pub fn group_graph_nodes(graph: &halo_graph::AffinityGraph) -> usize {
    halo_graph::group(graph, &bulk_params()).len()
}

/// Bulk-scale grouping parameters of the graph and identify benches.
fn bulk_params() -> GroupingParams {
    GroupingParams { min_weight: 8, group_threshold: 0.0, ..GroupingParams::default() }
}

/// Input of the `ident/identify_2k` bench: a clustered context profile and
/// its groups.
pub struct IdentifyProfile {
    /// Groups of `contexts`' affinity graph, from [`halo_graph::group`].
    pub groups: Vec<halo_graph::Group>,
    /// One depth-5 call chain per graph node.
    pub contexts: Vec<halo_ident::ContextSummary>,
}

/// Build the `ident/identify_2k` input: 2 048 contexts with depth-5 chains
/// over a shared site alphabet, eight to an affinity cluster. A cluster
/// shares its two outer frames (drawn from a small alphabet, so clusters
/// conflict with each other); the inner frames and the allocation site
/// vary per context — the wrapper-function shape (povray, xalanc) that
/// makes `identify` search for discriminating sites. Groups come from
/// `group()` at the bulk-scale parameters. Deterministic.
pub fn identify_profile_2k() -> IdentifyProfile {
    use halo_graph::NodeId;
    const CONTEXTS: u32 = 2048;
    const CLUSTER: u32 = 8;
    let mut rng = halo_vm::SplitMix64::new(42);
    let site =
        |level: u32, index: u64| halo_vm::CallSite::new(halo_vm::FuncId(level), index as u32);
    let mut graph = halo_graph::AffinityGraph::new();
    let mut contexts = Vec::with_capacity(CONTEXTS as usize);
    let mut outer = (0, 0);
    for i in 0..CONTEXTS {
        if i % CLUSTER == 0 {
            outer = (rng.next_below(8), rng.next_below(48));
        }
        let chain = vec![
            site(0, outer.0),
            site(1, outer.1),
            site(2, rng.next_below(96)),
            site(3, rng.next_below(192)),
            site(4, rng.next_below(64)),
        ];
        let accesses = 64 + rng.next_below(4096);
        contexts.push(halo_ident::ContextSummary { chain, accesses });
        graph.add_node(accesses);
    }
    for base in (0..CONTEXTS).step_by(CLUSTER as usize) {
        for u in base..base + CLUSTER {
            for v in u + 1..base + CLUSTER {
                graph.add_edge_weight(NodeId(u), NodeId(v), 64 + rng.next_below(192));
            }
        }
    }
    // A sprinkle of weak cross-cluster noise for the threshold to prune.
    for _ in 0..CONTEXTS * 2 {
        let (u, v) =
            (rng.next_below(CONTEXTS.into()) as u32, rng.next_below(CONTEXTS.into()) as u32);
        if u / CLUSTER != v / CLUSTER {
            graph.add_edge_weight(NodeId(u), NodeId(v), 1 + rng.next_below(12));
        }
    }
    IdentifyProfile { groups: halo_graph::group(&graph, &bulk_params()), contexts }
}

/// The `ident/identify_2k` bench body: one Fig. 10 identification pass.
/// Returns the monitored-site count as the black-box value.
pub fn identify_2k(profile: &IdentifyProfile) -> usize {
    let ident = halo_ident::identify(&profile.groups, &profile.contexts);
    assert_eq!(ident.selectors.len(), profile.groups.len());
    ident.site_bits.len()
}

/// Format a fraction as a signed percentage with one decimal.
pub fn pct(fraction: f64) -> String {
    format!("{:+.1}%", fraction * 100.0)
}

/// Format a byte count like the paper's Table 1 (KiB/MiB with two
/// decimals).
pub fn human_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.2}MiB", bytes as f64 / (1 << 20) as f64)
    } else {
        format!("{:.2}KiB", bytes as f64 / 1024.0)
    }
}

/// Print a header for a figure/table harness.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_bench_node_override_parses_or_warns() {
        assert_eq!(GraphSpec::parse_nodes("5000"), Ok(5000));
        assert_eq!(GraphSpec::parse_nodes(" 64 "), Ok(64), "whitespace tolerated");
        for bad in ["0", "", "big", "-1"] {
            assert_eq!(
                GraphSpec::parse_nodes(bad),
                Err(format!(
                    "HALO_GRAPH_BENCH_NODES={bad} is invalid: expected a positive node count"
                )),
                "the warning must name the variable and the offending value"
            );
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.2815), "+28.1%");
        assert_eq!(pct(-0.03), "-3.0%");
        assert_eq!(human_bytes(31980), "31.23KiB");
        assert_eq!(human_bytes(2 << 20), "2.00MiB");
    }

    #[test]
    fn plan_swap_body_is_deterministic_and_swaps() {
        // The checksum folds in the final plan epoch, so the body fails
        // loudly if the swap cadence ever drifts; equal reruns keep the
        // bench row comparable PR-over-PR.
        let a = serve_plan_swap();
        let b = serve_plan_swap();
        assert_eq!(a, b);
        assert!(a > 50_000, "every malloc lands in the grouped or fallback counters");
    }

    #[test]
    fn coherent_access_body_is_deterministic_and_contended() {
        // The checksum folds in the coherence counters, so any drift in
        // the MESI-lite model shows up as a bench-row value change too.
        let a = coherent_access_100k();
        let b = coherent_access_100k();
        assert_eq!(a, b);
        assert!(a > 100_000, "hits + misses alone already exceed the access count");
    }

    #[test]
    fn vm_bodies_are_deterministic() {
        assert_eq!(vm_memory_rw_1m(), vm_memory_rw_1m());
        let toy = halo_workloads::toy::build();
        let instructions = vm_null_run(&toy);
        assert!(instructions > 0);
        assert_eq!(instructions, vm_null_run(&toy));
    }

    #[test]
    fn synthetic_graph_is_deterministic_and_heavy_tailed() {
        let spec = GraphSpec { nodes: 5_000, edges: 20_000, skew: 3.0, seed: 42 };
        let a = build_graph(&spec);
        let b = build_graph(&spec);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
        // Heavy tail: the hottest node outweighs the median node's
        // accesses by orders of magnitude.
        let mut accesses: Vec<u64> = a.nodes().map(|n| a.accesses(n)).collect();
        accesses.sort_unstable();
        let max = *accesses.last().unwrap();
        let median = accesses[accesses.len() / 2];
        assert!(max > median.max(1) * 100, "max {max} vs median {median}");
        // And grouping it terminates with a plausible structure.
        assert!(group_graph_nodes(&a) > 0);
    }

    #[test]
    fn shard_count_does_not_change_the_merged_graph() {
        let spec = GraphSpec { nodes: 2_000, edges: 8_000, skew: 2.0, seed: 7 };
        // Different shard counts draw different streams (seeds differ per
        // shard), so instead check one stream merged 1-way vs tree-merged
        // 8-way after re-sharding the same subgraphs.
        let subs = synthetic_subgraphs(&spec, 8);
        let serial =
            subs.iter().cloned().fold(halo_graph::SubGraph::new(), halo_graph::SubGraph::merge);
        let tree = halo_core::par_merge_subgraphs(subs);
        assert_eq!(serial.edges(), tree.edges());
        assert_eq!(serial.len(), tree.len());
    }

    #[test]
    fn per_benchmark_flags_follow_the_artefact() {
        let ws = halo_workloads::all();
        let omnetpp = ws.iter().find(|w| w.name == "omnetpp").unwrap();
        assert_eq!(paper_config(omnetpp).halo.alloc.chunk_size, 131_072);
        let roms = ws.iter().find(|w| w.name == "roms").unwrap();
        assert_eq!(paper_config(roms).halo.grouping.max_groups, Some(4));
        let health = ws.iter().find(|w| w.name == "health").unwrap();
        assert_eq!(paper_config(health).halo.alloc.chunk_size, 1 << 20);
    }
}
