//! The metric registry: every metric the benchmark may print, with its
//! unit, direction and (for end-to-end metrics) regression bound.
//! `BENCHMARK.json` is rendered from this table (`benchmark manifest`) and
//! a unit test keeps the committed file equal to it.

use crate::json::Json;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 30;

/// How the comparer treats a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time or memory: noisy, compared against the bound.
    Measured,
    /// Derived from simulated or counted events only: must repeat
    /// bit-for-bit on the same seed.
    Exact,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, kind, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> MetricDef {
    MetricDef { name, unit, better, kind, bound: None }
}

use Better::{Higher, Lower};
use Kind::{Exact, Measured};

/// The four workloads and why each exists (one line each; the README has
/// the long form).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "spec-sweep",
        "the paper's 11-program evaluation (baseline/halo/hds): measurement-bound, so cache, VM and HDS work must show here and graph or identify work must not",
    ),
    (
        "serve-shift",
        "halo serve across two workload shifts: streamed profiling, multi-threaded programs on the coherent cache paths, a long-lived sharded allocator with epoch plan swaps",
    ),
    (
        "graph-scale",
        "the offline stage on a 1M-context profile (merge, CSR, group) plus group+identify on 2048 contexts: only graph and ident work; bypasses VM, cache and allocator",
    ),
    (
        "alloc-churn",
        "malloc/free requests with remote frees and plan swaps on a 4-shard allocator: only the allocator works; bypasses VM, cache model and graph",
    ),
];

/// End-to-end metrics: every workload reports every one of them.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, Measured, 0.25),
    e2e("wall_s", "s", Lower, Measured, 0.25),
    e2e("op_geomean_ms", "ms", Lower, Measured, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, Measured, 0.25),
    e2e("layout_quality_pct", "%", Higher, Exact, 0.08),
];

/// The 11 programs of `spec-sweep`, in the figures' order.
pub const PROGRAMS: [&str; 11] = [
    "health", "ft", "analyzer", "ammp", "art", "equake", "povray", "omnetpp", "xalanc", "leela",
    "roms",
];

/// Per-layer metrics (traced run). A workload that bypasses a layer
/// reports 0 for that layer's metrics: it spent nothing there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("workloads.build_ms", "ms", Lower, Measured),
    layer("vm.null_run_ns_per_instr", "ns/instr", Lower, Measured),
    layer("vm.instructions", "count", Lower, Exact),
    layer("vm.accesses", "count", Lower, Exact),
    layer("cache.replay_ns_per_access", "ns/access", Lower, Measured),
    layer("cache.replay_mt_ns_per_access", "ns/access", Lower, Measured),
    layer("cache.l1d_misses", "count", Lower, Exact),
    layer("cache.l1d_miss_ratio", "ratio", Lower, Exact),
    layer("cache.invalidations", "count", Lower, Exact),
    layer("profile.run_ms", "ms", Lower, Measured),
    layer("profile.ns_per_access", "ns/access", Lower, Measured),
    layer("profile.queue_work", "count", Lower, Exact),
    layer("profile.contexts", "count", Higher, Exact),
    layer("profile.graph_edges", "count", Higher, Exact),
    layer("profile.stream_absorb_ms", "ms", Lower, Measured),
    layer("graph.merge_ms", "ms", Lower, Measured),
    layer("graph.finalise_ms", "ms", Lower, Measured),
    layer("graph.group_ms", "ms", Lower, Measured),
    layer("graph.edges_per_s", "edges/s", Higher, Measured),
    layer("graph.nodes", "count", Higher, Exact),
    layer("graph.edges", "count", Higher, Exact),
    layer("graph.groups", "count", Higher, Exact),
    layer("graph.decay_ms", "ms", Lower, Measured),
    layer("graph.drift_ms", "ms", Lower, Measured),
    layer("graph.grouped_weight_pct", "%", Higher, Exact),
    layer("ident.identify_ms", "ms", Lower, Measured),
    layer("ident.selectors", "count", Higher, Exact),
    layer("ident.site_bits", "count", Lower, Exact),
    layer("ident.identify_ms_at_1k", "ms", Lower, Measured),
    layer("ident.identify_ms_at_2k", "ms", Lower, Measured),
    layer("ident.identify_ms_at_4k", "ms", Lower, Measured),
    layer("rewrite.instrument_ms", "ms", Lower, Measured),
    layer("rewrite.sites", "count", Lower, Exact),
    layer("rewrite.instr_overhead_pct", "%", Lower, Exact),
    layer("hds.trace_ms", "ms", Lower, Measured),
    layer("hds.analyze_ms", "ms", Lower, Measured),
    layer("hds.streams", "count", Higher, Exact),
    layer("mem.sizeclass_ns_per_op", "ns/op", Lower, Measured),
    layer("mem.group_ns_per_op", "ns/op", Lower, Measured),
    layer("mem.sharded_local_ns_per_op", "ns/op", Lower, Measured),
    layer("mem.sharded_remote_ns_per_op", "ns/op", Lower, Measured),
    layer("mem.swap_plans_us_p50", "us", Lower, Measured),
    layer("mem.swap_plans_us_p99", "us", Lower, Measured),
    layer("mem.sharded_os_threads_ns_per_op", "ns/op", Lower, Measured),
    layer("mem.rt_groupheap_ns_per_op", "ns/op", Lower, Measured),
    layer("mem.system_ns_per_op", "ns/op", Lower, Measured),
    layer("mem.rt_colocated_share", "ratio", Higher, Exact),
    layer("mem.grouped_share", "ratio", Higher, Exact),
    layer("mem.chunks_created", "count", Lower, Exact),
    layer("mem.chunks_reused", "count", Higher, Exact),
    layer("mem.chunks_purged", "count", Lower, Exact),
    layer("mem.remote_frees", "count", Lower, Exact),
    layer("mem.remote_peak_queue", "count", Lower, Exact),
    layer("mem.queue_overflows", "count", Lower, Exact),
    layer("mem.degraded_groups", "count", Lower, Exact),
    layer("mem.frag_pct", "%", Lower, Exact),
    layer("mem.request_p50_us", "us", Lower, Measured),
    layer("mem.request_p99_us", "us", Lower, Measured),
    layer("core.evaluate_ms.health", "ms", Lower, Measured),
    layer("core.evaluate_ms.ft", "ms", Lower, Measured),
    layer("core.evaluate_ms.analyzer", "ms", Lower, Measured),
    layer("core.evaluate_ms.ammp", "ms", Lower, Measured),
    layer("core.evaluate_ms.art", "ms", Lower, Measured),
    layer("core.evaluate_ms.equake", "ms", Lower, Measured),
    layer("core.evaluate_ms.povray", "ms", Lower, Measured),
    layer("core.evaluate_ms.omnetpp", "ms", Lower, Measured),
    layer("core.evaluate_ms.xalanc", "ms", Lower, Measured),
    layer("core.evaluate_ms.leela", "ms", Lower, Measured),
    layer("core.evaluate_ms.roms", "ms", Lower, Measured),
    layer("core.optimise_ms", "ms", Lower, Measured),
    layer("core.policy_validation_ms", "ms", Lower, Measured),
    layer("core.measure_ms.baseline", "ms", Lower, Measured),
    layer("core.measure_ms.halo", "ms", Lower, Measured),
    layer("core.measure_ms.hds", "ms", Lower, Measured),
    layer("core.measure_ns_per_access", "ns/access", Lower, Measured),
    layer("core.evaluate_unattributed_ms", "ms", Lower, Measured),
    layer("core.par_speedup", "x", Higher, Measured),
    layer("core.serve_ms_per_window", "ms", Lower, Measured),
    layer("core.serve_unattributed_ms", "ms", Lower, Measured),
    layer("core.l1d_miss_reduction_pct", "%", Higher, Exact),
    layer("core.sim_speedup_pct", "%", Higher, Exact),
    layer("core.whole_op_ms", "ms", Lower, Measured),
];

/// Look a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> Json {
    let metric = |m: &MetricDef| {
        let row =
            Json::obj().set("name", m.name).set("unit", m.unit).set("better", m.better.as_str());
        match m.bound {
            Some(bound) => row.set("bound", bound),
            None => row,
        }
    };
    Json::obj()
        .set("command", vec![Json::from("bash"), Json::from("benchmark/run.sh")])
        .set("paths", vec![Json::from("benchmark")])
        .set("run_seconds", RUN_SECONDS)
        .set(
            "workloads",
            WORKLOADS
                .iter()
                .map(|(name, why)| Json::obj().set("name", *name).set("why", *why))
                .collect::<Vec<_>>(),
        )
        .set("end_to_end", END_TO_END.iter().map(metric).collect::<Vec<_>>())
        .set("per_layer", PER_LAYER.iter().map(metric).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn registry_obeys_the_manifest_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for (i, name) in names.iter().enumerate() {
            assert!(valid_name(name), "bad name {name}");
            assert!(!names[..i].contains(name), "{name} is used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {} on {}",
                m.unit,
                m.name
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = find("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!((1..=60).contains(&RUN_SECONDS));
        for p in PROGRAMS {
            assert!(find(&format!("core.evaluate_ms.{p}")).is_some(), "row for {p}");
        }
    }

    #[test]
    fn committed_manifest_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(
            Json::parse(&text).expect("valid JSON"),
            manifest(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
    }
}
