//! `graph-scale`: the post-profile offline stage at data-centre scale.
//!
//! One operation merges 8 pre-generated profiling shards (1 M contexts,
//! 4 M heavy-tailed edge increments) with `par_merge_subgraphs`, finalises
//! the result into CSR (`into_graph`) and groups it; then groups and
//! identifies a separate 2 048-context profile with depth-5 call chains.
//! It is the only workload where `halo_graph` and `halo_ident` do the
//! work, and VM, cache model and allocator do none: the bypass workload
//! for every simulator optimisation, the exercising one for CSR,
//! accumulator, clusterer and identify work. The 2 048-context size keeps
//! the quadratic `identify` a visible but minor share of the operation.
//!
//! Shard generation and the per-operation shard clone are outside every
//! timed region (they show as `bench.*` spans in the trace).

use super::guarded;
use crate::fingerprint::Fingerprint;
use crate::gen::{self, ContextProfile, GraphSpec, ShardSet};
use crate::harness::{LayerValues, OpSample, Round, Scale, Workload};
use crate::span::Tracer;
use halo_core::par_merge_subgraphs;
use halo_graph::{group, grouping_drift, AffinityGraph, Group, GroupingParams};
use halo_ident::{identify, Identification};

const FULL: GraphSpec =
    GraphSpec { nodes: 1_000_000, edge_increments: 4_000_000, skew: 3.0, shards: 8 };
const FULL_CONTEXTS: u32 = 2048;
const SMOKE: GraphSpec =
    GraphSpec { nodes: 50_000, edge_increments: 200_000, skew: 3.0, shards: 8 };
const SMOKE_CONTEXTS: u32 = 512;
/// Base generator seed, to which `--seed` is added.
const BASE_SEED: u64 = 42;

/// Bulk-scale grouping parameters: `min_weight` prunes the heavy tail's
/// noise floor, `group_threshold` 0 keeps every positive-benefit group.
fn bulk_params() -> GroupingParams {
    GroupingParams { min_weight: 8, group_threshold: 0.0, ..GroupingParams::default() }
}

pub struct GraphScale {
    pub seed: u64,
}

pub struct Input {
    shards: ShardSet,
    contexts: ContextProfile,
    scale: Scale,
    seed: u64,
}

/// What one operation produced, for checks and counters.
struct OpResult {
    graph: AffinityGraph,
    groups: Vec<Group>,
    context_groups: Vec<Group>,
    ident: Identification,
}

/// Per-stage nanoseconds of one operation.
#[derive(Clone, Copy)]
struct StageNs {
    merge: u64,
    finalise: u64,
    group: u64,
    context_group: u64,
    identify: u64,
}

impl StageNs {
    fn total(&self) -> u64 {
        self.merge + self.finalise + self.group + self.context_group + self.identify
    }
}

/// One operation, stage by stage, each stage under a span of `tracer`
/// (the untraced run passes a scratch tracer: five spans cost nothing and
/// both runs execute the same code). The shard clone has its own,
/// untimed, span.
fn run_op(input: &Input, tracer: &mut Tracer) -> (OpResult, StageNs) {
    let (shards, _) = tracer.time("bench.clone_shards", "bench", || input.shards.shards.clone());
    let (merged, merge) = tracer.time("graph.merge", "graph", || par_merge_subgraphs(shards));
    let (graph, finalise) = tracer.time("graph.finalise", "graph", || merged.into_graph());
    let (groups, group_ns) = tracer.time("graph.group", "graph", || group(&graph, &bulk_params()));
    let (context_groups, context_group) = tracer
        .time("graph.group_contexts", "graph", || group(&input.contexts.graph, &bulk_params()));
    let (ident, identify_ns) = tracer
        .time("ident.identify", "ident", || identify(&context_groups, &input.contexts.contexts));
    let ns = StageNs { merge, finalise, group: group_ns, context_group, identify: identify_ns };
    (OpResult { graph, groups, context_groups, ident }, ns)
}

fn disjoint(groups: &[Group], nodes: usize) -> bool {
    let mut seen = vec![false; nodes];
    groups.iter().flat_map(|g| &g.members).all(|m| !std::mem::replace(&mut seen[m.index()], true))
}

fn check(input: &Input, r: &OpResult) -> Vec<String> {
    let mut failures = Vec::new();
    let total: u64 = r.graph.edges().map(|(_, _, w)| w).sum();
    if total != input.shards.total_weight {
        failures.push(format!(
            "merged graph carries edge weight {total}, the generator drew {}",
            input.shards.total_weight
        ));
    }
    if !disjoint(&r.groups, r.graph.len()) {
        failures.push("groups of the merged graph overlap".into());
    }
    if !disjoint(&r.context_groups, input.contexts.graph.len()) {
        failures.push("groups of the context profile overlap".into());
    }
    if r.groups.is_empty() || r.context_groups.is_empty() {
        failures.push("grouping formed no groups".into());
    }
    if r.ident.selectors.len() != r.context_groups.len() {
        failures.push(format!(
            "identify returned {} selectors for {} groups",
            r.ident.selectors.len(),
            r.context_groups.len()
        ));
    }
    failures
}

/// Share of the generator's edge weight whose endpoints land in the same
/// formed group: guards a "faster grouping" that simply groups less.
fn grouped_weight_pct(input: &Input, r: &OpResult) -> f64 {
    100.0 * r.groups.iter().map(|g| g.weight).sum::<u64>() as f64 / input.shards.total_weight as f64
}

fn fingerprint(r: &OpResult) -> Fingerprint {
    let mut fp = Fingerprint::new();
    fp.push(r.graph.len() as u64);
    fp.push(r.graph.edge_count() as u64);
    for g in r.groups.iter().chain(&r.context_groups) {
        fp.push(g.weight);
        fp.push(g.accesses);
        for m in &g.members {
            fp.push(u64::from(m.0));
        }
    }
    fp.push(r.ident.selectors.len() as u64);
    fp.push(r.ident.site_bits.len() as u64);
    for s in &r.ident.selectors {
        fp.push(s.group as u64);
        fp.push(s.conjunctions.iter().map(Vec::len).sum::<usize>() as u64);
    }
    fp
}

fn finish(round: &mut Round, input: &Input, r: &OpResult) {
    round.failures.extend(check(input, r));
    round.quality_pct = grouped_weight_pct(input, r);
    round.fingerprint = fingerprint(r);
    round.exact = vec![
        ("grouped_weight_pct", round.quality_pct),
        ("groups", r.groups.len() as f64),
        ("context_groups", r.context_groups.len() as f64),
        ("site_bits", r.ident.site_bits.len() as f64),
    ];
}

impl Workload for GraphScale {
    type Input = Input;

    fn kinds(&self) -> Vec<String> {
        vec!["offline-stage".into()]
    }

    fn build(&self, scale: Scale) -> Input {
        let (spec, contexts) =
            if scale == Scale::Full { (FULL, FULL_CONTEXTS) } else { (SMOKE, SMOKE_CONTEXTS) };
        let seed = BASE_SEED + self.seed;
        Input {
            shards: gen::shards(&spec, seed),
            contexts: gen::contexts(contexts, seed),
            scale,
            seed,
        }
    }

    fn warm_up(&self, input: &mut Input) {
        std::hint::black_box(run_op(input, &mut Tracer::new()).1.total());
    }

    fn round(&self, input: &mut Input) -> Round {
        let mut round = Round { attempted: 1, ..Round::default() };
        match guarded("offline stage", || Ok(run_op(input, &mut Tracer::new()))) {
            Ok((result, ns)) => {
                let ms = ns.total() as f64 / 1e6;
                round.ops.push(OpSample { kind: 0, ms });
                round.wall_s = ms / 1e3;
                finish(&mut round, input, &result);
            }
            Err(e) => round.failures.push(e),
        }
        round
    }

    fn trace(&self, input: &mut Input, tracer: &mut Tracer, values: &mut LayerValues) -> Round {
        let mut round = Round { attempted: 1, ..Round::default() };
        // The whole operation, timed exactly as the untraced run times it.
        tracer.next_op();
        let whole_span = tracer.begin("graph-scale.op", "bench");
        let whole = guarded("offline stage", || Ok(run_op(input, &mut Tracer::new())));
        tracer.end(whole_span);
        let (whole, whole_ns) = match whole {
            Ok(pair) => pair,
            Err(e) => {
                round.failures.push(e);
                return round;
            }
        };
        finish(&mut round, input, &whole);

        // The same operation again, each stage under its own span.
        let replay_span = tracer.begin("replay", "bench");
        let replayed = guarded("replay offline stage", || Ok(run_op(input, tracer)));
        tracer.end(replay_span);
        let (replayed, ns) = match replayed {
            Ok(pair) => pair,
            Err(e) => {
                round.failures.push(e);
                return round;
            }
        };
        if fingerprint(&replayed) != round.fingerprint {
            round.failures.push(
                "replay formed different groups or selectors than the whole operation".into(),
            );
        }

        let ms = |ns: u64| ns as f64 / 1e6;
        values.set("core.whole_op_ms", ms(whole_ns.total()));
        values.set("graph.merge_ms", ms(ns.merge));
        values.set("graph.finalise_ms", ms(ns.finalise));
        values.set("graph.group_ms", ms(ns.group + ns.context_group));
        let edges = replayed.graph.edge_count() as u64;
        values.set("graph.edges_per_s", edges as f64 / ((ns.merge + ns.finalise) as f64 / 1e9));
        values.set("graph.nodes", replayed.graph.len() as f64);
        values.set("graph.edges", edges as f64);
        values.set("graph.groups", (replayed.groups.len() + replayed.context_groups.len()) as f64);
        values.set("graph.grouped_weight_pct", round.quality_pct);
        values.set("ident.identify_ms", ms(ns.identify));
        values.set("ident.selectors", replayed.ident.selectors.len() as f64);
        values.set("ident.site_bits", replayed.ident.site_bits.len() as f64);

        // Serve's use of the same structure, at this scale: one decay of
        // the merged graph and one drift reading between two groupings.
        tracer.next_op();
        let probes = tracer.begin("layer_probes", "bench");
        let mut melting = replayed.graph.clone();
        let ((), decay_ns) = tracer.time("graph.decay", "graph", || melting.decay(0.5));
        values.set("graph.decay_ms", ms(decay_ns));
        let decayed_groups = group(&melting, &bulk_params());
        let (drift, drift_ns) = tracer
            .time("graph.drift", "graph", || grouping_drift(&replayed.groups, &decayed_groups));
        std::hint::black_box(drift);
        values.set("graph.drift_ms", ms(drift_ns));
        drop((melting, decayed_groups, replayed, whole));

        // identify's scaling exponent: 1k, 2k and 4k contexts (smoke: ¼).
        let shrink = if input.scale == Scale::Full { 1 } else { 4 };
        for (name, n) in [
            ("ident.identify_ms_at_1k", 1024),
            ("ident.identify_ms_at_2k", 2048),
            ("ident.identify_ms_at_4k", 4096),
        ] {
            let profile = gen::contexts(n / shrink, input.seed);
            let groups = group(&profile.graph, &bulk_params());
            let (ident, identify_ns) =
                tracer.time(format!("ident.identify@{}", n / shrink), "ident", || {
                    identify(&groups, &profile.contexts)
                });
            std::hint::black_box(ident.selectors.len());
            values.set(name, ms(identify_ns));
        }
        tracer.end(probes);
        round
    }
}
