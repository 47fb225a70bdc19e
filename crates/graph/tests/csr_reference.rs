//! CSR-vs-HashMap equivalence (DESIGN.md §13): the flat edge store and
//! the incremental CSR clusterer must be observably indistinguishable
//! from the seed code's `HashMap<(NodeId, NodeId), u64>` graph and its
//! literal full-scan Fig. 6 loop, which are retained here as the oracle.
//!
//! Every property drives both implementations with the same random node
//! and edge script — interleaving a mid-stream `finalise()` so the
//! CSR → accumulator melt path is exercised too — and compares weights,
//! edge enumeration, thresholding, cold-node filtering, `coverage_of`,
//! and the full `group()` output (members in accretion order, weight,
//! accesses). The float math on both sides goes through the same
//! expressions (`w as f64 / d as f64`; `sc − (1 − T)·max(sa, sb)`), so
//! "equal" means bit-identical, not approximately close.
//!
//! The last two properties pin the offline-stage fast paths to the slow
//! ones they replaced: `SubGraph::into_graph` (adopts the accumulator) ≡
//! [`apply_to`] on an empty graph + `finalise` (re-inserts every edge;
//! shipped until PR 24, kept here over the public API as the oracle), and
//! the CSR → CSR row filter behind `threshold_edges` / `group` ≡ the
//! reference, on the graphs where the two could differ — dead nodes,
//! nodes added after finalisation, loops at exactly `min_weight`, a
//! build-phase source — with `group(&g)` leaving `g` untouched.

use halo_graph::{group, AffinityGraph, Group, GroupingParams, NodeId, SubGraph};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// The seed code's graph: nodes in a Vec, edges in a HashMap keyed by the
/// canonicalised `(min, max)` endpoint pair.
#[derive(Clone, Default)]
struct RefGraph {
    nodes: Vec<(u64, bool)>, // (accesses, alive)
    edges: HashMap<(NodeId, NodeId), u64>,
}

fn key(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

impl RefGraph {
    fn add_node(&mut self, accesses: u64) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push((accesses, true));
        id
    }

    fn add_accesses(&mut self, n: NodeId, delta: u64) {
        self.nodes[n.index()].0 += delta;
    }

    fn accesses(&self, n: NodeId) -> u64 {
        self.nodes[n.index()].0
    }

    fn is_alive(&self, n: NodeId) -> bool {
        self.nodes.get(n.index()).is_some_and(|d| d.1)
    }

    fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().enumerate().filter(|(_, n)| n.1).map(|(i, _)| NodeId(i as u32))
    }

    fn total_accesses(&self) -> u64 {
        self.nodes.iter().filter(|n| n.1).map(|n| n.0).sum()
    }

    fn coverage_of<I: IntoIterator<Item = NodeId>>(&self, members: I) -> f64 {
        let total: u64 = self.nodes.iter().map(|n| n.0).sum();
        if total == 0 {
            return 0.0;
        }
        let covered: u64 =
            members.into_iter().map(|n| self.nodes.get(n.index()).map_or(0, |d| d.0)).sum();
        covered as f64 / total as f64
    }

    fn add_edge_weight(&mut self, u: NodeId, v: NodeId, delta: u64) {
        *self.edges.entry(key(u, v)).or_insert(0) += delta;
    }

    fn weight(&self, u: NodeId, v: NodeId) -> u64 {
        self.edges.get(&key(u, v)).copied().unwrap_or(0)
    }

    /// Positive-weight edges between alive endpoints, sorted (the HashMap
    /// yields them unordered; the new store's `edges()` contract is
    /// ascending `(u, v)`, so sorting is the comparison form).
    fn edges(&self) -> Vec<(NodeId, NodeId, u64)> {
        let mut out: Vec<_> = self
            .edges
            .iter()
            .filter(|(&(u, v), &w)| w > 0 && self.is_alive(u) && self.is_alive(v))
            .map(|(&(u, v), &w)| (u, v, w))
            .collect();
        out.sort_unstable();
        out
    }

    fn threshold_edges(&mut self, min_weight: u64) {
        self.edges.retain(|_, w| *w >= min_weight);
    }

    /// The seed code's cold-node filter, verbatim: keep hottest-first
    /// until `keep_fraction` of accesses is covered, discard the rest.
    fn discard_cold_nodes(&mut self, keep_fraction: f64) -> Vec<NodeId> {
        let total = self.total_accesses();
        let target = (total as f64 * keep_fraction).ceil() as u64;
        let mut order: Vec<NodeId> = self.nodes().collect();
        order.sort_by_key(|n| std::cmp::Reverse(self.accesses(*n)));
        let mut covered = 0u64;
        let mut discarded = Vec::new();
        for n in order {
            if covered >= target {
                self.nodes[n.index()].1 = false;
                discarded.push(n);
            } else {
                covered += self.accesses(n);
            }
        }
        let alive: Vec<bool> = self.nodes.iter().map(|n| n.1).collect();
        self.edges.retain(|&(u, v), _| alive[u.index()] && alive[v.index()]);
        discarded
    }
}

/// The seed code's incremental subgraph score (Fig. 7), with the same
/// float expressions the crate funnels through `score_parts`.
#[derive(Default)]
struct RefScore {
    members: Vec<NodeId>,
    weight_sum: u64,
    loop_count: usize,
}

fn score_parts(weight_sum: u64, denom: u64) -> f64 {
    if denom == 0 {
        0.0
    } else {
        weight_sum as f64 / denom as f64
    }
}

impl RefScore {
    fn singleton(g: &RefGraph, node: NodeId) -> Self {
        let loop_w = g.weight(node, node);
        RefScore { members: vec![node], weight_sum: loop_w, loop_count: usize::from(loop_w > 0) }
    }

    fn score(&self) -> f64 {
        let v = self.members.len() as u64;
        score_parts(self.weight_sum, self.loop_count as u64 + v * v.saturating_sub(1) / 2)
    }

    fn deltas_for(&self, g: &RefGraph, candidate: NodeId) -> (u64, usize) {
        let mut w = 0u64;
        for &m in &self.members {
            w += g.weight(m, candidate);
        }
        let loop_w = g.weight(candidate, candidate);
        (w + loop_w, usize::from(loop_w > 0))
    }

    fn score_with(&self, g: &RefGraph, candidate: NodeId) -> f64 {
        let (w, l) = self.deltas_for(g, candidate);
        let v = (self.members.len() + 1) as u64;
        score_parts(self.weight_sum + w, (self.loop_count + l) as u64 + v * (v - 1) / 2)
    }

    fn push(&mut self, g: &RefGraph, candidate: NodeId) {
        let (w, l) = self.deltas_for(g, candidate);
        self.weight_sum += w;
        self.loop_count += l;
        self.members.push(candidate);
    }
}

fn ref_merge_benefit(g: &RefGraph, sub: &RefScore, candidate: NodeId, tolerance: f64) -> f64 {
    let sa = sub.score();
    let sb = RefScore::singleton(g, candidate).score();
    let sc = sub.score_with(g, candidate);
    sc - (1.0 - tolerance) * sa.max(sb)
}

/// The seed code's Fig. 6 loop, verbatim: strongest-available-edge seed,
/// full O(n) stranger scan per growth step, no adjacency shortcuts.
/// (Iterating `avail` as a BTreeSet instead of a HashSet is immaterial:
/// the `benefit > bb || (benefit == bb && stranger < bn)` fold is
/// order-insensitive, and seed selection keys break all ties.)
fn ref_group(graph: &RefGraph, params: &GroupingParams) -> Vec<(Vec<NodeId>, u64, u64)> {
    let mut work = graph.clone();
    work.threshold_edges(params.min_weight);
    let total_accesses = work.total_accesses();
    let min_group_weight = (total_accesses as f64 * params.group_threshold).ceil() as u64;

    let mut avail: BTreeSet<NodeId> = work.nodes().collect();
    let mut groups = Vec::new();

    loop {
        let seed_edge = work
            .edges()
            .into_iter()
            .filter(|(u, v, _)| avail.contains(u) && avail.contains(v))
            .max_by_key(|&(u, v, w)| (w, std::cmp::Reverse((u, v))));
        let Some((u, v, _)) = seed_edge else { break };

        let seed = if work.accesses(u) >= work.accesses(v) { u } else { v };
        let mut sub = RefScore::singleton(&work, seed);
        avail.remove(&seed);

        while sub.members.len() < params.max_group_members {
            let mut best: Option<(NodeId, f64)> = None;
            for &stranger in &avail {
                let benefit = ref_merge_benefit(&work, &sub, stranger, params.merge_tolerance);
                if benefit > 0.0
                    && best.is_none_or(|(bn, bb)| benefit > bb || (benefit == bb && stranger < bn))
                {
                    best = Some((stranger, benefit));
                }
            }
            match best {
                Some((node, _)) => {
                    sub.push(&work, node);
                    avail.remove(&node);
                }
                None => break,
            }
        }

        if sub.weight_sum >= min_group_weight && sub.weight_sum > 0 {
            let accesses = sub.members.iter().map(|&m| work.accesses(m)).sum();
            groups.push((sub.members, sub.weight_sum, accesses));
        }
    }

    if let Some(cap) = params.max_groups {
        groups.sort_by_key(|g| std::cmp::Reverse(g.2));
        groups.truncate(cap);
    }
    groups
}

/// The slow delta → graph path `SubGraph::into_graph` replaced: missing
/// nodes are appended (with zero initial accesses), then every access
/// count and edge weight is added through the graph's own write API. The
/// graph ends in build phase; callers finalise when done.
fn apply_to(delta: &SubGraph, graph: &mut AffinityGraph) {
    while graph.len() < delta.len() {
        graph.add_node(0);
    }
    for n in (0..delta.len() as u32).map(NodeId) {
        if delta.accesses(n) > 0 {
            graph.add_accesses(n, delta.accesses(n));
        }
    }
    for (u, v, w) in delta.edges() {
        graph.add_edge_weight(u, v, w);
    }
}

/// Neighbours of `n` (excluding `n` itself) with edge weights, in
/// ascending neighbour order, read off the public edge list.
fn neighbours(g: &AffinityGraph, n: NodeId) -> Vec<(NodeId, u64)> {
    g.edges()
        .filter_map(|(u, v, w)| match (u == n, v == n) {
            (true, false) => Some((v, w)),
            (false, true) => Some((u, w)),
            _ => None,
        })
        .collect()
}

/// `delta.into_graph()` against `oracle` on an empty graph + `finalise`:
/// same nodes, same access counts, same rows, same edge list.
fn assert_into_graph_matches(delta: SubGraph, oracle: fn(&SubGraph, &mut AffinityGraph)) {
    let mut slow = AffinityGraph::new();
    oracle(&delta, &mut slow);
    slow.finalise();
    let recorded = (delta.len(), delta.edges());
    let fast = delta.into_graph();

    assert!(fast.is_finalised() && slow.is_finalised());
    assert_eq!(fast.len(), recorded.0, "node count");
    assert_eq!(fast.len(), slow.len());
    assert_eq!(fast.nodes().collect::<Vec<_>>(), slow.nodes().collect::<Vec<_>>(), "all alive");
    for n in slow.nodes() {
        assert_eq!(fast.accesses(n), slow.accesses(n), "accesses of {n}");
        assert_eq!(neighbours(&fast, n), neighbours(&slow, n), "row of {n}");
    }
    assert_eq!(fast.total_accesses(), slow.total_accesses());
    assert_eq!(fast.edge_count(), slow.edge_count(), "edge count");
    assert_eq!(fast.edges().collect::<Vec<_>>(), slow.edges().collect::<Vec<_>>());
    assert_eq!(fast.edges().collect::<Vec<_>>(), recorded.1, "the delta's own edge list");
    for (u, v, w) in slow.edges() {
        assert_eq!(fast.weight(u, v), w);
        assert_eq!(fast.weight(v, u), w);
    }
}

#[test]
fn apply_to_extends_and_sums() {
    let n = NodeId;
    let mut g = AffinityGraph::new();
    let a = g.add_node(100);
    g.add_edge_weight(a, a, 1);
    let mut s = SubGraph::new();
    s.add_accesses(n(0), 11);
    s.add_accesses(n(1), 22);
    s.add_edge_weight(n(0), n(0), 2);
    s.add_edge_weight(n(0), n(1), 3);
    apply_to(&s, &mut g);
    assert_eq!(g.len(), 2);
    assert_eq!(g.accesses(n(0)), 111);
    assert_eq!(g.accesses(n(1)), 22);
    assert_eq!(g.weight(n(0), n(0)), 3);
    assert_eq!(g.weight(n(0), n(1)), 3);
}

#[test]
fn neighbours_excludes_loops() {
    let mut g = AffinityGraph::new();
    let a = g.add_node(1);
    let b = g.add_node(1);
    g.add_edge_weight(a, a, 3);
    g.add_edge_weight(a, b, 4);
    assert_eq!(neighbours(&g, a), vec![(b, 4)]);
    g.finalise();
    assert_eq!(neighbours(&g, a), vec![(b, 4)]);
}

/// The seeded mutation for the `into_graph` check: an oracle that forgets
/// loop edges must not pass it.
#[test]
#[should_panic(expected = "edge count")]
fn a_loop_dropping_oracle_fails_the_into_graph_check() {
    let mut delta = SubGraph::new();
    delta.add_edge_weight(NodeId(0), NodeId(1), 2);
    delta.add_edge_weight(NodeId(1), NodeId(1), 5);
    assert_into_graph_matches(delta, |delta, graph| {
        let mut loop_free = SubGraph::new();
        for (u, v, w) in delta.edges().into_iter().filter(|(u, v, _)| u != v) {
            loop_free.add_edge_weight(u, v, w);
        }
        apply_to(&loop_free, graph);
    });
}

/// A random graph script: per-node initial accesses plus a stream of edge
/// increments (indices are taken modulo the node count).
fn build_pair(
    accesses: &[u64],
    edges: &[(u32, u32, u64)],
    finalise_at: usize,
) -> (AffinityGraph, RefGraph) {
    let n = accesses.len() as u32;
    let mut g = AffinityGraph::new();
    let mut r = RefGraph::default();
    for &a in accesses {
        g.add_node(a);
        r.add_node(a);
    }
    for (i, &(u, v, w)) in edges.iter().enumerate() {
        // Mid-stream finalisation melts the CSR back to the accumulator —
        // the reference has no such phase and must not care.
        if i == finalise_at {
            g.finalise();
        }
        let (u, v) = (NodeId(u % n), NodeId(v % n));
        g.add_edge_weight(u, v, w);
        r.add_edge_weight(u, v, w);
        g.add_accesses(u, w % 5);
        r.add_accesses(u, w % 5);
    }
    (g, r)
}

/// `ours`, `group`'s output, is the reference grouping of `r`: the same
/// groups in the same order, members in accretion order.
fn assert_reference_grouping(ours: &[Group], r: &RefGraph, params: &GroupingParams) {
    let theirs = ref_group(r, params);
    assert_eq!(ours.len(), theirs.len(), "group count");
    for (got, want) in ours.iter().zip(&theirs) {
        assert_eq!(got.members, want.0, "members (accretion order)");
        assert_eq!(got.weight, want.1, "group weight");
        assert_eq!(got.accesses, want.2, "group accesses");
    }
}

/// Grouping parameters with no threshold and no cap.
fn params(min_weight: u64, max_group_members: usize, tol_permille: u64) -> GroupingParams {
    GroupingParams {
        min_weight,
        max_group_members,
        merge_tolerance: tol_permille as f64 / 1000.0,
        group_threshold: 0.0,
        max_groups: None,
    }
}

fn assert_same_edges(g: &AffinityGraph, r: &RefGraph, what: &str) {
    assert_eq!(g.edges().collect::<Vec<_>>(), r.edges(), "{what}: edge lists differ");
    assert_eq!(g.edge_count(), r.edges().len(), "{what}: edge counts differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn storage_reads_match_the_reference(
        accesses in proptest::collection::vec(0u64..2_000, 2..40),
        edges in proptest::collection::vec((0u32..64, 0u32..64, 0u64..50), 0..300),
        finalise_at in 0usize..301,
        min_weight in 0u64..40,
    ) {
        let (mut g, mut r) = build_pair(&accesses, &edges, finalise_at);
        let n = accesses.len() as u32;

        assert_same_edges(&g, &r, "after build");
        for u in 0..n {
            for v in u..n {
                assert_eq!(
                    g.weight(NodeId(u), NodeId(v)),
                    r.weight(NodeId(u), NodeId(v)),
                    "weight({u}, {v})"
                );
            }
        }
        assert_eq!(g.total_accesses(), r.total_accesses());
        let members: Vec<NodeId> = (0..n).step_by(3).map(NodeId).collect();
        assert_eq!(g.coverage_of(members.iter().copied()), r.coverage_of(members), "coverage_of");

        g.threshold_edges(min_weight);
        r.threshold_edges(min_weight);
        assert_same_edges(&g, &r, "after threshold_edges");
    }

    #[test]
    fn cold_node_filter_matches_the_reference(
        accesses in proptest::collection::vec(0u64..2_000, 2..40),
        edges in proptest::collection::vec((0u32..64, 0u32..64, 1u64..50), 0..200),
        keep_permille in 0u64..1_001,
    ) {
        let (mut g, mut r) = build_pair(&accesses, &edges, usize::MAX);
        let keep = keep_permille as f64 / 1000.0;
        assert_eq!(
            g.discard_cold_nodes(keep),
            r.discard_cold_nodes(keep),
            "discarded ids (keep_fraction {keep})"
        );
        assert_eq!(g.nodes().collect::<Vec<_>>(), r.nodes().collect::<Vec<_>>(), "alive sets");
        assert_same_edges(&g, &r, "after discard_cold_nodes");
        for u in g.nodes() {
            assert!(g.is_alive(u) && r.is_alive(u));
        }
    }

    #[test]
    fn grouping_matches_the_full_scan_reference(
        accesses in proptest::collection::vec(0u64..2_000, 2..32),
        edges in proptest::collection::vec((0u32..48, 0u32..48, 1u64..80), 0..250),
        finalise_at in 0usize..251,
        min_weight in 1u64..24,
        max_members in 2usize..10,
        tol_permille in 0u64..400,
        thresh_permille in 0u64..20,
        cap in 0usize..5,
    ) {
        let (g, r) = build_pair(&accesses, &edges, finalise_at);
        let params = GroupingParams {
            group_threshold: thresh_permille as f64 / 1000.0,
            max_groups: (cap > 0).then_some(cap),
            ..params(min_weight, max_members, tol_permille)
        };
        assert_reference_grouping(&group(&g, &params), &r, &params);
    }

    #[test]
    fn into_graph_matches_apply_to_plus_finalise(
        shards in proptest::collection::vec(
            (
                proptest::collection::vec((0u32..40, 0u32..40, 0u64..30), 0..80),
                proptest::collection::vec((0u32..48, 0u64..100), 0..20),
            ),
            0..5,
        ),
        trailing in 0u32..64,
    ) {
        let mut merged = SubGraph::new();
        for (edges, accesses) in &shards {
            let mut shard = SubGraph::new();
            for &(u, v, w) in edges {
                shard.add_edge_weight(NodeId(u), NodeId(v), w);
            }
            for &(n, a) in accesses {
                shard.add_accesses(NodeId(n), a);
            }
            merged = merged.merge(shard);
        }
        if trailing >= 32 {
            // A zero-access, edgeless node past everything else seen.
            merged.add_accesses(NodeId(trailing), 0);
        }

        assert_into_graph_matches(merged, apply_to);
    }

    #[test]
    fn row_filter_threshold_and_clone_free_grouping_match_the_reference(
        accesses in proptest::collection::vec(0u64..2_000, 2..32),
        edges in proptest::collection::vec((0u32..48, 0u32..48, 1u64..40), 0..250),
        finalise_at in 0usize..251,
        keep_permille in 500u64..1_200,
        discard_from_csr in any::<bool>(),
        late_nodes in proptest::collection::vec(0u64..500, 0..4),
        build_phase in any::<bool>(),
        min_weight in 1u64..24,
        max_members in 2usize..10,
        tol_permille in 0u64..400,
    ) {
        let (mut g, mut r) = build_pair(&accesses, &edges, finalise_at);
        let n = accesses.len() as u32;
        // Loops sitting exactly on, and one below, the threshold.
        for (k, w) in [(0, min_weight), (1, min_weight - 1)] {
            let node = NodeId(k % n);
            if g.weight(node, node) == 0 {
                g.add_edge_weight(node, node, w);
                r.add_edge_weight(node, node, w);
            }
        }
        // Cold-node victims (keep ≥ 1.0 discards nothing), dropped from
        // either kind of source; leaves `g` finalised, so what follows
        // filters CSR → CSR.
        if discard_from_csr {
            g.finalise();
        }
        let keep = (keep_permille as f64 / 1000.0).min(1.0);
        assert_eq!(g.discard_cold_nodes(keep), r.discard_cold_nodes(keep));
        // Nodes added after finalisation have no CSR row yet.
        for &a in &late_nodes {
            assert_eq!(g.add_node(a), r.add_node(a));
        }
        let alive: Vec<NodeId> = g.nodes().collect();
        let build_phase = build_phase && !alive.is_empty();
        if build_phase {
            // A write between two survivors melts the CSR: same graph,
            // build-phase source, dead nodes still dead.
            let (u, v) = (alive[0], alive[alive.len() - 1]);
            g.add_edge_weight(u, v, 3);
            r.add_edge_weight(u, v, 3);
        }
        assert_eq!(g.is_finalised(), !build_phase);

        let params = params(min_weight, max_members, tol_permille);
        let before: Vec<_> = g.edges().collect();
        let ours = group(&g, &params);
        assert_eq!(g.is_finalised(), !build_phase, "group() must not change the store's phase");
        assert_eq!(g.edges().collect::<Vec<_>>(), before, "group() must not touch the graph");
        assert_same_edges(&g, &r, "after group()");

        assert_reference_grouping(&ours, &r, &params);

        g.threshold_edges(min_weight);
        r.threshold_edges(min_weight);
        assert!(g.is_finalised());
        assert_same_edges(&g, &r, "after threshold_edges");
        for u in (0..g.len() as u32).map(NodeId) {
            let row = neighbours(&g, u);
            let want: Vec<_> = (0..g.len() as u32)
                .map(NodeId)
                .filter(|&v| v != u && r.is_alive(u) && r.is_alive(v) && r.weight(u, v) > 0)
                .map(|v| (v, r.weight(u, v)))
                .collect();
            assert_eq!(row, want, "row of {u} after threshold_edges");
        }
        // Thresholding an already thresholded graph groups the same.
        assert_eq!(group(&g, &params), ours);
        // Late nodes stay usable: a write to one melts and lands.
        if let Some(late) = (n..g.len() as u32).map(NodeId).next() {
            g.add_edge_weight(late, late, 5);
            assert_eq!(g.weight(late, late), 5);
        }
    }
}
