//! Alternative clustering algorithms for the grouping ablation.
//!
//! §4.2 claims the Fig. 6 greedy-density algorithm produces clusters "more
//! amenable to region-based co-allocation than standard modularity, HCS, or
//! cut-based clustering techniques". To let `ablation_grouping_algorithms`
//! test that claim, this module implements both comparison algorithms over
//! [`AffinityGraph`]'s public API:
//!
//! * [`modularity_clusters`] — greedy agglomerative modularity maximisation
//!   (Clauset–Newman–Moore style) on the weighted affinity graph;
//! * [`hcs_clusters`] — Hartuv & Shamir's Highly Connected Subgraphs
//!   algorithm, splitting by global min-cut ([`stoer_wagner_min_cut`])
//!   until every part has edge connectivity > |V|/2. HCS is defined on
//!   unweighted graphs, so it runs on the skeleton of edges at or above a
//!   weight threshold.

use halo_graph::{AffinityGraph, NodeId};
use std::collections::HashMap;

/// Greedy agglomerative modularity clustering.
///
/// Starts from singleton communities and repeatedly merges the pair with the
/// largest positive modularity gain
/// `ΔQ(a, b) = w_ab/m − d_a·d_b/(2m²)`,
/// where `m` is the total edge weight, `w_ab` the inter-community weight and
/// `d` the community strength (loops count twice). Stops at the modularity
/// maximum. Singleton communities with no edges are omitted from the result.
pub fn modularity_clusters(graph: &AffinityGraph) -> Vec<Vec<NodeId>> {
    let nodes: Vec<NodeId> = graph.nodes().collect();
    if nodes.is_empty() {
        return Vec::new();
    }
    let index: HashMap<NodeId, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let n = nodes.len();

    let mut m = 0f64; // total edge weight
    let mut strength = vec![0f64; n];
    // Inter-community weights, community ids = indices into `nodes` initially.
    let mut between: HashMap<(usize, usize), f64> = HashMap::new();
    for (u, v, w) in graph.edges() {
        let (ui, vi) = (index[&u], index[&v]);
        m += w as f64;
        if ui == vi {
            strength[ui] += 2.0 * w as f64;
        } else {
            strength[ui] += w as f64;
            strength[vi] += w as f64;
            let key = (ui.min(vi), ui.max(vi));
            *between.entry(key).or_insert(0.0) += w as f64;
        }
    }
    if m == 0.0 {
        return Vec::new();
    }

    let mut members: Vec<Vec<NodeId>> = nodes.iter().map(|&n| vec![n]).collect();
    let mut alive: Vec<bool> = vec![true; n];

    loop {
        let mut best: Option<((usize, usize), f64)> = None;
        for (&(a, b), &w_ab) in &between {
            if !alive[a] || !alive[b] {
                continue;
            }
            let dq = w_ab / m - strength[a] * strength[b] / (2.0 * m * m);
            if dq > 0.0 && best.is_none_or(|(_, bq)| dq > bq) {
                best = Some(((a, b), dq));
            }
        }
        let Some(((a, b), _)) = best else { break };
        // Merge b into a.
        let moved = std::mem::take(&mut members[b]);
        members[a].extend(moved);
        strength[a] += strength[b];
        alive[b] = false;
        let entries: Vec<((usize, usize), f64)> =
            between.iter().filter(|(&(x, y), _)| x == b || y == b).map(|(&k, &v)| (k, v)).collect();
        for ((x, y), w) in entries {
            between.remove(&(x, y));
            let other = if x == b { y } else { x };
            if other != a {
                let key = (a.min(other), a.max(other));
                *between.entry(key).or_insert(0.0) += w;
            }
        }
    }

    members
        .into_iter()
        .enumerate()
        .filter(|(i, ms)| alive[*i] && ms.len() > 1)
        .map(|(_, ms)| ms)
        .collect()
}

/// Global minimum cut of the subgraph induced by `nodes`, by the
/// Stoer–Wagner algorithm. Returns `(cut_weight, side)` where `side` is one
/// shore of the cut. `weight_fn` supplies edge weights (use `1` for the
/// unweighted connectivity HCS needs).
///
/// # Panics
///
/// Panics if `nodes.len() < 2`.
pub fn stoer_wagner_min_cut(
    nodes: &[NodeId],
    weight_fn: impl Fn(NodeId, NodeId) -> u64,
) -> (u64, Vec<NodeId>) {
    let n = nodes.len();
    assert!(n >= 2, "min cut needs at least two nodes");
    // Dense adjacency over local indices; merged vertices accumulate rows.
    let mut w = vec![vec![0u64; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let wt = weight_fn(nodes[i], nodes[j]);
            w[i][j] = wt;
            w[j][i] = wt;
        }
    }
    // merged[i] = original node ids currently contracted into vertex i.
    let mut merged: Vec<Vec<NodeId>> = nodes.iter().map(|&x| vec![x]).collect();
    let mut active: Vec<usize> = (0..n).collect();
    let mut best_cut = u64::MAX;
    let mut best_side: Vec<NodeId> = Vec::new();

    while active.len() > 1 {
        // Maximum-adjacency search for the cut of this phase.
        let mut weights: HashMap<usize, u64> = active.iter().map(|&v| (v, 0)).collect();
        let mut order: Vec<usize> = Vec::with_capacity(active.len());
        let mut remaining: Vec<usize> = active.clone();
        while !remaining.is_empty() {
            let (pos, &next) = remaining
                .iter()
                .enumerate()
                .max_by_key(|(_, &v)| weights[&v])
                .expect("non-empty remaining");
            remaining.swap_remove(pos);
            order.push(next);
            for &v in &remaining {
                *weights.get_mut(&v).expect("tracked") += w[next][v];
            }
        }
        let t = *order.last().expect("order non-empty");
        let s = order[order.len() - 2];
        let cut_of_phase = active.iter().filter(|&&v| v != t).map(|&v| w[t][v]).sum();
        if cut_of_phase < best_cut {
            best_cut = cut_of_phase;
            best_side = merged[t].clone();
        }
        // Contract t into s.
        for &v in &active {
            if v != s && v != t {
                w[s][v] += w[t][v];
                w[v][s] = w[s][v];
            }
        }
        let moved = std::mem::take(&mut merged[t]);
        merged[s].extend(moved);
        active.retain(|&v| v != t);
    }
    (best_cut, best_side)
}

/// Hartuv & Shamir's HCS clustering on the unweighted skeleton of edges
/// with weight ≥ `min_weight`. A subgraph is *highly connected* when its
/// min cut exceeds `|V|/2`; anything else is split along its min cut and
/// both sides are processed recursively. Singletons are dropped.
pub fn hcs_clusters(graph: &AffinityGraph, min_weight: u64) -> Vec<Vec<NodeId>> {
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let mut out = Vec::new();
    let edge = |u: NodeId, v: NodeId| u64::from(graph.weight(u, v) >= min_weight && u != v);
    hcs_recurse(&nodes, &edge, &mut out, 0);
    out
}

fn hcs_recurse(
    nodes: &[NodeId],
    edge: &impl Fn(NodeId, NodeId) -> u64,
    out: &mut Vec<Vec<NodeId>>,
    depth: usize,
) {
    if nodes.len() < 2 || depth > 64 {
        return;
    }
    let (cut, side) = stoer_wagner_min_cut(nodes, edge);
    if cut as f64 > nodes.len() as f64 / 2.0 {
        out.push(nodes.to_vec());
        return;
    }
    let side_set: std::collections::HashSet<NodeId> = side.iter().copied().collect();
    let other: Vec<NodeId> = nodes.iter().copied().filter(|n| !side_set.contains(n)).collect();
    hcs_recurse(&side, edge, out, depth + 1);
    hcs_recurse(&other, edge, out, depth + 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two K4 cliques joined by a single light edge.
    fn two_cliques() -> (AffinityGraph, Vec<NodeId>, Vec<NodeId>) {
        let mut g = AffinityGraph::new();
        let a: Vec<NodeId> = (0..4).map(|_| g.add_node(100)).collect();
        let b: Vec<NodeId> = (0..4).map(|_| g.add_node(100)).collect();
        for side in [&a, &b] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    g.add_edge_weight(side[i], side[j], 50);
                }
            }
        }
        g.add_edge_weight(a[0], b[0], 1);
        (g, a, b)
    }

    fn cluster_of(clusters: &[Vec<NodeId>], n: NodeId) -> Option<usize> {
        clusters.iter().position(|c| c.contains(&n))
    }

    #[test]
    fn modularity_separates_cliques() {
        let (g, a, b) = two_cliques();
        let clusters = modularity_clusters(&g);
        let ca = cluster_of(&clusters, a[0]).unwrap();
        let cb = cluster_of(&clusters, b[0]).unwrap();
        assert_ne!(ca, cb);
        assert!(a.iter().all(|&n| cluster_of(&clusters, n) == Some(ca)));
        assert!(b.iter().all(|&n| cluster_of(&clusters, n) == Some(cb)));
    }

    #[test]
    fn modularity_on_empty_graph() {
        let g = AffinityGraph::new();
        assert!(modularity_clusters(&g).is_empty());
    }

    #[test]
    fn stoer_wagner_finds_the_bridge() {
        let (g, a, b) = two_cliques();
        let nodes: Vec<NodeId> = g.nodes().collect();
        let (cut, side) = stoer_wagner_min_cut(&nodes, |u, v| g.weight(u, v));
        assert_eq!(cut, 1);
        // One shore is exactly one clique.
        let side_set: std::collections::HashSet<_> = side.iter().copied().collect();
        let is_a = a.iter().all(|n| side_set.contains(n));
        let is_b = b.iter().all(|n| side_set.contains(n));
        assert!(is_a ^ is_b);
        assert_eq!(side.len(), 4);
    }

    #[test]
    fn stoer_wagner_disconnected_graph_has_zero_cut() {
        let mut g = AffinityGraph::new();
        let a = g.add_node(1);
        let b = g.add_node(1);
        let c = g.add_node(1);
        g.add_edge_weight(a, b, 5);
        let (cut, _) = stoer_wagner_min_cut(&[a, b, c], |u, v| g.weight(u, v));
        assert_eq!(cut, 0);
    }

    #[test]
    fn stoer_wagner_two_nodes() {
        let mut g = AffinityGraph::new();
        let a = g.add_node(1);
        let b = g.add_node(1);
        g.add_edge_weight(a, b, 7);
        let (cut, side) = stoer_wagner_min_cut(&[a, b], |u, v| g.weight(u, v));
        assert_eq!(cut, 7);
        assert_eq!(side.len(), 1);
    }

    #[test]
    fn hcs_recovers_cliques() {
        let (g, a, b) = two_cliques();
        let clusters = hcs_clusters(&g, 1);
        // K4 has edge connectivity 3 > 4/2 → both cliques are HCS clusters.
        assert_eq!(clusters.len(), 2);
        let ca = cluster_of(&clusters, a[1]).unwrap();
        let cb = cluster_of(&clusters, b[1]).unwrap();
        assert_ne!(ca, cb);
    }

    #[test]
    fn hcs_splits_a_path_to_nothing() {
        // A path a–b–c is never highly connected; HCS yields no clusters
        // of size ≥ 2 (split down to singletons, which are dropped).
        let mut g = AffinityGraph::new();
        let a = g.add_node(1);
        let b = g.add_node(1);
        let c = g.add_node(1);
        g.add_edge_weight(a, b, 9);
        g.add_edge_weight(b, c, 9);
        let clusters = hcs_clusters(&g, 1);
        assert!(clusters.iter().all(|c| c.len() <= 2));
    }
}
