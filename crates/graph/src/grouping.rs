//! The greedy context-grouping algorithm (paper Fig. 6).
//!
//! Rewritten on CSR adjacency for million-node graphs (DESIGN.md §13):
//! the seed scan walks a once-sorted edge list behind a forward-only
//! cursor, and group growth evaluates only candidates adjacent to a
//! member, with per-candidate weights accumulated incrementally as
//! members join. Both are *exact* reformulations of the original
//! full-rescan loops — the grouping-snapshot and CSR-reference property
//! suites pin the output bit-for-bit — because:
//!
//! * the available-node set only ever shrinks, so an edge skipped by the
//!   cursor (an endpoint already grouped) can never become the maximum
//!   again, and the cursor's next valid edge *is* the old per-iteration
//!   `max_by_key`;
//! * candidate weights are integer sums, so accumulating them one member
//!   at a time equals the old per-candidate rescan exactly, and every score
//!   goes through the two float helpers below (`score_parts`,
//!   `merge_benefit_parts`);
//! * a candidate *not* adjacent to any member can still win the old full
//!   scan in rare corners (tiny scores, or a tolerance so large the
//!   benefit grows with the candidate's loop weight). An analytic upper
//!   bound on every non-adjacent candidate's benefit gates those steps:
//!   when the bound (plus float slack) could reach the adjacent best —
//!   or zero — the step falls back to the literal full scan.
//!
//! A [`Group`] is what the clusterer found: its members, their internal
//! weight and their accesses. How a group's chunks are laid out is not
//! part of it; the pipeline keeps that in its per-group allocator table.

use crate::affinity::{AffinityGraph, NodeId};
use crate::csr::{pack, Csr};

/// The group-quality score (paper Fig. 7) of an induced subgraph
/// `G = (V, E)`, from its integer parts:
///
/// ```text
/// s(G) = Σ w(u,v) / (|L| + |V|·(|V|−1)/2)
/// ```
///
/// `weight_sum` runs over the edges inside the subgraph, loops included,
/// and `denom` counts the positive-weight loops `L` plus the member pairs.
/// Empty or edge-free subgraphs (`denom == 0`) score 0.
#[inline]
fn score_parts(weight_sum: u64, denom: u64) -> f64 {
    if denom == 0 {
        0.0
    } else {
        weight_sum as f64 / denom as f64
    }
}

/// The merge benefit (paper Fig. 8) from the three scores:
/// `m(A, B) = s(G[A ∪ B]) − (1 − T)·max(s(G[A]), s(G[B]))`. Positive only
/// if the merged subgraph scores higher than either side in isolation, up
/// to the tolerance `T` that deliberately permits fractionally
/// score-lowering merges to encourage group formation (§4.2).
#[inline]
fn merge_benefit_parts(sa: f64, sb: f64, sc: f64, tolerance: f64) -> f64 {
    sc - (1.0 - tolerance) * sa.max(sb)
}

/// Tunables of the Fig. 6 algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupingParams {
    /// Edges lighter than this are dropped before grouping
    /// (`args.min_weight`; the noise-reduction thresholding of §4.2).
    pub min_weight: u64,
    /// Maximum members per group (`args.max_group_members`).
    pub max_group_members: usize,
    /// Merge tolerance `T` (§4.2 finds ~5% to work well).
    pub merge_tolerance: f64,
    /// A finished group is kept only if its internal weight is at least
    /// `total accesses × gthresh` (`args.gthresh`).
    pub group_threshold: f64,
    /// Optional cap on the number of groups emitted, hottest first. The
    /// paper's artefact exposes this as `--max-groups` (roms uses 4).
    pub max_groups: Option<usize>,
}

impl Default for GroupingParams {
    fn default() -> Self {
        GroupingParams {
            min_weight: 8,
            max_group_members: 16,
            merge_tolerance: 0.05,
            group_threshold: 0.0005,
            max_groups: None,
        }
    }
}

/// A group of allocation contexts to be co-allocated from a shared pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Member contexts, in the order the algorithm accreted them.
    pub members: Vec<NodeId>,
    /// Σ of affinity-edge weights inside the group.
    pub weight: u64,
    /// Σ of member access counts — the "popularity" that orders selector
    /// construction (Fig. 10) and runtime selector evaluation.
    pub accesses: u64,
}

impl Group {
    /// Whether `n` is a member.
    pub fn contains(&self, n: NodeId) -> bool {
        self.members.contains(&n)
    }
}

/// Per-call scratch state for one `group()` run, sized once to the node
/// count and reset per group by walking the touched list (so forming many
/// small groups on a million-node graph stays O(work), not O(n·groups)).
struct Grower {
    /// Still ungrouped (and alive).
    avail: Vec<bool>,
    /// Σ of edge weights from current group members to each node.
    cand_w: Vec<u64>,
    /// Whether the node is already on the `cands` list.
    queued: Vec<bool>,
    /// Candidate nodes adjacent to at least one member.
    cands: Vec<u32>,
    /// Loop weight per node (in the thresholded graph).
    loop_w: Vec<u64>,
}

impl Grower {
    /// Fold `node`'s row into the candidate weights (called when `node`
    /// becomes a member, i.e. after it left `avail` — which is also what
    /// skips its own loop entry).
    fn absorb(&mut self, work: &Csr, node: NodeId) {
        let (nbrs, wts) = work.row(node.index());
        for (&v, &w) in nbrs.iter().zip(wts) {
            let vi = v as usize;
            if !self.avail[vi] {
                continue;
            }
            self.cand_w[vi] += w;
            if !self.queued[vi] {
                self.queued[vi] = true;
                self.cands.push(v);
            }
        }
    }

    /// The Fig. 8 benefit of adding `c` to the current group (`sa` and the
    /// pair counts are precomputed per growth step).
    #[inline]
    fn benefit_of(&self, c: usize, sa: f64, sum: u64, loops: u64, pairs1: u64, tol: f64) -> f64 {
        let lw = self.loop_w[c];
        let has_loop = u64::from(lw > 0);
        let sb = score_parts(lw, has_loop);
        let sc = score_parts(sum + self.cand_w[c] + lw, loops + has_loop + pairs1);
        merge_benefit_parts(sa, sb, sc, tol)
    }

    /// Reset per-group state by touched-list walk.
    fn clear_candidates(&mut self) {
        for &c in &self.cands {
            self.cand_w[c as usize] = 0;
            self.queued[c as usize] = false;
        }
        self.cands.clear();
    }
}

/// Fold `benefit` for `stranger` into the running best, with the original
/// scan's total tie-break (higher benefit, then smaller id).
#[inline]
fn consider(best: &mut Option<(NodeId, f64)>, stranger: NodeId, benefit: f64) {
    if benefit > 0.0 && best.is_none_or(|(bn, bb)| benefit > bb || (benefit == bb && stranger < bn))
    {
        *best = Some((stranger, benefit));
    }
}

/// Partition (a subset of) the graph's contexts into co-allocation groups —
/// the paper's Fig. 6 algorithm, verbatim:
///
/// 1. drop edges below `min_weight`;
/// 2. while any ungrouped edge remains, seed a group with the hotter
///    endpoint of the strongest available edge;
/// 3. grow it greedily by maximum merge benefit (Fig. 8) while positive and
///    the group is under `max_group_members`;
/// 4. keep the group if its internal weight reaches
///    `total_accesses × group_threshold`.
///
/// Returned groups are in formation order (strongest seed edge first).
pub fn group(graph: &AffinityGraph, params: &GroupingParams) -> Vec<Group> {
    // The thresholded working edges, built straight from `graph` (node
    // data is untouched by thresholding and is read from `graph` itself).
    let work = graph.thresholded(params.min_weight);
    let total_accesses = graph.total_accesses();
    let min_group_weight = (total_accesses as f64 * params.group_threshold).ceil() as u64;
    let n = graph.len();
    let tol = params.merge_tolerance;

    let mut grower = Grower {
        avail: vec![false; n],
        cand_w: vec![0; n],
        queued: vec![false; n],
        cands: Vec::new(),
        loop_w: vec![0; n],
    };
    for node in graph.nodes() {
        grower.avail[node.index()] = true;
    }

    // The old loop re-ran `max_by_key((w, Reverse((u, v))))` per group;
    // sorting once by descending weight then ascending (u, v) and walking
    // a forward-only cursor visits seeds in the same order. One integer
    // key per edge carries that whole order: complemented weight in the
    // high half, the packed `(u, v)` pair in the low half.
    let mut edge_order: Vec<u128> = Vec::with_capacity(work.edge_count());
    work.for_each_edge(|u, v, w| {
        if u == v {
            grower.loop_w[u as usize] = w;
        }
        edge_order.push(u128::from(!w) << 64 | u128::from(pack(u, v)));
    });
    edge_order.sort_unstable();
    let endpoints = |key: u128| ((key >> 32) as u32, key as u32);

    let mut groups: Vec<Group> = Vec::new();
    let mut cursor = 0usize;

    loop {
        // Strongest edge in the subgraph induced by the available nodes.
        // Loop edges participate: a context strongly affinitive with itself
        // can seed (and remain) a singleton group.
        while cursor < edge_order.len() {
            let (u, v) = endpoints(edge_order[cursor]);
            if grower.avail[u as usize] && grower.avail[v as usize] {
                break;
            }
            cursor += 1;
        }
        let Some(&key) = edge_order.get(cursor) else { break };
        let (u, v) = endpoints(key);
        let (u, v) = (NodeId(u), NodeId(v));

        // Seed with the hotter endpoint.
        let seed = if graph.accesses(u) >= graph.accesses(v) { u } else { v };
        let mut members = vec![seed];
        let mut weight_sum = grower.loop_w[seed.index()];
        let mut loop_count = u64::from(weight_sum > 0);
        grower.avail[seed.index()] = false;
        grower.absorb(&work, seed);

        // Grow by best positive merge benefit.
        while members.len() < params.max_group_members {
            let v_len = members.len() as u64;
            let pairs0 = v_len * (v_len - 1) / 2;
            let pairs1 = v_len * (v_len + 1) / 2;
            let sa = score_parts(weight_sum, loop_count + pairs0);

            let mut best: Option<(NodeId, f64)> = None;
            for i in 0..grower.cands.len() {
                let c = grower.cands[i] as usize;
                if grower.avail[c] {
                    let b = grower.benefit_of(c, sa, weight_sum, loop_count, pairs1, tol);
                    consider(&mut best, NodeId(c as u32), b);
                }
            }

            // Can a candidate with *no* edge into the group beat (or tie)
            // the adjacent best? Its benefit is f(lw) = (W + lw)/d −
            // (1−T)·max(sa, lw) with lw its loop weight and d the merged
            // denominator; f peaks at lw = sa when (1−T)·d > 1 (and at
            // lw = 0 without a loop), so two closed forms bound it. If the
            // bound clears the bar, run the literal full scan.
            let d0 = loop_count + pairs1;
            let d1 = d0 + 1;
            let one_minus_t = 1.0 - tol;
            let unbounded = one_minus_t * d1 as f64 <= 1.0;
            let ub = if unbounded {
                f64::INFINITY
            } else {
                let b0 = score_parts(weight_sum, d0) - one_minus_t * sa;
                let b1 = (weight_sum as f64 + sa) / d1 as f64 - one_minus_t * sa;
                b0.max(b1)
            };
            let slack = 1e-9 * (1.0 + ub.abs() + sa);
            let could_matter = match best {
                Some((_, bb)) => ub + slack >= bb,
                None => ub + slack > 0.0,
            };
            if could_matter {
                for c in 0..n {
                    if grower.avail[c] {
                        let b = grower.benefit_of(c, sa, weight_sum, loop_count, pairs1, tol);
                        consider(&mut best, NodeId(c as u32), b);
                    }
                }
            }

            match best {
                Some((node, _)) => {
                    let ni = node.index();
                    weight_sum += grower.cand_w[ni] + grower.loop_w[ni];
                    loop_count += u64::from(grower.loop_w[ni] > 0);
                    grower.avail[ni] = false;
                    grower.absorb(&work, node);
                    members.push(node);
                }
                None => break,
            }
        }

        grower.clear_candidates();
        if weight_sum >= min_group_weight && weight_sum > 0 {
            let accesses = members.iter().map(|&m| graph.accesses(m)).sum();
            groups.push(Group { members, weight: weight_sum, accesses });
        }
    }

    if let Some(cap) = params.max_groups {
        groups.sort_by_key(|g| std::cmp::Reverse(g.accesses));
        groups.truncate(cap);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn params() -> GroupingParams {
        GroupingParams {
            min_weight: 1,
            max_group_members: 16,
            merge_tolerance: 0.05,
            group_threshold: 0.0,
            max_groups: None,
        }
    }

    /// Two tight clusters joined by one weak edge — the canonical case the
    /// algorithm must separate.
    fn two_clusters() -> (AffinityGraph, Vec<NodeId>, Vec<NodeId>) {
        let mut g = AffinityGraph::new();
        let left: Vec<NodeId> = (0..3).map(|_| g.add_node(1000)).collect();
        let right: Vec<NodeId> = (0..3).map(|_| g.add_node(900)).collect();
        for i in 0..3 {
            for j in (i + 1)..3 {
                g.add_edge_weight(left[i], left[j], 500);
                g.add_edge_weight(right[i], right[j], 400);
            }
        }
        g.add_edge_weight(left[2], right[0], 3); // weak bridge
        (g, left, right)
    }

    #[test]
    fn score_matches_figure7_formula() {
        // Triangle of 30 + 20 + 10, no loops: 60 / (0 + 3·2/2).
        assert_eq!(score_parts(60, 3), 20.0);
        // One pair: 30 / 1.
        assert_eq!(score_parts(30, 1), 30.0);
        // A loop-free singleton has an empty denominator: 0, not NaN.
        assert_eq!(score_parts(0, 0), 0.0);
    }

    #[test]
    fn loops_enter_both_numerator_and_denominator() {
        let mut g = AffinityGraph::new();
        let a = g.add_node(10);
        let b = g.add_node(10);
        g.add_edge_weight(a, a, 12);
        g.add_edge_weight(a, b, 6);
        // {a}: 12 / (1 loop) = 12. {a, b}: (12 + 6) / (1 loop + 1 pair) = 9,
        // which loses to 0.95 · 12 — without the loop in the denominator it
        // would be 18 and `b` would join.
        let groups = group(&g, &params());
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members, vec![a]);
        assert_eq!(groups[0].weight, 12);
    }

    #[test]
    fn merge_benefit_negative_for_weakly_connected_candidates() {
        let mut g = AffinityGraph::new();
        let a = g.add_node(10);
        let b = g.add_node(10);
        let c = g.add_node(10);
        g.add_edge_weight(a, b, 100);
        g.add_edge_weight(b, c, 1);
        // Adding c to {a, b}: s = 101/3 ≈ 33.7 vs (1−T)·100 = 95 → negative.
        let groups = group(&g, &params());
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members, vec![a, b]);
    }

    #[test]
    fn tolerance_allows_fractionally_worse_merges() {
        let mut g = AffinityGraph::new();
        let a = g.add_node(10);
        let b = g.add_node(10);
        let c = g.add_node(10);
        // Perfect triangle of equal edges: adding c to {a,b} keeps score
        // at w (s({a,b}) = w, s({a,b,c}) = 3w/3 = w). With T=0 the benefit
        // is exactly 0 (not positive); any positive T makes it positive.
        for (u, v) in [(a, b), (b, c), (a, c)] {
            g.add_edge_weight(u, v, 50);
        }
        let strict = group(&g, &GroupingParams { merge_tolerance: 0.0, ..params() });
        assert_eq!(strict[0].members, vec![a, b]);
        let tolerant = group(&g, &params());
        assert_eq!(tolerant[0].members, vec![a, b, c]);
    }

    #[test]
    fn separates_two_tight_clusters() {
        let (g, left, right) = two_clusters();
        let groups = group(&g, &params());
        assert_eq!(groups.len(), 2);
        let find = |n: NodeId| groups.iter().position(|gr| gr.contains(n)).unwrap();
        // All of `left` in one group, all of `right` in the other.
        assert!(left.iter().all(|&n| find(n) == find(left[0])));
        assert!(right.iter().all(|&n| find(n) == find(right[0])));
        assert_ne!(find(left[0]), find(right[0]));
    }

    #[test]
    fn groups_are_disjoint_and_within_bounds() {
        let (g, _, _) = two_clusters();
        let p = GroupingParams { max_group_members: 2, ..params() };
        let groups = group(&g, &p);
        let mut seen = HashSet::new();
        for gr in &groups {
            assert!(gr.members.len() <= 2);
            for &m in &gr.members {
                assert!(seen.insert(m), "node {m} appears in two groups");
            }
        }
    }

    #[test]
    fn strongest_edge_seeds_first_group() {
        let (g, left, _) = two_clusters();
        let groups = group(&g, &params());
        // Left cluster has the heavier edges, so it forms first.
        assert!(groups[0].contains(left[0]));
    }

    #[test]
    fn min_weight_filters_noise_edges() {
        let mut g = AffinityGraph::new();
        let a = g.add_node(10);
        let b = g.add_node(10);
        g.add_edge_weight(a, b, 2);
        let p = GroupingParams { min_weight: 5, ..params() };
        assert!(group(&g, &p).is_empty());
        let p2 = GroupingParams { min_weight: 1, ..params() };
        assert_eq!(group(&g, &p2).len(), 1);
    }

    #[test]
    fn group_threshold_discards_cold_groups() {
        let mut g = AffinityGraph::new();
        let a = g.add_node(1_000_000); // a very hot, edgeless node
        let b = g.add_node(10);
        let c = g.add_node(10);
        g.add_edge_weight(b, c, 4);
        let _ = a;
        // 4 < 0.001 × 1,000,020 → discarded.
        let p = GroupingParams { group_threshold: 0.001, ..params() };
        assert!(group(&g, &p).is_empty());
    }

    #[test]
    fn loop_only_context_forms_singleton_group() {
        let mut g = AffinityGraph::new();
        let a = g.add_node(100);
        g.add_edge_weight(a, a, 50);
        let groups = group(&g, &params());
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members, vec![a]);
        assert_eq!(groups[0].weight, 50);
    }

    #[test]
    fn max_groups_keeps_hottest() {
        let (g, left, right) = two_clusters();
        let p = GroupingParams { max_groups: Some(1), ..params() };
        let groups = group(&g, &p);
        assert_eq!(groups.len(), 1);
        // Left members are hotter (1000 each vs 900).
        assert!(left.iter().all(|&n| groups[0].contains(n)));
        assert!(right.iter().all(|&n| !groups[0].contains(n)));
    }

    #[test]
    fn empty_graph_yields_no_groups() {
        let g = AffinityGraph::new();
        assert!(group(&g, &params()).is_empty());
    }

    #[test]
    fn isolated_nodes_stay_ungrouped() {
        let mut g = AffinityGraph::new();
        let a = g.add_node(100);
        let b = g.add_node(100);
        let c = g.add_node(5);
        g.add_edge_weight(a, b, 10);
        let groups = group(&g, &params());
        assert_eq!(groups.len(), 1);
        assert!(!groups[0].contains(c));
    }

    #[test]
    fn deterministic_across_runs() {
        let (g, _, _) = two_clusters();
        let a = group(&g, &params());
        let b = group(&g, &params());
        assert_eq!(a, b);
    }

    /// A huge tolerance lets *non-adjacent* candidates win a growth step,
    /// which only the full-scan fallback can see: the heavy loop on `c`
    /// seeds the first group, `{c}` has no neighbours at all, yet with
    /// T = 0.9 merging the edgeless `a` is beneficial (s({c,a}) = 2500 vs
    /// (1−T)·5000 = 500), so the group must still grow.
    #[test]
    fn non_adjacent_candidate_wins_under_large_tolerance() {
        let mut g = AffinityGraph::new();
        let a = g.add_node(100);
        let b = g.add_node(100);
        let c = g.add_node(100);
        let d = g.add_node(100);
        g.add_edge_weight(a, b, 1000);
        g.add_edge_weight(c, c, 5000); // non-adjacent, heavy loop
        g.add_edge_weight(b, d, 1); // weak adjacent candidate
        let p = GroupingParams { merge_tolerance: 0.9, ..params() };
        let groups = group(&g, &p);
        // The loop-seeded group swallows the graph one fallback step at a
        // time: {c} → {c,a} (non-adjacent) → {c,a,b} → {c,a,b,d}.
        assert_eq!(groups.len(), 1);
        assert!([a, b, c, d].iter().all(|&n| groups[0].contains(n)));
    }
}
