//! Mergeable affinity deltas (DESIGN.md §13).
//!
//! A [`SubGraph`] is the write side of an [`AffinityGraph`]: node access
//! counts keyed by the *global* stable [`NodeId`] space plus an edge-weight
//! accumulator. A profiling lane records one and
//! [`SubGraph::into_graph`] adopts it. Because every field merges by
//! pointwise integer sum (and the node set by union of id ranges),
//! [`SubGraph::merge`] is commutative and associative — any partition of an
//! event stream over any number of deltas (trace partitions, generator
//! workers), merged in any order or tree shape, yields the same graph as
//! single-pass recording. That is what lets
//! `halo_core::par_merge_subgraphs` union deltas with `par_map` and stay
//! byte-identical to the serial fold (`tests/property_invariants.rs`).

use crate::affinity::{AffinityGraph, NodeId};
use crate::csr::EdgeAccumulator;

/// One recorder's contribution to an affinity graph: dense per-node access
/// deltas and an edge-weight accumulator over global node ids.
#[derive(Debug, Clone, Default)]
pub struct SubGraph {
    /// Access deltas, indexed by `NodeId`; the vector length is the
    /// highest node id this delta has seen plus one.
    accesses: Vec<u64>,
    edges: EdgeAccumulator,
}

impl SubGraph {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes this delta knows about (highest seen id + 1).
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the delta recorded nothing at all.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty() && self.edges.len() == 0
    }

    /// Number of distinct positive-weight edges recorded.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    fn ensure_node(&mut self, n: NodeId) {
        if self.accesses.len() <= n.index() {
            self.accesses.resize(n.index() + 1, 0);
        }
    }

    /// Record `delta` accesses on node `n` (0 still marks the node as
    /// seen, widening the id range the merge unions).
    pub fn add_accesses(&mut self, n: NodeId, delta: u64) {
        self.ensure_node(n);
        self.accesses[n.index()] += delta;
    }

    /// Access delta recorded for `n` (0 when unseen).
    pub fn accesses(&self, n: NodeId) -> u64 {
        self.accesses.get(n.index()).copied().unwrap_or(0)
    }

    /// Add `delta` to edge `(u, v)`; `u == v` records a loop.
    pub fn add_edge_weight(&mut self, u: NodeId, v: NodeId, delta: u64) {
        self.ensure_node(if u >= v { u } else { v });
        self.edges.add(u.0, v.0, delta);
    }

    /// Accumulated weight of `(u, v)` (0 when absent).
    pub fn weight(&self, u: NodeId, v: NodeId) -> u64 {
        self.edges.get(u.0, v.0)
    }

    /// The recorded edges as sorted `(u, v, weight)` triples with
    /// `u <= v` — the canonical form two deltas are compared in.
    pub fn edges(&self) -> Vec<(NodeId, NodeId, u64)> {
        let mut out = Vec::with_capacity(self.edges.len());
        self.edges.for_each(|u, v, w| out.push((NodeId(u), NodeId(v), w)));
        out.sort_unstable();
        out
    }

    /// Union `other` into `self`: node ranges union (by stable id — no
    /// renumbering ever happens), access counts and edge weights sum.
    /// Commutative and associative up to observable state (the internal
    /// hash layout may differ, every accessor is order-insensitive).
    #[must_use]
    pub fn merge(mut self, other: SubGraph) -> SubGraph {
        if self.accesses.len() < other.accesses.len() {
            // Grow-once so the pointwise sum below never reallocates.
            self.accesses.resize(other.accesses.len(), 0);
        }
        for (mine, theirs) in self.accesses.iter_mut().zip(&other.accesses) {
            *mine += theirs;
        }
        // Pre-size before the slot-order copy (see EdgeAccumulator::reserve
        // for why feeding hash order into a smaller table is quadratic).
        self.edges.reserve(other.edges.len());
        other.edges.for_each(|u, v, w| self.edges.add(u, v, w));
        self
    }

    /// Materialise the delta as a standalone, finalised graph — observably
    /// replaying every access count and edge into an empty graph and
    /// finalising it (the oracle in `tests/csr_reference.rs`), but the graph
    /// adopts this delta's access vector and edge accumulator instead of
    /// re-hashing every edge into a second table.
    pub fn into_graph(self) -> AffinityGraph {
        let mut graph = AffinityGraph::from_parts(self.accesses, self.edges);
        graph.finalise();
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn records_and_reads_back() {
        let mut s = SubGraph::new();
        assert!(s.is_empty());
        s.add_accesses(n(2), 10);
        s.add_edge_weight(n(0), n(2), 5);
        s.add_edge_weight(n(2), n(0), 1);
        s.add_edge_weight(n(1), n(1), 7);
        assert_eq!(s.len(), 3);
        assert_eq!(s.accesses(n(2)), 10);
        assert_eq!(s.accesses(n(9)), 0);
        assert_eq!(s.weight(n(2), n(0)), 6);
        assert_eq!(s.edges(), vec![(n(0), n(2), 6), (n(1), n(1), 7)]);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = SubGraph::new();
        a.add_accesses(n(0), 3);
        a.add_edge_weight(n(0), n(1), 4);
        let mut b = SubGraph::new();
        b.add_accesses(n(2), 8);
        b.add_edge_weight(n(1), n(0), 2);
        b.add_edge_weight(n(2), n(2), 9);
        let ab = a.clone().merge(b.clone());
        let ba = b.merge(a);
        assert_eq!(ab.len(), ba.len());
        assert_eq!(ab.edges(), ba.edges());
        for i in 0..3 {
            assert_eq!(ab.accesses(n(i)), ba.accesses(n(i)));
        }
        assert_eq!(ab.weight(n(0), n(1)), 6);
        assert_eq!(ab.accesses(n(2)), 8);
    }

    #[test]
    fn zero_access_marks_node_seen() {
        let mut s = SubGraph::new();
        s.add_accesses(n(4), 0);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        let g = s.into_graph();
        assert_eq!(g.len(), 5);
        assert_eq!(g.total_accesses(), 0);
    }

    #[test]
    fn into_graph_is_finalised() {
        let mut s = SubGraph::new();
        s.add_edge_weight(n(0), n(1), 5);
        s.add_accesses(n(0), 1);
        s.add_accesses(n(1), 1);
        let g = s.into_graph();
        assert!(g.is_finalised());
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(n(0), n(1), 5)]);
    }
}
