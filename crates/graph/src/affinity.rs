//! The pairwise affinity graph (§4.1), on flat storage sized for
//! million-context profiles (DESIGN.md §13).

use crate::csr::{Csr, EdgeAccumulator};

/// Identifies a node (an allocation context) in an [`AffinityGraph`].
///
/// Ids are dense and stable: filtering cold nodes never renumbers the
/// survivors, so profiler-side context tables can key off `NodeId` directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a plain index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ctx#{}", self.0)
    }
}

/// One liveness bit per node. The edge filters test both endpoints of
/// every edge, in hash (i.e. random) order during finalisation; a million
/// nodes are 125 KB of bits that stay cache-resident, where a flag stored
/// beside each access count was a cache miss per endpoint.
#[derive(Debug, Clone, Default)]
struct LiveSet {
    words: Vec<u64>,
}

impl LiveSet {
    /// Nodes `0..len`, all alive.
    fn all_alive(len: usize) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            *last >>= (64 - len % 64) % 64;
        }
        LiveSet { words }
    }

    /// Mark node `i` alive, growing the set to hold it.
    fn insert(&mut self, i: usize) {
        if i / 64 >= self.words.len() {
            self.words.resize(i / 64 + 1, 0);
        }
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Whether node `i` is alive; out-of-range ids read as dead.
    #[inline]
    fn get(&self, i: usize) -> bool {
        self.words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    fn discard(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }
}

/// Edge storage phases. Writes land in a hash accumulator; the first
/// read-heavy operation (or an explicit [`AffinityGraph::finalise`])
/// compacts it into CSR. A write to a finalised graph melts the CSR back
/// into an accumulator, so the API stays phase-free for callers.
#[derive(Debug, Clone)]
enum EdgeStore {
    Building(EdgeAccumulator),
    Finalised(Csr),
}

impl Default for EdgeStore {
    fn default() -> Self {
        EdgeStore::Building(EdgeAccumulator::default())
    }
}

/// A weighted undirected multigraph-free graph over allocation contexts,
/// with loop edges permitted (two *different* objects from the *same*
/// context can be affinitive, which the score function must account for).
///
/// Edges live in one of two representations (an accumulation hash table
/// while building, compressed sparse rows once finalised — see
/// [`AffinityGraph::finalise`]); every method works in either phase, and
/// [`AffinityGraph::edges`] yields ascending `(u, v)` order in both.
#[derive(Debug, Clone, Default)]
pub struct AffinityGraph {
    /// Access count per node, indexed by `NodeId`.
    accesses: Vec<u64>,
    alive: LiveSet,
    store: EdgeStore,
}

impl AffinityGraph {
    /// Hard capacity: node ids must fit `NodeId`'s `u32`. A million-node
    /// profile (DESIGN.md §13) is ~0.02% of this, but a runaway live
    /// profiler could conceivably reach it — and a silent `as u32` wrap
    /// would alias ids and corrupt every downstream grouping.
    pub const MAX_NODES: usize = u32::MAX as usize;

    /// Convert a node index into a [`NodeId`], panicking with a clear
    /// message once `capacity` is reached instead of silently truncating.
    /// `capacity` is a seam for the overflow guard test; real callers pass
    /// [`AffinityGraph::MAX_NODES`].
    fn checked_id(index: usize, capacity: usize) -> NodeId {
        assert!(
            index < capacity,
            "affinity graph overflow: node index {index} does not fit the u32 NodeId space \
             (capacity {capacity}); discard cold contexts before interning more"
        );
        NodeId(index as u32)
    }

    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node with an initial access count; returns its id.
    ///
    /// # Panics
    ///
    /// Panics when the graph already holds [`AffinityGraph::MAX_NODES`]
    /// nodes — ids would otherwise wrap and alias.
    pub fn add_node(&mut self, accesses: u64) -> NodeId {
        let id = Self::checked_id(self.accesses.len(), Self::MAX_NODES);
        self.accesses.push(accesses);
        self.alive.insert(id.index());
        id
    }

    /// Adopt a finished shard delta as a build-phase graph: the access
    /// vector becomes the node table (every node alive) and the edge
    /// accumulator becomes the store, so no edge is hashed a second time.
    pub(crate) fn from_parts(accesses: Vec<u64>, edges: EdgeAccumulator) -> Self {
        if let Some(last) = accesses.len().checked_sub(1) {
            Self::checked_id(last, Self::MAX_NODES);
        }
        let alive = LiveSet::all_alive(accesses.len());
        AffinityGraph { accesses, alive, store: EdgeStore::Building(edges) }
    }

    /// Number of nodes ever added (alive and discarded).
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the graph has no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Iterate over the ids of alive nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        // Indices are < len, which add_node capped at MAX_NODES, so the
        // checked conversion can only fire if that invariant breaks.
        (0..self.len()).filter(|&i| self.alive.get(i)).map(|i| Self::checked_id(i, Self::MAX_NODES))
    }

    /// Whether `n` is alive (not discarded by the cold-node filter).
    pub fn is_alive(&self, n: NodeId) -> bool {
        self.alive.get(n.index())
    }

    /// Access count recorded for `n`.
    pub fn accesses(&self, n: NodeId) -> u64 {
        self.accesses[n.index()]
    }

    /// Add to a node's access count.
    pub fn add_accesses(&mut self, n: NodeId, delta: u64) {
        self.accesses[n.index()] += delta;
    }

    /// Total accesses across alive nodes — the `graph.accesses` quantity of
    /// the Fig. 6 group-weight threshold.
    pub fn total_accesses(&self) -> u64 {
        self.nodes().map(|n| self.accesses(n)).sum()
    }

    /// Fraction of this graph's accesses — over *every* node ever added,
    /// discarded or not, so the result is a true fraction in `[0, 1]` —
    /// attributed to `members`. Returns 0 when the graph has seen no
    /// accesses at all. The granularity ablation asks this of the *page*
    /// graph for the object-granularity group members: how much of the
    /// salient access stream do the object-level groups actually cover?
    /// (roms: almost none — the grids dominate and are invisible below
    /// the tracked-size cap.)
    pub fn coverage_of<I: IntoIterator<Item = NodeId>>(&self, members: I) -> f64 {
        let total: u64 = self.accesses.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let covered: u64 =
            members.into_iter().map(|n| self.accesses.get(n.index()).copied().unwrap_or(0)).sum();
        covered as f64 / total as f64
    }

    /// Increment the weight of edge `(u, v)`; `u == v` records a loop.
    /// On a finalised graph this melts the CSR back into build phase.
    pub fn add_edge_weight(&mut self, u: NodeId, v: NodeId, delta: u64) {
        debug_assert!(self.is_alive(u) && self.is_alive(v));
        self.make_building().add(u.0, v.0, delta);
    }

    /// Make room for `additional` more distinct edges before a bulk
    /// insertion loop (melting a finalised store back to build phase if
    /// necessary). Purely a performance hint — see
    /// `EdgeAccumulator::reserve` for the pathology it avoids.
    pub fn reserve_edges(&mut self, additional: usize) {
        self.make_building().reserve(additional);
    }

    /// Current weight of edge `(u, v)` (0 when absent).
    pub fn weight(&self, u: NodeId, v: NodeId) -> u64 {
        match &self.store {
            EdgeStore::Building(acc) => acc.get(u.0, v.0),
            EdgeStore::Finalised(csr) => csr.weight(u.0, v.0),
        }
    }

    /// Whether the edge store is currently in compact CSR form.
    pub fn is_finalised(&self) -> bool {
        matches!(self.store, EdgeStore::Finalised(_))
    }

    /// Compact the edge store into CSR: per-node offset rows with sorted
    /// neighbour/weight arrays, loops kept (once, in their node's row).
    /// Edges to discarded endpoints are dropped for good. Idempotent; a
    /// later [`AffinityGraph::add_edge_weight`] transparently reverts to
    /// the build phase.
    pub fn finalise(&mut self) {
        if !self.is_finalised() {
            self.store = EdgeStore::Finalised(self.thresholded(0));
        }
    }

    /// The edges of weight ≥ `min_weight` between alive endpoints, as a
    /// fresh CSR over every node — the one thresholding routine behind
    /// [`AffinityGraph::finalise`], [`AffinityGraph::threshold_edges`],
    /// [`AffinityGraph::discard_cold_nodes`] and [`crate::group`]'s working
    /// graph. A finalised source is filtered row by row; a build-phase
    /// source goes through the counting-sort build.
    pub(crate) fn thresholded(&self, min_weight: u64) -> Csr {
        // Weight first: on a thresholding pass most rejections never
        // reach the liveness bits.
        let keep = |u: u32, v: u32, w: u64| {
            w >= min_weight && self.alive.get(u as usize) && self.alive.get(v as usize)
        };
        match &self.store {
            EdgeStore::Building(acc) => Csr::build(self.len(), |f| {
                acc.for_each(|u, v, w| {
                    if keep(u, v, w) {
                        f(u, v, w)
                    }
                })
            }),
            EdgeStore::Finalised(csr) => csr.filter_rows(self.len(), keep),
        }
    }

    /// The accumulator, melting a finalised CSR back into build phase if
    /// necessary.
    fn make_building(&mut self) -> &mut EdgeAccumulator {
        if let EdgeStore::Finalised(csr) = &self.store {
            let mut acc = EdgeAccumulator::with_capacity(csr.edge_count() + 1);
            csr.for_each_edge(|u, v, w| acc.add(u, v, w));
            self.store = EdgeStore::Building(acc);
        }
        match &mut self.store {
            EdgeStore::Building(acc) => acc,
            EdgeStore::Finalised(_) => unreachable!("store was just melted"),
        }
    }

    /// Iterate over `(u, v, weight)` for every edge with positive weight
    /// between alive endpoints, in ascending `(u, v)` order (each
    /// undirected edge once, with `u <= v`; loops included). On a
    /// finalised graph this walks the CSR rows allocation-free; in build
    /// phase it collects and sorts, so hot callers should finalise first.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        let (building, finalised) = match &self.store {
            EdgeStore::Building(acc) => {
                let mut collected = Vec::with_capacity(acc.len());
                acc.for_each(|u, v, w| {
                    if self.alive.get(u as usize) && self.alive.get(v as usize) {
                        collected.push((u, v, w));
                    }
                });
                collected.sort_unstable();
                (Some(collected), None)
            }
            EdgeStore::Finalised(csr) => (None, Some(csr.edge_iter())),
        };
        building
            .into_iter()
            .flatten()
            .chain(finalised.into_iter().flatten())
            .map(|(u, v, w)| (NodeId(u), NodeId(v), w))
    }

    /// Number of positive-weight edges between alive endpoints.
    pub fn edge_count(&self) -> usize {
        match &self.store {
            // Build-phase entries are all positive-weight between alive
            // endpoints (edges cannot be added to discarded nodes, and
            // discarding finalises), so the occupancy count is the answer.
            EdgeStore::Building(acc) => acc.len(),
            EdgeStore::Finalised(csr) => csr.edge_count(),
        }
    }

    /// Drop edges lighter than `min_weight` (the noise-reduction edge
    /// thresholding of §4.2). Leaves the graph finalised.
    pub fn threshold_edges(&mut self, min_weight: u64) {
        self.store = EdgeStore::Finalised(self.thresholded(min_weight));
    }

    /// Exponentially decay the graph: every edge weight and node access
    /// count becomes `floor(value · factor)`, and edges that decay to zero
    /// are dropped for good. Streaming profilers call this once per window
    /// so stale phases fade with half-life `ln 2 / ln(1/factor)` windows
    /// while fresh edges keep full weight. Like any write, this leaves the
    /// graph in build phase (a finalised CSR melts). Deterministic: IEEE
    /// multiply plus truncation, no rounding-mode dependence.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is outside `[0, 1]` — growth is not decay, and
    /// NaN would silently zero the graph.
    pub fn decay(&mut self, factor: f64) {
        assert!((0.0..=1.0).contains(&factor), "decay factor {factor} must be within [0, 1]");
        let scaled = |w: u64| (w as f64 * factor) as u64;
        for a in &mut self.accesses {
            *a = scaled(*a);
        }
        let mut decayed = EdgeAccumulator::with_capacity(self.edge_count() + 1);
        let mut keep = |u: u32, v: u32, w: u64| {
            let w = scaled(w);
            if w > 0 {
                decayed.add(u, v, w);
            }
        };
        match &self.store {
            EdgeStore::Building(acc) => acc.for_each(&mut keep),
            EdgeStore::Finalised(csr) => csr.for_each_edge(&mut keep),
        }
        self.store = EdgeStore::Building(decayed);
    }

    /// Keep the hottest nodes covering `keep_fraction` of all accesses and
    /// discard the rest along with their edges (§4.1: "after 90% of all
    /// observed accesses have been accounted for, any remaining nodes are
    /// discarded"). Returns the discarded ids. Leaves the graph finalised.
    ///
    /// # Panics
    ///
    /// Panics when `keep_fraction` is outside `[0, 1]` — NaN or a negative
    /// fraction would make the coverage target 0 and silently discard
    /// every node.
    pub fn discard_cold_nodes(&mut self, keep_fraction: f64) -> Vec<NodeId> {
        assert!(
            (0.0..=1.0).contains(&keep_fraction),
            "keep_fraction {keep_fraction} must be within [0, 1]"
        );
        let total = self.total_accesses();
        let target = (total as f64 * keep_fraction).ceil() as u64;
        let mut order: Vec<NodeId> = self.nodes().collect();
        order.sort_by_key(|n| std::cmp::Reverse(self.accesses(*n)));
        let mut covered = 0u64;
        let mut discarded = Vec::new();
        for n in order {
            if covered >= target {
                self.alive.discard(n.index());
                discarded.push(n);
            } else {
                covered += self.accesses(n);
            }
        }
        self.store = EdgeStore::Finalised(self.thresholded(0)); // drops the dead nodes' edges
        discarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_nodes_and_edges() {
        let mut g = AffinityGraph::new();
        let a = g.add_node(10);
        let b = g.add_node(20);
        g.add_edge_weight(a, b, 5);
        g.add_edge_weight(b, a, 3); // same undirected edge
        assert_eq!(g.weight(a, b), 8);
        assert_eq!(g.weight(b, a), 8);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.total_accesses(), 30);
    }

    #[test]
    fn loops_are_edges_too() {
        let mut g = AffinityGraph::new();
        let a = g.add_node(10);
        g.add_edge_weight(a, a, 7);
        assert_eq!(g.weight(a, a), 7);
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(a, a, 7)]);
    }

    #[test]
    fn threshold_removes_light_edges() {
        let mut g = AffinityGraph::new();
        let a = g.add_node(1);
        let b = g.add_node(1);
        let c = g.add_node(1);
        g.add_edge_weight(a, b, 10);
        g.add_edge_weight(b, c, 2);
        g.threshold_edges(5);
        assert_eq!(g.weight(a, b), 10);
        assert_eq!(g.weight(b, c), 0);
    }

    #[test]
    fn discard_cold_nodes_keeps_90_percent_coverage() {
        let mut g = AffinityGraph::new();
        // 80 + 15 + 5 accesses; covering 90% needs the first two nodes,
        // after which the remainder is discarded (§4.1).
        let hot = g.add_node(80);
        let warm = g.add_node(15);
        let cold = g.add_node(5);
        g.add_edge_weight(hot, cold, 4);
        let dropped = g.discard_cold_nodes(0.9);
        assert_eq!(dropped, vec![cold]);
        assert!(g.is_alive(hot) && g.is_alive(warm) && !g.is_alive(cold));
        // Edges to dead nodes disappear.
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.total_accesses(), 95);
    }

    #[test]
    fn discard_keeps_everything_when_fraction_is_one() {
        let mut g = AffinityGraph::new();
        g.add_node(5);
        g.add_node(5);
        let dropped = g.discard_cold_nodes(1.0);
        assert!(dropped.is_empty());
    }

    #[test]
    fn discard_drops_everything_when_fraction_is_zero() {
        let mut g = AffinityGraph::new();
        let a = g.add_node(5);
        let b = g.add_node(5);
        // A target of 0 accesses is met before the first node: all go.
        assert_eq!(g.discard_cold_nodes(0.0), vec![a, b]);
    }

    #[test]
    fn discard_rejects_fractions_outside_the_unit_interval() {
        for bad in [f64::NAN, -0.1, 1.5] {
            let mut g = AffinityGraph::new();
            g.add_node(5);
            let err = std::panic::catch_unwind(move || g.discard_cold_nodes(bad))
                .expect_err("an out-of-range fraction is rejected");
            let msg = err.downcast_ref::<String>().expect("assert message");
            assert!(msg.contains("must be within [0, 1]"), "{bad}: {msg}");
        }
    }

    #[test]
    fn coverage_fraction_is_bounded_and_empty_safe() {
        let mut g = AffinityGraph::new();
        assert_eq!(g.coverage_of([]), 0.0);
        let a = g.add_node(75);
        let b = g.add_node(25);
        assert_eq!(g.coverage_of([a]), 0.75);
        assert_eq!(g.coverage_of([a, b]), 1.0);
        assert_eq!(g.coverage_of([]), 0.0);
        // Out-of-range ids (from a graph with more nodes) contribute 0.
        assert_eq!(g.coverage_of([NodeId(99)]), 0.0);
        // Discarding a node must not push coverage past 1: the denominator
        // spans every node ever added, dead or alive.
        g.discard_cold_nodes(0.75);
        assert!(!g.is_alive(b));
        assert_eq!(g.coverage_of([a, b]), 1.0);
        assert_eq!(g.coverage_of([b]), 0.25);
    }

    #[test]
    fn edges_are_sorted_in_both_phases() {
        let mut g = AffinityGraph::new();
        let ids: Vec<NodeId> = (0..6).map(|_| g.add_node(1)).collect();
        // Insert in a deliberately scrambled order.
        for &(u, v, w) in
            &[(5, 1, 9u64), (0, 3, 4), (2, 2, 7), (0, 1, 2), (4, 5, 1), (3, 3, 3), (1, 2, 6)]
        {
            g.add_edge_weight(ids[u], ids[v], w);
        }
        let expected = vec![
            (ids[0], ids[1], 2),
            (ids[0], ids[3], 4),
            (ids[1], ids[2], 6),
            (ids[1], ids[5], 9),
            (ids[2], ids[2], 7),
            (ids[3], ids[3], 3),
            (ids[4], ids[5], 1),
        ];
        assert!(!g.is_finalised());
        assert_eq!(g.edges().collect::<Vec<_>>(), expected, "build phase");
        g.finalise();
        assert!(g.is_finalised());
        assert_eq!(g.edges().collect::<Vec<_>>(), expected, "finalised");
    }

    #[test]
    fn finalise_then_write_melts_back_losslessly() {
        let mut g = AffinityGraph::new();
        let a = g.add_node(1);
        let b = g.add_node(1);
        let c = g.add_node(1);
        g.add_edge_weight(a, b, 5);
        g.finalise();
        assert_eq!(g.weight(a, b), 5);
        g.add_edge_weight(a, b, 2); // melts
        assert!(!g.is_finalised());
        g.add_edge_weight(b, c, 1);
        assert_eq!(g.weight(a, b), 7);
        assert_eq!(g.weight(b, c), 1);
        g.finalise();
        assert_eq!(g.weight(a, b), 7);
        assert_eq!(g.edge_count(), 2);
        // Re-finalising is a no-op.
        g.finalise();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn checked_id_converts_below_capacity() {
        assert_eq!(AffinityGraph::checked_id(0, 4), NodeId(0));
        assert_eq!(AffinityGraph::checked_id(3, 4), NodeId(3));
        // The real capacity is the full u32 id space.
        assert_eq!(
            AffinityGraph::checked_id(u32::MAX as usize - 1, AffinityGraph::MAX_NODES).0,
            u32::MAX - 1
        );
    }

    #[test]
    #[should_panic(expected = "does not fit the u32 NodeId space")]
    fn node_id_overflow_panics_instead_of_truncating() {
        // The small-capacity seam stands in for interning 2^32 contexts:
        // index == capacity is the first id that would silently wrap.
        let _ = AffinityGraph::checked_id(4, 4);
    }

    #[test]
    fn decay_scales_weights_and_drops_vanished_edges() {
        let mut g = AffinityGraph::new();
        let a = g.add_node(100);
        let b = g.add_node(10);
        let c = g.add_node(1);
        g.add_edge_weight(a, b, 10);
        g.add_edge_weight(b, c, 1); // decays to zero and disappears
        g.add_edge_weight(a, a, 5); // loops decay like any edge
        g.decay(0.5);
        assert_eq!(g.weight(a, b), 5);
        assert_eq!(g.weight(b, c), 0);
        assert_eq!(g.weight(a, a), 2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.accesses(a), 50);
        assert_eq!(g.accesses(b), 5);
        assert_eq!(g.accesses(c), 0);
        // A second half-life halves again (floor division).
        g.decay(0.5);
        assert_eq!(g.weight(a, b), 2);
        assert_eq!(g.weight(a, a), 1);
    }

    #[test]
    fn decay_melts_a_finalised_graph_like_any_write() {
        let mut g = AffinityGraph::new();
        let a = g.add_node(8);
        let b = g.add_node(8);
        g.add_edge_weight(a, b, 8);
        g.finalise();
        assert!(g.is_finalised());
        g.decay(0.25);
        assert!(!g.is_finalised(), "decay is a write: the CSR melts");
        assert_eq!(g.weight(a, b), 2);
        // Fresh edges land at full weight alongside the decayed ones.
        g.add_edge_weight(a, b, 8);
        assert_eq!(g.weight(a, b), 10);
    }

    #[test]
    fn decay_edge_factors_are_total_forgetting_and_identity() {
        let mut g = AffinityGraph::new();
        let a = g.add_node(7);
        let b = g.add_node(3);
        g.add_edge_weight(a, b, 9);
        let mut id = g.clone();
        id.decay(1.0);
        assert_eq!(id.weight(a, b), 9, "factor 1.0 is the identity");
        assert_eq!(id.accesses(a), 7);
        g.decay(0.0);
        assert_eq!(g.weight(a, b), 0, "factor 0.0 forgets everything");
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.total_accesses(), 0);
        assert!(g.is_alive(a) && g.is_alive(b), "nodes stay interned");
    }

    #[test]
    #[should_panic(expected = "must be within [0, 1]")]
    fn decay_rejects_growth_factors() {
        AffinityGraph::new().decay(1.5);
    }

    #[test]
    fn live_set_word_boundaries() {
        for len in [0usize, 1, 63, 64, 65, 128, 130] {
            let mut live = LiveSet::all_alive(len);
            assert!((0..len).all(|i| live.get(i)), "all of {len} alive");
            assert!(!live.get(len) && !live.get(len + 64), "past the end reads dead");
            // Growing an adopted set continues where it left off.
            live.insert(len);
            assert!(live.get(len) && !live.get(len + 1));
            if len > 0 {
                live.discard(len - 1);
                assert!(!live.get(len - 1) && live.get(len));
            }
        }
    }

    #[test]
    fn nodes_added_after_finalise_read_as_isolated() {
        let mut g = AffinityGraph::new();
        let a = g.add_node(1);
        g.add_edge_weight(a, a, 2);
        g.finalise();
        let late = g.add_node(9);
        assert_eq!(g.weight(late, a), 0);
        assert_eq!(g.weight(late, late), 0);
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(a, a, 2)]);
        assert!(g.is_alive(late));
        g.add_edge_weight(late, a, 4);
        assert_eq!(g.weight(late, a), 4);
    }
}
