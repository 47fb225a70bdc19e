//! Flat edge storage for million-node affinity graphs (DESIGN.md §13).
//!
//! Two representations share the work between the write-heavy profiling
//! phase and the read-heavy grouping phase:
//!
//! * [`EdgeAccumulator`] — an open-addressing hash table from packed
//!   canonical `(min, max)` endpoint pairs to accumulated weight. This is
//!   the build phase: O(1) amortised increments, no ordering.
//! * [`Csr`] — compressed sparse rows: one offset per node into parallel
//!   neighbour/weight arrays, rows sorted by neighbour id. Non-loop edges
//!   appear in both endpoint rows; a loop appears once, in its node's own
//!   row. O(degree) neighbour iteration, O(log degree) weight lookup, and
//!   edge enumeration in ascending `(u, v)` order for free.
//!
//! Both are dependency-free: `halo_graph` has no crates to lean on, so the
//! accumulator hashes with the SplitMix64 finaliser instead of `std`'s
//! `RandomState` — which also makes iteration order a pure function of the
//! insertion sequence rather than of a per-process random seed.

/// Pack a canonicalised endpoint pair into the accumulator key.
#[inline]
pub(crate) fn pack(u: u32, v: u32) -> u64 {
    let (a, b) = if u <= v { (u, v) } else { (v, u) };
    ((a as u64) << 32) | b as u64
}

/// SplitMix64 finaliser: a full-avalanche mix of the packed key. A copy of
/// `halo_vm::mix64`: depending on `halo_vm` for it would change the lock
/// file `benchmark/` is built from.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    key: u64,
    /// 0 marks an empty slot: weights only ever grow, and zero-delta
    /// increments are dropped at the door, so no live entry is ever 0.
    weight: u64,
}

/// Open-addressing accumulator from packed edge keys to summed weights.
#[derive(Debug, Clone, Default)]
pub(crate) struct EdgeAccumulator {
    slots: Vec<Slot>,
    /// Number of occupied slots. Capacity is a power of two and is grown
    /// at 7/8 load, so linear probes stay short.
    len: usize,
}

impl EdgeAccumulator {
    pub(crate) fn with_capacity(edges: usize) -> Self {
        let cap = (edges * 8 / 7 + 1).next_power_of_two().max(16);
        EdgeAccumulator { slots: vec![Slot::default(); cap], len: 0 }
    }

    /// Number of distinct (positive-weight) edges accumulated.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Add `delta` to the weight of the edge `(u, v)`.
    pub(crate) fn add(&mut self, u: u32, v: u32, delta: u64) {
        if delta == 0 {
            return;
        }
        if self.len * 8 >= self.slots.len() * 7 {
            self.grow();
        }
        let key = pack(u, v);
        let mask = self.slots.len() - 1;
        let mut i = mix(key) as usize & mask;
        loop {
            let s = &mut self.slots[i];
            if s.weight == 0 {
                *s = Slot { key, weight: delta };
                self.len += 1;
                return;
            }
            if s.key == key {
                s.weight += delta;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Current weight of `(u, v)`, 0 when absent.
    pub(crate) fn get(&self, u: u32, v: u32) -> u64 {
        if self.slots.is_empty() {
            return 0;
        }
        let key = pack(u, v);
        let mask = self.slots.len() - 1;
        let mut i = mix(key) as usize & mask;
        loop {
            let s = &self.slots[i];
            if s.weight == 0 {
                return 0;
            }
            if s.key == key {
                return s.weight;
            }
            i = (i + 1) & mask;
        }
    }

    /// Visit every accumulated edge as `(u, v, weight)` with `u <= v`, in
    /// slot order (deterministic for a given insertion sequence, but not
    /// sorted — callers wanting order sort or finalise to CSR).
    pub(crate) fn for_each(&self, mut f: impl FnMut(u32, u32, u64)) {
        for s in &self.slots {
            if s.weight != 0 {
                f((s.key >> 32) as u32, s.key as u32, s.weight);
            }
        }
    }

    /// Grow so that `additional` more edges fit without crossing the 7/8
    /// load threshold mid-stream. Bulk callers that copy one accumulator
    /// into another ([`crate::SubGraph::merge`], `apply_to`) MUST pre-size:
    /// the source iterates in slot (= hash) order, and feeding that order
    /// into a *smaller* same-hash table packs each growth phase into one
    /// contiguous run whose linear probes degenerate quadratically (~40×
    /// at 200k edges).
    pub(crate) fn reserve(&mut self, additional: usize) {
        let needed = ((self.len + additional) * 8 / 7 + 1).next_power_of_two().max(16);
        if needed > self.slots.len() {
            self.rehash(needed);
        }
    }

    fn grow(&mut self) {
        self.rehash((self.slots.len() * 2).max(16));
    }

    fn rehash(&mut self, new_cap: usize) {
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); new_cap]);
        let mask = new_cap - 1;
        for s in old {
            if s.weight == 0 {
                continue;
            }
            let mut i = mix(s.key) as usize & mask;
            while self.slots[i].weight != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }
}

/// Finalised compressed-sparse-row edge storage over `num_nodes` nodes.
#[derive(Debug, Clone, Default)]
pub(crate) struct Csr {
    /// `offsets[n]..offsets[n + 1]` indexes node `n`'s row. Length is
    /// `num_nodes + 1` (a lone 0 for the empty graph).
    offsets: Vec<usize>,
    /// Row-sorted neighbour ids.
    nbr: Vec<u32>,
    /// Weights parallel to `nbr`.
    wts: Vec<u64>,
    /// Distinct edges stored (loops counted once).
    edge_count: usize,
}

impl Csr {
    /// Build from `(u, v, weight)` triples with `u <= v`, visited via
    /// `edges` (called twice: once to count degrees, once to fill). The
    /// caller has already filtered out dead endpoints and zero weights.
    pub(crate) fn build(num_nodes: usize, edges: impl Fn(&mut dyn FnMut(u32, u32, u64))) -> Csr {
        let mut deg = vec![0usize; num_nodes];
        let mut edge_count = 0usize;
        edges(&mut |u, v, _| {
            deg[u as usize] += 1;
            if u != v {
                deg[v as usize] += 1;
            }
            edge_count += 1;
        });
        let mut offsets = Vec::with_capacity(num_nodes + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut nbr = vec![0u32; acc];
        let mut wts = vec![0u64; acc];
        let mut cursor = offsets.clone();
        edges(&mut |u, v, w| {
            let cu = &mut cursor[u as usize];
            nbr[*cu] = v;
            wts[*cu] = w;
            *cu += 1;
            if u != v {
                let cv = &mut cursor[v as usize];
                nbr[*cv] = u;
                wts[*cv] = w;
                *cv += 1;
            }
        });
        // Sort each row by neighbour id (weights ride along).
        let mut scratch: Vec<(u32, u64)> = Vec::new();
        for n in 0..num_nodes {
            let (s, e) = (offsets[n], offsets[n + 1]);
            if e - s < 2 {
                continue;
            }
            scratch.clear();
            scratch.extend(nbr[s..e].iter().copied().zip(wts[s..e].iter().copied()));
            scratch.sort_unstable_by_key(|&(v, _)| v);
            for (i, &(v, w)) in scratch.iter().enumerate() {
                nbr[s + i] = v;
                wts[s + i] = w;
            }
        }
        Csr { offsets, nbr, wts, edge_count }
    }

    /// A copy over `num_nodes` nodes holding only the entries `keep`
    /// accepts, filtered row by row. Rows are already sorted and a
    /// non-loop edge sits in both endpoint rows, so a symmetric `keep`
    /// yields a valid CSR with no degree count, no scatter and no sort.
    /// `num_nodes` may exceed the row count (nodes added after
    /// finalisation); the extra nodes get empty rows.
    pub(crate) fn filter_rows(
        &self,
        num_nodes: usize,
        keep: impl Fn(u32, u32, u64) -> bool,
    ) -> Csr {
        let rows = self.offsets.len().saturating_sub(1);
        debug_assert!(rows <= num_nodes, "nodes are never removed");
        let mut offsets = Vec::with_capacity(num_nodes + 1);
        // Sized to the source (an upper bound, so pushes never reallocate
        // and copy); the untouched tail is handed back below.
        let mut nbr = Vec::with_capacity(self.nbr.len());
        let mut wts = Vec::with_capacity(self.wts.len());
        let mut edge_count = 0usize;
        offsets.push(0);
        for u in 0..rows {
            let (nbrs, ws) = self.row(u);
            for (&v, &w) in nbrs.iter().zip(ws) {
                if keep(u as u32, v, w) {
                    nbr.push(v);
                    wts.push(w);
                    edge_count += usize::from(v as usize >= u);
                }
            }
            offsets.push(nbr.len());
        }
        offsets.resize(num_nodes + 1, nbr.len());
        nbr.shrink_to_fit();
        wts.shrink_to_fit();
        Csr { offsets, nbr, wts, edge_count }
    }

    pub(crate) fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Node `n`'s row as parallel (neighbours, weights) slices. Nodes added
    /// after finalisation have no row yet and read as empty.
    pub(crate) fn row(&self, n: usize) -> (&[u32], &[u64]) {
        match self.offsets.get(n..n + 2) {
            Some(&[s, e]) => (&self.nbr[s..e], &self.wts[s..e]),
            _ => (&[], &[]),
        }
    }

    /// O(log degree) weight lookup; 0 when the edge is absent.
    pub(crate) fn weight(&self, u: u32, v: u32) -> u64 {
        // Loops live in their node's own row; plain edges are in both rows,
        // so searching u's row suffices either way.
        let (nbrs, wts) = self.row(u as usize);
        match nbrs.binary_search(&v) {
            Ok(i) => wts[i],
            Err(_) => 0,
        }
    }

    /// Visit each distinct edge once as `(u, v, weight)` with `u <= v`, in
    /// ascending `(u, v)` order.
    pub(crate) fn for_each_edge(&self, mut f: impl FnMut(u32, u32, u64)) {
        self.edge_iter().for_each(|(u, v, w)| f(u, v, w));
    }

    /// [`Csr::for_each_edge`] as an allocation-free iterator.
    pub(crate) fn edge_iter(&self) -> impl Iterator<Item = (u32, u32, u64)> + '_ {
        (0..self.offsets.len().saturating_sub(1)).flat_map(move |u| {
            let (nbrs, wts) = self.row(u);
            // Rows are sorted, so the distinct-edge half (v >= u) is a
            // contiguous suffix.
            let start = nbrs.partition_point(|&v| (v as usize) < u);
            nbrs[start..].iter().zip(&wts[start..]).map(move |(&v, &w)| (u as u32, v, w))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_sums_and_canonicalises() {
        let mut acc = EdgeAccumulator::default();
        acc.add(3, 1, 5);
        acc.add(1, 3, 2);
        acc.add(2, 2, 9);
        acc.add(1, 3, 0); // zero delta is dropped
        assert_eq!(acc.get(1, 3), 7);
        assert_eq!(acc.get(3, 1), 7);
        assert_eq!(acc.get(2, 2), 9);
        assert_eq!(acc.get(0, 1), 0);
        assert_eq!(acc.len(), 2);
    }

    #[test]
    fn accumulator_survives_growth() {
        let mut acc = EdgeAccumulator::default();
        for i in 0..10_000u32 {
            acc.add(i, i + 1, (i + 1) as u64);
        }
        assert_eq!(acc.len(), 10_000);
        for i in 0..10_000u32 {
            assert_eq!(acc.get(i + 1, i), (i + 1) as u64, "edge {i}");
        }
    }

    #[test]
    fn csr_rows_are_sorted_and_lookup_agrees() {
        let mut acc = EdgeAccumulator::default();
        let edges = [(4u32, 0u32, 11u64), (0, 1, 3), (2, 2, 8), (0, 2, 5), (3, 0, 7)];
        for &(u, v, w) in &edges {
            acc.add(u, v, w);
        }
        let csr = Csr::build(5, |f| acc.for_each(f));
        assert_eq!(csr.edge_count(), 5);
        let (nbrs, wts) = csr.row(0);
        assert_eq!(nbrs, &[1, 2, 3, 4]);
        assert_eq!(wts, &[3, 5, 7, 11]);
        for &(u, v, w) in &edges {
            assert_eq!(csr.weight(u, v), w);
            assert_eq!(csr.weight(v, u), w);
        }
        assert_eq!(csr.weight(1, 2), 0);
        // Enumeration: each edge once, ascending (u, v), loop included.
        let mut seen = Vec::new();
        csr.for_each_edge(|u, v, w| seen.push((u, v, w)));
        assert_eq!(seen, vec![(0, 1, 3), (0, 2, 5), (0, 3, 7), (0, 4, 11), (2, 2, 8)]);
    }

    #[test]
    fn filter_rows_equals_a_fresh_build_of_the_kept_edges() {
        let mut acc = EdgeAccumulator::default();
        for &(u, v, w) in
            &[(4u32, 0u32, 11u64), (0, 1, 3), (2, 2, 8), (0, 2, 5), (3, 0, 7), (1, 4, 5), (3, 3, 4)]
        {
            acc.add(u, v, w);
        }
        let csr = Csr::build(5, |f| acc.for_each(f));
        // Threshold at 5 (edges *at* the threshold stay) with node 3 dead,
        // over 7 nodes: two were added after `csr` was built.
        let keep = |u: u32, v: u32, w: u64| w >= 5 && u != 3 && v != 3;
        let filtered = csr.filter_rows(7, keep);
        let rebuilt = Csr::build(7, |f| {
            acc.for_each(|u, v, w| {
                if keep(u, v, w) {
                    f(u, v, w)
                }
            })
        });
        assert_eq!(filtered.offsets, rebuilt.offsets);
        assert_eq!(filtered.offsets.len(), 7 + 1, "row-less nodes still get offsets");
        assert_eq!(filtered.nbr, rebuilt.nbr);
        assert_eq!(filtered.wts, rebuilt.wts);
        assert_eq!(filtered.edge_count, 4);
        assert_eq!(rebuilt.edge_count, 4);
        let mut seen = Vec::new();
        filtered.for_each_edge(|u, v, w| seen.push((u, v, w)));
        assert_eq!(seen, vec![(0, 2, 5), (0, 4, 11), (1, 4, 5), (2, 2, 8)]);
        // Filtering the empty CSR still spans every node.
        assert_eq!(Csr::default().filter_rows(3, |_, _, _| true).offsets, vec![0; 4]);
    }

    #[test]
    fn csr_empty_and_out_of_range_rows() {
        let csr = Csr::default();
        assert_eq!(csr.row(0), (&[][..], &[][..]));
        assert_eq!(csr.weight(3, 4), 0);
        let acc = EdgeAccumulator::default();
        let csr = Csr::build(2, |f| acc.for_each(f));
        assert_eq!(csr.row(1), (&[][..], &[][..]));
        assert_eq!(csr.row(7), (&[][..], &[][..]));
    }
}
