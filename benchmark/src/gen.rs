//! The benchmark's own input generators, all seeded from `--seed`.
//!
//! Nothing here calls into `halo_bench` or uses the program's RNG: a
//! clean-up of either cannot change what the benchmark feeds the program.
//! Generation always happens outside timed regions.

use halo_graph::{AffinityGraph, NodeId, SubGraph};
use halo_ident::ContextSummary;
use halo_vm::{CallSite, FuncId};

/// SplitMix64 (Steele, Lea, Flood 2014): tiny, seedable, good enough for
/// drawing workload shapes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)` (multiply-shift; bias is irrelevant here).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Shape of the data-centre-scale synthetic profile `graph-scale` merges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphSpec {
    /// Allocation contexts (graph nodes).
    pub nodes: u32,
    /// Edge *increments* drawn; hub pairs repeat, so distinct edges come
    /// out lower.
    pub edge_increments: u64,
    /// Heavy-tail exponent: endpoints are `floor(nodes · u^skew)`, so a
    /// few contexts are hubs and the long tail is nearly isolated — the
    /// degree profile allocation-site graphs have.
    pub skew: f64,
    /// Per-thread profiling shards the stream is split over.
    pub shards: usize,
}

/// Pre-generated profiling shards plus the generator's own weight total,
/// which the merged graph must reproduce.
#[derive(Debug, Clone)]
pub struct ShardSet {
    pub shards: Vec<SubGraph>,
    pub total_weight: u64,
}

/// Draw `spec`'s edge stream, split across `spec.shards` shards. Each
/// shard's stream is seeded from a draw of a master stream keyed by `seed`,
/// so adjacent seeds share no shard. Node access counts accumulate incident
/// edge weight; every 97th increment is a loop.
pub fn shards(spec: &GraphSpec, seed: u64) -> ShardSet {
    let count = spec.shards.max(1) as u64;
    let per_shard = spec.edge_increments / count;
    let mut total_weight = 0u64;
    let mut master = Rng::new(seed ^ 0x3c6e_f372_fe94_f82b);
    let shards = (0..count)
        .map(|s| {
            let mut sub = SubGraph::new();
            let mut rng = Rng::new(master.next_u64());
            let endpoint = |rng: &mut Rng| {
                ((f64::from(spec.nodes) * rng.unit().powf(spec.skew)) as u32).min(spec.nodes - 1)
            };
            let draws = if s == count - 1 {
                spec.edge_increments - per_shard * (count - 1)
            } else {
                per_shard
            };
            for i in 0..draws {
                let u = endpoint(&mut rng);
                let v = if i % 97 == 0 { u } else { endpoint(&mut rng) };
                let w = 1 + rng.below(16);
                total_weight += w;
                sub.add_edge_weight(NodeId(u), NodeId(v), w);
                sub.add_accesses(NodeId(u), w);
                if u != v {
                    sub.add_accesses(NodeId(v), w);
                }
            }
            sub
        })
        .collect();
    ShardSet { shards, total_weight }
}

/// A synthetic profile for the identification stage: `contexts[i]` is the
/// chain of node `i` of `graph`.
#[derive(Debug, Clone)]
pub struct ContextProfile {
    pub contexts: Vec<ContextSummary>,
    pub graph: AffinityGraph,
}

/// Contexts per affinity cluster in [`contexts`].
const CLUSTER: u32 = 8;

/// `n` allocation contexts with depth-5 call chains over a shared site
/// alphabet, clustered eight to an affinity group.
///
/// The outer two frames are shared by a whole cluster and drawn from a
/// small alphabet (so clusters conflict with each other), the inner two
/// and the allocation site vary per context — the wrapper-function shape
/// (povray, xalanc) that makes `identify` search for discriminating
/// sites instead of reading them off the allocation site.
pub fn contexts(n: u32, seed: u64) -> ContextProfile {
    let mut rng = Rng::new(seed ^ 0x6a09_e667_f3bc_c908);
    let site = |level: u32, index: u64| CallSite::new(FuncId(level), index as u32);
    let mut contexts = Vec::with_capacity(n as usize);
    let mut graph = AffinityGraph::new();
    let mut cluster_frames = (0, 0);
    for i in 0..n {
        if i % CLUSTER == 0 {
            cluster_frames = (rng.below(8), rng.below(48));
        }
        let chain = vec![
            site(0, cluster_frames.0),
            site(1, cluster_frames.1),
            site(2, rng.below(96)),
            site(3, rng.below(192)),
            site(4, rng.below(64)),
        ];
        // Heavy-tailed popularity, never zero.
        let accesses = 64 + (4096.0 * rng.unit().powi(4)) as u64;
        contexts.push(ContextSummary { chain, accesses });
        graph.add_node(accesses);
    }
    // Strong edges inside a cluster, a sprinkle of weak noise across.
    for base in (0..n).step_by(CLUSTER as usize) {
        let end = (base + CLUSTER).min(n);
        for u in base..end {
            for v in u + 1..end {
                graph.add_edge_weight(NodeId(u), NodeId(v), 64 + rng.below(192));
            }
        }
    }
    for _ in 0..u64::from(n) * 2 {
        let (u, v) = (rng.below(u64::from(n)) as u32, rng.below(u64::from(n)) as u32);
        if u / CLUSTER != v / CLUSTER {
            graph.add_edge_weight(NodeId(u), NodeId(v), 1 + rng.below(12));
        }
    }
    graph.finalise();
    ContextProfile { contexts, graph }
}

/// Size codes for `alloc-churn`: `requests × per_request` draws, each
/// standing for `16 · (code + 1)` bytes, i.e. 16–192 B.
pub fn request_sizes(requests: usize, per_request: usize, seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ 0xbb67_ae85_84ca_a73b);
    (0..requests * per_request).map(|_| rng.below(12) as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: GraphSpec =
        GraphSpec { nodes: 4096, edge_increments: 16_384, skew: 3.0, shards: 8 };

    #[test]
    fn shards_are_seeded_and_account_for_every_increment() {
        let a = shards(&SMALL, 7);
        let b = shards(&SMALL, 7);
        assert_eq!(a.shards.len(), 8);
        assert_eq!(a.total_weight, b.total_weight);
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.edges(), y.edges(), "same seed, same shard");
        }
        let summed: u64 = a.shards.iter().flat_map(|s| s.edges()).map(|(_, _, w)| w).sum();
        assert_eq!(summed, a.total_weight, "the running sum is the shards' weight");
        let next = shards(&SMALL, 8);
        for (x, y) in a.shards.iter().flat_map(|x| next.shards.iter().map(move |y| (x, y))) {
            assert_ne!(x.edges(), y.edges(), "adjacent seeds share no shard stream");
        }
    }

    #[test]
    fn contexts_have_depth_five_chains_and_cluster_edges() {
        let p = contexts(256, 3);
        assert_eq!(p.contexts.len(), 256);
        assert_eq!(p.graph.len(), 256);
        assert!(p.contexts.iter().all(|c| c.chain.len() == 5 && c.accesses >= 64));
        assert!(p.graph.weight(NodeId(0), NodeId(7)) >= 64, "cluster-mates are affinitive");
        assert_eq!(p.contexts[0].chain[..2], p.contexts[7].chain[..2], "shared outer frames");
        let q = contexts(256, 3);
        assert_eq!(p.contexts, q.contexts);
    }

    #[test]
    fn request_sizes_stay_in_range() {
        let s = request_sizes(10, 256, 1);
        assert_eq!(s.len(), 2560);
        assert!(s.iter().all(|&c| c < 12));
        assert_eq!(s, request_sizes(10, 256, 1));
        assert_ne!(s, request_sizes(10, 256, 2));
    }
}
