//! The affinity graph and context-grouping algorithms of HALO (§4.2).
//!
//! Nodes are allocation contexts (opaque [`NodeId`]s assigned by the
//! profiler); edges are weighted by the number of contemporaneous accesses
//! observed between objects of the two contexts. On top of the graph this
//! crate implements the **greedy grouping algorithm** (paper Fig. 6),
//! rewritten on CSR adjacency so grouping a million-node graph finishes in
//! seconds. Its **score** — a loop-aware variant of weighted graph density
//! (paper Fig. 7) — and **merge benefit** with tolerance `T` (paper
//! Fig. 8) are private to [`group`], their one caller. The clusterers the
//! paper compares against in prose live with the grouping ablation that
//! runs them, in `halo_bench::alt`.
//!
//! Edge storage is flat (DESIGN.md §13): writes accumulate in a hash
//! table, reads run on compressed sparse rows after
//! [`AffinityGraph::finalise`], and a [`SubGraph`] delta is what a
//! profiling lane records into and [`SubGraph::into_graph`] adopts; deltas
//! built independently merge in any order.
//!
//! # Example
//!
//! ```
//! use halo_graph::{AffinityGraph, GroupingParams, group};
//!
//! let mut g = AffinityGraph::new();
//! let a = g.add_node(1000);
//! let b = g.add_node(900);
//! let c = g.add_node(10);
//! g.add_edge_weight(a, b, 500); // strongly related
//! g.add_edge_weight(b, c, 1);   // noise
//! let groups = group(&g, &GroupingParams::default());
//! assert_eq!(groups.len(), 1);
//! assert!(groups[0].members.contains(&a) && groups[0].members.contains(&b));
//! ```

mod affinity;
mod csr;
mod dot;
mod drift;
mod granularity;
mod grouping;
mod plan;
mod subgraph;

pub use affinity::{AffinityGraph, NodeId};
pub use dot::to_dot;
pub use drift::grouping_drift;
pub use granularity::Granularity;
pub use grouping::{group, Group, GroupingParams};
pub use plan::{ReusePolicy, ReusePolicyChoice};
pub use subgraph::SubGraph;
