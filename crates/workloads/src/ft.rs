//! `ft` (Ptrdist): minimum-spanning-tree over a pointer-linked graph.
//!
//! Vertices and their adjacency cells come from distinct direct malloc
//! sites, interleaved with cold per-vertex name strings; the MST relaxation
//! walks vertex → edge cell → neighbour vertex chains repeatedly. A
//! classic "easy target" for both HALO and hot data streams (§5.2).

use crate::util::{
    begin_main, counted_loop, end_main, malloc_wrapper, r, while_nonzero, SCALE, ZERO,
};
use crate::{RunSpec, Workload};
use halo_vm::{Cond, ProgramBuilder, Width};

const EDGES_PER_VERTEX: i64 = 3;
const RELAX_PASSES: i64 = 10;

/// Build the ft workload.
pub fn build() -> Workload {
    let mut pb = ProgramBuilder::new();
    let alloc_vertex = pb.declare("alloc_vertex");
    let alloc_edge = pb.declare("alloc_edge");
    let alloc_name = pb.declare("alloc_name");

    // Vertex: [next:8][key:8][edges:8][parent:8] = 32 bytes.
    malloc_wrapper(pb.define(alloc_vertex), Some(32));
    // Edge cell: [next:8][target:8][weight:8] = 24 bytes.
    malloc_wrapper(pb.define(alloc_edge), Some(24));
    // Vertex name: 24 bytes, written once at build time (cold, and
    // sharing the 24→32 size class with edge cells to pollute them).
    malloc_wrapper(pb.define(alloc_name), Some(24));

    let mut m = begin_main(&mut pb);
    let nv = SCALE;
    // Vertex pointer table (large, fallback-allocated).
    m.mul_imm(r(1), nv, 8);
    m.malloc(r(1), r(21)); // r21 = table base

    // Build: vertex + name + EDGES_PER_VERTEX edges each.
    counted_loop(&mut m, r(22), nv, |m| {
        m.call(alloc_vertex, &[], Some(r(2)));
        m.imm(r(3), 1_000_000);
        m.store(r(3), r(2), 8, Width::W8); // key = "infinity"
        m.mul_imm(r(4), r(22), 8);
        m.add(r(4), r(21), r(4));
        m.store(r(2), r(4), 0, Width::W8); // table[i] = v
        m.call(alloc_name, &[], Some(r(5)));
        m.store(r(22), r(5), 0, Width::W8); // name written once

        // Edges to random earlier vertices (skip vertex 0).
        let skip = m.label();
        m.branch(Cond::Eq, r(22), ZERO, skip);
        m.imm(r(6), EDGES_PER_VERTEX);
        counted_loop(m, r(7), r(6), |m| {
            m.call(alloc_edge, &[], Some(r(8)));
            m.rand(r(9), r(22)); // target index < i
            m.mul_imm(r(9), r(9), 8);
            m.add(r(9), r(21), r(9));
            m.load(r(10), r(9), 0, Width::W8); // target vertex ptr
            m.store(r(10), r(8), 8, Width::W8); // edge.target
            m.rand(r(11), r(22));
            m.store(r(11), r(8), 16, Width::W8); // edge.weight
            m.load(r(12), r(2), 16, Width::W8); // v.edges head
            m.store(r(12), r(8), 0, Width::W8); // edge.next
            m.store(r(8), r(2), 16, Width::W8); // v.edges = edge
        });
        m.bind(skip);
    });
    // Relax: passes over every vertex's adjacency, updating target keys.
    m.imm(r(23), RELAX_PASSES);
    counted_loop(&mut m, r(24), r(23), |m| {
        counted_loop(m, r(25), nv, |m| {
            m.mul_imm(r(2), r(25), 8);
            m.add(r(2), r(21), r(2));
            m.load(r(3), r(2), 0, Width::W8); // vertex
            m.load(r(4), r(3), 8, Width::W8); // key
            m.load(r(5), r(3), 16, Width::W8); // edge head
            while_nonzero(m, r(5), |m| {
                m.load(r(6), r(5), 8, Width::W8); // edge.target
                m.load(r(7), r(5), 16, Width::W8); // edge.weight
                m.add(r(8), r(4), r(7));
                m.load(r(9), r(6), 8, Width::W8); // target.key
                let no_update = m.label();
                m.branch(Cond::Ge, r(8), r(9), no_update);
                m.store(r(8), r(6), 8, Width::W8); // relax
                m.store(r(3), r(6), 24, Width::W8); // target.parent
                m.bind(no_update);
                m.compute(16); // key comparison arithmetic
                m.load(r(5), r(5), 0, Width::W8); // next edge
            });
        });
    });
    let main = end_main(m);

    Workload {
        name: "ft",
        program: pb.finish(main),
        train: RunSpec { seed: 505, arg: 400 },
        reference: RunSpec { seed: 606, arg: 4000 },
        note: "vertex/edge-cell pairs from direct sites, cold name strings \
               in the edge size class",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_vm::{Engine, EngineLimits, MallocOnlyAllocator, NullMonitor};

    #[test]
    fn ft_builds_and_relaxes() {
        let w = build();
        let mut alloc = MallocOnlyAllocator::new();
        let stats = Engine::new(&w.program)
            .with_seed(w.train.seed)
            .with_entry_arg(w.train.arg)
            .with_limits(EngineLimits { max_instructions: 200_000_000, max_call_depth: 64 })
            .run(&mut alloc, &mut NullMonitor)
            .expect("runs");
        let n = w.train.arg as u64;
        // table + vertex + name per vertex + ~3 edges each (vertex 0 none).
        assert_eq!(stats.allocs, 1 + 2 * n + 3 * (n - 1));
        assert!(stats.loads > 20_000);
    }
}
