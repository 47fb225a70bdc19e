//! `leela` (SPEC CPU2017): Go engine (UCT search).
//!
//! "leela allocates memory exclusively through C++'s `new` operator"
//! (§5.2): every allocation funnels through one *library* routine, so the
//! immediate call site is identical for tree nodes and board copies, and
//! only the full call stack — traced through the external frame back to
//! its origin — separates them. Searches allocate thousands of tree nodes
//! then discard almost all of them, leaving scattered survivors that pin
//! their chunks: the paper's Table 1 reports 99.99% fragmentation of
//! grouped data at peak. Playouts are compute-heavy, so the paper sees
//! miss reductions without corresponding speedups.

use crate::util::{begin_main, counted_loop, end_main, malloc_wrapper, r, SCALE, ZERO};
use crate::{RunSpec, Workload};
use halo_vm::{Cond, ProgramBuilder, Width};

const ITERS_PER_SEARCH: i64 = 600;
const BACKPROP_DEPTH: i64 = 48;
const PLAYOUT_COMPUTE: u64 = 400;
/// One node in this many survives a search's mass free.
const SURVIVOR_STRIDE: i64 = 512;

/// Build the leela workload.
pub fn build() -> Workload {
    let mut pb = ProgramBuilder::new();
    let operator_new = pb.declare("operator_new");
    let expand_node = pb.declare("expand_node");
    let copy_board = pb.declare("copy_board");
    let record_sgf = pb.declare("record_sgf");

    {
        // libstdc++'s operator new: an *external* routine wrapping the
        // single malloc site.
        let mut f = pb.define(operator_new);
        f.external();
        malloc_wrapper(f, None);
    }
    {
        // UCT node: [parent:8][visits:8][wins:8][move:8][pad:8][pad:8] = 48.
        let mut f = pb.define(expand_node);
        f.argc(1);
        let parent = r(0);
        f.imm(r(2), 48);
        f.call(operator_new, &[r(2)], Some(r(1)));
        f.store(parent, r(1), 0, Width::W8);
        f.store(ZERO, r(1), 8, Width::W8);
        f.ret(Some(r(1)));
        f.finish();
    }
    {
        // Move-record string: 48 bytes through the same operator new,
        // written once per iteration and abandoned — it shares the node
        // size class, interleaving cold data between tree nodes.
        let mut f = pb.define(record_sgf);
        f.argc(1);
        f.imm(r(2), 48);
        f.call(operator_new, &[r(2)], Some(r(1)));
        f.store(r(0), r(1), 0, Width::W8);
        f.ret(None);
        f.finish();
    }
    {
        // Board copy: 256 bytes, hot during one playout only.
        let mut f = pb.define(copy_board);
        f.imm(r(2), 256);
        f.call(operator_new, &[r(2)], Some(r(1)));
        f.imm(r(3), 19);
        f.store(r(3), r(1), 0, Width::W8);
        f.store(r(3), r(1), 128, Width::W8);
        f.ret(Some(r(1)));
        f.finish();
    }

    let mut m = begin_main(&mut pb);
    let total_iters = SCALE;
    // Node registry for the mass free at the end of each search.
    m.imm(r(1), ITERS_PER_SEARCH * 8);
    m.malloc(r(1), r(21)); // registry base

    // Pattern-matching tables consulted after each playout (large,
    // ungrouped; their traffic separates board accesses from the node
    // accesses of backpropagation in the affinity queue).
    m.imm(r(1), 8192);
    m.malloc(r(1), r(28));
    // searches = total_iters / ITERS_PER_SEARCH, at least 1.
    m.imm(r(2), ITERS_PER_SEARCH);
    m.div(r(22), total_iters, r(2));
    m.imm(r(3), 1);
    let enough = m.label();
    m.branch(Cond::Ge, r(22), r(3), enough);
    m.mov(r(22), r(3));
    m.bind(enough);
    m.imm(r(23), ITERS_PER_SEARCH);
    m.imm(r(24), SURVIVOR_STRIDE);

    counted_loop(&mut m, r(25), r(22), |m| {
        m.imm(r(9), 0); // current leaf (parent chain)

        // One search: expand, playout, backprop.
        counted_loop(m, r(26), r(23), |m| {
            m.call(expand_node, &[r(9)], Some(r(4)));
            m.mov(r(9), r(4));
            m.mul_imm(r(5), r(26), 8);
            m.add(r(5), r(21), r(5));
            m.store(r(4), r(5), 0, Width::W8); // registry[i] = node

            // Playout on a scratch board: compute-dominated.
            m.call(copy_board, &[], Some(r(6)));
            m.load(r(7), r(6), 0, Width::W8);
            m.store(r(7), r(6), 64, Width::W8);
            m.compute(PLAYOUT_COMPUTE);
            m.free(r(6));
            m.call(record_sgf, &[r(26)], None);
            // Consult the pattern tables (24 spread-out reads).
            m.rand(r(17), r(24));
            m.mul_imm(r(17), r(17), 8);
            m.add(r(17), r(28), r(17));
            m.imm(r(18), 24);
            counted_loop(m, r(16), r(18), |m| {
                m.load(r(15), r(17), 0, Width::W8);
                m.add_imm(r(17), r(17), 8);
            });
            // Backprop along the parent chain (bounded).
            m.mov(r(7), r(9));
            m.imm(r(10), BACKPROP_DEPTH);
            counted_loop(m, r(11), r(10), |m| {
                let out = m.label();
                m.branch(Cond::Eq, r(7), ZERO, out);
                m.load(r(12), r(7), 8, Width::W8); // visits
                m.add_imm(r(12), r(12), 1);
                m.store(r(12), r(7), 8, Width::W8);
                m.load(r(7), r(7), 0, Width::W8); // parent
                m.bind(out);
            });
        });
        // New search: free every node except sparse survivors.
        counted_loop(m, r(27), r(23), |m| {
            m.rem(r(13), r(27), r(24));
            let keep = m.label();
            m.branch(Cond::Eq, r(13), ZERO, keep); // survivor: skip free
            m.mul_imm(r(14), r(27), 8);
            m.add(r(14), r(21), r(14));
            m.load(r(15), r(14), 0, Width::W8);
            m.free(r(15));
            m.bind(keep);
        });
    });
    let main = end_main(m);

    Workload {
        name: "leela",
        program: pb.finish(main),
        train: RunSpec { seed: 1111, arg: 1200 },
        reference: RunSpec { seed: 2222, arg: 12_000 },
        note: "everything through external operator new (one malloc site); \
               mass frees leave chunk-pinning survivors; compute-heavy \
               playouts",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_vm::{Engine, EngineLimits, MallocOnlyAllocator, NullMonitor};

    #[test]
    fn leela_searches_and_frees_most_nodes() {
        let w = build();
        let mut alloc = MallocOnlyAllocator::new();
        let stats = Engine::new(&w.program)
            .with_seed(w.train.seed)
            .with_entry_arg(w.train.arg)
            .with_limits(EngineLimits { max_instructions: 200_000_000, max_call_depth: 64 })
            .run(&mut alloc, &mut NullMonitor)
            .expect("runs");
        let searches = (w.train.arg / ITERS_PER_SEARCH) as u64;
        let per_search = ITERS_PER_SEARCH as u64;
        // Node + board + sgf record per iteration, plus the registry.
        assert_eq!(stats.allocs, 2 + searches * per_search * 3);
        // All boards freed; nodes freed except survivors.
        let survivors = per_search.div_ceil(SURVIVOR_STRIDE as u64);
        assert_eq!(stats.frees, searches * (per_search * 2 - survivors));
        assert!(stats.instructions > 4 * (stats.loads + stats.stores));
    }
}
