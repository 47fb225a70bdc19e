//! `xalanc-mt`: the XSLT processor with documents partitioned across
//! worker threads.
//!
//! Batch XML pipelines shard their document set over a worker pool; each
//! worker runs the same deep parse chain as the single-threaded `xalanc`
//! model (a shared memory-manager malloc site reachable only through
//! nested — and partly indirect — parse frames), building a worker-local
//! DOM. The workers' allocation streams interleave round-robin, so under
//! a single-arena baseline every worker's nodes are scattered between the
//! other workers' nodes; HALO's grouping (and, under `--shards`, the
//! per-thread sharding) restores per-document locality. Transformation
//! passes then walk each worker's DOM normalising attributes — the hot,
//! layout-sensitive phase. Teardown happens on the main thread, freeing
//! every node a worker allocated: with a sharded backend each free is
//! routed home through the owner shard's remote queue.

use crate::util::{begin_main, counted_loop, end_main, free_list, r, SCALE, ZERO};
use crate::xalanc::{normalise_attrs, Parser};
use crate::{RunSpec, Workload};
use halo_vm::{ProgramBuilder, Width};

/// Worker logical threads 1..=WORKERS (0 is the coordinating main thread).
const WORKERS: u16 = 4;
const PARSE_DEPTH: usize = 4;
const TRANSFORM_PASSES: i64 = 8;

/// Build the xalanc-mt workload.
pub fn build() -> Workload {
    let mut pb = ProgramBuilder::new();
    let parser = Parser::declare(&mut pb, PARSE_DEPTH);
    // The text node is linked at parent.text so teardown can return it
    // (the single-threaded model drops the pointer).
    parser.define(&mut pb, |f| {
        f.store(r(1), r(0), 24, Width::W8); // parent.text
    });

    let mut m = begin_main(&mut pb);
    let rounds = SCALE;
    // Per-worker DOM heads live in one heap cell array (8 bytes each).
    let heads = r(27);
    m.imm(r(1), (WORKERS as i64) * 8);
    m.malloc(r(1), heads);
    for w in 0..WORKERS {
        m.store(ZERO, heads, (w as i64) * 8, Width::W8);
    }
    parser.load_kinds(&mut m);
    // Parse: each round hands one document (element + two attributes +
    // one text node) to every worker, round-robin — the interleaving a
    // real worker pool produces.
    counted_loop(&mut m, r(24), rounds, |m| {
        for w in 0..WORKERS {
            m.thread_switch(w + 1);
            parser.parse_document(m, |m| {
                // Push the new element onto the worker's DOM list.
                m.load(r(8), heads, (w as i64) * 8, Width::W8);
                m.store(r(8), r(3), 0, Width::W8);
                m.store(r(3), heads, (w as i64) * 8, Width::W8);
            });
        }
    });
    // Transform: each worker normalises its own partition's attributes.
    m.imm(r(25), TRANSFORM_PASSES);
    counted_loop(&mut m, r(26), r(25), |m| {
        for w in 0..WORKERS {
            m.thread_switch(w + 1);
            m.load(r(9), heads, (w as i64) * 8, Width::W8);
            normalise_attrs(m, r(9));
        }
    });
    // Teardown on the main thread: free every worker's DOM cross-thread.
    m.thread_switch(0);
    for w in 0..WORKERS {
        m.load(r(9), heads, (w as i64) * 8, Width::W8);
        free_list(&mut m, r(9), r(10), |m| {
            m.load(r(2), r(9), 16, Width::W8); // attr chain
            free_list(m, r(2), r(3), |_| {});
            m.load(r(4), r(9), 24, Width::W8); // text node
            m.free(r(4));
        });
    }
    m.free(heads);
    let main = end_main(m);

    Workload {
        name: "xalanc-mt",
        program: pb.finish(main),
        train: RunSpec { seed: 797, arg: 150 },
        reference: RunSpec { seed: 898, arg: 1200 },
        note: "xalanc's deep parse chain with documents partitioned across \
               4 worker threads; main-thread teardown frees cross-thread",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_vm::{Engine, EngineLimits, MallocOnlyAllocator, NullMonitor};

    #[test]
    fn xalanc_mt_partitions_parses_and_drains() {
        let w = build();
        let mut alloc = MallocOnlyAllocator::new();
        let stats = Engine::new(&w.program)
            .with_seed(w.train.seed)
            .with_entry_arg(w.train.arg)
            .with_limits(EngineLimits { max_instructions: 200_000_000, max_call_depth: 64 })
            .run(&mut alloc, &mut NullMonitor)
            .expect("runs");
        let rounds = w.train.arg as u64;
        // Heads cell + 4 workers × 4 nodes per round.
        assert_eq!(stats.allocs, 1 + rounds * (WORKERS as u64) * 4);
        assert_eq!(stats.frees, stats.allocs, "teardown frees every node");
        assert!(stats.max_depth > PARSE_DEPTH, "deep call chains");
    }
}
