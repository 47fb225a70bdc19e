//! `art` (SPEC CPU2000): adaptive-resonance-theory image recognition.
//!
//! The hot state is the f1 layer: per-neuron structs allocated in a setup
//! loop, interleaved with per-neuron weight vectors from a second site and
//! cold category records. Recognition repeatedly scans every neuron
//! together with its weights — a uniform, array-driven access pattern over
//! small heap objects.

use crate::util::{begin_main, counted_loop, end_main, malloc_wrapper, r, SCALE};
use crate::{RunSpec, Workload};
use halo_vm::{ProgramBuilder, Width};

const SCAN_PASSES: i64 = 30;

/// Build the art workload.
pub fn build() -> Workload {
    let mut pb = ProgramBuilder::new();
    let alloc_neuron = pb.declare("alloc_neuron");
    let alloc_weights = pb.declare("alloc_weights");
    let alloc_category = pb.declare("alloc_category");

    // Neuron: [u:8][v:8][w:8][p:8][q:8] = 40.
    malloc_wrapper(pb.define(alloc_neuron), Some(40));
    // Weight vector: 24 bytes.
    malloc_wrapper(pb.define(alloc_weights), Some(24));
    // Category record: 24 bytes (weight size class), written once.
    malloc_wrapper(pb.define(alloc_category), Some(24));

    let mut m = begin_main(&mut pb);
    let n = SCALE;
    // Two pointer tables: neurons and weights.
    m.mul_imm(r(1), n, 8);
    m.malloc(r(1), r(21)); // neuron table
    m.mul_imm(r(1), n, 8);
    m.malloc(r(1), r(22)); // weight table
    counted_loop(&mut m, r(23), n, |m| {
        m.call(alloc_neuron, &[], Some(r(2)));
        m.call(alloc_weights, &[], Some(r(3)));
        m.call(alloc_category, &[], Some(r(4)));
        m.store(r(23), r(2), 0, Width::W8); // neuron.u
        m.store(r(23), r(3), 0, Width::W8); // weights[0]
        m.store(r(23), r(4), 0, Width::W8); // category written once
        m.mul_imm(r(5), r(23), 8);
        m.add(r(6), r(21), r(5));
        m.store(r(2), r(6), 0, Width::W8);
        m.add(r(6), r(22), r(5));
        m.store(r(3), r(6), 0, Width::W8);
    });
    // Recognition: scan all neurons with their weights, many passes.
    m.imm(r(24), SCAN_PASSES);
    counted_loop(&mut m, r(25), r(24), |m| {
        counted_loop(m, r(26), n, |m| {
            m.mul_imm(r(1), r(26), 8);
            m.add(r(2), r(21), r(1));
            m.load(r(3), r(2), 0, Width::W8); // neuron ptr
            m.add(r(2), r(22), r(1));
            m.load(r(4), r(2), 0, Width::W8); // weight ptr
            m.load(r(5), r(3), 0, Width::W8); // neuron.u
            m.load(r(6), r(4), 0, Width::W8); // weights[0]
            m.mul(r(7), r(5), r(6));
            m.store(r(7), r(3), 8, Width::W8); // neuron.v
            m.compute(10); // activation arithmetic
        });
    });
    let main = end_main(m);

    Workload {
        name: "art",
        program: pb.finish(main),
        train: RunSpec { seed: 111, arg: 700 },
        reference: RunSpec { seed: 222, arg: 7000 },
        note: "neuron + weight-vector pairs scanned uniformly; cold \
               category records in the weight size class",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_vm::{Engine, EngineLimits, MallocOnlyAllocator, NullMonitor};

    #[test]
    fn art_scans_neurons() {
        let w = build();
        let mut alloc = MallocOnlyAllocator::new();
        let stats = Engine::new(&w.program)
            .with_seed(w.train.seed)
            .with_entry_arg(w.train.arg)
            .with_limits(EngineLimits { max_instructions: 200_000_000, max_call_depth: 64 })
            .run(&mut alloc, &mut NullMonitor)
            .expect("runs");
        assert_eq!(stats.allocs, 2 + 3 * w.train.arg as u64);
        assert!(stats.loads as i64 >= 4 * SCAN_PASSES * w.train.arg);
    }
}
