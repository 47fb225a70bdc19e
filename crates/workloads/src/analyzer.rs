//! `analyzer` (FreeBench): circuit timing analyzer.
//!
//! Parses a netlist into net and gate records allocated alternately from
//! distinct direct sites (with cold label strings interleaved), then runs
//! timing passes that chase net → gate pointers. Another direct-site
//! benchmark where both techniques find material.

use crate::util::{
    begin_main, counted_loop, end_main, list_push, malloc_wrapper, r, walk_list, SCALE,
};
use crate::{RunSpec, Workload};
use halo_vm::{ProgramBuilder, Width};

const TIMING_PASSES: i64 = 14;

/// Build the analyzer workload.
pub fn build() -> Workload {
    let mut pb = ProgramBuilder::new();
    let alloc_net = pb.declare("alloc_net");
    let alloc_gate = pb.declare("alloc_gate");
    let alloc_label = pb.declare("alloc_label");

    // Net: [next:8][gate:8][delay:8][slack:8][fanout:8][pad] = 48.
    malloc_wrapper(pb.define(alloc_net), Some(48));
    // Gate: [kind:8][delay:8][drive:8][pad:8] = 32.
    malloc_wrapper(pb.define(alloc_gate), Some(32));
    // Label: 48 bytes, written once (pollutes the net size class).
    malloc_wrapper(pb.define(alloc_label), Some(48));

    let mut m = begin_main(&mut pb);
    let nets = SCALE;
    let list = r(9);
    m.imm(list, 0);
    // Parse: net + gate + label per element.
    counted_loop(&mut m, r(22), nets, |m| {
        m.call(alloc_net, &[], Some(r(1)));
        m.call(alloc_gate, &[], Some(r(2)));
        m.store(r(2), r(1), 8, Width::W8); // net.gate
        m.imm(r(3), 2);
        m.store(r(3), r(2), 8, Width::W8); // gate.delay
        m.store(r(3), r(1), 16, Width::W8); // net.delay
        list_push(m, list, r(1));
        m.call(alloc_label, &[], Some(r(4)));
        m.store(r(22), r(4), 0, Width::W8); // label written once
    });
    // Timing analysis: walk nets, chase into gates, update slack.
    m.imm(r(23), TIMING_PASSES);
    counted_loop(&mut m, r(24), r(23), |m| {
        walk_list(m, list, r(6), |m| {
            m.load(r(1), r(6), 8, Width::W8); // gate ptr
            m.load(r(2), r(6), 16, Width::W8); // net.delay
            m.load(r(3), r(1), 8, Width::W8); // gate.delay
            m.add(r(4), r(2), r(3));
            m.store(r(4), r(6), 24, Width::W8); // net.slack
            m.store(r(4), r(1), 16, Width::W8); // gate.drive
            m.compute(60); // arrival-time arithmetic
        });
    });
    let main = end_main(m);

    Workload {
        name: "analyzer",
        program: pb.finish(main),
        train: RunSpec { seed: 707, arg: 900 },
        reference: RunSpec { seed: 808, arg: 9000 },
        note: "net/gate record pairs from direct sites, cold labels in the \
               net size class",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_vm::{Engine, EngineLimits, MallocOnlyAllocator, NullMonitor};

    #[test]
    fn analyzer_parses_and_analyzes() {
        let w = build();
        let mut alloc = MallocOnlyAllocator::new();
        let stats = Engine::new(&w.program)
            .with_seed(w.train.seed)
            .with_entry_arg(w.train.arg)
            .with_limits(EngineLimits { max_instructions: 100_000_000, max_call_depth: 64 })
            .run(&mut alloc, &mut NullMonitor)
            .expect("runs");
        assert_eq!(stats.allocs, 3 * w.train.arg as u64);
        assert!(stats.loads > 10_000);
    }
}
