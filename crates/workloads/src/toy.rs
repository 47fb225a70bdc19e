//! The paper's Figure 2 program, verbatim in spirit: a token loop
//! allocating three object types through per-type `create_*` procedures,
//! then a traversal touching only types A and B.
//!
//! This is the quickstart workload: small, readable, and exhibiting the
//! exact pathology HALO fixes (Fig. 3a → Fig. 3b).

use crate::util::{
    begin_main, counted_loop, end_main, list_push, malloc_wrapper, r, walk_list, SCALE,
};
use crate::{RunSpec, Workload};
use halo_vm::{Cond, ProgramBuilder, Width};

/// Build the Figure 2 workload.
pub fn build() -> Workload {
    // Object layout: [next: 8][payload: 24] = 32 bytes.
    let mut pb = ProgramBuilder::new();
    let create_a = pb.declare("create_a");
    let create_b = pb.declare("create_b");
    let create_c = pb.declare("create_c");
    let do_something = pb.declare("do_something");
    let process = pb.declare("process");

    for f in [create_a, create_b, create_c] {
        malloc_wrapper(pb.define(f), Some(32));
    }
    {
        // do_something(obj): write its payload once and forget it.
        let mut fb = pb.define(do_something);
        fb.argc(1);
        fb.imm(r(1), 1);
        fb.store(r(1), r(0), 8, Width::W8);
        fb.ret(None);
        fb.finish();
    }
    {
        // process(obj): read the payload fields.
        let mut fb = pb.define(process);
        fb.argc(1);
        fb.load(r(1), r(0), 8, Width::W8);
        fb.load(r(2), r(0), 16, Width::W8);
        fb.add(r(3), r(1), r(2));
        fb.store(r(3), r(0), 24, Width::W8);
        fb.ret(None);
        fb.finish();
    }

    let mut m = begin_main(&mut pb);
    let tokens = SCALE;
    let list = r(9);
    m.imm(list, 0);
    // Allocate: while (!eof) { switch (token.type) { A, B, C } }
    m.imm(r(21), 3);
    counted_loop(&mut m, r(22), tokens, |m| {
        m.rand(r(1), r(21)); // token type
        let not_a = m.label();
        let not_b = m.label();
        let next = m.label();
        m.imm(r(2), 0);
        m.branch(Cond::Ne, r(1), r(2), not_a);
        m.call(create_a, &[], Some(r(3)));
        list_push(m, list, r(3));
        m.jump(next);
        m.bind(not_a);
        m.imm(r(2), 1);
        m.branch(Cond::Ne, r(1), r(2), not_b);
        m.call(create_b, &[], Some(r(3)));
        list_push(m, list, r(3));
        m.jump(next);
        m.bind(not_b);
        m.call(create_c, &[], Some(r(3)));
        m.call(do_something, &[r(3)], None);
        m.bind(next);
    });
    // Access: for (obj = list; obj; obj = obj->sibling) process(obj);
    m.imm(r(23), 16); // sweeps
    counted_loop(&mut m, r(24), r(23), |m| {
        walk_list(m, list, r(6), |m| {
            m.call(process, &[r(6)], None);
        });
    });
    let main = end_main(m);

    Workload {
        name: "toy",
        program: pb.finish(main),
        train: RunSpec { seed: 11, arg: 300 },
        reference: RunSpec { seed: 23, arg: 3000 },
        note: "the motivating example: A/B hot and traversed, C cold, \
               allocation order interleaves all three",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_vm::{Engine, MallocOnlyAllocator, NullMonitor};

    #[test]
    fn toy_runs_and_allocates_all_three_types() {
        let w = build();
        let mut alloc = MallocOnlyAllocator::new();
        let stats = Engine::new(&w.program)
            .with_seed(w.train.seed)
            .with_entry_arg(w.train.arg)
            .run(&mut alloc, &mut NullMonitor)
            .expect("runs");
        assert_eq!(stats.allocs, 300);
    }
}
