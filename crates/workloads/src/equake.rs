//! `equake` (SPEC CPU2000): earthquake simulation (sparse-matrix–vector
//! products).
//!
//! The sparse matrix is built element by element: value blocks and
//! column-index blocks come from two direct sites, allocated interleaved
//! (with cold mesh-comment records); the SMVP kernel then walks each row's
//! element chain touching value block + index block + the dense vector.

use crate::util::{begin_main, counted_loop, end_main, malloc_wrapper, r, while_nonzero, SCALE};
use crate::{RunSpec, Workload};
use halo_vm::{ProgramBuilder, Width};

const ELEMS_PER_ROW: i64 = 6;
const SMVP_STEPS: i64 = 10;

/// Build the equake workload.
pub fn build() -> Workload {
    let mut pb = ProgramBuilder::new();
    let alloc_val = pb.declare("alloc_val");
    let alloc_idx = pb.declare("alloc_idx");
    let alloc_comment = pb.declare("alloc_comment");

    // Value block: [next:8][v00..v22: 72] = 80 bytes.
    malloc_wrapper(pb.define(alloc_val), Some(80));
    // Index block: [col:8][val:8][pad:8] = 24 bytes.
    malloc_wrapper(pb.define(alloc_idx), Some(24));
    // Mesh comment: 80 bytes (value size class), written once.
    malloc_wrapper(pb.define(alloc_comment), Some(80));

    let mut m = begin_main(&mut pb);
    let rows = SCALE;
    // Row-head table and the dense x/y vectors (all large, fallback).
    m.mul_imm(r(1), rows, 8);
    m.malloc(r(1), r(21)); // row heads
    m.mul_imm(r(1), rows, 8);
    m.malloc(r(1), r(22)); // x vector
    m.mul_imm(r(1), rows, 8);
    m.malloc(r(1), r(23)); // y vector

    // Assemble the matrix.
    counted_loop(&mut m, r(24), rows, |m| {
        m.imm(r(9), 0); // row chain head
        m.imm(r(2), ELEMS_PER_ROW);
        counted_loop(m, r(3), r(2), |m| {
            m.call(alloc_val, &[], Some(r(4)));
            m.call(alloc_idx, &[], Some(r(5)));
            m.store(r(5), r(4), 8, Width::W8); // val.idx
            m.rand(r(6), rows);
            m.store(r(6), r(5), 0, Width::W8); // idx.col
            m.store(r(3), r(4), 16, Width::W8); // val.v00
            m.store(r(9), r(4), 0, Width::W8); // val.next
            m.mov(r(9), r(4));
        });
        m.call(alloc_comment, &[], Some(r(7)));
        m.store(r(24), r(7), 0, Width::W8); // comment written once
        m.mul_imm(r(8), r(24), 8);
        m.add(r(8), r(21), r(8));
        m.store(r(9), r(8), 0, Width::W8); // rowhead[i]
    });
    // SMVP time steps.
    m.imm(r(25), SMVP_STEPS);
    counted_loop(&mut m, r(26), r(25), |m| {
        counted_loop(m, r(27), rows, |m| {
            m.mul_imm(r(1), r(27), 8);
            m.add(r(1), r(21), r(1));
            m.load(r(2), r(1), 0, Width::W8); // row chain
            m.imm(r(3), 0); // sum
            while_nonzero(m, r(2), |m| {
                m.load(r(4), r(2), 8, Width::W8); // idx block
                m.load(r(5), r(4), 0, Width::W8); // col
                m.load(r(6), r(2), 16, Width::W8); // v00
                m.mul_imm(r(5), r(5), 8);
                m.add(r(5), r(22), r(5));
                m.load(r(7), r(5), 0, Width::W8); // x[col]
                m.mul(r(8), r(6), r(7));
                m.add(r(3), r(3), r(8));
                m.load(r(2), r(2), 0, Width::W8); // next element
            });
            m.mul_imm(r(1), r(27), 8);
            m.add(r(1), r(23), r(1));
            m.store(r(3), r(1), 0, Width::W8); // y[i]
        });
    });
    let main = end_main(m);

    Workload {
        name: "equake",
        program: pb.finish(main),
        train: RunSpec { seed: 333, arg: 300 },
        reference: RunSpec { seed: 444, arg: 3000 },
        note: "value/index block pairs per sparse element from direct \
               sites; cold comments in the value size class",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::run_at_train_scale;

    #[test]
    fn equake_assembles_and_multiplies() {
        let w = build();
        let stats = run_at_train_scale(&w);
        let n = w.train.arg as u64;
        assert_eq!(stats.allocs, 3 + n * (2 * ELEMS_PER_ROW as u64 + 1));
        assert!(stats.loads > 50_000);
    }
}
