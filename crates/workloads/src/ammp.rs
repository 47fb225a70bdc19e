//! `ammp` (SPEC CPU2000): molecular dynamics.
//!
//! Atoms live in a linked list with per-atom neighbour cells; the
//! non-bonded force loop chases atom → neighbour cell → neighbour atom
//! chains with a little arithmetic per interaction. Atom structs come from
//! one direct site, neighbour cells from another, and cold per-atom
//! residue records (sharing the neighbour-cell size class) interleave.

use crate::util::{
    begin_main, counted_loop, end_main, list_push, malloc_wrapper, r, walk_list, while_nonzero,
    SCALE, ZERO,
};
use crate::{RunSpec, Workload};
use halo_vm::{Cond, ProgramBuilder, Width};

const NEIGHBOURS_PER_ATOM: i64 = 4;
const FORCE_STEPS: i64 = 8;

/// Build the ammp workload.
pub fn build() -> Workload {
    let mut pb = ProgramBuilder::new();
    let alloc_atom = pb.declare("alloc_atom");
    let alloc_nbr = pb.declare("alloc_nbr");
    let alloc_residue = pb.declare("alloc_residue");

    // Atom: [next:8][x:8][y:8][z:8][fx:8][fy:8][fz:8][q:8] ... = 96.
    malloc_wrapper(pb.define(alloc_atom), Some(96));
    // Neighbour cell: [next:8][atom:8] = 16.
    malloc_wrapper(pb.define(alloc_nbr), Some(16));
    // Residue record: 16 bytes (neighbour size class), written once.
    malloc_wrapper(pb.define(alloc_residue), Some(16));

    let mut m = begin_main(&mut pb);
    let natoms = SCALE;
    // Atom pointer table for random neighbour wiring.
    m.mul_imm(r(1), natoms, 8);
    m.malloc(r(1), r(21));
    let atoms = r(9);
    m.imm(atoms, 0);
    // Build atoms with neighbour lists; residues interleave.
    counted_loop(&mut m, r(22), natoms, |m| {
        m.call(alloc_atom, &[], Some(r(2)));
        m.store(r(22), r(2), 8, Width::W8); // x
        m.store(r(22), r(2), 16, Width::W8); // y
        list_push(m, atoms, r(2));
        m.mul_imm(r(3), r(22), 8);
        m.add(r(3), r(21), r(3));
        m.store(r(2), r(3), 0, Width::W8); // table[i]
        m.call(alloc_residue, &[], Some(r(4)));
        m.store(r(22), r(4), 0, Width::W8); // residue written once
        let skip = m.label();
        m.branch(Cond::Eq, r(22), ZERO, skip);
        m.imm(r(5), NEIGHBOURS_PER_ATOM);
        counted_loop(m, r(6), r(5), |m| {
            m.call(alloc_nbr, &[], Some(r(7)));
            // Spatially local neighbour: one of the previous 8 atoms.
            m.imm(r(12), 8);
            let near = m.label();
            m.branch(Cond::Ge, r(22), r(12), near);
            m.mov(r(12), r(22));
            m.bind(near);
            m.rand(r(8), r(12));
            m.add_imm(r(8), r(8), 1);
            m.sub(r(8), r(22), r(8));
            m.mul_imm(r(8), r(8), 8);
            m.add(r(8), r(21), r(8));
            m.load(r(10), r(8), 0, Width::W8); // nearby earlier atom
            m.store(r(10), r(7), 8, Width::W8); // nbr.atom
            m.load(r(11), r(2), 88, Width::W8); // atom.nbrs head (offset 88)
            m.store(r(11), r(7), 0, Width::W8);
            m.store(r(7), r(2), 88, Width::W8);
        });
        m.bind(skip);
    });
    // Force loop: for each atom, accumulate over neighbours.
    m.imm(r(23), FORCE_STEPS);
    counted_loop(&mut m, r(24), r(23), |m| {
        walk_list(m, atoms, r(6), |m| {
            m.load(r(1), r(6), 8, Width::W8); // x
            m.load(r(2), r(6), 16, Width::W8); // y
            m.load(r(3), r(6), 88, Width::W8); // nbr head
            while_nonzero(m, r(3), |m| {
                m.load(r(4), r(3), 8, Width::W8); // nbr.atom
                m.load(r(5), r(4), 8, Width::W8); // neighbour x
                m.sub(r(7), r(1), r(5));
                m.mul(r(7), r(7), r(7));
                m.add(r(2), r(2), r(7));
                m.load(r(3), r(3), 0, Width::W8); // next nbr cell
            });
            m.store(r(2), r(6), 32, Width::W8); // fx
        });
    });
    let main = end_main(m);

    Workload {
        name: "ammp",
        program: pb.finish(main),
        train: RunSpec { seed: 909, arg: 500 },
        reference: RunSpec { seed: 1010, arg: 5000 },
        note: "atom/neighbour-cell chains from direct sites; cold residue \
               records in the neighbour size class",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::run_at_train_scale;

    #[test]
    fn ammp_builds_and_integrates() {
        let w = build();
        let stats = run_at_train_scale(&w);
        let n = w.train.arg as u64;
        assert_eq!(stats.allocs, 1 + 2 * n + NEIGHBOURS_PER_ATOM as u64 * (n - 1));
        assert!(stats.loads > 50_000);
    }
}
