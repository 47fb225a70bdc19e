//! `roms` (SPEC CPU2017): regional ocean model.
//!
//! A Fortran-style stencil code: persistent grid arrays far above the
//! grouped-object cap dominate the access stream, and each timestep
//! allocates *fresh* work arrays, sweeps them (including interleaved
//! pair-wise passes), and frees them. The per-step freshness is the §5.2
//! pathology for hot data streams: "HALO's affinity graph can represent
//! over 90% of all salient accesses … using only 31 nodes, [while] the
//! hot-data-stream-based approach requires over 150,000 streams" — at
//! object granularity every timestep's pattern is new. HALO itself finds
//! little to improve ("essentially no effect"), and the artefact notes
//! `--max-groups 4` for this benchmark.
//!
//! The regularity roms *does* have lives at **page granularity** (the §6
//! suggestion): each timestep runs a stencil pass reading every state grid
//! at the same index — `acc += grid_i[j]` for all twelve grids — the way an
//! ocean model combines u/v/temperature/salinity fields point-wise. The
//! grids are odd-sized (not a page multiple), but a size-segregated
//! baseline places each one page-aligned, so all twelve conflict-map to the
//! same L1 sets (way stride 4 KiB) and the pass thrashes an 8-way cache
//! with twelve simultaneous lines. At object granularity the grids exceed
//! the 4 KiB tracked cap and are invisible; page-granularity profiling sees
//! their pages, groups the grid context, and bump co-location breaks the
//! page alignment — the odd object size staggers the arrays across sets.

use crate::util::{begin_main, counted_loop, end_main, malloc_wrapper, r, sweep_array, SCALE};
use crate::{RunSpec, Workload};
use halo_vm::{Cond, ProgramBuilder, Width};

const NUM_GRIDS: i64 = 12;
/// Odd-sized on purpose (16 KiB + 3 cache lines): page-aligned placement
/// makes all grids set-conflict, while dense bump placement staggers them.
const GRID_BYTES: i64 = 16 * 1024 + 192;
const NUM_TEMPS: i64 = 12;
const TEMP_BYTES: i64 = 1024;

/// Build the roms workload.
pub fn build() -> Workload {
    let mut pb = ProgramBuilder::new();
    let alloc_grid = pb.declare("alloc_grid");
    let alloc_temp = pb.declare("alloc_temp");
    let alloc_desc = pb.declare("alloc_desc");

    // Grid array: 16 KiB — far beyond the 4 KiB grouped cap.
    malloc_wrapper(pb.define(alloc_grid), Some(GRID_BYTES));
    // Per-step work array: 1 KiB.
    malloc_wrapper(pb.define(alloc_temp), Some(TEMP_BYTES));
    // Field descriptor: 64 bytes, allocated once at startup.
    malloc_wrapper(pb.define(alloc_desc), Some(64));

    let mut m = begin_main(&mut pb);
    let steps = SCALE;
    // Persistent grids + descriptor table.
    m.imm(r(1), NUM_GRIDS * 8);
    m.malloc(r(1), r(21)); // grid table
    m.imm(r(2), NUM_GRIDS);
    counted_loop(&mut m, r(3), r(2), |m| {
        m.call(alloc_grid, &[], Some(r(4)));
        m.mul_imm(r(5), r(3), 8);
        m.add(r(5), r(21), r(5));
        m.store(r(4), r(5), 0, Width::W8);
        m.call(alloc_desc, &[], Some(r(6)));
        m.store(r(3), r(6), 0, Width::W8); // descriptor written once
    });
    m.imm(r(1), NUM_TEMPS * 8);
    m.malloc(r(1), r(22)); // temp table (slots reused per step)
    m.imm(r(23), NUM_TEMPS);
    m.imm(r(24), NUM_GRIDS);

    counted_loop(&mut m, r(25), steps, |m| {
        // Fresh work arrays this step.
        counted_loop(m, r(26), r(23), |m| {
            m.call(alloc_temp, &[], Some(r(4)));
            m.mul_imm(r(5), r(26), 8);
            m.add(r(5), r(22), r(5));
            m.store(r(4), r(5), 0, Width::W8);
            // Initialise: one write per word.
            m.mov(r(6), r(4));
            m.add_imm(r(7), r(4), TEMP_BYTES);
            let top = m.label();
            let done = m.label();
            m.bind(top);
            m.branch(Cond::Ge, r(6), r(7), done);
            m.store(r(26), r(6), 0, Width::W8);
            m.add_imm(r(6), r(6), 8);
            m.jump(top);
            m.bind(done);
        });
        // Pairwise stencil passes: temps (2k, 2k+1) read interleaved.
        m.imm(r(8), NUM_TEMPS / 2);
        counted_loop(m, r(27), r(8), |m| {
            m.mul_imm(r(1), r(27), 16);
            m.add(r(1), r(22), r(1));
            m.load(r(2), r(1), 0, Width::W8); // temp a
            m.load(r(3), r(1), 8, Width::W8); // temp b
            m.imm(r(4), TEMP_BYTES / 8);
            counted_loop(m, r(5), r(4), |m| {
                m.mul_imm(r(6), r(5), 8);
                m.add(r(7), r(2), r(6));
                m.load(r(9), r(7), 0, Width::W8);
                m.add(r(7), r(3), r(6));
                m.load(r(10), r(7), 0, Width::W8);
                m.add(r(9), r(9), r(10));
                m.add(r(7), r(2), r(6));
                m.store(r(9), r(7), 0, Width::W8);
            });
        });
        // Point-wise stencil across *all* grids at the same index —
        // `acc += grid_i[j]` for every field, the ocean-model combination
        // step. Under a page-aligned baseline placement every grid maps
        // the same L1 sets, so the twelve simultaneous lines thrash an
        // 8-way cache; bump co-location staggers them (see module docs).
        m.imm(r(8), GRID_BYTES / 16);
        counted_loop(m, r(26), r(8), |m| {
            m.mul_imm(r(1), r(26), 16); // byte offset of index j
            counted_loop(m, r(27), r(24), |m| {
                m.mul_imm(r(2), r(27), 8);
                m.add(r(2), r(21), r(2));
                m.load(r(3), r(2), 0, Width::W8); // grid_i pointer (hot table)
                m.add(r(3), r(3), r(1));
                m.load(r(4), r(3), 0, Width::W8); // grid_i[j]
                m.add(r(5), r(5), r(4));
            });
        });
        // Long sweeps over the persistent grids.
        counted_loop(m, r(28), r(24), |m| {
            m.mul_imm(r(1), r(28), 8);
            m.add(r(1), r(21), r(1));
            m.load(r(2), r(1), 0, Width::W8);
            sweep_array(m, r(2), GRID_BYTES, r(3), r(4));
        });
        // Work arrays die with the step.
        counted_loop(m, r(29), r(23), |m| {
            m.mul_imm(r(5), r(29), 8);
            m.add(r(5), r(22), r(5));
            m.load(r(6), r(5), 0, Width::W8);
            m.free(r(6));
        });
    });
    let main = end_main(m);

    Workload {
        name: "roms",
        program: pb.finish(main),
        train: RunSpec { seed: 3333, arg: 25 },
        reference: RunSpec { seed: 4444, arg: 250 },
        note: "huge persistent grids above the grouped cap; fresh per-step \
               work arrays scatter object-granularity traces",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::run_at_train_scale;

    #[test]
    fn roms_steps_allocate_and_free_work_arrays() {
        let w = build();
        let stats = run_at_train_scale(&w);
        let steps = w.train.arg as u64;
        assert_eq!(stats.allocs, 2 + 2 * NUM_GRIDS as u64 + steps * NUM_TEMPS as u64);
        assert_eq!(stats.frees, steps * NUM_TEMPS as u64);
    }
}
