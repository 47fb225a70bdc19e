//! `povray` (SPEC CPU2017): ray tracer, modelled after the paper's §3
//! motivating analysis.
//!
//! "Almost all heap data is allocated through a wrapper function,
//! `pov::pov_malloc`, thwarting approaches that look to characterise
//! allocations using only the call site to malloc." Geometry objects
//! (planes, CSG composites) are parsed from tokens, linked into an object
//! list, and swept repeatedly during rendering with substantial per-object
//! *compute*; textures are allocated interleaved but rarely touched again.
//!
//! Expected shape (paper Figs. 13/14): HALO cuts L1D misses noticeably
//! (it distinguishes `Copy_Plane`-like from `Copy_CSG`-like contexts
//! through the wrapper) while the hot-data-streams technique, identifying
//! by the single wrapper-internal call site, achieves almost nothing; the
//! benchmark is compute-bound enough that even HALO's miss reduction buys
//! little wall-clock time.

use crate::util::{
    begin_main, counted_loop, end_main, list_push, malloc_wrapper, r, walk_list, SCALE, ZERO,
};
use crate::{RunSpec, Workload};
use halo_vm::{Cond, ProgramBuilder, Width};

const RENDER_SWEEPS: i64 = 24;
/// Non-memory instructions of shading work per object per sweep.
const SHADE_COMPUTE: u64 = 90;

/// Build the povray workload.
pub fn build() -> Workload {
    let mut pb = ProgramBuilder::new();
    let pov_malloc = pb.declare("pov_malloc");
    let create_plane = pb.declare("create_plane");
    let create_csg = pb.declare("create_csg");
    let create_texture = pb.declare("create_texture");

    // The wrapper: ONE malloc site for the whole program.
    malloc_wrapper(pb.define(pov_malloc), None);
    {
        // Plane: [next:8][normal:8][dist:8][tex:8][flags:8][pad] = 56.
        let mut f = pb.define(create_plane);
        f.imm(r(0), 56);
        f.call(pov_malloc, &[r(0)], Some(r(1)));
        f.imm(r(2), 3);
        f.store(r(2), r(1), 8, Width::W8);
        f.store(r(2), r(1), 16, Width::W8);
        f.ret(Some(r(1)));
        f.finish();
    }
    {
        // CSG composite: [next:8][children:8][op:8][bbox:8][pad] = 40.
        let mut f = pb.define(create_csg);
        f.imm(r(0), 40);
        f.call(pov_malloc, &[r(0)], Some(r(1)));
        f.imm(r(2), 7);
        f.store(r(2), r(1), 8, Width::W8);
        f.ret(Some(r(1)));
        f.finish();
    }
    {
        // Texture: 64 bytes, written at parse time, rarely read.
        let mut f = pb.define(create_texture);
        f.imm(r(0), 64);
        f.call(pov_malloc, &[r(0)], Some(r(1)));
        f.imm(r(2), 9);
        f.store(r(2), r(1), 8, Width::W8);
        f.store(r(2), r(1), 32, Width::W8);
        f.ret(Some(r(1)));
        f.finish();
    }

    let mut m = begin_main(&mut pb);
    let tokens = SCALE;
    let objects = r(9); // geometry list head
    m.imm(objects, 0);
    m.imm(r(21), 4);
    // Parse: tokens arrive in mixed order; geometry : texture ≈ 1 : 1.
    counted_loop(&mut m, r(22), tokens, |m| {
        m.rand(r(1), r(21));
        let not_plane = m.label();
        let not_csg = m.label();
        let next = m.label();
        m.branch(Cond::Ne, r(1), ZERO, not_plane);
        m.call(create_plane, &[], Some(r(3)));
        list_push(m, objects, r(3));
        m.jump(next);
        m.bind(not_plane);
        m.imm(r(2), 1);
        m.branch(Cond::Ne, r(1), r(2), not_csg);
        m.call(create_csg, &[], Some(r(3)));
        list_push(m, objects, r(3));
        m.jump(next);
        m.bind(not_csg);
        m.call(create_texture, &[], Some(r(3)));
        m.bind(next);
    });
    // Render: repeated intersection sweeps over the geometry list, with
    // heavy shading compute per object.
    m.imm(r(23), RENDER_SWEEPS);
    counted_loop(&mut m, r(24), r(23), |m| {
        walk_list(m, objects, r(6), |m| {
            m.load(r(7), r(6), 8, Width::W8);
            m.load(r(8), r(6), 16, Width::W8);
            m.add(r(7), r(7), r(8));
            m.store(r(7), r(6), 24, Width::W8);
            m.compute(SHADE_COMPUTE);
        });
    });
    let main = end_main(m);

    Workload {
        name: "povray",
        program: pb.finish(main),
        train: RunSpec { seed: 303, arg: 800 },
        reference: RunSpec { seed: 404, arg: 8000 },
        note: "all allocation through a pov_malloc wrapper: immediate-call-\
               site identification collapses; compute-bound rendering",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_vm::{Engine, EngineLimits, MallocOnlyAllocator, NullMonitor};

    #[test]
    fn povray_parses_and_renders() {
        let w = build();
        let mut alloc = MallocOnlyAllocator::new();
        let stats = Engine::new(&w.program)
            .with_seed(w.train.seed)
            .with_entry_arg(w.train.arg)
            .with_limits(EngineLimits { max_instructions: 100_000_000, max_call_depth: 64 })
            .run(&mut alloc, &mut NullMonitor)
            .expect("runs");
        assert_eq!(stats.allocs, w.train.arg as u64);
        // Compute-heavy: instructions dominated by shading work.
        assert!(stats.instructions > 10 * (stats.loads + stats.stores));
    }
}
