//! `health` (Olden): hierarchical health-care simulation.
//!
//! The real program simulates villages, each holding linked lists of
//! patients that are admitted, treated, and discharged. Its layout
//! pathology: patient structs and their list cells are allocated from
//! *distinct, direct* malloc sites, interleaved with per-admission record
//! bookkeeping that is written once and never traversed; treatment then
//! walks cell → patient → cell → patient, so a size-segregated allocator
//! scatters the hot pair among the cold records. This is the benchmark
//! where HALO's full-context grouping extracts the largest speedup (~28%
//! in the paper, ~7 points above hot data streams).

use crate::util::{
    begin_main, counted_loop, end_main, malloc_wrapper, r, while_nonzero, SCALE, ZERO,
};
use crate::{RunSpec, Workload};
use halo_vm::{Cond, ProgramBuilder, Width};

const NUM_VILLAGES: i64 = 16;

/// Build the health workload.
pub fn build() -> Workload {
    let mut pb = ProgramBuilder::new();
    let alloc_patient = pb.declare("alloc_patient");
    let alloc_cell = pb.declare("alloc_cell");
    let alloc_record = pb.declare("alloc_record");
    let admit = pb.declare("admit");
    let admit_emergency = pb.declare("admit_emergency");
    let treat = pb.declare("treat");
    let discharge = pb.declare("discharge");

    // Patient: [time:8][hosps:8][severity:8][pad:8] = 40 bytes — a
    // cell+patient pair (56 B) straddles cache lines, so pool
    // neighbours share lines and cold neighbours waste them.
    malloc_wrapper(pb.define(alloc_patient), Some(40));
    // List cell: [next:8][patient:8] = 16 bytes.
    malloc_wrapper(pb.define(alloc_cell), Some(16));
    // Admission record: 32 bytes, written once, never read again.
    malloc_wrapper(pb.define(alloc_record), Some(32));
    {
        // admit(slot): new patient at the head of the village list.
        let mut f = pb.define(admit);
        f.argc(1);
        let slot = r(0);
        f.call(alloc_patient, &[], Some(r(1)));
        f.imm(r(2), 1);
        f.store(r(2), r(1), 8, Width::W8); // time
        f.store(r(2), r(1), 16, Width::W8); // hosps
        f.call(alloc_cell, &[], Some(r(3)));
        f.store(r(1), r(3), 8, Width::W8); // cell.patient
        f.load(r(4), slot, 0, Width::W8); // old head
        f.store(r(4), r(3), 0, Width::W8); // cell.next
        f.store(r(3), slot, 0, Width::W8); // head = cell
        f.call(alloc_record, &[], Some(r(5)));
        f.store(r(2), r(5), 0, Width::W8); // record written once
        f.ret(None);
        f.finish();
    }
    {
        // admit_emergency(slot): same patient/cell allocation *sites* as
        // the regular path (inside alloc_patient / alloc_cell), but a
        // different calling context — and the overflow list it feeds is
        // almost never traversed. Full-context identification separates
        // this cold traffic from hot admissions; the immediate call site
        // cannot (§3).
        let mut f = pb.define(admit_emergency);
        f.argc(1);
        let slot = r(0);
        f.call(alloc_patient, &[], Some(r(1)));
        f.imm(r(2), 9);
        f.store(r(2), r(1), 8, Width::W8);
        f.call(alloc_cell, &[], Some(r(3)));
        f.store(r(1), r(3), 8, Width::W8);
        f.load(r(4), slot, 0, Width::W8);
        f.store(r(4), r(3), 0, Width::W8);
        f.store(r(3), slot, 0, Width::W8);
        f.ret(None);
        f.finish();
    }
    {
        // treat(slot): walk the list, touching each cell and its patient.
        let mut f = pb.define(treat);
        f.argc(1);
        let slot = r(0);
        f.load(r(1), slot, 0, Width::W8); // head
        while_nonzero(&mut f, r(1), |f| {
            f.load(r(2), r(1), 8, Width::W8); // cell.patient
            f.load(r(3), r(2), 8, Width::W8); // patient.time
            f.load(r(4), r(2), 16, Width::W8); // patient.hosps
            f.add_imm(r(3), r(3), 1);
            f.store(r(3), r(2), 8, Width::W8); // patient.time++
            f.compute(4); // per-patient diagnosis work
            f.load(r(1), r(1), 0, Width::W8); // next cell
        });
        f.ret(None);
        f.finish();
    }
    {
        // discharge(slot): pop the head patient, if any.
        let mut f = pb.define(discharge);
        f.argc(1);
        let slot = r(0);
        f.load(r(1), slot, 0, Width::W8); // head cell
        let empty = f.label();
        f.branch(Cond::Eq, r(1), ZERO, empty);
        f.load(r(2), r(1), 0, Width::W8); // next
        f.load(r(3), r(1), 8, Width::W8); // patient
        f.store(r(2), slot, 0, Width::W8);
        f.free(r(3));
        f.free(r(1));
        f.bind(empty);
        f.ret(None);
        f.finish();
    }

    let mut m = begin_main(&mut pb);
    let steps = SCALE;
    // villages: array of list-head slots, plus emergency overflow slots.
    m.imm(r(1), NUM_VILLAGES);
    m.imm(r(2), 8);
    m.calloc(r(1), r(2), r(21)); // r21 = villages base
    m.imm(r(1), NUM_VILLAGES);
    m.calloc(r(1), r(2), r(28)); // r28 = overflow base

    // Census table: common memory traffic shared by every configuration.
    m.imm(r(1), 64 * 1024);
    m.malloc(r(1), r(30));
    m.imm(r(22), NUM_VILLAGES);
    m.imm(r(23), 4);
    m.imm(r(17), 3);
    counted_loop(&mut m, r(24), steps, |m| {
        m.rand(r(3), r(22)); // village index
        m.mul_imm(r(4), r(3), 8);
        m.add(r(25), r(21), r(4)); // slot address
        m.add(r(29), r(28), r(4)); // overflow slot address
        m.call(treat, &[r(25)], None);
        m.call(admit, &[r(25)], None);
        // Rare emergency admissions through the same allocation sites.
        m.rand(r(6), r(23));
        let no_emergency = m.label();
        m.branch(Cond::Ne, r(6), ZERO, no_emergency);
        m.call(admit_emergency, &[r(29)], None);
        m.bind(no_emergency);
        // Discharge with probability 1/3 to keep lists slowly growing.
        m.rand(r(5), r(17));
        let skip = m.label();
        m.branch(Cond::Ne, r(5), ZERO, skip);
        m.call(discharge, &[r(25)], None);
        m.bind(skip);
        // Census scan: a 2 KiB window of the statistics table.
        m.rand(r(15), r(22));
        m.mul_imm(r(15), r(15), 4096);
        m.add(r(15), r(30), r(15));
        m.mov(r(16), r(15));
        m.add_imm(r(18), r(15), 2048);
        let ctop = m.label();
        let cdone = m.label();
        m.bind(ctop);
        m.branch(Cond::Ge, r(16), r(18), cdone);
        m.load(r(19), r(16), 0, Width::W8);
        m.add_imm(r(16), r(16), 64);
        m.jump(ctop);
        m.bind(cdone);
    });
    let main = end_main(m);

    Workload {
        name: "health",
        program: pb.finish(main),
        train: RunSpec { seed: 101, arg: 1500 },
        reference: RunSpec { seed: 202, arg: 15_000 },
        note: "direct mallocs from distinct sites; hot cell/patient pairs \
               interleaved with cold admission records",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::run_at_train_scale;

    #[test]
    fn health_admits_treats_and_discharges() {
        let w = build();
        let stats = run_at_train_scale(&w);
        // 3 allocations per admission (patient, cell, record) plus 2 per
        // emergency (~1/4 of steps) plus the two slot arrays.
        let n = w.train.arg as u64;
        assert!(stats.allocs >= 3 + 3 * n, "allocs {}", stats.allocs);
        assert!(stats.allocs <= 3 + 3 * n + n, "allocs {}", stats.allocs);
        assert!(stats.frees > 600, "discharges free patients");
        assert!(stats.loads > 10_000, "treatment walks lists");
    }
}
