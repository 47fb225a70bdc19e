//! `omnetpp` (SPEC CPU2017): discrete-event network simulation.
//!
//! Event processing happens in waves: a batch of messages is scheduled
//! from three module contexts, then processed — reading message fields,
//! emitting a write-once event-log record, and freeing the message. *All*
//! of it (messages and log records alike) allocates through the
//! `new_message → msg_alloc` wrapper pair, so the immediate call site
//! identifies nothing, while HALO's contexts separate the transient
//! message traffic from the cold log records. The paper reports a modest
//! ~4% HALO speedup and notes the artefact runs this benchmark with
//! `--chunk-size 131072` and always-reused chunks.

use crate::util::{begin_main, counted_loop, end_main, malloc_wrapper, r, SCALE, ZERO};
use crate::{RunSpec, Workload};
use halo_vm::{Cond, ProgramBuilder, Width};

const WAVE: i64 = 32;
const RETAIN: i64 = 256;

/// Build the omnetpp workload.
pub fn build() -> Workload {
    let mut pb = ProgramBuilder::new();
    let msg_alloc = pb.declare("msg_alloc");
    let new_message = pb.declare("new_message");
    let module_app = pb.declare("module_app");
    let module_mac = pb.declare("module_mac");
    let module_phy = pb.declare("module_phy");
    let module_timer = pb.declare("module_timer");
    let write_log = pb.declare("write_log");

    // The bottom wrapper: the program's only malloc site.
    malloc_wrapper(pb.define(msg_alloc), None);
    {
        // Middle wrapper: cMessage construction. Every message owns a
        // control-info payload allocated right behind it through the same
        // wrapper — the hot pair HALO can co-locate.
        // Message: [kind:8][time:8][src:8][payload:8][dst:8][pad..] = 56.
        // Payload: [bits:8][hops:8][tag:8][pad:8] = 32.
        let mut f = pb.define(new_message);
        f.argc(1);
        let kind = r(0);
        f.imm(r(2), 56);
        f.call(msg_alloc, &[r(2)], Some(r(1)));
        f.store(kind, r(1), 0, Width::W8);
        f.store(kind, r(1), 16, Width::W8);
        f.imm(r(2), 32);
        f.call(msg_alloc, &[r(2)], Some(r(3)));
        f.store(kind, r(3), 0, Width::W8);
        f.store(r(3), r(1), 24, Width::W8); // msg.payload
        f.ret(Some(r(1)));
        f.finish();
    }
    for (i, module) in [module_app, module_mac, module_phy].into_iter().enumerate() {
        let mut f = pb.define(module);
        f.imm(r(0), i as i64);
        f.call(new_message, &[r(0)], Some(r(1)));
        f.ret(Some(r(1)));
        f.finish();
    }
    {
        // Self-message timers: long-lived, rarely touched, allocated
        // straight through the bottom wrapper from their own context (no
        // payload). Their staggered frees punch holes into the baseline
        // allocator's message size class, scattering later waves; under
        // HALO this cold context stays ungrouped and cannot disturb the
        // message pool.
        let mut f = pb.define(module_timer);
        f.imm(r(2), 56);
        f.call(msg_alloc, &[r(2)], Some(r(1)));
        f.imm(r(3), 3);
        f.store(r(3), r(1), 0, Width::W8);
        f.ret(Some(r(1)));
        f.finish();
    }
    {
        // Event-log record: 32 bytes through the SAME wrapper chain —
        // the payload size class — written once and abandoned.
        let mut f = pb.define(write_log);
        f.argc(1);
        f.imm(r(2), 32);
        f.call(msg_alloc, &[r(2)], Some(r(1)));
        f.store(r(0), r(1), 0, Width::W8);
        f.ret(None);
        f.finish();
    }

    let mut m = begin_main(&mut pb);
    let waves = SCALE;
    // Future-event-set: a pointer array holding one wave.
    m.imm(r(1), WAVE * 8);
    m.malloc(r(1), r(21));
    // Retention buffer: self-messages re-scheduled far into the future.
    // Their staggered lifetimes punch holes into the allocator's reuse
    // pattern, scattering later waves across the heap.
    m.imm(r(1), RETAIN * 8);
    m.calloc(r(1), r(2), r(28));
    m.imm(r(22), WAVE);
    m.imm(r(23), 3);
    m.imm(r(19), RETAIN);
    counted_loop(&mut m, r(24), waves, |m| {
        // Schedule a wave of messages from random modules.
        counted_loop(m, r(25), r(22), |m| {
            m.rand(r(1), r(23));
            let not_app = m.label();
            let not_mac = m.label();
            let scheduled = m.label();
            m.branch(Cond::Ne, r(1), ZERO, not_app);
            m.call(module_app, &[], Some(r(4)));
            m.jump(scheduled);
            m.bind(not_app);
            m.imm(r(2), 1);
            m.branch(Cond::Ne, r(1), r(2), not_mac);
            m.call(module_mac, &[], Some(r(4)));
            m.jump(scheduled);
            m.bind(not_mac);
            m.call(module_phy, &[], Some(r(4)));
            m.bind(scheduled);
            m.mul_imm(r(5), r(25), 8);
            m.add(r(5), r(21), r(5));
            m.store(r(4), r(5), 0, Width::W8);
        });
        // Process the wave: several handler passes touch every message,
        // each event emits a log record, then the wave is freed.
        m.imm(r(6), 3);
        counted_loop(m, r(7), r(6), |m| {
            counted_loop(m, r(26), r(22), |m| {
                m.mul_imm(r(5), r(26), 8);
                m.add(r(5), r(21), r(5));
                m.load(r(8), r(5), 0, Width::W8); // message
                m.load(r(9), r(8), 0, Width::W8); // kind
                m.load(r(10), r(8), 16, Width::W8); // src
                m.load(r(11), r(8), 24, Width::W8); // payload ptr
                m.load(r(12), r(11), 0, Width::W8); // payload.bits
                m.add(r(9), r(9), r(10));
                m.add(r(9), r(9), r(12));
                m.store(r(9), r(8), 32, Width::W8); // dst
                m.store(r(9), r(11), 8, Width::W8); // payload.hops
                m.compute(4);
            });
        });
        counted_loop(m, r(27), r(22), |m| {
            m.mul_imm(r(5), r(27), 8);
            m.add(r(5), r(21), r(5));
            m.load(r(8), r(5), 0, Width::W8);
            m.load(r(9), r(8), 32, Width::W8);
            m.call(write_log, &[r(9)], None);
            m.load(r(10), r(8), 24, Width::W8);
            m.free(r(10)); // payload
            m.free(r(8)); // message
        });
        // Timer churn: long-lived self-messages, each displacing (and
        // freeing) an older one at a random ring slot. Their staggered
        // lifetimes punch holes across the message size class.
        m.imm(r(13), 4);
        counted_loop(m, r(18), r(13), |m| {
            m.call(module_timer, &[], Some(r(14)));
            m.rand(r(15), r(19));
            m.mul_imm(r(15), r(15), 8);
            m.add(r(15), r(28), r(15));
            m.load(r(16), r(15), 0, Width::W8);
            m.store(r(14), r(15), 0, Width::W8);
            let none_old = m.label();
            m.branch(Cond::Eq, r(16), ZERO, none_old);
            m.free(r(16)); // displaced timer message
            m.bind(none_old);
        });
    });
    let main = end_main(m);

    Workload {
        name: "omnetpp",
        program: pb.finish(main),
        train: RunSpec { seed: 555, arg: 80 },
        reference: RunSpec { seed: 666, arg: 800 },
        note: "message waves and log records all through one wrapper \
               chain; contexts (not sites) separate hot from cold",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::run_at_train_scale;

    #[test]
    fn omnetpp_schedules_and_processes() {
        let w = build();
        let stats = run_at_train_scale(&w);
        let waves = w.train.arg as u64;
        // FES + timer ring + per wave: WAVE messages/payloads/logs plus
        // 4 payload-less timer messages.
        assert_eq!(stats.allocs, 2 + waves * (3 * WAVE as u64 + 4));
        // All wave traffic is freed; timers free on displacement only.
        assert!(stats.frees >= 2 * waves * WAVE as u64);
    }
}
