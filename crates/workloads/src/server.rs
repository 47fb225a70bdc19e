//! `server`: a multi-threaded producer/consumer allocation storm.
//!
//! The ROADMAP's north star is a system serving heavy concurrent traffic,
//! and BOLT-style post-link optimisation pays off precisely on data-center
//! server workloads — which allocate on some threads and free on others.
//! This model encodes that malloc/free stream: three **producer** threads
//! each create sessions — a 32-byte header and a 32-byte payload, linked
//! through the header, with a cold 32-byte log record allocated *between*
//! them (the audit write every request handler performs). All three share
//! one size class, so the baseline's size-segregated placement interleaves
//! each session's hot pair with a cold record (the Fig. 1 pathology); two
//! **consumer** threads sweep every live session (touching the header and
//! then its payload — the affinity HALO should discover) and expire the
//! newest sessions, freeing memory another thread allocated. Logical
//! threads are announced with [`Op::ThreadSwitch`], so a thread-keyed
//! sharded allocator sees exactly the stream a native server would
//! produce, while the run stays single-engine deterministic.
//!
//! Producers outpace expiry (six sessions in, four out per round), so the
//! swept set grows and the sweep's locality — interleaved header/payload/
//! log classes under the baseline, per-session contiguity under HALO —
//! dominates the measured misses. Teardown returns to the main thread and
//! frees everything cross-thread: with a sharded backend every remaining
//! free lands on a remote queue.
//!
//! [`Op::ThreadSwitch`]: halo_vm::Op::ThreadSwitch

use crate::util::{
    begin_main, counted_loop, end_main, free_list, malloc_wrapper, r, while_nonzero, SCALE, ZERO,
};
use crate::{RunSpec, Workload};
use halo_vm::{Cond, ProgramBuilder, Width};

/// Producer logical threads 1..=PRODUCERS.
const PRODUCERS: u16 = 3;
/// Consumer logical threads PRODUCERS+1..=PRODUCERS+CONSUMERS.
const CONSUMERS: u16 = 2;

/// Build the server workload.
pub fn build() -> Workload {
    let mut pb = ProgramBuilder::new();
    let make_header = pb.declare("make_header");
    let make_payload = pb.declare("make_payload");
    let make_log = pb.declare("make_log");
    let produce = pb.declare("produce");
    let log_append = pb.declare("log_append");
    let sweep_sessions = pb.declare("sweep_sessions");
    let expire = pb.declare("expire");

    // Session header: [next:8][payload:8][tag:8][pad:8] = 32.
    malloc_wrapper(pb.define(make_header), Some(32));
    // Session payload: 32 bytes of request state — deliberately the
    // header's size class, as small request/state pairs are.
    malloc_wrapper(pb.define(make_payload), Some(32));
    // Cold log record: 32 bytes, written once, read never — and in
    // the same size class as the hot pair, so the baseline interleaves
    // it between them.
    malloc_wrapper(pb.define(make_log), Some(32));
    {
        // produce(session_list_cell, log_list_cell): allocate the header,
        // emit the audit log record (cold, between the hot pair in
        // allocation order), then the payload; link payload into header
        // and push the header onto the shared session list.
        let mut f = pb.define(produce);
        f.argc(2);
        f.call(make_header, &[], Some(r(10)));
        f.call(log_append, &[r(1)], None);
        f.call(make_payload, &[], Some(r(11)));
        f.store(r(11), r(10), 8, Width::W8); // header.payload
        f.imm(r(3), 7);
        f.store(r(3), r(10), 16, Width::W8); // header.tag
        f.store(r(3), r(11), 0, Width::W8); // payload state
        f.store(r(3), r(11), 24, Width::W8);
        f.load(r(12), r(0), 0, Width::W8); // old head
        f.store(r(12), r(10), 0, Width::W8); // header.next
        f.store(r(10), r(0), 0, Width::W8); // *cell = header
        f.ret(None);
        f.finish();
    }
    {
        // log_append(log_list_cell): one cold record onto the log list.
        let mut f = pb.define(log_append);
        f.argc(1);
        f.call(make_log, &[], Some(r(10)));
        f.imm(r(3), 1);
        f.store(r(3), r(10), 8, Width::W8);
        f.load(r(12), r(0), 0, Width::W8);
        f.store(r(12), r(10), 0, Width::W8);
        f.store(r(10), r(0), 0, Width::W8);
        f.ret(None);
        f.finish();
    }
    {
        // sweep_sessions(session_list_cell) -> checksum: the hot path.
        // Touch each header (tag), chase to its payload, touch two words.
        let mut f = pb.define(sweep_sessions);
        f.argc(1);
        f.imm(r(7), 0);
        f.load(r(10), r(0), 0, Width::W8);
        while_nonzero(&mut f, r(10), |f| {
            f.load(r(4), r(10), 16, Width::W8); // header.tag
            f.load(r(11), r(10), 8, Width::W8); // header.payload
            f.load(r(5), r(11), 0, Width::W8); // payload words
            f.load(r(6), r(11), 24, Width::W8);
            f.add(r(7), r(7), r(4));
            f.add(r(7), r(7), r(5));
            f.add(r(7), r(7), r(6));
            f.load(r(10), r(10), 0, Width::W8); // next header
        });
        f.ret(Some(r(7)));
        f.finish();
    }
    {
        // expire(session_list_cell): pop the newest session and free both
        // its objects — on a consumer thread, i.e. remotely.
        let mut f = pb.define(expire);
        f.argc(1);
        f.load(r(10), r(0), 0, Width::W8);
        let empty = f.label();
        f.branch(Cond::Eq, r(10), ZERO, empty);
        f.load(r(12), r(10), 0, Width::W8); // next
        f.store(r(12), r(0), 0, Width::W8);
        f.load(r(11), r(10), 8, Width::W8); // payload
        f.free(r(11));
        f.free(r(10));
        f.bind(empty);
        f.ret(None);
        f.finish();
    }

    let mut m = begin_main(&mut pb);
    let rounds = SCALE;
    // Shared cells: session-list head and log-list head (main thread).
    m.imm(r(1), 16);
    m.malloc(r(1), r(21)); // session list cell
    m.malloc(r(1), r(22)); // log list cell
    m.store(ZERO, r(21), 0, Width::W8);
    m.store(ZERO, r(22), 0, Width::W8);
    counted_loop(&mut m, r(23), rounds, |m| {
        // Producers: two sessions each (each session also logs).
        for p in 1..=PRODUCERS {
            m.thread_switch(p);
            m.call(produce, &[r(21), r(22)], None);
            m.call(produce, &[r(21), r(22)], None);
        }
        // Consumers: sweep every live session, then expire two each.
        for c in 1..=CONSUMERS {
            m.thread_switch(PRODUCERS + c);
            m.call(sweep_sessions, &[r(21)], Some(r(24)));
            m.call(expire, &[r(21)], None);
            m.call(expire, &[r(21)], None);
        }
    });
    // Teardown on the main thread: every remaining free is cross-thread.
    m.thread_switch(0);
    m.load(r(25), r(21), 0, Width::W8);
    free_list(&mut m, r(25), r(26), |m| {
        m.load(r(11), r(25), 8, Width::W8); // payload
        m.free(r(11));
    });
    m.load(r(25), r(22), 0, Width::W8);
    free_list(&mut m, r(25), r(26), |_| {});
    m.free(r(21));
    m.free(r(22));
    let main = end_main(m);

    Workload {
        name: "server",
        program: pb.finish(main),
        train: RunSpec { seed: 4242, arg: 200 },
        reference: RunSpec { seed: 4343, arg: 800 },
        note: "producer/consumer storm across 5 logical threads; consumers \
               free memory producers allocated",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_vm::{Engine, EngineLimits, MallocOnlyAllocator, NullMonitor};

    #[test]
    fn server_produces_consumes_and_drains() {
        let w = build();
        let mut alloc = MallocOnlyAllocator::new();
        let stats = Engine::new(&w.program)
            .with_seed(w.train.seed)
            .with_entry_arg(w.train.arg)
            .with_limits(EngineLimits { max_instructions: 200_000_000, max_call_depth: 64 })
            .run(&mut alloc, &mut NullMonitor)
            .expect("runs");
        let rounds = w.train.arg as u64;
        // 2 cells + per round: 6 sessions (header + log + payload each).
        assert_eq!(stats.allocs, 2 + rounds * 18);
        // Everything allocated is freed by teardown.
        assert_eq!(stats.frees, stats.allocs, "the server drains completely");
    }

    #[test]
    fn server_marks_its_logical_threads() {
        use halo_vm::Monitor;
        struct Threads(Vec<u16>);
        impl Monitor for Threads {
            fn on_thread_switch(&mut self, t: u16) {
                if self.0.last() != Some(&t) {
                    self.0.push(t);
                }
            }
        }
        let w = build();
        let mut alloc = MallocOnlyAllocator::new();
        let mut mon = Threads(Vec::new());
        Engine::new(&w.program)
            .with_seed(w.train.seed)
            .with_entry_arg(2)
            .run(&mut alloc, &mut mon)
            .expect("runs");
        // Round shape: producers 1..=3, consumers 4..=5, repeated; final 0.
        assert_eq!(&mon.0[..5], &[1, 2, 3, 4, 5]);
        assert_eq!(mon.0.last(), Some(&0), "teardown runs on the main thread");
    }
}
