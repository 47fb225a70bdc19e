//! The post-link rewriting pass (§4.3) — BOLT's role in the paper.
//!
//! "We rewrite the target binary using the BOLT post-link optimisation
//! framework. Constructing a custom pass specifically for heap-layout
//! optimisation, we insert instructions around every point of interest in
//! the target binary, setting and then unsetting a single bit in a shared
//! 'group state' bit vector to indicate whether the flow of control has
//! passed through this point."
//!
//! [`instrument`] does exactly that to a simulated binary: each monitored
//! call site `s` with assigned bit `b` becomes
//!
//! ```text
//!     GroupSet(b)
//!     <original call instruction>
//!     GroupClear(b)
//! ```
//!
//! Inserting instructions shifts every subsequent instruction index, so the
//! pass performs the classic rewriting chore of fixing up intra-function
//! branch targets (the simulated analogue of BOLT's relocation handling).
//! Branches that targeted an instrumented call land on its `GroupSet`, so
//! the bit is maintained no matter how control reaches the site.
//!
//! # Example
//!
//! ```
//! use halo_rewrite::instrument;
//! use halo_vm::{CallSite, ProgramBuilder, Reg};
//! use std::collections::HashMap;
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("main");
//! f.imm(Reg(0), 8);
//! let site = f.malloc(Reg(0), Reg(1));
//! f.ret(None);
//! let main = f.finish();
//! let program = pb.finish(main);
//!
//! let bits = HashMap::from([(site, 0u16)]);
//! let (rewritten, report) = instrument(&program, &bits);
//! assert_eq!(report.sites_instrumented, 1);
//! assert_eq!(rewritten.code_size(), program.code_size() + 2);
//! ```

use halo_vm::{CallSite, FuncId, Op, Program};
use std::collections::HashMap;

/// Summary of a rewriting pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteReport {
    /// Monitored sites actually found and instrumented.
    pub sites_instrumented: usize,
    /// Instructions added (2 per instrumented site).
    pub instructions_added: usize,
    /// Branch targets adjusted during fixup.
    pub branches_fixed: usize,
}

/// Instrument `program` at every call site in `site_bits`, returning the
/// rewritten binary and a report.
///
/// Sites that do not name a call-site instruction in `program` are ignored
/// (they cannot arise from a same-binary identification run; tolerating
/// them keeps the pass usable on hand-built inputs).
pub fn instrument(
    program: &Program,
    site_bits: &HashMap<CallSite, u16>,
) -> (Program, RewriteReport) {
    let mut report = RewriteReport::default();
    let mut out = program.clone();

    for (fi, func) in out.functions.iter_mut().enumerate() {
        let fid = FuncId(fi as u32);
        let old_len = func.code.len();

        // Which old pcs get instrumented, in order.
        let instrumented: Vec<(u32, u16)> = (0..old_len as u32)
            .filter_map(|pc| {
                let op = &func.code[pc as usize];
                let bit = site_bits.get(&CallSite::new(fid, pc)).copied()?;
                op.is_call_site().then_some((pc, bit))
            })
            .collect();
        if instrumented.is_empty() {
            continue;
        }

        // Old index → new index of the first instruction emitted for it
        // (labels bind before the GroupSet, so jumps keep the bit correct).
        let mut index_map: Vec<u32> = Vec::with_capacity(old_len + 1);
        let mut new_code: Vec<Op> = Vec::with_capacity(old_len + instrumented.len() * 2);
        let mut next_site = instrumented.iter().peekable();
        for (pc, op) in func.code.drain(..).enumerate() {
            index_map.push(new_code.len() as u32);
            match next_site.peek() {
                Some(&&(site_pc, bit)) if site_pc as usize == pc => {
                    next_site.next();
                    new_code.push(Op::GroupSet(bit));
                    new_code.push(op);
                    new_code.push(Op::GroupClear(bit));
                    report.sites_instrumented += 1;
                    report.instructions_added += 2;
                }
                _ => new_code.push(op),
            }
        }
        // One-past-the-end maps too (a branch target may be the old length
        // only in malformed inputs; validated programs never do this, but
        // the map stays total for safety).
        index_map.push(new_code.len() as u32);

        // Fix up branch targets.
        for op in &mut new_code {
            if let Some(old_target) = op.branch_target() {
                let new_target = index_map[old_target as usize];
                if new_target != old_target {
                    report.branches_fixed += 1;
                }
                op.map_branch_target(|_| new_target);
            }
        }
        func.code = new_code;
    }

    debug_assert!(out.validate().is_ok(), "rewriting must preserve validity");
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_vm::{
        AllocKind, CallSite, Cond, Engine, GroupState, Memory, Monitor, ProgramBuilder, Reg,
        VmAllocator, Width,
    };

    fn r(n: u8) -> Reg {
        Reg(n)
    }

    /// Records non-instrumentation events for semantics comparison.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct EventLog(Vec<String>);

    impl Monitor for EventLog {
        fn on_call(&mut self, site: CallSite, callee: halo_vm::FuncId) {
            // Call sites shift under rewriting; record callees only.
            let _ = site;
            self.0.push(format!("call {callee}"));
        }
        fn on_return(&mut self, callee: halo_vm::FuncId) {
            self.0.push(format!("ret {callee}"));
        }
        fn on_alloc(&mut self, kind: AllocKind, _s: CallSite, size: u64, ptr: u64, old: u64) {
            self.0.push(format!("alloc {kind:?} {size} {ptr} {old}"));
        }
        fn on_free(&mut self, _s: CallSite, ptr: u64) {
            self.0.push(format!("free {ptr}"));
        }
        fn on_access(&mut self, addr: u64, width: u8, store: bool) {
            self.0.push(format!("access {addr} {width} {store}"));
        }
    }

    /// A loop-heavy program with branches spanning a monitored call site.
    fn looped_program() -> (halo_vm::Program, CallSite) {
        let mut pb = ProgramBuilder::new();
        let helper = pb.declare("helper");
        let mut m = pb.function("main");
        m.imm(r(0), 0);
        m.imm(r(1), 5);
        let top = m.label();
        let done = m.label();
        m.bind(top);
        m.branch(Cond::Ge, r(0), r(1), done); // forward over the call
        let site = m.call(helper, &[r(0)], Some(r(2)));
        m.add_imm(r(0), r(0), 1);
        m.jump(top); // backward over the call
        m.bind(done);
        m.ret(Some(r(0)));
        let main = m.finish();
        let mut h = pb.define(helper);
        h.argc(1);
        h.imm(r(1), 16);
        h.malloc(r(1), r(2));
        h.store(r(0), r(2), 0, Width::W8);
        h.free(r(2));
        h.ret(Some(r(0)));
        h.finish();
        (pb.finish(main), site)
    }

    fn run_with_log(p: &halo_vm::Program) -> (halo_vm::ExitStats, EventLog) {
        let mut alloc = halo_vm::MallocOnlyAllocator::new();
        let mut log = EventLog::default();
        let stats = Engine::new(p).run(&mut alloc, &mut log).expect("runs");
        (stats, log)
    }

    #[test]
    fn rewriting_preserves_semantics() {
        let (p, site) = looped_program();
        let bits = HashMap::from([(site, 0u16)]);
        let (rp, report) = instrument(&p, &bits);
        assert_eq!(report.sites_instrumented, 1);
        assert!(report.branches_fixed > 0, "loop branches needed fixups");
        let (s1, log1) = run_with_log(&p);
        let (s2, log2) = run_with_log(&rp);
        assert_eq!(s1.return_value, s2.return_value);
        assert_eq!(log1, log2, "event stream identical modulo instrumentation");
        // Instrumentation overhead: 2 extra instructions per loop iteration.
        assert_eq!(s2.instructions, s1.instructions + 10);
    }

    #[test]
    fn multiple_sites_and_functions() {
        let mut pb = ProgramBuilder::new();
        let a = pb.declare("a");
        let mut m = pb.function("main");
        let s1 = m.call(a, &[], None);
        let s2 = m.call(a, &[], None);
        m.ret(None);
        let main = m.finish();
        let mut fa = pb.define(a);
        fa.imm(r(0), 8);
        let s3 = fa.malloc(r(0), r(1));
        fa.free(r(1));
        fa.ret(None);
        fa.finish();
        let p = pb.finish(main);
        let bits = HashMap::from([(s1, 0u16), (s2, 1u16), (s3, 2u16)]);
        let (rp, report) = instrument(&p, &bits);
        assert_eq!(report.sites_instrumented, 3);
        assert_eq!(rp.code_size(), p.code_size() + 6);
        let (x, _) = run_with_log(&p);
        let (y, _) = run_with_log(&rp);
        assert_eq!(x.allocs, y.allocs);
    }

    /// Allocator probe: snapshots the group state at each malloc.
    #[derive(Debug, Default)]
    struct ProbeAllocator {
        inner: halo_vm::MallocOnlyAllocator,
        seen_bits: Vec<Vec<u16>>,
    }

    impl ProbeAllocator {
        fn new() -> Self {
            ProbeAllocator { inner: halo_vm::MallocOnlyAllocator::new(), seen_bits: Vec::new() }
        }
    }

    impl VmAllocator for ProbeAllocator {
        fn malloc(&mut self, size: u64, site: CallSite, gs: &GroupState, mem: &mut Memory) -> u64 {
            let set: Vec<u16> = (0..gs.capacity() as u16).filter(|&b| gs.test(b)).collect();
            self.seen_bits.push(set);
            self.inner.malloc(size, site, gs, mem)
        }
        fn free(&mut self, ptr: u64, mem: &mut Memory) {
            self.inner.free(ptr, mem)
        }
        fn live_size(&self, ptr: u64) -> Option<u64> {
            self.inner.live_size(ptr)
        }
    }

    #[test]
    fn group_bits_are_visible_during_the_call_and_cleared_after() {
        // main calls wrapper (monitored, bit 4) which mallocs (monitored,
        // bit 7): at malloc time both bits must be set.
        let mut pb = ProgramBuilder::new();
        let wrapper = pb.declare("wrapper");
        let mut m = pb.function("main");
        let call_site = m.call(wrapper, &[], Some(r(1)));
        m.imm(r(2), 8);
        m.malloc(r(2), r(3)); // unmonitored allocation afterwards
        m.ret(None);
        let main = m.finish();
        let mut w = pb.define(wrapper);
        w.imm(r(0), 8);
        let malloc_site = w.malloc(r(0), r(1));
        w.ret(Some(r(1)));
        w.finish();
        let p = pb.finish(main);
        let bits = HashMap::from([(call_site, 4u16), (malloc_site, 7u16)]);
        let (rp, _) = instrument(&p, &bits);

        let mut probe = ProbeAllocator::new();
        let mut nm = halo_vm::NullMonitor;
        let mut engine = Engine::new(&rp);
        engine.run(&mut probe, &mut nm).expect("runs");
        assert_eq!(probe.seen_bits.len(), 2);
        assert_eq!(probe.seen_bits[0], vec![4, 7], "both bits set inside the wrapper call");
        assert!(probe.seen_bits[1].is_empty(), "bits cleared after returning");
        // And nothing left set at exit.
        assert_eq!(engine.group_state().count_ones(), 0);
    }

    #[test]
    fn jump_to_call_site_lands_on_group_set() {
        // A branch that targets the monitored call directly must still set
        // the bit (the label binds before the inserted GroupSet).
        let mut pb = ProgramBuilder::new();
        let callee = pb.declare("callee");
        let mut m = pb.function("main");
        let skip = m.label();
        m.imm(r(0), 0);
        m.jump(skip); // jump straight to the call
        m.imm(r(0), 99); // skipped
        m.bind(skip);
        let site = m.call(callee, &[], None);
        m.ret(Some(r(0)));
        let main = m.finish();
        let mut c = pb.define(callee);
        c.imm(r(1), 8);
        c.malloc(r(1), r(2));
        c.ret(None);
        c.finish();
        let p = pb.finish(main);
        let (rp, _) = instrument(&p, &HashMap::from([(site, 3u16)]));

        let mut probe = ProbeAllocator::new();
        let mut nm = halo_vm::NullMonitor;
        Engine::new(&rp).run(&mut probe, &mut nm).expect("runs");
        assert_eq!(probe.seen_bits, vec![vec![3]]);
    }

    #[test]
    fn unknown_sites_are_ignored() {
        let (p, _) = looped_program();
        let ghost = CallSite::new(halo_vm::FuncId(0), 999);
        let (rp, report) = instrument(&p, &HashMap::from([(ghost, 0u16)]));
        assert_eq!(report.sites_instrumented, 0);
        assert_eq!(rp.code_size(), p.code_size());
    }

    #[test]
    fn non_call_instructions_are_never_instrumented() {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.function("main");
        m.imm(r(0), 1); // pc 0: not a call site
        m.ret(None);
        let main = m.finish();
        let p = pb.finish(main);
        let not_a_call = CallSite::new(main, 0);
        let (rp, report) = instrument(&p, &HashMap::from([(not_a_call, 0u16)]));
        assert_eq!(report.sites_instrumented, 0);
        assert_eq!(rp.code_size(), p.code_size());
    }

    #[test]
    fn empty_site_map_is_identity() {
        let (p, _) = looped_program();
        let (rp, report) = instrument(&p, &HashMap::new());
        assert_eq!(report, RewriteReport::default());
        assert_eq!(rp.code_size(), p.code_size());
        let (s1, l1) = run_with_log(&p);
        let (s2, l2) = run_with_log(&rp);
        assert_eq!(s1, s2);
        assert_eq!(l1, l2);
    }
}
