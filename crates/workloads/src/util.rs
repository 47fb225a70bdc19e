//! Shared bytecode-emission helpers for workload builders.
//!
//! Conventions used by every workload:
//! * `r31` is never written: it reads as constant 0;
//! * the entry function receives the scale argument in `r0` and keeps it
//!   in [`SCALE`];
//! * pointer-linked structures put their `next` pointer at offset 0.

use halo_vm::{Cond, FuncId, FunctionBuilder, ProgramBuilder, Reg, Width};

/// The conventional always-zero register.
pub const ZERO: Reg = Reg(31);

/// The register the entry function keeps its scale argument in.
pub const SCALE: Reg = Reg(20);

/// Shorthand register constructor.
pub fn r(n: u8) -> Reg {
    Reg(n)
}

/// Begin the entry function `main(scale)`, copying the scale into [`SCALE`].
pub fn begin_main(pb: &mut ProgramBuilder) -> FunctionBuilder<'_> {
    let mut m = pb.function("main");
    m.argc(1);
    m.mov(SCALE, r(0));
    m
}

/// Close the entry function with `return` and install it.
pub fn end_main(mut m: FunctionBuilder<'_>) -> FuncId {
    m.ret(None);
    m.finish()
}

/// Emit `for (counter = 0; counter < limit; counter++) body`.
/// `counter` and `limit` must not be clobbered by `body`.
pub fn counted_loop(
    f: &mut FunctionBuilder,
    counter: Reg,
    limit: Reg,
    body: impl FnOnce(&mut FunctionBuilder),
) {
    f.imm(counter, 0);
    let top = f.label();
    let done = f.label();
    f.bind(top);
    f.branch(Cond::Ge, counter, limit, done);
    body(f);
    f.add_imm(counter, counter, 1);
    f.jump(top);
    f.bind(done);
}

/// Finish `f` as an allocation wrapper, `return malloc(size)`: the size is
/// the constant `Some(bytes)`, or `None` to forward the caller's `r0`.
pub fn malloc_wrapper(mut f: FunctionBuilder<'_>, size: Option<i64>) {
    if let Some(bytes) = size {
        f.imm(r(0), bytes);
    } else {
        f.argc(1);
    }
    f.malloc(r(0), r(1));
    f.ret(Some(r(1)));
    f.finish();
}

/// Emit a singly-linked-list push: `node->next = *head_slot; *head_slot =
/// node`, with the head kept in a register.
pub fn list_push(f: &mut FunctionBuilder, head: Reg, node: Reg) {
    f.store(head, node, 0, Width::W8);
    f.mov(head, node);
}

/// Emit `while (cur) body`; `body` must advance `cur`.
pub fn while_nonzero(f: &mut FunctionBuilder, cur: Reg, body: impl FnOnce(&mut FunctionBuilder)) {
    let top = f.label();
    let done = f.label();
    f.bind(top);
    f.branch(Cond::Eq, cur, ZERO, done);
    body(f);
    f.jump(top);
    f.bind(done);
}

/// Emit a walk of a list whose head is in `head`: `for (cur = head; cur;
/// cur = cur->next) body`. `body` may clobber anything except `cur`.
pub fn walk_list(
    f: &mut FunctionBuilder,
    head: Reg,
    cur: Reg,
    body: impl FnOnce(&mut FunctionBuilder),
) {
    f.mov(cur, head);
    while_nonzero(f, cur, |f| {
        body(f);
        f.load(cur, cur, 0, Width::W8);
    });
}

/// Emit a drain of the list whose head is in `cur`: `while (cur) { next =
/// cur->next; body; free(cur); cur = next; }`. `body` may clobber anything
/// except `cur` and `next`.
pub fn free_list(
    f: &mut FunctionBuilder,
    cur: Reg,
    next: Reg,
    body: impl FnOnce(&mut FunctionBuilder),
) {
    while_nonzero(f, cur, |f| {
        f.load(next, cur, 0, Width::W8);
        body(f);
        f.free(cur);
        f.mov(cur, next);
    });
}

/// Emit a sequential 8-byte-stride sweep over `[base, base + bytes)`,
/// loading each word into `tmp`. Clobbers `cursor` and `tmp`.
pub fn sweep_array(f: &mut FunctionBuilder, base: Reg, bytes: i64, cursor: Reg, tmp: Reg) {
    f.mov(cursor, base);
    f.add_imm(tmp, base, bytes);
    let top = f.label();
    let done = f.label();
    f.bind(top);
    f.branch(Cond::Ge, cursor, tmp, done);
    f.load(Reg(30), cursor, 0, Width::W8);
    f.add_imm(cursor, cursor, 8);
    f.jump(top);
    f.bind(done);
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_vm::{Engine, ExitStats, MallocOnlyAllocator, NullMonitor, ProgramBuilder};

    /// Run a program of `main` alone, as `body` emits it.
    fn run_main(body: impl FnOnce(&mut FunctionBuilder)) -> ExitStats {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        body(&mut f);
        let main = f.finish();
        let p = pb.finish(main);
        Engine::new(&p).run(&mut MallocOnlyAllocator::new(), &mut NullMonitor).unwrap()
    }

    #[test]
    fn counted_loop_iterates_exactly() {
        let stats = run_main(|f| {
            f.imm(r(1), 7);
            f.imm(r(2), 0);
            counted_loop(f, r(0), r(1), |f| {
                f.add_imm(r(2), r(2), 3);
            });
            f.ret(Some(r(2)));
        });
        assert_eq!(stats.return_value, Some(21));
    }

    #[test]
    fn list_push_and_walk_roundtrip() {
        let stats = run_main(|f| {
            f.imm(r(9), 0); // head
            f.imm(r(0), 16);
            f.imm(r(1), 5);
            counted_loop(f, r(2), r(1), |f| {
                f.malloc(r(0), r(3));
                list_push(f, r(9), r(3));
            });
            f.imm(r(4), 0); // count nodes
            walk_list(f, r(9), r(5), |f| {
                f.add_imm(r(4), r(4), 1);
            });
            f.ret(Some(r(4)));
        });
        assert_eq!(stats.return_value, Some(5));
    }

    #[test]
    fn sweep_touches_every_word() {
        let stats = run_main(|f| {
            f.imm(r(0), 64);
            f.malloc(r(0), r(1));
            sweep_array(f, r(1), 64, r(2), r(3));
            f.ret(None);
        });
        assert_eq!(stats.loads, 8);
    }
}
