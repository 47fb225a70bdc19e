// The Fig. 2 program at test scale and the configuration that groups it,
// shared by halo_core's integration suites (through `mod.rs`) and its unit
// tests, which `include!` this file: so it has no inner attributes, and it
// names `EvalConfig` and `HaloConfig` as its includer imports them.

use halo_vm::{Cond, FuncId, FunctionBuilder, Program, ProgramBuilder, Reg, Width};

pub fn r(n: u8) -> Reg {
    Reg(n)
}

/// The configuration that groups the fixture's hot pair at test scale:
/// HALO's defaults, with edges of weight 2 kept.
pub fn fig2_halo() -> HaloConfig {
    let mut config = HaloConfig::default();
    config.grouping.min_weight = 2;
    config
}

/// An evaluation under [`fig2_halo`] with the `extras` backends on.
pub fn fig2_eval(extras: &[&'static str]) -> EvalConfig {
    EvalConfig { halo: fig2_halo(), extras: extras.to_vec(), ..Default::default() }
}

/// Fig. 2 at test scale: see [`fig2_main`]; `main` returns after the
/// sweeps.
pub fn fig2(rounds: i64, sweeps: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let mut m = fig2_main(&mut pb, rounds, sweeps);
    m.ret(None);
    let main = m.finish();
    pb.finish(main)
}

/// Fig. 2 with 128 rounds and 20 sweeps (so the pipeline instruments
/// `main`), then `depth` nested calls, a `spin`-iteration busy loop, and
/// finally `1 / entry_arg`: a program that traps where its caller's
/// limits or its entry argument say.
pub fn fig2_trap(depth: i64, spin: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let dive = pb.declare("dive");
    {
        // dive(n): n nested frames.
        let mut fb = pb.define(dive);
        let bottom = fb.label();
        fb.imm(r(1), 0);
        fb.branch(Cond::Le, r(0), r(1), bottom);
        fb.add_imm(r(0), r(0), -1);
        fb.call(dive, &[r(0)], None);
        fb.bind(bottom);
        fb.ret(None);
        fb.finish();
    }
    let mut m = fig2_main(&mut pb, 128, 20);
    m.imm(r(16), depth);
    m.call(dive, &[r(16)], None);
    m.imm(r(18), spin);
    counted(&mut m, r(17), r(18), |_| {});
    m.imm(r(19), 1);
    m.div(r(19), r(19), r(0));
    m.ret(None);
    let main = m.finish();
    pb.finish(main)
}

/// Declare three 24-byte allocation wrappers in `pb` and emit `main` up
/// to its return: `rounds` rounds each allocate a hot A and B and a cold
/// C from three distinct call sites (so HALO and HDS both have material),
/// linking A and B into one list and writing C once; then `sweeps` walks
/// of the list read each node. `main` leaves `r0`, its entry argument,
/// untouched.
pub fn fig2_main(pb: &mut ProgramBuilder, rounds: i64, sweeps: i64) -> FunctionBuilder<'_> {
    let makers = wrappers(pb, ["mk_a", "mk_b", "mk_c"], 24);
    let mut m = pb.function("main");
    m.imm(r(9), 0); // list head
    m.imm(r(11), rounds);
    counted(&mut m, r(10), r(11), |m| {
        for (maker, dst) in makers[..2].iter().zip([r(1), r(2)]) {
            m.call(*maker, &[], Some(dst));
            m.store(r(9), dst, 0, Width::W8);
            m.mov(r(9), dst);
        }
        m.call(makers[2], &[], Some(r(3)));
        m.store(r(10), r(3), 8, Width::W8);
    });
    m.imm(r(14), sweeps);
    counted(&mut m, r(12), r(14), |m| {
        m.mov(r(6), r(9));
        let walk = m.label();
        let done = m.label();
        m.bind(walk);
        m.branch(Cond::Eq, r(6), r(13), done); // r13 is never written: null
        m.load(r(7), r(6), 8, Width::W8);
        m.load(r(6), r(6), 0, Width::W8);
        m.jump(walk);
        m.bind(done);
    });
    m
}

/// A program of `main` alone, as `body` emits it.
pub fn main_only(body: impl FnOnce(&mut FunctionBuilder)) -> Program {
    let mut pb = ProgramBuilder::new();
    let mut m = pb.function("main");
    body(&mut m);
    let main = m.finish();
    pb.finish(main)
}

/// Declare and define one `return malloc(bytes)` function per name.
pub fn wrappers<const N: usize>(
    pb: &mut ProgramBuilder,
    names: [&str; N],
    bytes: i64,
) -> [FuncId; N] {
    names.map(|name| {
        let f = pb.declare(name);
        let mut fb = pb.define(f);
        fb.imm(r(0), bytes);
        fb.malloc(r(0), r(1));
        fb.ret(Some(r(1)));
        fb.finish()
    })
}

/// Emit `for (counter = 0; counter < limit; counter++) body`.
pub fn counted(
    m: &mut FunctionBuilder,
    counter: Reg,
    limit: Reg,
    body: impl FnOnce(&mut FunctionBuilder),
) {
    m.imm(counter, 0);
    let top = m.label();
    let done = m.label();
    m.bind(top);
    m.branch(Cond::Ge, counter, limit, done);
    body(m);
    m.add_imm(counter, counter, 1);
    m.jump(top);
    m.bind(done);
}
