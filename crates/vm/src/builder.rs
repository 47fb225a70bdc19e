//! An assembler for building simulated binaries with labels and forward
//! references.

use crate::ids::{CallSite, Cond, FuncId, Reg, Width};
use crate::op::Op;
use crate::program::{Function, Program};

/// A forward-referenceable branch target inside a single function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(u32);

/// Builds a [`Program`] out of [`FunctionBuilder`]s.
///
/// Functions may be declared ahead of definition so that mutually recursive
/// call graphs can be assembled:
///
/// ```
/// use halo_vm::{ProgramBuilder, Reg};
///
/// let mut pb = ProgramBuilder::new();
/// let helper = pb.declare("helper");
/// let mut main = pb.function("main");
/// main.call(helper, &[], None);
/// main.ret(None);
/// let main = main.finish();
/// let mut h = pb.define(helper);
/// h.ret(None);
/// h.finish();
/// let program = pb.finish(main);
/// assert_eq!(program.functions.len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    functions: Vec<Option<Function>>,
    names: Vec<String>,
}

impl ProgramBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a function without defining it yet.
    pub fn declare(&mut self, name: &str) -> FuncId {
        let id = FuncId(self.functions.len() as u32);
        self.functions.push(None);
        self.names.push(name.to_string());
        id
    }

    /// Declare and immediately begin defining a function.
    pub fn function(&mut self, name: &str) -> FunctionBuilder<'_> {
        let id = self.declare(name);
        self.define(id)
    }

    /// Begin defining a previously declared function.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not declared or is already defined.
    pub fn define(&mut self, id: FuncId) -> FunctionBuilder<'_> {
        assert!(id.index() < self.functions.len(), "function {id} was never declared");
        assert!(self.functions[id.index()].is_none(), "function {id} is already defined");
        FunctionBuilder {
            parent: self,
            id,
            external: false,
            argc: 0,
            code: Vec::new(),
            labels: Vec::new(),
            patches: Vec::new(),
        }
    }

    /// Number of functions declared so far.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Whether no functions have been declared.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// Seal the program with `entry` as the entry point.
    ///
    /// # Panics
    ///
    /// Panics if any declared function was never defined, or if the
    /// assembled program fails [`Program::validate`] — both are programming
    /// errors in the workload, not runtime conditions.
    pub fn finish(self, entry: FuncId) -> Program {
        let functions: Vec<Function> = self
            .functions
            .into_iter()
            .enumerate()
            .map(|(i, f)| {
                f.unwrap_or_else(|| {
                    panic!("function '{}' declared but never defined", self.names[i])
                })
            })
            .collect();
        let program = Program { functions, entry };
        if let Err(e) = program.validate() {
            panic!("assembled program is invalid: {e}");
        }
        program
    }
}

/// Builds one [`Function`]; created by [`ProgramBuilder::function`] or
/// [`ProgramBuilder::define`].
#[derive(Debug)]
pub struct FunctionBuilder<'a> {
    parent: &'a mut ProgramBuilder,
    id: FuncId,
    external: bool,
    argc: u8,
    code: Vec<Op>,
    labels: Vec<Option<u32>>,
    patches: Vec<(usize, Label)>,
}

impl FunctionBuilder<'_> {
    /// The id this function will occupy.
    pub fn id(&self) -> FuncId {
        self.id
    }

    /// Current instruction index (where the next emitted op will land).
    pub fn pc(&self) -> u32 {
        self.code.len() as u32
    }

    /// Mark the function as a library function (not statically linked into
    /// the main binary); the profiler's shadow stack skips such frames.
    pub fn external(&mut self) -> &mut Self {
        self.external = true;
        self
    }

    /// Set the declared argument count (`r0..argc` receive arguments).
    pub fn argc(&mut self, n: u8) -> &mut Self {
        self.argc = n;
        self
    }

    /// Create an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() as u32 - 1)
    }

    /// Bind `label` to the next emitted instruction.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0 as usize];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.code.len() as u32);
    }

    fn emit(&mut self, op: Op) -> u32 {
        let pc = self.code.len() as u32;
        self.code.push(op);
        pc
    }

    /// `dst = imm`
    pub fn imm(&mut self, dst: Reg, v: i64) -> &mut Self {
        self.emit(Op::Imm(dst, v));
        self
    }

    /// `dst = src`
    pub fn mov(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.emit(Op::Mov(dst, src));
        self
    }

    /// `dst = a + b`
    pub fn add(&mut self, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.emit(Op::Add(dst, a, b));
        self
    }

    /// `dst = a + imm`
    pub fn add_imm(&mut self, dst: Reg, a: Reg, v: i64) -> &mut Self {
        self.emit(Op::AddImm(dst, a, v));
        self
    }

    /// `dst = a - b`
    pub fn sub(&mut self, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.emit(Op::Sub(dst, a, b));
        self
    }

    /// `dst = a * b`
    pub fn mul(&mut self, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.emit(Op::Mul(dst, a, b));
        self
    }

    /// `dst = a * imm`
    pub fn mul_imm(&mut self, dst: Reg, a: Reg, v: i64) -> &mut Self {
        self.emit(Op::MulImm(dst, a, v));
        self
    }

    /// `dst = a / b`
    pub fn div(&mut self, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.emit(Op::Div(dst, a, b));
        self
    }

    /// `dst = a % b`
    pub fn rem(&mut self, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.emit(Op::Rem(dst, a, b));
        self
    }

    /// `dst = a & b`
    pub fn and(&mut self, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.emit(Op::And(dst, a, b));
        self
    }

    /// `dst = a | b`
    pub fn or(&mut self, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.emit(Op::Or(dst, a, b));
        self
    }

    /// `dst = a ^ b`
    pub fn xor(&mut self, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.emit(Op::Xor(dst, a, b));
        self
    }

    /// `dst = *(base + offset)`
    pub fn load(&mut self, dst: Reg, base: Reg, offset: i64, width: Width) -> &mut Self {
        self.emit(Op::Load { dst, base, offset, width });
        self
    }

    /// `*(base + offset) = src`
    pub fn store(&mut self, src: Reg, base: Reg, offset: i64, width: Width) -> &mut Self {
        self.emit(Op::Store { src, base, offset, width });
        self
    }

    /// Direct call; returns the call site for use in tests and assertions.
    pub fn call(&mut self, func: FuncId, args: &[Reg], dst: Option<Reg>) -> CallSite {
        let pc = self.emit(Op::Call { func, args: args.to_vec(), dst });
        CallSite::new(self.id, pc)
    }

    /// Indirect call through `target`; returns the call site.
    pub fn call_indirect(&mut self, target: Reg, args: &[Reg], dst: Option<Reg>) -> CallSite {
        let pc = self.emit(Op::CallIndirect { target, args: args.to_vec(), dst });
        CallSite::new(self.id, pc)
    }

    /// `dst = malloc(size)`; returns the allocation call site.
    pub fn malloc(&mut self, size: Reg, dst: Reg) -> CallSite {
        let pc = self.emit(Op::Malloc { size, dst });
        CallSite::new(self.id, pc)
    }

    /// `dst = calloc(count, size)`; returns the allocation call site.
    pub fn calloc(&mut self, count: Reg, size: Reg, dst: Reg) -> CallSite {
        let pc = self.emit(Op::Calloc { count, size, dst });
        CallSite::new(self.id, pc)
    }

    /// `dst = realloc(ptr, size)`; returns the allocation call site.
    pub fn realloc(&mut self, ptr: Reg, size: Reg, dst: Reg) -> CallSite {
        let pc = self.emit(Op::Realloc { ptr, size, dst });
        CallSite::new(self.id, pc)
    }

    /// `free(ptr)`; returns the call site.
    pub fn free(&mut self, ptr: Reg) -> CallSite {
        let pc = self.emit(Op::Free { ptr });
        CallSite::new(self.id, pc)
    }

    /// Unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) -> &mut Self {
        let pc = self.emit(Op::Jump(u32::MAX));
        self.patches.push((pc as usize, label));
        self
    }

    /// Branch to `label` when `cond(a, b)` holds.
    pub fn branch(&mut self, cond: Cond, a: Reg, b: Reg, label: Label) -> &mut Self {
        let pc = self.emit(Op::Branch { cond, a, b, target: u32::MAX });
        self.patches.push((pc as usize, label));
        self
    }

    /// `amount` instructions of non-memory work.
    pub fn compute(&mut self, amount: u64) -> &mut Self {
        self.emit(Op::Compute(amount));
        self
    }

    /// `dst = uniform in [0, bound)`.
    pub fn rand(&mut self, dst: Reg, bound: Reg) -> &mut Self {
        self.emit(Op::Rand { dst, bound });
        self
    }

    /// Return, optionally with a value.
    pub fn ret(&mut self, value: Option<Reg>) -> &mut Self {
        self.emit(Op::Ret(value));
        self
    }

    /// Mark the following instructions as executing on logical thread
    /// `thread` (how single-threaded workload models encode a
    /// multi-threaded malloc/free stream).
    pub fn thread_switch(&mut self, thread: u16) -> &mut Self {
        self.emit(Op::ThreadSwitch(thread));
        self
    }

    /// Emit a raw op (escape hatch for tests).
    pub fn raw(&mut self, op: Op) -> u32 {
        self.emit(op)
    }

    /// Seal the function, resolving labels, and install it.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label is unbound.
    pub fn finish(self) -> FuncId {
        let FunctionBuilder { parent, id, external, argc, mut code, labels, patches } = self;
        for (pc, label) in patches {
            let target = labels[label.0 as usize].unwrap_or_else(|| {
                panic!("unbound label in function '{}'", parent.names[id.index()])
            });
            code[pc].map_branch_target(|_| target);
        }
        parent.functions[id.index()] =
            Some(Function { name: parent.names[id.index()].clone(), external, argc, code });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("f");
        let top = f.label();
        let out = f.label();
        f.bind(top);
        f.branch(Cond::Eq, Reg(0), Reg(0), out); // forward
        f.jump(top); // backward
        f.bind(out);
        f.ret(None);
        let id = f.finish();
        let p = pb.finish(id);
        assert_eq!(p.functions[0].code[0].branch_target(), Some(2));
        assert_eq!(p.functions[0].code[1].branch_target(), Some(0));
    }

    #[test]
    #[should_panic(expected = "declared but never defined")]
    fn undefined_declaration_panics() {
        let mut pb = ProgramBuilder::new();
        let ghost = pb.declare("ghost");
        let mut f = pb.function("main");
        f.ret(None);
        let main = f.finish();
        let _ = ghost;
        pb.finish(main);
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("f");
        let l = f.label();
        f.jump(l);
        f.ret(None);
        f.finish();
    }

    #[test]
    #[should_panic(expected = "label bound twice")]
    fn double_bind_panics() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("f");
        let l = f.label();
        f.bind(l);
        f.bind(l);
    }

    #[test]
    fn call_sites_reported_with_correct_pcs() {
        let mut pb = ProgramBuilder::new();
        let callee = pb.declare("callee");
        let mut f = pb.function("main");
        f.imm(Reg(0), 8);
        let m = f.malloc(Reg(0), Reg(1));
        let c = f.call(callee, &[Reg(1)], None);
        f.ret(None);
        let main = f.finish();
        let mut cb = pb.define(callee);
        cb.argc(1).ret(None);
        cb.finish();
        let p = pb.finish(main);
        assert_eq!(m.pc, 1);
        assert_eq!(c.pc, 2);
        assert_eq!(p.call_sites(), vec![m, c]);
    }

    #[test]
    fn external_flag_and_argc_recorded() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("libfn");
        f.external().argc(2).ret(None);
        let id = f.finish();
        let p = pb.finish(id);
        assert!(p.functions[0].external);
        assert_eq!(p.functions[0].argc, 2);
    }
}
