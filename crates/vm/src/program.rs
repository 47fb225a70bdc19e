//! Programs and functions: the simulated binary image.

use crate::ids::{CallSite, FuncId};
use crate::op::Op;

/// Number of virtual registers per stack frame.
pub const NUM_REGS: usize = 32;

/// A function in the simulated binary.
#[derive(Debug, Clone)]
pub struct Function {
    /// Human-readable name (used in reports and the Fig. 9 group listing).
    pub name: String,
    /// Whether this function lives in a *library*, i.e. is **not**
    /// statically linked into the main binary. The profiler's shadow stack
    /// skips library frames and traces call sites inside them back to their
    /// nearest point of origin in the main executable (§4.1).
    pub external: bool,
    /// Number of arguments expected in `r0..argc`.
    pub argc: u8,
    /// Instruction stream.
    pub code: Vec<Op>,
}

impl Function {
    /// All call sites (direct, indirect, and allocation-routine) in this
    /// function, as `(pc, op)` pairs.
    pub fn call_sites(&self) -> impl Iterator<Item = (u32, &Op)> {
        self.code
            .iter()
            .enumerate()
            .filter(|(_, op)| op.is_call_site())
            .map(|(pc, op)| (pc as u32, op))
    }
}

/// A complete simulated binary: a table of functions plus an entry point.
#[derive(Debug, Clone)]
pub struct Program {
    /// Function table; a [`FuncId`] indexes into it.
    pub functions: Vec<Function>,
    /// Entry function, invoked with no arguments.
    pub entry: FuncId,
}

/// A structural validation problem found by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The entry function id is out of range.
    BadEntry(FuncId),
    /// A direct call names a function id out of range.
    BadCallTarget {
        /// Where the offending call lives.
        site: CallSite,
        /// The out-of-range callee.
        target: FuncId,
    },
    /// A jump or branch targets an instruction index outside its function.
    BadBranchTarget {
        /// Function containing the branch.
        func: FuncId,
        /// Instruction index of the branch.
        pc: u32,
        /// The out-of-range target.
        target: u32,
    },
    /// A function's last instruction can fall off the end (it is not a
    /// `Ret`, `Jump`, or trap).
    MissingReturn(FuncId),
    /// An instruction names a register outside `r0..r31`.
    BadRegister {
        /// Function containing the instruction.
        func: FuncId,
        /// Instruction index.
        pc: u32,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::BadEntry(id) => write!(f, "entry function {id} out of range"),
            ValidationError::BadCallTarget { site, target } => {
                write!(f, "call at {site} targets out-of-range function {target}")
            }
            ValidationError::BadBranchTarget { func, pc, target } => {
                write!(f, "branch at {func}+{pc} targets out-of-range index {target}")
            }
            ValidationError::MissingReturn(id) => {
                write!(f, "function {id} can fall off the end of its code")
            }
            ValidationError::BadRegister { func, pc } => {
                write!(f, "instruction at {func}+{pc} names an out-of-range register")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

impl Program {
    /// Look up a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range; validated programs never do this.
    #[inline]
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Total instruction count across all functions (a proxy for binary
    /// size; used to report rewriting growth).
    pub fn code_size(&self) -> usize {
        self.functions.iter().map(|f| f.code.len()).sum()
    }

    /// Enumerate every call site in the program.
    pub fn call_sites(&self) -> Vec<CallSite> {
        let mut out = Vec::new();
        for (fi, func) in self.functions.iter().enumerate() {
            for (pc, _) in func.call_sites() {
                out.push(CallSite::new(FuncId(fi as u32), pc));
            }
        }
        out
    }

    /// Structurally validate the program: every call target and branch
    /// target must be in range, registers in `r0..r31`, and no function may
    /// fall off the end of its code.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidationError`] found.
    pub fn validate(&self) -> Result<(), ValidationError> {
        if self.entry.index() >= self.functions.len() {
            return Err(ValidationError::BadEntry(self.entry));
        }
        for (fi, func) in self.functions.iter().enumerate() {
            let fid = FuncId(fi as u32);
            let len = func.code.len() as u32;
            match func.code.last() {
                Some(Op::Ret(_)) | Some(Op::Jump(_)) => {}
                _ => return Err(ValidationError::MissingReturn(fid)),
            }
            for (pc, op) in func.code.iter().enumerate() {
                let pc = pc as u32;
                if let Some(target) = op.branch_target() {
                    if target >= len {
                        return Err(ValidationError::BadBranchTarget { func: fid, pc, target });
                    }
                }
                if let Op::Call { func: callee, .. } = op {
                    if callee.index() >= self.functions.len() {
                        return Err(ValidationError::BadCallTarget {
                            site: CallSite::new(fid, pc),
                            target: *callee,
                        });
                    }
                }
                if !regs_in_range(op) {
                    return Err(ValidationError::BadRegister { func: fid, pc });
                }
            }
        }
        Ok(())
    }
}

fn regs_in_range(op: &Op) -> bool {
    let ok = |r: &crate::ids::Reg| (r.0 as usize) < NUM_REGS;
    match op {
        Op::Imm(a, _) => ok(a),
        Op::Mov(a, b) => ok(a) && ok(b),
        Op::Add(a, b, c)
        | Op::Sub(a, b, c)
        | Op::Mul(a, b, c)
        | Op::Div(a, b, c)
        | Op::Rem(a, b, c)
        | Op::And(a, b, c)
        | Op::Or(a, b, c)
        | Op::Xor(a, b, c) => ok(a) && ok(b) && ok(c),
        Op::AddImm(a, b, _) | Op::MulImm(a, b, _) => ok(a) && ok(b),
        Op::Load { dst, base, .. } => ok(dst) && ok(base),
        Op::Store { src, base, .. } => ok(src) && ok(base),
        Op::Call { args, dst, .. } => {
            args.len() <= NUM_REGS && args.iter().all(ok) && dst.as_ref().is_none_or(ok)
        }
        Op::CallIndirect { target, args, dst } => {
            ok(target)
                && args.len() <= NUM_REGS
                && args.iter().all(ok)
                && dst.as_ref().is_none_or(ok)
        }
        Op::Malloc { size, dst } => ok(size) && ok(dst),
        Op::Calloc { count, size, dst } => ok(count) && ok(size) && ok(dst),
        Op::Realloc { ptr, size, dst } => ok(ptr) && ok(size) && ok(dst),
        Op::Free { ptr } => ok(ptr),
        Op::Rand { dst, bound } => ok(dst) && ok(bound),
        Op::Branch { a, b, .. } => ok(a) && ok(b),
        Op::Ret(r) => r.as_ref().is_none_or(ok),
        Op::Jump(_)
        | Op::Compute(_)
        | Op::ThreadSwitch(_)
        | Op::GroupSet(_)
        | Op::GroupClear(_)
        | Op::Nop => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Reg;

    impl Program {
        /// Find a function id by name. Names are not required to be
        /// unique; the first match wins.
        fn find_function(&self, name: &str) -> Option<FuncId> {
            self.functions.iter().position(|f| f.name == name).map(|i| FuncId(i as u32))
        }
    }

    fn function(name: &str, code: Vec<Op>) -> Function {
        Function { name: name.into(), external: false, argc: 0, code }
    }

    /// A program of one function, `f`, running `code`.
    fn program(code: Vec<Op>) -> Program {
        Program { functions: vec![function("f", code)], entry: FuncId(0) }
    }

    #[test]
    fn validate_accepts_minimal_program() {
        let p = program(vec![Op::Ret(None)]);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_entry() {
        let p = Program { entry: FuncId(7), ..program(vec![Op::Ret(None)]) };
        assert_eq!(p.validate(), Err(ValidationError::BadEntry(FuncId(7))));
    }

    #[test]
    fn validate_rejects_fallthrough() {
        let p = program(vec![Op::Nop]);
        assert_eq!(p.validate(), Err(ValidationError::MissingReturn(FuncId(0))));
    }

    #[test]
    fn validate_rejects_bad_branch_target() {
        let p = program(vec![Op::Jump(9), Op::Ret(None)]);
        assert_eq!(
            p.validate(),
            Err(ValidationError::BadBranchTarget { func: FuncId(0), pc: 0, target: 9 })
        );
    }

    #[test]
    fn validate_rejects_bad_call_target() {
        let p = program(vec![Op::Call { func: FuncId(4), args: vec![], dst: None }, Op::Ret(None)]);
        assert!(matches!(p.validate(), Err(ValidationError::BadCallTarget { .. })));
    }

    #[test]
    fn validate_rejects_bad_register() {
        let p = program(vec![Op::Imm(Reg(200), 1), Op::Ret(None)]);
        assert!(matches!(p.validate(), Err(ValidationError::BadRegister { .. })));
    }

    #[test]
    fn call_sites_enumeration() {
        let p = program(vec![
            Op::Malloc { size: Reg(0), dst: Reg(1) },
            Op::Nop,
            Op::Free { ptr: Reg(1) },
            Op::Ret(None),
        ]);
        let sites = p.call_sites();
        assert_eq!(sites, vec![CallSite::new(FuncId(0), 0), CallSite::new(FuncId(0), 2)]);
    }

    #[test]
    fn find_function_by_name() {
        let ret = || vec![Op::Ret(None)];
        let p = Program {
            functions: vec![function("a", ret()), function("b", ret())],
            entry: FuncId(0),
        };
        assert_eq!(p.find_function("b"), Some(FuncId(1)));
        assert_eq!(p.find_function("zzz"), None);
    }
}
