//! The instruction set of the simulated binary format.

use crate::ids::{Cond, FuncId, Reg, Width};

/// A single instruction.
///
/// The set is deliberately small: enough arithmetic to index arrays and walk
/// pointer chains, loads/stores against simulated memory, direct and
/// indirect calls, the POSIX.1 allocation routines as dedicated
/// instructions (each such instruction is a *call site* to an externally
/// traceable routine, exactly as a `call malloc@plt` is in a real binary),
/// and the two instrumentation instructions that HALO's rewriting pass
/// inserts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `dst = imm`
    Imm(Reg, i64),
    /// `dst = src`
    Mov(Reg, Reg),
    /// `dst = a + b` (wrapping)
    Add(Reg, Reg, Reg),
    /// `dst = a + imm` (wrapping)
    AddImm(Reg, Reg, i64),
    /// `dst = a - b` (wrapping)
    Sub(Reg, Reg, Reg),
    /// `dst = a * b` (wrapping)
    Mul(Reg, Reg, Reg),
    /// `dst = a * imm` (wrapping)
    MulImm(Reg, Reg, i64),
    /// `dst = a / b` (signed; traps on division by zero)
    Div(Reg, Reg, Reg),
    /// `dst = a % b` (signed; traps on division by zero)
    Rem(Reg, Reg, Reg),
    /// `dst = a & b`
    And(Reg, Reg, Reg),
    /// `dst = a | b`
    Or(Reg, Reg, Reg),
    /// `dst = a ^ b`
    Xor(Reg, Reg, Reg),
    /// `dst = *(base + offset)` — a data memory access.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Constant byte offset added to the base.
        offset: i64,
        /// Access width.
        width: Width,
    },
    /// `*(base + offset) = src` — a data memory access.
    Store {
        /// Source register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Constant byte offset added to the base.
        offset: i64,
        /// Access width.
        width: Width,
    },
    /// Direct call. Arguments are copied into the callee's `r0..rN`.
    Call {
        /// Callee.
        func: FuncId,
        /// Argument registers, copied in order into the callee frame.
        args: Vec<Reg>,
        /// Register receiving the return value, if any.
        dst: Option<Reg>,
    },
    /// Indirect call through a register holding a function id.
    CallIndirect {
        /// Register holding the callee's [`FuncId`] as an integer.
        target: Reg,
        /// Argument registers.
        args: Vec<Reg>,
        /// Register receiving the return value, if any.
        dst: Option<Reg>,
    },
    /// `dst = malloc(size)` — call site to the traceable `malloc` routine.
    Malloc {
        /// Register holding the requested size in bytes.
        size: Reg,
        /// Register receiving the new pointer.
        dst: Reg,
    },
    /// `dst = calloc(count, size)` — zeroed allocation.
    Calloc {
        /// Register holding the element count.
        count: Reg,
        /// Register holding the element size.
        size: Reg,
        /// Register receiving the new pointer.
        dst: Reg,
    },
    /// `dst = realloc(ptr, size)`.
    Realloc {
        /// Register holding the old pointer (0 behaves like `malloc`).
        ptr: Reg,
        /// Register holding the new size.
        size: Reg,
        /// Register receiving the (possibly moved) pointer.
        dst: Reg,
    },
    /// `free(ptr)`; freeing 0 is a no-op.
    Free {
        /// Register holding the pointer to release.
        ptr: Reg,
    },
    /// Unconditional jump to an instruction index in the current function.
    Jump(u32),
    /// Conditional branch to an instruction index in the current function.
    Branch {
        /// Comparison to perform.
        cond: Cond,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
        /// Target instruction index if the comparison holds.
        target: u32,
    },
    /// `amount` instructions' worth of non-memory "work" (models the
    /// compute-bound portion of a benchmark for the timing model).
    Compute(u64),
    /// `dst = uniform integer in [0, bound)`; deterministic per run seed.
    Rand {
        /// Destination register.
        dst: Reg,
        /// Register holding the exclusive upper bound (must be > 0).
        bound: Reg,
    },
    /// Return from the current function, optionally with a value.
    Ret(Option<Reg>),
    /// The program's flow of control is now executing on logical thread
    /// `n` (0 is the main thread). The single-threaded interpreter uses
    /// this to model multi-threaded programs: a workload interleaves the
    /// per-thread slices of its malloc/free stream and marks each slice
    /// with the thread it belongs to, exactly the information a native
    /// allocator reads from TLS. Forwarded to the allocator (thread-keyed
    /// shard selection) and the monitor; no other architectural state
    /// changes.
    ThreadSwitch(u16),
    /// Set bit `n` of the shared group-state vector (inserted by the
    /// rewriter immediately before a monitored call site).
    GroupSet(u16),
    /// Clear bit `n` of the shared group-state vector (inserted by the
    /// rewriter immediately after a monitored call site).
    GroupClear(u16),
    /// No operation.
    Nop,
}

impl Op {
    /// Whether this instruction is a call site in the HALO sense: a direct
    /// call, an indirect call, or a call to one of the traceable
    /// memory-management routines.
    #[inline]
    pub fn is_call_site(&self) -> bool {
        matches!(
            self,
            Op::Call { .. }
                | Op::CallIndirect { .. }
                | Op::Malloc { .. }
                | Op::Calloc { .. }
                | Op::Realloc { .. }
                | Op::Free { .. }
        )
    }

    /// The intra-function branch target, if this is a control-flow
    /// instruction with one.
    #[inline]
    pub fn branch_target(&self) -> Option<u32> {
        match self {
            Op::Jump(t) => Some(*t),
            Op::Branch { target, .. } => Some(*target),
            _ => None,
        }
    }

    /// Rewrite the intra-function branch target through `f`, if present.
    /// Used by the rewriter's fixup pass.
    pub fn map_branch_target(&mut self, f: impl FnOnce(u32) -> u32) {
        match self {
            Op::Jump(t) => *t = f(*t),
            Op::Branch { target, .. } => *target = f(*target),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Op {
        /// Whether this instruction is one of the allocation-routine call
        /// sites (`malloc`, `calloc`, `realloc`, `free`).
        fn is_alloc_routine(&self) -> bool {
            matches!(
                self,
                Op::Malloc { .. } | Op::Calloc { .. } | Op::Realloc { .. } | Op::Free { .. }
            )
        }
    }

    #[test]
    fn call_site_classification() {
        assert!(Op::Call { func: FuncId(0), args: vec![], dst: None }.is_call_site());
        assert!(Op::Malloc { size: Reg(0), dst: Reg(1) }.is_call_site());
        assert!(Op::Free { ptr: Reg(0) }.is_call_site());
        assert!(!Op::Nop.is_call_site());
        assert!(!Op::Jump(3).is_call_site());
        assert!(Op::Malloc { size: Reg(0), dst: Reg(1) }.is_alloc_routine());
        assert!(!Op::Call { func: FuncId(0), args: vec![], dst: None }.is_alloc_routine());
    }

    #[test]
    fn branch_target_mapping() {
        let mut j = Op::Jump(5);
        j.map_branch_target(|t| t + 2);
        assert_eq!(j.branch_target(), Some(7));

        let mut b = Op::Branch { cond: Cond::Eq, a: Reg(0), b: Reg(1), target: 9 };
        b.map_branch_target(|t| t + 1);
        assert_eq!(b.branch_target(), Some(10));

        let mut n = Op::Nop;
        n.map_branch_target(|_| unreachable!());
        assert_eq!(n.branch_target(), None);
    }
}
