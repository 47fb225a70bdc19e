//! Small identifier and operand types shared across the VM.

use std::fmt;

/// Index of a function within a [`crate::Program`].
///
/// Function ids double as "function addresses" for indirect calls: a
/// register holding the integer value of a `FuncId` can be the target of
/// [`crate::Op::CallIndirect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl FuncId {
    /// The id as a plain index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// A virtual register operand. Each stack frame owns [`crate::program::NUM_REGS`]
/// registers; `Reg(n)` names the `n`-th.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

/// A static call site: the location of a call (or allocation-routine call)
/// instruction in the *original* program.
///
/// Call sites are the currency of the whole HALO pipeline: profiled
/// allocation contexts are chains of call sites, groups are identified by
/// selectors over call sites, and the rewriter instruments call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CallSite {
    /// Function containing the call instruction.
    pub func: FuncId,
    /// Instruction index of the call within that function.
    pub pc: u32,
}

impl CallSite {
    /// Construct a call site from raw parts.
    #[inline]
    pub fn new(func: FuncId, pc: u32) -> Self {
        CallSite { func, pc }
    }
}

impl fmt::Display for CallSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}", self.func, self.pc)
    }
}

/// Access width of a load or store, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 1 byte.
    W1,
    /// 2 bytes.
    W2,
    /// 4 bytes.
    W4,
    /// 8 bytes.
    W8,
}

impl Width {
    /// Width in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            Width::W1 => 1,
            Width::W2 => 2,
            Width::W4 => 4,
            Width::W8 => 8,
        }
    }
}

/// Signed comparison condition for [`crate::Op::Branch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// `a < b` (signed)
    Lt,
    /// `a <= b` (signed)
    Le,
    /// `a > b` (signed)
    Gt,
    /// `a >= b` (signed)
    Ge,
}

impl Cond {
    /// Evaluate the condition on two signed operands.
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge => a >= b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_bytes() {
        assert_eq!(Width::W1.bytes(), 1);
        assert_eq!(Width::W2.bytes(), 2);
        assert_eq!(Width::W4.bytes(), 4);
        assert_eq!(Width::W8.bytes(), 8);
    }

    #[test]
    fn cond_eval_covers_all_orderings() {
        assert!(Cond::Eq.eval(3, 3));
        assert!(!Cond::Eq.eval(3, 4));
        assert!(Cond::Ne.eval(3, 4));
        assert!(Cond::Lt.eval(-1, 0));
        assert!(Cond::Le.eval(0, 0));
        assert!(Cond::Gt.eval(5, -5));
        assert!(Cond::Ge.eval(5, 5));
        assert!(!Cond::Ge.eval(4, 5));
    }

    #[test]
    fn call_site_display_and_ordering() {
        let a = CallSite::new(FuncId(1), 2);
        let b = CallSite::new(FuncId(1), 3);
        assert!(a < b);
        assert_eq!(a.to_string(), "fn#1+2");
    }
}
