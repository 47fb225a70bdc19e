//! Simulated "binary" substrate for the HALO reproduction.
//!
//! The HALO paper ([Savage & Jones, CGO 2020]) operates on x86-64 ELF
//! binaries: it profiles them under Intel Pin, rewrites them with LLVM-BOLT,
//! and interposes on their allocation routines at runtime. None of those
//! substrates observe anything about a program beyond its *calls and
//! returns*, its *allocation-routine invocations*, and its *load/store
//! addresses*. This crate provides a compact bytecode program format and an
//! interpreter that exposes exactly those events, so that the rest of the
//! pipeline (profiler, grouper, identifier, rewriter, allocators, cache
//! simulator) can be built faithfully on top of it.
//!
//! The key pieces are:
//!
//! * [`Program`] / [`Function`] / [`Op`] — the binary format. Functions are
//!   sequences of register-machine instructions with direct and indirect
//!   calls, loads and stores into a 64-bit byte-addressed address space, and
//!   dedicated allocation instructions ([`Op::Malloc`] and friends) standing
//!   in for calls to the POSIX.1 memory-management routines.
//! * [`ProgramBuilder`] / [`FunctionBuilder`] — an assembler with labels,
//!   used by `halo-workloads` to express benchmark programs.
//! * [`Memory`] — a demand-paged simulated memory holding real bytes, so
//!   programs can build genuine pointer-linked data structures.
//! * [`Engine`] — the interpreter. It is generic over a [`VmAllocator`]
//!   (which decides where heap objects live) and a [`Monitor`] (which
//!   observes the event stream; the profiler and the cache simulator are
//!   monitors).
//! * [`GroupState`] — the shared group-state bit vector that HALO's rewritten
//!   binaries maintain via [`Op::GroupSet`] / [`Op::GroupClear`] and that the
//!   specialised allocator inspects on every request.
//!
//! # Example
//!
//! ```
//! use halo_vm::{Engine, MallocOnlyAllocator, NullMonitor, ProgramBuilder, Reg};
//!
//! # fn main() -> Result<(), halo_vm::VmError> {
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("main");
//! let r0 = Reg(0);
//! let r1 = Reg(1);
//! f.imm(r0, 16);
//! f.malloc(r0, r1); // r1 = malloc(16)
//! f.imm(r0, 42);
//! f.store(r0, r1, 0, halo_vm::Width::W8); // *r1 = 42
//! f.load(r0, r1, 0, halo_vm::Width::W8); // r0 = *r1
//! f.ret(Some(r0));
//! let main = f.finish();
//! let program = pb.finish(main);
//!
//! let mut alloc = MallocOnlyAllocator::new();
//! let mut monitor = NullMonitor;
//! let exit = Engine::new(&program).run(&mut alloc, &mut monitor)?;
//! assert_eq!(exit.return_value, Some(42));
//! # Ok(())
//! # }
//! ```
//!
//! [Savage & Jones, CGO 2020]: https://doi.org/10.1145/3368826.3377914

mod builder;
mod engine;
mod group_state;
mod hash;
mod ids;
mod memory;
mod op;
mod program;
mod rng;

pub use builder::{FunctionBuilder, Label, ProgramBuilder};
pub use engine::{
    realloc_by_move, AccessBatch, AllocKind, Engine, EngineLimits, ExitStats, MallocOnlyAllocator,
    Monitor, NullMonitor, SyncVmAllocator, VmAllocator, VmError,
};
pub use group_state::GroupState;
pub use hash::{mix64, FastIntHasher, FastIntState};
pub use ids::{CallSite, Cond, FuncId, Reg, Width};
pub use memory::{Memory, PAGE_SIZE};
pub use op::Op;
pub use program::{Function, Program};
pub use rng::SplitMix64;
