//! The HALO pipeline (Fig. 4) and the evaluation harness.
//!
//! [`Halo`] wires the stages together exactly as the paper's Fig. 4:
//!
//! ```text
//! executable ──(profiling)──► affinity graph + contexts
//!            ──(grouping)───► groups
//!            ──(identification + BOLT rewriting)──► optimised executable
//!            ──(allocator synthesis)──► specialised allocator
//! ```
//!
//! The [`measure`] runner executes any program under any allocator on the
//! simulated memory hierarchy and reports the paper's two metrics (L1D
//! misses and simulated time), and [`evaluate_with_arg`] runs the full §5
//! methodology for one workload: profile on the *train* seed, measure on
//! the *ref* seed, for the jemalloc-style baseline, HALO, hot data streams,
//! the random four-pool allocator (Fig. 15), and the ptmalloc-style
//! baseline (§5.1).
//!
//! # Example
//!
//! ```
//! use halo_core::{Halo, HaloConfig, measure, MeasureConfig};
//! use halo_vm::{Cond, ProgramBuilder, Reg, Width};
//!
//! // A program with two hot interleaved contexts (the Fig. 2 shape).
//! # fn fig2() -> halo_vm::Program {
//! #     let mut pb = ProgramBuilder::new();
//! #     let mk = pb.declare("mk");
//! #     let mut m = pb.function("main");
//! #     let r = Reg;
//! #     m.imm(r(9), 0).imm(r(10), 0).imm(r(11), 64);
//! #     let top = m.label(); let done = m.label();
//! #     m.bind(top);
//! #     m.branch(Cond::Ge, r(10), r(11), done);
//! #     m.call(mk, &[], Some(r(1)));
//! #     m.store(r(9), r(1), 0, Width::W8);
//! #     m.mov(r(9), r(1));
//! #     m.call(mk, &[], Some(r(2)));
//! #     m.store(r(9), r(2), 0, Width::W8);
//! #     m.mov(r(9), r(2));
//! #     m.add_imm(r(10), r(10), 1);
//! #     m.jump(top);
//! #     m.bind(done);
//! #     m.imm(r(12), 0);
//! #     let sweep = m.label(); let sdone = m.label();
//! #     m.bind(sweep);
//! #     m.branch(Cond::Ge, r(12), r(11), sdone);
//! #     m.mov(r(6), r(9));
//! #     let walk = m.label(); let wdone = m.label();
//! #     m.bind(walk);
//! #     m.branch(Cond::Eq, r(6), r(13), wdone);
//! #     m.load(r(6), r(6), 0, Width::W8);
//! #     m.jump(walk);
//! #     m.bind(wdone);
//! #     m.add_imm(r(12), r(12), 1);
//! #     m.jump(sweep);
//! #     m.bind(sdone);
//! #     m.ret(None);
//! #     let main = m.finish();
//! #     let mut f = pb.define(mk);
//! #     f.imm(r(0), 32);
//! #     f.malloc(r(0), r(1));
//! #     f.ret(Some(r(1)));
//! #     f.finish();
//! #     pb.finish(main)
//! # }
//! let program = fig2();
//! let halo = Halo::new(HaloConfig::default());
//! let optimised = halo.optimise_with_arg(&program, 1, 0)?;
//! let mut alloc = halo.make_allocator(&optimised);
//! let m = measure(&optimised.program, &mut alloc, &MeasureConfig::default())?;
//! assert!(m.stats.accesses() > 0);
//! # Ok::<(), halo_core::PipelineError>(())
//! ```

mod backend;
mod evaluate;
mod measure;
mod parallel;
mod pipeline;
mod serve;

pub use backend::{backend_spec, BackendMake, BackendSpec, BACKENDS};
pub use evaluate::{evaluate_with_arg, ConfigResult, EvalConfig, EvalResult};
pub use measure::{measure, measure_detailed, MeasureConfig, MeasureDetail, Measurement};
pub use parallel::{par_each_ordered, par_map, par_merge_subgraphs, thread_count};
pub use pipeline::{Halo, HaloConfig, Optimised, PipelineError};
pub use serve::{serve, EpochRow, ServeConfig, ServePhase, ServeReport};
