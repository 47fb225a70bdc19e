//! The profiling stage of HALO (§4.1) — the role Intel Pin plays in the
//! paper.
//!
//! A [`Profiler`] is a [`halo_vm::Monitor`]: run the target program once
//! under it and call [`Profiler::finish`] to obtain a [`Profile`] holding
//! the affinity graph over *reduced allocation contexts* plus everything the
//! later stages need (context chains for identification, allocation counts,
//! access counts).
//!
//! Faithfully implemented details:
//!
//! * **shadow stack** — frames are recorded only for functions statically
//!   linked into the main binary; call sites inside library code are traced
//!   back to their nearest point of origin in the main executable;
//! * **reduced contexts** — recursion is canonicalised by keeping only the
//!   most recent of any `(function, call-site)` pair;
//! * **affinity queue** — sized implicitly by the affinity distance `A`;
//!   a new access is affinitive with the previous accesses reachable within
//!   `A` bytes, subject to *deduplication*, *no self-affinity*, *no double
//!   counting*, and *co-allocatability*;
//! * **node filtering** — after the run, contexts beyond 90% cumulative
//!   access coverage are discarded.
//!
//! The per-access hot path (ring-buffer affinity queue with epoch-stamped
//! dedup, page-indexed object lookup with a last-hit cache) performs no
//! heap allocation in steady state; DESIGN.md §7 documents the design and
//! `tests/no_alloc_steady_state.rs` enforces it.
//!
//! The [`TraceCollector`] monitor gathers the object-granularity reference
//! trace consumed by the hot-data-streams comparison technique (`halo-hds`).
//!
//! # Example
//!
//! ```
//! use halo_profile::{ProfileConfig, Profiler};
//! use halo_vm::{Engine, MallocOnlyAllocator, ProgramBuilder, Reg, Width};
//!
//! // A loop allocating two objects and touching them together.
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("main");
//! let (size, a, b, tmp) = (Reg(0), Reg(1), Reg(2), Reg(3));
//! f.imm(size, 16);
//! f.malloc(size, a);
//! f.malloc(size, b);
//! let top = f.label();
//! f.bind(top);
//! f.load(tmp, a, 0, Width::W8);
//! f.load(tmp, b, 0, Width::W8);
//! f.jump(top);
//! let main = f.finish();
//! let program = pb.finish(main);
//!
//! let mut profiler = Profiler::new(&program, ProfileConfig::default());
//! let mut alloc = MallocOnlyAllocator::new();
//! let limits = halo_vm::EngineLimits { max_instructions: 10_000, max_call_depth: 64 };
//! // The loop is infinite; fuel exhaustion ends the profiling run.
//! let _ = Engine::new(&program).with_limits(limits).run(&mut alloc, &mut profiler);
//! let profile = profiler.finish();
//! assert_eq!(profile.contexts.len(), 2); // two allocation contexts
//! assert!(profile.graph.edge_count() >= 1); // and they are affinitive
//! ```

mod objects;
mod profiler;
mod queue;
mod shadow;
mod stream;
mod trace;

pub use objects::{ObjectInfo, ObjectTracker};
pub use profiler::{
    ContextInfo, Profile, ProfileConfig, Profiler, MAX_TRACKED_SIZE, PAGE_GRANULARITY_SHIFT,
};
pub use queue::{AffinityQueue, QueueEntry};
pub use shadow::{RawContext, ShadowStack};
pub use stream::ProfileStream;
pub use trace::{HeapTrace, TraceCollector, TraceObject, TRACE_SYMBOL_LIMIT};
