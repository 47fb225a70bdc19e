//! Bytecode models of the 11 programs HALO is evaluated on (§5.1).
//!
//! Each module builds one benchmark as a simulated binary encoding the
//! allocation/access regularity that §5.2 identifies as the cause of that
//! benchmark's behaviour — wrapper functions (povray), deep indirect call
//! chains (xalanc), a single `operator new` (leela), direct mallocs from
//! distinct sites (the six pre-2017 programs), per-timestep fresh objects
//! that scatter object-granularity traces (roms), and so on. DESIGN.md §4
//! tabulates the encodings.
//!
//! A [`Workload`] bundles the program with its *train* (profiling) and
//! *ref* (measurement) input specifications, mirroring the paper's
//! methodology of profiling on small inputs and measuring on larger ones.
//!
//! ```
//! use halo_workloads::{all, by_name, health};
//!
//! let w = health::build();
//! assert_eq!(w.name, "health");
//! assert_eq!(all().len(), 11);
//! assert_eq!(by_name("xalanc-mt").map(|w| w.name), Some("xalanc-mt"));
//! ```

pub mod ammp;
pub mod analyzer;
pub mod art;
pub mod equake;
pub mod ft;
pub mod health;
pub mod leela;
pub mod omnetpp;
pub mod povray;
pub mod roms;
pub mod server;
pub mod toy;
pub(crate) mod util;
pub mod xalanc;
pub mod xalanc_mt;

use halo_vm::Program;

/// One run's input: a random seed plus a scale argument passed to the
/// entry function in `r0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// Seed for the program's internal randomness.
    pub seed: u64,
    /// Input-scale argument.
    pub arg: i64,
}

/// A benchmark model: one binary, two input scales.
#[derive(Debug)]
pub struct Workload {
    /// Benchmark name as in the paper's figures.
    pub name: &'static str,
    /// The simulated binary (shared by train and ref runs — the pipeline
    /// rewrites this one binary, so call sites line up).
    pub program: Program,
    /// Profiling input (the paper's *test/train*).
    pub train: RunSpec,
    /// Measurement input (the paper's *ref*).
    pub reference: RunSpec,
    /// What regularity this model encodes (for reports).
    pub note: &'static str,
}

/// All 11 evaluated benchmarks, in the figures' order.
pub fn all() -> Vec<Workload> {
    vec![
        health::build(),
        ft::build(),
        analyzer::build(),
        ammp::build(),
        art::build(),
        equake::build(),
        povray::build(),
        omnetpp::build(),
        xalanc::build(),
        leela::build(),
        roms::build(),
    ]
}

/// The multi-threaded workload models (not part of the paper's 11): each
/// encodes a threaded malloc/free stream via [`halo_vm::Op::ThreadSwitch`]
/// so thread-keyed allocators (`--shards`) have something to shard.
pub fn multithreaded() -> Vec<Workload> {
    vec![server::build(), xalanc_mt::build()]
}

/// The workload called `name` — one of the paper set, `toy`, or the
/// multi-threaded models — or `None`.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().chain([toy::build()]).chain(multithreaded()).find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_vm::{Engine, EngineLimits, MallocOnlyAllocator, NullMonitor};

    #[test]
    fn every_workload_builds_and_runs_at_train_scale() {
        for w in all() {
            let mut alloc = MallocOnlyAllocator::new();
            let stats = Engine::new(&w.program)
                .with_seed(w.train.seed)
                .with_entry_arg(w.train.arg)
                .with_limits(EngineLimits { max_instructions: 200_000_000, max_call_depth: 256 })
                .run(&mut alloc, &mut NullMonitor)
                .unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
            assert!(stats.allocs > 0, "{} makes no allocations", w.name);
            assert!(stats.loads + stats.stores > 0, "{} makes no accesses", w.name);
        }
    }

    #[test]
    fn by_name_finds_every_model_and_nothing_else() {
        let paper = all().into_iter().map(|w| w.name);
        for name in paper.chain(["toy", "server", "xalanc-mt"]) {
            assert_eq!(by_name(name).map(|w| w.name), Some(name));
        }
        assert!(by_name("all").is_none());
    }

    #[test]
    fn ref_scale_exceeds_train_scale() {
        for w in all() {
            assert!(w.reference.arg > w.train.arg, "{}", w.name);
        }
    }

    #[test]
    fn names_match_the_paper() {
        let names: Vec<&str> = all().iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec![
                "health", "ft", "analyzer", "ammp", "art", "equake", "povray", "omnetpp", "xalanc",
                "leela", "roms"
            ]
        );
    }

    #[test]
    fn workloads_are_heap_intensive() {
        // §5.1's selection criterion: more than one heap allocation per
        // million instructions.
        for w in all() {
            let mut alloc = MallocOnlyAllocator::new();
            let stats = Engine::new(&w.program)
                .with_seed(w.train.seed)
                .with_entry_arg(w.train.arg)
                .with_limits(EngineLimits { max_instructions: 200_000_000, max_call_depth: 256 })
                .run(&mut alloc, &mut NullMonitor)
                .expect("runs");
            let apmi = stats.allocs as f64 * 1e6 / stats.instructions as f64;
            assert!(apmi > 1.0, "{}: {apmi:.2} allocs/M-instr", w.name);
        }
    }
}
