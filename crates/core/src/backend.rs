//! The data-driven registry of evaluation backends.
//!
//! The §5 evaluation compares one workload under several allocator
//! configurations: the jemalloc-style baseline, HALO's synthesised
//! allocator on the rewritten binary, the hot-data-streams comparison
//! technique, the random four-pool allocator of Fig. 15, and the
//! ptmalloc2-style boundary-tag baseline of §5.1. Those used to be five
//! hand-written arms in `evaluate` plus mirrored special cases in the CLI
//! and every harness; [`BACKENDS`] replaces them with one table. Adding a
//! backend is one new [`BackendSpec`] entry — the evaluation loop, the
//! CLI's rendering, and the figure harnesses all enumerate the registry.

use crate::evaluate::EvalConfig;
use crate::pipeline::{Halo, Optimised};
use halo_hds::HdsResult;
use halo_mem::{
    BackendAllocator, BoundaryTagAllocator, FaultInjector, HaloGroupAllocator,
    RandomGroupAllocator, SizeClassAllocator,
};
use std::sync::Arc;

/// How a backend's allocator is built, by the evaluation artefact it is
/// built from — the backend's edge in `evaluate`'s dependency graph
/// (DESIGN.md §14). A [`Plain`](Self::Plain) backend never waits on the
/// pipeline or the hot-data-streams analysis, and light-weight harnesses
/// (Fig. 15, the §5.1 allocator comparison) construct it without either.
#[derive(Clone, Copy)]
pub enum BackendMake {
    /// From the configuration alone (the baselines, the random allocator).
    Plain(fn(&EvalConfig) -> Box<dyn BackendAllocator>),
    /// From the HALO pipeline's output: selector table and per-group
    /// table, measured on the rewritten binary, which lives in the same
    /// artefact.
    Optimised(fn(&EvalConfig, &Halo, &Optimised) -> Box<dyn BackendAllocator>),
    /// From the hot-data-streams analysis (its site map).
    Hds(fn(&EvalConfig, &HdsResult) -> Box<dyn BackendAllocator>),
}

/// One evaluation backend: how to build its allocator and how the
/// evaluation should treat it.
pub struct BackendSpec {
    /// Stable identifier (`halo run --json` keys, harness lookups).
    pub id: &'static str,
    /// Human-readable name for tables.
    pub label: &'static str,
    /// `false`: measured on every evaluation. `true`: measured only when
    /// [`EvalConfig::extras`] names this backend's id.
    pub optional: bool,
    /// The allocator's constructor and the artefact it takes.
    pub make: BackendMake,
}

impl BackendSpec {
    /// Whether this backend is measured under `config`.
    pub fn enabled(&self, config: &EvalConfig) -> bool {
        !self.optional || config.extras.contains(&self.id)
    }
}

/// Hand `attach` a fresh injector replaying [`EvalConfig::faults`], if a
/// schedule is set — for the backends with a degradation ladder: each
/// replays the schedule from occurrence zero. The baselines predate the
/// ladder, are not what the robustness claim is about, and run clean.
fn inject(config: &EvalConfig, attach: impl FnOnce(Arc<FaultInjector>)) {
    if let Some(plan) = &config.faults {
        attach(Arc::new(FaultInjector::new(plan.clone())));
    }
}

fn make_baseline(_config: &EvalConfig) -> Box<dyn BackendAllocator> {
    Box::new(SizeClassAllocator::new())
}

fn make_halo(config: &EvalConfig, halo: &Halo, optimised: &Optimised) -> Box<dyn BackendAllocator> {
    let mut alloc = halo.make_allocator(optimised);
    inject(config, |injector| alloc.set_fault_injector(injector));
    Box::new(alloc)
}

fn make_hds(config: &EvalConfig, hds: &HdsResult) -> Box<dyn BackendAllocator> {
    let mut alloc = HaloGroupAllocator::with_site_groups(config.halo.alloc, hds.site_map.clone());
    inject(config, |injector| alloc.set_fault_injector(injector));
    Box::new(alloc)
}

fn make_halo_sharded(
    config: &EvalConfig,
    halo: &Halo,
    optimised: &Optimised,
) -> Box<dyn BackendAllocator> {
    let mut alloc = halo.make_sharded_allocator(optimised, config.shards);
    inject(config, |injector| alloc.set_fault_injector(injector));
    Box::new(alloc)
}

fn make_random(config: &EvalConfig) -> Box<dyn BackendAllocator> {
    Box::new(RandomGroupAllocator::new(config.measure.seed ^ 0x5eed))
}

fn make_ptmalloc(_config: &EvalConfig) -> Box<dyn BackendAllocator> {
    Box::new(BoundaryTagAllocator::new())
}

/// The §5 evaluation backends, in reporting order. `evaluate` measures
/// every enabled entry; everything downstream renders from the same table.
pub const BACKENDS: &[BackendSpec] = &[
    BackendSpec {
        id: "baseline",
        label: "jemalloc-style baseline",
        optional: false,
        make: BackendMake::Plain(make_baseline),
    },
    BackendSpec {
        id: "halo",
        label: "HALO",
        optional: false,
        make: BackendMake::Optimised(make_halo),
    },
    BackendSpec {
        id: "hds",
        label: "hot data streams",
        optional: false,
        make: BackendMake::Hds(make_hds),
    },
    BackendSpec {
        id: "halo-sharded",
        label: "HALO (sharded)",
        optional: true,
        make: BackendMake::Optimised(make_halo_sharded),
    },
    BackendSpec {
        id: "random",
        label: "random four-pool",
        optional: true,
        make: BackendMake::Plain(make_random),
    },
    BackendSpec {
        id: "ptmalloc",
        label: "ptmalloc2-style baseline",
        optional: true,
        make: BackendMake::Plain(make_ptmalloc),
    },
];

/// Look a backend up by id.
pub fn backend_spec(id: &str) -> Option<&'static BackendSpec> {
    BACKENDS.iter().find(|s| s.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_resolvable() {
        for (i, spec) in BACKENDS.iter().enumerate() {
            assert!(backend_spec(spec.id).is_some());
            assert!(
                BACKENDS[..i].iter().all(|s| s.id != spec.id),
                "duplicate backend id {}",
                spec.id
            );
        }
        assert!(backend_spec("no-such-backend").is_none());
    }

    #[test]
    fn core_backends_are_always_enabled() {
        let config = EvalConfig::default();
        let enabled: Vec<&str> =
            BACKENDS.iter().filter(|s| s.enabled(&config)).map(|s| s.id).collect();
        assert_eq!(enabled, ["baseline", "halo", "hds"]);
        let with_extras = EvalConfig {
            extras: vec!["halo-sharded", "random", "ptmalloc"],
            ..EvalConfig::default()
        };
        assert!(BACKENDS.iter().all(|s| s.enabled(&with_extras)));
    }

    #[test]
    fn pipeline_free_backends_construct_without_artefacts() {
        // What `halo_bench::run_backend_pair` (Fig. 15, §5.1) builds on.
        let config = EvalConfig::default();
        let mut ids = Vec::new();
        for spec in BACKENDS {
            if let BackendMake::Plain(make) = spec.make {
                let _ = make(&config);
                ids.push(spec.id);
            }
        }
        assert_eq!(ids, ["baseline", "random", "ptmalloc"]);
    }
}
