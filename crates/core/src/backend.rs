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
    BackendAllocator, BoundaryTagAllocator, HaloGroupAllocator, RandomGroupAllocator,
    SizeClassAllocator,
};

/// Everything a backend may draw on when constructing its allocator.
///
/// The pipeline artefacts are optional so light-weight harnesses (the
/// Fig. 15 and §5.1 allocator comparisons, which never run the pipeline)
/// can still construct registry backends; a spec panics without the
/// artefact its [`BackendSpec::needs`] names. `evaluate` fills in exactly
/// that artefact and leaves the other `None`.
pub struct BackendCtx<'a> {
    /// The evaluation configuration (allocator knobs, measurement seed).
    pub config: &'a EvalConfig,
    /// The configured pipeline (for allocator synthesis).
    pub halo: Option<&'a Halo>,
    /// The pipeline's artefacts (selector table, per-group plans).
    pub optimised: Option<&'a Optimised>,
    /// The hot-data-streams analysis (site map).
    pub hds: Option<&'a HdsResult>,
}

/// The evaluation artefact a backend's allocator is built from — its edge
/// in `evaluate`'s dependency graph (DESIGN.md §14). A backend that needs
/// nothing never waits on the pipeline or the hot-data-streams analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendNeeds {
    /// The configuration alone (the baselines, the random allocator).
    Nothing,
    /// The HALO pipeline's output: selector table and per-group plans,
    /// plus the rewritten binary for [`BackendSpec::rewritten`] backends.
    Optimised,
    /// The hot-data-streams analysis (its site map).
    Hds,
}

/// One evaluation backend: how to build its allocator and how the
/// evaluation should treat it.
pub struct BackendSpec {
    /// Stable identifier (`halo run --json` keys, harness lookups).
    pub id: &'static str,
    /// Human-readable name for tables.
    pub label: &'static str,
    /// Whether this backend measures the rewritten binary (`true`) or the
    /// unmodified one. `true` requires [`BackendNeeds::Optimised`], which
    /// is where the rewritten binary lives.
    pub rewritten: bool,
    /// `false`: measured on every evaluation. `true`: measured only when
    /// [`EvalConfig::extras`] names this backend's id.
    pub optional: bool,
    /// Which artefact in [`BackendCtx`] construction requires.
    pub needs: BackendNeeds,
    make: fn(&BackendCtx) -> Box<dyn BackendAllocator>,
}

impl BackendSpec {
    /// Construct this backend's allocator.
    ///
    /// # Panics
    ///
    /// Panics if the context lacks the artefact the spec
    /// [`needs`](Self::needs).
    pub fn make_allocator(&self, ctx: &BackendCtx) -> Box<dyn BackendAllocator> {
        (self.make)(ctx)
    }

    /// Whether this backend is measured under `config`.
    pub fn enabled(&self, config: &EvalConfig) -> bool {
        !self.optional || config.extras.contains(&self.id)
    }
}

fn make_baseline(_ctx: &BackendCtx) -> Box<dyn BackendAllocator> {
    Box::new(SizeClassAllocator::new())
}

fn make_halo(ctx: &BackendCtx) -> Box<dyn BackendAllocator> {
    let halo = ctx.halo.expect("halo backend needs the configured pipeline");
    let optimised = ctx.optimised.expect("halo backend needs the pipeline artefacts");
    Box::new(halo.make_allocator(optimised))
}

fn make_hds(ctx: &BackendCtx) -> Box<dyn BackendAllocator> {
    let hds = ctx.hds.expect("hds backend needs the hot-data-streams analysis");
    Box::new(HaloGroupAllocator::with_site_groups(ctx.config.halo.alloc, hds.site_map.clone()))
}

fn make_halo_sharded(ctx: &BackendCtx) -> Box<dyn BackendAllocator> {
    let halo = ctx.halo.expect("halo-sharded backend needs the configured pipeline");
    let optimised = ctx.optimised.expect("halo-sharded backend needs the pipeline artefacts");
    Box::new(halo.make_sharded_allocator(optimised, ctx.config.shards))
}

fn make_random(ctx: &BackendCtx) -> Box<dyn BackendAllocator> {
    Box::new(RandomGroupAllocator::new(ctx.config.measure.seed ^ 0x5eed))
}

fn make_ptmalloc(_ctx: &BackendCtx) -> Box<dyn BackendAllocator> {
    Box::new(BoundaryTagAllocator::new())
}

/// The §5 evaluation backends, in reporting order. `evaluate` measures
/// every enabled entry; everything downstream renders from the same table.
pub const BACKENDS: &[BackendSpec] = &[
    BackendSpec {
        id: "baseline",
        label: "jemalloc-style baseline",
        rewritten: false,
        optional: false,
        needs: BackendNeeds::Nothing,
        make: make_baseline,
    },
    BackendSpec {
        id: "halo",
        label: "HALO",
        rewritten: true,
        optional: false,
        needs: BackendNeeds::Optimised,
        make: make_halo,
    },
    BackendSpec {
        id: "hds",
        label: "hot data streams",
        rewritten: false,
        optional: false,
        needs: BackendNeeds::Hds,
        make: make_hds,
    },
    BackendSpec {
        id: "halo-sharded",
        label: "HALO (sharded)",
        rewritten: true,
        optional: true,
        needs: BackendNeeds::Optimised,
        make: make_halo_sharded,
    },
    BackendSpec {
        id: "random",
        label: "random four-pool",
        rewritten: false,
        optional: true,
        needs: BackendNeeds::Nothing,
        make: make_random,
    },
    BackendSpec {
        id: "ptmalloc",
        label: "ptmalloc2-style baseline",
        rewritten: false,
        optional: true,
        needs: BackendNeeds::Nothing,
        make: make_ptmalloc,
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
        let config = EvalConfig::default();
        let ctx = BackendCtx { config: &config, halo: None, optimised: None, hds: None };
        let free: Vec<_> = BACKENDS.iter().filter(|s| s.needs == BackendNeeds::Nothing).collect();
        for spec in &free {
            let _ = spec.make_allocator(&ctx);
        }
        let ids: Vec<&str> = free.iter().map(|s| s.id).collect();
        assert_eq!(ids, ["baseline", "random", "ptmalloc"]);
    }

    #[test]
    fn rewritten_backends_declare_the_artefact_that_holds_their_binary() {
        // `evaluate` takes a rewritten backend's program from the
        // `Optimised` it obtained for the spec's declared dependency.
        for spec in BACKENDS.iter().filter(|s| s.rewritten) {
            assert_eq!(spec.needs, BackendNeeds::Optimised, "backend {}", spec.id);
        }
    }
}
