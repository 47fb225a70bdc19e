//! The §5 evaluation methodology for a single workload: profile on the
//! *train* input, measure on the *ref* input, across all compared
//! configurations — each produced by the [`crate::backend`] registry
//! rather than a hand-written arm per configuration.

use crate::backend::{BackendMake, BackendSpec, BACKENDS};
use crate::measure::{measure_detailed, MeasureConfig, Measurement};
use crate::parallel::par_map;
use crate::pipeline::{Halo, HaloConfig, Optimised, PipelineError};
use halo_cache::ThreadAccessStats;
use halo_hds::{analyze, HdsConfig, HdsResult};
use halo_mem::{
    BackendAllocator, DegradeStats, FaultPlan, FragReport, GroupAllocStats, ShardedAllocStats,
};
use halo_profile::{HeapTrace, Profile, Profiler, TraceCollector};
use halo_vm::{Program, VmError};
use std::sync::{Mutex, OnceLock};

/// What to run and with which knobs.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// HALO pipeline configuration.
    pub halo: HaloConfig,
    /// Hot-data-streams configuration.
    pub hds: HdsConfig,
    /// Measurement-run configuration (the *ref* seed lives here).
    pub measure: MeasureConfig,
    /// Optional backends to measure in addition to the always-on ones —
    /// registry ids, e.g. `"random"` (Fig. 15), `"ptmalloc"` (§5.1), and
    /// `"halo-sharded"` (the thread-safe sharded runtime).
    pub extras: Vec<&'static str>,
    /// Shard count for the `halo-sharded` backend (`--shards` on the
    /// CLI). Ignored unless that backend is enabled.
    pub shards: usize,
    /// Deterministic fault schedule replayed against every HALO backend
    /// (`--inject` on the CLI). `None` — the default — attaches no
    /// injector, keeping every measurement byte-identical to a build
    /// without fault support. Each backend gets a fresh injector with
    /// fresh occurrence counters, so the schedule replays identically
    /// per backend.
    pub faults: Option<FaultPlan>,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            halo: HaloConfig::default(),
            hds: HdsConfig::default(),
            measure: MeasureConfig::default(),
            extras: Vec::new(),
            shards: 4,
            faults: None,
        }
    }
}

/// One configuration's measurement plus technique-specific extras.
#[derive(Debug, Clone)]
pub struct ConfigResult {
    /// The measured execution.
    pub measurement: Measurement,
    /// Fragmentation of grouped data (backends with grouped pools).
    pub frag: Option<FragReport>,
    /// Group-allocator event counters (backends with grouped pools).
    pub alloc_stats: Option<GroupAllocStats>,
    /// Remote-free queue pressure (the `halo-sharded` backend only).
    pub sharded: Option<ShardedAllocStats>,
    /// Degradation-ladder counters (HALO backends; all-zero outside
    /// fault-injection runs unless the run genuinely degraded).
    pub degrade: Option<DegradeStats>,
    /// Per-logical-thread cache counters, in thread-id order; a single
    /// entry for single-threaded programs.
    pub thread_stats: Vec<ThreadAccessStats>,
}

/// The full §5 result for one workload.
#[derive(Debug)]
pub struct EvalResult {
    /// Workload name.
    pub name: String,
    /// One entry per enabled backend, in registry order: `(backend id,
    /// result)`. The always-on ids are `baseline`, `halo`, and `hds`;
    /// whatever [`EvalConfig::extras`] enabled follows.
    pub backends: Vec<(&'static str, ConfigResult)>,
    /// The HALO pipeline artefacts (groups + per-group table, selectors,
    /// rewrite report).
    pub optimised: Optimised,
    /// The hot-data-streams analysis artefacts (stream counts etc.).
    pub hds_analysis: HdsResult,
}

impl EvalResult {
    /// The result of backend `id`, if it was measured.
    pub fn get(&self, id: &str) -> Option<&ConfigResult> {
        self.backends.iter().find(|(b, _)| *b == id).map(|(_, r)| r)
    }

    fn expect_backend(&self, id: &str) -> &ConfigResult {
        self.get(id).unwrap_or_else(|| panic!("always-on backend '{id}' was not measured"))
    }

    /// Unmodified binary under the jemalloc-style baseline.
    pub fn baseline(&self) -> &ConfigResult {
        self.expect_backend("baseline")
    }

    /// Rewritten binary under the synthesised allocator.
    pub fn halo(&self) -> &ConfigResult {
        self.expect_backend("halo")
    }

    /// Unmodified binary under the hot-data-streams allocator.
    pub fn hds(&self) -> &ConfigResult {
        self.expect_backend("hds")
    }

    /// Fig. 13 row: L1D miss reduction (fractions) for (HDS, HALO).
    pub fn miss_reduction_row(&self) -> (f64, f64) {
        let base = &self.baseline().measurement;
        (
            self.hds().measurement.miss_reduction_vs(base),
            self.halo().measurement.miss_reduction_vs(base),
        )
    }

    /// Fig. 14 row: speedup (fractions) for (HDS, HALO).
    pub fn speedup_row(&self) -> (f64, f64) {
        let base = &self.baseline().measurement;
        (self.hds().measurement.speedup_vs(base), self.halo().measurement.speedup_vs(base))
    }
}

/// Run the full methodology for one workload program.
///
/// `train_seed` and `train_arg` (the entry function's scale argument)
/// drive the profiling runs (the paper's *test/train* inputs); the
/// measurement seed and argument in `config.measure` drive the *ref*
/// runs. All runs are deterministic, standing in for the paper's
/// 11-trial medians (see DESIGN.md).
///
/// # Errors
///
/// Returns [`PipelineError`] if any execution traps.
pub fn evaluate_with_arg(
    program: &Program,
    name: &str,
    train_seed: u64,
    train_arg: i64,
    config: &EvalConfig,
) -> Result<EvalResult, PipelineError> {
    let halo = Halo::for_measurement(&config.halo, &config.measure);

    // One job list (DESIGN.md §14): the baseline measurement, which needs
    // no artefact, then the two artefact producers, then the other
    // enabled backends in registry order. Each job owns everything it
    // mutates (allocator, engine, simulated memory, cache model); the
    // artefacts are shared read-only through the cells below. A job takes
    // the artefact it needs with `get_or_init`: it finds it, waits for the
    // thread computing it, or computes it itself — never waits on a job
    // nobody runs — and each artefact is still computed exactly once.
    // Both producers start from one execution of the train input, each
    // taking its own half of it. `HALO_THREADS=1` walks the list front to
    // back.
    let train = OnceLock::<Result<TrainRun, VmError>>::new();
    let optimised = OnceLock::<Result<Optimised, PipelineError>>::new();
    let hds_analysis = OnceLock::<Result<HdsResult, VmError>>::new();
    let train_run = || {
        let run = || TrainRun::execute(&halo, program, train_seed, train_arg);
        train.get_or_init(run).as_ref().map_err(VmError::clone)
    };
    let optimise = || {
        let profile = take(&train_run()?.profile);
        halo.optimise_profiled(program, profile, train_seed, train_arg)
    };
    // The heap trace is by far the largest artefact of an evaluation, and
    // it dies here, once SEQUITUR has read it.
    let analyse = || Ok(analyze(&take(&train_run()?.trace), &config.hds));

    let mut measures = BACKENDS.iter().filter(|s| s.enabled(config)).map(Job::Measure);
    let jobs: Vec<Job> = measures
        .next() // the registry opens with the baseline
        .into_iter()
        .chain([Job::Optimise, Job::HdsAnalysis])
        .chain(measures)
        .collect();
    let measured = par_map(&jobs, |job| {
        let spec = match job {
            Job::Optimise => {
                optimised.get_or_init(optimise);
                return None;
            }
            Job::HdsAnalysis => {
                hds_analysis.get_or_init(analyse);
                return None;
            }
            Job::Measure(spec) => spec,
        };
        // `.ok()?`: a failed artefact leaves nothing to measure, and its
        // error outranks every backend's below.
        let (alloc, target) = match spec.make {
            BackendMake::Plain(make) => (make(config), program),
            BackendMake::Optimised(make) => {
                let optimised = optimised.get_or_init(optimise).as_ref().ok()?;
                (make(config, &halo, optimised), &optimised.program)
            }
            BackendMake::Hds(make) => {
                (make(config, hds_analysis.get_or_init(analyse).as_ref().ok()?), program)
            }
        };
        Some(measure_backend(spec.id, alloc, target, &config.measure))
    });

    // Assembled after the fan-in in (pipeline, analysis, registry) order —
    // the baseline is the registry's first entry as well as the list's —
    // so the first failing stage in that order decides the error, and
    // every table and JSON document downstream, whatever order the jobs
    // finished in.
    let optimised = optimised.into_inner().expect("the optimise job ran")?;
    let hds_analysis = hds_analysis.into_inner().expect("the analysis job ran")?;
    let backends = measured.into_iter().flatten().collect::<Result<Vec<_>, VmError>>()?;

    Ok(EvalResult { name: name.to_string(), backends, optimised, hds_analysis })
}

/// One entry of [`evaluate_with_arg`]'s job list.
enum Job {
    /// Produce the HALO pipeline artefacts on the train input.
    Optimise,
    /// Produce the hot-data-streams analysis on the train input.
    HdsAnalysis,
    /// Measure one enabled backend on the ref input.
    Measure(&'static BackendSpec),
}

/// The one execution of the train input, seen by both producers'
/// monitors: the profiler's half for the pipeline, the heap trace for the
/// hot-data-streams analysis. Each producer takes its half by move.
struct TrainRun {
    profile: Mutex<Option<Profile>>,
    trace: Mutex<Option<HeapTrace>>,
}

impl TrainRun {
    /// Execute `program`'s train input once, with a tee of the profiler
    /// and the heap-trace collector on it.
    fn execute(
        halo: &Halo,
        program: &Program,
        train_seed: u64,
        train_arg: i64,
    ) -> Result<TrainRun, VmError> {
        let mut tee = (Profiler::new(program, halo.config().profile), TraceCollector::new());
        halo.run_train(program, train_seed, train_arg, &mut tee)?;
        let (profiler, collector) = tee;
        Ok(TrainRun {
            profile: Mutex::new(Some(profiler.finish())),
            trace: Mutex::new(Some(collector.finish())),
        })
    }
}

/// Move a producer's half out of the train run. A producer runs once,
/// unless it panicked past this point; then the half is gone, and the
/// re-run panics saying so.
fn take<T>(half: &Mutex<Option<T>>) -> T {
    half.lock()
        .expect("a take cannot panic")
        .take()
        .expect("a producer that took its half of the train run panicked")
}

/// Measure backend `id`'s freshly built allocator on the ref input of
/// `target` (the rewritten binary for an `Optimised` backend).
fn measure_backend(
    id: &'static str,
    mut alloc: Box<dyn BackendAllocator>,
    target: &Program,
    config: &MeasureConfig,
) -> Result<(&'static str, ConfigResult), VmError> {
    let d = measure_detailed(target, &mut *alloc, config)?;
    // One report, lowered four ways: a sharded backend's grouped rows are
    // its sharded row's, not a second reading.
    let report = alloc.backend_report();
    Ok((
        id,
        ConfigResult {
            measurement: d.measurement,
            frag: report.map(|r| r.frag),
            alloc_stats: report.map(|r| r.stats.alloc),
            sharded: report.filter(|r| r.sharded).map(|r| r.stats),
            degrade: report.map(|r| r.stats.degrade),
            thread_stats: d.thread_stats,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HaloConfig;
    use halo_graph::{AffinityGraph, Granularity, NodeId};
    use halo_vm::{Cond, EngineLimits, Width};
    use halo_workloads::Workload;

    #[allow(dead_code)] // each test module uses its own part
    mod common {
        use crate::{EvalConfig, HaloConfig};
        include!("../tests/common/fig2.rs");
    }
    use common::{counted, fig2, fig2_eval, main_only, r};

    #[test]
    fn evaluation_improves_the_motivating_workload() {
        let p = fig2(256, 40);
        let cfg = fig2_eval(&["random", "ptmalloc"]);
        let result = evaluate_with_arg(&p, "fig2", 1, 0, &cfg).expect("evaluation runs");
        let (hds_mr, halo_mr) = result.miss_reduction_row();
        let (_, halo_su) = result.speedup_row();
        // HALO must reduce misses and not meaningfully slow the program
        // down on the motivating pattern (at this tiny scale the two added
        // instrumentation instructions can eat the cycle savings).
        assert!(halo_mr > 0.05, "HALO miss reduction {halo_mr}");
        assert!(halo_su > -0.01, "HALO speedup {halo_su}");
        // HDS with distinct immediate call sites also gets improvement.
        assert!(hds_mr > 0.0, "HDS miss reduction {hds_mr}");
        // Extras are present.
        assert!(result.get("random").is_some() && result.get("ptmalloc").is_some());
        assert!(result.halo().frag.is_some());
        assert!(result.optimised.rewrite.sites_instrumented > 0);
        assert!(result.hds_analysis.stats.hot_streams > 0);
    }

    #[test]
    fn jemalloc_baseline_beats_ptmalloc_on_misses() {
        // The §5.1 claim, at workload scale: the size-class baseline
        // produces no more misses than the boundary-tag allocator with its
        // inline headers.
        let p = fig2(256, 40);
        let cfg = EvalConfig { extras: vec!["ptmalloc"], ..Default::default() };
        let result = evaluate_with_arg(&p, "fig2", 1, 0, &cfg).expect("runs");
        let pt = result.get("ptmalloc").expect("requested");
        assert!(
            result.baseline().measurement.stats.l1_misses <= pt.measurement.stats.l1_misses,
            "jemalloc {} vs ptmalloc {}",
            result.baseline().measurement.stats.l1_misses,
            pt.measurement.stats.l1_misses
        );
    }

    #[test]
    fn sharded_backend_measures_like_halo_on_single_threaded_programs() {
        // A program that never switches logical threads drives every
        // request through shard 0, whose address layout is identical to
        // the plain allocator's — so the sharded backend's measurement
        // must reproduce the halo backend's exactly, at any shard count.
        let p = fig2(256, 40);
        let cfg = EvalConfig { shards: 4, ..fig2_eval(&["halo-sharded"]) };
        let result = evaluate_with_arg(&p, "fig2", 1, 0, &cfg).expect("evaluation runs");
        let sharded = result.get("halo-sharded").expect("requested backend");
        let halo = result.halo();
        assert_eq!(sharded.measurement.stats.l1_misses, halo.measurement.stats.l1_misses);
        assert_eq!(sharded.measurement.cycles, halo.measurement.cycles);
        assert_eq!(sharded.frag, halo.frag, "one active shard: aggregate equals plain");
        assert_eq!(sharded.alloc_stats, halo.alloc_stats);
        let stats = sharded.sharded.expect("a sharded backend reports queue pressure");
        assert_eq!(sharded.alloc_stats, Some(stats.alloc));
        assert_eq!(sharded.degrade, Some(stats.degrade));
    }

    /// A cross-thread malloc/free stream: logical thread 1 builds a list,
    /// logical thread 2 frees every node — under a sharded backend each
    /// free lands on a foreign shard's remote queue.
    fn cross_thread_workload() -> Program {
        main_only(|m| {
            m.thread_switch(1);
            m.imm(r(9), 0);
            m.imm(r(11), 64);
            m.imm(r(0), 24);
            counted(m, r(10), r(11), |m| {
                m.malloc(r(0), r(1));
                m.store(r(9), r(1), 0, Width::W8);
                m.mov(r(9), r(1));
            });
            m.thread_switch(2);
            m.imm(r(13), 0); // explicit null for the list-walk terminator
            let ftop = m.label();
            let fdone = m.label();
            m.bind(ftop);
            m.branch(Cond::Eq, r(9), r(13), fdone);
            m.load(r(2), r(9), 0, Width::W8);
            m.free(r(9));
            m.mov(r(9), r(2));
            m.jump(ftop);
            m.bind(fdone);
            m.ret(None);
        })
    }

    #[test]
    fn sharded_backend_reports_exact_free_counts_on_cross_thread_streams() {
        // The program frees everything it allocates, but on a different
        // logical thread: the sharded allocator defers those frees to the
        // owners' remote queues, and the engine's end-of-run flush
        // (`run_finished` → `drain_remote`) must apply them before the
        // evaluation snapshots the counters — otherwise the backend
        // appears to leak.
        let p = cross_thread_workload();
        let cfg = EvalConfig { extras: vec!["halo-sharded"], shards: 2, ..EvalConfig::default() };
        let result = evaluate_with_arg(&p, "mt", 1, 0, &cfg).expect("evaluation runs");
        let s = result.get("halo-sharded").expect("requested").alloc_stats.expect("grouped");
        assert_eq!(
            s.grouped_allocs + s.fallback_allocs,
            s.grouped_frees + s.fallback_frees,
            "every free (including remote-queued ones) is applied before reporting: {s:?}"
        );
        assert_eq!(s.grouped_allocs + s.fallback_allocs, 64);
    }

    #[test]
    fn fault_injection_degrades_but_never_fails_the_evaluation() {
        let p = fig2(256, 40);
        let faults = Some(FaultPlan::new(3).at(halo_mem::FaultSite::VmmReserve, 1));
        let cfg = EvalConfig { faults, ..fig2_eval(&["halo-sharded"]) };
        let result =
            evaluate_with_arg(&p, "fig2", 1, 0, &cfg).expect("evaluation survives injected faults");
        // The HALO backend's first slab reservation failed: its group
        // degraded, the run completed on the fallback, and the ladder's
        // counters surfaced in the result.
        let d = result.halo().degrade.expect("halo backend reports degradation");
        assert!(d.injected_faults >= 1, "the fault fired: {d:?}");
        assert!(d.fallback_routes >= 1, "requests were routed, not refused: {d:?}");
        assert!(d.degraded_groups >= 1);
        // Each backend replays the schedule with fresh counters.
        let ds = result.get("halo-sharded").expect("requested").degrade.expect("ladder");
        assert!(ds.injected_faults >= 1, "fresh injector per backend: {ds:?}");
        // Baselines predate the ladder and decline injection.
        assert!(result.baseline().degrade.is_none());
        // An empty plan attaches an injector that never fires.
        let clean = EvalConfig { faults: Some(FaultPlan::default()), ..EvalConfig::default() };
        let clean_result = evaluate_with_arg(&p, "fig2", 1, 0, &clean).expect("runs");
        assert_eq!(clean_result.halo().degrade, Some(DegradeStats::default()));
    }

    /// `a` and `b` field for field (the type derives no `PartialEq`).
    fn assert_same_graph(what: &str, a: &AffinityGraph, b: &AffinityGraph) {
        assert_eq!((a.len(), a.is_finalised()), (b.len(), b.is_finalised()), "{what}");
        for n in (0..a.len() as u32).map(NodeId) {
            assert_eq!(a.is_alive(n), b.is_alive(n), "{what}: node {n:?} alive");
            assert_eq!(a.accesses(n), b.accesses(n), "{what}: node {n:?} accesses");
        }
        assert!(a.edges().eq(b.edges()), "{what}: edge lists differ");
    }

    /// `w`'s train input under `monitor` alone: the reference a half of
    /// the shared run must match.
    fn alone<M: halo_vm::Monitor>(w: &Workload, limits: EngineLimits, mut monitor: M) -> M {
        halo_vm::Engine::new(&w.program)
            .with_seed(w.train.seed)
            .with_entry_arg(w.train.arg)
            .with_limits(limits)
            .run(&mut halo_mem::SizeClassAllocator::new(), &mut monitor)
            .expect("the train input runs clean");
        monitor
    }

    #[test]
    fn the_shared_train_run_gives_what_two_separate_runs_gave() {
        // Two runs with one monitor each, against the one tee'd run.
        // `Auto` records the page graph as well.
        let mut config = HaloConfig::default();
        config.profile.granularity = Granularity::Auto;
        let halo = Halo::new(config);
        let paper_and_toy = halo_workloads::all().into_iter().chain(halo_workloads::by_name("toy"));
        for w in paper_and_toy {
            let want_profile = alone(&w, config.limits, Profiler::new(&w.program, config.profile));
            let want_trace = alone(&w, config.limits, TraceCollector::new());
            let shared = TrainRun::execute(&halo, &w.program, w.train.seed, w.train.arg)
                .expect("the train input runs clean");

            let name = w.name;
            let Profile {
                graph,
                page_graph,
                contexts,
                total_accesses,
                total_page_accesses,
                total_allocs,
                queue_work,
            } = take(&shared.profile);
            let want = want_profile.finish();
            assert_same_graph(&format!("{name} graph"), &graph, &want.graph);
            assert_same_graph(&format!("{name} page graph"), &page_graph, &want.page_graph);
            assert!(!page_graph.is_empty(), "{name}: the page lane recorded nothing");
            assert_eq!(contexts, want.contexts, "{name}");
            assert_eq!(
                (total_accesses, total_page_accesses, total_allocs, queue_work),
                (want.total_accesses, want.total_page_accesses, want.total_allocs, want.queue_work),
                "{name}"
            );
            let HeapTrace { symbols, objects } = take(&shared.trace);
            let want = want_trace.finish();
            assert!(!symbols.is_empty(), "{name}: the trace recorded nothing");
            assert_eq!(symbols, want.symbols, "{name}");
            assert_eq!(objects, want.objects, "{name}");
        }
    }

    #[test]
    fn one_evaluation_executes_its_train_input_once() {
        // No other test trains at this seed, so the process-wide log counts
        // this evaluation's train runs alone, on whichever threads ran them.
        const SEED: u64 = 0xC0FF_EE00;
        evaluate_with_arg(&fig2(64, 8), "once", SEED, 0, &fig2_eval(&["halo-sharded"]))
            .expect("evaluation runs");
        let runs = crate::pipeline::train_runs(SEED);
        assert_eq!(runs, 1, "one train execution feeds both producers");
    }

    #[test]
    fn backends_follow_registry_order_and_gating() {
        let p = fig2(256, 40);
        let plain = evaluate_with_arg(&p, "fig2", 1, 0, &EvalConfig::default()).expect("runs");
        let ids: Vec<&str> = plain.backends.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, ["baseline", "halo", "hds"], "extras absent unless requested");
        assert!(plain.get("random").is_none() && plain.get("ptmalloc").is_none());
        let cfg = EvalConfig { extras: vec!["random"], ..Default::default() };
        let with_random = evaluate_with_arg(&p, "fig2", 1, 0, &cfg).expect("runs");
        let ids: Vec<&str> = with_random.backends.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, ["baseline", "halo", "hds", "random"]);
        // Non-grouped backends report no grouped-pool diagnostics.
        assert!(with_random.baseline().frag.is_none());
        assert!(with_random.get("random").expect("requested").frag.is_none());
        assert!(with_random.halo().frag.is_some());
    }
}
