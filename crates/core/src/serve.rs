//! Online re-optimisation (`halo serve`, DESIGN.md §15): keep profiling
//! while the optimised program serves traffic, detect workload phase
//! changes, and hot-swap the allocator's per-group plans without moving
//! a live pointer.
//!
//! The loop models a long-running deployment as a sequence of *windows*.
//! Each window:
//!
//! 1. **streams** one bounded profiling run into a [`ProfileStream`]
//!    (exponential decay, so the graph tracks the current phase instead
//!    of averaging over history) — the run's graph at the granularity the
//!    plans are grouped at, so drift and a swapped plan read one graph;
//! 2. **detects**: every `regroup_every` windows the decayed graph is
//!    re-grouped and compared against the grouping the active plan was
//!    built on ([`halo_graph::grouping_drift`]); drift beyond the
//!    threshold — or an L1D miss-reduction regression beyond the
//!    tolerance — triggers re-optimisation;
//! 3. **swaps**: re-optimisation assembles a fresh plan from the
//!    streamed graph and applies it via
//!    [`ShardedHaloAllocator::swap_plans`] — prospective, epoch-stamped,
//!    old chunks drain through the ordinary free machinery;
//! 4. **measures** the window under three regimes: the jemalloc-style
//!    baseline, the *static* plan (phase-0 optimisation, never swapped),
//!    and the serve allocator — so the report shows static decaying
//!    while serve recovers.
//!
//! Schedule: after the initial optimisation the windows run as two
//! chains (DESIGN.md §15). The *twin* chain measures each window's
//! baseline and static plan on one helper thread that owns the static
//! allocator; the *serve* chain runs steps 1–3 and the serve measurement
//! on the calling thread. Each sharded allocator thus lives on one OS
//! thread by construction, and the report is the serial loop's at any
//! `HALO_THREADS`.
//!
//! Determinism: profiling windows replay the phase's *train* seed (the
//! [`ProfileStream`] needs a stable context-interning order), while
//! measurement windows vary the *ref* seed per window. Everything in the
//! report is deterministic except the swap wall-clock latencies.

use crate::measure::{measure, MeasureConfig, Measurement};
use crate::parallel::thread_count;
use crate::pipeline::{graph_at, Halo, HaloConfig, Optimised, PipelineError};
use halo_graph::{group, grouping_drift, Group};
use halo_mem::{ShardedHaloAllocator, SizeClassAllocator};
use halo_profile::ProfileStream;
use halo_vm::Program;
use std::panic::resume_unwind;
use std::sync::OnceLock;

/// One phase of the scripted workload mix: a binary plus its train/ref
/// inputs, served for `windows` windows.
#[derive(Debug, Clone)]
pub struct ServePhase {
    /// Phase name for the report (usually the workload name).
    pub name: String,
    /// The binary serving traffic during this phase.
    pub program: Program,
    /// Profiling-window seed. Every window of the phase replays this
    /// seed so contexts intern in the same order (see module docs).
    pub train_seed: u64,
    /// Profiling-window entry argument.
    pub train_arg: i64,
    /// Base measurement seed; window `w` (globally numbered) measures
    /// with `ref_seed + w`, wrapping — a seed names an RNG stream, it is
    /// not a quantity.
    pub ref_seed: u64,
    /// Measurement entry argument.
    pub ref_arg: i64,
    /// Number of serve windows this phase lasts.
    pub windows: u64,
}

/// Tunables of the serve loop, on top of the pipeline configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Pipeline configuration (shared by the initial optimisation and
    /// every re-optimisation).
    pub halo: HaloConfig,
    /// Measurement geometry and limits; `seed`/`entry_arg` are
    /// overridden per window from the phase script.
    pub measure: MeasureConfig,
    /// Shard count for the serve and static allocators.
    pub shards: usize,
    /// Per-window retention factor of the streaming graph, in `[0, 1]`.
    pub decay: f64,
    /// Re-group the streamed graph every this many windows (≥ 1).
    pub regroup_every: u64,
    /// Re-optimise when grouping drift exceeds this (in `[0, 1]`).
    pub drift_threshold: f64,
}

/// Re-optimise when the window's miss reduction falls this far below the
/// best seen since the last swap.
const REGRESSION_TOLERANCE: f64 = 0.1;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            halo: HaloConfig::default(),
            measure: MeasureConfig::default(),
            shards: 4,
            decay: 0.5,
            regroup_every: 1,
            drift_threshold: 0.3,
        }
    }
}

/// One serve window's row in the report.
#[derive(Debug, Clone)]
pub struct EpochRow {
    /// Global window index (across phases).
    pub window: u64,
    /// Phase name.
    pub phase: String,
    /// Allocator plan epoch in force during this window's measurement.
    pub plan_epoch: u64,
    /// Grouping drift measured this window (`None` when the window was
    /// not a re-grouping window).
    pub drift: Option<f64>,
    /// Whether a plan swap happened this window.
    pub swapped: bool,
    /// Wall-clock latency of this window's swap, in microseconds (`0.0`
    /// when no swap happened). The only non-deterministic report field.
    pub swap_latency_us: f64,
    /// Serve allocator's L1D miss reduction vs the baseline.
    pub miss_reduction: f64,
    /// The static (phase-0, never-swapped) plan's miss reduction.
    pub static_miss_reduction: f64,
}

/// The outcome of a serve run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-window rows, in order.
    pub rows: Vec<EpochRow>,
    /// Total plan swaps applied.
    pub swaps: u64,
    /// Final window's serve miss reduction.
    pub final_miss_reduction: f64,
    /// Final window's static-plan miss reduction.
    pub final_static_miss_reduction: f64,
    /// Whether serve ended ahead of the static plan — the tentpole
    /// claim: after a phase shift the static plan's miss reduction
    /// decays and online re-optimisation recovers it.
    pub recovered: bool,
}

/// State the serve chain carries for the currently active plan.
struct ActivePlan {
    /// The binary rewritten for this plan.
    program: Program,
    /// Index into the phase script of the binary this plan was built
    /// for. Measurement runs the rewritten binary only while the serving
    /// phase still executes that binary; after a phase shift the new
    /// binary runs unmodified (its call sites carry no instrumentation)
    /// until re-optimisation catches up.
    source_phase: usize,
    /// Grouping the plan was built on, for drift comparison.
    groups: Vec<Group>,
    /// Best miss reduction observed since this plan was installed.
    best_miss_reduction: f64,
}

#[cfg(test)]
thread_local! {
    /// The groups of every plan swapped in on this thread, in swap order,
    /// so a test can tell which graph a swap was grouped from.
    static INSTALLED_GROUPS: std::cell::RefCell<Vec<Vec<Group>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Record a swapped-in plan's groups for the tests. The serve chain runs
/// on the thread that called [`serve`], so a test reads them there.
#[cfg(test)]
fn note_installed(groups: &[Group]) {
    INSTALLED_GROUPS.with_borrow_mut(|log| log.push(groups.to_vec()));
}

#[cfg(not(test))]
fn note_installed(_: &[Group]) {}

/// Run the serve loop over a phase script. See the module docs for the
/// window structure.
///
/// # Errors
///
/// Returns [`PipelineError::Rejected`], with the broken rule's text and
/// before any profiling or optimisation runs, if the script is empty, a
/// phase has zero windows, or the configuration is out of range: `decay`
/// or `drift_threshold` outside `[0, 1]` (NaN included), `regroup_every`
/// of zero, or a shard count
/// [`ShardedHaloAllocator::check_shards`] rejects; or if the script has
/// more windows than this host can hold (their sum overflows, or a
/// per-window table cannot be reserved).
///
/// Returns [`PipelineError::Vm`] if any profiling, re-optimisation, or
/// measurement execution traps: the first to trap in the window-by-window
/// order (profile, baseline, static twin, serve; then the next window),
/// whichever chain met it first in time.
pub fn serve(phases: &[ServePhase], config: &ServeConfig) -> Result<ServeReport, PipelineError> {
    check(phases, config).map_err(PipelineError::Rejected)?;
    // Every per-window table is reserved before any work, so a script this
    // host cannot hold is an error and not an abort after the optimisation.
    let n = phases.iter().try_fold(0usize, |n, p| n.checked_add(usize::try_from(p.windows).ok()?));
    let tables = n.and_then(|n| Some((room(n)?, room(n)?, room(n)?, room(n)?, room(n)?)));
    let Some((mut script, mut baselines, twin_out, serve_out, mut rows)) = tables else {
        return Err(PipelineError::Rejected(
            "the script has more windows than this host can hold".into(),
        ));
    };
    let halo = Halo::for_measurement(&config.halo, &config.measure);

    // Initial optimisation on phase 0 — both the serve plan and the
    // static twin start from this one result.
    let first = &phases[0];
    let initial = halo.optimise_with_arg(&first.program, first.train_seed, first.train_arg)?;
    let serve_alloc = halo.make_sharded_allocator(&initial, config.shards);
    let static_alloc = halo.make_sharded_allocator(&initial, config.shards);
    script.extend(
        phases
            .iter()
            .enumerate()
            .flat_map(|(idx, phase)| (0..phase.windows).map(move |_| (idx, phase))),
    );
    baselines.resize_with(script.len(), OnceLock::new);
    let windows = Windows { halo: &halo, config, initial: &initial, script, baselines };

    // The twin chain owns the static allocator on one helper thread and
    // the serve chain runs here (DESIGN.md §15): each sharded allocator is
    // touched by one OS thread for its whole life, so its thread slots —
    // and with them every shard choice — are the serial loop's. On one
    // thread the twin goes first.
    let (twin, served) = if thread_count(2) > 1 {
        std::thread::scope(|scope| {
            let windows = &windows;
            let twin = scope.spawn(move || windows.twin(&static_alloc, twin_out));
            let served = windows.serve(&serve_alloc, serve_out);
            (twin.join().unwrap_or_else(|payload| resume_unwind(payload)), served)
        })
    } else {
        (windows.twin(&static_alloc, twin_out), windows.serve(&serve_alloc, serve_out))
    };

    // The first failure in the serial loop's order decides, whichever
    // chain met its own first.
    let (twin, served) = match (twin, served) {
        (Ok(twin), Ok(served)) => (twin, served),
        (twin, served) => {
            let failures = twin.err().into_iter().chain(served.err());
            return Err(failures.min_by_key(|f| f.at).expect("a chain failed").error);
        }
    };
    rows.extend(windows.script.iter().zip(twin.iter().zip(served)).enumerate().map(
        |(window, (&(_, phase), (&[baseline, static_m], served)))| EpochRow {
            window: window as u64,
            phase: phase.name.clone(),
            plan_epoch: served.plan_epoch,
            drift: served.drift,
            swapped: served.swapped,
            swap_latency_us: served.swap_latency_us,
            miss_reduction: served.measurement.miss_reduction_vs(&baseline),
            static_miss_reduction: static_m.miss_reduction_vs(&baseline),
        },
    ));

    let last = rows.last().expect("at least one window ran");
    Ok(ServeReport {
        final_miss_reduction: last.miss_reduction,
        final_static_miss_reduction: last.static_miss_reduction,
        recovered: last.miss_reduction > last.static_miss_reduction,
        swaps: rows.iter().filter(|row| row.swapped).count() as u64,
        rows,
    })
}

/// An empty table with room for `n` entries, or `None` when the host has
/// no memory for it.
fn room<T>(n: usize) -> Option<Vec<T>> {
    let mut table = Vec::new();
    table.try_reserve_exact(n).ok()?;
    Some(table)
}

/// The rules [`serve`] holds a script and configuration to, each with
/// its text.
fn check(phases: &[ServePhase], config: &ServeConfig) -> Result<(), String> {
    let (decay, threshold) = (config.decay, config.drift_threshold);
    if phases.is_empty() {
        Err("serve needs at least one phase".into())
    } else if phases.iter().any(|p| p.windows == 0) {
        Err("every phase needs at least one window".into())
    } else if config.regroup_every == 0 {
        Err("regroup_every must be at least 1".into())
    } else if !(0.0..=1.0).contains(&decay) {
        Err(format!("decay {decay} must be within [0, 1]"))
    } else if !(0.0..=1.0).contains(&threshold) {
        Err(format!("drift_threshold {threshold} must be within [0, 1]"))
    } else {
        ShardedHaloAllocator::check_shards(config.shards)
    }
}

/// The steps of one window, in the serial loop's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stage {
    Profile,
    Baseline,
    Static,
    Serve,
}

/// The error that stopped a chain, and where the serial loop would have
/// met it: `(window, stage)`.
struct Failure {
    at: (usize, Stage),
    error: PipelineError,
}

impl Failure {
    fn at(window: usize, stage: Stage) -> impl FnOnce(PipelineError) -> Failure {
        move |error| Failure { at: (window, stage), error }
    }
}

/// What the serve chain records of one window.
struct Served {
    drift: Option<f64>,
    swapped: bool,
    swap_latency_us: f64,
    plan_epoch: u64,
    measurement: Measurement,
}

/// What both chains read: the script window by window and each window's
/// baseline.
struct Windows<'a> {
    halo: &'a Halo,
    config: &'a ServeConfig,
    initial: &'a Optimised,
    /// `(phase index, phase)` of every window, in order.
    script: Vec<(usize, &'a ServePhase)>,
    /// Window `w`'s baseline measurement. The twin needs it for its row
    /// and the serve chain for window `w + 1`'s regression check;
    /// whichever asks first takes it with `get_or_init`, so it is
    /// measured once and neither chain waits on a job nobody runs.
    baselines: Vec<OnceLock<Result<Measurement, PipelineError>>>,
}

impl Windows<'_> {
    /// Window `w`'s ref input: the phase's argument, and a seed that
    /// varies per window.
    fn measure_config(&self, w: usize) -> MeasureConfig {
        let phase = self.script[w].1;
        MeasureConfig {
            seed: phase.ref_seed.wrapping_add(w as u64),
            entry_arg: phase.ref_arg,
            ..self.config.measure
        }
    }

    fn baseline(&self, w: usize) -> Result<Measurement, Failure> {
        let measured = self.baselines[w].get_or_init(|| {
            let mut alloc = SizeClassAllocator::new();
            Ok(measure(&self.script[w].1.program, &mut alloc, &self.measure_config(w))?)
        });
        measured.clone().map_err(Failure::at(w, Stage::Baseline))
    }

    /// The twin chain: each window's `[baseline, static twin]`. The twin
    /// is phase 0's plan on its own never-swapped allocator; after a
    /// shift it serves the new binary unmodified.
    fn twin(
        &self,
        alloc: &ShardedHaloAllocator,
        mut twin: Vec<[Measurement; 2]>,
    ) -> Result<Vec<[Measurement; 2]>, Failure> {
        for (w, &(phase_idx, phase)) in self.script.iter().enumerate() {
            let baseline = self.baseline(w)?;
            let program = if phase_idx == 0 { &self.initial.program } else { &phase.program };
            let static_m = measure_serving(alloc, program, &self.measure_config(w))
                .map_err(Failure::at(w, Stage::Static))?;
            twin.push([baseline, static_m]);
        }
        Ok(twin)
    }

    /// The serve chain: stream, detect, swap and measure, window by
    /// window (module docs, steps 1-4).
    fn serve(
        &self,
        alloc: &ShardedHaloAllocator,
        mut served: Vec<Served>,
    ) -> Result<Vec<Served>, Failure> {
        let (halo, config) = (self.halo, self.config);
        // Every plan of the run is grouped at the granularity phase 0
        // resolved to, and the stream absorbs each window's graph of that
        // granularity: drift is read off the very graph a swap would be
        // grouped from.
        let granularity = self.initial.granularity;
        let mut stream = ProfileStream::new(config.decay);
        stream.absorb_graph(graph_at(&self.initial.profile, granularity));
        let mut active = ActivePlan {
            program: self.initial.program.clone(),
            groups: self.initial.groups.clone(),
            source_phase: 0,
            best_miss_reduction: f64::NEG_INFINITY,
        };
        for (w, &(phase_idx, phase)) in self.script.iter().enumerate() {
            if w > 0 && self.script[w - 1].0 != phase_idx {
                // A new binary means a new context-interning order: the
                // old stream's node ids would alias unrelated contexts.
                // Reset — a real deployment keys the stream by build id.
                stream = ProfileStream::new(config.decay);
            }
            // 1. Stream one profiling window.
            let profile = halo
                .profile_with_arg(&phase.program, phase.train_seed, phase.train_arg)
                .map_err(Failure::at(w, Stage::Profile))?;
            stream.absorb_graph(graph_at(&profile, granularity));

            // 2. Phase detection on re-grouping windows.
            let mut drift = None;
            if (w as u64).is_multiple_of(config.regroup_every) {
                let fresh = group(stream.graph(), &halo.config().grouping);
                // Across a binary change the id spaces alias, but the
                // active plan also cannot serve the new binary at all —
                // force a full-drift reading rather than trusting the
                // aliased comparison.
                let d = if active.source_phase == phase_idx {
                    grouping_drift(&active.groups, &fresh)
                } else {
                    1.0
                };
                drift = Some(d);
            }
            // The last window's miss reduction needs its baseline, which
            // the twin has usually measured by now.
            let regressed = match served.last() {
                Some(last) => {
                    let reduction = last.measurement.miss_reduction_vs(&self.baseline(w - 1)?);
                    active.best_miss_reduction = active.best_miss_reduction.max(reduction);
                    reduction < active.best_miss_reduction - REGRESSION_TOLERANCE
                }
                None => false,
            };

            // 3. Re-optimise and hot-swap when triggered.
            let mut swapped = false;
            let mut swap_latency_us = 0.0;
            if drift.is_some_and(|d| d > config.drift_threshold) || regressed {
                // Re-assemble from the *streamed* (decayed) graph: the
                // window profile supplies the context table — same
                // interning order, so ids line up — and the stream
                // supplies the edge structure.
                let reopt = halo.assemble(&phase.program, &profile, stream.graph(), granularity);
                let start = std::time::Instant::now();
                alloc.swap_plans(reopt.ident.table, reopt.group_configs);
                swap_latency_us = start.elapsed().as_secs_f64() * 1e6;
                swapped = true;
                note_installed(&reopt.groups);
                active = ActivePlan {
                    program: reopt.program,
                    groups: reopt.groups,
                    source_phase: phase_idx,
                    best_miss_reduction: f64::NEG_INFINITY,
                };
            }

            // 4. Measure the window on the serve allocator.
            let program =
                if active.source_phase == phase_idx { &active.program } else { &phase.program };
            let measurement = measure_serving(alloc, program, &self.measure_config(w))
                .map_err(Failure::at(w, Stage::Serve))?;
            served.push(Served {
                drift,
                swapped,
                swap_latency_us,
                plan_epoch: alloc.plan_epoch(),
                measurement,
            });
        }
        Ok(served)
    }
}

/// Measure one window against a long-lived sharded allocator (through
/// the `&ShardedHaloAllocator` bridge — the allocator keeps its heap
/// across windows, exactly like a serving process).
fn measure_serving(
    alloc: &ShardedHaloAllocator,
    program: &Program,
    config: &MeasureConfig,
) -> Result<Measurement, PipelineError> {
    let mut handle = alloc;
    Ok(measure(program, &mut handle, config)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_graph::Granularity;
    use halo_vm::{ProgramBuilder, VmError, Width};

    #[allow(dead_code)] // each test module uses its own part
    mod common {
        use crate::{EvalConfig, HaloConfig};
        include!("../tests/common/fig2.rs");
    }
    use common::{counted, fig2, fig2_halo, fig2_trap, r, wrappers};

    fn serve_config() -> ServeConfig {
        ServeConfig { halo: fig2_halo(), shards: 2, ..Default::default() }
    }

    fn phase(name: &str, program: Program, windows: u64) -> ServePhase {
        ServePhase {
            name: name.into(),
            program,
            train_seed: 7,
            train_arg: 0,
            ref_seed: 100,
            ref_arg: 0,
            windows,
        }
    }

    #[test]
    fn steady_phase_never_swaps() {
        // No other test trains at this seed.
        const SEED: u64 = 0x57EA_D700;
        let steady = ServePhase { train_seed: SEED, ..phase("steady", fig2(48, 48), 3) };
        let report = serve(&[steady], &serve_config()).expect("serve runs");
        assert_eq!(report.rows.len(), 3);
        // One optimisation of phase 0 feeds both the serve allocator and
        // the static twin, then one streamed profile per window.
        assert_eq!(crate::pipeline::train_runs(SEED), 1 + 3);
        assert_eq!(report.swaps, 0, "a stable workload triggers no swap: {:?}", report.rows);
        assert!(report.rows.iter().all(|row| row.plan_epoch == 0));
        // Drift is measured every window (regroup_every = 1) and stays
        // below the threshold: the same program profiled with the same
        // train seed re-groups identically.
        assert!(report.rows.iter().all(|row| row.drift == Some(0.0)), "{:?}", report.rows);
        // The static twin and serve run the same plan: identical rows.
        for row in &report.rows {
            assert_eq!(row.miss_reduction, row.static_miss_reduction);
        }
    }

    #[test]
    fn phase_shift_triggers_a_swap_and_serve_recovers() {
        // The real workload-mix shift the CLI demo scripts: the server
        // mix hands over to the xalanc-mt mix. These workloads produce
        // genuine L1D misses, so recovery is visible in miss reduction,
        // not just in the swap bookkeeping.
        let mut mt = halo_workloads::multithreaded();
        let xalanc = mt.pop().expect("xalanc-mt");
        let server = mt.pop().expect("server");
        let to_phase = |w: &halo_workloads::Workload, windows| ServePhase {
            name: w.name.into(),
            program: w.program.clone(),
            train_seed: w.train.seed,
            train_arg: w.train.arg,
            ref_seed: w.reference.seed,
            ref_arg: w.reference.arg,
            windows,
        };
        let phases = [to_phase(&server, 1), to_phase(&xalanc, 2)];
        let report =
            serve(&phases, &ServeConfig { shards: 2, ..Default::default() }).expect("serve runs");
        assert_eq!(report.rows.len(), 3);
        assert!(report.swaps >= 1, "the binary change must trigger a swap: {:?}", report.rows);
        let shift = &report.rows[1];
        assert_eq!(shift.phase, "xalanc-mt");
        assert_eq!(shift.drift, Some(1.0), "cross-binary drift reads full");
        assert!(shift.swapped);
        assert!(shift.plan_epoch >= 1);
        // After the shift the static plan serves the new binary
        // unmodified (no instrumentation → every allocation falls back)
        // while serve re-optimised: it must end ahead.
        assert!(report.recovered, "{report:?}");
        assert!(report.final_miss_reduction > report.final_static_miss_reduction);
        // Well-formed report plumbing.
        assert_eq!(report.final_miss_reduction, report.rows.last().unwrap().miss_reduction);
        assert!(report.rows.iter().filter(|row| row.swapped).count() as u64 == report.swaps);
    }

    #[test]
    fn a_ref_trap_reports_the_baselines_error_not_the_serve_allocators() {
        // Window 1 shifts to a binary whose ref input traps under every
        // regime: the baseline and the static twin on the binary as
        // shipped, the serve allocator on the one it rewrote at the shift,
        // where instrumentation moved the division. The serial loop meets
        // the baseline's trap first, and so must the two chains, whichever
        // of them traps first in time.
        let config = serve_config();
        let trap = ServePhase { train_arg: 1, ref_arg: 0, ..phase("trap", fig2_trap(0, 0), 2) };
        let window = MeasureConfig { seed: trap.ref_seed + 1, entry_arg: 0, ..config.measure };
        let original = measure(&trap.program, &mut SizeClassAllocator::new(), &window)
            .expect_err("the ref input divides by zero");
        assert!(matches!(original, VmError::DivisionByZero { .. }), "{original:?}");
        let halo = Halo::for_measurement(&config.halo, &config.measure);
        let optimised = halo
            .optimise_with_arg(&trap.program, trap.train_seed, 1)
            .expect("the train input runs");
        assert!(optimised.rewrite.sites_instrumented > 0, "main must be instrumented");
        let rewritten = measure(&optimised.program, &mut halo.make_allocator(&optimised), &window)
            .expect_err("the rewritten binary divides by zero too");
        assert_ne!(rewritten, original, "the two binaries must trap at different sites");

        let err = serve(&[phase("steady", fig2(48, 48), 1), trap], &config).expect_err("it traps");
        assert_eq!(err, PipelineError::Vm(original));
    }

    /// Two allocation contexts of 8 KiB arrays, touched alternately one
    /// page apart: invisible below the 4 KiB object cap, affinitive at
    /// page granularity (the roms shape).
    fn paged_program(rounds: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let makers = wrappers(&mut pb, ["mk_a", "mk_b"], 8192);
        let mut m = pb.function("main");
        m.imm(r(11), rounds);
        counted(&mut m, r(10), r(11), |m| {
            m.call(makers[0], &[], Some(r(1)));
            m.call(makers[1], &[], Some(r(2)));
            for offset in [0, 4096] {
                m.store(r(10), r(1), offset, Width::W8);
                m.store(r(10), r(2), offset, Width::W8);
            }
        });
        m.ret(None);
        let main = m.finish();
        pb.finish(main)
    }

    #[test]
    fn page_granularity_swaps_in_the_grouping_of_the_streamed_page_graph() {
        let mut config = ServeConfig { regroup_every: 2, ..serve_config() };
        config.halo.profile.granularity = Granularity::Page;
        let paged = phase("paged", paged_program(32), 4);
        // Windows 0 (steady), 1-4 (paged); detection runs on 0, 2 and 4.
        // Window 2 sees the new binary and swaps, two decayed windows into
        // the paged phase's stream.
        INSTALLED_GROUPS.take();
        let report =
            serve(&[phase("steady", fig2(48, 48), 1), paged.clone()], &config).expect("serve runs");
        let installed = INSTALLED_GROUPS.take();

        let halo = Halo::for_measurement(&config.halo, &config.measure);
        let window = halo.profile_with_arg(&paged.program, paged.train_seed, 0).expect("profiles");
        let mut stream = ProfileStream::new(config.decay);
        stream.absorb_graph(&window.page_graph);
        stream.absorb_graph(&window.page_graph);
        let shape = |groups: &[Group]| -> Vec<_> {
            groups.iter().map(|g| (g.members.clone(), g.weight, g.accesses)).collect()
        };
        let streamed = group(stream.graph(), &config.halo.grouping);
        assert!(!streamed.is_empty(), "the arrays group at page granularity");
        assert!(group(&window.graph, &config.halo.grouping).is_empty(), "and only there");
        assert_ne!(shape(&streamed), shape(&group(&window.page_graph, &config.halo.grouping)));
        assert_eq!(installed.len(), 1, "{:?}", report.rows);
        assert_eq!(
            shape(&installed[0]),
            shape(&streamed),
            "the plan is the stream's, decay and all"
        );
        // Drift is read off that same graph: the next detection window
        // finds the grouping it installed, not an (empty) object-level one.
        assert!(report.rows[2].swapped);
        assert_eq!(report.rows[4].drift, Some(0.0), "{:?}", report.rows);
        assert_eq!(report.swaps, 1);
    }

    #[test]
    fn a_ref_seed_at_the_type_limit_wraps_instead_of_overflowing() {
        // Window 1 measures with `u64::MAX + 1`: a checked add panics in
        // this (overflow-checked) test profile.
        let top = ServePhase { ref_seed: u64::MAX, ..phase("top", fig2(16, 16), 2) };
        let wrapped = ServePhase { ref_seed: 0, ..phase("wrapped", fig2(16, 16), 1) };
        let report = serve(&[top], &serve_config()).expect("serve runs");
        let at_zero = serve(&[wrapped], &serve_config()).expect("serve runs");
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.rows[1].miss_reduction, at_zero.rows[0].miss_reduction);
    }

    #[test]
    fn empty_scripts_are_rejected() {
        let err = serve(&[], &ServeConfig::default()).expect_err("an empty script is rejected");
        assert_eq!(err.to_string(), "serve needs at least one phase");
        let idle = [phase("p", fig2(16, 16), 0)];
        let err = serve(&idle, &ServeConfig::default()).expect_err("a zero-window phase too");
        assert_eq!(err.to_string(), "every phase needs at least one window");
    }

    #[test]
    fn an_out_of_range_configuration_is_rejected_before_any_work() {
        // No other test trains at this seed: every phase here runs at it.
        const SEED: u64 = 0x0BAD_C0DE;
        let at_seed =
            |windows: u64| ServePhase { train_seed: SEED, ..phase("p", fig2(16, 16), windows) };
        let rejected = |phases: &[ServePhase], config: ServeConfig| -> String {
            let err = serve(phases, &config).expect_err("the configuration must be rejected");
            assert_eq!(crate::pipeline::train_runs(SEED), 0, "nothing was profiled");
            assert!(matches!(err, PipelineError::Rejected(_)), "{err:?}");
            err.to_string()
        };
        let phases = [at_seed(1)];
        let rejection = |config: ServeConfig| rejected(&phases, config);
        assert_eq!(
            rejection(ServeConfig { regroup_every: 0, ..serve_config() }),
            "regroup_every must be at least 1"
        );
        // A window count no host can hold, and two whose sum overflows.
        let half = u64::MAX / 2 + 1;
        for windows in [&[u64::MAX][..], &[half, half]] {
            let script: Vec<_> = windows.iter().map(|&n| at_seed(n)).collect();
            assert_eq!(
                rejected(&script, serve_config()),
                "the script has more windows than this host can hold"
            );
        }
        for bad in [f64::NAN, -0.1, 1.5] {
            assert_eq!(
                rejection(ServeConfig { decay: bad, ..serve_config() }),
                format!("decay {bad} must be within [0, 1]")
            );
            assert_eq!(
                rejection(ServeConfig { drift_threshold: bad, ..serve_config() }),
                format!("drift_threshold {bad} must be within [0, 1]")
            );
        }
        let max = ShardedHaloAllocator::MAX_SHARDS;
        for bad in [0, max + 1] {
            assert_eq!(
                rejection(ServeConfig { shards: bad, ..serve_config() }),
                format!("shards {bad} must be within [1, {max}], the address layout's limit")
            );
        }
    }

    #[test]
    fn the_ends_of_every_range_are_accepted() {
        let phases = [phase("p", fig2(16, 16), 1)];
        let max = ShardedHaloAllocator::MAX_SHARDS;
        let ends = [
            ServeConfig { decay: 0.0, ..serve_config() },
            ServeConfig { decay: 1.0, ..serve_config() },
            ServeConfig { drift_threshold: 0.0, ..serve_config() },
            ServeConfig { drift_threshold: 1.0, ..serve_config() },
            ServeConfig { shards: 1, ..serve_config() },
            ServeConfig { shards: max, ..serve_config() },
        ];
        for config in ends {
            serve(&phases, &config).expect("serve runs");
        }
    }
}
