//! `serve-shift`: one operation is one `halo_core::serve` call on the
//! script `xalanc-mt:2,server:1,xalanc-mt:2` with four shards and the
//! default `ServeConfig` otherwise — five windows, two workload shifts in
//! both directions, two plan swaps.
//!
//! It uses the layers `spec-sweep` uses, differently: profiling is
//! streamed with decay instead of one-shot, the programs are
//! multi-threaded and so run on the MESI-lite cache paths instead of the
//! single-thread fast path, and a long-lived `ShardedHaloAllocator` takes
//! remote frees and epoch plan swaps instead of a fresh group allocator
//! per run. A fast path that helps `spec-sweep` at the coherent path's
//! cost, or an allocator change that slows the swap, shows here.

use super::{guarded, VmCacheProbe};
use crate::fingerprint::Fingerprint;
use crate::harness::{LayerValues, OpSample, Round, Scale, Workload};
use crate::span::Tracer;
use crate::stats;
use halo_core::{
    measure, serve, Halo, MeasureConfig, Measurement, ServeConfig, ServePhase, ServeReport,
};
use halo_graph::{group, grouping_drift};
use halo_mem::{ShardedHaloAllocator, SizeClassAllocator};
use halo_profile::ProfileStream;
use halo_vm::Program;
use std::time::Instant;

/// `(program, windows)` — the scripted workload mix and its smoke form.
const SCRIPT: [(&str, u64); 3] = [("xalanc-mt", 2), ("server", 1), ("xalanc-mt", 2)];
const SMOKE_SCRIPT: [(&str, u64); 3] = [("xalanc-mt", 1), ("server", 1), ("xalanc-mt", 1)];
/// Both scripts shift the workload twice; serve must swap at each shift.
const EXPECTED_SWAPS: u64 = 2;
const SHARDS: usize = 4;

pub struct ServeShift {
    pub seed: u64,
}

pub struct Input {
    phases: Vec<ServePhase>,
    config: ServeConfig,
}

fn serve_once(input: &Input) -> Result<ServeReport, String> {
    guarded("serve", || serve(&input.phases, &input.config).map_err(|e| format!("serve: {e}")))
}

fn check(input: &Input, report: &ServeReport) -> Vec<String> {
    let mut failures = Vec::new();
    let windows: u64 = input.phases.iter().map(|p| p.windows).sum();
    if report.rows.len() as u64 != windows {
        failures
            .push(format!("serve reported {} windows, script has {windows}", report.rows.len()));
    }
    if report.swaps != EXPECTED_SWAPS {
        failures.push(format!("serve applied {} swaps, expected {EXPECTED_SWAPS}", report.swaps));
    }
    if !report.recovered {
        failures.push(format!(
            "serve did not end ahead of the static plan ({} vs {})",
            report.final_miss_reduction, report.final_static_miss_reduction
        ));
    }
    failures
}

/// Mean over all windows of the serve allocator's L1D miss reduction:
/// late detection or a missed swap lowers it.
fn quality_pct(report: &ServeReport) -> f64 {
    100.0 * report.rows.iter().map(|r| r.miss_reduction).sum::<f64>() / report.rows.len() as f64
}

fn fingerprint(report: &ServeReport) -> Fingerprint {
    let mut fp = Fingerprint::new();
    fp.push(report.swaps);
    for row in &report.rows {
        fp.push(row.window);
        fp.push_str(&row.phase);
        fp.push(row.plan_epoch);
        fp.push_f64(row.drift.unwrap_or(-1.0));
        fp.push(u64::from(row.swapped));
        fp.push_f64(row.miss_reduction);
        fp.push_f64(row.static_miss_reduction);
    }
    fp
}

fn finish(round: &mut Round, input: &Input, report: &ServeReport) {
    round.failures.extend(check(input, report));
    round.quality_pct = quality_pct(report);
    round.fingerprint = fingerprint(report);
    round.exact = vec![
        ("l1d_miss_reduction_pct", round.quality_pct),
        ("final_miss_reduction_pct", 100.0 * report.final_miss_reduction),
        ("final_static_miss_reduction_pct", 100.0 * report.final_static_miss_reduction),
    ];
}

impl Workload for ServeShift {
    type Input = Input;

    fn kinds(&self) -> Vec<String> {
        vec!["serve".into()]
    }

    fn build(&self, scale: Scale) -> Input {
        let programs = halo_workloads::multithreaded();
        let script = if scale == Scale::Full { SCRIPT } else { SMOKE_SCRIPT };
        let phases = script
            .iter()
            .map(|&(name, windows)| {
                let w = programs.iter().find(|w| w.name == name).expect("a multi-threaded model");
                ServePhase {
                    name: w.name.into(),
                    program: w.program.clone(),
                    train_seed: w.train.seed + self.seed,
                    train_arg: w.train.arg,
                    ref_seed: w.reference.seed + self.seed,
                    ref_arg: w.reference.arg,
                    windows,
                }
            })
            .collect();
        Input { phases, config: ServeConfig { shards: SHARDS, ..ServeConfig::default() } }
    }

    fn warm_up(&self, input: &mut Input) {
        // The first phase alone: every layer runs, no shift is awaited.
        let _ = std::hint::black_box(serve(&input.phases[..1], &input.config));
    }

    fn round(&self, input: &mut Input) -> Round {
        let mut round = Round { attempted: 1, ..Round::default() };
        let start = Instant::now();
        let result = serve_once(input);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        round.ops.push(OpSample { kind: 0, ms });
        round.wall_s = ms / 1e3;
        match result {
            Ok(report) => finish(&mut round, input, &report),
            Err(e) => round.failures.push(e),
        }
        round
    }

    fn trace(&self, input: &mut Input, tracer: &mut Tracer, values: &mut LayerValues) -> Round {
        let (_, build_ns) = tracer.time("workloads.build", "workloads", || {
            std::hint::black_box(halo_workloads::multithreaded())
        });
        values.set("workloads.build_ms", build_ns as f64 / 1e6);

        let mut round = Round { attempted: 1, ..Round::default() };
        tracer.next_op();
        let whole = tracer.begin("core.serve", "core");
        let result = serve_once(input);
        let whole_ns = tracer.end(whole);
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                round.failures.push(e);
                return round;
            }
        };
        finish(&mut round, input, &report);

        let mut sums = Sums::default();
        match guarded("replay serve", || replay(input, &report, tracer, &mut sums)) {
            Ok(mismatches) => round.failures.extend(mismatches),
            Err(e) => round.failures.push(e),
        }
        layer_probes(input, tracer, &mut sums);

        let ms = |ns: u64| ns as f64 / 1e6;
        let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
        values.set("core.whole_op_ms", ms(whole_ns));
        values.set("core.serve_ms_per_window", ms(whole_ns) / report.rows.len() as f64);
        values.set("core.serve_unattributed_ms", ms(whole_ns) - ms(sums.staged_ns()));
        values.set("core.optimise_ms", ms(sums.optimise_ns));
        values.set("core.measure_ms.baseline", ms(sums.measure_baseline_ns));
        // Both HALO allocators of a window: the static twin and serve's.
        values.set("core.measure_ms.halo", ms(sums.measure_halo_ns));
        values.set(
            "core.measure_ns_per_access",
            per(sums.measure_baseline_ns + sums.measure_halo_ns, sums.measured_accesses),
        );
        values.set("core.l1d_miss_reduction_pct", round.quality_pct);
        values.set("profile.run_ms", ms(sums.profile_ns));
        values.set("profile.ns_per_access", per(sums.profile_ns, sums.profile_accesses));
        values.set("profile.queue_work", sums.queue_work as f64);
        values.set("profile.contexts", sums.contexts as f64);
        values.set("profile.graph_edges", sums.graph_edges as f64);
        values.set("profile.stream_absorb_ms", ms(sums.absorb_ns));
        values.set("graph.group_ms", ms(sums.group_ns));
        values.set("graph.drift_ms", ms(sums.drift_ns));
        values.set("graph.groups", sums.groups as f64);
        values.set("graph.nodes", sums.graph_nodes as f64);
        values.set("graph.edges", sums.graph_edges as f64);
        sums.probe.report(values, "cache.replay_mt_ns_per_access");
        values.set("cache.l1d_misses", sums.base_misses as f64);
        values.set(
            "cache.l1d_miss_ratio",
            sums.base_misses as f64 / sums.base_accesses.max(1) as f64,
        );
        values.set("cache.invalidations", sums.invalidations as f64);
        let swaps: Vec<f64> =
            report.rows.iter().filter(|r| r.swapped).map(|r| r.swap_latency_us).collect();
        if !swaps.is_empty() {
            values.set("mem.swap_plans_us_p50", stats::median(&swaps));
        }
        if let Some(s) = sums.serve_alloc {
            let a = s.alloc;
            values.set(
                "mem.grouped_share",
                a.grouped_allocs as f64 / (a.grouped_allocs + a.fallback_allocs).max(1) as f64,
            );
            values.set("mem.chunks_created", a.chunks_created as f64);
            values.set("mem.chunks_reused", a.chunks_reused as f64);
            values.set("mem.chunks_purged", a.chunks_purged as f64);
            values.set("mem.remote_frees", s.remote_frees as f64);
            values.set("mem.remote_peak_queue", s.remote_peak_queue as f64);
            values.set("mem.queue_overflows", s.degrade.queue_overflows as f64);
            values.set("mem.degraded_groups", s.degrade.degraded_groups as f64);
        }
        round
    }
}

#[derive(Default)]
struct Sums {
    optimise_ns: u64,
    profile_ns: u64,
    absorb_ns: u64,
    group_ns: u64,
    drift_ns: u64,
    measure_baseline_ns: u64,
    measure_halo_ns: u64,
    measured_accesses: u64,
    profile_accesses: u64,
    queue_work: u64,
    contexts: u64,
    graph_nodes: u64,
    graph_edges: u64,
    groups: u64,
    base_misses: u64,
    base_accesses: u64,
    invalidations: u64,
    probe: VmCacheProbe,
    serve_alloc: Option<halo_mem::ShardedAllocStats>,
}

impl Sums {
    fn staged_ns(&self) -> u64 {
        self.optimise_ns
            + self.profile_ns
            + self.absorb_ns
            + self.group_ns
            + self.drift_ns
            + self.measure_baseline_ns
            + self.measure_halo_ns
    }
}

/// Measure one window against a long-lived sharded allocator, as serve
/// does (the allocator keeps its heap across windows).
fn measure_serving(
    alloc: &ShardedHaloAllocator,
    program: &Program,
    config: &MeasureConfig,
) -> Result<Measurement, String> {
    let mut handle = alloc;
    measure(program, &mut handle, config).map_err(|e| format!("replay serve: measure: {e}"))
}

/// Walk the windows of `report` through the public entry points, timing
/// each stage. The replay decides nothing: whether a window regrouped and
/// whether it swapped are read off serve's own rows, so the swap policy
/// lives in `halo_core::serve` alone and may change without touching this.
///
/// Serve's re-optimisation goes through the private `assemble` and
/// `alloc_plan`, which this replay must not copy: `optimise_with_arg` on
/// the window's binary and a fresh sharded allocator stand in for it.
/// Checked exactly: every window's static-twin miss reduction and serve's
/// own until the first swap (after it the stand-in's heap differs from
/// the swapped one's), and that the rows account for `report.swaps`.
fn replay(
    input: &Input,
    report: &ServeReport,
    tracer: &mut Tracer,
    sums: &mut Sums,
) -> Result<Vec<String>, String> {
    let (phases, config) = (&input.phases, &input.config);
    let mut mismatches = Vec::new();
    let vm_err = |e: &dyn std::fmt::Display| format!("replay serve: {e}");
    let replay_span = tracer.begin("replay", "bench");

    let mut halo_config = config.halo;
    halo_config.hierarchy = config.measure.hierarchy;
    halo_config.timing = config.measure.timing;
    let halo = Halo::new(halo_config);
    let first = &phases[0];
    let mut optimise = |tracer: &mut Tracer, phase: &ServePhase| {
        let (result, ns) = tracer.time("core.optimise", "core", || {
            halo.optimise_with_arg(&phase.program, phase.train_seed, phase.train_arg)
        });
        sums.optimise_ns += ns;
        result
    };
    let initial = optimise(tracer, first).map_err(|e| vm_err(&e))?;
    let static_opt = optimise(tracer, first).map_err(|e| vm_err(&e))?;
    let mut serve_alloc = halo.make_sharded_allocator(&initial, config.shards);
    let static_alloc = halo.make_sharded_allocator(&static_opt, config.shards);

    let mut stream = ProfileStream::new(config.decay);
    let ((), ns) =
        tracer.time("profile.stream_absorb", "profile", || stream.absorb(&initial.profile));
    sums.absorb_ns += ns;
    // The plan in force, while it was made for the binary now running.
    let mut active = Some(initial);
    let mut swaps = 0u64;
    let mut rows = report.rows.iter();

    for (phase_idx, phase) in phases.iter().enumerate() {
        if phase_idx > 0 {
            // Another binary: its node ids mean other contexts, so neither
            // the stream nor the rewritten program carries over.
            stream = ProfileStream::new(config.decay);
            active = None;
        }
        for _ in 0..phase.windows {
            let row = rows.next().ok_or("replay serve: report has too few rows")?;
            let (profile, ns) = tracer.time("profile.run", "profile", || {
                halo.profile_with_arg(&phase.program, phase.train_seed, phase.train_arg)
            });
            sums.profile_ns += ns;
            let profile = profile.map_err(|e| vm_err(&e))?;
            let ((), ns) =
                tracer.time("profile.stream_absorb", "profile", || stream.absorb(&profile));
            sums.absorb_ns += ns;
            sums.profile_accesses += profile.total_accesses;
            sums.queue_work += profile.queue_work;
            sums.contexts += profile.contexts.len() as u64;

            if row.drift.is_some() {
                let (fresh, ns) = tracer.time("graph.group", "graph", || {
                    group(stream.graph(), &halo.config().grouping)
                });
                sums.group_ns += ns;
                sums.groups += fresh.len() as u64;
                if let Some(plan) = &active {
                    let (_, ns) = tracer.time("graph.drift", "graph", || {
                        std::hint::black_box(grouping_drift(&plan.groups, &fresh))
                    });
                    sums.drift_ns += ns;
                }
            }
            if row.swapped {
                swaps += 1;
                // The stand-in for serve's private assemble + swap_plans:
                // benchmark overhead, not attributed to a layer.
                let (reopt, _) = tracer.time("replay.reoptimise_stand_in", "bench", || {
                    halo.optimise_with_arg(&phase.program, phase.train_seed, phase.train_arg)
                });
                let reopt = reopt.map_err(|e| vm_err(&e))?;
                serve_alloc = halo.make_sharded_allocator(&reopt, config.shards);
                active = Some(reopt);
            }

            let mcfg = MeasureConfig {
                seed: phase.ref_seed + row.window,
                entry_arg: phase.ref_arg,
                ..config.measure
            };
            let span = tracer.begin("core.measure.baseline", "core");
            let baseline = measure(&phase.program, &mut SizeClassAllocator::new(), &mcfg);
            sums.measure_baseline_ns += tracer.end(span);
            let baseline = baseline.map_err(|e| vm_err(&e))?;
            // A rewritten program exists only for the binary it was made
            // from; any other runs unmodified on the same allocator.
            let span = tracer.begin("core.measure.static", "core");
            let static_program = if phase_idx == 0 { &static_opt.program } else { &phase.program };
            let static_m = measure_serving(&static_alloc, static_program, &mcfg);
            sums.measure_halo_ns += tracer.end(span);
            let static_m = static_m?;
            let span = tracer.begin("core.measure.serve", "core");
            let serve_program = active.as_ref().map_or(&phase.program, |plan| &plan.program);
            let serve_m = measure_serving(&serve_alloc, serve_program, &mcfg);
            sums.measure_halo_ns += tracer.end(span);
            let serve_m = serve_m?;

            for m in [&baseline, &static_m, &serve_m] {
                sums.measured_accesses += m.stats.accesses();
                sums.invalidations += m.coherence.invalidations;
            }
            sums.base_misses += baseline.stats.l1_misses;
            sums.base_accesses += baseline.stats.accesses();
            let static_mr = static_m.miss_reduction_vs(&baseline);
            if static_mr.to_bits() != row.static_miss_reduction.to_bits() {
                mismatches.push(format!(
                    "replay serve: window {} static miss reduction {static_mr} vs {}",
                    row.window, row.static_miss_reduction
                ));
            }
            let serve_mr = serve_m.miss_reduction_vs(&baseline);
            if swaps == 0 && serve_mr.to_bits() != row.miss_reduction.to_bits() {
                mismatches.push(format!(
                    "replay serve: window {} serve miss reduction {serve_mr} vs {}",
                    row.window, row.miss_reduction
                ));
            }
        }
    }
    tracer.end(replay_span);
    if swaps != report.swaps {
        mismatches.push(format!(
            "replay serve: rows mark {swaps} windows as swapped, serve counted {}",
            report.swaps
        ));
    }
    sums.graph_nodes = stream.graph().len() as u64;
    sums.graph_edges = stream.graph().edge_count() as u64;
    sums.serve_alloc = Some(serve_alloc.sharded_stats());
    Ok(mismatches)
}

/// The VM alone and the coherent cache model alone, on each distinct
/// program's ref input (thread switches included).
fn layer_probes(input: &Input, tracer: &mut Tracer, sums: &mut Sums) {
    tracer.next_op();
    let probes = tracer.begin("layer_probes", "bench");
    let mut seen: Vec<&str> = Vec::new();
    for phase in &input.phases {
        if seen.contains(&phase.name.as_str()) {
            continue;
        }
        seen.push(&phase.name);
        let measure = MeasureConfig {
            seed: phase.ref_seed,
            entry_arg: phase.ref_arg,
            ..input.config.measure
        };
        sums.probe.run(tracer, &phase.program, &measure, "cache.replay_mt");
    }
    tracer.end(probes);
}
