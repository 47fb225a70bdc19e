//! `spec-sweep`: the paper's §5 evaluation. One operation is
//! `evaluate_with_arg` of one of the 11 programs under
//! `halo_bench::paper_config` with the always-on backends (`baseline`,
//! `halo`, `hds`); one round is a pass over all 11.
//!
//! Measurement-bound: at the seed commit one pass spends roughly half its
//! time in the cache model and allocator, a third in the VM interpreter,
//! a tenth in the HDS trace and SEQUITUR, and well under a thousandth in
//! graph + ident + rewrite. A cache, VM or HDS change must show here; a
//! graph or identify change must not.

use super::{fingerprint_measurement, guarded, VmCacheProbe};
use crate::expected::Expected;
use crate::fingerprint::Fingerprint;
use crate::harness::{LayerValues, OpSample, Round, Scale, Workload};
use crate::json::Json;
use crate::metrics::PROGRAMS;
use crate::span::Tracer;
use crate::stats;
use halo_core::{evaluate_with_arg, measure_detailed, EvalConfig, EvalResult, Halo, Measurement};
use halo_graph::{group, Granularity, ReusePolicyChoice};
use halo_mem::{HaloGroupAllocator, SizeClassAllocator};
use halo_vm::Engine;
use std::time::Instant;

/// The programs of a `--smoke` run and of every warm-up: the four
/// cheapest, covering wrappers (povray), deep indirect call chains
/// (xalanc) and direct mallocs (analyzer, ft).
const SMOKE_PROGRAMS: [&str; 4] = ["povray", "xalanc", "analyzer", "ft"];

pub struct SpecSweep {
    pub seed: u64,
}

pub struct Prog {
    w: halo_workloads::Workload,
    config: EvalConfig,
    kind: usize,
}

pub struct Input {
    progs: Vec<Prog>,
    expected: &'static Result<Expected, String>,
    seed: u64,
}

fn evaluate_one(p: &Prog) -> Result<EvalResult, String> {
    guarded(&format!("evaluate {}", p.w.name), || {
        evaluate_with_arg(&p.w.program, p.w.name, p.w.train.seed, p.w.train.arg, &p.config)
            .map_err(|e| format!("evaluate {}: {e}", p.w.name))
    })
}

/// The output checks of one evaluation.
fn check(input: &Input, p: &Prog, r: &EvalResult) -> Vec<String> {
    let name = p.w.name;
    let mut failures = Vec::new();
    let base = &r.baseline().measurement;
    // The reference machine model: pinned, independent of the pipeline.
    match input.expected.as_ref().map(|e| e.lookup(input.seed, name)) {
        Ok(Ok(Some(want))) => {
            let got = (base.stats.l1_misses, base.stats.accesses(), base.instructions);
            if got != (want.l1d_misses, want.accesses, want.instructions) {
                failures.push(format!(
                    "{name}: baseline (l1d_misses, accesses, instructions) = {got:?}, \
                     expected/baseline.json pins ({}, {}, {})",
                    want.l1d_misses, want.accesses, want.instructions
                ));
            }
        }
        Ok(Ok(None)) => {} // seed not pinned: consistency checks only
        Ok(Err(e)) => failures.push(e),
        Err(e) => failures.push(e.clone()),
    }
    for (id, c) in &r.backends {
        let m = &c.measurement;
        if (m.allocs, m.frees) != (base.allocs, base.frees) {
            failures.push(format!(
                "{name}: backend {id} saw {} allocs / {} frees, baseline {} / {}",
                m.allocs, m.frees, base.allocs, base.frees
            ));
        }
    }
    if r.halo().measurement.instructions < base.instructions {
        failures.push(format!("{name}: rewritten binary retired fewer instructions than original"));
    }
    failures
}

/// Sums over the programs of a pass, from which the exact metrics come.
#[derive(Default)]
struct Totals {
    miss_ratios: Vec<f64>,
    cycle_ratios: Vec<f64>,
    wasted: u64,
    peak_resident: u64,
    fp: Fingerprint,
}

impl Totals {
    fn add(&mut self, r: &EvalResult) {
        let (base, halo) = (&r.baseline().measurement, &r.halo().measurement);
        self.miss_ratios
            .push(halo.stats.l1_misses.max(1) as f64 / base.stats.l1_misses.max(1) as f64);
        self.cycle_ratios.push(base.cycles / halo.cycles);
        if let Some(frag) = r.halo().frag {
            self.wasted += frag.wasted_bytes();
            self.peak_resident += frag.peak_resident_bytes;
        }
        self.fp.push_str(&r.name);
        for (id, c) in &r.backends {
            self.fp.push_str(id);
            fingerprint_measurement(&mut self.fp, &c.measurement);
        }
        self.fp.push(r.optimised.groups.len() as u64);
    }

    /// Fig. 13: 100·(1 − geomean halo/baseline L1D misses).
    fn miss_reduction_pct(&self) -> f64 {
        100.0 * (1.0 - stats::geomean(&self.miss_ratios))
    }

    /// Fig. 14: 100·(geomean baseline/halo simulated cycles − 1).
    fn sim_speedup_pct(&self) -> f64 {
        100.0 * (stats::geomean(&self.cycle_ratios) - 1.0)
    }

    /// Table 1: Σ wasted ÷ Σ peak-resident bytes of the grouped pools.
    fn frag_pct(&self) -> f64 {
        100.0 * self.wasted as f64 / self.peak_resident.max(1) as f64
    }

    fn finish(self, round: &mut Round) {
        if self.miss_ratios.is_empty() {
            return; // every operation failed; the failures say why
        }
        round.quality_pct = self.miss_reduction_pct();
        round.exact = vec![
            ("l1d_miss_reduction_pct", self.miss_reduction_pct()),
            ("sim_speedup_pct", self.sim_speedup_pct()),
            ("frag_pct", self.frag_pct()),
        ];
        round.fingerprint = self.fp;
    }
}

impl Workload for SpecSweep {
    type Input = Input;

    fn kinds(&self) -> Vec<String> {
        PROGRAMS.iter().map(|p| (*p).to_string()).collect()
    }

    fn build(&self, scale: Scale) -> Input {
        let progs = halo_workloads::all()
            .into_iter()
            .filter(|w| scale == Scale::Full || SMOKE_PROGRAMS.contains(&w.name))
            .map(|mut w| {
                // `--seed` shifts both inputs of every program.
                w.train.seed += self.seed;
                w.reference.seed += self.seed;
                let config = halo_bench::paper_config(&w);
                let kind = PROGRAMS.iter().position(|p| *p == w.name).expect("a paper program");
                Prog { w, config, kind }
            })
            .collect();
        Input { progs, expected: Expected::committed(), seed: self.seed }
    }

    fn warm_up(&self, input: &mut Input) {
        for p in &input.progs {
            let _ = std::hint::black_box(evaluate_one(p));
        }
    }

    fn round(&self, input: &mut Input) -> Round {
        let mut round = Round::default();
        let mut totals = Totals::default();
        for p in &input.progs {
            let start = Instant::now();
            let result = evaluate_one(p);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            round.ops.push(OpSample { kind: p.kind, ms });
            round.wall_s += ms / 1e3;
            round.attempted += 1;
            match result {
                Ok(r) => {
                    round.failures.extend(check(input, p, &r));
                    totals.add(&r);
                }
                Err(e) => round.failures.push(e),
            }
        }
        totals.finish(&mut round);
        round
    }

    fn trace(&self, input: &mut Input, tracer: &mut Tracer, values: &mut LayerValues) -> Round {
        let (_, build_ns) = tracer
            .time("workloads.build", "workloads", || std::hint::black_box(halo_workloads::all()));
        values.set("workloads.build_ms", build_ns as f64 / 1e6);

        let mut round = Round::default();
        let mut totals = Totals::default();
        let mut sums = Sums::default();
        for p in &input.progs {
            tracer.next_op();
            let whole = tracer.begin("core.evaluate", "core");
            let result = evaluate_one(p);
            let whole_ns = tracer.end(whole);
            round.attempted += 1;
            let r = match result {
                Ok(r) => r,
                Err(e) => {
                    round.failures.push(e);
                    continue;
                }
            };
            round.failures.extend(check(input, p, &r));
            totals.add(&r);
            values.set(&format!("core.evaluate_ms.{}", p.w.name), whole_ns as f64 / 1e6);
            sums.whole_ns += whole_ns;
            if p.w.name == "health" {
                sums.health_whole_ns = whole_ns;
            }
            match guarded(&format!("replay {}", p.w.name), || replay(p, &r, tracer, &mut sums)) {
                Ok(mismatches) => round.failures.extend(mismatches),
                Err(e) => round.failures.push(e),
            }
            sums.add_counters(&r);
        }
        layer_probes(input, tracer, &mut sums);
        sums.report(values);
        values.set("core.l1d_miss_reduction_pct", totals.miss_reduction_pct());
        values.set("core.sim_speedup_pct", totals.sim_speedup_pct());
        values.set("mem.frag_pct", totals.frag_pct());
        totals.finish(&mut round);
        round
    }
}

/// Nanosecond and event totals over the programs of a traced pass.
#[derive(Default)]
struct Sums {
    whole_ns: u64,
    health_whole_ns: u64,
    health_serial_ns: u64,
    optimise_ns: u64,
    policy_ns: u64,
    profile_ns: u64,
    group_ns: u64,
    identify_ns: u64,
    instrument_ns: u64,
    hds_trace_ns: u64,
    hds_analyze_ns: u64,
    measure_ns: [u64; 3],
    measured_accesses: u64,
    profile_accesses: u64,
    queue_work: u64,
    contexts: u64,
    graph_nodes: u64,
    graph_edges: u64,
    groups: u64,
    selectors: u64,
    site_bits: u64,
    sites: u64,
    hot_streams: u64,
    base_instr: u64,
    halo_instr: u64,
    base_misses: u64,
    base_accesses: u64,
    invalidations: u64,
    grouped_allocs: u64,
    all_allocs: u64,
    chunks: [u64; 3],
    degraded_groups: u64,
    probe: VmCacheProbe,
}

const BACKENDS: [&str; 3] = ["baseline", "halo", "hds"];

impl Sums {
    fn add_counters(&mut self, r: &EvalResult) {
        let (base, halo) = (&r.baseline().measurement, &r.halo().measurement);
        self.base_instr += base.instructions;
        self.halo_instr += halo.instructions;
        self.base_misses += base.stats.l1_misses;
        self.base_accesses += base.stats.accesses();
        self.invalidations +=
            r.backends.iter().map(|(_, c)| c.measurement.coherence.invalidations).sum::<u64>();
        if let Some(s) = r.halo().alloc_stats {
            self.grouped_allocs += s.grouped_allocs;
            self.all_allocs += s.grouped_allocs + s.fallback_allocs;
            self.chunks[0] += s.chunks_created;
            self.chunks[1] += s.chunks_reused;
            self.chunks[2] += s.chunks_purged;
        }
        self.degraded_groups += r.halo().degrade.map_or(0, |d| d.degraded_groups);
        self.groups += r.optimised.groups.len() as u64;
        self.selectors += r.optimised.ident.selectors.len() as u64;
        self.site_bits += r.optimised.ident.site_bits.len() as u64;
        self.sites += r.optimised.rewrite.sites_instrumented as u64;
        self.hot_streams += r.hds_analysis.stats.hot_streams as u64;
    }

    fn report(&self, v: &mut LayerValues) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
        v.set("core.whole_op_ms", ms(self.whole_ns));
        v.set("core.optimise_ms", ms(self.optimise_ns));
        v.set("core.policy_validation_ms", ms(self.policy_ns));
        for (i, id) in BACKENDS.iter().enumerate() {
            v.set(&format!("core.measure_ms.{id}"), ms(self.measure_ns[i]));
        }
        let measure_total: u64 = self.measure_ns.iter().sum();
        v.set("core.measure_ns_per_access", per(measure_total, self.measured_accesses));
        // Whole minus the serial replay's stages. The whole operation
        // measures its three backends in parallel, the replay one after
        // the other, so on a multi-core host this is negative by the
        // overlap; on one core it is the harness overhead.
        let staged = self.optimise_ns + self.hds_trace_ns + self.hds_analyze_ns + measure_total;
        v.set("core.evaluate_unattributed_ms", ms(self.whole_ns) - ms(staged));
        if self.health_serial_ns > 0 {
            v.set(
                "core.par_speedup",
                self.health_serial_ns as f64 / self.health_whole_ns.max(1) as f64,
            );
        }
        v.set("profile.run_ms", ms(self.profile_ns));
        v.set("profile.ns_per_access", per(self.profile_ns, self.profile_accesses));
        v.set("profile.queue_work", self.queue_work as f64);
        v.set("profile.contexts", self.contexts as f64);
        v.set("profile.graph_edges", self.graph_edges as f64);
        v.set("graph.group_ms", ms(self.group_ns));
        v.set("graph.nodes", self.graph_nodes as f64);
        v.set("graph.edges", self.graph_edges as f64);
        v.set("graph.groups", self.groups as f64);
        v.set("ident.identify_ms", ms(self.identify_ns));
        v.set("ident.selectors", self.selectors as f64);
        v.set("ident.site_bits", self.site_bits as f64);
        v.set("rewrite.instrument_ms", ms(self.instrument_ns));
        v.set("rewrite.sites", self.sites as f64);
        v.set(
            "rewrite.instr_overhead_pct",
            100.0 * (self.halo_instr as f64 / self.base_instr.max(1) as f64 - 1.0),
        );
        v.set("hds.trace_ms", ms(self.hds_trace_ns));
        v.set("hds.analyze_ms", ms(self.hds_analyze_ns));
        v.set("hds.streams", self.hot_streams as f64);
        self.probe.report(v, "cache.replay_ns_per_access");
        v.set("cache.l1d_misses", self.base_misses as f64);
        v.set("cache.l1d_miss_ratio", self.base_misses as f64 / self.base_accesses.max(1) as f64);
        v.set("cache.invalidations", self.invalidations as f64);
        v.set("mem.grouped_share", self.grouped_allocs as f64 / self.all_allocs.max(1) as f64);
        v.set("mem.chunks_created", self.chunks[0] as f64);
        v.set("mem.chunks_reused", self.chunks[1] as f64);
        v.set("mem.chunks_purged", self.chunks[2] as f64);
        v.set("mem.degraded_groups", self.degraded_groups as f64);
    }
}

/// Replay one evaluation stage by stage through the public entry points
/// and compare every artefact with the whole operation's. Returns the
/// mismatches (each fails the operation).
///
/// `assemble`, `resolve_auto`, `resolve_reuse` and `alloc_plan` are
/// private: `optimise_with_arg` runs as one opaque call, the four stage
/// probes run beside it, and what they do not explain is reported as
/// `core.policy_validation` (the `auto` policies' train-input runs).
fn replay(
    p: &Prog,
    whole: &EvalResult,
    tracer: &mut Tracer,
    sums: &mut Sums,
) -> Result<Vec<String>, String> {
    let name = p.w.name;
    let (program, cfg) = (&p.w.program, &p.config);
    let vm_err = |what: &str, e: &dyn std::fmt::Display| format!("replay {name}: {what}: {e}");
    let mut mismatches = Vec::new();
    let replay_span = tracer.begin("replay", "bench");

    // As `evaluate_with_arg` does: the auto policies must validate
    // against the geometry the measurements use.
    let mut halo_config = cfg.halo;
    halo_config.hierarchy = cfg.measure.hierarchy;
    halo_config.timing = cfg.measure.timing;
    let halo = Halo::new(halo_config);

    let optimise_span = tracer.begin("replay.optimise_whole", "bench");
    let optimised = halo.optimise_with_arg(program, p.w.train.seed, p.w.train.arg);
    let optimise_ns = tracer.end(optimise_span);
    let optimised = optimised.map_err(|e| vm_err("optimise", &e))?;

    let probes = tracer.begin("replay.stage_probes", "bench");
    let (profile, profile_ns) = tracer.time("profile.run", "profile", || {
        halo.profile_with_arg(program, p.w.train.seed, p.w.train.arg)
    });
    let profile = profile.map_err(|e| vm_err("profile", &e))?;
    let graph = match optimised.granularity {
        Granularity::Page => &profile.page_graph,
        _ => &profile.graph,
    };
    let (groups, group_ns) =
        tracer.time("graph.group", "graph", || group(graph, &cfg.halo.grouping));
    let (ident, identify_ns) = tracer.time("ident.identify", "ident", || {
        halo_ident::identify(&groups, &halo_ident::contexts_from_profile(&profile))
    });
    let ((_, rewrite), instrument_ns) = tracer.time("rewrite.instrument", "rewrite", || {
        halo_rewrite::instrument(program, &ident.site_bits)
    });
    tracer.end(probes);
    let stage_ns = profile_ns + group_ns + identify_ns + instrument_ns;
    let policy_ns = optimise_ns.saturating_sub(stage_ns);
    tracer.derived("core.policy_validation", "core", optimise_span, policy_ns);

    let trace_span = tracer.begin("hds.trace", "hds");
    let mut collector = halo_profile::TraceCollector::new();
    let traced = Engine::new(program)
        .with_seed(p.w.train.seed)
        .with_entry_arg(p.w.train.arg)
        .with_limits(cfg.halo.limits)
        .run(&mut SizeClassAllocator::new(), &mut collector);
    let hds_trace_ns = tracer.end(trace_span);
    traced.map_err(|e| vm_err("hds trace", &e))?;
    let heap_trace = collector.finish();
    let (hds, hds_analyze_ns) =
        tracer.time("hds.analyze", "hds", || halo_hds::analyze(&heap_trace, &cfg.hds));

    let mut measured: Vec<Measurement> = Vec::new();
    for (i, id) in BACKENDS.iter().enumerate() {
        let span = tracer.begin(format!("core.measure.{id}"), "core");
        let detail = match *id {
            "baseline" => measure_detailed(program, &mut SizeClassAllocator::new(), &cfg.measure),
            "halo" => measure_detailed(
                &optimised.program,
                &mut halo.make_allocator(&optimised),
                &cfg.measure,
            ),
            _ => measure_detailed(
                program,
                &mut HaloGroupAllocator::with_site_groups(cfg.halo.alloc, hds.site_map.clone()),
                &cfg.measure,
            ),
        };
        let accesses = detail.as_ref().map_or(0, |d| d.measurement.stats.accesses());
        sums.measure_ns[i] += tracer.end_counted(span, accesses, "access");
        sums.measured_accesses += accesses;
        measured.push(detail.map_err(|e| vm_err(id, &e))?.measurement);
    }
    tracer.end(replay_span);

    // The equalities that license attributing the whole operation's
    // wall-clock to these stages.
    let members = |gs: &[halo_graph::Group]| -> Vec<(Vec<halo_graph::NodeId>, u64)> {
        gs.iter().map(|g| (g.members.clone(), g.weight)).collect()
    };
    if optimised.groups != whole.optimised.groups {
        mismatches.push(format!("replay {name}: optimise formed different groups than evaluate"));
    }
    let auto = cfg.halo.profile.granularity == Granularity::Auto
        || cfg.halo.reuse == ReusePolicyChoice::Auto;
    if !auto {
        if members(&groups) != members(&whole.optimised.groups) {
            mismatches.push(format!("replay {name}: stage-by-stage groups differ from evaluate's"));
        }
        if rewrite != whole.optimised.rewrite {
            mismatches.push(format!("replay {name}: stage-by-stage rewrite report differs"));
        }
    }
    for (id, m) in BACKENDS.iter().zip(&measured) {
        if whole.get(id).map(|c| &c.measurement) != Some(m) {
            mismatches
                .push(format!("replay {name}: backend {id} measured differently than evaluate"));
        }
    }

    sums.optimise_ns += optimise_ns;
    sums.policy_ns += policy_ns;
    sums.profile_ns += profile_ns;
    sums.group_ns += group_ns;
    sums.identify_ns += identify_ns;
    sums.instrument_ns += instrument_ns;
    sums.hds_trace_ns += hds_trace_ns;
    sums.hds_analyze_ns += hds_analyze_ns;
    sums.profile_accesses += profile.total_accesses;
    sums.queue_work += profile.queue_work;
    sums.contexts += profile.contexts.len() as u64;
    sums.graph_nodes += profile.graph.len() as u64;
    sums.graph_edges += profile.graph.edge_count() as u64;
    Ok(mismatches)
}

/// The VM-alone and cache-alone probes on every program's ref input, and
/// the serial evaluation behind `core.par_speedup`.
fn layer_probes(input: &Input, tracer: &mut Tracer, sums: &mut Sums) {
    tracer.next_op();
    let probes = tracer.begin("layer_probes", "bench");
    for p in &input.progs {
        sums.probe.run(tracer, &p.w.program, &p.config.measure, "cache.replay");
    }
    // `health` again with the program's parallelism forced off. Nothing
    // else runs in this process now, so flipping the variable is safe.
    if let Some(health) = input.progs.iter().find(|p| p.w.name == "health") {
        let prior = std::env::var_os("HALO_THREADS");
        std::env::set_var("HALO_THREADS", "1");
        let span = tracer.begin("core.evaluate.serial", "core");
        let _ = std::hint::black_box(evaluate_one(health));
        sums.health_serial_ns = tracer.end(span);
        match prior {
            Some(value) => std::env::set_var("HALO_THREADS", value),
            None => std::env::remove_var("HALO_THREADS"),
        }
    }
    tracer.end(probes);
}

/// Seeds `0..PINNED_SEEDS` have their baseline counts in
/// `expected/baseline.json`; the driver varies `--seed`, so one is not
/// enough, and other seeds run the remaining checks only.
const PINNED_SEEDS: u64 = 16;

/// `benchmark pin-baseline`: print `expected/baseline.json` — the baseline
/// allocator on the unmodified binary, through `measure` alone (no
/// pipeline stage runs), for every pinned seed.
pub fn cmd_pin_baseline(args: &[String]) -> Result<std::process::ExitCode, String> {
    if !args.is_empty() {
        return Err("pin-baseline takes no arguments".into());
    }
    let mut by_seed = Json::obj();
    for seed in 0..PINNED_SEEDS {
        let input = SpecSweep { seed }.build(Scale::Full);
        let mut programs = Json::obj();
        for p in &input.progs {
            let m =
                halo_core::measure(&p.w.program, &mut SizeClassAllocator::new(), &p.config.measure)
                    .map_err(|e| format!("{} on seed {seed}: {e}", p.w.name))?;
            programs = programs.set(
                p.w.name,
                Json::obj()
                    .set("l1d_misses", m.stats.l1_misses)
                    .set("accesses", m.stats.accesses())
                    .set("instructions", m.instructions),
            );
        }
        by_seed = by_seed.set(&seed.to_string(), programs);
    }
    let doc = Json::obj()
        .set("schema", "halo-benchmark-baseline/v1")
        .set(
            "what",
            "jemalloc-style baseline allocator, unmodified binary, ref input, Xeon W-2195 model: \
             per --seed and program",
        )
        .set("seeds", by_seed);
    print!("{}", doc.pretty());
    Ok(std::process::ExitCode::SUCCESS)
}
