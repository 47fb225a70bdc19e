//! The `halo` command-line tool, mirroring the paper artefact's workflow
//! (§A.5): `halo baseline`, `halo run`, and `halo plot`, with the §A.8
//! per-benchmark flags (`--chunk-size`, `--max-spare-chunks`,
//! `--max-groups`, …).
//!
//! ```text
//! halo list
//! halo baseline --benchmark povray
//! halo run --benchmark povray --affinity-distance 128 --json
//! halo run --benchmark omnetpp --chunk-size 131072 --max-spare-chunks 0
//! halo plot
//! ```

mod json;

use halo::core::{
    evaluate_with_arg, par_each_ordered, serve, ConfigResult, EpochRow, EvalConfig, EvalResult,
    Measurement, ServeConfig, ServePhase,
};
use halo::graph::{Granularity, ReusePolicyChoice};
use halo::mem::{DegradeStats, FaultPlan, FaultSite, ShardedAllocStats};
use halo::workloads::{all, Workload};
use halo_bench::pct;
use json::Json;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Rust ignores SIGPIPE by default, which turns `halo list | head` into a
/// broken-pipe panic; restore the default disposition so the process just
/// terminates like other CLI tools.
#[cfg(unix)]
fn reset_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn reset_sigpipe() {}

fn main() -> ExitCode {
    reset_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "list" => cmd_list(),
        "baseline" => cmd_baseline(&args[1..]),
        "run" => cmd_run(&args[1..]),
        "plot" => cmd_plot(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "halo — post-link heap-layout optimisation (CGO 2020 reproduction)\n\
         \n\
         USAGE:\n\
         \thalo list\n\
         \thalo baseline --benchmark <name>\n\
         \thalo run --benchmark <name[,name…]|all> [options]\n\
         \thalo plot [--metric misses|speedup]\n\
         \thalo serve --phases <name:windows[,name:windows…]> [options]\n\
         \n\
         Multi-workload sweeps (run/plot/baseline over several benchmarks)\n\
         fan out across CPU cores; output order is deterministic. Set\n\
         HALO_THREADS=1 to force the serial path.\n\
         \n\
         RUN OPTIONS (defaults follow §5.1):\n\
         \t--affinity-distance <bytes>   affinity distance A (default 128)\n\
         \t--chunk-size <bytes>          group-chunk size (default 1048576)\n\
         \t--max-spare-chunks <n|inf>    dirty chunks kept before purging (default 1)\n\
         \t--max-groups <n>              cap on groups (default unlimited)\n\
         \t--merge-tolerance <fraction>  grouping slack T (default 0.05)\n\
         \t--granularity object|page|auto  grouping granularity (default: the\n\
         \t                              paper's object mode; roms/omnetpp default\n\
         \t                              to auto, the §6 page-fallback policy)\n\
         \t--reuse-policy bump|sharded|auto  in-chunk reuse policy for group\n\
         \t                              plans (default: the paper's bump mode;\n\
         \t                              leela/health/roms default to auto, which\n\
         \t                              flips fragmentation-heavy groups to\n\
         \t                              sharded free lists when the train input\n\
         \t                              validates the flip)\n\
         \t--shards <n>                  also run the thread-safe sharded HALO\n\
         \t                              runtime with n shards (the mt workloads\n\
         \t                              `server` and `xalanc-mt` exercise its\n\
         \t                              cross-thread remote-free path)\n\
         \t--inject <schedule>           replay a deterministic fault schedule\n\
         \t                              against the HALO backends and report\n\
         \t                              the degradation ladder's counters.\n\
         \t                              Comma-separated seed=N, site@N (exact\n\
         \t                              1-based occurrence), site~P (rate);\n\
         \t                              sites: vmm, chunk, queue\n\
         \t                              (e.g. seed=7,vmm@3,queue~0.01)\n\
         \t--measure sim|real            sim (default): the simulated hierarchy\n\
         \t                              with the MESI-lite coherence model.\n\
         \t                              real: wall-clock the sharded runtime\n\
         \t                              serially vs. on real OS threads (needs\n\
         \t                              a multi-core host; implies --shards)\n\
         \t--hds                         also run the hot-data-streams technique\n\
         \t--random                      also run the random four-pool allocator\n\
         \t--ptmalloc                    also run the ptmalloc2-style baseline\n\
         \t--json                        machine-readable output\n\
         \n\
         SERVE OPTIONS (online re-optimisation, DESIGN.md §15):\n\
         \t--phases <script>             the scripted workload-mix shift: comma-\n\
         \t                              separated name:windows pairs served in\n\
         \t                              order (e.g. server:2,xalanc-mt:3). Each\n\
         \t                              window streams a decayed profile, checks\n\
         \t                              grouping drift, hot-swaps the plan when\n\
         \t                              it drifts, and measures serve vs the\n\
         \t                              static phase-0 plan vs the baseline\n\
         \t--shards <n>                  shard count of the serving allocator (default 4)\n\
         \t--decay <fraction>            per-window retention of the streaming\n\
         \t                              affinity graph (default 0.5)\n\
         \t--drift-threshold <fraction>  re-optimise when grouping drift exceeds\n\
         \t                              this (default 0.3)\n\
         \t--regroup-every <n>           re-group the streamed graph every n\n\
         \t                              windows (default 1)\n\
         \t--json                        machine-readable per-epoch report (the\n\
         \t                              swap_latency_us fields are wall-clock —\n\
         \t                              everything else replays deterministically)"
    );
}

#[derive(Default)]
struct Flags {
    benchmark: Option<String>,
    affinity_distance: Option<u64>,
    chunk_size: Option<u64>,
    max_spare_chunks: Option<usize>,
    max_groups: Option<usize>,
    merge_tolerance: Option<f64>,
    granularity: Option<Granularity>,
    reuse_policy: Option<ReusePolicyChoice>,
    shards: Option<usize>,
    inject: Option<FaultPlan>,
    /// `--measure real` (the default is `sim`).
    measure_real: bool,
    hds: bool,
    random: bool,
    ptmalloc: bool,
    json: bool,
    metric: Option<String>,
    phases: Option<String>,
    decay: Option<f64>,
    drift_threshold: Option<f64>,
    regroup_every: Option<u64>,
}

/// The flags each command reads. One `Flags` struct serves them all, so a
/// flag outside the calling command's list is an error rather than a
/// setting that silently does nothing.
const BASELINE_FLAGS: &[&str] = &["--benchmark", "--json"];
const RUN_FLAGS: &[&str] = &[
    "--benchmark",
    "--affinity-distance",
    "--chunk-size",
    "--max-spare-chunks",
    "--max-groups",
    "--merge-tolerance",
    "--granularity",
    "--reuse-policy",
    "--shards",
    "--inject",
    "--measure",
    "--hds",
    "--random",
    "--ptmalloc",
    "--json",
];
/// `plot` draws the HALO and HDS bars only: the flags that shape them.
const PLOT_FLAGS: &[&str] = &[
    "--benchmark",
    "--metric",
    "--affinity-distance",
    "--chunk-size",
    "--max-spare-chunks",
    "--max-groups",
    "--merge-tolerance",
    "--granularity",
    "--reuse-policy",
    "--inject",
];
const SERVE_FLAGS: &[&str] =
    &["--phases", "--shards", "--decay", "--drift-threshold", "--regroup-every", "--json"];

/// Parse `flag`'s value as a fraction in `[0, 1]` (which excludes NaN).
fn parse_fraction(flag: &str, v: &str) -> Result<f64, String> {
    let what = flag.trim_start_matches('-').replace('-', " ");
    let f: f64 = v.parse().map_err(|_| format!("invalid {what} '{v}' (a fraction in [0, 1])"))?;
    if !(0.0..=1.0).contains(&f) {
        return Err(format!("{flag} {v} is out of range (a fraction in [0, 1])"));
    }
    Ok(f)
}

fn parse_flags(command: &str, allowed: &[&str], args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !allowed.contains(&arg.as_str()) {
            return Err(format!(
                "unknown flag '{arg}': halo {command} only accepts {}",
                allowed.join(", ")
            ));
        }
        let mut value = |name: &str| {
            it.next().map(|s| s.to_string()).ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--benchmark" => flags.benchmark = Some(value("--benchmark")?),
            "--affinity-distance" => {
                flags.affinity_distance =
                    Some(value("--affinity-distance")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--chunk-size" => {
                let v = value("--chunk-size")?;
                let chunk_size: u64 = v.parse().map_err(|e| format!("{e}"))?;
                // The allocator's own rule, checked here so a bad size is a
                // parse error and not a constructor panic on a worker thread.
                halo::mem::GroupAllocConfig::default()
                    .with_chunk_size(chunk_size)
                    .map_err(|rule| format!("--chunk-size {v}: {rule}"))?;
                flags.chunk_size = Some(chunk_size);
            }
            "--max-spare-chunks" => {
                let v = value("--max-spare-chunks")?;
                flags.max_spare_chunks = Some(if v == "inf" {
                    usize::MAX
                } else {
                    v.parse().map_err(|e| format!("{e}"))?
                });
            }
            "--max-groups" => {
                flags.max_groups = Some(value("--max-groups")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--merge-tolerance" => {
                let v = value("--merge-tolerance")?;
                flags.merge_tolerance = Some(parse_fraction("--merge-tolerance", &v)?);
            }
            "--granularity" => flags.granularity = Some(value("--granularity")?.parse()?),
            "--reuse-policy" => flags.reuse_policy = Some(value("--reuse-policy")?.parse()?),
            "--shards" => {
                let v = value("--shards")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("invalid shard count '{v}' (a positive integer)"))?;
                if n == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
                // Checking the address layout's bound here turns what
                // would be a constructor panic into a clear parse error.
                let max = halo::mem::ShardedHaloAllocator::MAX_SHARDS;
                if n > max {
                    return Err(format!(
                        "--shards {n} exceeds the address layout's limit of {max} shards"
                    ));
                }
                flags.shards = Some(n);
            }
            "--inject" => {
                let plan = FaultPlan::parse(&value("--inject")?)?;
                // `FaultPlan` knows a fourth site, for the chaos suite's
                // worker threads. Here it would fire on the one thread
                // there is. (A plan prints as its entries, so a site it
                // names is in the text.)
                if plan.to_string().contains(FaultSite::ShardPanic.name()) {
                    return Err(format!(
                        "--inject {plan}: the panic site kills the thread holding a shard \
                         lock, and a simulated measurement runs on one engine thread, so \
                         nothing would be left to report; it is driven from worker threads by \
                         crates/mem/tests/chaos_faults.rs (CLI sites: vmm, chunk, queue)"
                    ));
                }
                flags.inject = Some(plan);
            }
            "--measure" => match value("--measure")?.as_str() {
                "sim" => flags.measure_real = false,
                "real" => flags.measure_real = true,
                v => return Err(format!("unknown measurement mode '{v}' (sim|real)")),
            },
            "--metric" => flags.metric = Some(value("--metric")?),
            "--phases" => flags.phases = Some(value("--phases")?),
            "--decay" => {
                let v = value("--decay")?;
                flags.decay = Some(parse_fraction("--decay", &v)?);
            }
            "--drift-threshold" => {
                let v = value("--drift-threshold")?;
                flags.drift_threshold = Some(parse_fraction("--drift-threshold", &v)?);
            }
            "--regroup-every" => {
                let v = value("--regroup-every")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("invalid regroup interval '{v}' (a positive integer)"))?;
                if n == 0 {
                    return Err("--regroup-every must be at least 1".to_string());
                }
                flags.regroup_every = Some(n);
            }
            "--hds" => flags.hds = true,
            "--random" => flags.random = true,
            "--ptmalloc" => flags.ptmalloc = true,
            "--json" => flags.json = true,
            other => unreachable!("{other} is on an allow-list but has no parser"),
        }
    }
    Ok(flags)
}

/// The `--benchmark all` sweep: the paper set plus the Fig. 2 example.
fn default_sweep() -> Vec<Workload> {
    let mut workloads = all();
    workloads.push(halo::workloads::toy::build());
    workloads
}

/// The workload called `name`, or the CLI's error for an unknown one.
fn by_name(name: &str) -> Result<Workload, String> {
    halo::workloads::by_name(name)
        .ok_or_else(|| format!("unknown benchmark '{name}' (try `halo list`)"))
}

fn find_workloads(selector: Option<&str>) -> Result<Vec<Workload>, String> {
    match selector {
        None | Some("all") => Ok(default_sweep()),
        Some(names) => {
            // Comma-separated selection, e.g. `--benchmark toy,povray`; the
            // multi-threaded models are selectable by name too.
            let mut picked: Vec<Workload> = Vec::new();
            for name in names.split(',') {
                if picked.iter().any(|w| w.name == name) {
                    return Err(format!("duplicate benchmark '{name}' in --benchmark list"));
                }
                picked.push(by_name(name)?);
            }
            Ok(picked)
        }
    }
}

/// The §5.1 defaults with the §A.8 per-benchmark flags — from
/// `halo_bench::paper_config`, the single source of the per-benchmark
/// policy, so `halo run` and the bench harnesses cannot drift apart — with
/// the command line's overrides applied.
fn config_for(workload: &Workload, flags: &Flags) -> EvalConfig {
    let mut config = halo_bench::paper_config(workload);
    if let Some(a) = flags.affinity_distance {
        config.halo.profile.affinity_distance = a;
    }
    if let Some(chunk_size) = flags.chunk_size {
        config.halo.alloc =
            config.halo.alloc.with_chunk_size(chunk_size).expect("checked at parse time");
    }
    if let Some(s) = flags.max_spare_chunks {
        config.halo.alloc.max_spare_chunks = s;
    }
    if let Some(g) = flags.max_groups {
        config.halo.grouping.max_groups = Some(g);
    }
    if let Some(t) = flags.merge_tolerance {
        config.halo.grouping.merge_tolerance = t;
    }
    if let Some(g) = flags.granularity {
        config.halo.profile.granularity = g;
    }
    if let Some(r) = flags.reuse_policy {
        config.halo.reuse = r;
    }
    config.faults = flags.inject.clone();
    config.extras.clear();
    if let Some(n) = flags.shards {
        config.shards = n;
        config.extras.push("halo-sharded");
    }
    if flags.random {
        config.extras.push("random");
    }
    if flags.ptmalloc {
        config.extras.push("ptmalloc");
    }
    config
}

fn cmd_list() -> Result<(), String> {
    println!("{:<10} {:>12} {:>12}  note", "benchmark", "train arg", "ref arg");
    for w in all() {
        println!("{:<10} {:>12} {:>12}  {}", w.name, w.train.arg, w.reference.arg, w.note);
    }
    println!(
        "\nmulti-threaded models (select by name; not part of `--benchmark all`;\n\
         use --shards to shard the allocator):"
    );
    for w in halo::workloads::multithreaded() {
        println!("{:<10} {:>12} {:>12}  {}", w.name, w.train.arg, w.reference.arg, w.note);
    }
    Ok(())
}

/// Fan a sweep out across cores, printing each workload's rendered rows
/// in input order as soon as its prefix completes (so output streams like
/// the serial loop and is byte-identical to it). The first failure stops
/// the sweep — unstarted jobs are skipped — after printing the successful
/// prefix, matching the old serial behaviour.
fn run_sweep<T: Sync>(
    items: &[T],
    f: impl Fn(&T) -> Result<String, String> + Sync,
) -> Result<(), String> {
    use std::io::Write as _;
    let mut first_err = None;
    par_each_ordered(items, f, |rendered| match rendered {
        Ok(text) => {
            print!("{text}");
            std::io::stdout().flush().ok();
            true
        }
        Err(e) => {
            first_err = Some(e);
            false
        }
    });
    first_err.map_or(Ok(()), Err)
}

fn cmd_baseline(args: &[String]) -> Result<(), String> {
    let flags = parse_flags("baseline", BASELINE_FLAGS, args)?;
    let workloads = find_workloads(flags.benchmark.as_deref())?;
    run_sweep(&workloads, |w| {
        let m = halo_bench::baseline(w, &config_for(w, &flags));
        let row = [
            Field::new("benchmark", Json::str(w.name), format!("{:<10}", w.name)),
            Field::str("config", "baseline"),
            Field::count("l1d_misses", m.stats.l1_misses),
            Field::cycles("cycles", m.cycles),
            Field::count("instructions", m.instructions),
            Field::count("allocs", m.allocs),
        ];
        let text =
            "{benchmark} {config}: {l1d_misses} L1D misses, {cycles} Mcycles, {allocs} allocs";
        Ok(if flags.json { json_of(row).to_string() } else { text_of(row, text) } + "\n")
    })
}

fn run_one(w: &Workload, flags: &Flags) -> Result<EvalResult, String> {
    let config = config_for(w, flags);
    evaluate_with_arg(&w.program, w.name, w.train.seed, w.train.arg, &config)
        .map_err(|e| format!("{}: {e}", w.name))
}

/// One value of a row that `--json` and the text report both print: named
/// and computed once, rendered by whichever mode runs.
struct Field {
    key: &'static str,
    json: Json,
    /// The value as a text row shows it.
    text: String,
}

impl Field {
    fn new(key: &'static str, json: Json, text: String) -> Field {
        Field { key, json, text }
    }

    /// A name: the same text in both modes.
    fn str(key: &'static str, s: impl std::fmt::Display) -> Field {
        Field::new(key, Json::str(&s), s.to_string())
    }

    fn count<N: Into<Json> + ToString>(key: &'static str, n: N) -> Field {
        let text = n.to_string();
        Field::new(key, n.into(), text)
    }

    /// A fraction: four decimals in JSON, a signed percentage in text.
    fn fraction(key: &'static str, x: f64) -> Field {
        Field::new(key, Json::fixed(x, 4), pct(x))
    }

    /// A cycle count: whole cycles in JSON, millions in text.
    fn cycles(key: &'static str, cycles: f64) -> Field {
        Field::new(key, Json::fixed(cycles, 0), format!("{:.2}", cycles / 1e6))
    }
}

/// The JSON object of a row: every field, in order.
fn json_of(fields: impl IntoIterator<Item = Field>) -> Json {
    Json::object(fields.into_iter().map(|f| (f.key, f.json)))
}

/// The text of a row: `template` with each `{key}` replaced by that field's
/// text form (a field the template does not name is JSON only).
fn text_of(fields: impl IntoIterator<Item = Field>, template: &str) -> String {
    fields
        .into_iter()
        .fold(template.to_string(), |row, f| row.replace(&format!("{{{}}}", f.key), &f.text))
}

/// The resolved per-group plan summary: a JSON array, and in text e.g.
/// `, plans [g0 sharded@8KiB, g1 bump@1MiB]` (nothing when nothing grouped).
fn plans_field(r: &EvalResult) -> Field {
    let groups = r.optimised.groups.iter().enumerate();
    let json = Json::array(groups.clone().map(|(i, g)| {
        let spare = match g.plan.max_spare_chunks {
            usize::MAX => Json::str("inf"),
            n => n.into(),
        };
        Json::object([
            ("group", i.into()),
            ("members", g.members.len().into()),
            ("granularity", Json::str(g.plan.granularity)),
            ("reuse", Json::str(g.plan.reuse)),
            ("chunk_size", g.plan.chunk_size.into()),
            ("max_spare_chunks", spare),
        ])
    }));
    let text: Vec<String> = groups.map(|(i, g)| format!("g{i} {}", g.plan)).collect();
    let text =
        if text.is_empty() { String::new() } else { format!(", plans [{}]", text.join(", ")) };
    Field::new("plans", json, text)
}

/// A backend's misses and how it compares to `base`.
fn compared_fields(m: &Measurement, base: &Measurement) -> [Field; 3] {
    [
        Field::count("l1d_misses", m.stats.l1_misses),
        Field::fraction("miss_reduction", m.miss_reduction_vs(base)),
        Field::fraction("speedup", m.speedup_vs(base)),
    ]
}
const COMPARED_TEXT: &str = "{l1d_misses} L1D misses ({miss_reduction}), speedup {speedup}";
const HALO_TEXT: &str = "  HALO:     {l1d_misses} L1D misses ({miss_reduction}), {cycles} Mcycles \
    ({speedup}), {groups} groups via {monitored_sites} sites, {granularity} \
    granularity{auto_declined}{plans}";

/// One backend's MESI-lite counters and per-thread L1D miss breakdown.
fn coherence_fields(id: &'static str, res: &ConfigResult) -> [Field; 5] {
    let c = res.measurement.coherence;
    let misses = res.thread_stats.iter().map(|t| t.stats.l1_misses.into());
    [
        Field::str("id", id),
        Field::count("invalidations", c.invalidations),
        Field::count("upgrades", c.upgrades),
        Field::count("remote_fills", c.remote_fills),
        Field::new("thread_misses", Json::array(misses), String::new()),
    ]
}
const COHERENCE_TEXT: &str = "{id} {invalidations} inval/{upgrades} upgr";

/// Cross-shard remote-free queue pressure of the sharded runtime.
fn remote_free_fields(s: &ShardedAllocStats) -> [Field; 3] {
    [
        Field::count("pushes", s.remote_frees),
        Field::count("drained", s.remote_drained),
        Field::count("max_queue_depth", s.remote_peak_queue),
    ]
}
const REMOTE_FREE_TEXT: &str =
    "  remote-free queues: {pushes} pushes, {drained} drained, peak depth {max_queue_depth}";

/// One backend's degradation-ladder counters.
fn degradation_fields(id: &'static str, d: &DegradeStats) -> [Field; 8] {
    [
        Field::str("id", id),
        Field::count("injected_faults", d.injected_faults),
        Field::count("fallback_routes", d.fallback_routes),
        Field::count("degraded_groups", d.degraded_groups),
        Field::count("degraded_shards", d.degraded_shards),
        Field::count("queue_overflows", d.queue_overflows),
        Field::count("poisoned_recovered", d.poisoned_recovered),
        Field::count("invalid_frees", d.invalid_frees),
    ]
}
const DEGRADATION_TEXT: &str = "  degradation ({id}): {injected_faults} injected, \
    {fallback_routes} fallback routes, {degraded_groups} degraded groups, \
    {degraded_shards} degraded shards, {queue_overflows} queue overflows, \
    {poisoned_recovered} poisoned recovered, {invalid_frees} invalid frees";

fn render_run(r: &EvalResult, flags: &Flags) -> String {
    let base = &r.baseline().measurement;
    let halo = &r.halo().measurement;
    let opt = &r.optimised;
    let frag = r.halo().frag.unwrap_or_default();
    let baseline_row =
        [Field::count("l1d_misses", base.stats.l1_misses), Field::cycles("cycles", base.cycles)];
    let declined = if opt.auto_declined { " (auto declined to group)" } else { "" };
    let halo_row = [
        Field::count("l1d_misses", halo.stats.l1_misses),
        Field::cycles("cycles", halo.cycles),
        Field::fraction("miss_reduction", halo.miss_reduction_vs(base)),
        Field::fraction("speedup", halo.speedup_vs(base)),
        Field::count("groups", opt.groups.len()),
        Field::count("monitored_sites", opt.ident.site_bits.len()),
        Field::str("granularity", opt.granularity),
        Field::new("auto_declined", opt.auto_declined.into(), declined.to_string()),
        Field::new("frag_fraction", Json::fixed(frag.frag_fraction(), 4), String::new()),
        Field::count("wasted_bytes", frag.wasted_bytes()),
        plans_field(r),
    ];
    let hot_streams = Field::count("hot_streams", r.hds_analysis.stats.hot_streams);
    let hds_row = compared_fields(&r.hds().measurement, base).into_iter().chain([hot_streams]);
    // Optional backends render generically from the registry — a new
    // backend is one registry entry, not a new arm here.
    let extras = r.backends.iter().filter_map(|(id, res)| {
        let spec = halo::core::backend_spec(id).expect("measured backends are registered");
        spec.optional.then_some((spec.id, compared_fields(&res.measurement, base)))
    });
    let threads = r.backends.iter().map(|(_, res)| res.thread_stats.len()).max().unwrap_or(1);
    let coherence = r.backends.iter().map(|(id, res)| coherence_fields(id, res));
    // Present only when a sharded backend was measured (`--shards`).
    let remote_free =
        r.backends.iter().find_map(|(_, res)| res.sharded.as_ref()).map(remote_free_fields);
    // The degradation ladder, per backend that keeps its counters
    // (registry order) — only for `--inject` runs or a run that genuinely
    // degraded, so fault-free output stays byte-identical to builds without
    // fault support.
    let ladders: Vec<_> =
        r.backends.iter().filter_map(|(id, res)| res.degrade.map(|d| (*id, d))).collect();
    let degraded = |d: &DegradeStats| flags.inject.is_some() || d.any();
    if flags.json {
        let mut doc = vec![
            ("benchmark", Json::str(&r.name)),
            ("halo", json_of(halo_row)),
            ("hds", json_of(hds_row)),
            ("baseline", json_of(baseline_row)),
        ];
        doc.extend(extras.map(|(id, fields)| (id, json_of(fields))));
        // Single-threaded workloads report one thread and all-zero
        // counters, so the section is schema-stable across workloads.
        let coherence = [
            Field::count("threads", threads.max(1)),
            Field::new("backends", Json::array(coherence.map(json_of)), String::new()),
        ];
        doc.push(("coherence", json_of(coherence)));
        doc.extend(remote_free.map(|fields| ("remote_free", json_of(fields))));
        if ladders.iter().any(|(_, d)| degraded(d)) {
            let backends = ladders.iter().map(|(id, d)| json_of(degradation_fields(id, d)));
            doc.push(("degradation", Json::object([("backends", Json::array(backends))])));
        }
        return format!("{}\n", Json::object(doc));
    }
    let mut out = format!("=== {} ===\n", r.name);
    let mut line = |text: String| out.extend([text.as_str(), "\n"]);
    line(text_of(baseline_row, "  baseline: {l1d_misses} L1D misses, {cycles} Mcycles"));
    line(text_of(halo_row, HALO_TEXT));
    if flags.hds {
        let text = format!("  HDS:      {COMPARED_TEXT}, {{hot_streams}} hot streams");
        line(text_of(hds_row, &text));
    }
    for (id, fields) in extras {
        line(format!("  {:<9} {}", format!("{id}:"), text_of(fields, COMPARED_TEXT)));
    }
    // Coherence traffic only exists once a second logical thread runs, so
    // single-threaded rows stay byte-identical to the pre-coherence output.
    if threads > 1 {
        let parts: Vec<String> = coherence.map(|fields| text_of(fields, COHERENCE_TEXT)).collect();
        line(format!("  coherence ({threads} threads): {}", parts.join(", ")));
        if let Some(fields) = remote_free {
            line(text_of(fields, REMOTE_FREE_TEXT));
        }
    }
    for (id, d) in ladders.iter().filter(|(_, d)| degraded(d)) {
        line(text_of(degradation_fields(id, d), DEGRADATION_TEXT));
    }
    out
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let flags = parse_flags("run", RUN_FLAGS, args)?;
    let workloads = find_workloads(flags.benchmark.as_deref())?;
    if flags.measure_real {
        if flags.inject.is_some() {
            // Wall-clock rows have no degradation report to surface the
            // schedule in, so silently measuring a degraded run would
            // corrupt comparisons.
            return Err(
                "--inject applies to simulated measurement only (drop --measure real)".to_string()
            );
        }
        return cmd_run_real(&workloads, &flags);
    }
    run_sweep(&workloads, |w| Ok(render_run(&run_one(w, &flags)?, &flags)))
}

/// `halo run --measure real`: wall-clock the thread-safe sharded runtime
/// on real OS threads instead of the simulated hierarchy — the paper's
/// multi-core claims the simulator cannot speak to. Each workload's
/// optimised program is executed `T` times (T = available cores capped by
/// the shard count), first serially on one thread, then with one engine
/// per OS thread sharing the sharded allocator, and the wall-clock ratio
/// is reported. On a single-core host the mode degrades gracefully: it
/// prints why and exits successfully, so scripted invocations stay green.
/// `HALO_THREADS` overrides the detected core count through the same
/// reader as everywhere else (an invalid value warns and falls back to the
/// hardware count), which also makes the multi-engine path testable on any
/// host.
fn cmd_run_real(workloads: &[Workload], flags: &Flags) -> Result<(), String> {
    use halo::vm::{Engine, NullMonitor};
    // Uncapped by a job count: the engine count is capped per workload.
    let cores = halo::core::thread_count(usize::MAX);
    if cores < 2 {
        println!(
            "--measure real needs a multi-core host (available_parallelism reports {cores}); \
             skipping wall-clock measurement"
        );
        return Ok(());
    }
    // Wall-clock rows are noise-sensitive; never fan the sweep out.
    for w in workloads {
        let config = config_for(w, flags);
        let (halo, opt) = halo_bench::optimise(w, &config);
        let shards = config.shards; // config_for applied --shards already
        let runs = cores.min(shards.max(2));
        let alloc = halo.make_sharded_allocator(&opt, shards);
        let run_once = |seed_salt: u64| -> Result<u64, String> {
            let mut handle = &alloc;
            let mut engine = Engine::new(&opt.program)
                .with_seed(config.measure.seed ^ seed_salt)
                .with_entry_arg(config.measure.entry_arg)
                .with_limits(config.measure.limits);
            engine
                .run(&mut handle, &mut NullMonitor)
                .map(|exit| exit.instructions)
                .map_err(|e| format!("{}: {e}", w.name))
        };
        let serial_start = Instant::now();
        let mut instructions = 0u64;
        for i in 0..runs {
            instructions += run_once(i as u64)?;
        }
        let serial = serial_start.elapsed();
        let parallel_start = Instant::now();
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..runs).map(|i| scope.spawn(move || run_once(i as u64))).collect();
            handles.into_iter().map(|h| h.join().expect("engine thread")).collect::<Vec<_>>()
        });
        let parallel = parallel_start.elapsed();
        for r in results {
            r?;
        }
        let speedup = serial.as_secs_f64() / parallel.as_secs_f64().max(1e-9);
        let ms = |key, elapsed: Duration| {
            let ms = elapsed.as_secs_f64() * 1e3;
            Field::new(key, Json::fixed(ms, 3), format!("{ms:.1}"))
        };
        let row = [
            Field::new("benchmark", Json::str(w.name), format!("{:<10}", w.name)),
            Field::str("measure", "real"),
            Field::count("engines", runs),
            Field::count("shards", shards),
            Field::count("instructions", instructions),
            ms("serial_ms", serial),
            ms("parallel_ms", parallel),
            Field::new("speedup", Json::fixed(speedup, 3), format!("{speedup:.2}")),
        ];
        let text = "{benchmark} {measure}: {engines} engines over {shards} shards, \
                    serial {serial_ms}ms, parallel {parallel_ms}ms, speedup {speedup}x";
        println!("{}", if flags.json { json_of(row).to_string() } else { text_of(row, text) });
    }
    Ok(())
}

fn cmd_plot(args: &[String]) -> Result<(), String> {
    let flags = parse_flags("plot", PLOT_FLAGS, args)?;
    let metric_is_speedup = match flags.metric.as_deref().unwrap_or("misses") {
        "misses" => false,
        "speedup" => true,
        other => return Err(format!("unknown metric '{other}' (misses|speedup)")),
    };
    println!(
        "{} vs jemalloc-style baseline (█ = HALO, ░ = hot data streams)\n",
        if metric_is_speedup { "speedup" } else { "L1D miss reduction" }
    );
    let workloads = find_workloads(flags.benchmark.as_deref())?;
    run_sweep(&workloads, |w| {
        let r = run_one(w, &flags)?;
        let (hds, halo) = if metric_is_speedup { r.speedup_row() } else { r.miss_reduction_row() };
        Ok(format!(
            "{:<10} {:>7} {}\n{:<10} {:>7} {}\n",
            r.name,
            pct(halo),
            bar(halo, '█'),
            "",
            pct(hds),
            bar(hds, '░')
        ))
    })
}

/// `halo serve`: the online re-optimisation loop (DESIGN.md §15) over a
/// scripted workload-mix shift. Each phase of the `--phases` script serves
/// a workload for a number of windows; every window streams a decayed
/// profile, re-groups it, and hot-swaps the serving allocator's per-group
/// plans when the grouping drifts past the threshold (or the measured miss
/// reduction regresses). The per-epoch table shows the serving allocator
/// against the *static* twin — the phase-0 plan never re-optimised — so a
/// phase shift visibly decays static while serve recovers.
///
/// The report replays deterministically for a fixed script and flags,
/// except the `swap_latency_us` wall-clock fields (CI strips them before
/// comparing replays).
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = parse_flags("serve", SERVE_FLAGS, args)?;
    let script = flags
        .phases
        .as_deref()
        .ok_or("halo serve needs --phases (e.g. --phases server:1,xalanc-mt:2)")?;

    // Any listed workload can serve; phases may revisit a name, so the
    // script resolves names one by one rather than through the
    // duplicate-rejecting `find_workloads` selector.
    let mut phases = Vec::new();
    for part in script.split(',') {
        let (name, windows) = part
            .split_once(':')
            .ok_or_else(|| format!("phase '{part}' is not name:windows (e.g. server:2)"))?;
        let windows: u64 = windows.parse().ok().filter(|&w| w > 0).ok_or_else(|| {
            format!("phase '{part}' needs a positive window count (e.g. server:2)")
        })?;
        let w = by_name(name)?;
        phases.push(ServePhase {
            name: w.name.into(),
            program: w.program,
            train_seed: w.train.seed,
            train_arg: w.train.arg,
            ref_seed: w.reference.seed,
            ref_arg: w.reference.arg,
            windows,
        });
    }

    let mut config = ServeConfig::default();
    if let Some(n) = flags.shards {
        config.shards = n;
    }
    if let Some(d) = flags.decay {
        config.decay = d;
    }
    if let Some(d) = flags.drift_threshold {
        config.drift_threshold = d;
    }
    if let Some(n) = flags.regroup_every {
        config.regroup_every = n;
    }
    let report = serve(&phases, &config).map_err(|e| format!("serve: {e}"))?;

    let swaps = format!("{} swap{}", report.swaps, if report.swaps == 1 { "" } else { "s" });
    let verdict = if report.recovered {
        "serve recovered the phase shift"
    } else {
        "serve did not end ahead of the static plan"
    };
    let epochs = report.rows.iter().map(epoch_fields);
    let summary = [
        Field::count("windows", report.rows.len()),
        Field::new("swaps", report.swaps.into(), swaps),
        Field::fraction("final_miss_reduction", report.final_miss_reduction),
        Field::fraction("final_static_miss_reduction", report.final_static_miss_reduction),
        Field::new("recovered", report.recovered.into(), verdict.to_string()),
    ];
    if flags.json {
        let epochs = Field::new("epochs", Json::array(epochs.map(json_of)), String::new());
        println!("{}", json_of(summary.into_iter().chain([epochs])));
        return Ok(());
    }
    // The header's labels and a window's cells, padded to one set of widths.
    let table_row = |c: [&str; 8]| {
        println!(
            "{:<6} {:<10} {:>5} {:>6} {:>4} {:>12} {:>8} {:>8}",
            c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]
        )
    };
    table_row(["window", "phase", "epoch", "drift", "swap", "latency(us)", "serve", "static"]);
    for row in epochs {
        table_row(row.each_ref().map(|f| f.text.as_str()));
    }
    let text = "\n{swaps} applied; final miss reduction: serve {final_miss_reduction} \
                vs static {final_static_miss_reduction} — {recovered}";
    println!("{}", text_of(summary, text));
    Ok(())
}

/// One serve window: the fields of its JSON epoch object, which in text are
/// the cells of its table row.
fn epoch_fields(row: &EpochRow) -> [Field; 8] {
    let drift = row.drift.map_or("-".to_string(), |d| format!("{d:.2}"));
    let swapped = if row.swapped { "yes" } else { "-" };
    let latency = row.swap_latency_us;
    [
        Field::count("window", row.window),
        Field::str("phase", &row.phase),
        Field::count("plan_epoch", row.plan_epoch),
        Field::new("drift", row.drift.map_or(Json::null(), |d| Json::fixed(d, 4)), drift),
        Field::new("swapped", row.swapped.into(), swapped.to_string()),
        Field::new("swap_latency_us", Json::fixed(latency, 1), format!("{latency:.1}")),
        Field::fraction("miss_reduction", row.miss_reduction),
        Field::fraction("static_miss_reduction", row.static_miss_reduction),
    ]
}

fn bar(fraction: f64, fill: char) -> String {
    let cells = (fraction.abs() * 100.0).round() as usize;
    let cells = cells.min(60);
    let body: String = std::iter::repeat_n(fill, cells).collect();
    if fraction < 0.0 {
        format!("-{body}")
    } else {
        body
    }
}
