//! What every workload shares: the run arguments, the closed-loop round
//! driver of the untraced run, the host stamp, and result rendering.
//!
//! **Load shape.** Closed loop, one client: the next operation starts when
//! the previous one returns, on one driver thread; the program's own
//! parallelism runs at its default. Work is fixed per *round* (a round is
//! the workload's fixed batch: a full 11-program pass, one serve call, one
//! offline-stage operation, 20 000 allocator requests); rounds repeat
//! while another one is predicted to fit into `--seconds`, always at
//! least once. Every round starts from fresh state on identical inputs,
//! so every simulated counter must repeat across rounds — which the
//! driver checks.
//!
//! **Which round counts.** The rounds of a run repeat the same work, and
//! a shared host only ever makes one of them slower. Each timing metric
//! is therefore read off the fastest round (`stats::fastest`): `wall_s`
//! is the fastest round's wall-clock, `op_geomean_ms` takes, per operation
//! kind, the lowest of the rounds' median latencies, `setup_s` is the
//! fastest set-up pass. Within a round the median stays: the requests of
//! one `alloc-churn` round differ in the work they do, its rounds do not.

use crate::fingerprint::Fingerprint;
use crate::json::Json;
use crate::metrics::{self, MetricDef};
use crate::span::Tracer;
use crate::stats;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// `setup_s` is the fastest of a run's set-up passes: at least
/// `SETUP_PASSES`, so that the cold first pass and a few disturbed ones
/// leave an undisturbed one, and as many more (up to `SETUP_PASSES_MAX`) as
/// it takes to spend `SETUP_MIN_SECONDS`, so that a set-up of a few
/// hundredths of a second outlasts a burst of host noise.
const SETUP_PASSES: usize = 5;
const SETUP_PASSES_MAX: usize = 20;
const SETUP_MIN_SECONDS: f64 = 2.0;

/// Full size, or the ~1/20 `--smoke` size (also the warm-up's size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Parsed `benchmark run` arguments.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub scale: Scale,
    pub out_dir: PathBuf,
    pub rustc: String,
    pub git: String,
}

/// One timed operation: which kind (index into [`Workload::kinds`]) and
/// how long it took.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub kind: usize,
    pub ms: f64,
}

/// What one round produced.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall-clock of the round's timed region, seconds.
    pub wall_s: f64,
    pub ops: Vec<OpSample>,
    pub attempted: u64,
    /// One line per failed operation or failed output check.
    pub failures: Vec<String>,
    /// The workload's layout-quality figure (see README), percent.
    pub quality_pct: f64,
    pub fingerprint: Fingerprint,
    /// Further exact figures for the detail file, e.g. `frag_pct`.
    pub exact: Vec<(&'static str, f64)>,
}

/// Named values for the traced run's per-layer output.
#[derive(Debug, Default)]
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    /// # Panics
    ///
    /// Panics on a name missing from the registry: a typo must not turn
    /// into a silently absent metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = metrics::find(name).unwrap_or_else(|| panic!("unregistered metric '{name}'"));
        self.0.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// A workload: how to build its inputs, run one round, and trace it.
pub trait Workload {
    /// Everything a round needs, built outside timed regions.
    type Input;

    /// Names of the operation kinds (`op_geomean_ms` takes the geometric
    /// mean over kinds of each kind's median latency in its fastest round).
    fn kinds(&self) -> Vec<String>;

    /// Build the inputs at `scale` from the run's seed.
    fn build(&self, scale: Scale) -> Self::Input;

    /// One warm-up operation on (smoke-scale) inputs.
    fn warm_up(&self, input: &mut Self::Input);

    /// One round of fixed work; only the operations themselves are timed.
    fn round(&self, input: &mut Self::Input) -> Round;

    /// The traced run: the whole operation under one span, then the same
    /// operation replayed stage by stage, then the layer probes.
    fn trace(
        &self,
        input: &mut Self::Input,
        tracer: &mut Tracer,
        values: &mut LayerValues,
    ) -> Round;
}

/// A finished run, ready to print.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub fingerprint: String,
    pub rounds: usize,
    /// `(definition, value, samples behind it)`.
    pub metrics: Vec<(&'static MetricDef, f64, usize)>,
    pub exact: Vec<(&'static str, f64)>,
    pub detail: Json,
}

/// One set-up pass: inputs, then a warm-up operation at smoke scale.
/// Returns the full-scale inputs of the last pass and each pass's time.
fn set_up<W: Workload>(w: &W, scale: Scale) -> (W::Input, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_PASSES_MAX);
    let mut input = None;
    while times.len() < SETUP_PASSES
        || (times.len() < SETUP_PASSES_MAX && times.iter().sum::<f64>() < SETUP_MIN_SECONDS)
    {
        drop(input.take()); // one set of inputs alive at a time
        let start = Instant::now();
        let built = w.build(scale);
        let mut warm = w.build(Scale::Smoke);
        w.warm_up(&mut warm);
        times.push(start.elapsed().as_secs_f64());
        input = Some(built);
    }
    (input.expect("SETUP_PASSES >= 1"), times)
}

fn check_rounds_repeat(rounds: &[Round], failures: &mut Vec<String>) {
    let first = &rounds[0];
    for (i, r) in rounds.iter().enumerate().skip(1) {
        if r.fingerprint != first.fingerprint
            || r.quality_pct.to_bits() != first.quality_pct.to_bits()
        {
            failures.push(format!(
                "round {i} did not repeat round 0: fingerprint {} vs {}, quality {} vs {}",
                r.fingerprint.hex(),
                first.fingerprint.hex(),
                r.quality_pct,
                first.quality_pct
            ));
        }
    }
}

/// Per kind, the median latency of that kind in each round that ran it.
fn round_medians(kinds: usize, rounds: &[Round]) -> Vec<Vec<f64>> {
    let mut per_kind: Vec<Vec<f64>> = vec![Vec::new(); kinds];
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); kinds];
    for round in rounds {
        for op in &round.ops {
            samples[op.kind].push(op.ms);
        }
        for (medians, ms) in per_kind.iter_mut().zip(&mut samples) {
            if !ms.is_empty() {
                medians.push(stats::median(ms));
                ms.clear();
            }
        }
    }
    per_kind
}

/// Geometric mean over kinds of the kind's fastest round median.
fn op_geomean_ms(round_medians: &[Vec<f64>]) -> f64 {
    let fastest: Vec<f64> =
        round_medians.iter().filter(|m| !m.is_empty()).map(|m| stats::fastest(m)).collect();
    stats::geomean(&fastest)
}

/// The untraced run: set up, then rounds in a closed loop.
pub fn run_untraced<W: Workload>(w: &W, args: &RunArgs) -> Outcome {
    let (mut input, setup_times) = set_up(w, args.scale);
    let budget = args.seconds as f64;
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        let before = Instant::now();
        rounds.push(w.round(&mut input));
        if rounds.len() == 1 {
            // Later rounds repeat this one from fresh state; what grows
            // with them is this harness's sample lists. Read at exit, the
            // high-water mark would rise with the number of rounds, and a
            // faster program would seem to need more memory.
            peak_rss = peak_rss_mb();
        }
        // Generation and clones inside a round are untimed but still
        // spend the budget, so predict with the round's real duration.
        let last = before.elapsed().as_secs_f64();
        if args.scale == Scale::Smoke || started.elapsed().as_secs_f64() + last > budget {
            break;
        }
    }

    let mut failures: Vec<String> = rounds.iter().flat_map(|r| r.failures.clone()).collect();
    check_rounds_repeat(&rounds, &mut failures);
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let kinds = w.kinds();
    let medians = round_medians(kinds.len(), &rounds);
    let op_samples: usize = rounds.iter().map(|r| r.ops.len()).sum();
    let value = |name: &str| -> (f64, usize) {
        match name {
            "setup_s" => (stats::fastest(&setup_times), setup_times.len()),
            "wall_s" => (stats::fastest(&walls), walls.len()),
            "op_geomean_ms" => (op_geomean_ms(&medians), op_samples),
            "peak_rss_mb" => (peak_rss, 1),
            "layout_quality_pct" => (rounds[0].quality_pct, 1),
            other => unreachable!("end-to-end metric '{other}' has no source"),
        }
    };
    let metrics = metrics::END_TO_END
        .iter()
        .map(|def| {
            let (v, n) = value(def.name);
            (def, v, n)
        })
        .collect();

    // Per-kind latency rows go to the detail file and the printed table:
    // the fastest round's median, the median and — where the sample count
    // allows one — the tail percentile over all rounds, and every round's
    // median, so that a disturbed run can be told from a slow program.
    let mut kinds_json = Vec::new();
    for (k, name) in kinds.iter().enumerate() {
        let ms: Vec<f64> =
            rounds.iter().flat_map(|r| &r.ops).filter(|o| o.kind == k).map(|o| o.ms).collect();
        if ms.is_empty() {
            continue;
        }
        let mut row = Json::obj()
            .set("kind", name.as_str())
            .set("samples", ms.len())
            .set("fastest_round_p50_ms", stats::fastest(&medians[k]))
            .set("p50_ms", stats::median(&ms));
        if let Some(p99) = stats::tail_percentile(&ms, 0.99) {
            row = row.set("p99_ms", p99);
        }
        row = row.set("round_p50_ms", medians[k].iter().map(|&v| Json::Num(v)).collect::<Vec<_>>());
        kinds_json.push(row);
    }
    Outcome {
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failures,
        fingerprint: rounds[0].fingerprint.hex(),
        rounds: rounds.len(),
        metrics,
        exact: rounds[0].exact.clone(),
        detail: Json::obj()
            .set("setup_s_passes", setup_times.iter().map(|&t| Json::Num(t)).collect::<Vec<_>>())
            .set("round_wall_s", walls.iter().map(|&t| Json::Num(t)).collect::<Vec<_>>())
            .set("op_kinds", kinds_json),
    }
}

/// The traced run: one set-up pass, one traced round, layer metrics.
pub fn run_traced<W: Workload>(w: &W, args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let build = tracer.begin("bench.build_inputs", "bench");
    let mut input = w.build(args.scale);
    tracer.end(build);
    let warm = tracer.begin("bench.warm_up", "bench");
    let mut small = w.build(Scale::Smoke);
    w.warm_up(&mut small);
    tracer.end(warm);
    drop(small);

    let mut values = LayerValues::default();
    let round = w.trace(&mut input, tracer, &mut values);
    let metrics = metrics::PER_LAYER
        .iter()
        .map(|def| (def, values.get(def.name).unwrap_or(0.0), 1))
        .collect();
    Outcome {
        attempted: round.attempted,
        failures: round.failures,
        fingerprint: round.fingerprint.hex(),
        rounds: 1,
        metrics,
        exact: round.exact,
        detail: Json::obj(),
    }
}

/// `VmHWM` of this process in MiB (0 when `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where and how the numbers were taken, so a single-core run is
/// labelled as such.
pub fn host_stamp(args: &RunArgs) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    Json::obj()
        .set("host_cores", cores)
        // What `par_map` will actually use (HALO_THREADS unset → cores).
        .set("threads", halo_core::thread_count(usize::MAX))
        .set("rustc", args.rustc.as_str())
        .set("git", args.git.as_str())
        .set("os", std::env::consts::OS)
        .set("arch", std::env::consts::ARCH)
}

/// The detail document written to `out/` for one run.
pub fn result_json(args: &RunArgs, outcome: &Outcome) -> Json {
    let mut metrics = Json::obj();
    for (def, value, samples) in &outcome.metrics {
        metrics = metrics.set(
            def.name,
            Json::obj().set("value", *value).set("unit", def.unit).set("samples", *samples),
        );
    }
    let mut exact = Json::obj();
    for (name, value) in &outcome.exact {
        exact = exact.set(name, *value);
    }
    Json::obj()
        .set("schema", "halo-benchmark/v1")
        .set("workload", args.workload.as_str())
        .set("trace", args.trace)
        .set("smoke", args.scale == Scale::Smoke)
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("host", host_stamp(args))
        .set("correct", outcome.failures.is_empty())
        .set("attempted", outcome.attempted)
        .set("failed", outcome.failures.len())
        .set(
            "failures",
            outcome.failures.iter().map(|f| Json::from(f.as_str())).collect::<Vec<_>>(),
        )
        .set("rounds", outcome.rounds)
        .set("sim_fingerprint", outcome.fingerprint.as_str())
        .set("metrics", metrics)
        .set("exact", exact)
        .set("detail", outcome.detail.clone())
}

/// The one-line result the driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn contract_line(outcome: &Outcome) -> String {
    let mut metrics = Json::obj();
    for (def, value, _) in &outcome.metrics {
        metrics = metrics.set(def.name, Json::obj().set("value", *value).set("unit", def.unit));
    }
    Json::obj()
        .set("correct", outcome.failures.is_empty())
        .set("attempted", outcome.attempted.max(1))
        .set("failed", (outcome.failures.len() as u64).min(outcome.attempted.max(1)))
        .set("metrics", metrics)
        .compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_geomean_takes_each_kinds_fastest_round_median_and_balances_kinds() {
        let round = |ms: &[(usize, f64)]| Round {
            ops: ms.iter().map(|&(kind, ms)| OpSample { kind, ms }).collect(),
            ..Round::default()
        };
        // One kind: round medians 4 and 3, the faster round counts.
        let one = [round(&[(0, 2.0), (0, 9.0), (0, 4.0)]), round(&[(0, 3.0), (0, 1.0), (0, 8.0)])];
        let medians = round_medians(1, &one);
        assert_eq!(medians, [vec![4.0, 3.0]]);
        assert!((op_geomean_ms(&medians) - 3.0).abs() < 1e-9);
        // Two kinds, the second absent from the disturbed first round.
        let two = [round(&[(0, 5.0)]), round(&[(0, 1.0), (1, 100.0), (1, 100.0)])];
        let medians = round_medians(2, &two);
        assert_eq!(medians, [vec![5.0, 1.0], vec![100.0]]);
        assert!((op_geomean_ms(&medians) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rounds_that_differ_are_failures() {
        let mut a = Round { quality_pct: 1.0, ..Round::default() };
        a.fingerprint.push(1);
        let mut b = Round { quality_pct: 1.0, ..Round::default() };
        b.fingerprint.push(2);
        let mut failures = Vec::new();
        check_rounds_repeat(&[a, b], &mut failures);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("did not repeat"));
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let outcome = Outcome {
            attempted: 11,
            failures: vec!["x".into()],
            fingerprint: "00".into(),
            rounds: 1,
            metrics: vec![(&metrics::END_TO_END[0], 1.25, 3)],
            exact: Vec::new(),
            detail: Json::obj(),
        };
        let line = contract_line(&outcome);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> =
            doc.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(
            doc.get("metrics").and_then(|m| m.get("setup_s")).and_then(|m| m.get("unit")),
            Some(&Json::from("s"))
        );
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 0.0, "VmHWM is readable on Linux");
    }
}
