//! Printing a run, and merging a set's runs into `results.json`.

use crate::harness::{Outcome, RunArgs, Scale};
use crate::json::Json;
use crate::metrics::{self, WORKLOADS};
use std::path::Path;
use std::process::ExitCode;

/// Every metric of one run by name, with its unit, then the checks.
pub fn print_run(args: &RunArgs, outcome: &Outcome) {
    println!(
        "== {} ({}{}) seed {} — {} round(s), {} operation(s)",
        args.workload,
        if args.trace { "traced" } else { "untraced" },
        if args.scale == Scale::Smoke { ", smoke" } else { "" },
        args.seed,
        outcome.rounds,
        outcome.attempted
    );
    for (def, value, samples) in &outcome.metrics {
        // A bypassed layer's zeros would bury the rows that matter.
        if def.bound.is_none() && *value == 0.0 {
            continue;
        }
        println!(
            "  {:<34} {:>18.6} {:<9} ({} is better, n={samples})",
            def.name,
            value,
            def.unit,
            def.better.as_str()
        );
    }
    for (name, value) in &outcome.exact {
        println!("  {:<34} {:>18.6} (exact)", format!("exact.{name}"), value);
    }
    if let Some(kinds) = outcome.detail.get("op_kinds").and_then(Json::as_arr) {
        for row in kinds {
            let field = |k: &str| row.get(k).and_then(Json::as_f64);
            let p99 = field("p99_ms").map_or(String::new(), |p| format!("  p99 {p:.4} ms"));
            println!(
                "  op {:<31} p50 {:>12.4} ms{p99}  fastest round p50 {:.4} ms  (n={})",
                row.get("kind").and_then(Json::as_str).unwrap_or("?"),
                field("p50_ms").unwrap_or(0.0),
                field("fastest_round_p50_ms").unwrap_or(0.0),
                field("samples").unwrap_or(0.0)
            );
        }
    }
    println!("  sim_fingerprint                    {}", outcome.fingerprint);
    if outcome.failures.is_empty() {
        println!("  output checks                      all passed");
    }
    for failure in &outcome.failures {
        println!("  FAILED: {failure}");
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One run file's metrics as `name → {unit, samples: [value]}` rows.
fn metric_rows(run: &Json, into: &mut Vec<(String, Json)>) {
    for (name, m) in run.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let value = m.get("value").cloned().unwrap_or(Json::Null);
        let unit = m.get("unit").cloned().unwrap_or(Json::Null);
        into.push((name.clone(), Json::obj().set("unit", unit).set("samples", vec![value])));
    }
    for (name, value) in run.get("exact").and_then(Json::as_obj).unwrap_or(&[]) {
        let row = Json::obj().set("unit", "exact").set("samples", vec![value.clone()]);
        into.push((format!("exact.{name}"), row));
    }
}

/// `benchmark report <out-dir>`: merge the directory's `<workload>.e2e.json`
/// and `<workload>.layers.json` into `<out-dir>/results.json`, print the
/// tracing overhead per workload, and fail if any run was incorrect or
/// missing.
pub fn cmd_report(args: &[String]) -> Result<ExitCode, String> {
    let [dir] = args else {
        return Err("report takes one directory".into());
    };
    let dir = Path::new(dir);
    let mut workloads = Json::obj();
    let mut problems = Vec::new();
    let mut host = Json::Null;
    let mut smoke = false;
    for (name, _) in WORKLOADS {
        let mut rows = Vec::new();
        let mut entry = Json::obj();
        let mut fingerprints = Json::obj();
        for mode in ["e2e", "layers"] {
            let path = dir.join(format!("{name}.{mode}.json"));
            let run = match read_json(&path) {
                Ok(run) => run,
                Err(e) => {
                    problems.push(e);
                    continue;
                }
            };
            if run.get("correct").and_then(Json::as_bool) != Some(true) {
                problems
                    .push(format!("{name} ({mode}): output checks failed, see {}", path.display()));
            }
            if mode == "e2e" {
                for key in ["seed", "rounds", "attempted", "failed"] {
                    entry = entry.set(key, run.get(key).cloned().unwrap_or(Json::Null));
                }
                host = run.get("host").cloned().unwrap_or(Json::Null);
                smoke = run.get("smoke").and_then(Json::as_bool).unwrap_or(false);
            }
            fingerprints =
                fingerprints.set(mode, run.get("sim_fingerprint").cloned().unwrap_or(Json::Null));
            metric_rows(&run, &mut rows);
        }
        // Traced whole operation ÷ fastest untraced round − 1: what tracing
        // costs, plus whatever disturbed the traced run's single round.
        let sample = |metric: &str| {
            rows.iter()
                .find(|(n, _)| n == metric)
                .and_then(|(_, row)| row.get("samples")?.as_arr()?.first()?.as_f64())
        };
        if let (Some(wall_s), Some(whole_ms)) = (sample("wall_s"), sample("core.whole_op_ms")) {
            let overhead = 100.0 * (whole_ms / (wall_s * 1e3) - 1.0);
            println!("{name:<12} trace_overhead_pct {overhead:+.2} % (traced whole op {whole_ms:.1} ms vs fastest untraced round {:.1} ms)", wall_s * 1e3);
            entry = entry.set("trace_overhead_pct", overhead);
        }
        // The same exact metric may come from both modes; keep the first.
        let mut metrics = Json::obj();
        for (metric, row) in rows {
            if metrics.get(&metric).is_none() {
                metrics = metrics.set(&metric, row);
            }
        }
        workloads =
            workloads.set(name, entry.set("sim_fingerprint", fingerprints).set("metrics", metrics));
    }
    let results = Json::obj()
        .set("schema", "halo-benchmark-results/v1")
        .set("smoke", smoke)
        .set("run_seconds", metrics::RUN_SECONDS)
        .set("host", host)
        .set("workloads", workloads);
    let path = dir.join("results.json");
    std::fs::write(&path, results.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    for p in &problems {
        eprintln!("error: {p}");
    }
    Ok(if problems.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
