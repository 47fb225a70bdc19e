//! The HALO reproduction's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! benchmark report <out-dir>            merge a set's runs into results.json
//! benchmark compare <a.json> <b.json>   improved / unchanged / regressed / unresolved
//! benchmark manifest                    print BENCHMARK.json from the registry
//! benchmark pin-baseline              print expected/baseline.json
//! ```

mod compare;
mod expected;
mod fingerprint;
mod gen;
mod harness;
mod json;
mod metrics;
mod report;
mod span;
mod stats;
mod workloads;

use harness::{Outcome, RunArgs, Scale};
use span::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark run --workload <spec-sweep|serve-shift|graph-scale|alloc-churn>
                [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
  benchmark report <out-dir>
  benchmark compare <a.json> <b.json>
  benchmark manifest
  benchmark pin-baseline";

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: metrics::RUN_SECONDS,
        trace: false,
        scale: Scale::Full,
        out_dir: PathBuf::from("benchmark/out"),
        rustc: "unknown".into(),
        git: "unknown".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = value("--workload")?,
            "--seed" => {
                run.seed = value("--seed")?.parse().map_err(|_| "--seed needs a whole number")?;
            }
            "--seconds" => {
                run.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or("--seconds needs a whole number from 1 to 600")?;
            }
            "--trace" => {
                run.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".into()),
                }
            }
            "--smoke" => run.scale = Scale::Smoke,
            "--out" => run.out_dir = PathBuf::from(value("--out")?),
            "--stamp-rustc" => run.rustc = value("--stamp-rustc")?,
            "--stamp-git" => run.git = value("--stamp-git")?,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !metrics::WORKLOADS.iter().any(|(name, _)| *name == run.workload) {
        return Err(format!(
            "--workload must be one of the four workloads, got '{}'",
            run.workload
        ));
    }
    Ok(run)
}

fn dispatch<W: harness::Workload>(w: &W, args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    if args.trace {
        harness::run_traced(w, args, tracer)
    } else {
        harness::run_untraced(w, args)
    }
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run(args)?;
    let mut tracer = Tracer::new();
    let seed = args.seed;
    let outcome = match args.workload.as_str() {
        "spec-sweep" => dispatch(&workloads::spec_sweep::SpecSweep { seed }, &args, &mut tracer),
        "serve-shift" => dispatch(&workloads::serve_shift::ServeShift { seed }, &args, &mut tracer),
        "graph-scale" => dispatch(&workloads::graph_scale::GraphScale { seed }, &args, &mut tracer),
        _ => dispatch(&workloads::alloc_churn::AllocChurn { seed }, &args, &mut tracer),
    };

    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let mode = if args.trace { "layers" } else { "e2e" };
    let write = |name: String, doc: &json::Json| {
        let path = args.out_dir.join(name);
        std::fs::write(&path, doc.pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write(format!("{}.{mode}.json", args.workload), &harness::result_json(&args, &outcome))?;
    if args.trace {
        write(format!("trace-{}.json", args.workload), &tracer.to_json())?;
    }

    report::print_run(&args, &outcome);
    // The driver reads the last line of standard output.
    println!("{}", harness::contract_line(&outcome));
    // A wrong result is still a result: the line above carries
    // `correct: false`, and `benchmark report` turns it into a failing
    // exit code for the set.
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("report") => report::cmd_report(&args[1..]),
        Some("compare") => compare::cmd_compare(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("pin-baseline") => workloads::spec_sweep::cmd_pin_baseline(&args[1..]),
        _ => Err("missing or unknown command".into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::FAILURE
    })
}
