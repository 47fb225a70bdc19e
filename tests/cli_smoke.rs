//! Smoke tests for the `halo` binary's argument parsing and output
//! framing, driving the real executable (libtest exposes its path as
//! `CARGO_BIN_EXE_halo`). The heavyweight evaluation paths are covered by
//! `pipeline_end_to_end.rs`; here we only run cheap workloads (`toy`,
//! plus `povray`/`analyzer` in the parallel-plot determinism check) —
//! except the evaluate-schedule matrix, which needs `roms` and `omnetpp`
//! for their `auto` policies.

use std::process::{Command, Output};

fn halo(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_halo"))
        .args(args)
        .output()
        .expect("the halo binary must spawn")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is UTF-8")
}

#[test]
fn list_names_every_workload() {
    let out = halo(&["list"]);
    assert!(out.status.success(), "halo list failed: {}", stderr(&out));
    let text = stdout(&out);
    let workloads = halo::workloads::all();
    assert_eq!(workloads.len(), 11, "the paper evaluates 11 benchmarks");
    for w in &workloads {
        assert!(text.contains(w.name), "halo list is missing workload {:?}:\n{text}", w.name);
    }
}

#[test]
fn run_toy_json_emits_machine_readable_row() {
    let out = halo(&["run", "--benchmark", "toy", "--json"]);
    assert!(out.status.success(), "halo run failed: {}", stderr(&out));
    let text = stdout(&out);
    let line = text.lines().next().expect("one JSON row");
    // Keep the format check structural, not value-exact: one object per
    // line with the three result sections and the headline metrics.
    assert!(line.starts_with('{') && line.ends_with('}'), "not a JSON object: {line}");
    for key in [
        "\"benchmark\":\"toy\"",
        "\"halo\":",
        "\"hds\":",
        "\"baseline\":",
        "\"miss_reduction\":",
        "\"speedup\":",
        "\"groups\":",
        "\"coherence\":{\"threads\":1,",
        "\"invalidations\":0",
    ] {
        assert!(line.contains(key), "JSON row is missing {key}: {line}");
    }
}

#[test]
fn run_accepts_the_paper_flags() {
    let out = halo(&[
        "run",
        "--benchmark",
        "toy",
        "--affinity-distance",
        "256",
        "--chunk-size",
        "65536",
        "--max-spare-chunks",
        "inf",
        "--max-groups",
        "4",
        "--merge-tolerance",
        "0.1",
        "--json",
    ]);
    assert!(out.status.success(), "flagged run failed: {}", stderr(&out));
    assert!(stdout(&out).contains("\"benchmark\":\"toy\""));
}

#[test]
fn run_accepts_and_reports_granularity() {
    for granularity in ["object", "page", "auto"] {
        let out = halo(&["run", "--benchmark", "toy", "--granularity", granularity, "--json"]);
        assert!(out.status.success(), "--granularity {granularity} failed: {}", stderr(&out));
        let text = stdout(&out);
        assert!(
            text.contains("\"granularity\":"),
            "JSON row must report the resolved granularity: {text}"
        );
        assert!(text.contains("\"auto_declined\":"), "JSON row must report the policy: {text}");
    }
    let bad = halo(&["run", "--benchmark", "toy", "--granularity", "bogus"]);
    assert!(!bad.status.success());
    assert!(stderr(&bad).contains("unknown granularity 'bogus'"), "{}", stderr(&bad));
}

#[test]
fn run_accepts_and_reports_reuse_policy() {
    for policy in ["bump", "sharded", "auto"] {
        let out = halo(&["run", "--benchmark", "toy", "--reuse-policy", policy, "--json"]);
        assert!(out.status.success(), "--reuse-policy {policy} failed: {}", stderr(&out));
        let text = stdout(&out);
        for key in ["\"frag_fraction\":", "\"wasted_bytes\":", "\"plans\":["] {
            assert!(text.contains(key), "JSON row is missing {key}: {text}");
        }
        // The plan summary carries the per-group knobs.
        for key in ["\"reuse\":", "\"chunk_size\":", "\"max_spare_chunks\":"] {
            assert!(text.contains(key), "plan summary is missing {key}: {text}");
        }
    }
    // An explicit sharded choice must surface in the resolved plans.
    let sharded = halo(&["run", "--benchmark", "toy", "--reuse-policy", "sharded", "--json"]);
    assert!(stdout(&sharded).contains("\"reuse\":\"sharded\""), "{}", stdout(&sharded));
    let bad = halo(&["run", "--benchmark", "toy", "--reuse-policy", "meshing"]);
    assert!(!bad.status.success());
    assert!(
        stderr(&bad).contains("unknown reuse policy 'meshing' (bump|sharded|auto)"),
        "{}",
        stderr(&bad)
    );
}

#[test]
fn reuse_policy_parse_errors_reach_stderr_with_failure_exit() {
    // The "clear parse error" contract: a bad value or a missing value
    // must fail the process (non-zero exit) and say what was wrong on
    // stderr — on every subcommand that accepts the flag, not just `run`.
    for command in ["run", "plot"] {
        let bad = halo(&[command, "--benchmark", "toy", "--reuse-policy", "meshing"]);
        assert!(!bad.status.success(), "halo {command} must reject a bad reuse policy");
        assert_eq!(bad.stdout.len(), 0, "no result rows before the error ({command})");
        let err = stderr(&bad);
        assert!(
            err.contains("unknown reuse policy 'meshing' (bump|sharded|auto)"),
            "halo {command} parse error must name the value and the choices: {err}"
        );
    }
    let missing = halo(&["run", "--benchmark", "toy", "--reuse-policy"]);
    assert!(!missing.status.success());
    assert!(stderr(&missing).contains("--reuse-policy needs a value"), "{}", stderr(&missing));
}

#[test]
fn shards_flag_enables_the_sharded_backend() {
    let out = halo(&["run", "--benchmark", "toy", "--shards", "2", "--json"]);
    assert!(out.status.success(), "halo run --shards failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("\"halo-sharded\":{"),
        "JSON row must carry the sharded backend's results: {text}"
    );
    for key in ["\"l1d_misses\":", "\"miss_reduction\":", "\"speedup\":"] {
        assert!(text.contains(key), "sharded JSON section is missing {key}: {text}");
    }
    // The sharded runtime's remote-free queue pressure is part of the row.
    assert!(
        text.contains("\"remote_free\":{\"pushes\":"),
        "JSON row must carry remote-free queue counters: {text}"
    );
    for key in ["\"drained\":", "\"max_queue_depth\":"] {
        assert!(text.contains(key), "remote_free section is missing {key}: {text}");
    }
    // Without the flag the backend stays off.
    let plain = halo(&["run", "--benchmark", "toy", "--json"]);
    assert!(!stdout(&plain).contains("halo-sharded"), "{}", stdout(&plain));
    assert!(
        !stdout(&plain).contains("\"remote_free\""),
        "remote_free must only appear when a sharded backend ran: {}",
        stdout(&plain)
    );
    // Invalid counts are clear parse errors.
    let zero = halo(&["run", "--benchmark", "toy", "--shards", "0"]);
    assert!(!zero.status.success());
    assert!(stderr(&zero).contains("--shards must be at least 1"), "{}", stderr(&zero));
    let junk = halo(&["run", "--benchmark", "toy", "--shards", "many"]);
    assert!(!junk.status.success());
    assert!(stderr(&junk).contains("invalid shard count 'many'"), "{}", stderr(&junk));
    // Beyond the address layout's bound: a clear parse error, not a
    // panic out of the allocator constructor.
    let huge = halo(&["run", "--benchmark", "toy", "--shards", "25"]);
    assert!(!huge.status.success());
    assert!(
        stderr(&huge).contains("--shards 25 exceeds the address layout's limit"),
        "{}",
        stderr(&huge)
    );
}

#[test]
fn inject_surfaces_the_degradation_ladder() {
    // An exact-occurrence schedule fires deterministically; the JSON row
    // gains a `degradation` section whose counters show the fault was
    // absorbed (routed to fallback), not fatal.
    let out = halo(&["run", "--benchmark", "toy", "--inject", "seed=7,vmm@1", "--json"]);
    assert!(out.status.success(), "an injected fault must not fail the run: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains(",\"degradation\":{\"backends\":["),
        "missing degradation section: {text}"
    );
    assert!(
        text.contains("\"id\":\"halo\",\"injected_faults\":1"),
        "fault must be counted: {text}"
    );
    for key in [
        "\"fallback_routes\":",
        "\"degraded_groups\":1",
        "\"degraded_shards\":0",
        "\"queue_overflows\":",
        "\"poisoned_recovered\":",
        "\"invalid_frees\":",
    ] {
        assert!(text.contains(key), "degradation section is missing {key}: {text}");
    }
    // Replaying the same schedule is deterministic, byte for byte.
    let again = halo(&["run", "--benchmark", "toy", "--inject", "seed=7,vmm@1", "--json"]);
    assert_eq!(text, stdout(&again), "fault replay must be deterministic");
    // Text mode prints the ladder's summary line under the same gate.
    let human = halo(&["run", "--benchmark", "toy", "--inject", "seed=7,vmm@1"]);
    assert!(human.status.success());
    let human = stdout(&human);
    assert!(
        human.contains("degradation (halo): 1 injected,"),
        "text mode must summarise the ladder: {human}"
    );
    // An empty plan attaches an injector but changes nothing observable:
    // identical to an uninjected run except the (all-zero) report.
    let clean = halo(&["run", "--benchmark", "toy", "--inject", "seed=7", "--json"]);
    assert!(stdout(&clean).contains("\"id\":\"halo\",\"injected_faults\":0"), "{}", stdout(&clean));
    // Fault-free runs carry no degradation output at all.
    let plain = halo(&["run", "--benchmark", "toy", "--json"]);
    assert!(!stdout(&plain).contains("degradation"), "{}", stdout(&plain));
}

#[test]
fn inject_parse_errors_reach_stderr_with_failure_exit() {
    for (spec, needle) in [
        ("bogus@1", "unknown fault site 'bogus' (vmm|chunk|queue|panic)"),
        ("vmm@0", "occurrence in 'vmm@0' is 1-based"),
        ("queue~1.5", "rate in 'queue~1.5' must be within [0, 1]"),
        ("vmm", "malformed fault entry 'vmm'"),
        ("seed=abc", "invalid fault seed 'abc'"),
        // The chaos suite's fourth site: on the CLI the one engine thread
        // would be the one to die (exit 101 and a backtrace, once).
        ("seed=1,panic@1", "error: --inject seed=1,panic@1: the panic site kills the thread"),
        ("vmm@1, panic~0.5", "runs on one engine thread"),
    ] {
        let out = halo(&["run", "--benchmark", "xalanc-mt", "--shards", "3", "--inject", spec]);
        assert_eq!(out.status.code(), Some(1), "halo run must reject --inject {spec}");
        assert_eq!(out.stdout.len(), 0, "no result rows before the error ({spec})");
        assert!(stderr(&out).contains(needle), "for {spec}: {}", stderr(&out));
        assert!(!stderr(&out).contains("panicked at"), "for {spec}: {}", stderr(&out));
    }
    // Every site the usage text lists still parses and runs.
    let listed = halo(&["run", "--benchmark", "toy", "--inject", "vmm@9,chunk@9,queue~0.5"]);
    assert!(listed.status.success(), "{}", stderr(&listed));
    assert!(stderr(&halo(&["help"])).contains("sites: vmm, chunk, queue\n"));
    let missing = halo(&["run", "--benchmark", "toy", "--inject"]);
    assert!(!missing.status.success());
    assert!(stderr(&missing).contains("--inject needs a value"), "{}", stderr(&missing));
    // Wall-clock mode has no degradation report; the combination is a
    // clear error rather than a silently degraded measurement.
    let real = halo(&["run", "--benchmark", "toy", "--inject", "vmm@1", "--measure", "real"]);
    assert!(!real.status.success());
    assert!(stderr(&real).contains("--inject applies to simulated measurement only"));
}

#[test]
fn measure_flag_validates_its_value() {
    let bad = halo(&["run", "--benchmark", "toy", "--measure", "bogus"]);
    assert!(!bad.status.success());
    assert!(
        stderr(&bad).contains("unknown measurement mode 'bogus' (sim|real)"),
        "{}",
        stderr(&bad)
    );
    // An explicit `sim` is the default path.
    let sim = halo(&["run", "--benchmark", "toy", "--measure", "sim", "--json"]);
    assert!(sim.status.success(), "--measure sim failed: {}", stderr(&sim));
    assert!(stdout(&sim).contains("\"benchmark\":\"toy\""));
}

#[test]
fn measure_real_gates_on_core_count_and_runs_when_multicore() {
    // HALO_THREADS pins the perceived core count, so both sides of the
    // available_parallelism gate are exercised regardless of the host.
    let gated = Command::new(env!("CARGO_BIN_EXE_halo"))
        .args(["run", "--benchmark", "toy", "--measure", "real"])
        .env("HALO_THREADS", "1")
        .output()
        .expect("the halo binary must spawn");
    assert!(gated.status.success(), "the single-core gate must exit green: {}", stderr(&gated));
    assert!(
        stdout(&gated).contains("needs a multi-core host"),
        "the gate must say why it skipped: {}",
        stdout(&gated)
    );
    let real = Command::new(env!("CARGO_BIN_EXE_halo"))
        .args(["run", "--benchmark", "toy", "--shards", "2", "--measure", "real", "--json"])
        .env("HALO_THREADS", "2")
        .output()
        .expect("the halo binary must spawn");
    assert!(real.status.success(), "multi-core real mode failed: {}", stderr(&real));
    let text = stdout(&real);
    for key in [
        "\"measure\":\"real\"",
        "\"engines\":2",
        "\"shards\":2",
        "\"serial_ms\":",
        "\"parallel_ms\":",
        "\"speedup\":",
    ] {
        assert!(text.contains(key), "real-mode JSON is missing {key}: {text}");
    }
}

#[test]
fn measure_real_reads_halo_threads_like_every_other_command() {
    // An unusable value is not a hard error here and a warning elsewhere:
    // one reader, one policy — warn once, fall back to the hardware count.
    let out = Command::new(env!("CARGO_BIN_EXE_halo"))
        .args(["run", "--benchmark", "toy", "--shards", "2", "--measure", "real"])
        .env("HALO_THREADS", "max")
        .output()
        .expect("the halo binary must spawn");
    assert!(out.status.success(), "an invalid HALO_THREADS must not fail: {}", stderr(&out));
    let err = stderr(&out);
    let warnings: Vec<&str> = err.lines().filter(|l| l.contains("HALO_THREADS")).collect();
    assert_eq!(
        warnings,
        ["warning: HALO_THREADS=max is invalid: expected a positive integer, \
          e.g. HALO_THREADS=1 for the serial path; using hardware parallelism"],
        "exactly one warning line: {err}"
    );
    // On the hardware count: a one-core host still gets the gate message,
    // any other measures.
    let text = stdout(&out);
    assert!(
        text.contains("needs a multi-core host") || text.contains(" real: "),
        "neither gated nor measured: {text}"
    );
}

/// `halo run` over three programs that between them take every branch of
/// the evaluation's job list — `roms` and `omnetpp` resolve both `auto`
/// policies (page fallback, declined grouping), every backend kind is on,
/// and `halo-sharded` is an extra that lands on a worker thread — at
/// `HALO_THREADS` 1, 2, 3 and 8: fewer workers than jobs, as many, more.
fn assert_schedule_is_invisible(extra_args: &[&str]) {
    let mut args =
        "run --benchmark roms,omnetpp,povray --hds --random --ptmalloc --shards 4 --json"
            .split(' ')
            .collect::<Vec<_>>();
    args.extend(extra_args);
    let run = |threads: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_halo"))
            .args(&args)
            .env("HALO_THREADS", threads)
            .output()
            .expect("the halo binary must spawn");
        assert!(out.status.success(), "HALO_THREADS={threads} failed: {}", stderr(&out));
        out.stdout
    };
    let serial = run("1");
    let text = String::from_utf8(serial.clone()).expect("stdout is UTF-8");
    for key in ["\"benchmark\":\"roms\"", "\"halo-sharded\":{", "\"random\":{", "\"ptmalloc\":{"] {
        assert!(text.contains(key), "sweep output is missing {key}:\n{text}");
    }
    for threads in ["2", "3", "8"] {
        assert!(
            run(threads) == serial,
            "HALO_THREADS={threads} must print the serial run's bytes:\n{text}"
        );
    }
}

#[test]
fn evaluation_output_is_byte_identical_at_every_thread_count() {
    assert_schedule_is_invisible(&[]);
}

#[test]
fn injected_evaluation_output_is_byte_identical_at_every_thread_count() {
    assert_schedule_is_invisible(&["--inject", "seed=7,vmm@1"]);
}

#[test]
fn multithreaded_sweep_is_deterministic_serial_vs_parallel() {
    // The acceptance bar for the sharded runtime: the mt workloads produce
    // byte-identical JSON rows whether the sweep runs serially or fanned
    // out — shard selection must not leak any OS-thread nondeterminism
    // into the measurements.
    let args = ["run", "--benchmark", "server,xalanc-mt", "--shards", "4", "--json"];
    let serial = Command::new(env!("CARGO_BIN_EXE_halo"))
        .args(args)
        .env("HALO_THREADS", "1")
        .output()
        .expect("the halo binary must spawn");
    let parallel = Command::new(env!("CARGO_BIN_EXE_halo"))
        .args(args)
        .env("HALO_THREADS", "4")
        .output()
        .expect("the halo binary must spawn");
    assert!(serial.status.success(), "serial mt run failed: {}", stderr(&serial));
    assert!(parallel.status.success(), "parallel mt run failed: {}", stderr(&parallel));
    assert_eq!(
        serial.stdout,
        parallel.stdout,
        "mt sweep rows must be byte-identical:\n--- serial ---\n{}\n--- parallel ---\n{}",
        stdout(&serial),
        stdout(&parallel)
    );
    let text = stdout(&serial);
    for key in [
        "\"benchmark\":\"server\"",
        "\"benchmark\":\"xalanc-mt\"",
        "\"halo-sharded\":{",
        "\"coherence\":{\"threads\":",
        "\"thread_misses\":[",
        "\"remote_free\":{\"pushes\":",
    ] {
        assert!(text.contains(key), "mt sweep output is missing {key}:\n{text}");
    }
}

#[test]
fn baseline_runs_the_toy_workload() {
    let out = halo(&["baseline", "--benchmark", "toy", "--json"]);
    assert!(out.status.success(), "halo baseline failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"config\":\"baseline\""), "unexpected baseline output: {text}");
}

#[test]
fn plot_parallel_output_is_byte_identical_to_serial() {
    // Three cheap workloads through the full pipeline; `HALO_THREADS`
    // pins the thread count so both orderings are exercised regardless of
    // the host's core count.
    let args = ["plot", "--benchmark", "toy,povray,analyzer"];
    let serial = Command::new(env!("CARGO_BIN_EXE_halo"))
        .args(args)
        .env("HALO_THREADS", "1")
        .output()
        .expect("the halo binary must spawn");
    let parallel = Command::new(env!("CARGO_BIN_EXE_halo"))
        .args(args)
        .env("HALO_THREADS", "4")
        .output()
        .expect("the halo binary must spawn");
    assert!(serial.status.success(), "serial plot failed: {}", stderr(&serial));
    assert!(parallel.status.success(), "parallel plot failed: {}", stderr(&parallel));
    assert_eq!(
        serial.stdout, parallel.stdout,
        "parallel plot output must be byte-identical to serial:\n--- serial ---\n{}\n--- parallel ---\n{}",
        stdout(&serial),
        stdout(&parallel)
    );
    let text = stdout(&serial);
    for name in ["toy", "povray", "analyzer"] {
        assert!(text.contains(name), "plot output is missing {name}:\n{text}");
    }
}

#[test]
fn serve_runs_a_steady_phase_and_reports_epochs() {
    // A steady toy phase: no drift, no swaps, serve and static identical.
    let out = halo(&["serve", "--phases", "toy:2", "--shards", "2", "--json"]);
    assert!(out.status.success(), "halo serve failed: {}", stderr(&out));
    let text = stdout(&out);
    for key in [
        "\"windows\":2",
        "\"swaps\":0",
        "\"recovered\":false",
        "\"epochs\":[",
        "\"phase\":\"toy\"",
        "\"plan_epoch\":0",
        "\"drift\":0.0000",
        "\"swapped\":false",
        "\"swap_latency_us\":",
        "\"miss_reduction\":",
        "\"static_miss_reduction\":",
    ] {
        assert!(text.contains(key), "serve JSON is missing {key}: {text}");
    }
    // Text mode prints the per-epoch table and the verdict line.
    let human = halo(&["serve", "--phases", "toy:2", "--shards", "2"]);
    assert!(human.status.success(), "{}", stderr(&human));
    let human = stdout(&human);
    for needle in ["window", "epoch", "drift", "0 swaps applied"] {
        assert!(human.contains(needle), "serve table is missing {needle}: {human}");
    }
}

#[test]
fn serve_replays_deterministically_modulo_swap_latency() {
    // Everything in the report is deterministic except the swap
    // wall-clock latencies; with no swap in a steady phase the whole
    // document must match byte for byte.
    let args = ["serve", "--phases", "toy:2", "--shards", "2", "--json"];
    let a = halo(&args);
    let b = halo(&args);
    assert!(a.status.success() && b.status.success());
    assert_eq!(a.stdout, b.stdout, "steady serve replays must be byte-identical");
}

#[test]
fn serve_validates_its_flags_and_script() {
    let missing = halo(&["serve"]);
    assert!(!missing.status.success());
    assert!(stderr(&missing).contains("halo serve needs --phases"), "{}", stderr(&missing));

    let malformed = halo(&["serve", "--phases", "toy"]);
    assert!(!malformed.status.success());
    assert!(stderr(&malformed).contains("is not name:windows"), "{}", stderr(&malformed));

    let zero = halo(&["serve", "--phases", "toy:0"]);
    assert!(!zero.status.success());
    assert!(stderr(&zero).contains("positive window count"), "{}", stderr(&zero));

    let unknown = halo(&["serve", "--phases", "nonesuch:2"]);
    assert!(!unknown.status.success());
    assert!(stderr(&unknown).contains("unknown benchmark 'nonesuch'"), "{}", stderr(&unknown));

    let decay = halo(&["serve", "--phases", "toy:1", "--decay", "1.5"]);
    assert!(!decay.status.success());
    assert!(stderr(&decay).contains("--decay 1.5 is out of range"), "{}", stderr(&decay));

    let regroup = halo(&["serve", "--phases", "toy:1", "--regroup-every", "0"]);
    assert!(!regroup.status.success());
    assert!(
        stderr(&regroup).contains("--regroup-every must be at least 1"),
        "{}",
        stderr(&regroup)
    );

    // Run-configuration flags are rejected, so a serve report always
    // reflects `ServeConfig::default()`'s pipeline: `HaloConfig::default()`
    // (grouping `min_weight` 8), not `halo run`'s `paper_config`
    // (`min_weight` 32) — a known drift, ROADMAP direction 4.
    let cfg = halo(&["serve", "--phases", "toy:1", "--chunk-size", "65536"]);
    assert!(!cfg.status.success());
    assert!(stderr(&cfg).contains("halo serve only accepts"), "{}", stderr(&cfg));
}

#[test]
fn chunk_size_and_merge_tolerance_are_validated_at_parse_time() {
    // The allocator's own chunk rule, reported as a parse error instead of
    // a constructor panic on a worker thread (2^60 wraps the slab size).
    for (size, needle) in [
        ("1000", "--chunk-size 1000: chunk size must be a power of two"),
        ("0", "--chunk-size 0: chunk size must be a power of two"),
        ("2048", "--chunk-size 2048: chunks must be at least a page"),
        ("1152921504606846976", "--chunk-size 1152921504606846976: a slab of 64 chunks overflows"),
    ] {
        let out = halo(&["run", "--benchmark", "toy", "--chunk-size", size]);
        assert_eq!(out.status.code(), Some(1), "--chunk-size {size}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains(needle), "for {size}: {err}");
        assert_eq!(err.matches("error:").count(), 1, "one error line for {size}: {err}");
        assert!(!err.contains("panicked at"), "for {size}: {err}");
    }
    // The smallest legal chunk runs, and so does one whose slab exceeds the
    // group span: that degrades to the fallback, which is not a parse error.
    let runs = |size: &str| {
        let out = halo(&["run", "--benchmark", "toy", "--chunk-size", size]);
        assert!(out.status.success(), "--chunk-size {size} failed: {}", stderr(&out));
        stdout(&out)
    };
    runs("4096");
    let huge = runs("8589934592");
    assert!(huge.contains("degradation (halo): 0 injected,"), "{huge}");

    for bad in ["nan", "1.5", "-0.1"] {
        let out = halo(&["run", "--benchmark", "toy", "--merge-tolerance", bad]);
        assert!(!out.status.success(), "--merge-tolerance {bad} must be rejected");
        assert!(
            stderr(&out).contains(&format!("--merge-tolerance {bad} is out of range")),
            "{}",
            stderr(&out)
        );
    }
}

/// A 4 GiB chunk wants a 2 GiB granule table; a host that refuses it takes
/// the `ChunkAlloc` rung of the degradation ladder (the group serves from
/// the fallback), not an abort inside `vec![0; cells]`.
#[cfg(unix)]
#[test]
fn a_granule_table_the_host_refuses_degrades_the_group() {
    let cmd = format!(
        "ulimit -v 4000000; HALO_THREADS=1 exec '{}' run --benchmark toy --chunk-size 4294967296 --json",
        env!("CARGO_BIN_EXE_halo")
    );
    let out = Command::new("sh").args(["-c", &cmd]).output().expect("sh must spawn");
    assert!(out.status.success(), "{:?}: {}", out.status, stderr(&out));
    let text = stdout(&out);
    let degraded: u64 = text
        .split("\"degraded_groups\":")
        .skip(1)
        .map(|rest| rest.split(',').next().and_then(|n| n.parse::<u64>().ok()).expect("a count"))
        .sum();
    assert!(degraded >= 1, "no group degraded: {text}");
}

#[test]
fn errors_are_reported_with_usage() {
    let no_command = halo(&[]);
    assert!(!no_command.status.success(), "bare `halo` must fail");
    assert!(stderr(&no_command).contains("USAGE"));

    let unknown_benchmark = halo(&["run", "--benchmark", "nonesuch"]);
    assert!(!unknown_benchmark.status.success());
    assert!(stderr(&unknown_benchmark).contains("unknown benchmark 'nonesuch'"));

    let unknown_flag = halo(&["run", "--frobnicate"]);
    assert!(!unknown_flag.status.success());
    assert!(stderr(&unknown_flag).contains("unknown flag '--frobnicate'"));

    // One `Flags` struct serves every command; a flag the command never
    // reads must fail, naming the command, not exit 0 having done nothing.
    for (args, command) in [
        (&["run", "--benchmark", "toy", "--phases", "toy:1"][..], "halo run only accepts"),
        (
            &["baseline", "--benchmark", "toy", "--shards", "3", "--chunk-size", "65536"][..],
            "halo baseline only accepts --benchmark, --json",
        ),
        (&["plot", "--benchmark", "toy", "--json"][..], "halo plot only accepts"),
    ] {
        let out = halo(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert_eq!(out.stdout.len(), 0, "no result rows before the error ({args:?})");
        assert!(stderr(&out).contains(command), "for {args:?}: {}", stderr(&out));
    }

    // The retired `halo bench` is an unknown command like any other, and
    // the usage text no longer advertises it or its flags.
    let bench = halo(&["bench"]);
    assert!(!bench.status.success());
    let err = stderr(&bench);
    assert!(err.contains("unknown command 'bench'"), "{err}");
    for gone in ["halo bench", "--out", "--compare"] {
        assert!(!err.contains(gone), "usage still lists {gone}: {err}");
    }

    let missing_value = halo(&["run", "--benchmark"]);
    assert!(!missing_value.status.success());
    assert!(stderr(&missing_value).contains("--benchmark needs a value"));
}

#[test]
fn help_prints_usage_and_succeeds() {
    for flag in ["help", "--help", "-h"] {
        let out = halo(&[flag]);
        assert!(out.status.success(), "halo {flag} must succeed");
        assert!(stderr(&out).contains("USAGE"), "halo {flag} must print usage");
    }
}
