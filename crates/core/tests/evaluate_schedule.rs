//! The schedule of `evaluate` (DESIGN.md §14): one job list — the two
//! artefact producers, then the enabled backends — on `par_map`, with the
//! artefacts in `OnceLock` cells that consumers take by `get_or_init`.
//!
//! Two things are pinned here, neither by touching `HALO_THREADS` (the
//! byte-identity matrix over thread counts drives the real binary from
//! `tests/cli_smoke.rs`): which stage's error an evaluation reports when
//! several stages fail, and — on toy closures, no engine — that the
//! producer/consumer pattern returns, with the right payload, when a
//! producer panics. Every fan-out that could strand a consumer runs under
//! a watchdog so a regression is a failed test, not a hung job.

use halo_core::{evaluate_with_arg, measure, par_map, thread_count, Halo, PipelineError};
use halo_mem::SizeClassAllocator;
use halo_vm::{EngineLimits, VmError};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};
use std::time::Duration;

#[allow(dead_code)] // each suite uses its own part
mod common;
use common::{fig2_eval, fig2_trap};

#[test]
fn the_pipelines_error_outranks_every_measurements() {
    // Every stage fails, each in its own way: the train-input stages run
    // out of fuel in the busy loop, the measurements — deeper call budget
    // spent first — exceed the call depth. The evaluation reports the
    // first stage of the list, as the serial chain always did, whichever
    // job failed first in time (a measurement, here: it traps sooner).
    let p = fig2_trap(32, 1_000_000);
    let mut cfg = fig2_eval(&["halo-sharded", "random", "ptmalloc"]);
    cfg.halo.limits = EngineLimits { max_instructions: 100_000, max_call_depth: 64 };
    cfg.measure.limits = EngineLimits { max_instructions: 50_000_000, max_call_depth: 16 };
    cfg.measure.entry_arg = 1;
    let alone = measure(&p, &mut SizeClassAllocator::new(), &cfg.measure);
    assert_eq!(alone.err(), Some(VmError::CallDepthExceeded), "the measurements fail differently");
    let err = evaluate_with_arg(&p, "fuel", 1, 1, &cfg).expect_err("every stage traps");
    assert_eq!(err, PipelineError::Vm(VmError::FuelExhausted));
}

#[test]
fn a_ref_only_trap_reports_the_baselines_error_not_a_later_backends() {
    // Train input: divisor 1. Ref input: divisor 0 — every measurement
    // traps and no producer does. The HALO backends run the rewritten
    // binary, where instrumentation moved the division, so their error
    // differs from the one the unmodified binary raises; the registry's
    // first backend (the baseline) decides, and its last enabled one
    // (`halo-sharded`, on the rewritten binary) must not.
    let p = fig2_trap(0, 0);
    let mut cfg = fig2_eval(&["halo-sharded"]);
    cfg.measure.entry_arg = 0;
    let original = measure(&p, &mut SizeClassAllocator::new(), &cfg.measure)
        .expect_err("the ref input divides by zero");
    assert!(matches!(original, VmError::DivisionByZero { .. }), "{original:?}");

    let halo = Halo::new(cfg.halo);
    let optimised = halo.optimise_with_arg(&p, 1, 1).expect("the train input runs clean");
    assert!(optimised.rewrite.sites_instrumented > 0, "main must be instrumented");
    let rewritten = measure(&optimised.program, &mut halo.make_allocator(&optimised), &cfg.measure)
        .expect_err("the rewritten binary divides by zero too");
    assert_ne!(rewritten, original, "the two binaries must trap at different sites");

    let err = evaluate_with_arg(&p, "ref-trap", 1, 1, &cfg).expect_err("every backend traps");
    assert_eq!(err, PipelineError::Vm(original));
}

/// Run `f` on its own thread and give up after `limit`: a stranded
/// consumer must fail the test rather than hang it.
fn within<T: Send + 'static>(
    limit: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::thread::Result<T> {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
    });
    let outcome = rx.recv_timeout(limit).expect("the fan-out hung: a job never returned");
    runner.join().expect("the runner only forwards its closure's outcome");
    outcome
}

fn payload(outcome: std::thread::Result<Vec<u32>>) -> String {
    let payload = outcome.expect_err("the fan-out must re-raise the job's panic");
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .expect("a string payload")
}

/// `evaluate`'s shape on toy closures: job 0 produces the artefact, the
/// rest consume it through the same `get_or_init`.
enum Job {
    Produce,
    Consume(u32),
}

const WATCHDOG: Duration = Duration::from_secs(60);

#[test]
fn an_artefact_is_computed_once_however_many_jobs_ask_for_it() {
    let jobs: Vec<Job> = std::iter::once(Job::Produce).chain((1..=16).map(Job::Consume)).collect();
    let (out, runs) = within(WATCHDOG, move || {
        let runs = AtomicUsize::new(0);
        let cell = OnceLock::<u32>::new();
        let produce = || {
            runs.fetch_add(1, Ordering::SeqCst);
            // Long enough for consumers to arrive while it runs.
            std::thread::sleep(Duration::from_millis(20));
            100
        };
        let out = par_map(&jobs, |job| match job {
            Job::Produce => *cell.get_or_init(produce),
            Job::Consume(n) => cell.get_or_init(produce) + n,
        });
        (out, runs.into_inner())
    })
    .expect("nothing panics");
    assert_eq!(out, (0..=16).map(|n| 100 + n).collect::<Vec<u32>>());
    assert_eq!(runs, 1);
}

#[test]
fn a_panicking_producer_propagates_its_payload_and_strands_nobody() {
    let jobs = [Job::Produce, Job::Consume(1), Job::Consume(2), Job::Consume(3)];
    let outcome = within(WATCHDOG, move || {
        let parallel = thread_count(jobs.len()) > 1;
        let consumer_arrived = AtomicBool::new(false);
        let cell = OnceLock::<u32>::new();
        let produce = || -> u32 {
            // Hold the cell until a consumer is at (or about to enter)
            // `get_or_init`, so the panic happens with a waiter parked on
            // the initialiser whenever more than one worker runs.
            while parallel && !consumer_arrived.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(20));
            panic!("the producer failed");
        };
        par_map(&jobs, |job| match job {
            Job::Produce => *cell.get_or_init(produce),
            Job::Consume(n) => {
                consumer_arrived.store(true, Ordering::SeqCst);
                cell.get_or_init(produce) + n
            }
        })
    });
    assert_eq!(payload(outcome), "the producer failed");
}

#[test]
fn the_producers_panic_outranks_a_consumers_earlier_one() {
    let jobs = [Job::Produce, Job::Consume(1)];
    let outcome = within(WATCHDOG, move || {
        let parallel = thread_count(jobs.len()) > 1;
        let consumer_panicking = AtomicBool::new(false);
        let cell = OnceLock::<u32>::new();
        par_map(&jobs, |job| match job {
            Job::Produce => *cell.get_or_init(|| {
                // Second in time, first in the list.
                while parallel && !consumer_panicking.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_millis(50));
                panic!("the producer failed");
            }),
            Job::Consume(n) => {
                consumer_panicking.store(true, Ordering::SeqCst);
                panic!("consumer {n} failed");
            }
        })
    });
    assert_eq!(payload(outcome), "the producer failed");
}
