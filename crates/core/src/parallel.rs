//! Deterministic parallel fan-out for workload sweeps.
//!
//! `halo plot`, `halo run --benchmark all`, and the fig12/fig13/fig14
//! harnesses are embarrassingly parallel across workloads: every job owns
//! its whole pipeline (profiler, allocators, simulated memory), so nothing
//! is shared but the read-only workload descriptions. [`par_each_ordered`]
//! runs such jobs on scoped std threads and delivers results **in input
//! order, streamed as soon as each prefix completes** — so callers that
//! render results to text print rows progressively (like the old serial
//! loops) yet produce byte-identical output at any thread count, the
//! property `tests/cli_smoke.rs` pins down. [`par_map`] is the
//! collect-everything convenience wrapper.
//!
//! Thread count: `HALO_THREADS` if set (a positive integer; `1` forces the
//! serial path), else [`std::thread::available_parallelism`], capped at
//! the number of jobs. No crates.io dependency — just `std::thread::scope`,
//! an atomic work-stealing cursor, and one `mpsc` channel the calling
//! thread reorders for in-order delivery.

use halo_graph::SubGraph;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Parse a `HALO_THREADS` value: a positive integer (`1` forces the
/// serial path). `Err` describes why the value is unusable — `0` and
/// non-numeric strings used to be silently ignored, which made typos like
/// `HALO_THREADS=max` run at full parallelism without a word.
fn parse_halo_threads(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "HALO_THREADS={value} is invalid: thread count must be at least 1 \
             (use 1 to force the serial path)"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "HALO_THREADS={value} is invalid: expected a positive integer, \
             e.g. HALO_THREADS=1 for the serial path"
        )),
    }
}

/// Worker threads to use for `jobs` independent jobs (≥ 1).
///
/// Honours `HALO_THREADS` when set to a valid positive integer. An unset
/// variable is ignored silently; an invalid value warns on stderr (once
/// per process) and falls back to the hardware parallelism instead of
/// being silently ignored — the workspace's one env-override rule, which
/// `HALO_PROPTEST_CASES` follows too.
pub fn thread_count(jobs: usize) -> usize {
    static WARNED: AtomicBool = AtomicBool::new(false);
    let value = std::env::var("HALO_THREADS").ok();
    let requested = threads_override(value.as_deref(), &WARNED)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    requested.min(jobs).max(1)
}

/// The thread count `HALO_THREADS=value` asks for (`None` when unset or
/// invalid), warning the first time `warned` sees an invalid value.
fn threads_override(value: Option<&str>, warned: &AtomicBool) -> Option<usize> {
    match parse_halo_threads(value?) {
        Ok(threads) => Some(threads),
        Err(reason) => {
            if !warned.swap(true, Ordering::Relaxed) {
                eprintln!("warning: {reason}; using hardware parallelism");
            }
            None
        }
    }
}

/// Apply `f` to every item on a pool of scoped threads, handing each
/// result to `sink` in input order as soon as its prefix is complete
/// (item N's result is delivered once items 0..N have been delivered).
///
/// `sink` returns `false` to cancel the sweep: jobs not yet claimed are
/// skipped, already-running jobs finish but their results are dropped.
/// A panic in `f` cancels the sweep the same way and reaches the caller
/// with its original payload; when several jobs panic, the one on the
/// lowest-index item wins.
pub fn par_each_ordered<T, R, F, S>(items: &[T], f: F, mut sink: S)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    S: FnMut(R) -> bool,
{
    let threads = thread_count(items.len());
    if threads <= 1 {
        for item in items {
            if !sink(f(item)) {
                return;
            }
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);
    let (results, inbox) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (f, cursor, cancelled, results) = (&f, &cursor, &cancelled, results.clone());
            scope.spawn(move || {
                while !cancelled.load(Ordering::Acquire) {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let outcome = catch_unwind(AssertUnwindSafe(|| f(item)));
                    if outcome.is_err() {
                        cancelled.store(true, Ordering::Release);
                    }
                    // Fails only once the caller has unwound out of `sink`
                    // and dropped the receiver: nobody is left to deliver to.
                    if results.send((i, outcome)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(results);
        // This (the spawning) thread reorders into `sink` until the last
        // worker hangs up.
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(items.len(), || None);
        let mut next = 0;
        let mut first_panic: Option<(usize, Box<dyn Any + Send>)> = None;
        for (i, outcome) in inbox {
            match outcome {
                Ok(result) => slots[i] = Some(result),
                Err(payload) => {
                    if first_panic.as_ref().is_none_or(|&(earliest, _)| i < earliest) {
                        first_panic = Some((i, payload));
                    }
                }
            }
            while !cancelled.load(Ordering::Acquire) {
                let Some(result) = slots.get_mut(next).and_then(Option::take) else { break };
                if !sink(result) {
                    cancelled.store(true, Ordering::Release);
                }
                next += 1;
            }
        }
        if let Some((_, payload)) = first_panic {
            resume_unwind(payload);
        }
    });
}

/// [`par_each_ordered`], collected: apply `f` to every item and return all
/// results in input order regardless of completion order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut results = Vec::with_capacity(items.len());
    par_each_ordered(items, f, |r| {
        results.push(r);
        true
    });
    results
}

/// Union independently built [`SubGraph`] deltas into one by parallel
/// tree reduction: each round pairs adjacent shards and merges the pairs
/// concurrently (an odd tail passes through), halving the count until one
/// remains. Because [`SubGraph::merge`] is commutative and associative,
/// the result is observably identical to the serial left fold at any
/// thread count — `tests/property_invariants.rs` pins that down.
///
/// This is the scale path for profiles recorded in pieces (trace
/// partitions, generator workers): `benchmark/`'s `graph-scale` workload
/// times it on eight 1 M-node shards. The serial profiler does not come
/// through here — its lanes record one delta each.
///
/// `par_map` borrows its items, but `merge` consumes both sides; each
/// pair rides in a `Mutex<Option<_>>` cell the worker takes ownership
/// from. The per-round mutex traffic is two uncontended locks per merge,
/// noise next to the merges themselves.
pub fn par_merge_subgraphs(mut shards: Vec<SubGraph>) -> SubGraph {
    while shards.len() > 1 {
        type Cell = Mutex<(Option<SubGraph>, Option<SubGraph>)>;
        let mut cells: Vec<Cell> = Vec::with_capacity(shards.len().div_ceil(2));
        let mut iter = shards.into_iter();
        while let Some(a) = iter.next() {
            cells.push(Mutex::new((Some(a), iter.next())));
        }
        shards = par_map(&cells, |cell| {
            let (a, b) = {
                let mut guard = cell.lock().expect("merge cell");
                (guard.0.take(), guard.1.take())
            };
            let a = a.expect("each cell is visited exactly once");
            match b {
                Some(b) => a.merge(b),
                None => a,
            }
        });
    }
    shards.pop().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_graph::NodeId;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(&items, |&n| {
            // Reverse completion order: later items finish first.
            std::thread::sleep(std::time::Duration::from_micros(100 - n));
            n * 2
        });
        assert_eq!(out, items.iter().map(|n| n * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs_work() {
        assert_eq!(par_map(&[] as &[u32], |&n| n), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], |&n| n + 1), vec![8]);
    }

    #[test]
    fn thread_count_is_capped_by_jobs_and_floored_at_one() {
        assert_eq!(thread_count(0), 1);
        assert_eq!(thread_count(1), 1);
        assert!(thread_count(64) >= 1);
    }

    #[test]
    fn halo_threads_values_parse_or_explain() {
        assert_eq!(parse_halo_threads("1"), Ok(1));
        assert_eq!(parse_halo_threads("16"), Ok(16));
        assert_eq!(parse_halo_threads(" 4 "), Ok(4), "surrounding whitespace tolerated");
        for bad in ["0", "max", "", "-2", "1.5", "two"] {
            let err = parse_halo_threads(bad).expect_err(bad);
            assert!(err.contains("HALO_THREADS"), "error names the variable: {err}");
            assert!(err.contains("invalid"), "error says why: {err}");
        }
    }

    #[test]
    fn unset_variables_are_silently_ignored() {
        let warned = AtomicBool::new(false);
        assert_eq!(threads_override(None, &warned), None);
        assert!(!warned.load(Ordering::Relaxed));
    }

    #[test]
    fn set_variables_parse_or_fall_back() {
        let warned = AtomicBool::new(false);
        assert_eq!(threads_override(Some("12"), &warned), Some(12));
        assert!(!warned.load(Ordering::Relaxed), "a valid value does not warn");
        assert_eq!(threads_override(Some("max"), &warned), None, "invalid values fall back");
        assert!(warned.load(Ordering::Relaxed), "and warn");
        // Warned once; a second failure stays quiet but still falls back.
        assert_eq!(threads_override(Some("0"), &warned), None);
        assert!(warned.load(Ordering::Relaxed));
    }

    #[test]
    fn sink_cancellation_stops_the_sweep() {
        use std::sync::atomic::AtomicUsize;
        let started = AtomicUsize::new(0);
        let items: Vec<u32> = (0..1000).collect();
        let mut delivered = Vec::new();
        par_each_ordered(
            &items,
            |&n| {
                started.fetch_add(1, Ordering::Relaxed);
                // Slow enough that the sweep cannot drain all 1000 jobs
                // before the sink's cancellation lands.
                std::thread::sleep(std::time::Duration::from_micros(200));
                n
            },
            |n| {
                delivered.push(n);
                n < 3 // cancel after delivering 0, 1, 2, 3
            },
        );
        assert_eq!(delivered, vec![0, 1, 2, 3]);
        // Unclaimed jobs were skipped (in-flight ones may still finish).
        assert!(started.load(Ordering::Relaxed) < 1000, "cancellation did not stop the sweep");
    }

    #[test]
    fn delivery_streams_before_the_sweep_finishes() {
        // Item 9 blocks until item 0 has been *delivered* — only possible
        // if delivery is streamed, not batched after all jobs complete.
        use std::sync::atomic::AtomicBool;
        let first_delivered = AtomicBool::new(false);
        let items: Vec<u32> = (0..10).collect();
        let mut seen = 0;
        par_each_ordered(
            &items,
            |&n| {
                if n == 9 && thread_count(10) > 1 {
                    while !first_delivered.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
                n
            },
            |_| {
                seen += 1;
                first_delivered.store(true, Ordering::Release);
                true
            },
        );
        assert_eq!(seen, 10);
    }

    #[test]
    fn tree_merge_matches_serial_fold() {
        // Shards with overlapping nodes/edges and an odd count (so the
        // pass-through tail path runs).
        let shards: Vec<SubGraph> = (0..7u32)
            .map(|s| {
                let mut sub = SubGraph::new();
                for i in 0..20u32 {
                    sub.add_accesses(NodeId((s * 3 + i) % 25), (s + i) as u64);
                    sub.add_edge_weight(
                        NodeId(i % 5),
                        NodeId((s + i) % 25),
                        1 + (s + i) as u64 % 7,
                    );
                }
                sub
            })
            .collect();
        let serial = shards.iter().cloned().fold(SubGraph::new(), SubGraph::merge);
        let parallel = par_merge_subgraphs(shards);
        assert_eq!(parallel.len(), serial.len());
        assert_eq!(parallel.edges(), serial.edges());
        for i in 0..25 {
            assert_eq!(parallel.accesses(NodeId(i)), serial.accesses(NodeId(i)), "node {i}");
        }
    }

    #[test]
    fn tree_merge_handles_empty_and_single() {
        assert!(par_merge_subgraphs(Vec::new()).is_empty());
        let mut only = SubGraph::new();
        only.add_edge_weight(NodeId(0), NodeId(1), 9);
        let merged = par_merge_subgraphs(vec![only]);
        assert_eq!(merged.weight(NodeId(0), NodeId(1)), 9);
    }

    #[test]
    #[should_panic(expected = "job 0 failed")]
    fn lowest_index_panic_wins_when_two_workers_panic() {
        // Job 1 panics first in time; job 0 is already running on another
        // worker and panics well after. The caller must see job 0's.
        let parallel = thread_count(2) > 1;
        let second_is_panicking = AtomicBool::new(false);
        par_map(&[0u32, 1], |&n| {
            if n == 1 {
                second_is_panicking.store(true, Ordering::Release);
            } else if parallel {
                while !second_is_panicking.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            panic!("job {n} failed");
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..8).collect();
        par_map(&items, |&n| {
            if n == 3 {
                panic!("boom");
            }
            n
        });
    }
}
