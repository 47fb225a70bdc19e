//! `alloc-churn`: the allocator as the optimised program's run-time cost,
//! with no VM and no cache model in the way.
//!
//! One operation is one *request* against a 4-shard
//! `ShardedHaloAllocator` (two groups with different plans plus fallback
//! traffic, sizes 16–192 B): 256 `malloc`s on logical thread `t`, then the
//! 256 regions `t`'s previous request allocated are freed — 128 by `t`
//! itself, 128 from logical thread `t+1` (so they ride the owner shard's
//! remote-free queue) — with `t` rotating over four logical threads.
//! Freeing the *previous* request keeps a live set across requests;
//! Table 1's fragmentation figure takes the smallest live size seen at
//! the peak footprint, so a heap that empties after every request would
//! read 100 % whatever the allocator did. Every 2 000 requests
//! `swap_plans` alternates between two plan sets. One OS thread drives all logical threads, so every counter
//! repeats exactly and the OS scheduler stays out of the number. A round
//! is 20 000 requests on a fresh allocator.
//!
//! `halo_mem` does nearly all the work here and only a minor share of the
//! other three workloads (where it sits under the VM and the cache model,
//! or is absent).

use super::guarded;
use crate::fingerprint::Fingerprint;
use crate::gen;
use crate::harness::{LayerValues, OpSample, Round, Scale, Workload};
use crate::span::Tracer;
use crate::stats;
use halo_mem::rt::{enter_site, GroupHeap, NativeSelector};
use halo_mem::{
    AllocatorStats, GroupAllocConfig, GroupSelector, HaloGroupAllocator, ReusePolicy,
    SelectorTable, ShardedAllocStats, ShardedHaloAllocator, SizeClassAllocator,
};
use halo_vm::{CallSite, FuncId, GroupState, Memory, SyncVmAllocator, VmAllocator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::time::Instant;

const ALLOCS_PER_REQUEST: usize = 256;
const LOGICAL_THREADS: u16 = 4;
const SHARDS: usize = 4;
const SWAP_EVERY: usize = 2_000;
const ROUND_REQUESTS: usize = 20_000;
const SMOKE_ROUND_REQUESTS: usize = 1_000;
/// Requests of the untimed prefix that runs under the live-set oracle.
const ORACLE_REQUESTS: usize = 2_000;
const SMOKE_ORACLE_REQUESTS: usize = 200;
/// In the traced replay every this-many-th request gets phase spans.
const SPAN_EVERY: usize = 100;
const BASE_SEED: u64 = 1;

fn config() -> GroupAllocConfig {
    GroupAllocConfig { chunk_size: 65_536, slab_size: 65_536 * 64, ..GroupAllocConfig::default() }
}

fn table() -> SelectorTable {
    SelectorTable::new(
        vec![
            GroupSelector { group: 0, conjunctions: vec![vec![0]] },
            GroupSelector { group: 1, conjunctions: vec![vec![1]] },
        ],
        2,
    )
}

/// The two plan sets `swap_plans` alternates between.
fn plans() -> [Vec<GroupAllocConfig>; 2] {
    let c = config();
    [
        vec![GroupAllocConfig { chunk_size: 16_384, ..c }, c],
        vec![c, GroupAllocConfig { chunk_size: 131_072, ..c }],
    ]
}

fn site() -> CallSite {
    CallSite::new(FuncId(0), 0)
}

/// Group-state for the `i`-th allocation of a request: group 0, group 1,
/// fallback, repeating.
fn select_group(gs: &mut GroupState, i: usize) {
    gs.reset();
    match i % 3 {
        0 => gs.set(0),
        1 => gs.set(1),
        _ => {}
    }
}

fn size_of(code: u8) -> u64 {
    16 * (u64::from(code) + 1)
}

pub struct AllocChurn {
    pub seed: u64,
}

pub struct Input {
    /// Size codes, `ALLOCS_PER_REQUEST` per request.
    sizes: Vec<u8>,
    requests: usize,
    oracle_requests: usize,
    oracle_done: bool,
    scale: Scale,
}

/// The state one round of requests runs against.
struct Heap {
    alloc: ShardedHaloAllocator,
    /// Built once: a swap inside a timed request clones only what
    /// `swap_plans` takes ownership of.
    table: SelectorTable,
    plans: [Vec<GroupAllocConfig>; 2],
    mem: Memory,
    gs: GroupState,
    /// What the request in flight allocated.
    fresh: [u64; ALLOCS_PER_REQUEST],
    /// Per logical thread, what its previous request allocated: the
    /// regions the thread's next request frees.
    backlog: [[u64; ALLOCS_PER_REQUEST]; LOGICAL_THREADS as usize],
    swaps: u64,
    /// Wrapping sum of every pointer handed out: the address layout's
    /// contribution to the fingerprint, at one add per malloc.
    ptr_sum: u64,
}

/// Whether `swap_plans` runs before this request.
fn swap_due(request: usize) -> bool {
    request > 0 && request.is_multiple_of(SWAP_EVERY)
}

fn thread_of(request: usize) -> usize {
    request % usize::from(LOGICAL_THREADS)
}

impl Heap {
    fn new() -> Heap {
        let (table, plans) = (table(), plans());
        Heap {
            alloc: ShardedHaloAllocator::new(SHARDS, config(), table.clone(), plans[0].clone()),
            table,
            plans,
            mem: Memory::new(),
            gs: GroupState::new(2),
            fresh: [0; ALLOCS_PER_REQUEST],
            backlog: [[0; ALLOCS_PER_REQUEST]; LOGICAL_THREADS as usize],
            swaps: 0,
            ptr_sum: 0,
        }
    }

    fn swap_if_due(&mut self, request: usize) {
        if swap_due(request) {
            let next = self.plans[(request / SWAP_EVERY) % 2].clone();
            self.alloc.swap_plans(self.table.clone(), next);
            self.swaps += 1;
        }
    }

    fn free_slots(&mut self, thread: usize, first: usize) {
        for i in (first..ALLOCS_PER_REQUEST).step_by(2) {
            let ptr = std::mem::take(&mut self.backlog[thread][i]);
            if ptr != 0 {
                SyncVmAllocator::free(&self.alloc, ptr, &mut self.mem);
            }
        }
    }

    /// 256 mallocs on the request's logical thread.
    fn malloc_phase(&mut self, request: usize, sizes: &[u8]) {
        SyncVmAllocator::thread_switched(&self.alloc, thread_of(request) as u16);
        for (i, &code) in sizes.iter().enumerate() {
            select_group(&mut self.gs, i);
            let ptr = SyncVmAllocator::malloc(
                &self.alloc,
                size_of(code),
                site(),
                &self.gs,
                &mut self.mem,
            );
            self.ptr_sum = self.ptr_sum.wrapping_add(ptr);
            self.fresh[i] = ptr;
        }
    }

    /// Half of the thread's previous request, freed by the thread itself.
    fn free_local_phase(&mut self, request: usize) {
        self.free_slots(thread_of(request), 0);
    }

    /// The other half, freed from the next logical thread: every one of
    /// these lands on the owner shard's remote-free queue. The request's
    /// own allocations then become the thread's backlog.
    fn free_remote_phase(&mut self, request: usize) {
        SyncVmAllocator::thread_switched(&self.alloc, thread_of(request + 1) as u16);
        self.free_slots(thread_of(request), 1);
        self.backlog[thread_of(request)] = self.fresh;
    }

    fn request(&mut self, request: usize, sizes: &[u8]) {
        self.swap_if_due(request);
        self.malloc_phase(request, sizes);
        self.free_local_phase(request);
        self.free_remote_phase(request);
    }

    /// Free every thread's backlog (locally) and apply all queued frees.
    fn finish(&mut self) -> Finished {
        for thread in 0..usize::from(LOGICAL_THREADS) {
            SyncVmAllocator::thread_switched(&self.alloc, thread as u16);
            self.free_slots(thread, 0);
            self.free_slots(thread, 1);
        }
        self.alloc.drain_remote(&mut self.mem);
        Finished {
            stats: self.alloc.sharded_stats(),
            frag: self.alloc.frag_report(),
            live_bytes: self.alloc.live_bytes(),
            live_grouped_bytes: self.alloc.live_grouped_bytes(),
            plan_epoch: self.alloc.plan_epoch(),
            swaps: self.swaps,
            ptr_sum: self.ptr_sum,
        }
    }
}

/// End-of-round allocator state.
struct Finished {
    stats: ShardedAllocStats,
    frag: halo_mem::FragReport,
    live_bytes: u64,
    live_grouped_bytes: u64,
    plan_epoch: u64,
    swaps: u64,
    ptr_sum: u64,
}

impl Finished {
    fn check(&self, requests: usize) -> Vec<String> {
        let mut failures = Vec::new();
        let a = &self.stats.alloc;
        let expected = (requests * ALLOCS_PER_REQUEST) as u64;
        let (mallocs, frees) =
            (a.grouped_allocs + a.fallback_allocs, a.grouped_frees + a.fallback_frees);
        if (mallocs, frees) != (expected, expected) {
            failures.push(format!(
                "{mallocs} mallocs / {frees} frees counted, expected {expected} each"
            ));
        }
        if self.stats.remote_frees != self.stats.remote_drained {
            failures.push(format!(
                "{} remote frees queued but {} drained",
                self.stats.remote_frees, self.stats.remote_drained
            ));
        }
        // Each request frees its thread's previous request, half of it
        // remotely; the first request of each thread has nothing to free.
        let remote =
            (requests.saturating_sub(usize::from(LOGICAL_THREADS)) * ALLOCS_PER_REQUEST / 2) as u64;
        if self.stats.remote_frees + self.stats.degrade.queue_overflows != remote {
            failures.push(format!(
                "{} remote frees (+{} overflows), expected {remote}",
                self.stats.remote_frees, self.stats.degrade.queue_overflows
            ));
        }
        if self.live_bytes != 0 || self.live_grouped_bytes != 0 {
            failures.push(format!(
                "{} bytes ({} grouped) still live after drain_remote",
                self.live_bytes, self.live_grouped_bytes
            ));
        }
        if self.plan_epoch != self.swaps {
            failures.push(format!("plan epoch {} after {} swaps", self.plan_epoch, self.swaps));
        }
        failures
    }

    /// Table 1's figure for the grouped pools, percent.
    fn frag_pct(&self) -> f64 {
        100.0 * self.frag.wasted_bytes() as f64 / self.frag.peak_resident_bytes.max(1) as f64
    }

    fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprint::new();
        let a = &self.stats.alloc;
        for word in [
            a.grouped_allocs,
            a.fallback_allocs,
            a.grouped_frees,
            a.fallback_frees,
            a.chunks_created,
            a.chunks_reused,
            a.chunks_purged,
            self.stats.remote_frees,
            self.stats.remote_peak_queue,
            self.frag.peak_resident_bytes,
            self.frag.live_at_peak_bytes,
            self.plan_epoch,
            self.ptr_sum,
        ] {
            fp.push(word);
        }
        fp
    }

    /// Check the round and file its exact figures into `round`.
    fn fill(&self, round: &mut Round, requests: usize) {
        round.failures.extend(self.check(requests));
        // Higher is better: the share of the grouped pools' peak
        // footprint that held live data.
        round.quality_pct = 100.0 - self.frag_pct();
        round.fingerprint = self.fingerprint();
        round.exact = vec![
            ("frag_pct", self.frag_pct()),
            ("chunks_created", self.stats.alloc.chunks_created as f64),
            ("remote_frees", self.stats.remote_frees as f64),
        ];
    }
}

/// The untimed prefix: the request stream under a live-set oracle. No two
/// live regions may overlap and no pointer may be null.
fn oracle_prefix(input: &Input) -> Vec<String> {
    let mut heap = Heap::new();
    let mut live: BTreeMap<u64, u64> = BTreeMap::new();
    let mut failures = Vec::new();
    for request in 0..input.oracle_requests {
        heap.swap_if_due(request);
        let sizes = input.request_sizes(request);
        heap.malloc_phase(request, sizes);
        for (&ptr, &code) in heap.fresh.iter().zip(sizes) {
            let end = ptr + size_of(code);
            let clash = ptr == 0
                || live.range(..end).next_back().is_some_and(|(_, &other_end)| other_end > ptr);
            if clash && failures.len() < 5 {
                failures.push(format!("oracle: region {ptr:#x}..{end:#x} overlaps a live region"));
            }
            live.insert(ptr, end);
        }
        for ptr in heap.backlog[thread_of(request)] {
            live.remove(&ptr);
        }
        heap.free_local_phase(request);
        heap.free_remote_phase(request);
    }
    failures.extend(heap.finish().check(input.oracle_requests));
    failures
}

impl Input {
    fn request_sizes(&self, request: usize) -> &[u8] {
        &self.sizes[request * ALLOCS_PER_REQUEST..(request + 1) * ALLOCS_PER_REQUEST]
    }
}

/// One round: every request under its own timer, every 2 000-request
/// batch under a span (the untraced run passes a scratch tracer, so both
/// runs execute the same code).
fn timed_round(input: &Input, tracer: &mut Tracer) -> (Finished, Vec<f64>) {
    let mut heap = Heap::new();
    let mut latencies_ms = Vec::with_capacity(input.requests);
    // The open batch span and the request it started at.
    let mut batch: Option<(u32, usize)> = None;
    for request in 0..input.requests {
        if request.is_multiple_of(SWAP_EVERY) {
            if let Some((open, first)) = batch.take() {
                tracer.end_counted(open, (request - first) as u64, "request");
            }
            tracer.next_op();
            batch = Some((tracer.begin("alloc-churn.request-batch", "mem"), request));
        }
        let sizes = input.request_sizes(request);
        let start = Instant::now();
        heap.request(request, sizes);
        latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    if let Some((open, first)) = batch {
        tracer.end_counted(open, (input.requests - first) as u64, "request");
    }
    (heap.finish(), latencies_ms)
}

impl Workload for AllocChurn {
    type Input = Input;

    fn kinds(&self) -> Vec<String> {
        vec!["request".into()]
    }

    fn build(&self, scale: Scale) -> Input {
        let (requests, oracle_requests) = if scale == Scale::Full {
            (ROUND_REQUESTS, ORACLE_REQUESTS)
        } else {
            (SMOKE_ROUND_REQUESTS, SMOKE_ORACLE_REQUESTS)
        };
        let sizes = gen::request_sizes(
            requests.max(oracle_requests),
            ALLOCS_PER_REQUEST,
            BASE_SEED + self.seed,
        );
        Input { sizes, requests, oracle_requests, oracle_done: false, scale }
    }

    fn warm_up(&self, input: &mut Input) {
        std::hint::black_box(timed_round(input, &mut Tracer::new()).1.len());
    }

    fn round(&self, input: &mut Input) -> Round {
        let mut round = Round { attempted: input.requests as u64, ..Round::default() };
        if !input.oracle_done {
            input.oracle_done = true;
            match guarded("oracle prefix", || Ok(oracle_prefix(input))) {
                Ok(failures) => round.failures.extend(failures),
                Err(e) => round.failures.push(e),
            }
        }
        match guarded("request round", || Ok(timed_round(input, &mut Tracer::new()))) {
            Ok((finished, latencies_ms)) => {
                round.wall_s = latencies_ms.iter().sum::<f64>() / 1e3;
                round.ops = latencies_ms.iter().map(|&ms| OpSample { kind: 0, ms }).collect();
                finished.fill(&mut round, input.requests);
            }
            Err(e) => round.failures.push(e),
        }
        round
    }

    fn trace(&self, input: &mut Input, tracer: &mut Tracer, values: &mut LayerValues) -> Round {
        let mut round = Round { attempted: input.requests as u64, ..Round::default() };
        match guarded("oracle prefix", || Ok(oracle_prefix(input))) {
            Ok(failures) => round.failures.extend(failures),
            Err(e) => round.failures.push(e),
        }
        let (whole, latencies_ms) =
            match guarded("request round", || Ok(timed_round(input, tracer))) {
                Ok(pair) => pair,
                Err(e) => {
                    round.failures.push(e);
                    return round;
                }
            };
        whole.fill(&mut round, input.requests);

        // Replay on a fresh allocator: every swap under a span, every
        // hundredth request split into its three phases.
        tracer.next_op();
        let replay_span = tracer.begin("replay", "bench");
        let mut heap = Heap::new();
        for request in 0..input.requests {
            let sizes = input.request_sizes(request);
            if swap_due(request) {
                let span = tracer.begin("mem.swap_plans", "mem");
                heap.swap_if_due(request);
                tracer.end(span);
            }
            if request % SPAN_EVERY == 0 {
                let span = tracer.begin("mem.malloc_phase", "mem");
                heap.malloc_phase(request, sizes);
                tracer.end_counted(span, ALLOCS_PER_REQUEST as u64, "malloc");
                let span = tracer.begin("mem.free_local_phase", "mem");
                heap.free_local_phase(request);
                tracer.end_counted(span, ALLOCS_PER_REQUEST as u64 / 2, "free");
                let span = tracer.begin("mem.free_remote_phase", "mem");
                heap.free_remote_phase(request);
                tracer.end_counted(span, ALLOCS_PER_REQUEST as u64 / 2, "free");
            } else {
                heap.malloc_phase(request, sizes);
                heap.free_local_phase(request);
                heap.free_remote_phase(request);
            }
        }
        let replayed = heap.finish();
        tracer.end(replay_span);
        if replayed.fingerprint() != round.fingerprint {
            round
                .failures
                .push("replay left the allocator in a different state than the whole round".into());
        }

        let a = replayed.stats.alloc;
        values.set("core.whole_op_ms", latencies_ms.iter().sum::<f64>());
        values.set("mem.request_p50_us", stats::median(&latencies_ms) * 1e3);
        if let Some(p99) = stats::tail_percentile(&latencies_ms, 0.99) {
            values.set("mem.request_p99_us", p99 * 1e3);
        }
        values.set("mem.frag_pct", replayed.frag_pct());
        values.set(
            "mem.grouped_share",
            a.grouped_allocs as f64 / (a.grouped_allocs + a.fallback_allocs).max(1) as f64,
        );
        values.set("mem.chunks_created", a.chunks_created as f64);
        values.set("mem.chunks_reused", a.chunks_reused as f64);
        values.set("mem.chunks_purged", a.chunks_purged as f64);
        values.set("mem.remote_frees", replayed.stats.remote_frees as f64);
        values.set("mem.remote_peak_queue", replayed.stats.remote_peak_queue as f64);
        values.set("mem.queue_overflows", replayed.stats.degrade.queue_overflows as f64);
        values.set("mem.degraded_groups", replayed.stats.degrade.degraded_groups as f64);

        tracer.next_op();
        let probes = tracer.begin("layer_probes", "bench");
        let shrink = if input.scale == Scale::Full { 1 } else { 20 };
        probe_layers(&input.sizes, shrink, tracer, values);
        tracer.end(probes);
        round
    }
}

/// A malloc/free stream for the single-allocator probes: allocations pile
/// up to a 1 024-object backlog, then all but 64 are freed at once, so
/// chunks fill, empty and recycle. Returns calls made (mallocs + frees).
fn backlog_stream<A: VmAllocator>(alloc: &mut A, ops: usize, sizes: &[u8]) -> u64 {
    let (mut mem, mut gs) = (Memory::new(), GroupState::new(2));
    let mut live: Vec<u64> = Vec::with_capacity(1024);
    for i in 0..ops {
        select_group(&mut gs, i);
        live.push(alloc.malloc(size_of(sizes[i % sizes.len()]), site(), &gs, &mut mem));
        if live.len() == 1024 {
            for p in live.drain(64..) {
                alloc.free(p, &mut mem);
            }
        }
    }
    for p in live.drain(..) {
        alloc.free(p, &mut mem);
    }
    2 * ops as u64
}

/// Batches of 256 mallocs on logical thread `t`, every one of them freed
/// from `t+1`: the remote-queue path and nothing else.
fn remote_stream(alloc: &ShardedHaloAllocator, ops: usize, sizes: &[u8]) -> u64 {
    let (mut mem, mut gs) = (Memory::new(), GroupState::new(2));
    let mut ptrs = [0u64; ALLOCS_PER_REQUEST];
    let batches = ops / ALLOCS_PER_REQUEST;
    for batch in 0..batches {
        SyncVmAllocator::thread_switched(alloc, (batch % usize::from(LOGICAL_THREADS)) as u16);
        for (i, slot) in ptrs.iter_mut().enumerate() {
            select_group(&mut gs, i);
            let size = size_of(sizes[(batch * ALLOCS_PER_REQUEST + i) % sizes.len()]);
            *slot = SyncVmAllocator::malloc(alloc, size, site(), &gs, &mut mem);
        }
        SyncVmAllocator::thread_switched(
            alloc,
            ((batch + 1) % usize::from(LOGICAL_THREADS)) as u16,
        );
        for &p in &ptrs {
            SyncVmAllocator::free(alloc, p, &mut mem);
        }
    }
    alloc.drain_remote(&mut mem);
    2 * (batches * ALLOCS_PER_REQUEST) as u64
}

/// `threads` OS threads in a ring on one sharded allocator: each mallocs
/// its share and hands every pointer to its neighbour to free, so every
/// free is remote. Returns calls made.
fn os_thread_ring(alloc: &ShardedHaloAllocator, threads: usize, ops: usize, sizes: &[u8]) -> u64 {
    let per_thread = ops / threads;
    std::thread::scope(|scope| {
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..threads).map(|_| std::sync::mpsc::channel::<u64>()).unzip();
        // Thread i sends to channel i; thread (i+1) % n drains channel i.
        let mut receivers: Vec<Option<_>> = receivers.into_iter().map(Some).collect();
        for (i, tx) in senders.into_iter().enumerate() {
            let rx =
                receivers[(i + threads - 1) % threads].take().expect("each channel has one reader");
            scope.spawn(move || {
                let (mut mem, mut gs) = (Memory::new(), GroupState::new(2));
                for k in 0..per_thread {
                    select_group(&mut gs, k);
                    let size = size_of(sizes[(i * per_thread + k) % sizes.len()]);
                    let ptr = SyncVmAllocator::malloc(alloc, size, site(), &gs, &mut mem);
                    // The neighbour outliving its own loop keeps the receiver open.
                    let _ = tx.send(ptr);
                    // Free what the neighbour has produced so far.
                    while let Ok(p) = rx.try_recv() {
                        SyncVmAllocator::free(alloc, p, &mut mem);
                    }
                }
                drop(tx);
                for p in rx {
                    SyncVmAllocator::free(alloc, p, &mut mem);
                }
            });
        }
    });
    alloc.drain_remote(&mut Memory::new());
    2 * (per_thread * threads) as u64
}

static NATIVE_SELECTORS: &[NativeSelector] = &[NativeSelector { group: 0, masks: &[0b1] }];
static NATIVE_HEAP: GroupHeap = GroupHeap::new(NATIVE_SELECTORS);

/// The same backlog pattern on real memory through a `GlobalAlloc`.
fn native_stream(heap: &dyn GlobalAlloc, ops: usize, sizes: &[u8]) -> u64 {
    let layout =
        |code: u8| Layout::from_size_align(size_of(code) as usize, 8).expect("valid layout");
    let mut live: Vec<(*mut u8, Layout)> = Vec::with_capacity(1024);
    let free_all = |batch: std::vec::Drain<'_, (*mut u8, Layout)>| {
        for (p, l) in batch {
            // SAFETY: `p` came from `heap.alloc(l)` below and is freed once.
            unsafe { heap.dealloc(p, l) };
        }
    };
    for i in 0..ops {
        let l = layout(sizes[i % sizes.len()]);
        // SAFETY: `l` has non-zero size (16..=192 bytes).
        let p = unsafe { heap.alloc(l) };
        assert!(!p.is_null(), "native allocation failed");
        live.push((p, l));
        if live.len() == 1024 {
            free_all(live.drain(64..));
        }
    }
    free_all(live.drain(..));
    2 * ops as u64
}

/// Consecutive grouped allocations exactly `size` apart ÷ grouped
/// allocations: the native heap's co-location, as a ratio.
fn native_colocated_share() -> f64 {
    const N: usize = 10_000;
    let layout = Layout::from_size_align(32, 8).expect("valid layout");
    let _site = enter_site(0);
    // SAFETY: `layout` has non-zero size; every pointer is freed below.
    let ptrs: Vec<*mut u8> = (0..N).map(|_| unsafe { NATIVE_HEAP.alloc(layout) }).collect();
    let adjacent = ptrs.windows(2).filter(|w| w[0] as usize + 32 == w[1] as usize).count();
    for p in ptrs {
        // SAFETY: allocated above with the same layout, freed once.
        unsafe { NATIVE_HEAP.dealloc(p, layout) };
    }
    adjacent as f64 / (N - 1) as f64
}

/// The allocator layer's own throughput rows, each a tight loop over one
/// allocator; `ns/op` counts one `malloc` or one `free` as one op.
fn probe_layers(sizes: &[u8], shrink: usize, tracer: &mut Tracer, values: &mut LayerValues) {
    let ops = 200_000 / shrink;
    let mut probe = |tracer: &mut Tracer, name: &str, f: &mut dyn FnMut() -> u64| {
        let span = tracer.begin(name.trim_end_matches("_ns_per_op"), "mem");
        let calls = f();
        let ns = tracer.end_counted(span, calls, "op");
        values.set(name, ns as f64 / calls.max(1) as f64);
    };
    let c = config();
    let sharded = || ShardedHaloAllocator::new(SHARDS, c, table(), plans()[0].clone());

    let mut size_class = SizeClassAllocator::new();
    probe(tracer, "mem.sizeclass_ns_per_op", &mut || backlog_stream(&mut size_class, ops, sizes));
    let overrides = vec![c, GroupAllocConfig { reuse_policy: ReusePolicy::ShardedFreeLists, ..c }];
    let mut grouped = HaloGroupAllocator::with_group_configs(c, table(), overrides);
    probe(tracer, "mem.group_ns_per_op", &mut || backlog_stream(&mut grouped, ops, sizes));
    let mut local = sharded();
    probe(tracer, "mem.sharded_local_ns_per_op", &mut || backlog_stream(&mut local, ops, sizes));
    let remote = sharded();
    probe(tracer, "mem.sharded_remote_ns_per_op", &mut || remote_stream(&remote, ops, sizes));
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get).min(4);
    let ring = sharded();
    probe(tracer, "mem.sharded_os_threads_ns_per_op", &mut || {
        os_thread_ring(&ring, threads, ops, sizes)
    });
    probe(tracer, "mem.rt_groupheap_ns_per_op", &mut || {
        let _site = enter_site(0);
        native_stream(&NATIVE_HEAP, ops, sizes)
    });
    probe(tracer, "mem.system_ns_per_op", &mut || native_stream(&System, ops, sizes));
    values.set("mem.rt_colocated_share", native_colocated_share());

    // 1 000 alternating swaps, each after a burst of traffic on the old
    // plan so there are current chunks to retire.
    let swapping = sharded();
    let (mut mem, mut gs) = (Memory::new(), GroupState::new(2));
    let swaps = 1_000 / shrink;
    let mut swap_us = Vec::with_capacity(swaps);
    let span = tracer.begin("mem.swap_plans_under_traffic", "mem");
    for k in 0..swaps {
        let mut burst = [0u64; 48];
        for (i, slot) in burst.iter_mut().enumerate() {
            select_group(&mut gs, i);
            *slot = SyncVmAllocator::malloc(
                &swapping,
                size_of(sizes[(k + i) % sizes.len()]),
                site(),
                &gs,
                &mut mem,
            );
        }
        let next = plans()[(k + 1) % 2].clone();
        let start = Instant::now();
        swapping.swap_plans(table(), next);
        swap_us.push(start.elapsed().as_secs_f64() * 1e6);
        for p in burst {
            SyncVmAllocator::free(&swapping, p, &mut mem);
        }
    }
    tracer.end_counted(span, swaps as u64, "swap");
    values.set("mem.swap_plans_us_p50", stats::median(&swap_us));
    if let Some(p99) = stats::tail_percentile(&swap_us, 0.99) {
        values.set("mem.swap_plans_us_p99", p99);
    }
}
