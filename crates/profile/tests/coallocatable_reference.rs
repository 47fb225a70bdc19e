//! O(1) co-allocatability ≡ the binary-search original (DESIGN.md §7).
//!
//! §4.1 admits an affinity edge between objects u (context x, allocation
//! `sx`) and v (context y, allocation `sy`) only if neither x nor y
//! allocated strictly between `sx` and `sy`. The profiler used to answer
//! that with four `partition_point` searches over the two contexts' whole
//! allocation histories; it now reads one neighbour of `sx` (and of `sy`)
//! in its own context's history. The original test is kept here, and the
//! property drives a `Profiler` through its `Monitor` face with random
//! allocation streams over many contexts — frees, objects spanning several
//! pages, both granularities — while this file replays the same accesses
//! through a bare `AffinityQueue` filtered by the original test. Edges,
//! macro-access totals and queue work must agree.

use halo_graph::{AffinityGraph, Granularity, NodeId};
use halo_profile::{
    AffinityQueue, ProfileConfig, Profiler, QueueEntry, MAX_TRACKED_SIZE, PAGE_GRANULARITY_SHIFT,
};
use halo_vm::{AllocKind, CallSite, Monitor, ProgramBuilder};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Whether some allocation in `seqs` (ascending) lies strictly between
/// `lo` and `hi` — one context's half of the co-allocatability test.
type Between = fn(seqs: &[u64], lo: u64, hi: u64) -> bool;

/// The original: two binary searches per context.
fn partition_points(seqs: &[u64], lo: u64, hi: u64) -> bool {
    let from = seqs.partition_point(|&n| n <= lo);
    let to = seqs.partition_point(|&n| n < hi);
    to > from
}

fn coallocatable(
    history: &[Vec<u64>],
    between: Between,
    x: NodeId,
    sx: u64,
    y: NodeId,
    sy: u64,
) -> bool {
    let (lo, hi) = (sx.min(sy), sx.max(sy));
    if between(&history[x.index()], lo, hi) {
        return false;
    }
    x == y || !between(&history[y.index()], lo, hi)
}

/// One replayed lane: its queue and the edges it admitted.
struct RefLane {
    queue: AffinityQueue,
    edges: BTreeMap<(NodeId, NodeId), u64>,
    total: u64,
}

impl RefLane {
    fn new() -> Self {
        RefLane { queue: AffinityQueue::new(128), edges: BTreeMap::new(), total: 0 }
    }

    fn record(&mut self, entry: QueueEntry, history: &[Vec<u64>], between: Between) {
        let edges = &mut self.edges;
        let recorded = self.queue.record_with(entry, |p| {
            if coallocatable(history, between, entry.ctx, entry.alloc_seq, p.ctx, p.alloc_seq) {
                *edges.entry((entry.ctx.min(p.ctx), entry.ctx.max(p.ctx))).or_default() += 1;
            }
        });
        self.total += u64::from(recorded);
    }

    fn assert_matches(&self, graph: &AffinityGraph, total: u64, what: &str) {
        let want: Vec<_> = self.edges.iter().map(|(&(u, v), &w)| (u, v, w)).collect();
        assert_eq!(graph.edges().collect::<Vec<_>>(), want, "{what} edges");
        assert_eq!(total, self.total, "{what} macro-accesses");
    }
}

/// One scripted event: `(kind, a, b)`. Kind 0–1 allocates from context
/// `a % contexts` (every eighth allocation spans pages), 2 frees a live
/// object, 3–9 access one at offset `b`.
type Event = (u8, u32, u32);

/// Drive a profiler and the replay through `events`; assert they agree.
fn assert_profile_matches(
    contexts: u32,
    events: &[Event],
    granularity: Granularity,
    between: Between,
) {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main");
    f.ret(None);
    let main = f.finish();
    let program = pb.finish(main);
    let config = ProfileConfig { keep_fraction: 1.0, granularity, ..Default::default() };
    let mut profiler = Profiler::new(&program, config);
    let pages = granularity.tracks_pages();

    // Context ids are interned in first-allocation order.
    let mut ctx_of_site: BTreeMap<u32, NodeId> = BTreeMap::new();
    let mut history: Vec<Vec<u64>> = Vec::new();
    let (mut objects, mut page_lane) = (RefLane::new(), RefLane::new());
    let mut live: Vec<(u64, u64, u64, NodeId)> = Vec::new(); // (seq, ptr, size, ctx)
    let (mut next_seq, mut next_ptr) = (0u64, 0x10_0000u64);
    for &(kind, a, b) in events {
        match kind {
            0..=1 => {
                let site = a % contexts;
                let size =
                    if a % 8 == 0 { 4096 + u64::from(b % 12_288) } else { 8 + u64::from(b % 248) };
                let ptr = next_ptr;
                next_ptr += size.next_multiple_of(16) + 16;
                profiler.on_alloc(AllocKind::Malloc, CallSite::new(main, site), size, ptr, 0);
                let fresh = NodeId(ctx_of_site.len() as u32);
                let ctx = *ctx_of_site.entry(site).or_insert(fresh);
                if ctx == fresh {
                    history.push(Vec::new());
                }
                history[ctx.index()].push(next_seq);
                // The profiler tracks what either lane may look up.
                if size <= MAX_TRACKED_SIZE || pages {
                    live.push((next_seq, ptr, size, ctx));
                }
                next_seq += 1;
            }
            2 if !live.is_empty() => {
                let (_, ptr, _, _) = live.swap_remove(a as usize % live.len());
                profiler.on_free(CallSite::new(main, 0), ptr);
            }
            _ if !live.is_empty() => {
                let (seq, ptr, size, ctx) = live[a as usize % live.len()];
                let addr = ptr + u64::from(b) % size;
                let width = 1 << (b % 4);
                profiler.on_access(addr, width, false);
                let entry = |obj| QueueEntry { obj, ctx, alloc_seq: seq, size: u64::from(width) };
                if size <= MAX_TRACKED_SIZE {
                    objects.record(entry(seq), &history, between);
                }
                if pages {
                    page_lane.record(entry(addr >> PAGE_GRANULARITY_SHIFT), &history, between);
                }
            }
            _ => {}
        }
    }
    let profile = profiler.finish();
    objects.assert_matches(&profile.graph, profile.total_accesses, "object");
    page_lane.assert_matches(&profile.page_graph, profile.total_page_accesses, "page");
    let work = objects.queue.traversal_work() + page_lane.queue.traversal_work();
    assert_eq!(profile.queue_work, work, "queue work");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn one_neighbour_coallocatability_matches_the_binary_searches(
        contexts in 1u32..40,
        events in proptest::collection::vec((0u8..10, 0u32..4096, 0u32..100_000), 0..800),
        page in any::<bool>(),
    ) {
        let granularity = if page { Granularity::Page } else { Granularity::Object };
        assert_profile_matches(contexts, &events, granularity, partition_points);
    }
}

/// The seeded mutation: an original that counts `hi` itself as "between"
/// must not pass the check.
#[test]
#[should_panic(expected = "object edges")]
fn counting_the_later_allocation_as_between_fails_the_check() {
    // Two contexts allocate once each; their objects are touched in turn.
    let events = [(0, 1, 0), (0, 2, 0), (3, 0, 0), (3, 1, 0), (3, 0, 0)];
    assert_profile_matches(2, &events, Granularity::Object, |seqs, lo, hi| {
        seqs.partition_point(|&n| n <= hi) > seqs.partition_point(|&n| n <= lo)
    });
}
