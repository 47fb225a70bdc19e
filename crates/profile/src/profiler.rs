//! The profiler monitor: turns one execution into a [`Profile`].

use crate::objects::ObjectTracker;
use crate::queue::{AffinityQueue, QueueEntry};
use crate::shadow::{RawContext, ShadowStack};
use halo_graph::{AffinityGraph, Granularity, NodeId, SubGraph};
use halo_vm::{AllocKind, CallSite, FuncId, Monitor, Program, PAGE_SIZE};
use std::collections::HashMap;

/// Base-2 log of the page size used for page-granularity identities: the
/// simulated machine's 4 KiB page.
pub const PAGE_GRANULARITY_SHIFT: u64 = PAGE_SIZE.trailing_zeros() as u64;

/// Objects larger than this are not tracked at object granularity (§5.1:
/// "profiled with a maximum grouped-object size of 4 KiB"). Page-granularity
/// tracking has no size cap — that is its point (§6).
pub const MAX_TRACKED_SIZE: u64 = 4096;

/// Profiling-stage parameters (§4.1 and §5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileConfig {
    /// The affinity distance `A` in bytes. §5.1 selects 128 from the
    /// Fig. 12 sweep.
    pub affinity_distance: u64,
    /// Fraction of accesses the retained contexts must cover; the rest are
    /// discarded (90% in the paper).
    pub keep_fraction: f64,
    /// Enforce the co-allocatability constraint on affinity edges (§4.1).
    /// Always on in the paper; exposed for the ablation bench.
    pub enforce_coallocatability: bool,
    /// Which identities macro-accesses are keyed by. `Object` records only
    /// the paper's object-level graph; `Page` and `Auto` additionally
    /// record the page-level graph ([`Profile::page_graph`]), keying queue
    /// identities by `addr >> 12` attributed to the allocation context
    /// owning the address.
    pub granularity: Granularity,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            affinity_distance: 128,
            keep_fraction: 0.9,
            enforce_coallocatability: true,
            granularity: Granularity::Object,
        }
    }
}

/// Everything recorded about one allocation context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextInfo {
    /// Graph node / context id.
    pub id: NodeId,
    /// Call-site chain (reduced shadow frames' sites, outermost first,
    /// plus the allocation site) — the
    /// "member" fed to identification.
    pub chain: Vec<CallSite>,
    /// Human-readable name for reports (Fig. 9 labels).
    pub name: String,
    /// Allocations made from this context.
    pub allocs: u64,
    /// Macro-accesses to this context's objects.
    pub accesses: u64,
    /// Page-granularity macro-accesses attributed to this context (0 when
    /// page tracking is off).
    pub page_accesses: u64,
    /// Whether the 90% filter discarded this context.
    pub discarded: bool,
}

/// The output of a profiling run.
#[derive(Debug, Clone)]
pub struct Profile {
    /// The affinity graph over retained contexts.
    pub graph: AffinityGraph,
    /// The page-granularity affinity graph over the *same* context ids
    /// (§6's fallback). Empty (no nodes) when the configured granularity
    /// was [`Granularity::Object`]; its own 90% filter applies otherwise,
    /// so a context can be alive in one graph and discarded in the other.
    pub page_graph: AffinityGraph,
    /// All contexts ever observed, indexed by [`NodeId`]; discarded ones
    /// keep their data but are marked.
    pub contexts: Vec<ContextInfo>,
    /// Total macro-accesses to tracked heap objects.
    pub total_accesses: u64,
    /// Total page-granularity macro-accesses (0 when page tracking is off).
    pub total_page_accesses: u64,
    /// Total allocations observed (any size).
    pub total_allocs: u64,
    /// Affinity-queue entries inspected during profiling (object and page
    /// queues combined) — the overhead that grows with the affinity
    /// distance (§5.1, Fig. 12 trade-off).
    pub queue_work: u64,
}

impl Profile {
    /// Contexts that survived filtering.
    pub fn alive_contexts(&self) -> impl Iterator<Item = &ContextInfo> {
        self.contexts.iter().filter(|c| !c.discarded)
    }

    /// Look up a context by id.
    pub fn context(&self, id: NodeId) -> &ContextInfo {
        &self.contexts[id.index()]
    }
}

/// The allocation history co-allocatability is judged on: each context's
/// allocation sequence numbers, ascending, and each allocation's position
/// among its context's. Sequence numbers are dense: the n-th allocation
/// observed is n.
#[derive(Default)]
struct AllocOrder {
    /// Per context, its allocations.
    seqs: Vec<Vec<u64>>,
    /// Per allocation, its index in its context's `seqs` (4 B each).
    ranks: Vec<u32>,
}

impl AllocOrder {
    /// Record the next allocation, made from `ctx`; returns its sequence
    /// number.
    fn push(&mut self, ctx: NodeId) -> u64 {
        if self.seqs.len() <= ctx.index() {
            self.seqs.resize_with(ctx.index() + 1, Vec::new);
        }
        let seq = self.len();
        let seqs = &mut self.seqs[ctx.index()];
        self.ranks.push(u32::try_from(seqs.len()).expect("a context's allocations fit u32"));
        seqs.push(seq);
        seq
    }

    /// Allocations recorded.
    fn len(&self) -> u64 {
        self.ranks.len() as u64
    }

    /// Whether `ctx` made an allocation strictly between `own` — one of
    /// `ctx`'s own allocations — and `other`. The one candidate is `own`'s
    /// neighbour in `ctx`'s ascending sequence, on `other`'s side
    /// (DESIGN.md §7).
    #[inline]
    fn allocated_between(&self, ctx: NodeId, own: u64, other: u64) -> bool {
        let seqs = &self.seqs[ctx.index()];
        let rank = self.ranks[own as usize] as usize;
        if own < other {
            seqs.get(rank + 1).is_some_and(|&next| next < other)
        } else {
            rank > 0 && seqs[rank - 1] > other
        }
    }

    /// Co-allocatability (§4.1): "no allocations made between u and v
    /// chronologically can originate from either x or y". Were that
    /// violated, u and v could not end up adjacent in a shared bump pool.
    #[inline]
    fn coallocatable(&self, x: NodeId, sx: u64, y: NodeId, sy: u64) -> bool {
        !self.allocated_between(x, sx, sy) && (x == y || !self.allocated_between(y, sy, sx))
    }
}

/// One recording lane: the affinity queue of one identity (objects, or
/// 4 KiB pages), the edges it found and its macro-access total. Both
/// granularities record through [`Lane::record`] and finish through
/// [`Lane::finish`]; they differ only in the [`QueueEntry::obj`] they key
/// the queue by.
struct Lane {
    queue: AffinityQueue,
    /// Every edge increment so far (DESIGN.md §13). Thread-agnostic: an
    /// increment weighs the same whichever logical thread caused it, so a
    /// program's thread switches never reach the lane.
    delta: SubGraph,
    /// Macro-accesses recorded.
    total: u64,
}

impl Lane {
    fn new(distance: u64) -> Self {
        Lane { queue: AffinityQueue::new(distance), delta: SubGraph::new(), total: 0 }
    }

    /// Offer one access to the queue. The queue applies the
    /// consecutiveness (macro-access) check once; partners that pass the
    /// co-allocatability test (when `enforce`d) stream straight into edge
    /// updates, nothing materializes. Returns whether the access counted
    /// as a macro-access.
    fn record(&mut self, entry: QueueEntry, order: &AllocOrder, enforce: bool) -> bool {
        let delta = &mut self.delta;
        let QueueEntry { ctx, alloc_seq, .. } = entry;
        let recorded = self.queue.record_with(entry, |partner| {
            if !enforce || order.coallocatable(ctx, alloc_seq, partner.ctx, partner.alloc_seq) {
                delta.add_edge_weight(ctx, partner.ctx, 1);
            }
        });
        self.total += u64::from(recorded);
        recorded
    }

    /// Give every context its node and its access count (`accesses` picks
    /// this lane's counter) and adopt the delta as the graph — no edge is
    /// hashed a second time — with the cold-node filter applied.
    fn finish(
        mut self,
        contexts: &[ContextInfo],
        accesses: impl Fn(&ContextInfo) -> u64,
        keep_fraction: f64,
    ) -> AffinityGraph {
        for c in contexts {
            self.delta.add_accesses(c.id, accesses(c));
        }
        let mut graph = self.delta.into_graph();
        graph.discard_cold_nodes(keep_fraction);
        graph
    }
}

/// A [`Monitor`] implementing the paper's profiling stage. Drive a program
/// through it with [`halo_vm::Engine::run`], then call
/// [`Profiler::finish`].
pub struct Profiler<'p> {
    program: &'p Program,
    config: ProfileConfig,
    shadow: ShadowStack<'p>,
    objects: ObjectTracker,
    /// The object-identity lane.
    object: Lane,
    /// The page-identity lane, over the same node ids; recorded only when
    /// `config.granularity` tracks pages.
    page: Option<Lane>,
    intern: HashMap<RawContext, NodeId>,
    contexts: Vec<ContextInfo>,
    order: AllocOrder,
}

impl<'p> Profiler<'p> {
    /// Create a profiler for one run of `program`.
    ///
    /// # Panics
    ///
    /// Panics when `config.keep_fraction` is outside `[0, 1]` — before the
    /// run, not in the cold-node filter after it.
    pub fn new(program: &'p Program, config: ProfileConfig) -> Self {
        let keep = config.keep_fraction;
        assert!((0.0..=1.0).contains(&keep), "keep_fraction {keep} must be within [0, 1]");
        Profiler {
            program,
            config,
            shadow: ShadowStack::new(program),
            objects: ObjectTracker::new(),
            object: Lane::new(config.affinity_distance),
            page: config.granularity.tracks_pages().then(|| Lane::new(config.affinity_distance)),
            intern: HashMap::new(),
            contexts: Vec::new(),
            order: AllocOrder::default(),
        }
    }

    fn intern_context(&mut self, raw: RawContext) -> NodeId {
        if let Some(&id) = self.intern.get(&raw) {
            return id;
        }
        // Both lanes' graphs are built over this one id space, so groups
        // from either granularity index the same context table.
        let id = NodeId(u32::try_from(self.contexts.len()).expect("context ids fit NodeId's u32"));
        let name = self.context_name(&raw);
        self.contexts.push(ContextInfo {
            id,
            chain: raw.chain(),
            name,
            allocs: 0,
            accesses: 0,
            page_accesses: 0,
            discarded: false,
        });
        self.intern.insert(raw, id);
        id
    }

    fn context_name(&self, raw: &RawContext) -> String {
        let mut parts: Vec<String> =
            raw.frames.iter().map(|&(f, _)| self.program.function(f).name.clone()).collect();
        let site_fn = &self.program.function(raw.alloc_site.func).name;
        parts.push(format!("{}+{}", site_fn, raw.alloc_site.pc));
        parts.join("→")
    }

    /// Finish profiling: fix node access counts, apply the 90% filter (to
    /// each granularity's graph independently), and emit the [`Profile`].
    pub fn finish(self) -> Profile {
        let keep = self.config.keep_fraction;
        let total_accesses = self.object.total;
        let total_page_accesses = self.page.as_ref().map_or(0, |lane| lane.total);
        let queue_work = self.object.queue.traversal_work()
            + self.page.as_ref().map_or(0, |lane| lane.queue.traversal_work());
        let graph = self.object.finish(&self.contexts, |c| c.accesses, keep);
        let page_graph = self.page.map_or_else(AffinityGraph::new, |lane| {
            lane.finish(&self.contexts, |c| c.page_accesses, keep)
        });
        let mut contexts = self.contexts;
        for c in &mut contexts {
            c.discarded = !graph.is_alive(c.id);
        }
        Profile {
            graph,
            page_graph,
            contexts,
            total_accesses,
            total_page_accesses,
            total_allocs: self.order.len(),
            queue_work,
        }
    }
}

impl Monitor for Profiler<'_> {
    fn on_call(&mut self, site: CallSite, callee: FuncId) {
        self.shadow.on_call(site, callee);
    }

    fn on_return(&mut self, callee: FuncId) {
        self.shadow.on_return(callee);
    }

    fn on_alloc(&mut self, kind: AllocKind, site: CallSite, size: u64, ptr: u64, old_ptr: u64) {
        if kind == AllocKind::Realloc && old_ptr != 0 {
            self.objects.remove(old_ptr);
        }
        let raw = self.shadow.capture(site).reduced();
        let ctx = self.intern_context(raw);
        let seq = self.order.push(ctx);
        self.contexts[ctx.index()].allocs += 1;
        // Page tracking has no size cap — large arrays are exactly what the
        // §6 fallback exists for. The object-granularity path re-applies the
        // cap per access (`on_access`), so object-mode behaviour is
        // unchanged by the wider tracking.
        if size <= MAX_TRACKED_SIZE || self.page.is_some() {
            self.objects.insert(seq, ptr, size, ctx);
        }
    }

    fn on_free(&mut self, _site: CallSite, ptr: u64) {
        self.objects.remove(ptr);
    }

    fn on_access(&mut self, addr: u64, width: u8, _store: bool) {
        let Some(obj) = self.objects.find(addr) else { return };
        let enforce = self.config.enforce_coallocatability;
        // Whatever the identity, an access is attributed to the allocation
        // context owning the address, and co-allocatability is judged on
        // the owning objects' allocation order.
        let entry = |identity| QueueEntry {
            obj: identity,
            ctx: obj.ctx,
            alloc_seq: obj.id,
            size: width as u64,
        };
        // The tracked-size cap applies to the object lane only (large
        // objects may be in the tracker for the page lane's benefit).
        if obj.size() <= MAX_TRACKED_SIZE && self.object.record(entry(obj.id), &self.order, enforce)
        {
            self.contexts[obj.ctx.index()].accesses += 1;
        }
        if let Some(page) = &mut self.page {
            let identity = addr >> PAGE_GRANULARITY_SHIFT;
            if page.record(entry(identity), &self.order, enforce) {
                self.contexts[obj.ctx.index()].page_accesses += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_vm::{
        Engine, EngineLimits, FunctionBuilder, MallocOnlyAllocator, ProgramBuilder, Reg, Width,
    };

    fn r(n: u8) -> Reg {
        Reg(n)
    }

    /// Figure 2's shape: create_a/create_b allocate hot objects, create_c
    /// cold ones; the access loop touches only a/b objects, interleaved.
    /// The work hops between logical threads, which no lane may notice.
    fn fig2_program(rounds: i64) -> halo_vm::Program {
        let mut pb = ProgramBuilder::new();
        let create_a = pb.declare("create_a");
        let create_b = pb.declare("create_b");
        let create_c = pb.declare("create_c");
        for f in [create_a, create_b, create_c] {
            let mut fb = pb.define(f);
            fb.imm(r(0), 32);
            fb.malloc(r(0), r(1));
            fb.ret(Some(r(1)));
            fb.finish();
        }

        let mut m = pb.function("main");
        // r10 = count, r1/r2 heads of 8-object arrays stored to heap slots.
        // Allocate `rounds` rounds of (a, b, c); link a's and b's through
        // slot 0; then traverse touching a and b alternately.
        let list = r(9); // current list head (a/b chained)
        m.imm(list, 0);
        m.imm(r(10), 0);
        m.imm(r(11), rounds);
        let top = m.label();
        let done = m.label();
        m.bind(top);
        m.branch(halo_vm::Cond::Ge, r(10), r(11), done);
        m.thread_switch(1);
        m.call(create_a, &[], Some(r(3)));
        m.store(list, r(3), 0, Width::W8); // a->next = list
        m.mov(list, r(3));
        m.thread_switch(u16::MAX);
        m.call(create_b, &[], Some(r(4)));
        m.store(list, r(4), 0, Width::W8); // b->next = list
        m.mov(list, r(4));
        m.thread_switch(0);
        m.call(create_c, &[], Some(r(5)));
        m.store(r(10), r(5), 8, Width::W8); // touch c once
        m.add_imm(r(10), r(10), 1);
        m.jump(top);
        m.bind(done);
        // Traverse the a/b list several times.
        m.imm(r(12), 0);
        let sweep = m.label();
        let sweep_done = m.label();
        m.bind(sweep);
        m.branch(halo_vm::Cond::Ge, r(12), r(11), sweep_done);
        m.mov(r(6), list);
        let walk = m.label();
        let walk_done = m.label();
        m.bind(walk);
        m.branch(halo_vm::Cond::Eq, r(6), r(13), walk_done); // r13 == 0
        m.load(r(7), r(6), 8, Width::W8); // touch payload
        m.thread_switch(2);
        m.load(r(6), r(6), 0, Width::W8); // next
        m.thread_switch(3);
        m.jump(walk);
        m.bind(walk_done);
        m.add_imm(r(12), r(12), 1);
        m.jump(sweep);
        m.bind(sweep_done);
        m.ret(None);
        let main = m.finish();
        pb.finish(main)
    }

    /// A program of `main` alone, as `body` emits it.
    fn main_only(body: impl FnOnce(&mut FunctionBuilder)) -> halo_vm::Program {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.function("main");
        body(&mut m);
        let main = m.finish();
        pb.finish(main)
    }

    /// Page granularity, every context kept.
    fn page_mode() -> ProfileConfig {
        ProfileConfig { keep_fraction: 1.0, granularity: Granularity::Page, ..Default::default() }
    }

    fn profile(p: &halo_vm::Program, cfg: ProfileConfig) -> Profile {
        let mut prof = Profiler::new(p, cfg);
        let mut alloc = MallocOnlyAllocator::new();
        Engine::new(p)
            .with_limits(EngineLimits { max_instructions: 50_000_000, max_call_depth: 128 })
            .run(&mut alloc, &mut prof)
            .expect("program runs");
        prof.finish()
    }

    #[test]
    fn contexts_distinguish_allocation_call_paths() {
        let p = fig2_program(16);
        let profile = profile(&p, ProfileConfig { keep_fraction: 1.0, ..Default::default() });
        // Three contexts: main→create_a, main→create_b, main→create_c.
        assert_eq!(profile.contexts.len(), 3);
        let names: Vec<&str> = profile.contexts.iter().map(|c| c.name.as_str()).collect();
        assert!(names.iter().any(|n| n.contains("create_a")));
        assert!(names.iter().any(|n| n.contains("create_b")));
        assert!(names.iter().any(|n| n.contains("create_c")));
        for c in &profile.contexts {
            assert_eq!(c.allocs, 16);
            assert_eq!(c.chain.len(), 2, "main-site then alloc-site");
        }
    }

    #[test]
    fn hot_pair_gets_the_strong_edge() {
        let p = fig2_program(16);
        let profile = profile(&p, ProfileConfig { keep_fraction: 1.0, ..Default::default() });
        let by_name = |pat: &str| {
            profile
                .contexts
                .iter()
                .find(|c| c.name.contains(pat))
                .map(|c| c.id)
                .expect("context exists")
        };
        let (a, b, c) = (by_name("create_a"), by_name("create_b"), by_name("create_c"));
        let w_ab = profile.graph.weight(a, b);
        let w_ac = profile.graph.weight(a, c).max(profile.graph.weight(b, c));
        assert!(w_ab > 0, "traversal makes a and b affinitive");
        assert!(w_ab > 4 * w_ac, "a–b dominates any c edge (w_ab={w_ab}, w_c={w_ac})");
        // a and b are far hotter than c.
        assert!(profile.context(a).accesses > 4 * profile.context(c).accesses);
    }

    #[test]
    fn cold_contexts_are_filtered_at_90_percent() {
        let p = fig2_program(16);
        let profile = profile(&p, ProfileConfig::default());
        let c = profile.contexts.iter().find(|c| c.name.contains("create_c")).unwrap();
        assert!(c.discarded, "create_c covers <10% of accesses");
        assert!(!profile.graph.is_alive(c.id));
        assert_eq!(profile.alive_contexts().count(), 2);
    }

    /// A lane is thread-agnostic by construction: a program and its twin
    /// with a no-op in each switch's place (so call-site pcs agree) profile
    /// the same, at either granularity.
    #[test]
    fn thread_switches_do_not_change_the_profile() {
        let cfg = ProfileConfig { granularity: Granularity::Page, ..Default::default() };
        let program = fig2_program(96);
        let mut twin = program.clone();
        for op in twin.functions.iter_mut().flat_map(|f| &mut f.code) {
            if matches!(op, halo_vm::Op::ThreadSwitch(_)) {
                *op = halo_vm::Op::Nop;
            }
        }
        let (threaded, serial) = (profile(&program, cfg), profile(&twin, cfg));
        let edges = |g: &AffinityGraph| g.edges().collect::<Vec<_>>();
        assert!(threaded.graph.edge_count() > 0 && threaded.page_graph.edge_count() > 0);
        assert_eq!(edges(&threaded.graph), edges(&serial.graph));
        assert_eq!(edges(&threaded.page_graph), edges(&serial.page_graph));
        assert_eq!(threaded.contexts, serial.contexts);
        let totals =
            |p: &Profile| (p.total_accesses, p.total_page_accesses, p.total_allocs, p.queue_work);
        assert_eq!(totals(&threaded), totals(&serial));
    }

    #[test]
    fn keep_fraction_is_checked_before_the_run() {
        let p = fig2_program(4);
        for bad in [f64::NAN, -0.1, 1.5] {
            let cfg = ProfileConfig { keep_fraction: bad, ..Default::default() };
            let err = std::panic::catch_unwind(|| drop(Profiler::new(&p, cfg)))
                .expect_err("an out-of-range fraction is rejected");
            let msg = err.downcast_ref::<String>().expect("assert message");
            assert!(msg.contains("must be within [0, 1]"), "{bad}: {msg}");
        }
        let keep = |f| profile(&p, ProfileConfig { keep_fraction: f, ..Default::default() });
        assert_eq!(keep(0.0).alive_contexts().count(), 0, "0.0 keeps nothing");
        assert_eq!(keep(1.0).alive_contexts().count(), 3, "1.0 keeps everything");
    }

    #[test]
    fn coallocatability_blocks_interleaved_contexts() {
        // Two contexts allocated strictly alternately, accessed together:
        // every pair (u from x, v from y) has an interleaved allocation
        // from x or y between them *except* adjacent pairs. With each round
        // allocating x then y then accessing both, the (x_i, y_i) pair has
        // nothing between it, but (y_{i-1}, x_i) pairs do not violate
        // either… exercise the filter through a third noisy context.
        let mut pb = ProgramBuilder::new();
        let mk = pb.declare("mk");
        let mut m = pb.function("main");
        m.imm(r(10), 0);
        m.imm(r(11), 8);
        let top = m.label();
        let done = m.label();
        m.bind(top);
        m.branch(halo_vm::Cond::Ge, r(10), r(11), done);
        m.call(mk, &[], Some(r(1))); // context P (via site 1)
        m.call(mk, &[], Some(r(2))); // context Q (via site 2)
        m.store(r(10), r(1), 0, Width::W8);
        m.store(r(10), r(2), 0, Width::W8);
        m.add_imm(r(10), r(10), 1);
        m.jump(top);
        m.bind(done);
        m.ret(None);
        let main = m.finish();
        let mut f = pb.define(mk);
        f.imm(r(0), 16);
        f.malloc(r(0), r(1));
        f.ret(Some(r(1)));
        f.finish();
        let p = pb.finish(main);

        let profile = profile(&p, ProfileConfig { keep_fraction: 1.0, ..Default::default() });
        assert_eq!(profile.contexts.len(), 2);
        let (x, y) = (profile.contexts[0].id, profile.contexts[1].id);
        // P_i and Q_i are adjacent allocations (co-allocatable) and accessed
        // together → edge exists.
        assert!(profile.graph.weight(x, y) > 0);
        // But the access in round i also sees round i-1's objects within the
        // queue; those pairs are separated by intervening P/Q allocations
        // and must have been rejected. The observed weight therefore stays
        // at exactly one increment per round boundary pair.
        assert!(profile.graph.weight(x, y) <= 16);
    }

    #[test]
    fn realloc_moves_object_identity() {
        let p = main_only(|m| {
            m.imm(r(0), 16);
            m.malloc(r(0), r(1));
            m.store(r(0), r(1), 0, Width::W8);
            m.imm(r(2), 64);
            m.realloc(r(1), r(2), r(3));
            m.store(r(0), r(3), 0, Width::W8);
            m.ret(None);
        });
        let profile = profile(&p, ProfileConfig { keep_fraction: 1.0, ..Default::default() });
        // Two contexts (malloc site, realloc site), each with one access.
        assert_eq!(profile.contexts.len(), 2);
        assert_eq!(profile.total_allocs, 2);
        assert_eq!(profile.total_accesses, 2);
    }

    #[test]
    fn oversized_objects_are_not_tracked() {
        let p = main_only(|m| {
            m.imm(r(0), 100_000);
            m.malloc(r(0), r(1));
            m.store(r(0), r(1), 0, Width::W8);
            m.ret(None);
        });
        let profile = profile(&p, ProfileConfig { keep_fraction: 1.0, ..Default::default() });
        assert_eq!(profile.total_allocs, 1);
        assert_eq!(profile.total_accesses, 0, "accesses to untracked objects ignored");
        assert_eq!(profile.contexts[0].accesses, 0);
    }

    /// One huge array touched at page-crossing strides: invisible at
    /// object granularity, but the page graph sees a context whose pages
    /// are mutually affinitive (the roms shape, §6).
    fn huge_array_program() -> halo_vm::Program {
        main_only(|m| {
            m.imm(r(0), 100_000);
            m.malloc(r(0), r(1));
            // Walk the array at a 4 KiB + 8 stride so consecutive accesses
            // land on different pages (same-page accesses would collapse into
            // one macro-access).
            m.imm(r(2), 0);
            m.imm(r(3), 20);
            let top = m.label();
            let done = m.label();
            m.bind(top);
            m.branch(halo_vm::Cond::Ge, r(2), r(3), done);
            m.mul_imm(r(4), r(2), 4104);
            m.add(r(4), r(1), r(4));
            m.load(r(5), r(4), 0, Width::W8);
            m.add_imm(r(2), r(2), 1);
            m.jump(top);
            m.bind(done);
            m.ret(None);
        })
    }

    #[test]
    fn object_mode_records_no_page_graph() {
        let p = huge_array_program();
        let profile = profile(&p, ProfileConfig { keep_fraction: 1.0, ..Default::default() });
        assert!(profile.page_graph.is_empty(), "object mode must not pay for page tracking");
        assert_eq!(profile.total_page_accesses, 0);
        assert!(profile.contexts.iter().all(|c| c.page_accesses == 0));
    }

    #[test]
    fn page_mode_sees_objects_above_the_tracked_cap() {
        let p = huge_array_program();
        let profile = profile(&p, page_mode());
        // Object granularity still ignores the 100 KB array entirely…
        assert_eq!(profile.total_accesses, 0);
        assert_eq!(profile.contexts[0].accesses, 0);
        // …while the page path attributes every page-stride access to the
        // allocating context and links its pages into a self-loop.
        let ctx = profile.contexts[0].id;
        assert_eq!(profile.total_page_accesses, 20);
        assert_eq!(profile.contexts[0].page_accesses, 20);
        assert!(
            profile.page_graph.weight(ctx, ctx) > 0,
            "page-affinitive context must carry a loop edge"
        );
        // The page graph shares the object graph's id space.
        assert_eq!(profile.page_graph.len(), profile.graph.len());
    }

    #[test]
    fn consecutive_same_page_accesses_are_one_macro_access() {
        // Two small objects in the same page, accessed alternately: at
        // object granularity that is two macro-accesses per round, at page
        // granularity the whole run collapses into a single macro-access.
        let p = main_only(|m| {
            m.imm(r(0), 64);
            m.malloc(r(0), r(1));
            m.malloc(r(0), r(2));
            m.imm(r(3), 0);
            m.imm(r(4), 8);
            let top = m.label();
            let done = m.label();
            m.bind(top);
            m.branch(halo_vm::Cond::Ge, r(3), r(4), done);
            m.load(r(5), r(1), 0, Width::W8);
            m.load(r(5), r(2), 0, Width::W8);
            m.add_imm(r(3), r(3), 1);
            m.jump(top);
            m.bind(done);
            m.ret(None);
        });
        let profile = profile(&p, page_mode());
        assert_eq!(profile.total_accesses, 16, "object level: every alternation counts");
        assert_eq!(
            profile.total_page_accesses, 1,
            "page level: one page, one macro-access, however many touches"
        );
    }
}
