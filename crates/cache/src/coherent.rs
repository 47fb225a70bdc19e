//! The simulated memory subsystem: L1D → L2 → L3 with a dTLB on the side,
//! thread-aware, with a MESI-lite coherence cost model.
//!
//! All levels fill on miss (mostly-inclusive, as on the evaluation part's
//! generation of Intel hardware) and replace true-LRU. Accesses that
//! straddle a line boundary are split and counted per line touched, which
//! is how a real L1D sees them.
//!
//! A hierarchy oblivious to which logical thread issued an access cannot
//! see a sharded allocator's true/false-sharing behaviour, so
//! [`CoherentHierarchy`] gives every logical thread (announced via
//! `Op::ThreadSwitch` upstream) its own private L1D and dTLB over the
//! *shared* L2/L3, and tracks a per-line MESI-lite state in each private
//! L1:
//!
//! * a demand fill is **Exclusive** when no other thread holds the line,
//!   **Shared** otherwise (a read miss also downgrades remote
//!   Modified/Exclusive copies to Shared);
//! * a write hit on Exclusive upgrades silently to **Modified**;
//! * a write hit on Shared is a bus upgrade: it counts one `upgrade`,
//!   invalidates every remote copy (one `invalidation` each), and leaves
//!   the writer Modified;
//! * a write miss invalidates every remote copy before filling Modified.
//!
//! Invalidations are the cycle-model hook: each one charges
//! [`TimingModel::coherence_penalty`](crate::TimingModel) via
//! [`TimingModel::cycles_coherent`](crate::TimingModel::cycles_coherent),
//! so false sharing (two threads writing disjoint halves of one line)
//! shows up as time, exactly the cost per-thread sharding removes.
//!
//! When only one logical thread ever runs, no line can ever be Shared, so
//! every coherence counter stays zero and what is left is the plain
//! single-core hierarchy: one L1D and dTLB over L2/L3 with adjacent-line
//! prefetch. That is the only single-thread model there is; the
//! differential suite's one-thread stratum pins it against the slow walk.

use crate::hierarchy::{AccessStats, HierarchyConfig, PAGE_BYTES};
use crate::set_assoc::{CacheConfig, SetAssocCache};
use crate::span::SpanUnit;

/// MESI-lite state of a line in one thread's private L1D.
///
/// The model folds the snooping protocol's transient states away: a line
/// is either absent ([`Invalid`](LineState::Invalid)) or resident in
/// exactly one of the three stable states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Not resident in that thread's L1D.
    Invalid,
    /// Resident, clean, and possibly replicated in other threads' L1Ds.
    Shared,
    /// Resident, clean, and the only L1 copy.
    Exclusive,
    /// Resident, written, and the only L1 copy.
    Modified,
}

/// Coherence-traffic counters accumulated by a [`CoherentHierarchy`].
///
/// All three counters are zero for any run that only ever uses one
/// logical thread (the differential suite's one-thread stratum pins it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// Remote L1 copies invalidated by a write (the per-event cost the
    /// timing model charges [`coherence_penalty`] for).
    ///
    /// [`coherence_penalty`]: crate::TimingModel::coherence_penalty
    pub invalidations: u64,
    /// Write hits on Shared lines (bus upgrades, S→M). Informational:
    /// the invalidations they broadcast are counted separately.
    pub upgrades: u64,
    /// Demand misses filled while another thread held the line (served by
    /// cache-to-cache transfer on real hardware) — the true-sharing read
    /// traffic that sharding cannot remove.
    pub remote_fills: u64,
}

/// Per-thread slice of a [`CoherentHierarchy`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadAccessStats {
    /// Logical thread id (the `Op::ThreadSwitch` operand).
    pub thread: u16,
    /// The accesses this thread issued and how its private L1/TLB and the
    /// shared L2/L3 served them.
    pub stats: AccessStats,
}

/// The per-thread MRU filter: the `(line, page)` the domain's previous
/// access ended on, plus whether that line is known Modified (so a store
/// hit is a state-machine no-op). Cleared by remote invalidation and
/// flush; downgraded (`writable = false`) by a remote read; never stale
/// across own accesses because every slow-path access rewrites it. The
/// full invalidation-rule argument lives in DESIGN.md §14.
#[derive(Debug, Clone, Copy)]
struct LineFilter {
    line: u64,
    page: u64,
    /// `true` only when the line is known Modified. `false` is always
    /// safe: it merely sends the next store down the exact slow path.
    writable: bool,
}

/// What [`ThreadDomain::touch_line`] leaves for the hierarchy to finish,
/// because it involves the other threads' L1Ds or the shared levels.
enum L1Outcome {
    /// Hit, fully handled inside the thread's own L1D.
    Done,
    /// Write hit on a Shared line: the bus upgrade is still owed.
    SharedWriteHit,
    /// Miss: the coherence probe, fill-state fix-up and L2/L3 walk are
    /// still owed.
    Miss,
}

/// One logical thread's private structures: an L1D and a dTLB, both a
/// [`SetAssocCache`], and the MESI-lite state of each L1D line. A tag
/// never leaves the slot it was filled into, so a line's state sits in
/// `states` at that slot: a write hit reads the slot the walk just
/// returned, and probes and invalidations find it with one set scan.
/// Eviction and invalidation leave a free slot's state behind, never to
/// be read (no lookup returns a free slot).
#[derive(Debug)]
struct ThreadDomain {
    l1: SetAssocCache,
    /// MESI-lite state of the L1D line in each slot.
    states: Box<[LineState]>,
    /// The slot the last [`Self::touch_line`] hit or filled. Valid until
    /// this domain's next L1D access, which covers its two readers: the
    /// write-hit transition and the fill fix-up after the coherence probe
    /// (which touches only *other* domains' L1Ds).
    mru: usize,
    tlb: SetAssocCache,
    stats: AccessStats,
    /// Last-line MRU filter; `None` until the first access.
    filter: Option<LineFilter>,
}

impl ThreadDomain {
    fn new(config: &HierarchyConfig) -> Self {
        let lines = (config.l1.size_bytes / config.l1.line_bytes) as usize;
        ThreadDomain {
            l1: SetAssocCache::new(config.l1),
            states: vec![LineState::Invalid; lines].into_boxed_slice(),
            mru: 0,
            tlb: SetAssocCache::new(CacheConfig {
                size_bytes: (config.tlb_entries as u64).max(config.tlb_ways as u64),
                line_bytes: 1,
                ways: config.tlb_ways,
            }),
            stats: AccessStats::default(),
            filter: None,
        }
    }

    /// Touch `line` in this thread's L1D and apply the transitions that
    /// need no other thread: hit/miss counting and the silent E→M upgrade
    /// of a write hit. What is left for the caller is named by the result.
    /// A miss leaves the fill's state to `miss_line`, which sets it after
    /// the coherence probe (the fresh fill is the MRU slot, so the fix-up
    /// is O(1)); a capacity/conflict victim silently takes its state with
    /// it — dirty write-back is not modelled (the shared L2 filled the line
    /// on the original demand miss).
    ///
    /// `always`: both callers sit in the hot loop, and with the outcome
    /// visible at each call site the branches on it fold away. Left to the
    /// heuristic, LLVM outlines this wrapper and the benchmark's
    /// cache-replay probe runs ~3% slower.
    #[inline(always)]
    fn touch_line(&mut self, line: u64, store: bool) -> L1Outcome {
        let (hit, slot) = self.l1.touch(line);
        self.mru = slot;
        if !hit {
            self.stats.l1_misses += 1;
            return L1Outcome::Miss;
        }
        self.stats.l1_hits += 1;
        if store {
            // MESI-lite write-hit transition. (A hit line is never
            // Invalid.)
            match self.states[slot] {
                LineState::Modified => {}
                LineState::Shared => return L1Outcome::SharedWriteHit,
                // Silent E→M upgrade: no bus traffic, no counters.
                _ => self.states[slot] = LineState::Modified,
            }
        }
        L1Outcome::Done
    }

    /// Set the state of the line the last [`Self::touch_line`] hit or
    /// filled (the post-probe fill fix-up and the bus upgrade's S→M).
    fn set_mru_state(&mut self, state: LineState) {
        self.states[self.mru] = state;
    }

    /// Drop `line` from this L1 (and its state). Returns whether a copy
    /// was actually present.
    fn invalidate(&mut self, line: u64) -> bool {
        if !self.l1.invalidate(line) {
            return false;
        }
        // A remote write killed the copy: the filter must not keep
        // reporting hits on it.
        if matches!(self.filter, Some(f) if f.line == line) {
            self.filter = None;
        }
        true
    }

    /// A remote read: downgrade `line` to Shared if resident, without
    /// touching recency, and return whether a copy was found. A filtered
    /// store would now need a bus upgrade, so the filter loses its write
    /// permission (loads keep fast-pathing — a read hit on Shared is
    /// stateless).
    fn downgrade(&mut self, line: u64) -> bool {
        let Some(slot) = self.l1.find(line) else { return false };
        self.states[slot] = LineState::Shared;
        if let Some(f) = &mut self.filter {
            if f.line == line {
                f.writable = false;
            }
        }
        true
    }
}

/// Per-thread L1Ds and dTLBs over a shared L2/L3, with MESI-lite
/// coherence between the L1s. See the [module docs](self).
#[derive(Debug)]
pub struct CoherentHierarchy {
    config: HierarchyConfig,
    l2: SetAssocCache,
    l3: SetAssocCache,
    /// Indexed by logical thread id; grown on demand by [`set_thread`].
    ///
    /// [`set_thread`]: CoherentHierarchy::set_thread
    threads: Vec<ThreadDomain>,
    current: usize,
    coherence: CoherenceStats,
    /// Precomputed shift for L1 lines.
    line_unit: SpanUnit,
}

/// The dTLB's unit: one [`PAGE_BYTES`] page.
const PAGE_UNIT: SpanUnit = SpanUnit::new(PAGE_BYTES);

impl CoherentHierarchy {
    /// Build an empty hierarchy; accesses are attributed to logical
    /// thread 0 until [`set_thread`](CoherentHierarchy::set_thread) says
    /// otherwise (matching the engine, which starts on thread 0).
    pub fn new(config: HierarchyConfig) -> Self {
        CoherentHierarchy {
            config,
            l2: SetAssocCache::new(config.l2),
            l3: SetAssocCache::new(config.l3),
            threads: vec![ThreadDomain::new(&config)],
            current: 0,
            coherence: CoherenceStats::default(),
            line_unit: SpanUnit::new(config.l1.line_bytes),
        }
    }

    /// The geometry this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Route subsequent accesses through logical thread `thread`'s private
    /// L1D/dTLB (the `Monitor::on_thread_switch` hook).
    pub fn set_thread(&mut self, thread: u16) {
        let t = thread as usize;
        while self.threads.len() <= t {
            self.threads.push(ThreadDomain::new(&self.config));
        }
        self.current = t;
    }

    /// Aggregate counters across all threads (field-for-field the sum of
    /// [`thread_stats`](CoherentHierarchy::thread_stats)). Summed on
    /// demand: the hot loop maintains only the per-domain counters, so
    /// every access saves the duplicate aggregate increments.
    pub fn stats(&self) -> AccessStats {
        let mut sum = AccessStats::default();
        for d in &self.threads {
            sum.loads += d.stats.loads;
            sum.stores += d.stats.stores;
            sum.l1_hits += d.stats.l1_hits;
            sum.l1_misses += d.stats.l1_misses;
            sum.l2_misses += d.stats.l2_misses;
            sum.l3_misses += d.stats.l3_misses;
            sum.tlb_misses += d.stats.tlb_misses;
        }
        sum
    }

    /// Coherence-traffic counters.
    pub fn coherence(&self) -> CoherenceStats {
        self.coherence
    }

    /// Per-thread counters, for every logical thread that issued at least
    /// one access, in thread-id order.
    pub fn thread_stats(&self) -> Vec<ThreadAccessStats> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, d)| d.stats.loads + d.stats.stores > 0)
            .map(|(t, d)| ThreadAccessStats { thread: t as u16, stats: d.stats })
            .collect()
    }

    /// MESI-lite state of the line containing `addr` in `thread`'s L1D
    /// (Invalid for unknown threads) — the hook the reference-model
    /// property test compares line-for-line.
    pub fn line_state(&self, thread: u16, addr: u64) -> LineState {
        let Some(domain) = self.threads.get(thread as usize) else {
            return LineState::Invalid;
        };
        let slot = domain.l1.find(self.line_unit.index_of(addr));
        slot.map_or(LineState::Invalid, |slot| domain.states[slot])
    }

    /// Simulate a data access of `width` bytes at `addr` on the current
    /// logical thread.
    #[inline]
    pub fn access(&mut self, addr: u64, width: u8, store: bool) {
        let lines = self.line_unit.lines_touched(addr, width);
        let pages = PAGE_UNIT.lines_touched(addr, width);
        let t = self.current;
        let domain = &mut self.threads[t];
        if store {
            domain.stats.stores += 1;
        } else {
            domain.stats.loads += 1;
        }
        // Single-line, single-page accesses (the overwhelmingly common
        // shape) run fused under one `domain` borrow: filter check, TLB,
        // L1, write-hit transition, and the filter update, with no loop
        // setup and no repeated `threads[t]` re-indexing.
        if lines.is_single() && pages.is_single() {
            // MRU filter: confined to the line and page this thread's
            // previous access ended on, the access is an L1+TLB hit whose
            // MRU promotions are no-ops, and — for stores — a
            // Modified-state write hit, which is a MESI no-op too. Remote
            // invalidations clear the filter and remote reads drop its
            // write permission, so the state machine stays exact. On the
            // filter's page but another line, the dTLB half still holds:
            // the page is the MRU entry of its dTLB set (only this
            // thread's own accesses and `flush` touch its dTLB, and both
            // rewrite or clear the filter), so consulting it would hit
            // and move nothing.
            let mut page_is_mru = false;
            if let Some(f) = domain.filter {
                if f.page == pages.first {
                    if f.line == lines.first && (!store || f.writable) {
                        domain.stats.l1_hits += 1;
                        return;
                    }
                    page_is_mru = true;
                }
            }
            if !page_is_mru && !domain.tlb.access(pages.first) {
                domain.stats.tlb_misses += 1;
            }
            let outcome = domain.touch_line(lines.first, store);
            // The access leaves its line and page MRU in their sets; a
            // store leaves the line Modified (so the filter may fast-path
            // the next store), a load's final state is not re-checked
            // (`writable: false` is always safe — the next store simply
            // takes the exact slow path). Nothing `finish_line` does reads
            // or clears this thread's own filter, so it is set here, under
            // the one `domain` borrow.
            domain.filter =
                Some(LineFilter { line: lines.first, page: pages.first, writable: store });
            self.finish_line(t, lines.first, store, outcome);
            return;
        }
        // General path: line-straddling or page-straddling accesses.
        // dTLB: per page touched, on the current thread's private TLB.
        for page in pages.first..=pages.last {
            if !domain.tlb.access(page) {
                domain.stats.tlb_misses += 1;
            }
        }
        // Caches: per line touched.
        for line in lines.first..=lines.last {
            let outcome = self.threads[t].touch_line(line, store);
            self.finish_line(t, line, store, outcome);
        }
        // The walk leaves its final line and page MRU in their sets. A
        // store leaves every touched line Modified; a load's final state
        // is not tracked (false is always safe — the next store simply
        // takes the exact slow path).
        self.threads[t].filter =
            Some(LineFilter { line: lines.last, page: pages.last, writable: store });
    }

    /// Stream a batch of accesses (SoA slices, as flushed by the engine's
    /// batched monitor path) through the hierarchy on the current logical
    /// thread — identical, access for access, to calling
    /// [`access`](Self::access) per element, but monomorphised as one
    /// tight loop over the arrays.
    pub fn access_batch(&mut self, addrs: &[u64], widths: &[u8], stores: &[bool]) {
        debug_assert!(addrs.len() == widths.len() && addrs.len() == stores.len());
        for i in 0..addrs.len() {
            self.access(addrs[i], widths[i], stores[i]);
        }
    }

    /// The part of one line's access that reaches beyond thread `t`'s own
    /// L1D.
    #[inline]
    fn finish_line(&mut self, t: usize, line: u64, store: bool, outcome: L1Outcome) {
        match outcome {
            L1Outcome::Done => {}
            L1Outcome::SharedWriteHit => self.shared_write_upgrade(t, line),
            L1Outcome::Miss => self.miss_line(t, line, store),
        }
    }

    /// The L1-miss slow path: coherence probe, fill-state fix-up, and the
    /// shared L2/L3 walk.
    fn miss_line(&mut self, t: usize, line: u64, store: bool) {
        // Coherence probe: does any other thread hold the line? Writes
        // invalidate remote copies, reads downgrade them to Shared.
        let mut remote_copies = false;
        for u in 0..self.threads.len() {
            if u == t {
                continue;
            }
            if store {
                if self.threads[u].invalidate(line) {
                    remote_copies = true;
                    self.coherence.invalidations += 1;
                }
            } else if self.threads[u].downgrade(line) {
                remote_copies = true;
            }
        }
        if remote_copies {
            self.coherence.remote_fills += 1;
        }
        let state = match (store, remote_copies) {
            (true, _) => LineState::Modified,
            (false, true) => LineState::Shared,
            (false, false) => LineState::Exclusive,
        };
        self.threads[t].set_mru_state(state);
        // Shared levels. The prefetch fills the spatial neighbours into
        // L2/L3 without touching the demand counters (an idealised,
        // always-timely prefetcher).
        let line_bytes = self.line_unit.bytes();
        let line_addr = line * line_bytes;
        let l2_hit = self.l2.access(line_addr);
        if !l2_hit {
            self.threads[t].stats.l2_misses += 1;
            if !self.l3.access(line_addr) {
                self.threads[t].stats.l3_misses += 1;
            }
        }
        if self.config.adjacent_line_prefetch {
            for neighbour in
                [line_addr.wrapping_add(line_bytes), line_addr.wrapping_sub(line_bytes)]
            {
                self.l2.access(neighbour);
                self.l3.access(neighbour);
            }
        }
    }

    /// Write hit on a Shared line: a bus upgrade announcing ownership,
    /// killing every remote copy. Counted even when remote copies were
    /// since evicted (the writer cannot know — the upgrade is still
    /// issued).
    fn shared_write_upgrade(&mut self, t: usize, line: u64) {
        self.coherence.upgrades += 1;
        for u in 0..self.threads.len() {
            if u != t && self.threads[u].invalidate(line) {
                self.coherence.invalidations += 1;
            }
        }
        self.threads[t].set_mru_state(LineState::Modified);
    }

    /// Flush all levels, TLBs, and line states (counters are preserved).
    pub fn flush(&mut self) {
        self.l2.flush();
        self.l3.flush();
        for domain in &mut self.threads {
            domain.l1.flush();
            domain.tlb.flush();
            domain.filter = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingModel;

    const LINE: u64 = 64;

    fn coherent() -> CoherentHierarchy {
        CoherentHierarchy::new(HierarchyConfig::tiny())
    }

    #[test]
    fn exclusive_fill_then_silent_modified_upgrade() {
        let mut h = coherent();
        h.access(0, 8, false);
        assert_eq!(h.line_state(0, 0), LineState::Exclusive);
        h.access(0, 8, true); // E → M, no bus traffic
        assert_eq!(h.line_state(0, 0), LineState::Modified);
        assert_eq!(h.coherence(), CoherenceStats::default());
    }

    #[test]
    fn read_sharing_downgrades_to_shared() {
        let mut h = coherent();
        h.access(0, 8, true); // t0: M
        h.set_thread(1);
        h.access(0, 8, false); // t1 read miss: both S, cache-to-cache fill
        assert_eq!(h.line_state(0, 0), LineState::Shared);
        assert_eq!(h.line_state(1, 0), LineState::Shared);
        let c = h.coherence();
        assert_eq!(c.remote_fills, 1);
        assert_eq!(c.invalidations, 0);
        assert_eq!(c.upgrades, 0);
    }

    #[test]
    fn shared_write_hit_upgrades_and_invalidates() {
        let mut h = coherent();
        h.access(0, 8, false); // t0: E
        h.set_thread(1);
        h.access(0, 8, false); // both S
        h.access(0, 8, true); // t1 write *hit* on S: upgrade, kill t0's copy
        assert_eq!(h.line_state(1, 0), LineState::Modified);
        assert_eq!(h.line_state(0, 0), LineState::Invalid);
        let c = h.coherence();
        assert_eq!(c.upgrades, 1);
        assert_eq!(c.invalidations, 1);
    }

    #[test]
    fn write_miss_invalidates_every_remote_copy() {
        let mut h = coherent();
        h.access(0, 8, false); // t0: E
        h.set_thread(1);
        h.access(0, 8, false); // t0, t1: S
        h.set_thread(2);
        h.access(0, 8, true); // t2 write miss: kill both copies
        assert_eq!(h.line_state(2, 0), LineState::Modified);
        assert_eq!(h.line_state(0, 0), LineState::Invalid);
        assert_eq!(h.line_state(1, 0), LineState::Invalid);
        assert_eq!(h.coherence().invalidations, 2);
        assert_eq!(h.coherence().upgrades, 0);
    }

    #[test]
    fn false_sharing_ping_pong_on_one_split_line() {
        // Two threads write disjoint halves of one 64-byte line: every
        // store after the first misses (the other side just invalidated
        // the copy) and invalidates in turn — the pathology per-thread
        // sharded placement exists to avoid.
        let mut h = coherent();
        const ROUNDS: u64 = 10;
        for _ in 0..ROUNDS {
            h.set_thread(0);
            h.access(0, 8, true); // low half
            h.set_thread(1);
            h.access(32, 8, true); // high half, same line
        }
        let c = h.coherence();
        // Every store but the very first one invalidates the peer's copy.
        assert_eq!(c.invalidations, 2 * ROUNDS - 1);
        assert_eq!(c.upgrades, 0, "copies are always killed before a hit can upgrade");
        let s = h.stats();
        assert_eq!(s.l1_misses, 2 * ROUNDS, "each store misses: the line ping-pongs");
        // The invalidations carry a configurable cycle cost.
        let t = TimingModel::skylake_like();
        let with = t.cycles_coherent(0, &s, &c);
        let without = t.cycles(0, &s);
        assert_eq!(with - without, c.invalidations as f64 * t.coherence_penalty);
    }

    #[test]
    fn per_thread_stats_sum_to_aggregate() {
        let mut h = coherent();
        for i in 0..300u64 {
            h.set_thread((i % 3) as u16);
            h.access((i * 24) % 4096, 8, i % 4 == 0);
        }
        let per = h.thread_stats();
        assert_eq!(per.len(), 3);
        assert_eq!(per.iter().map(|t| t.thread).collect::<Vec<_>>(), vec![0, 1, 2]);
        let mut sum = AccessStats::default();
        for t in &per {
            sum.l1_hits += t.stats.l1_hits;
            sum.l1_misses += t.stats.l1_misses;
            sum.l2_misses += t.stats.l2_misses;
            sum.l3_misses += t.stats.l3_misses;
            sum.tlb_misses += t.stats.tlb_misses;
            sum.loads += t.stats.loads;
            sum.stores += t.stats.stores;
        }
        assert_eq!(sum, h.stats());
    }

    #[test]
    fn idle_threads_are_not_reported() {
        let mut h = coherent();
        h.set_thread(5); // creates domains 0..=5
        h.access(0, 8, false);
        let per = h.thread_stats();
        assert_eq!(per.len(), 1, "only threads that accessed memory appear");
        assert_eq!(per[0].thread, 5);
    }

    #[test]
    fn eviction_drops_state_without_coherence_traffic() {
        // Overflow one L1 set (tiny: 4 sets, 2 ways): the victim's state
        // entry must go with it so `line_state` reports Invalid.
        let mut h = coherent();
        h.access(0, 8, false);
        h.access(4 * LINE, 8, false); // same set (4 sets)
        h.access(8 * LINE, 8, false); // evicts line 0
        assert_eq!(h.line_state(0, 0), LineState::Invalid);
        assert_eq!(h.coherence(), CoherenceStats::default());
    }

    #[test]
    fn flush_clears_contents_and_states() {
        let mut h = coherent();
        h.access(0, 8, true);
        h.set_thread(1);
        h.access(LINE, 8, false);
        h.flush();
        assert_eq!(h.line_state(0, 0), LineState::Invalid);
        assert_eq!(h.line_state(1, LINE), LineState::Invalid);
        h.set_thread(0);
        h.access(0, 8, false);
        assert_eq!(h.stats().l1_misses, 3, "post-flush access misses again");
    }

    #[test]
    fn the_same_page_dtlb_skip_dies_with_the_filter() {
        // On the filter's page but another line the dTLB is not consulted.
        // Emptying it behind the hierarchy's back makes a consultation
        // show as a miss.
        let mut h = coherent();
        h.access(0, 8, false); // t0: filter = (line 0, page 0)
        h.threads[0].tlb.flush();
        h.access(LINE, 8, false); // same page, other line: skipped
        assert_eq!(h.stats().tlb_misses, 1, "the filter vouches for its page");
        // A remote write to the filter's line clears the filter, and with
        // it the licence to skip: the next access on that page — again
        // another line — goes back to the dTLB.
        h.set_thread(1);
        h.access(LINE, 8, true);
        assert!(h.threads[0].filter.is_none());
        h.set_thread(0);
        h.access(2 * LINE, 8, false);
        assert_eq!(h.thread_stats()[0].stats.tlb_misses, 2, "the dTLB is consulted again");
    }

    #[test]
    fn access_running_off_the_top_of_the_address_space_touches_its_line() {
        // The engine forms addresses with `wrapping_add`, so a program can
        // deliver this. The four bytes that exist are one line and one
        // page; the span must not wrap to "no line at all" and leave the
        // MRU filter claiming (line 0, page 0, writable).
        let mut h = coherent();
        h.access(u64::MAX - 3, 8, true);
        let s = h.stats();
        assert_eq!((s.l1_hits, s.l1_misses, s.tlb_misses), (0, 1, 1));
        assert_eq!(h.line_state(0, u64::MAX), LineState::Modified);
        h.access(0, 8, true); // never-touched line 0: a miss, not a filter hit
        let s = h.stats();
        assert_eq!((s.stores, s.l1_hits, s.l1_misses, s.tlb_misses), (2, 0, 2, 2));
    }

    #[test]
    fn line_state_divides_by_the_l1_line_size() {
        // L1 32-byte lines over 64-byte L2/L3 lines: byte 32 is L1 line 1
        // but L2 line 0.
        let mut config = HierarchyConfig::tiny();
        config.l1.line_bytes = 32;
        let mut h = CoherentHierarchy::new(config);
        h.access(32, 8, true);
        assert_eq!(h.line_state(0, 32), LineState::Modified);
        assert_eq!(h.line_state(0, 0), LineState::Invalid);
    }
}
