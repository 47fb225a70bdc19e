//! The pre-fast-path hierarchy walk, retained verbatim as the behavioural
//! oracle for `differential.rs`.
//!
//! [`CoherentHierarchy`](halo_cache::CoherentHierarchy) carries precomputed
//! shift/mask geometry, a single-line fast path, a per-thread MRU line
//! filter (with its same-page dTLB skip) and, in all four of its
//! structures, the packed-order set-walk kernel, with the L1D's MESI-lite
//! states inline. Every one of those is claimed to be *exactly*
//! equivalent to the original per-access walk — same counters, same LRU
//! contents, same MESI-lite states. This module keeps that original walk
//! alive, division by division, and shares no code with what it checks:
//! its L1, dTLB, L2 and L3 are [`lru::MoveToFrontCache`], the
//! move-to-front list the shipped `SetAssocCache` used to be, and line
//! states live in a side `HashMap`. On one thread it is the original
//! single-core walk, call for call.

pub mod lru;

use halo_cache::{
    AccessStats, CacheConfig, CoherenceStats, HierarchyConfig, LineState, ThreadAccessStats,
    PAGE_BYTES,
};
use lru::MoveToFrontCache;
use std::collections::HashMap;

/// One logical thread's private structures in the reference coherent
/// model, mirroring the original `ThreadDomain`.
#[derive(Debug)]
struct RefThreadDomain {
    l1: MoveToFrontCache,
    tlb: MoveToFrontCache,
    states: HashMap<u64, LineState>,
    stats: AccessStats,
}

impl RefThreadDomain {
    fn new(config: &HierarchyConfig) -> Self {
        RefThreadDomain {
            l1: MoveToFrontCache::new(config.l1),
            tlb: MoveToFrontCache::new(CacheConfig {
                size_bytes: (config.tlb_entries as u64).max(config.tlb_ways as u64),
                line_bytes: 1,
                ways: config.tlb_ways,
            }),
            states: HashMap::new(),
            stats: AccessStats::default(),
        }
    }

    fn invalidate(&mut self, line: u64) -> bool {
        if self.l1.invalidate_line(line) {
            self.states.remove(&line);
            true
        } else {
            false
        }
    }
}

/// The original thread-aware MESI-lite walk, per-access and
/// division-based: the oracle the fast-path
/// [`CoherentHierarchy`](halo_cache::CoherentHierarchy) is differentially
/// tested against, line state by line state.
#[derive(Debug)]
pub struct ReferenceCoherentHierarchy {
    config: HierarchyConfig,
    l2: MoveToFrontCache,
    l3: MoveToFrontCache,
    threads: Vec<RefThreadDomain>,
    current: usize,
    stats: AccessStats,
    coherence: CoherenceStats,
}

impl ReferenceCoherentHierarchy {
    /// Build an empty reference hierarchy on logical thread 0.
    pub fn new(config: HierarchyConfig) -> Self {
        ReferenceCoherentHierarchy {
            config,
            l2: MoveToFrontCache::new(config.l2),
            l3: MoveToFrontCache::new(config.l3),
            threads: vec![RefThreadDomain::new(&config)],
            current: 0,
            stats: AccessStats::default(),
            coherence: CoherenceStats::default(),
        }
    }

    /// Route subsequent accesses through `thread`'s private L1D/dTLB.
    pub fn set_thread(&mut self, thread: u16) {
        let t = thread as usize;
        while self.threads.len() <= t {
            self.threads.push(RefThreadDomain::new(&self.config));
        }
        self.current = t;
    }

    /// Aggregate counters.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Coherence-traffic counters.
    pub fn coherence(&self) -> CoherenceStats {
        self.coherence
    }

    /// Per-thread counters (active threads only, thread-id order).
    pub fn thread_stats(&self) -> Vec<ThreadAccessStats> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, d)| d.stats.loads + d.stats.stores > 0)
            .map(|(t, d)| ThreadAccessStats { thread: t as u16, stats: d.stats })
            .collect()
    }

    /// MESI-lite state of the line containing `addr` in `thread`'s L1D.
    pub fn line_state(&self, thread: u16, addr: u64) -> LineState {
        let Some(domain) = self.threads.get(thread as usize) else {
            return LineState::Invalid;
        };
        let line = domain.l1.line_of(addr);
        domain.states.get(&line).copied().unwrap_or(LineState::Invalid)
    }

    /// The original coherent `access`, division-based and filter-free.
    /// The last byte is clipped at `u64::MAX` (an access may run off the
    /// top of the address space), the same rule the fast path applies.
    pub fn access(&mut self, addr: u64, width: u8, store: bool) {
        let last_byte = addr.saturating_add(width.max(1) as u64 - 1);
        if store {
            self.stats.stores += 1;
            self.threads[self.current].stats.stores += 1;
        } else {
            self.stats.loads += 1;
            self.threads[self.current].stats.loads += 1;
        }
        let first_page = addr / PAGE_BYTES;
        let last_page = last_byte / PAGE_BYTES;
        for page in first_page..=last_page {
            if !self.threads[self.current].tlb.access(page) {
                self.stats.tlb_misses += 1;
                self.threads[self.current].stats.tlb_misses += 1;
            }
        }
        let line_bytes = self.config.l1.line_bytes;
        let first_line = addr / line_bytes;
        let last_line = last_byte / line_bytes;
        for line in first_line..=last_line {
            self.access_one_line(line * line_bytes, store);
        }
    }

    fn access_one_line(&mut self, line_addr: u64, store: bool) {
        let t = self.current;
        let line = self.threads[t].l1.line_of(line_addr);
        let (hit, evicted) = self.threads[t].l1.access_line(line);
        if let Some(victim) = evicted {
            self.threads[t].states.remove(&victim);
        }
        if hit {
            self.stats.l1_hits += 1;
            self.threads[t].stats.l1_hits += 1;
            if store {
                self.write_hit(t, line);
            }
            return;
        }
        self.stats.l1_misses += 1;
        self.threads[t].stats.l1_misses += 1;
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
            } else if self.threads[u].states.contains_key(&line) {
                remote_copies = true;
                self.threads[u].states.insert(line, LineState::Shared);
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
        self.threads[t].states.insert(line, state);
        let line_bytes = self.config.l1.line_bytes;
        let l2_hit = self.l2.access(line_addr);
        if !l2_hit {
            self.stats.l2_misses += 1;
            self.threads[t].stats.l2_misses += 1;
            if !self.l3.access(line_addr) {
                self.stats.l3_misses += 1;
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

    fn write_hit(&mut self, t: usize, line: u64) {
        let state = *self.threads[t].states.get(&line).expect("resident line has a state");
        match state {
            LineState::Modified => {}
            LineState::Exclusive => {
                self.threads[t].states.insert(line, LineState::Modified);
            }
            LineState::Shared => {
                self.coherence.upgrades += 1;
                for u in 0..self.threads.len() {
                    if u != t && self.threads[u].invalidate(line) {
                        self.coherence.invalidations += 1;
                    }
                }
                self.threads[t].states.insert(line, LineState::Modified);
            }
            LineState::Invalid => unreachable!("a hit line is never Invalid"),
        }
    }

    /// Flush all levels, TLBs, and states (counters are preserved).
    pub fn flush(&mut self) {
        self.l2.flush();
        self.l3.flush();
        for domain in &mut self.threads {
            domain.l1.flush();
            domain.tlb.flush();
            domain.states.clear();
        }
    }
}
