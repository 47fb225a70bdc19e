//! The move-to-front set-associative cache `SetAssocCache` was before the
//! packed-order kernel, retained verbatim as the oracle's set type: each
//! set's occupied prefix is a tag list ordered most- to least-recently
//! used, searched front to back and shifted on every touch. The only
//! edit is the set index, a plain modulo here (the shipped `SetIndex`
//! is crate-private).
//!
//! Shared by `differential.rs` (through `ReferenceCoherentHierarchy`,
//! which builds its L1, dTLB, L2 and L3 out of it) and `lru_reference.rs`
//! (which drives the shipped cache against it directly); each binary
//! uses a different subset of the methods.
#![allow(dead_code)]

use halo_cache::CacheConfig;

/// A set-associative cache with true-LRU replacement, as a move-to-front
/// list per set.
#[derive(Debug, Clone)]
pub struct MoveToFrontCache {
    sets: u64,
    line_shift: u32,
    ways: usize,
    /// Occupancy of each set (how many of its `ways` slots hold a line).
    len: Box<[u32]>,
    /// Tag storage, `sets × ways`, each set's occupied prefix ordered
    /// most- to least-recently used.
    tags: Box<[u64]>,
}

impl MoveToFrontCache {
    /// Build an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let ways = config.ways as usize;
        MoveToFrontCache {
            sets,
            line_shift: config.line_bytes.trailing_zeros(),
            ways,
            len: vec![0u32; sets as usize].into_boxed_slice(),
            tags: vec![0u64; sets as usize * ways].into_boxed_slice(),
        }
    }

    /// Line address (tag) for a byte address.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Touch the line containing `addr`; returns `true` on hit. On miss the
    /// line is filled, evicting the LRU line of its set if necessary; the
    /// evicted line address is returned through `evicted`.
    pub fn access_line(&mut self, line: u64) -> (bool, Option<u64>) {
        let set_idx = (line % self.sets) as usize;
        let occ = self.len[set_idx] as usize;
        let base = set_idx * self.ways;
        if let Some(pos) = self.tags[base..base + occ].iter().position(|&t| t == line) {
            // Promote to MRU with an explicit shift: on these small sets
            // a handful of element moves beats `slice::rotate_right`'s
            // generic block machinery. Order is identical to
            // remove+insert(0).
            let mut i = pos;
            while i > 0 {
                self.tags[base + i] = self.tags[base + i - 1];
                i -= 1;
            }
            self.tags[base] = line;
            (true, None)
        } else {
            // Miss: shift the survivors right one slot (dropping the LRU
            // tag when the set is full) and fill the MRU slot.
            let (keep, evicted) = if occ == self.ways {
                (occ - 1, Some(self.tags[base + occ - 1]))
            } else {
                self.len[set_idx] = occ as u32 + 1;
                (occ, None)
            };
            let mut i = keep;
            while i > 0 {
                self.tags[base + i] = self.tags[base + i - 1];
                i -= 1;
            }
            self.tags[base] = line;
            (false, evicted)
        }
    }

    /// Touch the byte address `addr`; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_line(self.line_of(addr)).0
    }

    /// Whether the line containing `addr` is currently resident (does not
    /// update recency).
    pub fn contains(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let set_idx = (line % self.sets) as usize;
        let base = set_idx * self.ways;
        self.tags[base..base + self.len[set_idx] as usize].contains(&line)
    }

    /// Remove `line` (a line number, as passed to [`Self::access_line`])
    /// if resident; returns whether a copy was actually dropped. This is
    /// the coherence hook: a remote write kills local copies without
    /// touching recency of the survivors.
    pub fn invalidate_line(&mut self, line: u64) -> bool {
        let set_idx = (line % self.sets) as usize;
        let occ = self.len[set_idx] as usize;
        let base = set_idx * self.ways;
        if let Some(pos) = self.tags[base..base + occ].iter().position(|&t| t == line) {
            // Close the gap, preserving recency order of the survivors.
            self.tags.copy_within(base + pos + 1..base + occ, base + pos);
            self.len[set_idx] = occ as u32 - 1;
            true
        } else {
            false
        }
    }

    /// Invalidate everything.
    pub fn flush(&mut self) {
        self.len.fill(0);
    }
}
