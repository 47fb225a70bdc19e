//! A single set-associative, write-allocate, LRU cache.

use crate::span::SetIndex;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Associativity (lines per set).
    pub ways: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible into
    /// `ways`-line sets, or line size not a power of two).
    pub fn sets(&self) -> u64 {
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        let lines = self.size_bytes / self.line_bytes;
        assert_eq!(lines % self.ways as u64, 0, "capacity must divide into whole sets");
        assert!(lines >= self.ways as u64, "must have at least one set");
        lines / self.ways as u64
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Tags are full line addresses, so the same structure serves as a TLB by
/// passing page numbers as "line addresses" with `line_bytes = 1`.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    set_index: SetIndex,
    line_shift: u32,
    ways: usize,
    /// Occupancy of each set (how many of its `ways` slots hold a line).
    len: Box<[u32]>,
    /// Tag storage, `sets × ways`, each set's occupied prefix ordered
    /// most- to least-recently used. One flat allocation instead of the
    /// former per-set `Vec`s: a set scan is one pointer chase, not two.
    /// (All-zero at rest, so construction of even the 442k-slot L3 is a
    /// calloc of lazy zero pages, and one cache stays one pair of touched
    /// regions per set — a per-slot timestamp scheme was measurably
    /// slower here purely from the extra pages it dirtied.)
    tags: Box<[u64]>,
}

impl SetAssocCache {
    /// Build an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let ways = config.ways as usize;
        SetAssocCache {
            config,
            set_index: SetIndex::new(sets),
            line_shift: config.line_bytes.trailing_zeros(),
            ways,
            len: vec![0u32; sets as usize].into_boxed_slice(),
            tags: vec![0u64; sets as usize * ways].into_boxed_slice(),
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Line address (tag) for a byte address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Touch the line containing `addr`; returns `true` on hit. On miss the
    /// line is filled, evicting the LRU line of its set if necessary; the
    /// evicted line address is returned through `evicted`.
    #[inline]
    pub fn access_line(&mut self, line: u64) -> (bool, Option<u64>) {
        let set_idx = self.set_index.of(line);
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
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_line(self.line_of(addr)).0
    }

    /// Whether the line containing `addr` is currently resident (does not
    /// update recency).
    pub fn contains(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let set_idx = self.set_index.of(line);
        let base = set_idx * self.ways;
        self.tags[base..base + self.len[set_idx] as usize].contains(&line)
    }

    /// Remove `line` (a line number, as passed to [`Self::access_line`])
    /// if resident; returns whether a copy was actually dropped. This is
    /// the coherence hook: a remote write kills local copies without
    /// touching recency of the survivors.
    pub fn invalidate_line(&mut self, line: u64) -> bool {
        let set_idx = self.set_index.of(line);
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

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.len.iter().map(|&n| n as usize).sum()
    }
}

#[cfg(test)]
// `N * 64` spells out "line N times the line size"; keep it literal.
#[allow(clippy::erasing_op, clippy::identity_op)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets × 2 ways × 64-byte lines = 256 bytes.
        SetAssocCache::new(CacheConfig { size_bytes: 256, line_bytes: 64, ways: 2 })
    }

    #[test]
    fn geometry() {
        let c = CacheConfig { size_bytes: 32 * 1024, line_bytes: 64, ways: 8 };
        assert_eq!(c.sets(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        CacheConfig { size_bytes: 256, line_bytes: 48, ways: 2 }.sets();
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line numbers).
        assert!(!c.access(0 * 64));
        assert!(!c.access(2 * 64));
        // Set 0 is full; touching line 0 makes line 2 the LRU.
        assert!(c.access(0 * 64));
        let (hit, evicted) = c.access_line(4);
        assert!(!hit);
        assert_eq!(evicted, Some(2));
        // Line 0 survived, line 2 did not.
        assert!(c.access(0 * 64));
        assert!(!c.access(2 * 64));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access(0 * 64); // set 0
        c.access(1 * 64); // set 1
        c.access(3 * 64); // set 1
        c.access(5 * 64); // set 1 — evicts line 1, set 0 untouched
        assert!(c.access(0));
        assert!(!c.access(64));
    }

    #[test]
    fn flush_empties() {
        let mut c = tiny();
        c.access(0);
        c.access(64);
        assert_eq!(c.resident_lines(), 2);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.access(0));
    }

    #[test]
    fn invalidate_line_removes_only_its_target() {
        let mut c = tiny();
        c.access(0 * 64); // set 0
        c.access(2 * 64); // set 0
        assert!(c.invalidate_line(0));
        assert!(!c.invalidate_line(0), "already gone");
        assert!(!c.contains(0 * 64));
        assert!(c.contains(2 * 64), "peer line survives");
        // The freed way is reusable without evicting the survivor.
        let (_, evicted) = c.access_line(4);
        assert_eq!(evicted, None);
    }

    #[test]
    fn contains_does_not_touch_recency() {
        let mut c = tiny();
        c.access(0 * 64);
        c.access(2 * 64);
        assert!(c.contains(0 * 64));
        // `contains` must not have promoted line 0: line 0 is still LRU, so
        // filling line 4 evicts it.
        let (_, evicted) = c.access_line(4);
        assert_eq!(evicted, Some(0));
    }
}
