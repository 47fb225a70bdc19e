//! Live heap-object tracking at object granularity.
//!
//! # Implementation notes
//!
//! [`ObjectTracker::find`] runs once per memory access, making it the
//! second-hottest call in the profiler after the affinity queue. Three
//! layers answer it, cheapest first:
//!
//! 1. a **last-hit cache** — real traces touch the same object in bursts
//!    (that is what macro-accesses *are*), so the previous answer usually
//!    still contains the address;
//! 2. a **page-granular index** mapping `addr >> 12` to the (few) objects
//!    overlapping that 4 KiB page — objects spanning at most
//!    [`MAX_INDEXED_PAGES`] pages are registered under every page they
//!    touch, so one hash probe plus a short scan resolves them;
//! 3. the authoritative **`BTreeMap` interval map**, consulted only for
//!    objects too large for the page index (the trace collector tracks
//!    unbounded sizes; the profiler caps at 4 KiB, so its finds never reach
//!    this layer).
//!
//! A page-index miss with no live large objects proves no object contains
//! the address: any small object containing it would be registered under
//! its page.

use halo_graph::NodeId;
use halo_vm::FastIntState;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};

/// Base-2 log of the index's page size (4 KiB, the paper's page size).
const PAGE_SHIFT: u64 = 12;

/// Objects spanning more than this many 4 KiB pages bypass the page index
/// and are found through the `BTreeMap` fallback instead; this bounds the
/// per-insert indexing work for huge allocations.
const MAX_INDEXED_PAGES: u64 = 8;

/// A live heap object as seen by the profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectInfo {
    /// Dense object id (also the allocation sequence number).
    pub id: u64,
    /// Base address.
    pub start: u64,
    /// One past the last byte.
    pub end: u64,
    /// Allocation context (graph node).
    pub ctx: NodeId,
}

impl ObjectInfo {
    /// Object size in bytes.
    pub fn size(&self) -> u64 {
        self.end - self.start
    }

    #[inline]
    fn contains(&self, addr: u64) -> bool {
        self.start <= addr && addr < self.end
    }

    fn pages(&self) -> std::ops::RangeInclusive<u64> {
        (self.start >> PAGE_SHIFT)..=((self.end - 1) >> PAGE_SHIFT)
    }

    fn is_indexed(&self) -> bool {
        ((self.end - 1) >> PAGE_SHIFT) - (self.start >> PAGE_SHIFT) < MAX_INDEXED_PAGES
    }
}

/// Interval map from addresses to live heap objects.
///
/// The paper's instrumentation tracks "live data at an object-level
/// granularity"; every load/store is attributed to the containing object,
/// if any. See the module docs for the lookup structure.
#[derive(Debug, Default)]
pub struct ObjectTracker {
    by_start: BTreeMap<u64, ObjectInfo>,
    /// Page number → objects overlapping that page (small objects only).
    pages: HashMap<u64, Vec<ObjectInfo>, FastIntState>,
    /// Live objects too large for the page index.
    large: usize,
    /// The object returned by the previous successful `find`.
    last_hit: Cell<Option<ObjectInfo>>,
}

impl ObjectTracker {
    /// Create an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.by_start.len()
    }

    /// Whether no objects are live.
    pub fn is_empty(&self) -> bool {
        self.by_start.is_empty()
    }

    /// Begin tracking an object. Overlapping live objects indicate an
    /// allocator bug; debug builds assert against it.
    pub fn insert(&mut self, id: u64, start: u64, size: u64, ctx: NodeId) {
        let end = start + size.max(1);
        debug_assert!(
            self.find(start).is_none() && self.find(end - 1).is_none(),
            "allocator returned overlapping region [{start:#x}, {end:#x})"
        );
        let info = ObjectInfo { id, start, end, ctx };
        self.by_start.insert(start, info);
        if info.is_indexed() {
            for page in info.pages() {
                self.pages.entry(page).or_default().push(info);
            }
        } else {
            self.large += 1;
        }
    }

    /// Stop tracking the object based at exactly `start`; returns it.
    pub fn remove(&mut self, start: u64) -> Option<ObjectInfo> {
        let info = self.by_start.remove(&start)?;
        if self.last_hit.get().is_some_and(|hit| hit.start == start) {
            self.last_hit.set(None);
        }
        if info.is_indexed() {
            for page in info.pages() {
                if let std::collections::hash_map::Entry::Occupied(mut bucket) =
                    self.pages.entry(page)
                {
                    bucket.get_mut().retain(|o| o.start != start);
                    if bucket.get().is_empty() {
                        bucket.remove();
                    }
                }
            }
        } else {
            self.large -= 1;
        }
        Some(info)
    }

    /// The live object containing `addr`, if any.
    #[inline]
    pub fn find(&self, addr: u64) -> Option<ObjectInfo> {
        if let Some(hit) = self.last_hit.get() {
            if hit.contains(addr) {
                return Some(hit);
            }
        }
        self.find_slow(addr)
    }

    fn find_slow(&self, addr: u64) -> Option<ObjectInfo> {
        if let Some(bucket) = self.pages.get(&(addr >> PAGE_SHIFT)) {
            for o in bucket {
                if o.contains(addr) {
                    self.last_hit.set(Some(*o));
                    return Some(*o);
                }
            }
        }
        if self.large > 0 {
            // Only an unindexed object can still contain the address: a
            // small one would have been registered under this page.
            let (_, obj) = self.by_start.range(..=addr).next_back()?;
            if obj.contains(addr) && !obj.is_indexed() {
                self.last_hit.set(Some(*obj));
                return Some(*obj);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(n: u32) -> NodeId {
        NodeId(n)
    }

    #[test]
    fn find_hits_interior_and_misses_gaps() {
        let mut t = ObjectTracker::new();
        t.insert(1, 100, 16, ctx(0));
        t.insert(2, 200, 8, ctx(1));
        assert_eq!(t.find(100).unwrap().id, 1);
        assert_eq!(t.find(115).unwrap().id, 1);
        assert!(t.find(116).is_none());
        assert!(t.find(99).is_none());
        assert_eq!(t.find(207).unwrap().id, 2);
        assert!(t.find(208).is_none());
    }

    #[test]
    fn remove_frees_the_interval() {
        let mut t = ObjectTracker::new();
        t.insert(1, 100, 16, ctx(0));
        assert_eq!(t.remove(100).map(|o| o.id), Some(1));
        assert!(t.find(100).is_none());
        assert!(t.remove(100).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn zero_size_objects_occupy_one_byte() {
        let mut t = ObjectTracker::new();
        t.insert(1, 64, 0, ctx(0));
        assert_eq!(t.find(64).unwrap().size(), 1);
    }

    #[test]
    fn adjacent_objects_do_not_bleed() {
        let mut t = ObjectTracker::new();
        t.insert(1, 0, 8, ctx(0));
        t.insert(2, 8, 8, ctx(1));
        assert_eq!(t.find(7).unwrap().id, 1);
        assert_eq!(t.find(8).unwrap().id, 2);
    }

    #[test]
    fn objects_spanning_page_boundaries_are_found_from_every_page() {
        let mut t = ObjectTracker::new();
        // 256 bytes straddling the 4 KiB boundary at 0x1000.
        t.insert(1, 0x1000 - 128, 256, ctx(0));
        assert_eq!(t.find(0x1000 - 128).unwrap().id, 1, "first page");
        assert_eq!(t.find(0x1000 - 1).unwrap().id, 1, "last byte before boundary");
        assert_eq!(t.find(0x1000).unwrap().id, 1, "first byte after boundary");
        assert_eq!(t.find(0x1000 + 127).unwrap().id, 1, "last byte, second page");
        assert!(t.find(0x1000 + 128).is_none());
    }

    #[test]
    fn large_objects_fall_back_to_the_interval_map() {
        let mut t = ObjectTracker::new();
        let size = (MAX_INDEXED_PAGES + 4) << PAGE_SHIFT; // too big to index
        t.insert(1, 0x10_000, size, ctx(0));
        t.insert(2, 0x10_000 + size, 16, ctx(1)); // small neighbour
        assert_eq!(t.find(0x10_000).unwrap().id, 1);
        assert_eq!(t.find(0x10_000 + size / 2).unwrap().id, 1, "interior of large object");
        assert_eq!(t.find(0x10_000 + size - 1).unwrap().id, 1);
        assert_eq!(t.find(0x10_000 + size).unwrap().id, 2);
        assert!(t.find(0xf_fff).is_none());
        assert_eq!(t.remove(0x10_000).map(|o| o.id), Some(1));
        assert!(t.find(0x10_000 + size / 2).is_none());
    }

    #[test]
    fn last_hit_cache_is_invalidated_by_remove() {
        let mut t = ObjectTracker::new();
        t.insert(1, 100, 16, ctx(0));
        assert_eq!(t.find(108).unwrap().id, 1); // warm the cache
        t.remove(100);
        assert!(t.find(108).is_none(), "stale cache entry served after free");
        // A new object at the same address is found afresh.
        t.insert(2, 100, 16, ctx(1));
        assert_eq!(t.find(108).unwrap().id, 2);
    }

    #[test]
    fn repeated_finds_answer_from_the_cache() {
        let mut t = ObjectTracker::new();
        t.insert(1, 4096, 64, ctx(0));
        for off in 0..64 {
            assert_eq!(t.find(4096 + off).unwrap().id, 1);
        }
    }
}
