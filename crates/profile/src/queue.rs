//! The affinity queue (§4.1, Fig. 5).
//!
//! Holds the most recently accessed heap objects; a new access is
//! *affinitive* to a previous one when the access bytes between them sum to
//! less than the affinity distance `A` (by which the queue is implicitly
//! sized). Candidate enumeration applies three of the paper's four
//! constraints — deduplication, no self-affinity, no double counting; the
//! fourth (co-allocatability) needs allocation history, so the profiler
//! applies it to the returned candidates.
//!
//! # Implementation notes
//!
//! This is the innermost loop of the whole pipeline (one traversal per
//! macro-access), so `record_with` is engineered to perform **no heap
//! allocation in steady state**:
//!
//! * entries live in a power-of-two **ring buffer** (the paper's §4.1 queue
//!   is a ring); it doubles only while the window is still growing toward
//!   its high-water mark, then never again;
//! * the *no double counting* constraint uses an **epoch-stamped open-
//!   addressing table** instead of a fresh `HashSet` per call — bumping the
//!   epoch invalidates every stale slot in O(1);
//! * partners are streamed to a caller-supplied closure ([`record_with`]),
//!   never into a fresh `Vec`.
//!
//! `tests/no_alloc_steady_state.rs` (in this crate) verifies the
//! steady-state claim with a counting global allocator.
//!
//! [`record_with`]: AffinityQueue::record_with

use halo_graph::NodeId;
use halo_vm::mix64;

/// One recorded macro-access in the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueEntry {
    /// Accessed object.
    pub obj: u64,
    /// The object's allocation context.
    pub ctx: NodeId,
    /// The object's allocation sequence number.
    pub alloc_seq: u64,
    /// Access width in bytes.
    pub size: u64,
}

const EMPTY: QueueEntry = QueueEntry { obj: 0, ctx: NodeId(0), alloc_seq: 0, size: 0 };

/// Initial ring capacity; doubles on demand until the access window's
/// high-water mark fits, then stays fixed.
const INITIAL_RING: usize = 64;

/// Epoch-stamped dedup table: a slot is live only while its stamp equals
/// the current epoch, so "clearing" between traversals is one increment.
/// Capacity is kept at ≥ 2× the queue length, bounding the load factor at
/// one half.
#[derive(Debug)]
struct DedupTable {
    keys: Vec<u64>,
    stamps: Vec<u64>,
    epoch: u64,
}

impl DedupTable {
    fn with_capacity_for(n: usize) -> Self {
        let cap = (n * 2).next_power_of_two().max(16);
        DedupTable { keys: vec![0; cap], stamps: vec![0; cap], epoch: 0 }
    }

    /// Start a traversal that inserts at most `n` distinct keys.
    #[inline]
    fn begin(&mut self, n: usize) {
        if n * 2 > self.keys.len() {
            *self = DedupTable::with_capacity_for(n);
        }
        self.epoch += 1;
    }

    /// First sighting of `key` this traversal?
    #[inline]
    fn insert(&mut self, key: u64) -> bool {
        let mask = self.keys.len() - 1;
        let mut i = mix64(key) as usize & mask;
        loop {
            if self.stamps[i] != self.epoch {
                self.stamps[i] = self.epoch;
                self.keys[i] = key;
                return true;
            }
            if self.keys[i] == key {
                return false;
            }
            i = (i + 1) & mask;
        }
    }
}

/// The affinity queue. See module docs.
#[derive(Debug)]
pub struct AffinityQueue {
    distance: u64,
    /// Power-of-two ring; `head` indexes the oldest live entry and `len`
    /// counts live entries.
    ring: Vec<QueueEntry>,
    head: usize,
    len: usize,
    total_bytes: u64,
    work: u64,
    dedup: DedupTable,
}

impl AffinityQueue {
    /// Create a queue with affinity distance `A` bytes.
    pub fn new(distance: u64) -> Self {
        AffinityQueue {
            distance,
            ring: vec![EMPTY; INITIAL_RING],
            head: 0,
            len: 0,
            total_bytes: 0,
            work: 0,
            dedup: DedupTable::with_capacity_for(INITIAL_RING),
        }
    }

    /// Total queue entries inspected across all traversals — the profiling
    /// cost that grows with the affinity distance (the overhead axis of
    /// the paper's Fig. 12 trade-off).
    pub fn traversal_work(&self) -> u64 {
        self.work
    }

    /// The affinity distance `A`.
    pub fn distance(&self) -> u64 {
        self.distance
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The live entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &QueueEntry> {
        let mask = self.ring.len() - 1;
        (0..self.len).map(move |i| &self.ring[(self.head + i) & mask])
    }

    /// Whether an access to `obj` continues the current macro-access
    /// (deduplication: "consecutive machine-level accesses to a single
    /// object are considered to be part of the same macro-level access").
    #[inline]
    pub fn is_consecutive(&self, obj: u64) -> bool {
        self.len > 0 && self.ring[(self.head + self.len - 1) & (self.ring.len() - 1)].obj == obj
    }

    /// Enumerate the affinitive partners of a new access to `entry.obj`
    /// through `visit` (newest partner first), then push the entry.
    ///
    /// Walking back from the newest entry, byte sizes accumulate; an entry
    /// is within range while the accumulated size (including its own) stays
    /// below `A`. Applies dedup, no self-affinity, and no double counting;
    /// the caller must still apply co-allocatability before counting an
    /// edge.
    ///
    /// Returns `false` (visiting nothing, pushing nothing) when the access
    /// is consecutive with the previous one — i.e. part of the same
    /// macro-access — and `true` otherwise. This is the single
    /// consecutiveness check on the hot path; callers must not pre-check
    /// [`AffinityQueue::is_consecutive`] themselves.
    pub fn record_with<F: FnMut(&QueueEntry)>(&mut self, entry: QueueEntry, mut visit: F) -> bool {
        if self.is_consecutive(entry.obj) {
            return false;
        }
        self.dedup.begin(self.len);
        let mask = self.ring.len() - 1;
        let mut accumulated = 0u64;
        for i in (0..self.len).rev() {
            let e = self.ring[(self.head + i) & mask];
            self.work += 1;
            accumulated += e.size;
            if accumulated >= self.distance {
                break;
            }
            // No self-affinity: "objects cannot be affinitive to
            // themselves (u ≠ v)".
            if e.obj == entry.obj {
                continue;
            }
            // No double counting: "each unique object v can be affinitive
            // with u at most once within a single queue traversal".
            if self.dedup.insert(e.obj) {
                visit(&e);
            }
        }
        self.push(entry);
        true
    }

    fn push(&mut self, entry: QueueEntry) {
        if self.len == self.ring.len() {
            self.grow();
        }
        let mask = self.ring.len() - 1;
        self.ring[(self.head + self.len) & mask] = entry;
        self.len += 1;
        self.total_bytes += entry.size;
        // Implicit sizing: keep only the last A bytes worth of accesses.
        while self.total_bytes > self.distance && self.len > 0 {
            let old = self.ring[self.head];
            self.head = (self.head + 1) & mask;
            self.len -= 1;
            self.total_bytes -= old.size;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let old_mask = self.ring.len() - 1;
        let mut ring = vec![EMPTY; self.ring.len() * 2];
        for (i, slot) in ring.iter_mut().take(self.len).enumerate() {
            *slot = self.ring[(self.head + i) & old_mask];
        }
        self.ring = ring;
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(obj: u64, ctx: u32, size: u64) -> QueueEntry {
        QueueEntry { obj, ctx: NodeId(ctx), alloc_seq: obj, size }
    }

    /// Record `entry` and collect its partners, newest first.
    fn record(q: &mut AffinityQueue, entry: QueueEntry) -> Vec<QueueEntry> {
        let mut partners = Vec::new();
        q.record_with(entry, |p| partners.push(*p));
        partners
    }

    #[test]
    fn figure5_example_seven_partners() {
        // "a program iterates over 10 objects making 4-byte accesses …
        // with A = 32, the newest element would be considered affinitive to
        // the seven others to its left."
        let mut q = AffinityQueue::new(32);
        for i in 0..9 {
            record(&mut q, e(i, i as u32, 4));
        }
        let partners = record(&mut q, e(9, 9, 4));
        assert_eq!(partners.len(), 7);
        // The partners are the immediately preceding seven objects.
        let ids: Vec<u64> = partners.iter().map(|p| p.obj).collect();
        assert_eq!(ids, vec![8, 7, 6, 5, 4, 3, 2]);
    }

    #[test]
    fn dedup_consecutive_same_object() {
        let mut q = AffinityQueue::new(64);
        record(&mut q, e(1, 0, 8));
        record(&mut q, e(2, 1, 8));
        // Second consecutive access to object 2: same macro access.
        let partners = record(&mut q, e(2, 1, 8));
        assert!(partners.is_empty());
        assert_eq!(q.len(), 2, "no duplicate entry enqueued");
    }

    #[test]
    fn no_self_affinity_through_interleaving() {
        let mut q = AffinityQueue::new(64);
        record(&mut q, e(1, 0, 8));
        record(&mut q, e(2, 1, 8));
        // Object 1 again (not consecutive → traversed): object 1 deeper in
        // the queue must not appear as its own partner.
        let partners = record(&mut q, e(1, 0, 8));
        assert_eq!(partners.len(), 1);
        assert_eq!(partners[0].obj, 2);
    }

    #[test]
    fn no_double_counting_of_one_partner() {
        let mut q = AffinityQueue::new(128);
        record(&mut q, e(2, 1, 8));
        record(&mut q, e(1, 0, 8));
        record(&mut q, e(2, 1, 8));
        // Object 2 appears twice within range; counted once.
        let partners = record(&mut q, e(3, 2, 8));
        let twos = partners.iter().filter(|p| p.obj == 2).count();
        assert_eq!(twos, 1);
        assert_eq!(partners.len(), 2);
    }

    #[test]
    fn distance_bounds_partners_by_bytes_not_count() {
        let mut q = AffinityQueue::new(32);
        record(&mut q, e(1, 0, 16));
        record(&mut q, e(2, 1, 16));
        // 16 + 16 = 32 ≥ A: only the nearest previous entry qualifies.
        let partners = record(&mut q, e(3, 2, 4));
        assert_eq!(partners.len(), 1);
        assert_eq!(partners[0].obj, 2);
    }

    #[test]
    fn queue_is_implicitly_sized_by_a() {
        let mut q = AffinityQueue::new(32);
        for i in 0..100 {
            record(&mut q, e(i, 0, 8));
        }
        // At 8 bytes per entry and A = 32, at most 4 entries survive.
        assert!(q.len() <= 4);
    }

    #[test]
    fn empty_queue_has_no_partners() {
        let mut q = AffinityQueue::new(32);
        assert!(record(&mut q, e(1, 0, 8)).is_empty());
    }

    #[test]
    fn record_with_reports_consecutiveness() {
        let mut q = AffinityQueue::new(64);
        assert!(q.record_with(e(1, 0, 8), |_| {}));
        assert!(!q.record_with(e(1, 0, 8), |_| {}), "same macro-access");
        assert!(q.record_with(e(2, 1, 8), |_| {}));
    }

    #[test]
    fn ring_grows_past_initial_capacity() {
        // 1-byte accesses with a large A force a window far beyond
        // INITIAL_RING; the ring must grow without losing order.
        let mut q = AffinityQueue::new(4096);
        for i in 0..3000u64 {
            record(&mut q, e(i, 0, 1));
        }
        assert!(q.len() > INITIAL_RING);
        let entries: Vec<u64> = q.iter().map(|p| p.obj).collect();
        let expected: Vec<u64> = (3000 - entries.len() as u64..3000).collect();
        assert_eq!(entries, expected, "oldest-first iteration, contiguous tail");
    }

    #[test]
    fn oversized_single_access_empties_the_queue() {
        let mut q = AffinityQueue::new(32);
        record(&mut q, e(1, 0, 8));
        record(&mut q, e(2, 1, 64)); // alone exceeds A: evicts everything, itself included
        assert!(q.is_empty());
        assert_eq!(record(&mut q, e(3, 2, 8)).len(), 0);
    }

    #[test]
    fn dedup_table_survives_epoch_reuse_across_many_traversals() {
        // Hammer a small object set so the same table slots are reused
        // thousands of times; any stale-epoch bug shows up as a missing or
        // duplicated partner.
        let mut q = AffinityQueue::new(128);
        for i in 0..10_000u64 {
            let obj = i % 5;
            let partners: Vec<u64> =
                record(&mut q, e(obj, obj as u32, 8)).iter().map(|p| p.obj).collect();
            let mut sorted = partners.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), partners.len(), "duplicate partner at step {i}");
            assert!(!partners.contains(&obj), "self-affinity at step {i}");
        }
    }
}
