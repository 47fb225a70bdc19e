//! A single set-associative, write-allocate, LRU cache, and the set-walk
//! kernel it runs on.
//!
//! **One recency representation.** Tags stay in the way they were filled
//! into; a set's recency order is one `u64` permutation, nibble *k*
//! holding the way at recency *k* (nibble 0 = MRU). The L1D, the dTLB, L2
//! and L3 are all a [`SetAssocCache`], walked by [`walk`]: compare the MRU
//! way and return on a match (re-touching a set's MRU line moves nothing),
//! otherwise build a match mask over **all** ways with no early exit and
//! move the chosen way's nibble to the front in constant time.
//!
//! **One free-way rule.** A tag is stored as the complement of its line,
//! so a free way is tag 0, and free ways are kept at the LRU end: a miss
//! always takes the last recency position, a free way while the set has
//! one and the LRU line after. DESIGN.md §14 has the argument and the
//! measurements behind the shape (where the early exit pays and where it
//! does not).

use crate::span::SetIndex;
use crate::zero_pages::ZeroPages;

/// The identity permutation: nibble *k* = *k*. Order words are stored XOR
/// this, so an all-zero word *is* the identity and a fresh array of zero
/// pages needs no initialising write (the 405 k-slot L3 stays untouched
/// until it is used). Nibbles at positions `ways..16` never move, so in a narrower
/// set they stay the identity's and the word stays a permutation of all
/// sixteen values — which is what lets [`position_bit`] expect exactly
/// one match.
const IDENTITY: u64 = 0xFEDC_BA98_7654_3210;
const NIBBLE_LOWS: u64 = 0x1111_1111_1111_1111;
const NIBBLE_HIGHS: u64 = 0x8888_8888_8888_8888;

/// The way at recency position `pos` (0 = MRU) of permutation `perm`.
#[inline(always)]
fn way_at(perm: u64, pos: usize) -> usize {
    ((perm >> (4 * pos)) & 0xF) as usize
}

/// The top bit (`1 << (4p + 3)`) of the nibble at position `p` that holds
/// `way`: SWAR zero-nibble search on `perm ^ way·0x1111…`. The borrow of
/// the subtraction can raise false flags only *above* a true zero nibble,
/// and a permutation has exactly one, so the lowest flag is exact.
#[inline(always)]
fn position_bit(perm: u64, way: usize) -> u64 {
    let x = perm ^ (way as u64 * NIBBLE_LOWS);
    let flags = x.wrapping_sub(NIBBLE_LOWS) & !x & NIBBLE_HIGHS;
    flags & flags.wrapping_neg()
}

/// Move `way`'s nibble to position 0, sliding the nibbles that were in
/// front of it back by one — a move-to-front in constant time. The masks
/// are built from the nibble's own top bit, so position 15 needs no
/// shift by 64.
#[inline(always)]
fn promote(perm: u64, way: usize) -> u64 {
    let top = position_bit(perm, way);
    let below = (top >> 3) - 1; // nibbles 0..p
    let through = top | (top - 1); // nibbles 0..=p
    (perm & !through) | ((perm & below) << 4) | way as u64
}

/// Move `way`'s nibble to position `ways − 1`, sliding the nibbles behind
/// it forward by one: how a way freed in the middle of a set joins the
/// free ways at the LRU end without disturbing the survivors' order.
#[inline(always)]
fn demote(perm: u64, way: usize, ways: usize) -> u64 {
    let below = (position_bit(perm, way) >> 3) - 1; // nibbles 0..p
    let set = u64::MAX >> (64 - 4 * ways); // nibbles 0..ways
    (perm & (below | !set)) | (((perm & set) >> 4) & !below) | ((way as u64) << (4 * (ways - 1)))
}

/// Bit `i` set iff `set[i] == key`, every way compared — the one
/// tag-match loop in the crate. No early exit: where hits land deep in
/// full sets the exit branch mispredicts, and the cheap case (the MRU
/// way) has been answered before this runs. At the shipped widths (dTLB
/// 4, L1D 8, L3 11, L2 16) the loop runs over a slice of constant length
/// so that it unrolls flat; any other width runs the same loop over the
/// slice as it comes.
#[inline(always)]
fn match_mask(set: &[u64], key: u64) -> u32 {
    #[inline(always)]
    fn over(set: &[u64], key: u64) -> u32 {
        let mut mask = 0;
        for (way, &tag) in set.iter().enumerate() {
            mask |= u32::from(tag == key) << way;
        }
        mask
    }
    match set.len() {
        4 => over(&set[..4], key),
        8 => over(&set[..8], key),
        11 => over(&set[..11], key),
        16 => over(&set[..16], key),
        _ => over(set, key),
    }
}

/// Walk one set for the stored tag `key` and make the way it lands in the
/// MRU; returns `(hit, way)`. `order` is the set's stored order word. A
/// miss takes the last recency position — a free way while the set has
/// one, since free ways sit at the LRU end, else the LRU line — and the
/// caller fills `set[way]`; the order word already names it MRU.
#[inline(always)]
fn walk(set: &[u64], order: &mut u64, key: u64) -> (bool, usize) {
    let perm = *order ^ IDENTITY;
    let mru = way_at(perm, 0);
    if set[mru] == key {
        return (true, mru);
    }
    let mask = match_mask(set, key);
    let hit = mask != 0;
    let way = if hit { mask.trailing_zeros() as usize } else { way_at(perm, set.len() - 1) };
    *order = promote(perm, way) ^ IDENTITY;
    (hit, way)
}

/// Send `way` to the LRU end of a `ways`-wide set's order word (see
/// [`demote`]).
#[inline]
fn retire(order: &mut u64, way: usize, ways: usize) {
    *order = demote(*order ^ IDENTITY, way, ways) ^ IDENTITY;
}

/// The tag `line` is stored as: its complement, so that the free-way tag
/// is 0 and a fresh or flushed array of zero pages is an empty cache.
#[inline(always)]
fn key(line: u64) -> u64 {
    debug_assert_ne!(line, u64::MAX, "line u64::MAX has the free-way tag 0");
    !line
}

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Associativity (lines per set), 1 to 16: a set's recency order is
    /// one packed `u64`, a nibble per way.
    pub ways: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (`ways` outside 1..=16,
    /// capacity not divisible into `ways`-line sets, or line size not a
    /// power of two).
    pub fn sets(&self) -> u64 {
        assert!(
            (1..=16).contains(&self.ways),
            "ways must be 1..=16 (a set's recency order is packed a nibble per way into one u64), got {}",
            self.ways
        );
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
/// passing page numbers as "line addresses" with `line_bytes = 1`. Each
/// is stored as its complement, which leaves one line it cannot hold:
/// `u64::MAX`, whose tag would be the free way's 0 (a `debug_assert!`
/// says so). Only a 1-byte-line cache fed the last address of the
/// address space could ask for it; the hierarchy's lines and pages are
/// addresses shifted right, and never can.
///
/// Its two arrays are all-zero at rest, and each is fresh anonymous
/// zero pages, so a cache costs the pages its accesses touch. A `calloc`
/// would not do: once a process has freed one L3's 3.1 MiB of tags, glibc
/// serves later ones from an arena and `memset`s a recycled block in
/// full, so from the third hierarchy on every L3 would be resident before
/// its first access.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    set_index: SetIndex,
    line_shift: u32,
    ways: usize,
    /// Recency order of each set, packed and stored XOR the identity (see
    /// the module docs).
    order: ZeroPages<u64>,
    /// Tag storage, `sets × ways`, each tag the complement of its line and
    /// a free way 0; a tag never moves between ways. One flat allocation:
    /// a set scan is one pointer chase, and a way's flat index (its slot)
    /// names it for the life of its line.
    tags: ZeroPages<u64>,
}

impl SetAssocCache {
    /// Build an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets() as usize;
        let ways = config.ways as usize;
        SetAssocCache {
            config,
            set_index: SetIndex::new(sets as u64),
            line_shift: config.line_bytes.trailing_zeros(),
            ways,
            order: ZeroPages::new(sets),
            tags: ZeroPages::new(sets * ways),
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

    /// Touch line number `line`; returns `true` on hit. On miss the line
    /// is filled — into a free way while its set has one, else over the
    /// LRU line of its set, whose line number is returned alongside.
    ///
    /// `always`: mask-or-modulo set indexing and [`match_mask`]'s width
    /// dispatch (an indirect jump) are constants of one cache but differ
    /// between the dTLB, L2 and L3. One out-of-line copy shared by all
    /// three mispredicts both on nearly every call — `health`'s ref trace
    /// replays in 1 600 ms that way, 850 ms with a copy per call site.
    #[inline(always)]
    pub fn access_line(&mut self, line: u64) -> (bool, Option<u64>) {
        let (hit, _, was) = self.fill(line);
        (hit, (!hit && was != 0).then_some(!was))
    }

    /// Touch the byte address `addr`; returns `true` on hit.
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_line(self.line_of(addr)).0
    }

    /// Touch `line` as [`Self::access_line`] does; returns whether it hit
    /// and the slot it now occupies.
    #[inline(always)]
    pub(crate) fn touch(&mut self, line: u64) -> (bool, usize) {
        let (hit, slot, _) = self.fill(line);
        (hit, slot)
    }

    /// The slot holding `line`, if resident; recency order is left alone.
    #[inline]
    pub(crate) fn find(&self, line: u64) -> Option<usize> {
        let base = self.set_index.of(line) * self.ways;
        let mask = match_mask(&self.tags[base..base + self.ways], key(line));
        (mask != 0).then(|| base + mask.trailing_zeros() as usize)
    }

    /// Drop `line` if resident; returns whether it was. Its way becomes
    /// free and goes to the LRU end, the survivors keep their order.
    pub(crate) fn invalidate(&mut self, line: u64) -> bool {
        let Some(slot) = self.find(line) else { return false };
        self.tags[slot] = 0;
        retire(&mut self.order[slot / self.ways], slot % self.ways, self.ways);
        true
    }

    /// Walk `line`'s set and leave the line in its MRU way; returns
    /// whether it hit, the way's slot, and the tag the way held before (on
    /// a miss: 0 for a free way, else the evicted line's).
    #[inline(always)]
    fn fill(&mut self, line: u64) -> (bool, usize, u64) {
        let set_idx = self.set_index.of(line);
        let base = set_idx * self.ways;
        let set = &mut self.tags[base..base + self.ways];
        let tag = key(line);
        let (hit, way) = walk(set, &mut self.order[set_idx], tag);
        (hit, base + way, std::mem::replace(&mut set[way], tag))
    }

    /// Invalidate everything, back to the constructed (all-zero) state.
    pub fn flush(&mut self) {
        self.order.fill(0);
        self.tags.fill(0);
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
    #[should_panic(expected = "ways must be 1..=16")]
    fn zero_ways_panics_with_the_reason() {
        CacheConfig { size_bytes: 256, line_bytes: 64, ways: 0 }.sets();
    }

    #[test]
    #[should_panic(expected = "ways must be 1..=16")]
    fn seventeen_ways_panics_with_the_reason() {
        CacheConfig { size_bytes: 17 * 64, line_bytes: 64, ways: 17 }.sets();
    }

    /// Nibbles of `perm`, position by position.
    fn unpack(perm: u64) -> Vec<usize> {
        (0..16).map(|pos| way_at(perm, pos)).collect()
    }

    fn pack(ways: &[usize]) -> u64 {
        ways.iter().rev().fold(0, |perm, &way| perm << 4 | way as u64)
    }

    #[test]
    fn promote_and_demote_match_a_vec_move_to_front() {
        // Every width, every position (so every way), from the identity
        // and from the scrambled orders a walk of promotes and demotes
        // leaves behind — including width 16 position 15, where a mask
        // built as `(1 << 4(p + 1)) − 1` would shift by 64.
        for ways in 1..=16usize {
            let mut perm = IDENTITY;
            for round in 0..4 * ways {
                let model = unpack(perm);
                assert_eq!(pack(&model), perm);
                for pos in 0..ways {
                    let way = model[pos];
                    assert_eq!(position_bit(perm, way), 1 << (4 * pos + 3));
                    let mut front = model.clone();
                    front.remove(pos);
                    front.insert(0, way);
                    assert_eq!(promote(perm, way), pack(&front), "{ways} ways, promote {pos}");
                    let mut back = model.clone();
                    back.remove(pos);
                    back.insert(ways - 1, way);
                    assert_eq!(demote(perm, way, ways), pack(&back), "{ways} ways, demote {pos}");
                    // Positions past the set's width are never disturbed.
                    assert_eq!(front[ways..], model[ways..]);
                    assert_eq!(back[ways..], model[ways..]);
                }
                let way = model[(round * 5 + 3) % ways];
                perm = if round % 3 == 2 { demote(perm, way, ways) } else { promote(perm, way) };
            }
        }
    }

    #[test]
    fn match_mask_flags_exactly_the_matching_ways_at_every_width() {
        for ways in 1..=16usize {
            let set: Vec<u64> = (0..ways as u64).map(|way| 100 + way).collect();
            for way in 0..ways {
                assert_eq!(match_mask(&set, 100 + way as u64), 1 << way, "{ways} ways");
            }
            assert_eq!(match_mask(&set, 7), 0);
            assert_eq!(match_mask(&vec![7; ways], 7), (1 << ways) - 1);
        }
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
    fn a_set_fills_every_way_before_it_evicts() {
        // Line 0 lives in set 0. Its tag is `!0`, not the free ways' 0, and
        // every miss takes the last recency position, where the free ways
        // wait until the set is full.
        let mut c =
            SetAssocCache::new(CacheConfig { size_bytes: 16 * 64, line_bytes: 64, ways: 16 });
        for line in 0..16 {
            assert_eq!(c.access_line(line), (false, None), "line {line} takes a free way");
        }
        for line in 0..16 {
            assert_eq!(c.access_line(line), (true, None));
        }
        assert_eq!(c.access_line(16), (false, Some(0)));
    }

    #[test]
    fn an_invalidated_way_is_refilled_before_anything_is_evicted() {
        // One 4-way set. Killing a line in the middle of the recency order
        // must leave a free way the next fill takes, and the survivors in
        // the order they had.
        let mut c = SetAssocCache::new(CacheConfig { size_bytes: 4 * 64, line_bytes: 64, ways: 4 });
        for line in 0..4 {
            assert!(!c.touch(line).0);
        }
        let slot = c.find(2).expect("line 2 is resident");
        assert!(c.invalidate(2));
        assert!(!c.invalidate(2), "already gone");
        assert_eq!(c.find(2), None);
        assert_eq!(c.touch(9), (false, slot), "the freed way takes the next fill");
        for survivor in [0, 1, 3] {
            assert!(c.find(survivor).is_some(), "line {survivor}");
        }
        // Full again; the victims come in the survivors' old order.
        for (fill, victim) in [(10, 0), (11, 1), (12, 3), (13, 9)] {
            assert_eq!(c.access_line(fill), (false, Some(victim)), "filling {fill}");
        }
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
        c.flush();
        assert!(!c.access(0));
        assert!(!c.access(64));
    }

    #[test]
    fn fresh_and_flushed_caches_are_all_zero() {
        // DESIGN.md §14 "all-zero at rest": an order word resting at the
        // plain identity, or a free way marked by anything but tag 0, would
        // turn the L3's lazily zeroed pages into written ones and show up
        // only as `peak_rss_mb`. The L1D frees ways one at a time; flushed,
        // it is as empty as the rest.
        let all_zero = |c: &SetAssocCache| {
            c.order.iter().all(|&word| word == 0) && c.tags.iter().all(|&tag| tag == 0)
        };
        for (ways, invalidate) in [(11u32, false), (8, true)] {
            let size_bytes = 3 * u64::from(ways) * 64;
            let mut c = SetAssocCache::new(CacheConfig { size_bytes, line_bytes: 64, ways });
            assert!(all_zero(&c));
            for line in 0..100 {
                c.access_line(line * 7);
            }
            if invalidate {
                let slot = c.find(99 * 7).expect("the last line is resident");
                assert!(c.invalidate(99 * 7));
                assert_eq!(c.tags[slot], 0, "an invalidated way is free");
            }
            assert!(!all_zero(&c));
            c.flush();
            assert!(all_zero(&c));
        }
    }
}
