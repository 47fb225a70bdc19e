//! Precomputed address arithmetic for the hierarchy hot loop.
//!
//! [`CoherentHierarchy`](crate::CoherentHierarchy) splits every access into
//! the cache lines (and pages) it touches, and every cache level reduces a
//! line number to a set index. Spelled out per access these are 64-bit
//! divisions and modulos. A line or a page is always a power of two
//! ([`CacheConfig::sets`] asserts it for lines, and the page is the 4 KiB
//! [`PAGE_BYTES`](crate::PAGE_BYTES)), so [`SpanUnit`] is a shift. A set
//! count need not be one (the L3's 36864 sets are not), so [`SetIndex`]
//! decides once, at construction, whether a mask is exact and otherwise
//! keeps the modulo, bit-for-bit identical.
//!
//! [`CacheConfig::sets`]: crate::CacheConfig::sets

/// The half-open unit count is never needed: a span is the *inclusive*
/// range `[first, last]` of line (or page) numbers an access touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    /// Unit number containing the first byte of the access.
    pub(crate) first: u64,
    /// Unit number containing the last byte of the access.
    pub(crate) last: u64,
}

impl Span {
    /// Whether the access stayed inside one line/page — the common case
    /// the hierarchy fast-paths.
    #[inline]
    pub(crate) fn is_single(self) -> bool {
        self.first == self.last
    }
}

/// A divider for one power-of-two span unit (a line size or the page
/// size), built once per hierarchy instead of re-deriving per access.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanUnit {
    /// `log2` of the unit size in bytes.
    shift: u32,
}

impl SpanUnit {
    /// Build a divider for `bytes`-sized units.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a power of two.
    pub(crate) const fn new(bytes: u64) -> Self {
        assert!(bytes.is_power_of_two(), "span unit must be a power of two");
        SpanUnit { shift: bytes.trailing_zeros() }
    }

    /// Unit size in bytes.
    #[inline]
    pub(crate) fn bytes(self) -> u64 {
        1 << self.shift
    }

    /// Unit number containing byte address `addr`.
    #[inline]
    pub(crate) fn index_of(self, addr: u64) -> u64 {
        addr >> self.shift
    }

    /// The units a `width`-byte access at `addr` touches. Zero-width
    /// accesses are clamped to one byte (`width.max(1)`), and the last byte
    /// is clipped at `u64::MAX`: the engine forms addresses with
    /// `wrapping_add`, so a program can deliver an access that runs off
    /// the top of the address space, and it must still touch the units up
    /// to the last one rather than wrap to an empty span.
    #[inline]
    pub(crate) fn lines_touched(self, addr: u64, width: u8) -> Span {
        let last_byte = addr.saturating_add(width.max(1) as u64 - 1);
        Span { first: self.index_of(addr), last: self.index_of(last_byte) }
    }
}

/// A precomputed reducer from line number to set index for a cache of
/// `sets` sets, shared by every cache structure in the crate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SetIndex {
    sets: u64,
    /// `Some(sets - 1)` when `sets` is a power of two; `None` keeps the
    /// exact modulo.
    mask: Option<u64>,
}

impl SetIndex {
    /// Build a reducer for `sets` sets (non-zero: [`CacheConfig::sets`]
    /// asserts at least one).
    ///
    /// [`CacheConfig::sets`]: crate::CacheConfig::sets
    pub(crate) fn new(sets: u64) -> Self {
        SetIndex { sets, mask: sets.is_power_of_two().then(|| sets - 1) }
    }

    /// Set that holds line number `line`.
    #[inline]
    pub(crate) fn of(self, line: u64) -> usize {
        (match self.mask {
            Some(mask) => line & mask,
            None => line % self.sets,
        }) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_width_touches_exactly_one_unit() {
        // width 0 is clamped to 1 byte — the pre-helper hierarchies'
        // `width.max(1)` behaviour.
        let u = SpanUnit::new(64);
        assert_eq!(u.lines_touched(0, 0), Span { first: 0, last: 0 });
        assert_eq!(u.lines_touched(63, 0), Span { first: 0, last: 0 });
        assert_eq!(u.lines_touched(64, 0), Span { first: 1, last: 1 });
        assert!(u.lines_touched(63, 0).is_single());
    }

    #[test]
    fn straddling_access_spans_both_units() {
        let u = SpanUnit::new(64);
        // 8 bytes at 60: bytes 60..=67 touch lines 0 and 1.
        let s = u.lines_touched(60, 8);
        assert_eq!(s, Span { first: 0, last: 1 });
        assert!(!s.is_single());
        // 8 bytes at 56: bytes 56..=63 stay in line 0.
        assert!(u.lines_touched(56, 8).is_single());
        // One byte exactly on the boundary belongs to the next line.
        assert_eq!(u.lines_touched(64, 1), Span { first: 1, last: 1 });
    }

    #[test]
    fn max_width_access_spans_at_most_ceil_plus_one_units() {
        // The widest possible access (u8::MAX bytes) across 64-byte lines
        // touches at most ceil(255/64)+1 = 5 lines, and exactly 4 when
        // aligned.
        let u = SpanUnit::new(64);
        let aligned = u.lines_touched(0, u8::MAX);
        assert_eq!(aligned, Span { first: 0, last: 3 }); // bytes 0..=254
        let misaligned = u.lines_touched(63, u8::MAX);
        assert_eq!(misaligned, Span { first: 0, last: 4 }); // bytes 63..=317
    }

    #[test]
    fn span_is_clipped_at_the_top_of_the_address_space() {
        // u64::MAX - 3, width 8: bytes MAX-3..=MAX exist, the other four
        // do not. The span ends on the unit holding u64::MAX instead of
        // wrapping round to unit 0.
        let u = SpanUnit::new(64);
        let top = u64::MAX >> 6;
        assert_eq!(u.lines_touched(u64::MAX - 3, 8), Span { first: top, last: top });
        assert_eq!(u.lines_touched(u64::MAX - 70, u8::MAX), Span { first: top - 1, last: top });
        assert_eq!(u.lines_touched(u64::MAX, 0), Span { first: top, last: top });
    }

    #[test]
    fn set_index_masks_powers_of_two_and_divides_the_rest() {
        for sets in [1u64, 2, 3, 64, 36864] {
            let index = SetIndex::new(sets);
            for line in [0u64, 1, 63, 64, 36863, 36864, u64::MAX >> 6, u64::MAX] {
                assert_eq!(index.of(line), (line % sets) as usize, "{line} in {sets} sets");
            }
        }
    }

    #[test]
    fn shift_and_division_agree_across_a_sweep() {
        for unit in [32u64, 64, 4096] {
            let shifted = SpanUnit::new(unit);
            assert_eq!(shifted.bytes(), unit);
            for addr in (0..1024u64).chain(unit * 16 - 300..unit * 16 + 300) {
                for width in [0u8, 1, 7, 8, 63, 64, 65, 255] {
                    let last_byte = addr + width.max(1) as u64 - 1;
                    let expect = Span { first: addr / unit, last: last_byte / unit };
                    assert_eq!(shifted.lines_touched(addr, width), expect, "{unit}-byte units");
                }
            }
        }
    }
}
