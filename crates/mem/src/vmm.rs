//! Virtual-address reservation: the "OS" handing out `mmap`-style regions.

/// Why a reservation could not be granted. `mmap` returning `MAP_FAILED`
/// is a runtime condition in a long-running host process, not a setup
/// bug, so [`Vmm::reserve`] reports it as a typed error the allocator
/// stack can degrade on (route to the fallback path) instead of
/// asserting the process away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReserveError {
    /// The span has no room for `requested` more bytes.
    SpanExhausted {
        /// Bytes asked for (including alignment padding).
        requested: u64,
        /// Bytes still available at the requested alignment.
        available: u64,
    },
    /// The reservation arithmetic overflowed the 64-bit address space.
    Overflow,
}

impl std::fmt::Display for ReserveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReserveError::SpanExhausted { requested, available } => write!(
                f,
                "virtual address span exhausted ({requested} bytes requested, {available} available)"
            ),
            ReserveError::Overflow => write!(f, "reservation overflows the address space"),
        }
    }
}

impl std::error::Error for ReserveError {}

/// Hands out non-overlapping, aligned reservations from a private span of
/// the simulated 64-bit address space.
///
/// Each allocator instance owns one `Vmm` rooted at a distinct base so that
/// composed allocators (e.g. the group allocator plus its fallback) can
/// never collide. Reservation is pure bookkeeping — pages only materialise
/// when the program touches them (see [`halo_vm::Memory`]), which models
/// demand paging.
#[derive(Debug, Clone)]
pub struct Vmm {
    base: u64,
    next: u64,
    limit: u64,
}

impl Vmm {
    /// Create a reservation span `[base, base + span)`. A span that would
    /// overflow the address space is clamped to its end; the shortfall
    /// then surfaces as [`ReserveError::SpanExhausted`] from
    /// [`Self::reserve`], never as a panic.
    ///
    /// # Panics
    ///
    /// Panics if `base` is 0 — the null page must stay unmapped, and a
    /// zero base is a constructor bug, not a runtime condition.
    pub fn new(base: u64, span: u64) -> Self {
        assert!(base > 0, "null page must remain unreserved");
        Vmm { base, next: base, limit: base.saturating_add(span) }
    }

    /// Reserve `size` bytes aligned to `align` (a power of two).
    /// Returns the base address of the reservation.
    ///
    /// # Errors
    ///
    /// Returns [`ReserveError`] when the span is exhausted or the
    /// arithmetic overflows — the callers' cue to degrade (the group
    /// allocator routes the request to its fallback; the artefact's note
    /// about needing 16 GiB of mappable virtual memory is a real limit a
    /// production host can hit).
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two (a programmer error; no
    /// caller computes alignments from runtime data).
    pub fn reserve(&mut self, size: u64, align: u64) -> Result<u64, ReserveError> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let addr = self
            .next
            .checked_add(align - 1)
            .map(|a| a & !(align - 1))
            .ok_or(ReserveError::Overflow)?;
        let end = addr.checked_add(size.max(1)).ok_or(ReserveError::Overflow)?;
        if end > self.limit {
            return Err(ReserveError::SpanExhausted {
                requested: end - self.next,
                available: self.limit.saturating_sub(self.next),
            });
        }
        self.next = end;
        Ok(addr)
    }

    /// Whether `addr` falls inside any reservation made so far.
    pub fn contains(&self, addr: u64) -> bool {
        (self.base..self.next).contains(&addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Vmm {
        /// Bytes reserved so far (including alignment padding).
        fn reserved_bytes(&self) -> u64 {
            self.next - self.base
        }
    }

    #[test]
    fn reservations_do_not_overlap() {
        let mut v = Vmm::new(0x1000, 1 << 30);
        let a = v.reserve(100, 8).unwrap();
        let b = v.reserve(100, 8).unwrap();
        assert!(a + 100 <= b);
    }

    #[test]
    fn alignment_respected() {
        let mut v = Vmm::new(0x1000, 1 << 30);
        v.reserve(3, 8).unwrap();
        let b = v.reserve(64, 1 << 20).unwrap();
        assert_eq!(b % (1 << 20), 0);
    }

    #[test]
    fn contains_tracks_extent() {
        let mut v = Vmm::new(0x1000, 1 << 20);
        assert!(!v.contains(0x1000));
        let a = v.reserve(16, 8).unwrap();
        assert!(v.contains(a));
        assert!(v.contains(a + 15));
        assert!(!v.contains(a + 16));
    }

    #[test]
    fn exhaustion_returns_error() {
        let mut v = Vmm::new(0x1000, 100);
        let err = v.reserve(200, 8).unwrap_err();
        assert_eq!(err, ReserveError::SpanExhausted { requested: 200, available: 100 });
        assert!(err.to_string().contains("span exhausted"));
        // The failed reservation consumed nothing: a smaller request
        // still succeeds, so degradation is per request, not permanent.
        assert_eq!(v.reserved_bytes(), 0);
        assert!(v.reserve(64, 8).is_ok());
    }

    #[test]
    fn overflowing_arithmetic_returns_error() {
        // A span reaching the end of the address space clamps instead of
        // panicking in the constructor…
        let mut v = Vmm::new(u64::MAX - 100, u64::MAX);
        // …and a reservation whose end (or alignment rounding) would pass
        // u64::MAX reports Overflow instead of wrapping.
        assert_eq!(v.reserve(200, 8).unwrap_err(), ReserveError::Overflow);
        assert_eq!(v.reserve(50, 1 << 60).unwrap_err(), ReserveError::Overflow);
        // Within the clamped span, reservation still succeeds.
        assert!(v.reserve(50, 8).is_ok());
    }

    #[test]
    fn zero_size_reservation_still_advances() {
        let mut v = Vmm::new(0x1000, 1 << 20);
        let a = v.reserve(0, 8).unwrap();
        let b = v.reserve(0, 8).unwrap();
        assert_ne!(a, b);
    }
}
