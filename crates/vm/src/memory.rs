//! Demand-paged simulated memory.
//!
//! The simulated address space is 64-bit and byte addressed. Pages come into
//! existence on first touch — exactly the behaviour that lets HALO's
//! allocator reserve "large, demand-paged slabs" (§4.4) without committing
//! memory — and the set of touched pages is what the fragmentation
//! experiment (Table 1) counts as *resident*.
//!
//! Every simulated load and store lands here, so the page lookup is built
//! to cost no hash in the common case (DESIGN.md §16): resident pages live
//! in a slab, a page-number → slab-slot map under [`FastIntState`] is the
//! source of truth for residency, and a small direct-mapped table of recent
//! `(page, slot)` translations — a software TLB — sits in front of the map.

use crate::hash::FastIntState;
use std::cell::Cell;
use std::collections::HashMap;

/// Size of a simulated page in bytes.
pub const PAGE_SIZE: u64 = 4096;

type Page = [u8; PAGE_SIZE as usize];

/// Direct-mapped translation entries, indexed by the page number's low
/// bits. A power of two, so neighbouring pages never evict each other.
const TLB_ENTRIES: usize = 256;

/// Page numbers stop at `u64::MAX / PAGE_SIZE`, so this marks an empty
/// TLB entry.
const NO_PAGE: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    page: u64,
    slot: u32,
}

/// A byte-addressed, demand-paged 64-bit simulated memory.
///
/// Reads from never-touched pages return zeroes without materialising the
/// page; writes materialise pages on demand. Accesses may straddle page
/// boundaries.
#[derive(Debug)]
pub struct Memory {
    /// Page storage. A slot is `None` exactly while it sits in `free`.
    slab: Vec<Option<Box<Page>>>,
    /// Slab slots vacated by [`Memory::discard`], reused before growing.
    free: Vec<u32>,
    /// Resident page number → slab slot: what "resident" means.
    index: HashMap<u64, u32, FastIntState>,
    /// Recent translations. Every non-empty entry agrees with `index`;
    /// `discard` clears the entries of the pages it drops. In `Cell`s so
    /// `read(&self)` can refill on a miss.
    tlb: [Cell<TlbEntry>; TLB_ENTRIES],
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

impl Memory {
    /// Create an empty memory.
    pub fn new() -> Self {
        Memory {
            slab: Vec::new(),
            free: Vec::new(),
            index: HashMap::default(),
            tlb: std::array::from_fn(|_| Cell::new(TlbEntry { page: NO_PAGE, slot: 0 })),
        }
    }

    /// Number of pages that have been materialised by writes.
    pub fn resident_pages(&self) -> usize {
        self.index.len()
    }

    /// Resident bytes (materialised pages × page size).
    pub fn resident_bytes(&self) -> u64 {
        self.index.len() as u64 * PAGE_SIZE
    }

    /// Count materialised pages within `[start, start + len)`. A range
    /// running past the top of the address space is clipped there.
    pub fn resident_pages_in(&self, start: u64, len: u64) -> usize {
        if len == 0 {
            return 0;
        }
        let pages = start / PAGE_SIZE..=start.saturating_add(len - 1) / PAGE_SIZE;
        // Walk whichever is smaller, the range or the index's table.
        if pages.end() - pages.start() < self.index.capacity() as u64 {
            pages.filter(|p| self.index.contains_key(p)).count()
        } else {
            self.index.keys().filter(|p| pages.contains(p)).count()
        }
    }

    #[inline]
    fn tlb_entry(&self, page: u64) -> &Cell<TlbEntry> {
        &self.tlb[page as usize % TLB_ENTRIES]
    }

    /// The slab slot of `page`, if resident.
    #[inline]
    fn slot_of(&self, page: u64) -> Option<u32> {
        let entry = self.tlb_entry(page);
        let cached = entry.get();
        if cached.page == page {
            return Some(cached.slot);
        }
        let slot = *self.index.get(&page)?;
        entry.set(TlbEntry { page, slot });
        Some(slot)
    }

    #[inline]
    fn page(&self, page: u64) -> Option<&Page> {
        let slot = self.slot_of(page)?;
        Some(self.slab[slot as usize].as_deref().expect("indexed slots hold a page"))
    }

    /// The page numbered `page`, materialised (zero-filled) if absent.
    #[inline]
    fn page_mut(&mut self, page: u64) -> &mut Page {
        let slot = match self.slot_of(page) {
            Some(slot) => slot,
            None => self.materialise(page),
        };
        self.slab[slot as usize].as_deref_mut().expect("indexed slots hold a page")
    }

    #[cold]
    fn materialise(&mut self, page: u64) -> u32 {
        let fresh = Some(Box::new([0u8; PAGE_SIZE as usize]));
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = fresh;
                slot
            }
            None => {
                self.slab.push(fresh);
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 resident pages")
            }
        };
        self.index.insert(page, slot);
        self.tlb_entry(page).set(TlbEntry { page, slot });
        slot
    }

    /// Read `width` bytes (1, 2, 4, or 8) at `addr`, zero-extended.
    #[inline]
    pub fn read(&self, addr: u64, width: u64) -> u64 {
        debug_assert!(matches!(width, 1 | 2 | 4 | 8));
        let off = (addr % PAGE_SIZE) as usize;
        if off as u64 + width > PAGE_SIZE {
            return self.read_generic(addr, width);
        }
        let Some(p) = self.page(addr / PAGE_SIZE) else {
            return 0;
        };
        match width {
            1 => u64::from(p[off]),
            2 => u64::from(u16::from_le_bytes(p[off..off + 2].try_into().expect("2 bytes"))),
            4 => u64::from(u32::from_le_bytes(p[off..off + 4].try_into().expect("4 bytes"))),
            8 => u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes")),
            _ => self.read_generic(addr, width),
        }
    }

    /// Write the low `width` bytes (1, 2, 4, or 8) of `value` at `addr`.
    #[inline]
    pub fn write(&mut self, addr: u64, width: u64, value: u64) {
        debug_assert!(matches!(width, 1 | 2 | 4 | 8));
        let off = (addr % PAGE_SIZE) as usize;
        if off as u64 + width > PAGE_SIZE || !matches!(width, 1 | 2 | 4 | 8) {
            return self.write_bytes(addr, &value.to_le_bytes()[..width as usize]);
        }
        let p = self.page_mut(addr / PAGE_SIZE);
        match width {
            1 => p[off] = value as u8,
            2 => p[off..off + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            4 => p[off..off + 4].copy_from_slice(&(value as u32).to_le_bytes()),
            _ => p[off..off + 8].copy_from_slice(&value.to_le_bytes()),
        }
    }

    /// `read` for an access that straddles a page edge (or, in a release
    /// build, has a width the fast path does not know).
    fn read_generic(&self, addr: u64, width: u64) -> u64 {
        let mut buf = [0u8; 8];
        self.read_bytes(addr, &mut buf[..width as usize]);
        u64::from_le_bytes(buf)
    }

    /// Read into `buf`, zero-filling bytes on untouched pages.
    pub fn read_bytes(&self, mut addr: u64, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let off = (addr % PAGE_SIZE) as usize;
            let n = (PAGE_SIZE as usize - off).min(buf.len() - done);
            match self.page(addr / PAGE_SIZE) {
                Some(p) => buf[done..done + n].copy_from_slice(&p[off..off + n]),
                None => buf[done..done + n].fill(0),
            }
            done += n;
            addr = addr.wrapping_add(n as u64);
        }
    }

    /// Write `buf` at `addr`, materialising pages as needed.
    pub fn write_bytes(&mut self, mut addr: u64, buf: &[u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let off = (addr % PAGE_SIZE) as usize;
            let n = (PAGE_SIZE as usize - off).min(buf.len() - done);
            self.page_mut(addr / PAGE_SIZE)[off..off + n].copy_from_slice(&buf[done..done + n]);
            done += n;
            addr = addr.wrapping_add(n as u64);
        }
    }

    /// Copy `len` bytes from `src` to `dst` (used by `realloc` to move
    /// object contents). Handles overlap like `memmove`.
    pub fn copy(&mut self, dst: u64, src: u64, len: u64) {
        if len == 0 || dst == src {
            return;
        }
        let mut buf = vec![0u8; len as usize];
        self.read_bytes(src, &mut buf);
        self.write_bytes(dst, &buf);
    }

    /// Zero `len` bytes at `addr` (used by `calloc`). A range running past
    /// the top of the address space is clipped there.
    pub fn zero(&mut self, mut addr: u64, len: u64) {
        // Writing zeroes still materialises pages: calloc'd memory is
        // touched memory as far as residency accounting is concerned.
        let mut left = len.min((u64::MAX - addr).saturating_add(1));
        while left > 0 {
            let off = addr % PAGE_SIZE;
            let n = (PAGE_SIZE - off).min(left);
            self.page_mut(addr / PAGE_SIZE)[off as usize..(off + n) as usize].fill(0);
            left -= n;
            // Wraps only after the clipped range's last byte.
            addr = addr.wrapping_add(n);
        }
    }

    /// Discard (unmap) all materialised pages fully contained in
    /// `[start, start + len)`. Models an allocator purging dirty pages back
    /// to the OS; subsequent reads in the range see zeroes. A range running
    /// past the top of the address space is clipped there.
    pub fn discard(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first_full = start.div_ceil(PAGE_SIZE);
        let last_full = match start.checked_add(len) {
            Some(end) => end / PAGE_SIZE,
            // Clipped at the top, which makes the last page a full one.
            None => u64::MAX / PAGE_SIZE + 1,
        }; // exclusive
        let pages = first_full..last_full;
        // Walk whichever is smaller, the range or the index's table.
        if pages.end.saturating_sub(pages.start) <= self.index.capacity() as u64 {
            for p in pages {
                if let Some(slot) = self.index.remove(&p) {
                    self.release(p, slot);
                }
            }
        } else {
            let doomed: Vec<u64> =
                self.index.keys().copied().filter(|p| pages.contains(p)).collect();
            for p in doomed {
                let slot = self.index.remove(&p).expect("key was just listed");
                self.release(p, slot);
            }
        }
    }

    /// Drop the storage of a page just removed from the index. Its TLB
    /// entry must go too: a stale translation would resurrect the page's
    /// old bytes — or, once the slot is reused, alias another page.
    fn release(&mut self, page: u64, slot: u32) {
        self.slab[slot as usize] = None;
        self.free.push(slot);
        let entry = self.tlb_entry(page);
        if entry.get().page == page {
            entry.set(TlbEntry { page: NO_PAGE, slot: 0 });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_untouched_returns_zero_without_materialising() {
        let m = Memory::new();
        assert_eq!(m.read(0xdead_beef, 8), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn write_then_read_roundtrip_all_widths() {
        let mut m = Memory::new();
        for (w, v) in [(1u64, 0xabu64), (2, 0xbeef), (4, 0xdead_beef), (8, 0x0123_4567_89ab_cdef)] {
            m.write(100, w, v);
            assert_eq!(m.read(100, w), v, "width {w}");
        }
    }

    #[test]
    fn narrow_write_zero_extends_on_read() {
        let mut m = Memory::new();
        m.write(8, 8, u64::MAX);
        m.write(8, 2, 0x1234);
        assert_eq!(m.read(8, 2), 0x1234);
        // Bytes 2..8 still hold 0xff.
        assert_eq!(m.read(8, 8), 0xffff_ffff_ffff_1234);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE - 4;
        m.write(addr, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read(addr, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn copy_moves_bytes_including_overlap() {
        let mut m = Memory::new();
        m.write_bytes(0, b"hello world");
        m.copy(100, 0, 11);
        let mut buf = [0u8; 11];
        m.read_bytes(100, &mut buf);
        assert_eq!(&buf, b"hello world");
        // Overlapping forward copy.
        m.copy(102, 100, 9);
        let mut buf2 = [0u8; 9];
        m.read_bytes(102, &mut buf2);
        assert_eq!(&buf2, b"hello wor");
    }

    #[test]
    fn zero_clears_and_materialises() {
        let mut m = Memory::new();
        m.write(4096, 8, u64::MAX);
        m.zero(4096, 1000);
        assert_eq!(m.read(4096, 8), 0);
        assert!(m.resident_pages() >= 1);
    }

    #[test]
    fn discard_removes_only_fully_contained_pages() {
        let mut m = Memory::new();
        // Touch three consecutive pages.
        m.write(0, 1, 1);
        m.write(PAGE_SIZE, 1, 1);
        m.write(2 * PAGE_SIZE, 1, 1);
        assert_eq!(m.resident_pages(), 3);
        // Range covering the middle page fully, the outer two partially.
        m.discard(10, 2 * PAGE_SIZE);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.read(PAGE_SIZE, 1), 0);
        assert_eq!(m.read(0, 1), 1);
    }

    #[test]
    fn resident_pages_in_counts_range() {
        let mut m = Memory::new();
        m.write(0, 1, 1);
        m.write(5 * PAGE_SIZE, 1, 1);
        assert_eq!(m.resident_pages_in(0, PAGE_SIZE), 1);
        assert_eq!(m.resident_pages_in(0, 6 * PAGE_SIZE), 2);
        assert_eq!(m.resident_pages_in(PAGE_SIZE, PAGE_SIZE), 0);
        assert_eq!(m.resident_pages_in(0, 0), 0);
    }

    /// Ranges that end at (or would run past) the top of the 64-bit
    /// address space are clipped there: no overflow panic in debug, no
    /// silent wrap to an empty or low-memory range in release.
    mod top_of_address_space {
        use super::*;

        /// Half a page below the very top.
        const NEAR_TOP: u64 = u64::MAX - PAGE_SIZE / 2;
        const TOP_PAGE: u64 = u64::MAX / PAGE_SIZE * PAGE_SIZE;

        #[test]
        fn read_and_write_work_in_the_last_page() {
            let mut m = Memory::new();
            assert_eq!(m.read(NEAR_TOP, 8), 0);
            m.write(NEAR_TOP, 8, 0x0123_4567_89ab_cdef);
            assert_eq!(m.read(NEAR_TOP, 8), 0x0123_4567_89ab_cdef);
            m.write(u64::MAX, 1, 0x7f);
            assert_eq!(m.read(u64::MAX, 1), 0x7f);
            assert_eq!(m.resident_pages(), 1);
        }

        #[test]
        fn zero_is_clipped_not_wrapped() {
            let mut m = Memory::new();
            m.write(0, 8, u64::MAX); // where a wrapped range would land
            m.write(u64::MAX - 7, 8, u64::MAX);
            m.zero(NEAR_TOP, PAGE_SIZE); // runs half a page past the top
            assert_eq!(m.read(u64::MAX - 7, 8), 0, "zeroed through the last byte");
            assert_eq!(m.read(0, 8), u64::MAX, "page 0 untouched");
            m.zero(NEAR_TOP, u64::MAX);
            assert_eq!(m.resident_pages(), 2);
        }

        #[test]
        fn discard_is_clipped_and_treats_the_last_page_as_whole() {
            let mut m = Memory::new();
            m.write(0, 8, 1);
            m.write(TOP_PAGE - 8, 8, 2); // second-to-last page
            m.write(NEAR_TOP, 8, 3);
            // Starts mid-page: the last page is only partly covered.
            m.discard(NEAR_TOP, PAGE_SIZE);
            assert_eq!(m.read(NEAR_TOP, 8), 3);
            // Starts on the last page's edge and overshoots the top.
            m.discard(TOP_PAGE, u64::MAX);
            assert_eq!(m.read(NEAR_TOP, 8), 0);
            assert_eq!(m.resident_pages(), 2);
            // Ends exactly on the top byte: one short of covering the page.
            m.write(NEAR_TOP, 8, 3);
            m.discard(TOP_PAGE, PAGE_SIZE - 1);
            assert_eq!(m.read(NEAR_TOP, 8), 3);
            // The whole address space, however few pages are resident.
            m.discard(0, u64::MAX);
            assert_eq!(m.resident_pages(), 1, "only the never-whole last page survives");
            assert_eq!(m.read(0, 8), 0);
            assert_eq!(m.read(TOP_PAGE - 8, 8), 0);
        }

        #[test]
        fn resident_pages_in_is_clipped() {
            let mut m = Memory::new();
            m.write(0, 1, 1);
            m.write(NEAR_TOP, 1, 1);
            assert_eq!(m.resident_pages_in(NEAR_TOP, 1), 1);
            assert_eq!(m.resident_pages_in(NEAR_TOP, PAGE_SIZE), 1, "overshoots the top");
            assert_eq!(m.resident_pages_in(NEAR_TOP, u64::MAX), 1);
            assert_eq!(m.resident_pages_in(TOP_PAGE - PAGE_SIZE, PAGE_SIZE), 0);
            assert_eq!(m.resident_pages_in(0, u64::MAX), 2);
        }
    }

    #[test]
    fn memory_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Memory>();
    }
}
