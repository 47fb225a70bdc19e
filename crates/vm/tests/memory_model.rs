//! Differential suite for [`Memory`]: the slab + index + software-TLB page
//! table (DESIGN.md §16) against the obvious model — one `BTreeMap` entry
//! per written byte plus the set of resident page numbers.
//!
//! The arena is three six-page regions whose page numbers differ by a
//! large power of two, so same-offset pages of different regions share a
//! translation-cache entry whatever (power-of-two) size that cache has, and
//! every op mix keeps evicting and refilling it. Offsets are biased towards
//! page edges, where the single-page fast paths hand over to the
//! straddling ones.
//!
//! Case count follows the vendored proptest's config and the
//! `HALO_PROPTEST_CASES` override (CI trims it, soak runs raise it).

use halo_vm::{Memory, PAGE_SIZE};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const REGION_PAGES: u64 = 6;
const REGION_BYTES: u64 = REGION_PAGES * PAGE_SIZE;
/// Page-number distance between regions: a multiple of any plausible
/// direct-mapped translation-cache size.
const COLLIDING_STRIDE: u64 = (1 << 16) * PAGE_SIZE;
const BASE: u64 = 0x7000_0000;
const REGIONS: u64 = 3;

/// The byte-and-page oracle.
#[derive(Default)]
struct Model {
    bytes: BTreeMap<u64, u8>,
    resident: BTreeSet<u64>,
}

impl Model {
    fn read_bytes(&self, addr: u64, len: u64) -> Vec<u8> {
        (0..len).map(|i| self.bytes.get(&(addr + i)).copied().unwrap_or(0)).collect()
    }

    fn read(&self, addr: u64, width: u64) -> u64 {
        let mut buf = [0u8; 8];
        buf[..width as usize].copy_from_slice(&self.read_bytes(addr, width));
        u64::from_le_bytes(buf)
    }

    fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            let a = addr + i as u64;
            self.bytes.insert(a, b);
            self.resident.insert(a / PAGE_SIZE);
        }
    }

    fn discard(&mut self, start: u64, len: u64) {
        for page in start.div_ceil(PAGE_SIZE)..(start + len) / PAGE_SIZE {
            if self.resident.remove(&page) {
                let doomed: Vec<u64> = self
                    .bytes
                    .range(page * PAGE_SIZE..(page + 1) * PAGE_SIZE)
                    .map(|(&a, _)| a)
                    .collect();
                for a in doomed {
                    self.bytes.remove(&a);
                }
            }
        }
    }

    fn resident_pages_in(&self, start: u64, len: u64) -> usize {
        self.resident.range(start / PAGE_SIZE..=(start + len - 1) / PAGE_SIZE).count()
    }
}

/// An address inside the arena from two raw draws: mostly within a few
/// bytes of a page edge, otherwise anywhere in the region.
fn address(region: u64, raw: u64) -> u64 {
    let base = BASE + (region % REGIONS) * COLLIDING_STRIDE;
    let off = if raw.is_multiple_of(4) {
        (raw >> 8) % REGION_BYTES
    } else {
        let edge = 1 + (raw >> 8) % (REGION_PAGES - 1);
        edge * PAGE_SIZE + (raw >> 16) % 17 - 8
    };
    base + off
}

/// Where two buffers first differ, as `(index, got, want)` — a readable
/// failure instead of two multi-kilobyte dumps.
fn first_mismatch(got: &[u8], want: &[u8]) -> Option<(usize, u8, u8)> {
    assert_eq!(got.len(), want.len());
    got.iter().zip(want).position(|(g, w)| g != w).map(|i| (i, got[i], want[i]))
}

fn pattern(seed: u64, len: u64) -> Vec<u8> {
    (0..len).map(|i| (seed.wrapping_add(i).wrapping_mul(0x9e37_79b9) >> 7) as u8 | 1).collect()
}

/// Apply one generated op to both sides and compare what it returns.
fn step(mem: &mut Memory, model: &mut Model, op: (u8, u64, u64, u64)) -> Result<(), TestCaseError> {
    let (kind, region, raw, arg) = op;
    let addr = address(region, raw);
    match kind {
        // Scalar write at or across a page edge, read back at every width.
        0 | 1 => {
            let width = 1 << (arg % 4);
            let value = arg.rotate_left(17) | 1;
            mem.write(addr, width, value);
            model.write_bytes(addr, &value.to_le_bytes()[..width as usize]);
            for w in [1, 2, 4, 8] {
                prop_assert_eq!(
                    mem.read(addr, w),
                    model.read(addr, w),
                    "read-back w{} at {:#x}",
                    w,
                    addr
                );
            }
        }
        // Bulk write spanning up to four pages.
        2 => {
            let data = pattern(arg, 1 + arg % (3 * PAGE_SIZE + 500));
            mem.write_bytes(addr, &data);
            model.write_bytes(addr, &data);
        }
        // memmove, often overlapping: the destination sits near the source.
        3 => {
            let len = 1 + arg % (2 * PAGE_SIZE + 100);
            let dst = if arg.is_multiple_of(3) {
                address(arg >> 3, arg >> 5)
            } else {
                addr + (arg >> 20) % 300 - 150
            };
            let moved = model.read_bytes(addr, len);
            mem.copy(dst, addr, len);
            // Copying a range onto itself touches nothing.
            if dst != addr {
                model.write_bytes(dst, &moved);
            }
        }
        4 => {
            let len = 1 + arg % (2 * PAGE_SIZE + 100);
            mem.zero(addr, len);
            model.write_bytes(addr, &vec![0; len as usize]);
        }
        // Discard: page-aligned whole pages, a ragged range that only
        // partly covers its first and last page, or (rarely) a sweep far
        // wider than the resident set, which walks the index instead.
        5 => {
            let (start, len) = if arg % 16 == 15 {
                (addr - PAGE_SIZE, 64 * PAGE_SIZE)
            } else if arg.is_multiple_of(2) {
                (addr / PAGE_SIZE * PAGE_SIZE, (1 + (arg >> 1) % 3) * PAGE_SIZE)
            } else {
                (addr, 1 + (arg >> 1) % (3 * PAGE_SIZE))
            };
            mem.discard(start, len);
            model.discard(start, len);
            let first_full = start.next_multiple_of(PAGE_SIZE);
            prop_assert_eq!(mem.read(first_full, 8), model.read(first_full, 8));
        }
        6 => {
            let width = 1 << (arg % 4);
            prop_assert_eq!(
                mem.read(addr, width),
                model.read(addr, width),
                "read w{} at {:#x}",
                width,
                addr
            );
        }
        _ => {
            let len = 1 + arg % (2 * PAGE_SIZE);
            let mut got = vec![0xa5u8; len as usize];
            mem.read_bytes(addr, &mut got);
            prop_assert_eq!(first_mismatch(&got, &model.read_bytes(addr, len)), None);
        }
    }
    prop_assert_eq!(mem.resident_pages(), model.resident.len(), "resident set after op {:?}", op);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every op sequence leaves the page table and the byte oracle in
    /// agreement: per-op return values and resident count step by step,
    /// then every byte and every per-region residency count at the end.
    #[test]
    fn memory_matches_the_byte_oracle(
        ops in proptest::collection::vec(
            (0u8..8, any::<u64>(), any::<u64>(), any::<u64>()), 1..160),
    ) {
        let mut mem = Memory::new();
        let mut model = Model::default();
        for op in ops {
            step(&mut mem, &mut model, op)?;
        }
        for region in 0..REGIONS {
            // One page of slack on both sides catches spill-over writes.
            let start = BASE + region * COLLIDING_STRIDE - PAGE_SIZE;
            let len = REGION_BYTES + 6 * PAGE_SIZE;
            let mut got = vec![0xa5u8; len as usize];
            mem.read_bytes(start, &mut got);
            let want = model.read_bytes(start, len);
            prop_assert_eq!(first_mismatch(&got, &want), None, "region {} contents", region);
            prop_assert_eq!(mem.resident_pages_in(start, len), model.resident_pages_in(start, len));
        }
        // The sweep itself read plenty of absent pages.
        prop_assert_eq!(mem.resident_pages(), model.resident.len(), "reads never materialise");
        prop_assert_eq!(mem.resident_bytes(), model.resident.len() as u64 * PAGE_SIZE);
    }
}

#[test]
fn discard_then_read_returns_zero_and_does_not_rematerialise() {
    let mut mem = Memory::new();
    mem.write(BASE + 40, 8, u64::MAX);
    assert_eq!(mem.read(BASE + 40, 8), u64::MAX); // translation now cached
    mem.discard(BASE, PAGE_SIZE);
    assert_eq!(mem.resident_pages(), 0);
    for width in [1, 2, 4, 8] {
        assert_eq!(mem.read(BASE + 40, width), 0);
    }
    let mut buf = [0xffu8; 64];
    mem.read_bytes(BASE + 8, &mut buf);
    assert_eq!(buf, [0u8; 64]);
    assert_eq!(mem.resident_pages(), 0, "reads of a discarded page leave it unmapped");
    assert_eq!(mem.resident_pages_in(BASE, PAGE_SIZE), 0);
}

#[test]
fn discard_then_write_same_page_starts_from_a_fresh_zero_page() {
    let mut mem = Memory::new();
    let other = BASE + 9 * PAGE_SIZE;
    mem.write_bytes(BASE, &[0xee; PAGE_SIZE as usize]);
    mem.discard(BASE, PAGE_SIZE);
    // The next materialised page takes over the vacated slab slot; the
    // discarded page must not see its bytes, nor its own stale ones.
    mem.write_bytes(other, &[0x77; PAGE_SIZE as usize]);
    assert_eq!(mem.read(BASE + 100, 8), 0);
    mem.write(BASE + 100, 1, 0x42);
    assert_eq!(mem.read(BASE + 100, 8), 0x42, "neighbouring bytes are zero, not 0xee or 0x77");
    assert_eq!(mem.read(BASE, 8), 0);
    assert_eq!(mem.read(BASE + PAGE_SIZE - 8, 8), 0);
    assert_eq!(mem.read(other + 100, 8), 0x7777_7777_7777_7777, "the slot's new owner is intact");
    assert_eq!(mem.resident_pages(), 2);
}

#[test]
fn pages_sharing_a_translation_entry_stay_distinct() {
    let mut mem = Memory::new();
    let (a, b) = (BASE, BASE + COLLIDING_STRIDE);
    for round in 0..4u64 {
        mem.write(a + 8 * round, 8, 0xaaaa_0000 + round);
        mem.write(b + 8 * round, 8, 0xbbbb_0000 + round);
        assert_eq!(mem.read(a + 8 * round, 8), 0xaaaa_0000 + round);
        assert_eq!(mem.read(b + 8 * round, 8), 0xbbbb_0000 + round);
    }
    // Drop `a` while `b` owns the shared entry, then while `a` does.
    mem.discard(a, PAGE_SIZE);
    assert_eq!(mem.read(b, 8), 0xbbbb_0000);
    assert_eq!(mem.read(a, 8), 0);
    mem.write(a, 8, 1);
    assert_eq!(mem.read(a, 8), 1);
    mem.discard(a, PAGE_SIZE);
    assert_eq!(mem.read(a, 8), 0);
    assert_eq!(mem.read(b + 24, 8), 0xbbbb_0003);
    assert_eq!(mem.resident_pages(), 1);
}
