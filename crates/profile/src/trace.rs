//! Object-granularity data-reference trace collection.
//!
//! The hot-data-streams comparison technique (Chilimbi & Shaham, PLDI'06)
//! consumes "a global data reference trace … constructed from heap
//! allocations during a profiling run". This monitor records that trace:
//! one symbol per heap object per macro-access (consecutive repeats
//! collapsed), plus each object's *immediate* allocation call site — the
//! fixed-size context by which that technique identifies groups at runtime.

use crate::objects::ObjectTracker;
use halo_graph::NodeId;
use halo_vm::{AllocKind, CallSite, Monitor};

/// Trace symbols are object ids below this bound: SEQUITUR's packed digram
/// key (`halo_hds`) tags rule references with bit 31, so a terminal must
/// leave it clear.
pub const TRACE_SYMBOL_LIMIT: u64 = 1 << 31;

/// The trace symbol of object `id`, or `None` when the id is not
/// encodable — a plain `as u32` would alias ids past `u32::MAX` onto
/// other objects, and ids from 2³¹ on onto rule references.
fn trace_symbol(id: u64) -> Option<u32> {
    (id < TRACE_SYMBOL_LIMIT).then_some(id as u32)
}

/// Per-object record in a [`HeapTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceObject {
    /// The *immediate* call site of the allocation routine — deliberately
    /// not origin-traced: for a wrapper like `pov_malloc` every object
    /// shares the wrapper-internal site, which is exactly the limitation
    /// §3 describes.
    pub site: CallSite,
    /// Requested size in bytes.
    pub size: u64,
    /// Macro-accesses observed to this object.
    pub accesses: u64,
}

/// The collected reference trace.
#[derive(Debug, Clone, Default)]
pub struct HeapTrace {
    /// Object ids in access order, consecutive duplicates collapsed; all
    /// below [`TRACE_SYMBOL_LIMIT`].
    pub symbols: Vec<u32>,
    /// Object table indexed by symbol.
    pub objects: Vec<TraceObject>,
}

impl HeapTrace {
    /// Total macro-accesses across all objects.
    pub fn total_accesses(&self) -> u64 {
        self.objects.iter().map(|o| o.accesses).sum()
    }
}

/// A [`Monitor`] collecting a [`HeapTrace`]. Unlike the HALO profiler it
/// tracks objects of *any* size — the hot-data-streams analysis has no
/// size cap, which is what lets large, widely accessed objects poison its
/// stream formation (§5.2, roms).
#[derive(Debug, Default)]
pub struct TraceCollector {
    objects: ObjectTracker,
    table: Vec<TraceObject>,
    symbols: Vec<u32>,
    /// The object of the current macro-access.
    last_object: Option<u64>,
    max_len: usize,
}

impl TraceCollector {
    /// Create a collector with a default 4M-symbol cap.
    pub fn new() -> Self {
        Self::with_capacity(4_000_000)
    }

    /// Create a collector that stops recording symbols past `max_len`, or
    /// at the first access to an object whose id is not below
    /// [`TRACE_SYMBOL_LIMIT`] (object accounting continues either way).
    pub fn with_capacity(max_len: usize) -> Self {
        TraceCollector {
            objects: ObjectTracker::new(),
            table: Vec::new(),
            symbols: Vec::new(),
            last_object: None,
            max_len,
        }
    }

    /// Finish and return the trace.
    pub fn finish(self) -> HeapTrace {
        HeapTrace { symbols: self.symbols, objects: self.table }
    }
}

impl Monitor for TraceCollector {
    fn on_alloc(&mut self, kind: AllocKind, site: CallSite, size: u64, ptr: u64, old_ptr: u64) {
        if kind == AllocKind::Realloc && old_ptr != 0 {
            self.objects.remove(old_ptr);
        }
        let id = self.table.len() as u64;
        self.table.push(TraceObject { site, size, accesses: 0 });
        self.objects.insert(id, ptr, size, NodeId(0));
    }

    fn on_free(&mut self, _site: CallSite, ptr: u64) {
        self.objects.remove(ptr);
    }

    fn on_access(&mut self, addr: u64, _width: u8, _store: bool) {
        let Some(obj) = self.objects.find(addr) else { return };
        if self.last_object == Some(obj.id) {
            return; // same macro-access
        }
        self.last_object = Some(obj.id);
        self.table[obj.id as usize].accesses += 1;
        if self.symbols.len() < self.max_len {
            match trace_symbol(obj.id) {
                Some(sym) => self.symbols.push(sym),
                // The trace ends here, as at the length cap: skipping the
                // symbol would splice its neighbours into a false digram.
                None => self.max_len = self.symbols.len(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_vm::{Engine, MallocOnlyAllocator, ProgramBuilder, Reg, Width};

    fn r(n: u8) -> Reg {
        Reg(n)
    }

    fn collect(p: &halo_vm::Program) -> HeapTrace {
        let mut tc = TraceCollector::new();
        let mut alloc = MallocOnlyAllocator::new();
        Engine::new(p).run(&mut alloc, &mut tc).expect("program runs");
        tc.finish()
    }

    #[test]
    fn trace_records_access_order_with_dedup() {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.function("main");
        m.imm(r(0), 16);
        m.malloc(r(0), r(1)); // obj 0
        m.malloc(r(0), r(2)); // obj 1

        // Pattern: 0 0 1 0 → dedup → 0 1 0.
        m.store(r(0), r(1), 0, Width::W8);
        m.store(r(0), r(1), 8, Width::W8);
        m.store(r(0), r(2), 0, Width::W8);
        m.store(r(0), r(1), 0, Width::W8);
        m.ret(None);
        let main = m.finish();
        let p = pb.finish(main);
        let trace = collect(&p);
        assert_eq!(trace.symbols, vec![0, 1, 0]);
        assert_eq!(trace.objects[0].accesses, 2);
        assert_eq!(trace.objects[1].accesses, 1);
        assert_eq!(trace.total_accesses(), 3);
    }

    #[test]
    fn immediate_sites_distinguish_objects_by_raw_location() {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.function("main");
        m.imm(r(0), 16);
        let s1 = m.malloc(r(0), r(1));
        let s2 = m.malloc(r(0), r(2));
        m.ret(None);
        let main = m.finish();
        let p = pb.finish(main);
        let trace = collect(&p);
        assert_eq!(trace.objects[0].site, s1);
        assert_eq!(trace.objects[1].site, s2);
        assert_ne!(s1, s2);
    }

    #[test]
    fn large_objects_are_traced_too() {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.function("main");
        m.imm(r(0), 1_000_000);
        m.malloc(r(0), r(1));
        m.store(r(0), r(1), 0, Width::W8);
        m.store(r(0), r(1), 500_000, Width::W8);
        m.ret(None);
        let main = m.finish();
        let p = pb.finish(main);
        let trace = collect(&p);
        // Both stores hit the same object: one symbol after dedup.
        assert_eq!(trace.symbols, vec![0]);
        assert_eq!(trace.objects[0].size, 1_000_000);
    }

    #[test]
    fn capacity_caps_symbols_not_accounting() {
        let mut tc = TraceCollector::with_capacity(2);
        let site = CallSite::new(halo_vm::FuncId(0), 0);
        tc.on_alloc(AllocKind::Malloc, site, 8, 0x1000, 0);
        tc.on_alloc(AllocKind::Malloc, site, 8, 0x2000, 0);
        for _ in 0..3 {
            tc.on_access(0x1000, 8, false);
            tc.on_access(0x2000, 8, false);
        }
        let trace = tc.finish();
        assert_eq!(trace.symbols.len(), 2);
        assert_eq!(trace.total_accesses(), 6);
    }

    #[test]
    fn symbols_stop_below_the_rule_tag_bit() {
        let limit = TRACE_SYMBOL_LIMIT;
        assert_eq!(trace_symbol(0), Some(0));
        assert_eq!(trace_symbol(limit - 1), Some((1 << 31) - 1));
        assert_eq!(trace_symbol(limit), None, "2^31 would read as a rule reference");
        assert_eq!(trace_symbol(u64::from(u32::MAX)), None);
        assert_eq!(trace_symbol(1 << 32), None, "`as u32` would alias object 0");
        assert_eq!(trace_symbol(u64::MAX), None);
    }
}
