//! In-memory span recorder for the traced run (choosing-metrics §4).
//!
//! The benchmark may not touch the program, so spans are recorded here,
//! around each call into a layer's public entry points. Spans live in a
//! `Vec` until the run ends and are then written as one JSON file; nothing
//! is formatted or flushed inside a timed region.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. `parent` is the enclosing span (the one that
/// caused it); spans of one operation share `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u32,
    pub name: String,
    /// The crate the time belongs to (`vm`, `cache`, … `core`), or
    /// `bench` for the benchmark's own untimed work (generation, clones).
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span, in `unit`s (0 when not counted).
    pub count: u64,
    pub unit: &'static str,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new operation: spans begun from now on carry the next
    /// operation id.
    pub fn next_op(&mut self) -> u32 {
        self.op += 1;
        self.op
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: impl Into<String>, layer: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let span = Span {
            id,
            parent: self.open.last().copied(),
            op: self.op,
            name: name.into(),
            layer,
            start_ns: 0,
            end_ns: 0,
            count: 0,
            unit: "",
        };
        self.spans.push(span);
        self.open.push(id);
        // Read the clock last so bookkeeping stays outside the interval.
        self.spans[id as usize].start_ns = self.now_ns();
        id
    }

    /// Close span `id`; returns its duration in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics unless `id` is the innermost open span (spans nest).
    pub fn end(&mut self, id: u32) -> u64 {
        self.end_counted(id, 0, "")
    }

    /// Close span `id`, recording `count` units of work done inside it.
    pub fn end_counted(&mut self, id: u32, count: u64, unit: &'static str) -> u64 {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost-first");
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.count = count;
        span.unit = unit;
        span.duration_ns()
    }

    /// Time `f` under a span and return its result with the duration.
    pub fn time<R>(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.begin(name, layer);
        let r = f();
        let ns = self.end(id);
        (r, ns)
    }

    /// Insert a span that was not timed directly but derived: it starts
    /// where `parent` starts and lasts `duration_ns` (clipped to the
    /// parent). Used for the part of an opaque call that the stage probes
    /// do not explain, so the self-time rule still partitions the parent.
    pub fn derived(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        parent: u32,
        duration_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let p = &self.spans[parent as usize];
        let span = Span {
            id,
            parent: Some(parent),
            op: p.op,
            name: name.into(),
            layer,
            start_ns: p.start_ns,
            end_ns: p.start_ns + duration_ns.min(p.duration_ns()),
            count: 0,
            unit: "derived",
        };
        self.spans.push(span);
        id
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: every span plus each layer's self time.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj()
                    .set("id", u64::from(s.id))
                    .set("parent", s.parent.map_or(Json::Null, |p| Json::from(u64::from(p))))
                    .set("op", u64::from(s.op))
                    .set("name", s.name.as_str())
                    .set("layer", s.layer)
                    .set("start_ns", s.start_ns)
                    .set("end_ns", s.end_ns)
                    .set("count", s.count)
                    .set("unit", s.unit)
            })
            .collect::<Vec<_>>();
        let mut layers = Json::obj();
        for (layer, ns) in layer_self_ns(&self.spans) {
            layers = layers.set(layer, ns as f64 / 1e6);
        }
        Json::obj().set("layer_self_ms", layers).set("spans", spans)
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_ns(spans)) {
        *totals.entry(s.layer).or_insert(0) += ns;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: format!("s{id}"),
            layer,
            start_ns: start,
            end_ns: end,
            count: 0,
            unit: "",
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(0, None, "core", 0, 100),
            span(1, Some(0), "vm", 10, 40),    // sibling a
            span(2, Some(0), "cache", 50, 90), // sibling b
            span(3, Some(2), "mem", 60, 70),   // nested in b
        ];
        assert_eq!(self_ns(&spans), vec![30, 30, 30, 10]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["core"], 30);
        assert_eq!(layers["mem"], 10);
        assert_eq!(layers.values().sum::<u64>(), 100, "self times partition the root");
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        let spans = vec![
            span(0, None, "core", 100, 200),
            span(1, Some(0), "vm", 110, 160),
            span(2, Some(0), "vm", 150, 180),    // overlaps span 1
            span(3, Some(0), "cache", 190, 260), // runs past the parent
        ];
        // Covered: [110,180) ∪ [190,200) = 80.
        assert_eq!(self_ns(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_and_serialises() {
        let mut t = Tracer::new();
        t.next_op();
        let outer = t.begin("core.evaluate", "core");
        let ((), inner_ns) = t.time("vm.run", "vm", || std::hint::black_box(()));
        let inner = t.begin("cache.replay", "cache");
        t.end_counted(inner, 42, "access");
        let outer_ns = t.end(outer);
        assert!(outer_ns >= inner_ns);
        assert_eq!(t.spans()[1].parent, Some(outer));
        assert_eq!(t.spans()[2].count, 42);
        let doc = t.to_json();
        assert_eq!(doc.get("spans").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        assert!(doc.get("layer_self_ms").and_then(|l| l.get("core")).is_some());
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::new();
        let a = t.begin("a", "core");
        let _b = t.begin("b", "core");
        t.end(a);
    }
}
