//! Golden pins for the interpreter: one fingerprint per paper workload
//! over the *full ordered* monitor stream of its train input.
//!
//! Every `Engine` execution — profile, HDS trace, policy validation and
//! the three ref-input measurements — goes through one dispatch loop and
//! one simulated memory, so a change to either must leave what monitors
//! observe untouched: the same events, in the same order, with the same
//! batch boundaries, the same `ExitStats`, and the same resident-page
//! count. The constants below were recorded on the commit *before* the
//! page-table / frame-cached-dispatch rewrite (DESIGN.md §16) and are
//! asserted after it.
//!
//! A mismatch prints the full table in source form; paste it over
//! `GOLDEN` only when the event stream is *meant* to change.

use halo::mem::SizeClassAllocator;
use halo::vm::{
    AccessBatch, AllocKind, CallSite, Engine, EngineLimits, ExitStats, FuncId, Monitor,
};

/// FNV-1a over 64-bit words, fed byte-wise.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn site(&mut self, site: CallSite) {
        self.word(u64::from(site.func.0));
        self.word(u64::from(site.pc));
    }
}

/// Hashes every monitor event, tagged by kind, in arrival order. Batches
/// contribute their length too, so a moved flush point changes the hash
/// even when the accesses themselves are the same.
struct StreamHasher(Fnv);

impl Monitor for StreamHasher {
    fn on_call(&mut self, site: CallSite, callee: FuncId) {
        self.0.word(1);
        self.0.site(site);
        self.0.word(u64::from(callee.0));
    }

    fn on_return(&mut self, callee: FuncId) {
        self.0.word(2);
        self.0.word(u64::from(callee.0));
    }

    fn on_alloc(&mut self, kind: AllocKind, site: CallSite, size: u64, ptr: u64, old_ptr: u64) {
        self.0.word(3);
        self.0.word(match kind {
            AllocKind::Malloc => 0,
            AllocKind::Calloc => 1,
            AllocKind::Realloc => 2,
        });
        self.0.site(site);
        self.0.word(size);
        self.0.word(ptr);
        self.0.word(old_ptr);
    }

    fn on_free(&mut self, site: CallSite, ptr: u64) {
        self.0.word(4);
        self.0.site(site);
        self.0.word(ptr);
    }

    fn on_access_batch(&mut self, batch: &AccessBatch) {
        self.0.word(5);
        self.0.word(batch.len() as u64);
        for i in 0..batch.len() {
            self.0.word(batch.addrs()[i]);
            self.0.word(u64::from(batch.widths()[i]));
            self.0.word(u64::from(batch.stores()[i]));
        }
    }

    fn on_compute(&mut self, amount: u64) {
        self.0.word(6);
        self.0.word(amount);
    }

    fn on_thread_switch(&mut self, thread: u16) {
        self.0.word(7);
        self.0.word(u64::from(thread));
    }
}

fn fingerprint(w: &halo::workloads::Workload) -> u64 {
    let mut monitor = StreamHasher(Fnv::new());
    let mut engine = Engine::new(&w.program)
        .with_seed(w.train.seed)
        .with_entry_arg(w.train.arg)
        .with_limits(EngineLimits { max_instructions: 2_000_000_000, max_call_depth: 256 });
    let exit: ExitStats = engine
        .run(&mut SizeClassAllocator::new(), &mut monitor)
        .unwrap_or_else(|e| panic!("{}: train run failed: {e}", w.name));
    let mut fp = monitor.0;
    for word in [
        exit.instructions,
        exit.return_value.map_or(u64::MAX, |v| v as u64),
        u64::from(exit.return_value.is_some()),
        exit.max_depth as u64,
        exit.allocs,
        exit.frees,
        exit.loads,
        exit.stores,
        exit.thread_switches,
        engine.memory().resident_pages() as u64,
    ] {
        fp.word(word);
    }
    fp.0
}

/// `(workload, fingerprint)` in the figures' order.
const GOLDEN: [(&str, u64); 11] = [
    ("health", 0x288c43d6b6c1dfe7),
    ("ft", 0xd290eca9edbd494b),
    ("analyzer", 0x4da256f07e30d3e8),
    ("ammp", 0x4fa67ff8e5d5c04e),
    ("art", 0x62cdf6db9835c814),
    ("equake", 0x2992c38ada9a5e6e),
    ("povray", 0x90d31e2b7bd8305f),
    ("omnetpp", 0x8401705db24887bc),
    ("xalanc", 0x69efa7f533603a8c),
    ("leela", 0x1116e4ebf83801ea),
    ("roms", 0x2fbc69512150cc23),
];

/// `toy` and the multi-threaded models, recorded at the commit before their
/// builders were folded onto shared emitters (DESIGN.md §4).
const GOLDEN_EXTRA: [(&str, u64); 3] = [
    ("toy", 0xb581780557147277),
    ("server", 0x022977a33da442b9),
    ("xalanc-mt", 0xa319942912b1e84e),
];

fn assert_pinned(workloads: Vec<halo::workloads::Workload>, golden: &[(&str, u64)]) {
    let actual: Vec<(&str, u64)> = workloads.iter().map(|w| (w.name, fingerprint(w))).collect();
    if actual != golden {
        let table: String =
            actual.iter().map(|(name, fp)| format!("    (\"{name}\", {fp:#018x}),\n")).collect();
        panic!("engine event streams drifted from the pins; observed:\n{table}");
    }
}

#[test]
fn event_streams_of_the_paper_workloads_match_the_pinned_fingerprints() {
    assert_pinned(halo::workloads::all(), &GOLDEN);
}

#[test]
fn event_streams_of_toy_and_the_multithreaded_models_match_the_pinned_fingerprints() {
    let mut workloads = vec![halo::workloads::toy::build()];
    workloads.extend(halo::workloads::multithreaded());
    assert_pinned(workloads, &GOLDEN_EXTRA);
}
