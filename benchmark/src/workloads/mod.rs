//! The four workloads, plus what more than one of them needs.

pub mod alloc_churn;
pub mod graph_scale;
pub mod serve_shift;
pub mod spec_sweep;

use halo_cache::{AccessStats, CoherenceStats, CoherentHierarchy, HierarchyConfig};
use halo_core::{MeasureConfig, Measurement};
use halo_mem::SizeClassAllocator;
use halo_vm::{AccessBatch, Engine, Monitor, NullMonitor, Program};
use std::time::Instant;

use crate::fingerprint::Fingerprint;
use crate::harness::LayerValues;
use crate::span::Tracer;

/// Accesses per ref run that the cache-replay probes replay.
const REPLAY_CAP: usize = 4_000_000;

/// The two probes that split `measure_detailed`'s opaque time, summed over
/// the programs they ran on: the VM alone (`NullMonitor`, so no cache
/// model) and the cache model alone (recorded accesses replayed).
#[derive(Debug, Default)]
pub struct VmCacheProbe {
    null_ns: u64,
    null_instr: u64,
    null_accesses: u64,
    replay_ns: u64,
    replay_accesses: u64,
}

impl VmCacheProbe {
    /// Probe `program` on the input `measure` describes. `replay_span`
    /// names the cache-replay span (`cache.replay` / `cache.replay_mt`).
    pub fn run(
        &mut self,
        tracer: &mut Tracer,
        program: &Program,
        measure: &MeasureConfig,
        replay_span: &'static str,
    ) {
        let engine = || {
            Engine::new(program)
                .with_seed(measure.seed)
                .with_entry_arg(measure.entry_arg)
                .with_limits(measure.limits)
        };
        let span = tracer.begin("vm.null_run", "vm");
        let exit = engine().run(&mut SizeClassAllocator::new(), &mut NullMonitor);
        let instructions = exit.as_ref().map_or(0, |e| e.instructions);
        self.null_ns += tracer.end_counted(span, instructions, "instr");
        self.null_instr += instructions;
        self.null_accesses += exit.as_ref().map_or(0, |e| e.loads + e.stores);

        let record = tracer.begin("bench.record_accesses", "bench");
        let mut recorder = AccessRecorder::new(REPLAY_CAP);
        let _ = engine().run(&mut SizeClassAllocator::new(), &mut recorder);
        tracer.end(record);
        let span = tracer.begin(replay_span, "cache");
        let (_, _, ns) = recorder.replay(measure.hierarchy);
        tracer.end_counted(span, recorder.len() as u64, "access");
        self.replay_ns += ns;
        self.replay_accesses += recorder.len() as u64;
    }

    /// Emit the `vm.*` rows and the replay row called `replay_metric`.
    pub fn report(&self, values: &mut LayerValues, replay_metric: &str) {
        let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
        values.set("vm.null_run_ns_per_instr", per(self.null_ns, self.null_instr));
        values.set("vm.instructions", self.null_instr as f64);
        values.set("vm.accesses", self.null_accesses as f64);
        values.set(replay_metric, per(self.replay_ns, self.replay_accesses));
    }
}

/// Run `f`, turning a panic into an `Err` line: a panicking operation is
/// a failed operation, not a dead benchmark.
pub fn guarded<R>(what: &str, f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            Err(format!("{what} panicked: {msg}"))
        }
    }
}

/// Feed every simulated counter of one measurement into `fp`.
pub fn fingerprint_measurement(fp: &mut Fingerprint, m: &Measurement) {
    let s = &m.stats;
    for word in [
        s.l1_hits,
        s.l1_misses,
        s.l2_misses,
        s.l3_misses,
        s.tlb_misses,
        s.loads,
        s.stores,
        m.instructions,
        m.allocs,
        m.frees,
        m.coherence.invalidations,
        m.coherence.upgrades,
        m.coherence.remote_fills,
    ] {
        fp.push(word);
    }
    fp.push_f64(m.cycles);
}

/// A [`Monitor`] that keeps the first `cap` data accesses of a run (and
/// where the logical thread changed), for replay through the cache model
/// alone.
#[derive(Debug)]
pub struct AccessRecorder {
    cap: usize,
    addrs: Vec<u64>,
    widths: Vec<u8>,
    stores: Vec<bool>,
    /// `(index of the first access after the switch, thread)`.
    switches: Vec<(usize, u16)>,
}

impl AccessRecorder {
    pub fn new(cap: usize) -> Self {
        AccessRecorder {
            cap,
            addrs: Vec::new(),
            widths: Vec::new(),
            stores: Vec::new(),
            switches: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Replay the recording through a fresh [`CoherentHierarchy`] in
    /// engine-sized batches; only the cache-model calls are timed.
    pub fn replay(&self, config: HierarchyConfig) -> (AccessStats, CoherenceStats, u64) {
        let mut hierarchy = CoherentHierarchy::new(config);
        let mut bounds = self.switches.iter().copied().peekable();
        let mut ns = 0u64;
        let mut at = 0;
        while at < self.addrs.len() {
            while let Some(&(index, thread)) = bounds.peek() {
                if index > at {
                    break;
                }
                hierarchy.set_thread(thread);
                bounds.next();
            }
            let segment_end = bounds.peek().map_or(self.addrs.len(), |&(index, _)| index);
            let end = (at + AccessBatch::CAPACITY).min(segment_end);
            let start = Instant::now();
            hierarchy.access_batch(
                &self.addrs[at..end],
                &self.widths[at..end],
                &self.stores[at..end],
            );
            ns += start.elapsed().as_nanos() as u64;
            at = end;
        }
        (hierarchy.stats(), hierarchy.coherence(), ns)
    }
}

impl Monitor for AccessRecorder {
    fn on_access(&mut self, addr: u64, width: u8, store: bool) {
        if self.addrs.len() < self.cap {
            self.addrs.push(addr);
            self.widths.push(width);
            self.stores.push(store);
        }
    }

    fn on_access_batch(&mut self, batch: &AccessBatch) {
        let take = batch.len().min(self.cap - self.addrs.len());
        self.addrs.extend_from_slice(&batch.addrs()[..take]);
        self.widths.extend_from_slice(&batch.widths()[..take]);
        self.stores.extend_from_slice(&batch.stores()[..take]);
    }

    fn on_thread_switch(&mut self, thread: u16) {
        if self.addrs.len() < self.cap {
            self.switches.push((self.addrs.len(), thread));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarded_turns_panics_into_failures() {
        assert_eq!(guarded("op", || Ok(3)), Ok(3));
        assert_eq!(guarded::<()>("op", || Err("bad".into())), Err("bad".into()));
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let caught = guarded::<()>("op", || panic!("boom {}", 7));
        std::panic::set_hook(hook);
        assert_eq!(caught, Err("op panicked: boom 7".into()));
    }

    #[test]
    fn recorder_caps_and_replays_with_thread_switches() {
        let mut rec = AccessRecorder::new(600);
        rec.on_thread_switch(1);
        for i in 0..400u64 {
            rec.on_access(0x1000 + i * 8, 8, i % 4 == 0);
        }
        rec.on_thread_switch(2);
        for i in 0..400u64 {
            rec.on_access(0x1000 + i * 8, 8, false);
        }
        assert_eq!(rec.len(), 600, "capped");
        let (stats, coherence, _ns) = rec.replay(HierarchyConfig::xeon_w2195());
        assert_eq!(stats.loads + stats.stores, 600);
        // Thread 2 re-reads lines thread 1 wrote: coherence traffic.
        assert!(coherence.remote_fills > 0, "{coherence:?}");

        // The replay equals feeding a hierarchy directly.
        let mut direct = CoherentHierarchy::new(HierarchyConfig::xeon_w2195());
        direct.set_thread(1);
        for i in 0..400u64 {
            direct.access(0x1000 + i * 8, 8, i % 4 == 0);
        }
        direct.set_thread(2);
        for i in 0..200u64 {
            direct.access(0x1000 + i * 8, 8, false);
        }
        assert_eq!(direct.stats(), stats);
    }
}
