//! Deterministic fault injection and the degradation counters it drives.
//!
//! The ROADMAP's production framing (a long-running host process serving
//! live traffic) demands that the allocator's failure mode be "lose the
//! optimisation", never "lose the process": HALO's own safety story is
//! that an ungrouped fallback path always exists (§4.4 forwards
//! non-groupable requests wholesale). This module supplies the machinery
//! to *prove* that property:
//!
//! * [`FaultPlan`] — a seeded, declarative schedule of faults. Whether a
//!   fault fires is a pure function of `(seed, site, count)`, so any run
//!   is replayable bit for bit from its seed (`halo run --inject
//!   seed=N,…`).
//! * [`FaultInjector`] — the thread-safe runtime form: per-site atomic
//!   occurrence counters evaluated against the plan. Allocators carry an
//!   `Option<Arc<FaultInjector>>`; `None` costs one branch on the hot
//!   path and guarantees byte-identical behaviour to a build without this
//!   module.
//! * [`DegradeStats`] — counters for every rung of the degradation ladder
//!   (fallback routes, queue overflows, poisoned-lock recoveries,
//!   degraded groups/shards), surfaced end to end through
//!   `ShardedAllocStats`/`ConfigResult` into `halo run --json`.
//!
//! The injectable sites mirror the real resource edges of the runtime:
//! VMM span exhaustion, chunk acquisition, remote-free queue capacity,
//! and a thread panicking while holding a shard lock.

use halo_vm::mix64;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

/// A place in the allocator stack where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// `Vmm::reserve` for a group slab fails as if the span were
    /// exhausted ([`crate::ReserveError::SpanExhausted`]).
    VmmReserve,
    /// Chunk acquisition (fresh carve or pool reuse) fails at the Nth
    /// request, as if the chunk map could not grow.
    ChunkAlloc,
    /// A remote-free queue push is treated as hitting the queue bound,
    /// forcing the overflow path (a direct owner-lock free).
    RemoteQueue,
    /// The calling thread panics while holding its shard's allocator
    /// lock, poisoning it for every other thread.
    ShardPanic,
}

impl FaultSite {
    /// Every injectable site, in counter order.
    pub const ALL: [FaultSite; 4] = [
        FaultSite::VmmReserve,
        FaultSite::ChunkAlloc,
        FaultSite::RemoteQueue,
        FaultSite::ShardPanic,
    ];

    /// Stable short name (the `--inject` spelling).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::VmmReserve => "vmm",
            FaultSite::ChunkAlloc => "chunk",
            FaultSite::RemoteQueue => "queue",
            FaultSite::ShardPanic => "panic",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::VmmReserve => 0,
            FaultSite::ChunkAlloc => 1,
            FaultSite::RemoteQueue => 2,
            FaultSite::ShardPanic => 3,
        }
    }

    /// Per-site salt, so the same occurrence count at different sites
    /// draws independent pseudo-random decisions.
    fn salt(self) -> u64 {
        0x9e37_79b9_7f4a_7c15u64.wrapping_mul(self.index() as u64 + 1)
    }
}

impl FromStr for FaultSite {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        FaultSite::ALL
            .into_iter()
            .find(|site| site.name() == s)
            .ok_or_else(|| format!("unknown fault site '{s}' (vmm|chunk|queue|panic)"))
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A declarative, seeded fault schedule.
///
/// Two kinds of entry compose:
/// * **exact** (`site@n`): the fault fires at exactly the `n`th occurrence
///   of the site (1-based), and at no other;
/// * **rate** (`site~p`): each occurrence fires independently with
///   probability `p`, decided by hashing `(seed, site, count)` — the same
///   seed always yields the same schedule, regardless of threading.
///
/// An empty plan (no entries) never fires and is the `Default`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The seed all rate-based decisions hash against.
    pub seed: u64,
    exact: Vec<(FaultSite, u64)>,
    rates: Vec<(FaultSite, f64)>,
}

impl FaultPlan {
    /// An empty plan with the given seed (fires nothing until entries are
    /// added with [`Self::at`] / [`Self::rate`]).
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, exact: Vec::new(), rates: Vec::new() }
    }

    /// Fire at exactly the `nth` occurrence (1-based) of `site`.
    #[must_use]
    pub fn at(mut self, site: FaultSite, nth: u64) -> Self {
        self.exact.push((site, nth));
        self
    }

    /// Fire each occurrence of `site` independently with probability
    /// `rate` (clamped to `[0, 1]`), seeded by [`Self::seed`].
    #[must_use]
    pub fn rate(mut self, site: FaultSite, rate: f64) -> Self {
        self.rates.push((site, rate.clamp(0.0, 1.0)));
        self
    }

    /// Whether the plan can ever fire.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty() && self.rates.iter().all(|&(_, r)| r <= 0.0)
    }

    /// The pure decision function: does occurrence `count` (1-based) of
    /// `site` fault under this plan?
    pub fn decides(&self, site: FaultSite, count: u64) -> bool {
        if self.exact.iter().any(|&(s, n)| s == site && n == count) {
            return true;
        }
        self.rates.iter().any(|&(s, r)| {
            // Map the hash to [0, 1) with 53 bits of precision.
            s == site
                && r > 0.0
                && (mix64(self.seed ^ site.salt() ^ count) >> 11) as f64 / ((1u64 << 53) as f64) < r
        })
    }

    /// Parse the `--inject` spec: comma-separated `seed=N`, `site@N`
    /// (exact occurrence), and `site~RATE` (per-occurrence probability)
    /// entries, e.g. `seed=7,vmm@3,queue~0.01`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed entries, unknown
    /// sites, or unparsable numbers.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if let Some(v) = part.strip_prefix("seed=") {
                plan.seed =
                    v.parse().map_err(|_| format!("invalid fault seed '{v}' (an integer)"))?;
            } else if let Some((site, nth)) = part.split_once('@') {
                let site: FaultSite = site.parse()?;
                let nth: u64 = nth
                    .parse()
                    .map_err(|_| format!("invalid occurrence '{nth}' in '{part}' (an integer)"))?;
                if nth == 0 {
                    return Err(format!("occurrence in '{part}' is 1-based; use {site}@1"));
                }
                plan = plan.at(site, nth);
            } else if let Some((site, rate)) = part.split_once('~') {
                let site: FaultSite = site.parse()?;
                let rate: f64 = rate
                    .parse()
                    .map_err(|_| format!("invalid rate '{rate}' in '{part}' (a fraction)"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("rate in '{part}' must be within [0, 1]"));
                }
                plan = plan.rate(site, rate);
            } else {
                return Err(format!(
                    "malformed fault entry '{part}' (expected seed=N, site@N, or site~RATE)"
                ));
            }
        }
        Ok(plan)
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for (site, nth) in &self.exact {
            write!(f, ",{site}@{nth}")?;
        }
        for (site, rate) in &self.rates {
            write!(f, ",{site}~{rate}")?;
        }
        Ok(())
    }
}

/// The thread-safe runtime form of a [`FaultPlan`]: per-site occurrence
/// counters (atomics) evaluated against the plan's pure decision
/// function. Shared by `Arc` between an allocator and its shards so one
/// schedule spans the whole runtime.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    counts: [AtomicU64; 4],
    fired: [AtomicU64; 4],
}

impl FaultInjector {
    /// An injector replaying `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan, counts: Default::default(), fired: Default::default() }
    }

    /// The plan this injector replays.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Record one occurrence of `site` and decide whether it faults.
    /// Thread-safe; each call consumes the next occurrence number.
    pub fn should_fail(&self, site: FaultSite) -> bool {
        if self.plan.is_empty() {
            return false;
        }
        let n = self.counts[site.index()].fetch_add(1, Ordering::Relaxed) + 1;
        let hit = self.plan.decides(site, n);
        if hit {
            self.fired[site.index()].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Faults fired at `site` so far.
    pub fn fired_at(&self, site: FaultSite) -> u64 {
        self.fired[site.index()].load(Ordering::Relaxed)
    }

    /// Faults fired across all sites.
    pub fn fired(&self) -> u64 {
        FaultSite::ALL.into_iter().map(|s| self.fired_at(s)).sum()
    }
}

/// Counters for the degradation ladder: every absorbed fault increments
/// exactly one of these, so "no crash" is observable rather than assumed.
/// Summed across shards and surfaced through `ShardedAllocStats` /
/// `ConfigResult` into the `degradation` section of `halo run --json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradeStats {
    /// Requests routed to the fallback allocator because their group (or
    /// whole shard) was degraded or chunk acquisition failed.
    pub fallback_routes: u64,
    /// Groups currently marked degraded (new requests bypass their
    /// chunks; live pointers keep working).
    pub degraded_groups: u64,
    /// Shards quarantined after a poisoned lock failed invariant
    /// re-validation (every group in the shard degraded).
    pub degraded_shards: u64,
    /// Remote-free queue pushes that hit the queue bound and fell back to
    /// a direct owner-lock free (backpressure, not unbounded growth).
    pub queue_overflows: u64,
    /// Poisoned locks recovered via `PoisonError::into_inner` after
    /// re-validation.
    pub poisoned_recovered: u64,
    /// Frees of pointers owned by no shard/region, absorbed as counted
    /// no-ops instead of panicking.
    pub invalid_frees: u64,
    /// Faults the injector actually fired (0 outside chaos runs).
    pub injected_faults: u64,
}

impl DegradeStats {
    /// Whether any counter is nonzero (gates the CLI's `degradation`
    /// output so fault-free runs stay byte-identical).
    pub fn any(&self) -> bool {
        *self != DegradeStats::default()
    }

    /// Field-wise sum. Fully destructured: a field added to
    /// [`DegradeStats`] must be accounted for here or this stops
    /// compiling (the same guard as `GroupAllocStats::merge`).
    pub fn merge(&mut self, other: DegradeStats) {
        let DegradeStats {
            fallback_routes,
            degraded_groups,
            degraded_shards,
            queue_overflows,
            poisoned_recovered,
            invalid_frees,
            injected_faults,
        } = other;
        self.fallback_routes += fallback_routes;
        self.degraded_groups += degraded_groups;
        self.degraded_shards += degraded_shards;
        self.queue_overflows += queue_overflows;
        self.poisoned_recovered += poisoned_recovered;
        self.invalid_frees += invalid_frees;
        self.injected_faults += injected_faults;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    impl FaultInjector {
        /// Occurrences recorded at `site` so far.
        fn occurrences(&self, site: FaultSite) -> u64 {
            self.counts[site.index()].load(Ordering::Relaxed)
        }
    }

    #[test]
    fn empty_plan_never_fires() {
        let inj = FaultInjector::new(FaultPlan::default());
        for _ in 0..1000 {
            assert!(!inj.should_fail(FaultSite::VmmReserve));
        }
        assert_eq!(inj.fired(), 0);
        assert_eq!(inj.occurrences(FaultSite::VmmReserve), 0, "empty plans skip counting");
    }

    #[test]
    fn exact_entry_fires_at_its_occurrence_only() {
        let inj = FaultInjector::new(FaultPlan::new(1).at(FaultSite::ChunkAlloc, 3));
        let fired: Vec<bool> = (0..6).map(|_| inj.should_fail(FaultSite::ChunkAlloc)).collect();
        assert_eq!(fired, [false, false, true, false, false, false]);
        assert_eq!(inj.fired_at(FaultSite::ChunkAlloc), 1);
        // Other sites are untouched.
        assert!(!inj.should_fail(FaultSite::VmmReserve));
    }

    #[test]
    fn rate_decisions_are_a_pure_function_of_seed_site_count() {
        let plan = FaultPlan::new(42).rate(FaultSite::RemoteQueue, 0.25);
        let a: Vec<bool> = (1..=500).map(|n| plan.decides(FaultSite::RemoteQueue, n)).collect();
        let b: Vec<bool> = (1..=500).map(|n| plan.decides(FaultSite::RemoteQueue, n)).collect();
        assert_eq!(a, b, "replayable");
        let hits = a.iter().filter(|&&h| h).count();
        assert!((50..=200).contains(&hits), "rate 0.25 over 500 draws fired {hits} times");
        // A different seed draws a different schedule.
        let other = FaultPlan::new(43).rate(FaultSite::RemoteQueue, 0.25);
        let c: Vec<bool> = (1..=500).map(|n| other.decides(FaultSite::RemoteQueue, n)).collect();
        assert_ne!(a, c);
        // A different site draws independently under the same seed.
        let d: Vec<bool> = (1..=500).map(|n| plan.decides(FaultSite::ShardPanic, n)).collect();
        assert!(d.iter().all(|&h| !h), "no rate configured for that site");
    }

    #[test]
    fn injector_counts_are_thread_safe() {
        let inj = Arc::new(FaultInjector::new(FaultPlan::new(7).rate(FaultSite::VmmReserve, 0.5)));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let inj = Arc::clone(&inj);
                s.spawn(move || {
                    for _ in 0..250 {
                        inj.should_fail(FaultSite::VmmReserve);
                    }
                });
            }
        });
        assert_eq!(inj.occurrences(FaultSite::VmmReserve), 1000);
        assert!(inj.fired_at(FaultSite::VmmReserve) > 0);
    }

    #[test]
    fn parse_round_trips_and_rejects_malformed_specs() {
        let plan = FaultPlan::parse("seed=9,vmm@3,chunk@1,queue~0.125,panic@2").expect("parses");
        assert_eq!(plan.seed, 9);
        assert!(plan.decides(FaultSite::VmmReserve, 3));
        assert!(!plan.decides(FaultSite::VmmReserve, 2));
        assert!(plan.decides(FaultSite::ChunkAlloc, 1));
        assert!(plan.decides(FaultSite::ShardPanic, 2));
        let reparsed = FaultPlan::parse(&plan.to_string()).expect("display round-trips");
        assert_eq!(plan, reparsed);
        for bad in ["seed=x", "warp@1", "vmm@0", "vmm@z", "queue~2", "queue~x", "vmm"] {
            assert!(FaultPlan::parse(bad).is_err(), "'{bad}' must be rejected");
        }
        assert!(FaultPlan::parse("").expect("empty spec is the empty plan").is_empty());
    }

    #[test]
    fn rate_schedule_is_pinned() {
        // The first 64 decisions of `seed=7,queue~0.25` and
        // `seed=7,vmm~0.25`, bit n−1 = occurrence n. Recorded before the
        // mixer moved to `halo_vm::mix64`: a recorded `--inject` spec must
        // keep replaying the run it was recorded against.
        let bits = |site| {
            let plan = FaultPlan::new(7).rate(site, 0.25);
            (1..=64).fold(0u64, |acc, n| acc | u64::from(plan.decides(site, n)) << (n - 1))
        };
        assert_eq!(bits(FaultSite::RemoteQueue), 0x2484_8c40_0010_0094);
        assert_eq!(bits(FaultSite::VmmReserve), 0x8e41_1108_040c_2000);
    }
}
