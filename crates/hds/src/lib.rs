//! The hot-data-streams co-allocation technique (Chilimbi & Shaham,
//! PLDI'06) — the state-of-the-art comparison point of the paper's
//! evaluation (§5.1 "Comparison Technique").
//!
//! Pipeline, replicated as the HALO authors describe their replication:
//!
//! 1. collect an object-granularity data-reference trace
//!    ([`halo_profile::TraceCollector`]);
//! 2. compress it with **SEQUITUR** ([`Grammar`]);
//! 3. extract **minimal hot data streams** of 2–20 elements covering 90% of
//!    accesses ([`extract_streams`]);
//! 4. turn each stream into a **co-allocation set** with a projected
//!    miss-reduction benefit, and select a disjoint family by greedy
//!    **weighted set packing** ([`coallocation_sets`], [`pack_sets`]);
//! 5. identify groups at runtime by the **immediate call site** of the
//!    allocation ([`analyze`] produces the site map consumed by
//!    [`halo_mem::HaloGroupAllocator::with_site_groups`]).
//!
//! The deliberate weaknesses the paper demonstrates — wrapper functions
//! collapsing every context onto one call site (povray, leela), and
//! object-granularity traces scattering context-level regularities across
//! hundreds of thousands of streams (roms) — emerge from this
//! implementation naturally; see the `fig13`/`fig14` benches.

mod packing;
mod sequitur;
mod streams;

pub use packing::{coallocation_sets, pack_sets, CoallocationSet};
pub use sequitur::{Grammar, Sequitur, Sym};
pub use streams::{extract_streams, Stream, StreamAnalysis, StreamConfig};

use halo_profile::HeapTrace;
use halo_vm::CallSite;
use std::collections::HashMap;

/// End-to-end configuration of the comparison technique. Every set the
/// packing chooses becomes a group: the technique has no group cap.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HdsConfig {
    /// Stream extraction parameters (§5.1 defaults).
    pub stream: StreamConfig,
}

/// Statistics from an analysis, for the evaluation discussion (§5.2).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HdsStats {
    /// Grammar rules considered as stream candidates.
    pub candidates: usize,
    /// Hot streams selected to reach the coverage target — the quantity
    /// that explodes to "over 150,000 streams" on roms.
    pub hot_streams: usize,
    /// Co-allocation sets surviving the benefit model.
    pub beneficial_sets: usize,
    /// Sets chosen by packing (= groups before site merging).
    pub packed_sets: usize,
    /// Trace coverage achieved by the hot streams.
    pub coverage: f64,
}

/// The analysis output: allocation-site groups plus statistics.
#[derive(Debug, Clone, Default)]
pub struct HdsResult {
    /// Immediate allocation call site → group, for the runtime allocator.
    /// Group ids are dense from 0: every group claims at least one site.
    pub site_map: HashMap<CallSite, usize>,
    /// Analysis statistics.
    pub stats: HdsStats,
}

/// Run the full hot-data-streams analysis over a collected trace.
pub fn analyze(trace: &HeapTrace, config: &HdsConfig) -> HdsResult {
    let analysis = extract_streams(&trace.symbols, &config.stream);
    let sets = coallocation_sets(&analysis.streams, trace);
    let chosen = pack_sets(&sets);

    let mut site_map: HashMap<CallSite, usize> = HashMap::new();
    let mut groups = 0;
    for &set_idx in &chosen {
        let mut claimed = false;
        for &obj in &sets[set_idx].objects {
            let site = trace.objects[obj as usize].site;
            // A call site can only feed one pool; first (highest-benefit)
            // group claims it.
            if let std::collections::hash_map::Entry::Vacant(e) = site_map.entry(site) {
                e.insert(groups);
                claimed = true;
            }
        }
        // A set whose sites were all claimed by hotter groups cannot be
        // identified at runtime and is dropped.
        groups += usize::from(claimed);
    }

    HdsResult {
        site_map,
        stats: HdsStats {
            candidates: analysis.candidates,
            hot_streams: analysis.streams.len(),
            beneficial_sets: sets.len(),
            packed_sets: chosen.len(),
            coverage: analysis.achieved_coverage,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_profile::TraceObject;
    use halo_vm::FuncId;

    fn site(f: u32, pc: u32) -> CallSite {
        CallSite::new(FuncId(f), pc)
    }

    /// Per group, the sites `site_map` assigns it, in site order.
    fn groups(result: &HdsResult) -> Vec<Vec<CallSite>> {
        let n = result.site_map.values().max().map_or(0, |&g| g + 1);
        let mut groups = vec![Vec::new(); n];
        for (&s, &g) in &result.site_map {
            groups[g].push(s);
        }
        for sites in &mut groups {
            sites.sort();
        }
        groups
    }

    /// Objects 2k from site A, 2k+1 from site B, accessed pairwise:
    /// the classic co-allocation opportunity at distinct call sites.
    fn pairwise_trace(pairs: u32, reps: usize) -> HeapTrace {
        let mut objects = Vec::new();
        for _ in 0..pairs {
            objects.push(TraceObject { site: site(0, 1), size: 16, accesses: reps as u64 });
            objects.push(TraceObject { site: site(0, 2), size: 16, accesses: reps as u64 });
        }
        let mut symbols = Vec::new();
        for _ in 0..reps {
            for k in 0..pairs {
                symbols.push(2 * k);
                symbols.push(2 * k + 1);
            }
        }
        HeapTrace { symbols, objects }
    }

    #[test]
    fn distinct_sites_form_a_group() {
        let trace = pairwise_trace(4, 32);
        let result = analyze(&trace, &HdsConfig::default());
        let groups = groups(&result);
        assert!(!groups.is_empty());
        let all_sites: Vec<CallSite> = groups.iter().flatten().copied().collect();
        assert!(all_sites.contains(&site(0, 1)));
        assert!(all_sites.contains(&site(0, 2)));
        assert!(result.stats.coverage > 0.5);
    }

    #[test]
    fn wrapper_collapses_identification() {
        // Everything allocated through one wrapper-internal site: whatever
        // the streams say, at most one site-group can exist — the §3
        // povray failure.
        let wrapper = site(9, 0);
        let mut trace = pairwise_trace(4, 32);
        for o in &mut trace.objects {
            o.site = wrapper;
        }
        let result = analyze(&trace, &HdsConfig::default());
        let distinct_sites: std::collections::HashSet<_> =
            result.site_map.keys().copied().collect();
        assert!(distinct_sites.len() <= 1);
    }

    #[test]
    fn independent_hot_pairs_form_separate_groups() {
        // Six pairs, each from its own two sites, each hot in its own phase:
        // six disjoint hot streams, six sets, six groups. (Interleaved, the
        // pairs form one stream over all twelve objects and one group.)
        let mut objects = Vec::new();
        let mut symbols = Vec::new();
        for g in 0..6u32 {
            objects.push(TraceObject { site: site(g, 0), size: 16, accesses: 64 });
            objects.push(TraceObject { site: site(g, 1), size: 16, accesses: 64 });
        }
        for g in 0..6u32 {
            for _ in 0..64 {
                symbols.push(2 * g);
                symbols.push(2 * g + 1);
            }
        }
        let trace = HeapTrace { symbols, objects };
        let result = analyze(&trace, &HdsConfig::default());
        let groups = groups(&result);
        assert_eq!(groups.len(), 6, "{groups:?}");
        for sites in &groups {
            assert_eq!(sites.len(), 2, "one pair per group");
        }
    }

    #[test]
    fn empty_trace_analyzes_to_nothing() {
        let trace = HeapTrace::default();
        let result = analyze(&trace, &HdsConfig::default());
        assert!(result.site_map.is_empty());
        assert_eq!(result.stats.hot_streams, 0);
    }

    #[test]
    fn site_map_is_consistent_with_groups() {
        let trace = pairwise_trace(8, 16);
        let result = analyze(&trace, &HdsConfig::default());
        let groups = groups(&result);
        assert!(!groups.is_empty());
        assert!(groups.iter().all(|sites| !sites.is_empty()), "group ids are dense: {groups:?}");
    }
}
