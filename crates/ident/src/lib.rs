//! Group identification (§4.3, Fig. 10): distilling full-context groups
//! down to "a small handful of call sites" monitorable at runtime.
//!
//! For each group, in descending popularity order, the algorithm builds a
//! **selector** in disjunctive normal form: one conjunctive expression per
//! member context, greedily accumulating the member's call sites that most
//! reduce *conflicts* — other (not-yet-ignored) contexts whose chains also
//! satisfy the expression. Sites lower in the stack are preferred on ties.
//! The union of chosen sites becomes the monitored-site set, each assigned
//! a bit in the shared group-state vector; the rewriter instruments exactly
//! those sites and the allocator evaluates the resulting
//! [`halo_mem::SelectorTable`] on every request.
//!
//! # Example
//!
//! ```
//! use halo_graph::{AffinityGraph, GroupingParams, group};
//! use halo_ident::identify;
//!
//! # use halo_vm::{CallSite, FuncId};
//! # use halo_ident::ContextSummary;
//! # let site = |f, pc| CallSite::new(FuncId(f), pc);
//! // Two contexts in one group, one outside it.
//! let contexts = vec![
//!     ContextSummary { chain: vec![site(0, 1), site(1, 0)], accesses: 100 },
//!     ContextSummary { chain: vec![site(0, 2), site(1, 0)], accesses: 90 },
//!     ContextSummary { chain: vec![site(0, 3), site(1, 0)], accesses: 5 },
//! ];
//! let mut g = AffinityGraph::new();
//! let a = g.add_node(100);
//! let b = g.add_node(90);
//! let _c = g.add_node(5);
//! g.add_edge_weight(a, b, 50);
//! let groups = group(&g, &GroupingParams { min_weight: 1, ..Default::default() });
//! let ident = identify(&groups, &contexts);
//! // The shared site fn#1+0 cannot distinguish; the outer sites can.
//! assert_eq!(ident.monitored_sites().count(), 2);
//! ```

use halo_graph::Group;
use halo_mem::{GroupSelector, SelectorTable};
use halo_vm::CallSite;
use std::collections::HashMap;

/// The identification-relevant slice of a profiled context: its call-site
/// chain (outermost first) and how hot it is.
///
/// Usually obtained from [`halo_profile::ContextInfo`] via
/// [`contexts_from_profile`], but constructible directly for tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextSummary {
    /// Call-site chain, outermost first, allocation site last.
    pub chain: Vec<CallSite>,
    /// Access count (popularity).
    pub accesses: u64,
}

/// Convert profiler output into identification input. Context order (and
/// thus [`halo_graph::NodeId`] indexing) is preserved; discarded contexts participate
/// as conflict candidates but are never group members.
pub fn contexts_from_profile(profile: &halo_profile::Profile) -> Vec<ContextSummary> {
    profile
        .contexts
        .iter()
        .map(|c| ContextSummary { chain: c.chain.clone(), accesses: c.accesses })
        .collect()
}

/// A selector in symbolic (call-site) form, for reports and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteSelector {
    /// Index of the group in the *input* group slice.
    pub group: usize,
    /// One conjunction of call sites per group member.
    pub conjunctions: Vec<Vec<CallSite>>,
}

/// The output of identification.
#[derive(Debug, Clone)]
pub struct Identification {
    /// Monitored call sites and their assigned group-state bits.
    pub site_bits: HashMap<CallSite, u16>,
    /// Symbolic selectors in evaluation (popularity) order.
    pub selectors: Vec<SiteSelector>,
    /// The runtime selector table for the specialised allocator.
    pub table: SelectorTable,
}

impl Identification {
    /// The monitored call sites (the rewriter instruments exactly these).
    pub fn monitored_sites(&self) -> impl Iterator<Item = CallSite> + '_ {
        self.site_bits.keys().copied()
    }

    /// An identification with no groups (used when grouping found nothing).
    pub fn empty() -> Self {
        Identification {
            site_bits: HashMap::new(),
            selectors: Vec::new(),
            table: SelectorTable::empty(),
        }
    }
}

/// Hard capacity of the monitored-site set: bit ids and the bit count
/// itself must fit the `u16` the group-state vector and
/// [`SelectorTable`] are indexed by.
pub const MAX_SITE_BITS: usize = u16::MAX as usize;

/// Convert the number of monitored sites into the `u16` bit count,
/// panicking with a clear message past `capacity` instead of silently
/// wrapping — two call sites aliasing one group-state bit would
/// mis-classify allocations without a word. Bit ids are drawn from
/// `0..count`, so this is the only narrowing conversion. `capacity` is a
/// seam for the overflow guard test; real callers pass [`MAX_SITE_BITS`].
fn checked_bit_count(sites: usize, capacity: usize) -> u16 {
    assert!(
        sites <= capacity,
        "identification overflow: {sites} monitored call sites do not fit the u16 group-state \
         bit space (capacity {capacity}); lower max_groups or max_group_members"
    );
    sites as u16
}

/// Dense id of an interned call site.
type SiteId = u32;

/// The inverted index `identify` runs on: call sites interned to dense
/// ids, each context's distinct sites, and each site's posting list of
/// contexts — all in flat offset/value arrays.
struct SiteIndex {
    /// Interned sites, by id.
    sites: Vec<CallSite>,
    /// `ctx_sites[ctx_off[c]..ctx_off[c + 1]]`: the distinct sites of
    /// context `c`, in first-occurrence (outermost-first) order. A
    /// recursive chain repeats sites; only a first occurrence can win the
    /// `(count, stack index)` tie-break, so the duplicates carry nothing.
    ctx_off: Vec<usize>,
    ctx_sites: Vec<SiteId>,
    /// `post[post_off[s]..post_off[s + 1]]`: the contexts whose chain
    /// contains site `s`, ascending.
    post_off: Vec<usize>,
    post: Vec<u32>,
}

impl SiteIndex {
    /// O(Σ chain length).
    fn build(contexts: &[ContextSummary]) -> SiteIndex {
        // Contexts are graph nodes, so their indices fit `NodeId`'s u32;
        // distinct sites number at most one per frame of those chains.
        assert!(contexts.len() <= u32::MAX as usize, "contexts are indexed by u32 node ids");
        let mut ids: HashMap<CallSite, SiteId> = HashMap::new();
        let mut sites: Vec<CallSite> = Vec::new();
        // Stamp of the last context each site was seen in (index + 1), so
        // de-duplicating a chain is O(1) per frame.
        let mut seen_in: Vec<usize> = Vec::new();
        let mut ctx_off = Vec::with_capacity(contexts.len() + 1);
        let mut ctx_sites = Vec::new();
        ctx_off.push(0);
        for (ci, c) in contexts.iter().enumerate() {
            let stamp = ci + 1;
            for &site in &c.chain {
                let id = *ids.entry(site).or_insert_with(|| {
                    sites.push(site);
                    seen_in.push(0);
                    SiteId::try_from(sites.len() - 1).expect("fewer than 2^32 distinct call sites")
                });
                if std::mem::replace(&mut seen_in[id as usize], stamp) != stamp {
                    ctx_sites.push(id);
                }
            }
            ctx_off.push(ctx_sites.len());
        }
        // Posting lists by counting sort; visiting contexts in ascending
        // order leaves every list ascending.
        let mut post_off = vec![0usize; sites.len() + 1];
        for &s in &ctx_sites {
            post_off[s as usize + 1] += 1;
        }
        for s in 0..sites.len() {
            post_off[s + 1] += post_off[s];
        }
        let mut cursor = post_off.clone();
        let mut post = vec![0u32; ctx_sites.len()];
        for ci in 0..contexts.len() {
            for &s in &ctx_sites[ctx_off[ci]..ctx_off[ci + 1]] {
                post[cursor[s as usize]] = ci as u32;
                cursor[s as usize] += 1;
            }
        }
        SiteIndex { sites, ctx_off, ctx_sites, post_off, post }
    }

    fn sites_of(&self, ctx: usize) -> &[SiteId] {
        &self.ctx_sites[self.ctx_off[ctx]..self.ctx_off[ctx + 1]]
    }

    fn posting(&self, site: SiteId) -> &[u32] {
        &self.post[self.post_off[site as usize]..self.post_off[site as usize + 1]]
    }
}

/// Run the Fig. 10 algorithm.
///
/// `groups` come from [`halo_graph::group`]; their member [`halo_graph::NodeId`]s index
/// into `contexts`. Every context — grouped or not, filtered or not — acts
/// as a conflict candidate, because every context allocates at runtime.
///
/// Index-driven: building the [`SiteIndex`] is O(Σ chain length); a
/// member's first greedy step reads one eligible-context count per site of
/// its chain (O(depth)), the chosen site's posting list *is* the candidate
/// set, and each later step re-counts only that list
/// (O(|posting| · depth)).
///
/// # Panics
///
/// Panics when the selectors need more than [`MAX_SITE_BITS`] monitored
/// sites, or when a group member does not index into `contexts`.
pub fn identify(groups: &[Group], contexts: &[ContextSummary]) -> Identification {
    identify_within(groups, contexts, MAX_SITE_BITS)
}

/// [`identify`] with the monitored-site capacity as a parameter (the seam
/// the overflow guard test narrows).
fn identify_within(
    groups: &[Group],
    contexts: &[ContextSummary],
    bit_capacity: usize,
) -> Identification {
    const NO_GROUP: usize = usize::MAX;
    // Group membership per context; a context listed twice belongs to the
    // later group.
    let mut member_of = vec![NO_GROUP; contexts.len()];
    for (gi, g) in groups.iter().enumerate() {
        for &m in &g.members {
            member_of[m.index()] = gi;
        }
    }
    let index = SiteIndex::build(contexts);

    // A context is a conflict candidate until its group is identified;
    // `eligible_count[s]` is how many candidates' chains contain site `s`.
    let mut eligible = vec![true; contexts.len()];
    let mut eligible_count: Vec<usize> = index.post_off.windows(2).map(|w| w[1] - w[0]).collect();

    // Process groups most popular first; runtime evaluation uses the same
    // order, so a context matching several selectors goes to the hottest.
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|&gi| std::cmp::Reverse((groups[gi].accesses, std::cmp::Reverse(gi))));

    // Scratch: the current candidate list; per site of the member chain
    // (by stack index), how many candidates contain it; and each site's
    // stack index in the member chain being worked on.
    const NOT_IN_CHAIN: usize = usize::MAX;
    let mut cands: Vec<u32> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    let mut chain_pos = vec![NOT_IN_CHAIN; index.sites.len()];
    let mut selected: Vec<(usize, Vec<Vec<SiteId>>)> = Vec::with_capacity(groups.len());

    for &gi in &order {
        // Retire the group: its members stop counting as conflicts, for
        // itself and for every later group.
        for &m in &groups[gi].members {
            let ci = m.index();
            if member_of[ci] == gi && std::mem::replace(&mut eligible[ci], false) {
                for &s in index.sites_of(ci) {
                    eligible_count[s as usize] -= 1;
                }
            }
        }
        let mut conjunctions: Vec<Vec<SiteId>> = Vec::with_capacity(groups[gi].members.len());
        for &member in &groups[gi].members {
            let chain = index.sites_of(member.index());
            for (pos, &s) in chain.iter().enumerate() {
                chain_pos[s as usize] = pos;
            }
            let mut expr: Vec<SiteId> = Vec::new();
            let mut conflicts = usize::MAX;
            loop {
                // The candidates are the contexts that still satisfy the
                // expression and belong to no already-identified group.
                // With an empty expression that is every eligible context,
                // whose per-site counts are already at hand.
                counts.clear();
                if expr.is_empty() {
                    counts.extend(chain.iter().map(|&s| eligible_count[s as usize]));
                } else {
                    counts.resize(chain.len(), 0);
                    for &s in cands.iter().flat_map(|&c| index.sites_of(c as usize)) {
                        if let Some(count) = counts.get_mut(chain_pos[s as usize]) {
                            *count += 1;
                        }
                    }
                }
                // For each site of the member chain, how many candidates
                // would remain; prefer fewest, then lowest in the stack
                // (`min_by_key` keeps the first of equal minima).
                let best = chain
                    .iter()
                    .zip(&counts)
                    .filter(|(s, _)| !expr.contains(s))
                    .min_by_key(|&(_, &m)| m);
                let Some((&site, &m)) = best else { break };
                // "Add the new constraint only if it reduces conflicts."
                if m >= conflicts {
                    break;
                }
                if expr.is_empty() {
                    // The chosen site's posting list *is* the candidate set.
                    cands.clear();
                    cands.extend(
                        index.posting(site).iter().filter(|&&c| eligible[c as usize]).copied(),
                    );
                } else {
                    cands.retain(|&c| index.sites_of(c as usize).contains(&site));
                }
                debug_assert_eq!(cands.len(), m);
                expr.push(site);
                conflicts = m;
                if conflicts == 0 {
                    break;
                }
            }
            for &s in chain {
                chain_pos[s as usize] = NOT_IN_CHAIN;
            }
            conjunctions.push(expr);
        }
        selected.push((gi, conjunctions));
    }

    // Assign bits to the union of chosen sites, in first-use order.
    let mut monitored: Vec<SiteId> = Vec::new();
    let mut is_monitored = vec![false; index.sites.len()];
    for &s in selected.iter().flat_map(|(_, conjunctions)| conjunctions.iter().flatten()) {
        if !std::mem::replace(&mut is_monitored[s as usize], true) {
            monitored.push(s);
        }
    }
    let num_bits = checked_bit_count(monitored.len(), bit_capacity);
    let mut bit_of = vec![0u16; index.sites.len()];
    let mut site_bits: HashMap<CallSite, u16> = HashMap::with_capacity(monitored.len());
    for (bit, &s) in (0..num_bits).zip(&monitored) {
        bit_of[s as usize] = bit;
        site_bits.insert(index.sites[s as usize], bit);
    }

    let runtime = selected
        .iter()
        .map(|(gi, conjunctions)| GroupSelector {
            group: *gi,
            conjunctions: conjunctions
                .iter()
                .map(|c| c.iter().map(|&s| bit_of[s as usize]).collect())
                .collect(),
        })
        .collect();
    let selectors = selected
        .into_iter()
        .map(|(group, conjunctions)| SiteSelector {
            group,
            conjunctions: conjunctions
                .iter()
                .map(|c| c.iter().map(|&s| index.sites[s as usize]).collect())
                .collect(),
        })
        .collect();
    Identification { site_bits, selectors, table: SelectorTable::new(runtime, num_bits) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_graph::{AffinityGraph, GroupingParams, NodeId};
    use halo_vm::FuncId;

    impl SiteSelector {
        /// Whether a context with `chain` satisfies this selector (some
        /// conjunction is a subset of the chain).
        fn matches_chain(&self, chain: &[CallSite]) -> bool {
            let set: std::collections::HashSet<CallSite> = chain.iter().copied().collect();
            self.conjunctions.iter().any(|c| c.iter().all(|s| set.contains(s)))
        }
    }

    fn site(f: u32, pc: u32) -> CallSite {
        CallSite::new(FuncId(f), pc)
    }

    fn ctx(chain: Vec<CallSite>, accesses: u64) -> ContextSummary {
        ContextSummary { chain, accesses }
    }

    /// Build groups straight from member lists (bypassing the clusterer).
    fn mk_groups(members: &[&[u32]], contexts: &[ContextSummary]) -> Vec<Group> {
        members
            .iter()
            .map(|ms| Group {
                members: ms.iter().map(|&m| NodeId(m)).collect(),
                weight: 1,
                accesses: ms.iter().map(|&m| contexts[m as usize].accesses).sum(),
            })
            .collect()
    }

    #[test]
    fn unique_site_needs_single_conjunct() {
        let contexts =
            vec![ctx(vec![site(0, 1), site(1, 5)], 100), ctx(vec![site(0, 2), site(2, 5)], 50)];
        let groups = mk_groups(&[&[0]], &contexts);
        let ident = identify(&groups, &contexts);
        // Site fn#0+1 alone distinguishes member 0 from context 1.
        assert_eq!(ident.selectors[0].conjunctions, vec![vec![site(0, 1)]]);
        assert_eq!(ident.site_bits.len(), 1);
    }

    #[test]
    fn wrapper_site_is_useless_outer_site_chosen() {
        // The povray situation: both contexts end at the same wrapper-
        // internal malloc site; only the outer call sites differ.
        let wrapper_malloc = site(9, 3);
        let contexts = vec![
            ctx(vec![site(0, 1), wrapper_malloc], 100), // grouped
            ctx(vec![site(0, 2), wrapper_malloc], 80),  // conflict
        ];
        let groups = mk_groups(&[&[0]], &contexts);
        let ident = identify(&groups, &contexts);
        let conj = &ident.selectors[0].conjunctions[0];
        assert!(conj.contains(&site(0, 1)), "outer site distinguishes");
        assert!(!conj.contains(&wrapper_malloc), "wrapper site adds nothing");
    }

    #[test]
    fn tie_break_prefers_lower_stack_sites() {
        // Both of the member's sites are unique to it (0 conflicts each);
        // the first (lowest/outermost) one must be chosen.
        let contexts =
            vec![ctx(vec![site(0, 1), site(1, 1)], 100), ctx(vec![site(0, 9), site(9, 9)], 10)];
        let groups = mk_groups(&[&[0]], &contexts);
        let ident = identify(&groups, &contexts);
        assert_eq!(ident.selectors[0].conjunctions[0], vec![site(0, 1)]);
    }

    #[test]
    fn multi_site_conjunction_when_no_single_site_suffices() {
        // Member shares each individual site with some conflict context;
        // only the pair is unique.
        let contexts = vec![
            ctx(vec![site(0, 1), site(0, 2)], 100), // member
            ctx(vec![site(0, 1), site(0, 3)], 50),
            ctx(vec![site(0, 4), site(0, 2)], 50),
        ];
        let groups = mk_groups(&[&[0]], &contexts);
        let ident = identify(&groups, &contexts);
        let conj = &ident.selectors[0].conjunctions[0];
        assert_eq!(conj.len(), 2);
        assert!(conj.contains(&site(0, 1)) && conj.contains(&site(0, 2)));
    }

    #[test]
    fn stops_when_conflicts_stop_improving() {
        // Two identical chains in different "groups" can never be fully
        // separated; the loop must terminate with residual conflicts.
        let contexts =
            vec![ctx(vec![site(0, 1), site(1, 1)], 100), ctx(vec![site(0, 1), site(1, 1)], 50)];
        let groups = mk_groups(&[&[0]], &contexts);
        let ident = identify(&groups, &contexts);
        // Selector exists and contains at most the whole chain.
        assert!(ident.selectors[0].conjunctions[0].len() <= 2);
        // The conflicting identical context will (unavoidably) match too.
        assert!(ident.selectors[0].matches_chain(&contexts[1].chain));
    }

    #[test]
    fn popular_groups_are_identified_first_and_win_at_runtime() {
        let shared = site(5, 5);
        let contexts = vec![
            ctx(vec![site(0, 1), shared], 10),   // member of cold group
            ctx(vec![site(0, 1), shared], 1000), // member of hot group (same chain!)
        ];
        let groups = mk_groups(&[&[0], &[1]], &contexts);
        let ident = identify(&groups, &contexts);
        // Hot group (index 1) is processed and evaluated first.
        assert_eq!(ident.selectors[0].group, 1);
        assert_eq!(ident.table.selectors()[0].group, 1);
        // A runtime state matching both chains classifies as the hot group.
        let mut gs = halo_vm::GroupState::new(ident.site_bits.len().max(1));
        for (&_site, &bit) in &ident.site_bits {
            gs.set(bit);
        }
        assert_eq!(ident.table.classify(&gs), Some(1));
    }

    #[test]
    fn own_group_members_do_not_count_as_conflicts() {
        // Two members of the same group share their whole chain except the
        // allocation site; conflicts only count *other* groups' contexts.
        let contexts =
            vec![ctx(vec![site(0, 1), site(1, 1)], 100), ctx(vec![site(0, 1), site(1, 2)], 90)];
        let groups = mk_groups(&[&[0, 1]], &contexts);
        let ident = identify(&groups, &contexts);
        // With no outside contexts at all, a single site reaches 0
        // conflicts immediately for each member.
        for conj in &ident.selectors[0].conjunctions {
            assert_eq!(conj.len(), 1);
        }
    }

    #[test]
    fn members_of_earlier_groups_are_ignored_for_later_ones() {
        let contexts = vec![
            ctx(vec![site(0, 1), site(2, 2)], 1000), // hot group member
            ctx(vec![site(0, 1), site(3, 3)], 10),   // cold group member
        ];
        let groups = mk_groups(&[&[1], &[0]], &contexts);
        let ident = identify(&groups, &contexts);
        // Hot group first; when the cold group (index 0) is processed, the
        // hot member is ignored, so site(0,1) alone reaches zero conflicts.
        assert_eq!(ident.selectors[1].group, 0);
        assert_eq!(ident.selectors[1].conjunctions[0], vec![site(0, 1)]);
    }

    #[test]
    fn selector_accepts_every_member_chain() {
        let contexts = vec![
            ctx(vec![site(0, 1), site(1, 1), site(2, 9)], 100),
            ctx(vec![site(0, 2), site(1, 1), site(2, 9)], 90),
            ctx(vec![site(0, 3), site(2, 9)], 50),
            ctx(vec![site(0, 4), site(2, 9)], 5),
        ];
        let groups = mk_groups(&[&[0, 1], &[2]], &contexts);
        let ident = identify(&groups, &contexts);
        for sel in &ident.selectors {
            for &m in &groups[sel.group].members {
                assert!(
                    sel.matches_chain(&contexts[m.index()].chain),
                    "selector for group {} must accept member {m}",
                    sel.group
                );
            }
        }
    }

    #[test]
    fn empty_groups_produce_empty_identification() {
        let contexts = vec![ctx(vec![site(0, 1)], 10)];
        let ident = identify(&[], &contexts);
        assert!(ident.selectors.is_empty());
        assert_eq!(ident.site_bits.len(), 0);
        let gs = halo_vm::GroupState::new(1);
        assert_eq!(ident.table.classify(&gs), None);
    }

    /// `n` single-member groups, each needing its own outer site.
    fn one_site_per_group(n: u32) -> (Vec<Group>, Vec<ContextSummary>) {
        let contexts: Vec<_> =
            (0..n).map(|i| ctx(vec![site(0, i), site(7, 0)], u64::from(n - i))).collect();
        let members: Vec<[u32; 1]> = (0..n).map(|i| [i]).collect();
        let members: Vec<&[u32]> = members.iter().map(|m| &m[..]).collect();
        (mk_groups(&members, &contexts), contexts)
    }

    #[test]
    fn bit_count_converts_up_to_capacity() {
        assert_eq!(checked_bit_count(0, 4), 0);
        assert_eq!(checked_bit_count(4, 4), 4);
        // The real capacity is the full u16 range.
        assert_eq!(checked_bit_count(MAX_SITE_BITS, MAX_SITE_BITS), u16::MAX);
        // Exactly at capacity every site still gets its own bit.
        let (groups, contexts) = one_site_per_group(4);
        let ident = identify_within(&groups, &contexts, 4);
        assert_eq!(ident.table.num_bits(), 4);
        let mut bits: Vec<u16> = ident.site_bits.values().copied().collect();
        bits.sort_unstable();
        assert_eq!(bits, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "do not fit the u16 group-state bit space")]
    fn site_bit_overflow_panics_instead_of_aliasing() {
        // The small-capacity seam stands in for 65 536 monitored sites:
        // one site more than the capacity is the first that would wrap
        // and share a group-state bit with site 0.
        let (groups, contexts) = one_site_per_group(5);
        let _ = identify_within(&groups, &contexts, 4);
    }

    #[test]
    fn the_real_capacity_is_65_535_sites() {
        let (groups, contexts) = one_site_per_group(MAX_SITE_BITS as u32);
        let ident = identify(&groups, &contexts);
        assert_eq!(ident.table.num_bits(), u16::MAX);
        assert_eq!(ident.site_bits.len(), MAX_SITE_BITS);
        let (groups, contexts) = one_site_per_group(MAX_SITE_BITS as u32 + 1);
        let overflow = std::panic::catch_unwind(|| identify(&groups, &contexts));
        assert!(overflow.is_err(), "the 65 536th site must not alias bit 0");
    }

    #[test]
    fn end_to_end_with_real_grouping() {
        // Graph: contexts 0,1 tight; 2 loose.
        let mut g = AffinityGraph::new();
        let a = g.add_node(100);
        let b = g.add_node(90);
        let c = g.add_node(10);
        g.add_edge_weight(a, b, 40);
        g.add_edge_weight(b, c, 1);
        let groups = halo_graph::group(
            &g,
            &GroupingParams { min_weight: 1, group_threshold: 0.0, ..Default::default() },
        );
        let contexts = vec![
            ctx(vec![site(0, 1), site(7, 0)], 100),
            ctx(vec![site(0, 2), site(7, 0)], 90),
            ctx(vec![site(0, 3), site(7, 0)], 10),
        ];
        let ident = identify(&groups, &contexts);
        assert!(!ident.selectors.is_empty());
        // Group 0 = {a, b}: both member chains accepted, context c rejected.
        let sel = ident.selectors.iter().find(|s| s.group == 0).unwrap();
        assert!(sel.matches_chain(&contexts[0].chain));
        assert!(sel.matches_chain(&contexts[1].chain));
        assert!(!sel.matches_chain(&contexts[2].chain));
    }
}
