//! Index-driven `identify` vs the rescanning original (DESIGN.md §17).
//!
//! `halo_ident::identify` answers every "how many conflict candidates
//! contain this site" question from an inverted index (posting lists plus
//! per-site eligible counts). The implementation it replaced — a literal
//! transcription of Fig. 10 that rescans all contexts per site, per
//! member, per greedy step — is retained here as the oracle. Both must
//! agree exactly: same selectors (site for site, in the same order), same
//! `site_bits`, same runtime table, same classification of every member
//! chain. Case counts follow `HALO_PROPTEST_CASES`.

use halo_graph::{group, AffinityGraph, Group, GroupingParams, NodeId};
use halo_ident::{identify, ContextSummary, Identification, SiteSelector};
use halo_mem::{GroupSelector, SelectorTable};
use halo_vm::{CallSite, FuncId, GroupState};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// The pre-index `identify`, verbatim: every greedy step rescans every
/// context with a `HashSet` probe per site (quadratic in the context
/// count), which makes it slow and obviously right.
fn identify_reference(groups: &[Group], contexts: &[ContextSummary]) -> Identification {
    // Group membership per context.
    let mut member_of: HashMap<NodeId, usize> = HashMap::new();
    for (gi, g) in groups.iter().enumerate() {
        for &m in &g.members {
            member_of.insert(m, gi);
        }
    }
    let chain_sets: Vec<HashSet<CallSite>> =
        contexts.iter().map(|c| c.chain.iter().copied().collect()).collect();

    // Process groups most popular first; runtime evaluation uses the same
    // order, so a context matching several selectors goes to the hottest.
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|&gi| std::cmp::Reverse((groups[gi].accesses, std::cmp::Reverse(gi))));

    let mut ignore: HashSet<usize> = HashSet::new();
    let mut selectors: Vec<SiteSelector> = Vec::new();

    for &gi in &order {
        ignore.insert(gi);
        let mut conjunctions: Vec<Vec<CallSite>> = Vec::new();
        for &member in &groups[gi].members {
            let member_chain = &contexts[member.index()].chain;
            let mut expr: Vec<CallSite> = Vec::new();
            let mut conflicts = usize::MAX;
            loop {
                // Contexts that still satisfy the expression and belong to
                // no already-identified group.
                let candidates: Vec<usize> = (0..contexts.len())
                    .filter(|&ci| {
                        member_of.get(&NodeId(ci as u32)).is_none_or(|g| !ignore.contains(g))
                    })
                    .filter(|&ci| expr.iter().all(|s| chain_sets[ci].contains(s)))
                    .collect();
                // For each site of the member chain, how many candidates
                // would remain; prefer fewest, then lowest in the stack.
                let mut best: Option<(usize, usize, CallSite)> = None; // (m, idx, site)
                for (idx, &site) in member_chain.iter().enumerate() {
                    if expr.contains(&site) {
                        continue;
                    }
                    let m = candidates.iter().filter(|&&ci| chain_sets[ci].contains(&site)).count();
                    if best.is_none_or(|(bm, bi, _)| m < bm || (m == bm && idx < bi)) {
                        best = Some((m, idx, site));
                    }
                }
                let Some((m, _, site)) = best else { break };
                // "Add the new constraint only if it reduces conflicts."
                if m >= conflicts {
                    break;
                }
                expr.push(site);
                conflicts = m;
                if conflicts == 0 {
                    break;
                }
            }
            conjunctions.push(expr);
        }
        selectors.push(SiteSelector { group: gi, conjunctions });
    }

    // Assign bits to the union of chosen sites, in first-use order.
    let mut site_bits: HashMap<CallSite, u16> = HashMap::new();
    for sel in &selectors {
        for conj in &sel.conjunctions {
            for &site in conj {
                let next = site_bits.len() as u16;
                site_bits.entry(site).or_insert(next);
            }
        }
    }

    let runtime = selectors
        .iter()
        .map(|s| GroupSelector {
            group: s.group,
            conjunctions: s
                .conjunctions
                .iter()
                .map(|c| c.iter().map(|site| site_bits[site]).collect())
                .collect(),
        })
        .collect();
    let num_bits = site_bits.len() as u16;
    Identification { site_bits, selectors, table: SelectorTable::new(runtime, num_bits) }
}

fn site(f: u32, pc: u32) -> CallSite {
    CallSite::new(FuncId(f), pc)
}

fn ctx(chain: Vec<CallSite>, accesses: u64) -> ContextSummary {
    ContextSummary { chain, accesses }
}

/// Groups straight from member lists (bypassing the clusterer), so member
/// lists may overlap or repeat.
fn mk_groups(members: &[Vec<u32>], accesses: &[u64]) -> Vec<Group> {
    members
        .iter()
        .zip(accesses)
        .map(|(ms, &accesses)| Group {
            members: ms.iter().map(|&m| NodeId(m)).collect(),
            weight: 1,
            accesses,
        })
        .collect()
}

/// The group state a context with `chain` reaches its allocation in:
/// exactly the monitored sites on its chain are set.
fn state_of(ident: &Identification, chain: &[CallSite]) -> GroupState {
    let mut gs = GroupState::new(ident.site_bits.len().max(1));
    for s in chain {
        if let Some(&bit) = ident.site_bits.get(s) {
            gs.set(bit);
        }
    }
    gs
}

fn assert_same(groups: &[Group], contexts: &[ContextSummary]) -> Identification {
    let new = identify(groups, contexts);
    let old = identify_reference(groups, contexts);
    assert_eq!(new.selectors, old.selectors, "symbolic selectors");
    assert_eq!(new.site_bits, old.site_bits, "site → bit assignment");
    assert_eq!(new.table, old.table, "runtime selector table");
    assert_eq!(new.monitored_sites().count(), old.monitored_sites().count());
    for c in contexts {
        assert_eq!(
            new.table.classify(&state_of(&new, &c.chain)),
            old.table.classify(&state_of(&old, &c.chain)),
            "classification of chain {:?}",
            c.chain
        );
    }
    new
}

#[test]
fn recursive_chains_repeat_sites() {
    // health-style recursion: the same call site several frames deep.
    let rec = site(1, 4);
    let contexts = vec![
        ctx(vec![site(0, 1), rec, rec, rec, site(2, 0)], 100),
        ctx(vec![site(0, 1), rec, rec, site(2, 1)], 90),
        ctx(vec![rec, site(0, 2), rec, site(2, 0)], 50),
        ctx(vec![rec, rec], 5),
    ];
    let groups = mk_groups(&[vec![0, 1], vec![2]], &[190, 50]);
    let ident = assert_same(&groups, &contexts);
    for conj in ident.selectors.iter().flat_map(|s| &s.conjunctions) {
        let distinct: HashSet<_> = conj.iter().collect();
        assert_eq!(distinct.len(), conj.len(), "a repeated site is chosen at most once");
    }
}

#[test]
fn one_wrapper_site_shared_by_every_context() {
    let wrapper = site(9, 3);
    let contexts: Vec<_> =
        (0..6).map(|i| ctx(vec![site(0, i / 2), site(1, i), wrapper], 100 - i as u64)).collect();
    let groups = mk_groups(&[vec![0, 1], vec![2, 3]], &[199, 195]);
    let ident = assert_same(&groups, &contexts);
    assert!(!ident.site_bits.contains_key(&wrapper), "the wrapper site separates nothing");
}

#[test]
fn identical_chains_in_different_groups() {
    let chain = vec![site(0, 1), site(1, 1)];
    let contexts = vec![ctx(chain.clone(), 10), ctx(chain.clone(), 1000), ctx(chain, 1)];
    let groups = mk_groups(&[vec![0], vec![1]], &[10, 1000]);
    let ident = assert_same(&groups, &contexts);
    assert_eq!(ident.selectors[0].group, 1, "hot group first");
}

#[test]
fn a_context_listed_in_two_groups_belongs_to_the_later_one() {
    let contexts = vec![
        ctx(vec![site(0, 1), site(1, 1)], 100),
        ctx(vec![site(0, 1), site(1, 2)], 90),
        ctx(vec![site(0, 2), site(1, 1)], 80),
    ];
    // Context 1 is listed by both; group 1 is hotter and retires first,
    // taking context 1 out of group 0's conflicts. With the popularity
    // flipped, group 0 goes first and context 1 (still group 1's) counts
    // as a conflict of its own conjunction.
    for accesses in [[100u64, 500], [500, 100], [300, 300]] {
        let groups = mk_groups(&[vec![0, 1], vec![1, 2]], &accesses);
        assert_same(&groups, &contexts);
    }
    // The same member twice in one group yields two equal conjunctions.
    let groups = mk_groups(&[vec![0, 0]], &[7]);
    let ident = assert_same(&groups, &contexts);
    assert_eq!(ident.selectors[0].conjunctions.len(), 2);
}

#[test]
fn ungrouped_and_discarded_contexts_are_conflict_candidates() {
    // Contexts 2 and 3 are in no group (3 would have been discarded as
    // cold: zero accesses); both share the member's outer site and force
    // a second conjunct.
    let contexts = vec![
        ctx(vec![site(0, 1), site(1, 1)], 100),
        ctx(vec![site(0, 9), site(1, 9)], 90),
        ctx(vec![site(0, 1), site(1, 2)], 3),
        ctx(vec![site(0, 2), site(1, 1)], 0),
    ];
    let groups = mk_groups(&[vec![0]], &[100]);
    let ident = assert_same(&groups, &contexts);
    assert_eq!(ident.selectors[0].conjunctions[0].len(), 2);
}

#[test]
fn empty_group_list_and_empty_chains() {
    let contexts = vec![ctx(vec![site(0, 1)], 10), ctx(vec![], 4)];
    let ident = assert_same(&[], &contexts);
    assert!(ident.selectors.is_empty() && ident.site_bits.is_empty());
    assert_same(&[], &[]);
    // A member with an empty chain gets the always-true conjunction.
    let groups = mk_groups(&[vec![1]], &[4]);
    let ident = assert_same(&groups, &contexts);
    assert_eq!(ident.selectors[0].conjunctions, vec![Vec::<CallSite>::new()]);
}

#[test]
fn agrees_on_clustered_profiles_grouped_by_the_clusterer() {
    // The benchmark's shape in miniature: depth-5 chains, outer frames
    // shared per cluster of eight, groups from `group()`.
    let mut rng = TestRng::new(0x5eed);
    let n = 256u32;
    let mut g = AffinityGraph::new();
    let mut contexts = Vec::new();
    let mut outer = (0, 0);
    for i in 0..n {
        if i % 8 == 0 {
            outer = (rng.below(4) as u32, rng.below(12) as u32);
        }
        let chain = vec![
            site(0, outer.0),
            site(1, outer.1),
            site(2, rng.below(24) as u32),
            site(3, rng.below(48) as u32),
            site(4, rng.below(16) as u32),
        ];
        let accesses = 64 + rng.below(4096);
        contexts.push(ctx(chain, accesses));
        g.add_node(accesses);
    }
    for base in (0..n).step_by(8) {
        for u in base..base + 8 {
            for v in u + 1..base + 8 {
                g.add_edge_weight(NodeId(u), NodeId(v), 64 + rng.below(192));
            }
        }
    }
    let groups = group(&g, &GroupingParams { group_threshold: 0.0, ..Default::default() });
    assert!(groups.len() >= 16, "clusters group: {}", groups.len());
    assert_same(&groups, &contexts);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random profiles over a deliberately tiny site alphabet (so chains
    /// collide, repeat sites and tie constantly), an optional wrapper site
    /// on every chain, and hand-built groups whose member lists overlap,
    /// repeat and leave contexts ungrouped.
    #[test]
    fn index_driven_identify_matches_the_rescanning_reference(
        chains in proptest::collection::vec(
            (proptest::collection::vec((0u32..4, 0u32..4), 0..7), 0u64..500),
            1..28,
        ),
        wrapper in any::<bool>(),
        memberships in proptest::collection::vec(
            (proptest::collection::vec(0u32..64, 1..6), 0u64..4),
            0..8,
        ),
    ) {
        let contexts: Vec<ContextSummary> = chains
            .iter()
            .map(|(chain, accesses)| {
                let mut chain: Vec<CallSite> = chain.iter().map(|&(f, pc)| site(f, pc)).collect();
                if wrapper {
                    chain.push(site(9, 9));
                }
                ctx(chain, *accesses)
            })
            .collect();
        let n = contexts.len() as u32;
        let members: Vec<Vec<u32>> =
            memberships.iter().map(|(ms, _)| ms.iter().map(|m| m % n).collect()).collect();
        // Popularity from a range of four, so equal-popularity groups
        // exercise the index tie-break too.
        let accesses: Vec<u64> = memberships.iter().map(|&(_, a)| a).collect();
        let groups = mk_groups(&members, &accesses);
        assert_same(&groups, &contexts);
    }
}
