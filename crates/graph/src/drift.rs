//! Grouping drift: how far has a freshly computed grouping moved from the
//! one the active plan was built on?
//!
//! The phase detector in serve mode (DESIGN.md §15) re-groups the decayed
//! streaming graph every window and needs a scalar answer to "did the
//! workload's affinity structure actually change, or is this the same
//! clustering with noise?". We use one minus the Jaccard similarity of the
//! two groupings' *co-membership pair sets*: a pair of contexts counts as
//! agreeing when both groupings place it in one group. Unlike the Rand
//! index, pairs that neither grouping co-locates (the overwhelming
//! majority in a sparse clustering) do not inflate agreement.

use crate::grouping::Group;
use crate::NodeId;
use std::collections::HashMap;

fn pairs(n: u64) -> u64 {
    n * (n.saturating_sub(1)) / 2
}

/// Drift between two groupings over the same `NodeId` space, in `[0, 1]`:
/// `0.0` means every co-grouped pair is co-grouped in both (identical
/// cluster structure — group order and singleton placement are
/// ignored), `1.0` means no co-grouped pair survives. Two empty (or
/// all-singleton) groupings have no co-membership evidence and report
/// `0.0` — no evidence of change is not change.
///
/// A node assigned to several groups (the clusterers never do this, but
/// the type permits it) counts its first assignment.
pub fn grouping_drift(old: &[Group], new: &[Group]) -> f64 {
    let assign = |groups: &[Group]| -> HashMap<NodeId, usize> {
        let mut map = HashMap::new();
        for (gi, g) in groups.iter().enumerate() {
            for &m in &g.members {
                map.entry(m).or_insert(gi);
            }
        }
        map
    };
    let a = assign(old);
    let b = assign(new);
    // Pairs co-grouped in both = Σ C(n_ij, 2) over the contingency table
    // of nodes present in both assignments.
    let mut contingency: HashMap<(usize, usize), u64> = HashMap::new();
    for (n, &gi) in &a {
        if let Some(&gj) = b.get(n) {
            *contingency.entry((gi, gj)).or_insert(0) += 1;
        }
    }
    let both: u64 = contingency.values().map(|&c| pairs(c)).sum();
    let in_old: u64 = old.iter().map(|g| pairs(g.members.len() as u64)).sum();
    let in_new: u64 = new.iter().map(|g| pairs(g.members.len() as u64)).sum();
    let union = in_old + in_new - both;
    if union == 0 {
        return 0.0;
    }
    1.0 - both as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(members: &[u32]) -> Group {
        Group { members: members.iter().map(|&m| NodeId(m)).collect(), weight: 0, accesses: 0 }
    }

    #[test]
    fn identical_groupings_have_zero_drift() {
        let a = vec![g(&[0, 1, 2]), g(&[3, 4])];
        assert_eq!(grouping_drift(&a, &a), 0.0);
        // Group order and member order are structure-irrelevant.
        let b = vec![g(&[4, 3]), g(&[2, 0, 1])];
        assert_eq!(grouping_drift(&a, &b), 0.0);
    }

    #[test]
    fn disjoint_regroupings_have_full_drift() {
        // Every old co-membership is broken and every new one is fresh.
        let a = vec![g(&[0, 1]), g(&[2, 3])];
        let b = vec![g(&[0, 2]), g(&[1, 3])];
        assert_eq!(grouping_drift(&a, &b), 1.0);
        // Groupings over entirely different node sets (a phase shift to a
        // different binary) share nothing either.
        let c = vec![g(&[10, 11, 12])];
        assert_eq!(grouping_drift(&a, &c), 1.0);
    }

    #[test]
    fn partial_overlap_is_proportional() {
        // Old: {0,1,2} → pairs {01,02,12}. New: {0,1},{2,3} → pairs
        // {01,23}. Shared: {01}. Jaccard = 1/4, drift = 3/4.
        let a = vec![g(&[0, 1, 2])];
        let b = vec![g(&[0, 1]), g(&[2, 3])];
        assert_eq!(grouping_drift(&a, &b), 0.75);
        // Symmetric.
        assert_eq!(grouping_drift(&b, &a), 0.75);
    }

    #[test]
    fn no_coevidence_reports_zero() {
        assert_eq!(grouping_drift(&[], &[]), 0.0);
        // All-singleton groupings carry no co-membership pairs at all.
        let s = vec![g(&[0]), g(&[1])];
        assert_eq!(grouping_drift(&s, &s), 0.0);
        assert_eq!(grouping_drift(&[], &s), 0.0);
    }

    #[test]
    fn growth_from_empty_is_full_drift() {
        let a = vec![g(&[0, 1])];
        assert_eq!(grouping_drift(&[], &a), 1.0);
        assert_eq!(grouping_drift(&a, &[]), 1.0);
    }
}
