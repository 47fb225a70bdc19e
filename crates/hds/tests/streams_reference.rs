//! Indexed minimality ≡ the all-pairs scan (DESIGN.md §18).
//!
//! `extract_streams` used to test each candidate against every stream
//! already selected with `windows`: skip it when it contains a selected
//! stream as a contiguous run or is contained in one. It now probes an
//! index of the selected streams and their strictly shorter runs. The
//! original function is kept here over the public `Grammar` API, its
//! overlap test passed in, and the property compares the whole
//! `StreamAnalysis` on random traces whose candidate lists are full of
//! equal lengths and duplicates: a length window down to one element
//! truncates many rules to the same prefix.

use halo_hds::{extract_streams, Grammar, Stream, StreamConfig};
use proptest::prelude::*;

/// Whether candidate `c` overlaps the selected stream `s` — the all-pairs
/// scan's test, one pair at a time.
type Overlap = fn(s: &[u32], c: &[u32]) -> bool;

fn all_pairs(s: &[u32], c: &[u32]) -> bool {
    let (short, long) = if s.len() <= c.len() { (s, c) } else { (c, s) };
    long.windows(short.len()).any(|w| w == short)
}

/// The selection `extract_streams` made until PR 25, with the overlap test
/// `overlaps`: (streams, candidate pool, achieved coverage) and the
/// candidate list in selection order.
fn reference(
    trace: &[u32],
    config: &StreamConfig,
    overlaps: Overlap,
) -> (Vec<Stream>, usize, f64, Vec<Vec<u32>>) {
    if trace.is_empty() {
        return (Vec::new(), 0, 0.0, Vec::new());
    }
    let mut grammar = Grammar::build(trace);
    let mut candidates: Vec<Stream> = Vec::new();
    for r in grammar.rule_ids() {
        let full = grammar.expansion(r);
        if full.len() < config.min_len {
            continue;
        }
        let frequency = grammar.frequency(r);
        let symbols: Vec<u32> = full.iter().copied().take(config.max_len).collect();
        let heat = symbols.len() as u64 * frequency;
        candidates.push(Stream { symbols, frequency, heat });
    }
    let pool = candidates.len();
    candidates.sort_by(|a, b| b.heat.cmp(&a.heat).then(a.symbols.cmp(&b.symbols)));
    let order = candidates.iter().map(|c| c.symbols.clone()).collect();
    let total_heat = trace.len() as u64;
    let target = (total_heat as f64 * config.coverage).ceil() as u64;
    let mut covered = 0u64;
    let mut streams: Vec<Stream> = Vec::new();
    for c in candidates {
        if covered >= target {
            break;
        }
        if streams.iter().any(|s| overlaps(&s.symbols, &c.symbols)) {
            continue;
        }
        covered = covered.saturating_add(c.heat);
        streams.push(c);
    }
    (streams, pool, covered.min(total_heat) as f64 / total_heat as f64, order)
}

/// `extract_streams` ≡ [`reference`] with `overlaps`; returns the
/// candidate list.
fn assert_same_selection(trace: &[u32], config: &StreamConfig, overlaps: Overlap) -> Vec<Vec<u32>> {
    let ours = extract_streams(trace, config);
    let (streams, pool, coverage, order) = reference(trace, config, overlaps);
    assert_eq!(ours.candidates, pool, "candidate pool");
    assert_eq!(ours.streams, streams, "selected streams");
    assert_eq!(ours.achieved_coverage.to_bits(), coverage.to_bits(), "achieved coverage");
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn indexed_minimality_matches_the_all_pairs_scan(
        alphabet in 2u32..12,
        raw in proptest::collection::vec(0u32..1_000, 0..600),
        max_len in prop_oneof![1usize..6, Just(20usize)],
        min_len in 0usize..4,
        coverage in prop_oneof![Just(0.0f64), Just(0.5f64), Just(0.9f64), Just(1.0f64)],
    ) {
        let trace: Vec<u32> = raw.iter().map(|&x| x % alphabet).collect();
        let config = StreamConfig { min_len: min_len.min(max_len), max_len, coverage };
        assert_same_selection(&trace, &config, all_pairs);
    }
}

#[test]
fn candidate_lists_with_duplicates_and_equal_lengths_select_alike() {
    let mut x = 7u64;
    let trace: Vec<u32> = (0..2_000)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 33) % 5) as u32
        })
        .collect();
    let config = StreamConfig { min_len: 2, max_len: 3, coverage: 1.0 };
    let order = assert_same_selection(&trace, &config, all_pairs);
    let duplicates = order.windows(2).filter(|w| w[0] == w[1]).count();
    let equal_lengths = order.windows(2).filter(|w| w[0].len() == w[1].len()).count();
    assert!(duplicates > 0 && equal_lengths > duplicates, "{duplicates} / {equal_lengths}");
}

/// The seeded mutation: an overlap test that forgets the "contained in a
/// selected stream" direction must not pass the check.
#[test]
#[should_panic(expected = "selected streams")]
fn a_scan_that_only_looks_for_contained_streams_fails_the_check() {
    // `0 0 1` (heat 2 × 3) is selected before `0 1` (heat 3 × 2), which it
    // contains.
    let trace = [0, 0, 1, 0, 0, 1, 0, 1];
    assert_same_selection(&trace, &StreamConfig::default(), |s, c| {
        s.len() <= c.len() && c.windows(s.len()).any(|w| w == s)
    });
}
