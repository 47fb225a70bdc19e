//! Hot data stream extraction (Chilimbi, PLDI'01).
//!
//! A *data stream* is a repeated subsequence of the reference trace; its
//! *heat* is `length × frequency`. The analysis extracts **minimal hot
//! streams** — grammar-rule expansions within a length window whose
//! accumulated heat covers a target fraction of the trace — mirroring the
//! configuration HALO replicates: "minimal hot data streams that contain
//! between 2 and 20 elements, with the stream threshold set to account for
//! 90% of all heap accesses" (§5.1).

use crate::sequitur::Grammar;
use halo_vm::FastIntState;
use std::collections::{BTreeSet, HashSet};

/// Stream-extraction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Minimum stream length in elements (paper: 2).
    pub min_len: usize,
    /// Maximum stream length in elements (paper: 20).
    pub max_len: usize,
    /// Fraction of total trace heat the selected streams must cover
    /// (paper: 0.9).
    pub coverage: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { min_len: 2, max_len: 20, coverage: 0.9 }
    }
}

impl StreamConfig {
    /// Panics with the broken rule's text unless `1 ≤ max_len`,
    /// `min_len ≤ max_len` and `coverage` is within `[0, 1]`.
    fn check(&self) {
        let StreamConfig { min_len, max_len, coverage } = *self;
        assert!(max_len >= 1, "max_len {max_len} must be at least 1");
        assert!(min_len <= max_len, "min_len {min_len} must not exceed max_len {max_len}");
        assert!((0.0..=1.0).contains(&coverage), "coverage {coverage} must be within [0, 1]");
    }
}

/// A hot data stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    /// The repeated object-id sequence.
    pub symbols: Vec<u32>,
    /// Occurrences in the trace.
    pub frequency: u64,
    /// `symbols.len() × frequency`.
    pub heat: u64,
}

/// Result of stream extraction.
#[derive(Debug, Clone, Default)]
pub struct StreamAnalysis {
    /// The selected minimal hot streams, hottest first.
    pub streams: Vec<Stream>,
    /// Grammar rules considered (the paper's roms discussion counts the
    /// streams a program *needs*; this is the candidate pool size).
    pub candidates: usize,
    /// Fraction of the trace the selected streams cover.
    pub achieved_coverage: f64,
}

/// The runs of `len` consecutive symbols of `s` (`len ≤ s.len()`).
fn runs(s: &[u32], len: usize) -> impl Iterator<Item = &[u32]> {
    (0..=s.len() - len).map(move |i| &s[i..i + len])
}

/// The streams selected so far, indexed for the minimality test: each
/// stream whole, and its strictly shorter runs at the lengths candidates
/// have been probed at. Both sides are indexed only at lengths that occur,
/// so a handful of long streams does not pay for every run of every one.
#[derive(Default)]
struct Selected {
    whole: HashSet<Box<[u32]>, FastIntState>,
    /// The lengths present in `whole`.
    lengths: BTreeSet<usize>,
    /// Every run of a selected stream, strictly shorter than it, of a
    /// length in `run_lengths`.
    runs: HashSet<Box<[u32]>, FastIntState>,
    /// The candidate lengths probed so far.
    run_lengths: BTreeSet<usize>,
}

/// Add the runs of `len` symbols of `s` to `set`.
fn index_runs(set: &mut HashSet<Box<[u32]>, FastIntState>, s: &[u32], len: usize) {
    for r in runs(s, len) {
        if !set.contains(r) {
            set.insert(r.into());
        }
    }
}

impl Selected {
    /// Whether `c` contains a selected stream as a contiguous run, or is a
    /// strictly shorter run of one. (Of equal length, both mean `c` *is*
    /// one.)
    fn overlaps(&mut self, c: &[u32]) -> bool {
        if self.run_lengths.insert(c.len()) {
            for s in self.whole.iter().filter(|s| s.len() > c.len()) {
                index_runs(&mut self.runs, s, c.len());
            }
        }
        self.runs.contains(c)
            || self
                .lengths
                .range(..=c.len())
                .any(|&len| runs(c, len).any(|r| self.whole.contains(r)))
    }

    fn insert(&mut self, s: &[u32]) {
        for &len in self.run_lengths.range(..s.len()) {
            index_runs(&mut self.runs, s, len);
        }
        self.lengths.insert(s.len());
        self.whole.insert(s.into());
    }
}

/// Extract minimal hot data streams from `trace`.
///
/// # Panics
///
/// Panics with the broken rule's text unless `1 ≤ max_len`,
/// `min_len ≤ max_len` and `coverage` is within `[0, 1]`.
pub fn extract_streams(trace: &[u32], config: &StreamConfig) -> StreamAnalysis {
    config.check();
    if trace.is_empty() {
        return StreamAnalysis::default();
    }
    let mut grammar = Grammar::build(trace);

    // Candidates: rule expansions within the length window. Expansions
    // longer than the window are truncated to their first `max_len`
    // elements — the stream-formation-threshold behaviour §5.2 describes
    // (long regularities are cut short rather than represented whole).
    struct Candidate {
        symbols: Vec<u32>,
        frequency: u64,
        heat: u64,
    }
    let mut candidates: Vec<Candidate> = Vec::new();
    for r in grammar.rule_ids() {
        let full = grammar.expansion(r);
        if full.len() < config.min_len {
            continue;
        }
        let freq = grammar.frequency(r);
        let symbols: Vec<u32> = full.iter().copied().take(config.max_len).collect();
        let heat = symbols.len() as u64 * freq;
        candidates.push(Candidate { symbols, frequency: freq, heat });
    }
    let pool = candidates.len();

    // Hottest first; accumulate until the coverage target.
    candidates.sort_by(|a, b| b.heat.cmp(&a.heat).then(a.symbols.cmp(&b.symbols)));
    let total_heat = trace.len() as u64;
    let target = (total_heat as f64 * config.coverage).ceil() as u64;
    let mut covered = 0u64;
    let mut streams: Vec<Stream> = Vec::new();
    let mut selected = Selected::default();
    for c in candidates {
        if covered >= target {
            break;
        }
        // Minimality: skip candidates that overlap an already-selected
        // stream — either containing one as a contiguous subsequence
        // (covered by it) or being contained in one (its heat was already
        // accounted for by the enclosing selection).
        if selected.overlaps(&c.symbols) {
            continue;
        }
        selected.insert(&c.symbols);
        covered = covered.saturating_add(c.heat);
        streams.push(Stream { symbols: c.symbols, frequency: c.frequency, heat: c.heat });
    }

    StreamAnalysis {
        streams,
        candidates: pool,
        achieved_coverage: (covered.min(total_heat)) as f64 / total_heat as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> StreamConfig {
        StreamConfig { min_len: 2, max_len: 20, coverage: 0.9 }
    }

    #[test]
    fn repeated_pattern_is_one_hot_stream() {
        let mut trace = Vec::new();
        for _ in 0..50 {
            trace.extend_from_slice(&[1, 2, 3]);
        }
        let a = extract_streams(&trace, &cfg());
        assert!(!a.streams.is_empty());
        // The hottest stream expands (directly or hierarchically) from the
        // (1,2,3) repetition.
        let hot = &a.streams[0];
        assert!(hot.heat >= trace.len() as u64 / 2);
        assert!(a.achieved_coverage >= 0.9);
    }

    #[test]
    fn empty_trace_yields_nothing() {
        let a = extract_streams(&[], &cfg());
        assert!(a.streams.is_empty());
        assert_eq!(a.candidates, 0);
    }

    #[test]
    fn incompressible_trace_yields_no_streams() {
        let trace: Vec<u32> = (0..100).collect();
        let a = extract_streams(&trace, &cfg());
        assert!(a.streams.is_empty());
        assert_eq!(a.achieved_coverage, 0.0);
    }

    #[test]
    fn max_len_truncates_long_regularities() {
        // One long repeated block of 60 symbols.
        let block: Vec<u32> = (0..60).collect();
        let mut trace = Vec::new();
        for _ in 0..10 {
            trace.extend_from_slice(&block);
        }
        let a = extract_streams(&trace, &cfg());
        for s in &a.streams {
            assert!(s.symbols.len() <= 20);
        }
    }

    #[test]
    fn object_scatter_inflates_stream_count() {
        // The roms pathology (§5.2): the same *context-level* pattern over
        // many distinct objects scatters into many distinct streams. Pattern
        // P(k) = [k, k+1] for 60 different k's, each repeated a few times,
        // vs. the same heat concentrated in one pattern.
        let mut scattered = Vec::new();
        for k in 0..60u32 {
            for _ in 0..4 {
                scattered.extend_from_slice(&[1000 + 2 * k, 1001 + 2 * k]);
            }
        }
        let mut concentrated = Vec::new();
        for _ in 0..240 {
            concentrated.extend_from_slice(&[1, 2]);
        }
        let a = extract_streams(&scattered, &cfg());
        let b = extract_streams(&concentrated, &cfg());
        assert!(
            a.streams.len() >= 10 * b.streams.len().max(1),
            "scatter: {} vs concentrated: {}",
            a.streams.len(),
            b.streams.len()
        );
    }

    #[test]
    fn streams_are_sorted_by_heat() {
        let mut trace = Vec::new();
        for _ in 0..100 {
            trace.extend_from_slice(&[1, 2]);
        }
        for _ in 0..10 {
            trace.extend_from_slice(&[7, 8, 9]);
        }
        let a = extract_streams(&trace, &cfg());
        assert!(a.streams.is_sorted_by(|x, y| x.heat >= y.heat));
    }

    fn rejection(config: StreamConfig) -> String {
        let err = std::panic::catch_unwind(|| extract_streams(&[1, 2, 1, 2], &config))
            .expect_err("a broken config is rejected");
        err.downcast_ref::<String>().expect("assert message").clone()
    }

    #[test]
    fn an_empty_window_is_rejected() {
        let msg = rejection(StreamConfig { min_len: 0, max_len: 0, coverage: 0.9 });
        assert!(msg.contains("max_len 0 must be at least 1"), "{msg}");
    }

    #[test]
    fn an_inverted_window_is_rejected() {
        let msg = rejection(StreamConfig { min_len: 30, max_len: 20, coverage: 0.9 });
        assert!(msg.contains("min_len 30 must not exceed max_len 20"), "{msg}");
    }

    #[test]
    fn a_coverage_outside_the_unit_interval_is_rejected() {
        for bad in [f64::NAN, -0.5, 1.5] {
            let msg = rejection(StreamConfig { coverage: bad, ..cfg() });
            assert!(msg.contains("must be within [0, 1]"), "{bad}: {msg}");
        }
    }

    #[test]
    fn the_default_config_and_the_interval_ends_are_accepted() {
        assert_eq!(StreamConfig::default(), cfg());
        let trace = [1, 2, 1, 2, 1, 2];
        assert!(!extract_streams(&trace, &StreamConfig::default()).streams.is_empty());
        assert!(extract_streams(&trace, &StreamConfig { coverage: 0.0, ..cfg() })
            .streams
            .is_empty());
        let all = StreamConfig { min_len: 1, max_len: 1, coverage: 1.0 };
        assert!(extract_streams(&trace, &all).streams.iter().all(|s| s.symbols.len() == 1));
        // The window is checked before the trace is looked at.
        std::panic::catch_unwind(|| extract_streams(&[], &StreamConfig { max_len: 0, ..cfg() }))
            .expect_err("an empty trace does not bypass the check");
    }
}
