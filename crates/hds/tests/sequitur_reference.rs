//! Packed-key SEQUITUR ≡ the tuple-keyed original (DESIGN.md §18).
//!
//! `halo_hds::Sequitur` keys its digram index by `(enc(a) << 32) | enc(b)`
//! under `FastIntState`, with bit 31 of `enc` tagging a rule reference.
//! The claim is that this is the same index as the original
//! `HashMap<(Sym, Sym), u32>`, so the grammar is the same rule for rule.
//! The property drives both builders with one input and compares, after
//! every push, the live rules, each body and use count, and each rule's
//! frequency in a `Grammar` built over the same prefix — over alphabets of
//! 2, 3, 16 and 4096 terminals, at the bottom of the range and right below
//! the tag bit, with repeated stretches so that large alphabets nest
//! rules too.

mod reference;

use halo_hds::{Grammar, Sequitur, Sym};
use proptest::prelude::*;
use reference::{DigramKey, RefSequitur, TupleKey};

/// After every push of `input`, the shipped builder and `oracle` hold the
/// same grammar.
fn assert_matches_after_every_push<K: DigramKey>(input: &[u32], mut oracle: RefSequitur<K>) {
    let mut ours = Sequitur::new();
    for (i, &t) in input.iter().enumerate() {
        ours.push(t);
        oracle.push(t);
        let live: Vec<u32> = ours.live_rules().collect();
        assert_eq!(live, oracle.live_rules(), "live rules after push {i}");
        for &r in &live {
            assert_eq!(ours.body(r), oracle.body(r), "body of rule {r} after push {i}");
            assert_eq!(ours.rule_uses(r), oracle.rule_uses(r), "uses of rule {r} after push {i}");
        }
        let grammar = Grammar::build(&input[..=i]);
        let want = oracle.frequencies();
        for &r in &live {
            assert_eq!(
                grammar.frequency(r),
                want[r as usize],
                "frequency of rule {r} after push {i}"
            );
        }
    }
}

/// `raw` folded into `alphabet` terminals — starting at 0, or ending at
/// 2³¹ − 1 when `near_limit` — with each `(at, len)` of `repeats` copying
/// an earlier stretch to the end.
fn input(alphabet: u32, near_limit: bool, raw: &[u32], repeats: &[(usize, usize)]) -> Vec<u32> {
    let base = if near_limit { (1 << 31) - alphabet } else { 0 };
    let mut out: Vec<u32> = raw.iter().map(|&x| base + x % alphabet).collect();
    for &(at, len) in repeats {
        let at = at % out.len().max(1);
        let stretch: Vec<u32> = out.iter().skip(at).take(len).copied().collect();
        out.extend(stretch);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_key_grammar_matches_the_tuple_key_reference(
        alphabet in prop_oneof![Just(2u32), Just(3u32), Just(16u32), Just(4096u32)],
        near_limit in any::<bool>(),
        raw in proptest::collection::vec(0u32..4096, 0..160),
        repeats in proptest::collection::vec((0usize..160, 1usize..40), 0..6),
    ) {
        let input = input(alphabet, near_limit, &raw, &repeats);
        assert_matches_after_every_push(&input, RefSequitur::<TupleKey>::new());
    }
}

/// The seeded mutation: the shipped packing without its tag bit, so that
/// `T(k)` and `R(k)` share a key.
struct UntaggedKey;

impl DigramKey for UntaggedKey {
    type Key = u64;

    fn of(a: Sym, b: Sym) -> u64 {
        let enc = |s| match s {
            Sym::T(k) | Sym::R(k) => u64::from(k),
        };
        enc(a) << 32 | enc(b)
    }
}

#[test]
#[should_panic(expected = "after push")]
fn a_packing_without_the_tag_bit_fails_the_check() {
    // `1 2 1 2` makes rule 1 = `1 2`; the next `2` forms the digram
    // `R(1) T(2)`, which the untagged key confuses with rule 1's body.
    assert_matches_after_every_push(&[1, 2, 1, 2, 2], RefSequitur::<UntaggedKey>::new());
}
