//! The in-chunk reuse policies group layouts choose between.
//!
//! The paper's prototype makes exactly one layout decision per binary: a
//! single global allocator configuration. §6 names the cost — leela's and
//! roms's Table-1 fragmentation — and suggests mimalloc-style free-list
//! sharding inside group chunks as the remedy. Here the *group* is the
//! unit of optimisation: the pipeline keeps one `halo_mem`
//! `GroupAllocConfig` per group (chunk size, spare-chunk budget and a
//! [`ReusePolicy`]), fills it from a [`ReusePolicyChoice`] after grouping,
//! and under the `auto` choice revises individual groups from train-input
//! measurements.

use std::fmt;
use std::str::FromStr;

/// How freed regions inside a group's chunks are recycled.
///
/// The paper uses pure bump allocation and names its fragmentation
/// behaviour as the main avenue for improvement, suggesting "techniques
/// such as free list sharding [mimalloc] and meshing could be used in
/// place of bump allocation" (§6). [`ReusePolicy::ShardedFreeLists`]
/// implements the first suggestion: per-chunk, size-sharded free lists
/// that let a chunk recycle its own holes without any cross-chunk
/// bookkeeping, trading a little contiguity for much better practical
/// fragmentation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ReusePolicy {
    /// The paper's design: regions are never reused until their whole
    /// chunk empties.
    #[default]
    Bump,
    /// mimalloc-style sharding: freed regions go onto a per-chunk,
    /// per-size free list consulted before bumping.
    ShardedFreeLists,
}

impl fmt::Display for ReusePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReusePolicy::Bump => "bump",
            ReusePolicy::ShardedFreeLists => "sharded",
        })
    }
}

/// The reuse-policy *policy*: which [`ReusePolicy`] the pipeline gives
/// each group. `Bump` and `Sharded` apply one policy to every group;
/// `Auto` starts from bump and flips individual fragmentation-heavy groups
/// to sharded free lists when a train-input measurement validates the flip
/// (the per-group analogue of the granularity `auto` policy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ReusePolicyChoice {
    /// The paper's mode: every group bump allocates.
    #[default]
    Bump,
    /// Every group recycles through sharded free lists.
    Sharded,
    /// Decide per group, validated on the train input.
    Auto,
}

impl ReusePolicyChoice {
    /// All three choices, in CLI/reporting order.
    pub const ALL: [ReusePolicyChoice; 3] =
        [ReusePolicyChoice::Bump, ReusePolicyChoice::Sharded, ReusePolicyChoice::Auto];

    /// The concrete policy groups start from under this choice (`Auto`
    /// starts at bump and flips groups only on measured evidence).
    pub fn initial_policy(self) -> ReusePolicy {
        match self {
            ReusePolicyChoice::Sharded => ReusePolicy::ShardedFreeLists,
            ReusePolicyChoice::Bump | ReusePolicyChoice::Auto => ReusePolicy::Bump,
        }
    }
}

impl fmt::Display for ReusePolicyChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReusePolicyChoice::Bump => "bump",
            ReusePolicyChoice::Sharded => "sharded",
            ReusePolicyChoice::Auto => "auto",
        })
    }
}

impl FromStr for ReusePolicyChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "bump" => Ok(ReusePolicyChoice::Bump),
            "sharded" => Ok(ReusePolicyChoice::Sharded),
            "auto" => Ok(ReusePolicyChoice::Auto),
            other => Err(format!("unknown reuse policy '{other}' (bump|sharded|auto)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_choice_parses_and_displays_roundtrip() {
        for c in ReusePolicyChoice::ALL {
            assert_eq!(c.to_string().parse::<ReusePolicyChoice>(), Ok(c));
        }
        let err = "meshing".parse::<ReusePolicyChoice>().unwrap_err();
        assert!(err.contains("bump|sharded|auto"), "{err}");
        assert!("".parse::<ReusePolicyChoice>().is_err());
    }

    #[test]
    fn choices_start_from_the_right_policy() {
        assert_eq!(ReusePolicyChoice::Bump.initial_policy(), ReusePolicy::Bump);
        assert_eq!(ReusePolicyChoice::Auto.initial_policy(), ReusePolicy::Bump);
        assert_eq!(ReusePolicyChoice::Sharded.initial_policy(), ReusePolicy::ShardedFreeLists);
    }
}
