// The allocator fixtures of every halo_mem test module: `include!`d by
// `mod.rs` for the integration suites and straight into the unit tests
// of `group_alloc.rs` and `sharded.rs`, so it names `GroupAllocConfig`,
// `GroupSelector`, `HaloGroupAllocator`, `SelectorTable` and
// `ShardedAllocStats` as its includer imports them.

/// The call site the fixtures' requests come from.
pub fn site() -> halo_vm::CallSite {
    halo_vm::CallSite::new(halo_vm::FuncId(0), 0)
}

/// One group, on bit 0, of a two-bit state: the plan before a swap that
/// adds group 1.
#[allow(dead_code)] // the swap suites start from it
pub fn one_group_table() -> SelectorTable {
    SelectorTable::new(vec![GroupSelector { group: 0, conjunctions: vec![vec![0]] }], 2)
}

/// Two groups: group 0 on bit 0, group 1 on bit 1.
pub fn two_group_table() -> SelectorTable {
    SelectorTable::new(
        vec![
            GroupSelector { group: 0, conjunctions: vec![vec![0]] },
            GroupSelector { group: 1, conjunctions: vec![vec![1]] },
        ],
        2,
    )
}

/// 64 KiB chunks in 4 MiB slabs.
#[allow(dead_code)] // the unit tests run on `tiny_config`
pub fn small_config() -> GroupAllocConfig {
    GroupAllocConfig { chunk_size: 65_536, slab_size: 65_536 * 64, ..GroupAllocConfig::default() }
}

/// 8 KiB chunks with one spare in 64 KiB slabs, so short streams churn
/// chunks (and reach the fault sites on the way).
pub fn tiny_config() -> GroupAllocConfig {
    GroupAllocConfig {
        chunk_size: 8192,
        max_spare_chunks: 1,
        max_grouped_size: 4096,
        slab_size: 8192 * 8,
        ..GroupAllocConfig::default()
    }
}

/// Whether `ptr` lies in group slabs: every shard's sit at or above
/// `SLAB_BASE`, every fallback below it.
#[allow(dead_code)] // the group allocator asks itself
pub fn grouped(ptr: u64) -> bool {
    ptr >= HaloGroupAllocator::SLAB_BASE
}

/// Remote frees queued and not yet applied, read off one snapshot: each
/// shard's queue is read under its allocator lock, so what it queued and
/// what it drained differ by its queue's length.
#[allow(dead_code)] // only the sharded suites queue
pub fn pending(stats: ShardedAllocStats) -> u64 {
    stats.remote_frees - stats.remote_drained
}
