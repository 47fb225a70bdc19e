#!/usr/bin/env bash
# The source guards: every rule about the tree that a grep can check.
#
#   scripts/guards.sh [ROOT]
#
# ROOT is the checkout to check (default: the one this script is in).
# Pointing it at a clone of an older commit shows which rules that
# commit breaks, which is how a new guard is shown failing on its parent.
#
# Every check is one pipeline ending in `count OP N`: the lines that
# reach `count` are the offences, and the check fails when their number
# breaks `OP N`. A check also fails when it cannot read a path it names,
# so a renamed file never passes by matching nothing. The comment above
# a check is its reason. Every check runs; each failure prints its
# offences, its line and its reason, and the script exits 1 if any
# check failed.
set -o pipefail
here=$(cd "$(dirname "$0")" && pwd)
self=$here/$(basename "$0")
cd "${1:-$here/..}" || exit 2
failed=0

# count OP N: pass when the number of lines on stdin satisfies `test
# LINES OP N`; otherwise print them and fail.
count() {
    local line offences="" n=0
    while IFS= read -r line; do
        offences+="    $line"$'\n'
        n=$((n + 1))
    done
    test "$n" "$1" "$2" && return
    printf '%s' "$offences"
    echo "    $n lines; the check wants $1 $2"
    return 1
}

# grep that fails only when it cannot read a path (grep exits 1 when
# nothing matches and 2 on an error), so a clean check passes pipefail.
search() {
    grep "$@"
    test $? -le 1
}

# The shipped half of each Rust file (everything before its `mod
# tests`), as file:line:text.
shipped() {
    awk '/^mod tests/ { nextfile } { print FILENAME ":" FNR ":" $0 }' "$@"
}

# A failed check: where it is, what it runs, and the comment block above
# it.
fail() {
    failed=$((failed + 1))
    echo "FAILED scripts/guards.sh:$1: $(sed -n "$1p" "$self")"
    awk -v n="$1" 'NR >= n { exit } /^#/ { if (!open) text = ""; text = text $0 "\n"; open = 1; next } { open = 0 } END { printf "%s\n", text }' "$self"
}
trap 'fail $LINENO' ERR

# -- One cache model --------------------------------------------------
# halo_cache ships exactly one hierarchy; its slow-walk oracle lives
# under crates/cache/tests/. A forked model has to be built and proved
# twice, so it must not come back quietly.
search -rnE '\b(struct|enum|type|trait|union) +(Reference\w*|\w*Hierarchy)\b' crates/cache/src | search -vE '\bstruct CoherentHierarchy\b' | count -eq 0

# -- One recency representation ---------------------------------------
# Every structure in halo_cache — L1D, dTLB, L2, L3 — is a
# `SetAssocCache` and walks a set with the one kernel in set_assoc.rs
# (DESIGN.md §14): tags that never move plus one packed order word per
# set. No per-slot timestamps or access clock beside it; the
# move-to-front list lives on only as the oracle under
# crates/cache/tests/reference/.
search -rnE '\bstamps?\b|\bclock\b|copy_within|rotate_(left|right)' crates/cache/src | count -eq 0

# -- One set-associative cache ----------------------------------------
# A cache level has one implementation with one free-way rule: a tag is
# the complement of its line, so a free way is tag 0, and free ways wait
# at the LRU end (DESIGN.md §14). `walk(` occurs twice in shipped code,
# its definition and `SetAssocCache`'s one call; the L1D's MESI-lite
# states ride beside its slots. A second set type over the kernel, an
# `EMPTY` sentinel or a per-set occupancy array is a second rule for a
# free way.
shipped crates/cache/src/*.rs | search -E '\bwalk\(' | count -le 2
shipped crates/cache/src/*.rs | search -E '\bEMPTY\b|\blen\[|\boccupied\b|(tags|order): *(Box|Vec)' | count -eq 0

# -- Address-indexed allocator metadata -------------------------------
# halo_mem finds a pointer's metadata by address arithmetic (DESIGN.md
# §6). The pointer-keyed SipHash maps, the free-slot BTreeSet and the
# chunk BTreeMap live on only as the oracle in
# crates/mem/tests/metadata_reference.rs; a map keyed by a trusted
# integer has to name FastIntState.
search -rnE 'HashMap<u64,' crates/mem/src | search -v 'FastIntState' | count -eq 0
search -rnE 'BTreeSet<u64>|BTreeMap<u64, *Chunk>' crates/mem/src | count -eq 0

# -- One bench system -------------------------------------------------
# benchmark/ is the one instrument (DESIGN.md §5): no `halo bench`, no
# BENCH_profile.json schema, no micro-bench targets and no vendored
# Criterion stand-in. The bare word "criterion" stays legal: comments
# use it in English.
search -rnE 'criterion::|criterion_main|compat/criterion|halo-bench/v1|BENCH_profile|HALO_GRAPH_BENCH_NODES' src crates compat tests Cargo.toml Cargo.lock | count -eq 0

# -- One report path --------------------------------------------------
# `halo` prints JSON through src/json.rs, so src/main.rs holds no
# escaped quote. In the shipped half of sharded.rs a shard's allocator
# lock is taken by `lock_shard` itself, `service_shard`, `swap_plans`,
# `set_fault_injector` and `read_shard`, the step of the read sweep
# `read_shards` that `live_size` shares; its queue lock by
# `lock_remote` itself, a drain, a push and that step (DESIGN.md §10).
# A getter that sweeps the shards on its own again is one site too many.
search -n '\\"' src/main.rs | count -eq 0
shipped crates/mem/src/sharded.rs | search 'lock_shard(' | count -le 6
shipped crates/mem/src/sharded.rs | search 'lock_remote(' | count -le 4
# An arena takes one snapshot of itself, `HaloGroupAllocator::report`,
# and the sharded report merges its shards' snapshots: `read_shards(` is
# called by `report`, `live_grouped_bytes`, `live_bytes` and
# `live_objects` only, and every other reader projects `report`. A
# quarantined shard is flagged once, on its allocator, so the flag
# survives a plan swap; a second flag beside it in `ShardState`, a
# degradation reader that leaves the injected faults out, or a report the
# backend registry assembles by hand is a second copy of that fact.
shipped crates/mem/src/sharded.rs | search 'read_shards(' | count -le 4
search -rn 'degrade_raw' crates src tests examples | count -eq 0
search -nE 'degraded: *bool' crates/mem/src/sharded.rs | count -eq 0
search -n 'ShardedAllocStats {' crates/mem/src/backend.rs | count -eq 0

# -- One allocator contract -------------------------------------------
# `realloc`'s move is halo_vm's `realloc_by_move`, the only shipped
# `mem.copy(` of halo_vm + halo_mem; an allocator that overrides
# `realloc` ends there (DESIGN.md §6). `HaloGroupAllocator` has no type
# parameter — its fallback is the size-class baseline. The sharded
# runtime's bodies live in `impl SyncVmAllocator` and the exclusive face
# forwards (§10), a boxed allocator reaches the engine as `&mut *b`, and
# the backend registry states what a constructor needs in its type
# rather than `expect`ing it (§9).
shipped crates/vm/src/*.rs crates/mem/src/*.rs | search 'mem\.copy(' | count -eq 1
search -rn --include='*.rs' 'HaloGroupAllocator<' crates src tests examples | count -eq 0
shipped crates/mem/src/sharded.rs | search '_impl(' | count -eq 0
search -rn 'impl<A: VmAllocator + ?Sized> VmAllocator for Box<A>' crates/vm/src | count -eq 0
shipped crates/core/src/backend.rs | search 'expect(' | count -eq 0

# -- One pipeline front door ------------------------------------------
# `Halo::assemble` is the one path from a graph to a plan: it borrows the
# profile and the graph it groups, so neither is cloned on the way, and
# it is the only caller of `identify` and `instrument` in halo_core
# (DESIGN.md §1). The figure harnesses and the CLI reach a measured plan
# through halo_bench's `optimise` / `baseline` / `halo_run` (DESIGN.md
# §5), which always carry the measurement geometry to the validators: a
# harness that builds its own `Halo` or baseline allocator is a
# hand-rolled copy of that door.
shipped crates/core/src/pipeline.rs crates/core/src/serve.rs | search -E '(profile|window|graph\(\)|graph)\.clone\(\)' | count -eq 0
shipped crates/bench/benches/*.rs src/main.rs | search -E 'Halo::new\(|optimise_with_arg\(|SizeClassAllocator::new\(\)' | count -eq 0
shipped crates/core/src/*.rs | search -E '\bidentify\(' | count -eq 1
shipped crates/core/src/*.rs | search -E '\binstrument\(' | count -eq 1

# -- One offline hand-off ---------------------------------------------
# A profiling lane records one `SubGraph` and `Profiler::finish` adopts
# it: the serial profiler has no per-thread shards to count, no merge
# strategy to be handed and no thread pool to open
# (`par_merge_subgraphs` is the scale path `graph-scale` times, not a
# step of `Halo::profile_with_arg`). Fig. 7's score and Fig. 8's merge
# benefit are the two private helpers of `grouping.rs`, their one
# caller. `apply_to`, the slow delta → graph path `into_graph` is held
# to, and `neighbours` are test helpers of
# crates/graph/tests/csr_reference.rs over the public API (DESIGN.md
# §7, §13).
search -rnE 'SubgraphScore|score_of_members|fn (apply_to|adjacency|neighbours|finish_with|take_graph)\b|shard_count' crates/graph/src crates/profile/src | count -eq 0
search -n 'finish_with\|par_merge_subgraphs' crates/core/src/pipeline.rs | count -eq 0
ls crates/graph/src | search -x 'score.rs' | count -eq 0

# -- Train-input analyses ---------------------------------------------
# SEQUITUR keys its digram index by one packed u64 under FastIntState,
# hot-stream minimality probes an index of the selected streams instead
# of scanning every pair with `windows`, and the profiler reads
# co-allocatability off one neighbour of each allocation in its
# context's history instead of four binary searches (DESIGN.md §7,
# §18). The tuple-keyed builder, the all-pairs scan and the binary
# searches live on only as the oracles under crates/hds/tests/ and
# crates/profile/tests/.
search -rn 'HashMap<(Sym, Sym)' crates/hds/src | count -eq 0
search -n 'windows(' crates/hds/src/streams.rs | count -eq 0
search -n 'partition_point' crates/profile/src/profiler.rs | count -eq 0

# -- What ships is what runs ------------------------------------------
# A shipped item that nothing reaches — not `halo`, a harness, an
# example, benchmark/, a doctest or an integration test — goes, and code
# only a harness calls lives in that harness's crate: the modularity /
# HCS clusterers are `halo_bench::alt`, beside the grouping ablation
# (DESIGN.md §5). The remote-free queue bound is a constant, not an
# atomic only tests set (§10). The proptest stand-in depends on nothing,
# so testing a crate never builds the crates above it (§7);
# `CacheMonitor` is private to `measure_detailed`, its one user.
ls crates/vm/src | search -x 'disasm.rs' | count -eq 0
ls crates/graph/src | search -x 'alt.rs' | count -eq 0
search -rn 'remote_queue_cap' crates/mem/src | count -eq 0
search -n 'halo_' compat/proptest/Cargo.toml | count -eq 0
search -n 'CacheMonitor' crates/core/src/lib.rs | count -eq 0

# -- Configs carry only what a caller varies --------------------------
# A config field that no caller sets to anything but its default is a
# constant with extra steps: the dTLB page is `PAGE_BYTES` (so a span
# unit is a shift, never a division), the profiler's object cap is
# `MAX_TRACKED_SIZE`, the group slabs start at
# `HaloGroupAllocator::SLAB_BASE` (so `MAX_SHARDS` is a constant), the
# comparison technique keeps every packed set (DESIGN.md §2), and an
# `Optimised` backend is always measured on the rewritten binary (§9).
search -rn 'page_bytes' crates/cache/src | count -eq 0
search -rn 'max_tracked_size' crates/profile/src crates/bench/src | count -eq 0
search -n 'pub base:' crates/mem/src/group_alloc.rs | count -eq 0
search -n 'max_groups' crates/hds/src/lib.rs | count -eq 0
search -n 'addr / self.bytes' crates/cache/src/span.rs | count -eq 0
search -rnE '\brewritten:|\{ rewritten,' crates/core/src | count -eq 0

# -- Say each thing once ----------------------------------------------
# The models emit their allocation wrappers through
# `util::malloc_wrapper`, and xalanc-mt builds on xalanc's parse chain
# instead of restating it (DESIGN.md §4). `calloc` is `VmAllocator`'s
# default alone — neither `SyncVmAllocator` nor the `&A` bridge repeats
# it — and `Op::Call` / `Op::CallIndirect` share one frame push once the
# callee is known (§6, §16). `HdsResult` carries the site map only; its
# inverse is a helper of halo_hds's unit tests. (`-w`: the crate docs
# link `with_site_groups`.)
search -rnF --exclude=util.rs 'f.malloc(r(0), r(1));' crates/workloads/src | count -eq 0
search -n 'call_indirect' crates/workloads/src/xalanc_mt.rs | count -eq 0
shipped crates/vm/src/engine.rs | search 'fn calloc' | count -eq 1
shipped crates/vm/src/engine.rs | search 'let mut callee_regs' | count -eq 1
shipped crates/hds/src/lib.rs | search -w 'site_groups' | count -eq 0

# -- One owner per serve allocator ------------------------------------
# `serve` runs its twin chain on one helper thread that takes the static
# allocator by move, and its serve chain on the calling thread, so each
# sharded allocator has one OS thread by construction and the tests read
# their hooks where the chain wrote them (DESIGN.md §15). A fan-out on
# `par_map`, a courier for the hooks or a `#[cfg(test)]` in a function
# body makes that a property of which worker claims which job again.
# The shard bound is compared in one place,
# `ShardedHaloAllocator::check_shards`, which the CLI, `serve` and the
# constructor call; a second comparison is a second text for one rule.
shipped crates/core/src/serve.rs | search -E 'par_map|mod hooks|^[^:]+:[0-9]+:[[:space:]]+#\[cfg\(test\)\]' | count -eq 0
shipped crates/*/src/*.rs src/*.rs | awk '/fn check_shards\(/ { inside = 1 } inside && /:    }$/ { inside = 0 } !inside && /MAX_SHARDS/ && !/:[[:space:]]*\/\/|const MAX_SHARDS/' | count -eq 0

# -- One flag table ---------------------------------------------------
# Every `halo` flag is one row of `FLAGS` in src/main.rs — its name, the
# commands that read it, the form of its value — and each command's list
# in an "only accepts" error is that table filtered. A flag's name is
# quoted in its row and its parse arm only: a third quote is a
# per-command list again, which can drift from the parse arms.
search -oE '"--[a-z-]+"' src/main.rs | sort | uniq -c | awk '$1 > 2' | count -eq 0

# -- One plan check ---------------------------------------------------
# A layout plan meets the chunk rule in `GroupAllocConfig::group_table`,
# once per constructor or swap whatever the shard count, and takes effect
# through `HaloGroupAllocator::install` (DESIGN.md §6, §15). Beside it the
# rule is reached only by `with_chunk_size`, its front for user input, and
# by `build`'s check of the allocator-wide chunk size; a fourth call is a
# second expansion of the plan or a check repeated per shard.
shipped crates/mem/src/*.rs | search -E '(check_chunk_size|validate_chunk)\(' | search -vE 'fn (check_chunk_size|validate_chunk)\(' | count -le 3

# -- One per-group layout ---------------------------------------------
# A group's layout has one type, the `GroupAllocConfig` the allocator
# runs: `Halo::assemble` builds the per-group table once, `resolve_reuse`
# revises it, and every constructor and plan swap takes it as it is
# (DESIGN.md §9). A second layout type needs a translation and a test
# that keeps two defaults in step; a translation step in halo_core is a
# second place the table is made.
search -rnw GroupPlan crates src tests examples | count -eq 0
shipped crates/core/src/*.rs | search -w alloc_plan | count -eq 0
# The paper configuration states only what differs from the crates'
# defaults; a restated default is a third copy that can drift.
search -nE 'max_grouped_size|keep_fraction' crates/bench/src/lib.rs | count -eq 0

# -- Repeated code ----------------------------------------------------
# scripts/repeats.py lists the 4-line windows of shipped code that occur
# more than once. Seven are kept on purpose (csr.rs's two probe loops,
# memory.rs's two page walks, engine.rs's two division checks,
# grouping.rs's two candidate scans, the realloc retirement in
# profiler.rs and trace.rs); an eighth is a body written twice.
python3 "$here/repeats.py" . | search -vE '^ |repeated windows$' | count -le 7

# -- Repeated test code -----------------------------------------------
# The same count over the test halves (`--tests`): the Fig. 2 programs
# are crates/core/tests/common/fig2.rs, the allocator fixtures and the
# live-set model crates/mem/tests/common/, the workload runs one helper in
# halo_workloads' lib tests. 25 windows are kept. Eight cross a line test
# code cannot: another crate's tests (alt.rs / affinity.rs three-node
# graphs, 2; the `main_only` builders of engine.rs / util.rs and
# profiler.rs / fig2.rs, 3; pipeline.rs / profiler.rs one-object programs;
# affinity.rs / profiler.rs fraction rejections) or a unit module's from an
# integration suite's (sharded.rs / chaos_faults.rs grouped malloc). Four
# are the move-to-front oracle under crates/cache/tests/reference/, which
# spells out each recency walk. Thirteen are two- to four-statement setups
# shared by two or three tests of one file: sharded.rs (3), group_alloc.rs,
# grouping.rs, ident's lib.rs, metadata_reference.rs's two sides and two
# free arms (2), profiler.rs's loop head, trace.rs's run, the empty
# program of coallocatable_reference.rs / no_alloc_steady_state.rs (2),
# and pipeline_end_to_end.rs. A 26th is a fixture written twice.
python3 "$here/repeats.py" . --tests | search -vE '^ |repeated windows$' | count -le 25

# -- Design citations -------------------------------------------------
# Code, scripts and CI cite DESIGN.md by section number; every cited
# section must be a `## §N` heading of DESIGN.md.
sections=$(sed -n 's/^## §\([0-9]*\) .*/\1/p' DESIGN.md | paste -sd '|' -)
search -rnoE 'DESIGN\.md §[0-9]+(, §[0-9]+)*' crates src tests scripts examples compat benchmark/src .github | search -vE ":DESIGN\.md §($sections)(, §($sections))*\$" | count -eq 0

if [ "$failed" -gt 0 ]; then
    echo "guards: $failed failed"
    exit 1
fi
echo "guards: all passed"
