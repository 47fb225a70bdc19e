#!/usr/bin/env bash
# The output-equivalence matrix: every document `halo` prints, across the
# flags that change which code renders it. A change that must not alter
# output runs this on the parent's binary and on its own and `diff -r`s the
# two directories; tests/snapshots/matrix/ is the committed copy.
#
#   scripts/matrix.sh <halo-binary> <out-dir>
#
# Everything replays deterministically except the wall-clock
# `swap_latency_us` of `halo serve`, which is masked.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <halo-binary> <out-dir>" >&2
    exit 2
fi
halo=$1
out=$2
mkdir -p "$out"

# run <name> <args…>: one sweep, as JSON and as text.
run() {
    local name=$1
    shift
    "$halo" run "$@" --json > "$out/run_$name.json"
    "$halo" run "$@" > "$out/run_$name.txt"
}

run all --benchmark all
run all_shards1 --benchmark all --shards 1
run all_shards4 --benchmark all --shards 4
run all_page --benchmark all --granularity page
run all_inject --benchmark all --inject seed=7,vmm@1
run mt_shards4 --benchmark xalanc-mt,server --shards 4
run mt_shards4_inject --benchmark xalanc-mt,server --shards 4 --inject seed=7,vmm@1,queue~0.01

# The evaluate schedule must be invisible: fewer workers than jobs (1, 2,
# 3) and more (8) print the serial run's bytes.
for t in 1 2 3 8; do
    HALO_THREADS=$t "$halo" run --benchmark roms,omnetpp,povray \
        --hds --random --ptmalloc --shards 4 --json > "$out/run_schedule_t$t.json"
    HALO_THREADS=$t "$halo" run --benchmark roms,omnetpp,povray \
        --hds --random --ptmalloc --shards 4 > "$out/run_schedule_t$t.txt"
    cmp "$out/run_schedule_t1.json" "$out/run_schedule_t$t.json"
    cmp "$out/run_schedule_t1.txt" "$out/run_schedule_t$t.txt"
done

"$halo" plot --metric misses > "$out/plot_misses.txt"
"$halo" plot --metric speedup > "$out/plot_speedup.txt"
"$halo" baseline --json > "$out/baseline.json"
"$halo" baseline > "$out/baseline.txt"
"$halo" list > "$out/list.txt"

# serve <name> <args…>: the latency field of the JSON rows and the latency
# column of the text rows are wall-clock.
serve() {
    local name=$1
    shift
    "$halo" serve --phases server:1,xalanc-mt:2 "$@" --json |
        sed -E 's/"swap_latency_us":[0-9.]+/"swap_latency_us":0/g' > "$out/serve_$name.json"
    "$halo" serve --phases server:1,xalanc-mt:2 "$@" |
        sed -E 's/^([0-9]+ +[^ ]+ +[0-9]+ +[^ ]+ +[^ ]+) +[0-9.]+ /\1 - /' > "$out/serve_$name.txt"
}

serve default
serve shards2 --shards 2
serve regroup2 --regroup-every 2

# The serve schedule must be invisible too: the twin chain on its helper
# thread and the serve chain on the caller print the serial loop's bytes
# at one thread (both chains on the caller), two, and more than two.
for t in 1 2 3 8; do
    HALO_THREADS=$t serve schedule_t$t --shards 4
    cmp "$out/serve_schedule_t1.json" "$out/serve_schedule_t$t.json"
    cmp "$out/serve_schedule_t1.txt" "$out/serve_schedule_t$t.txt"
done
