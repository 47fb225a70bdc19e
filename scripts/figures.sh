#!/usr/bin/env bash
# The figure snapshot: everything the fifteen harnesses under
# crates/bench/benches/ print (Fig. 9, 12-15, Table 1, the §5.1 baseline
# comparison and the ablations), one file per harness.
# tests/snapshots/figures/ is the committed copy; EXPERIMENTS.md quotes it.
#
#   scripts/figures.sh <out-dir>
#
# Every row is seeded simulation and replays byte for byte, at any
# HALO_THREADS. The one host-dependent string is the temp-dir path
# fig09_povray_groups prints for its Graphviz file: the harnesses run with
# TMPDIR=<out-dir> (so the .dot lands beside the text) and the path is
# masked.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <out-dir>" >&2
    exit 2
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."

cargo bench --no-run -p halo_bench
for src in crates/bench/benches/*.rs; do
    bench=$(basename "$src" .rs)
    TMPDIR="$out" cargo bench -q -p halo_bench --bench "$bench" |
        sed "s|$out|<out-dir>|g" > "$out/$bench.txt"
done
