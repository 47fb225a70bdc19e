#!/usr/bin/env bash
# The benchmark's one command. Run it from anywhere; it works from the
# repository root.
#
#   benchmark/run.sh                       full set: every workload untraced,
#                                          then traced; writes benchmark/out/
#   benchmark/run.sh --smoke               the same at ~1/20 scale (< 30 s)
#   benchmark/run.sh --check-repeat        two full sets, compared with the
#                                          benchmark's own rule
#   benchmark/run.sh --pin-baseline        rewrite expected/baseline.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run (what the driver calls);
#                                          the last stdout line is its result
#
# Options for the set modes: --seed N (default 0), --seconds S.
# Exit code: non-zero when the build fails, a run fails its output checks,
# or --check-repeat finds a disagreement.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
# Build output goes to stderr so stdout stays the benchmark's.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    --target-dir "$target" >&2
bin="$target/release/benchmark"

stamp=(--stamp-rustc "$(rustc -V 2>/dev/null || echo unknown)"
       --stamp-git "$(git rev-parse HEAD 2>/dev/null || echo unknown)")

mode=set
seed=0
seconds=""
smoke=()
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
        --workload) mode=single ;;
        --check-repeat) mode=repeat ;;
        --pin-baseline) mode=pin ;;
        --smoke) smoke=(--smoke) ;;
        --seed) seed="${args[i + 1]:-0}" ;;
        --seconds) seconds="${args[i + 1]:-}" ;;
    esac
done

if [[ $mode == single ]]; then
    exec "$bin" run "${stamp[@]}" "$@"
fi

if [[ $mode == pin ]]; then
    "$bin" pin-baseline > benchmark/expected/baseline.json.new
    mv benchmark/expected/baseline.json.new benchmark/expected/baseline.json
    echo "re-pinned benchmark/expected/baseline.json; rebuild to compile it in" >&2
    exit 0
fi

workloads=(spec-sweep serve-shift graph-scale alloc-churn)

# One set: every workload untraced (end-to-end metrics), then traced
# (per-layer metrics), one process per workload and mode.
run_set() {
    local out="$1"
    mkdir -p "$out"
    local common=(--seed "$seed" --out "$out" "${smoke[@]}" "${stamp[@]}")
    [[ -n $seconds ]] && common+=(--seconds "$seconds")
    for trace in 0 1; do
        for w in "${workloads[@]}"; do
            # The last line is the driver's; people read the table.
            "$bin" run --workload "$w" --trace "$trace" "${common[@]}" | sed '$d'
        done
    done
    "$bin" report "$out"
}

if [[ $mode == repeat ]]; then
    run_set benchmark/out/repeat-a
    run_set benchmark/out/repeat-b
    "$bin" compare benchmark/out/repeat-a/results.json benchmark/out/repeat-b/results.json
else
    run_set benchmark/out
fi
