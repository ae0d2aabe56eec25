#!/usr/bin/env bash
# Regression-diff the experiment suite against the checked-in baselines.
#
#   scripts/bench_diff.sh [--scale LOG2] [--tol FRACTION]
#
# Runs `bench all` into a scratch dir and compares every produced report
# against results/ with `bench diff`, printing a per-figure drift table.
# Exits nonzero when any figure drifts beyond the tolerance. The baselines
# are recorded at --scale 22; diffing at another scale fails structurally
# (scale_log2 is part of the report), which is the honest answer —
# re-record baselines instead.
set -euo pipefail
cd "$(dirname "$0")/.."

scale=22
tol=0.05
while [ $# -gt 0 ]; do
    case "$1" in
        --scale) scale="$2"; shift 2 ;;
        --tol) tol="$2"; shift 2 ;;
        *) echo "usage: scripts/bench_diff.sh [--scale LOG2] [--tol FRACTION]" >&2; exit 2 ;;
    esac
done

cargo build --release --quiet -p bench

fresh_dir="$(mktemp -d)"
trap 'rm -rf "$fresh_dir"' EXIT
echo "==> fresh bench all --scale $scale (into $fresh_dir)"
if ! target/release/bench all --scale "$scale" --out "$fresh_dir" >"$fresh_dir/bench.log" 2>&1; then
    echo "fresh run failed; tail of log:"
    tail -40 "$fresh_dir/bench.log"
    exit 1
fi

echo "==> bench diff vs checked-in results/ (tol $tol)"
target/release/bench diff --baseline results --fresh "$fresh_dir" --tol "$tol"
