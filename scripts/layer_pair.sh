#!/usr/bin/env bash
# Paired per-layer probe runs, parent against the working tree:
#
#   scripts/layer_pair.sh <parent-ref> [runs=3]
#
# Exports <parent-ref> with `git archive` (into the same directory
# scripts/bench_pair.sh uses, target/bench_pair/parent-<sha>, so one build
# serves both scripts; no worktree is registered in .git), builds `perf`
# there and here with identical settings, then runs `perf bench --workload
# groupby_mix --seconds 0 --trace 1` — the traced run, which also runs every
# per-layer probe — `runs` times per side, alternating which side goes
# first. Prints, for every per-layer metric of BENCHMARK.json in manifest
# order, each side's median and the change's median as a multiple of the
# parent's; fails if a run fails or if a metric whose unit starts with
# `sim_` reads differently on the two sides (a host-only change leaves every
# simulated probe exact). Raw rows stay in target/layer_pair/layers.tsv.
#
# Building here rewrites perf/Cargo.lock when it is stale; the script saves
# the file before that build and puts it back on exit. Takes a few minutes
# per run, so it is not part of scripts/check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/layer_pair.sh <parent-ref> [runs=3]"
ref="${1:?$usage}"
runs="${2:-3}"
workload=groupby_mix

parent_dir="target/bench_pair/parent-$(git rev-parse --short "$ref")"
root=target/layer_pair
echo "==> building $ref in $parent_dir and the working tree here"
# The directory is named after the commit, so a finished build stays valid.
if [[ ! -x "$parent_dir/perf/target/release/perf" ]]; then
    rm -rf "$parent_dir"
    mkdir -p "$parent_dir"
    git archive "$ref" | tar -x -C "$parent_dir"
    cargo build --release --offline --quiet --manifest-path "$parent_dir/perf/Cargo.toml"
fi
mkdir -p "$root"
cp perf/Cargo.lock "$root/perf-Cargo.lock"
trap 'cmp -s "$root/perf-Cargo.lock" perf/Cargo.lock || cp "$root/perf-Cargo.lock" perf/Cargo.lock' EXIT
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml
cp "$parent_dir/perf/target/release/perf" "$root/perf_parent"
cp perf/target/release/perf "$root/perf_change"

rows="$root/layers.tsv"
: >"$rows"
# One run: "<side> <run> <metric> <value>" for every metric line it prints.
run_side() {
    local side="$1" run="$2" out="$root/$side.out"
    "$root/perf_$side" bench --workload "$workload" --seconds 0 --trace 1 \
        >"$out" 2>"$root/$side.err" || {
        echo "FAIL: $side run $run"
        tail -20 "$root/$side.err"
        exit 1
    }
    awk -v side="$side" -v run="$run" -v w="$workload" \
        '$1 == w && NF >= 3 { print side, run, $2, $3 }' "$out" >>"$rows"
}

echo "==> $runs traced $workload runs per side"
for run in $(seq 1 "$runs"); do
    if ((run % 2)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
        run_side "$side" "$run"
    done
    echo "    run $run/$runs (${order[*]})"
done

# "<metric> <unit>" for every per-layer metric, in manifest order.
layers=$(awk -F'"' '/^  "/ { on = /"per_layer"/ } on && /"name":/ { name = $4 }
    on && /"unit":/ { print name, $4 }' BENCHMARK.json)

awk -v layers="$layers" '
function median(side, metric,    n, i, j, t, v) {
    for (i = 1; i <= runs; i++) if ((side, i, metric) in val) v[++n] = val[side, i, metric]
    for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    if (n == 0) return "nan"
    return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
}
{
    val[$1, $2, $3] = $4; if ($2 > runs) runs = $2
    # Every reading of a metric per side, to compare the simulated ones exactly.
    if (index(seen[$1, $3], " " $4 " ") == 0) seen[$1, $3] = seen[$1, $3] " " $4 " "
}
END {
    printf "%-50s %-14s %14s %14s %8s\n", "metric", "unit", "parent", "change", "ratio"
    n = split(layers, line, "\n"); bad = 0
    for (k = 1; k <= n; k++) {
        split(line[k], d, " "); metric = d[1]; unit = d[2]
        p = median("parent", metric); c = median("change", metric)
        ratio = (p == "nan" || c == "nan" || p == 0) ? "-" : sprintf("%.3f", c / p)
        flag = ""
        if (unit ~ /^sim_/ && seen["parent", metric] != seen["change", metric]) { flag = "  SIM DIFFERS"; bad++ }
        printf "%-50s %-14s %14.6g %14.6g %8s%s\n", metric, unit, p, c, ratio, flag
    }
    if (bad) { print "FAIL: " bad " simulated per-layer metric(s) differ between the sides"; exit 1 }
}' "$rows"
