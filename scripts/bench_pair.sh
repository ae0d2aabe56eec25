#!/usr/bin/env bash
# Paired two-clock benchmark runs, parent against the working tree:
#
#   scripts/bench_pair.sh <workload> <parent-ref> [pairs=10] [seed=42]
#
# Exports <parent-ref> with `git archive` into target/bench_pair/ (the
# committed files in a new directory, which is what the benchmark driver
# builds; no worktree is registered in .git), builds `perf` there and here
# with identical settings, then runs `perf bench --workload <workload>
# --trace 0` for BENCHMARK.json's run_seconds on both binaries `pairs`
# times, alternating which side goes first. Prints, for every end-to-end
# metric of BENCHMARK.json plus the child's user and sys CPU seconds, each
# side's median and quartiles, the change's wins out of the pairs run (ties
# count for neither side) and the parent's interquartile spread the medians
# must differ by; fails if a run fails or the two sides' sim_fingerprint
# differ. Raw rows stay in target/bench_pair/<workload>-s<seed>.tsv.
#
# Building here rewrites perf/Cargo.lock when it is stale; the script saves
# the file before that build and puts it back on exit. Takes minutes
# (2 x pairs x ~run_seconds), so it is not part of scripts/check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/bench_pair.sh <workload> <parent-ref> [pairs=10] [seed=42]"
workload="${1:?$usage}"
ref="${2:?$usage}"
pairs="${3:-10}"
seed="${4:-42}"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)

root=target/bench_pair
parent_dir="$root/parent-$(git rev-parse --short "$ref")"
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

rows="$root/$workload-s$seed.tsv"
: >"$rows"
# One run: "<side> <pair> <metric> <value>" rows for every line the
# workload prints, plus the child's CPU seconds from bash's `time`.
run_side() {
    local side="$1" pair="$2" out="$root/$side.out" cpu="$root/$side.cpu"
    local TIMEFORMAT='%U %S'
    { time "$root/perf_$side" bench --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 >"$out" 2>"$root/$side.err"; } 2>"$cpu" || {
        echo "FAIL: $side run of pair $pair"
        tail -20 "$root/$side.err"
        exit 1
    }
    awk -v side="$side" -v pair="$pair" -v w="$workload" \
        '$1 == w && NF >= 3 { print side, pair, $2, $3 }' "$out" >>"$rows"
    awk -v side="$side" -v pair="$pair" \
        '{ print side, pair, "user_s", $1; print side, pair, "sys_s", $2 }' "$cpu" >>"$rows"
}

echo "==> $pairs pairs of $workload, seed $seed, $seconds s each"
for pair in $(seq 1 "$pairs"); do
    if ((pair % 2)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
        run_side "$side" "$pair"
    done
    echo "    pair $pair/$pairs (${order[*]})"
done

# "<metric> <lower|higher>" for every end-to-end metric, in manifest order.
directions=$(awk -F'"' '/^  "/ { on = /"end_to_end"/ } on && /"name":/ { name = $4 }
    on && /"better":/ { print name, $4 }' BENCHMARK.json
    printf 'user_s lower\nsys_s lower\n')

awk -v directions="$directions" '
function quantile(v, n, q,    pos, lo) {   # linear interpolation on sorted v[1..n]
    pos = 1 + (n - 1) * q; lo = int(pos)
    return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
function summarize(side, metric,    n, i, j, t, v) {
    for (i = 1; i <= pairs; i++) if ((side, i, metric) in val) v[++n] = val[side, i, metric]
    for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    med[side] = quantile(v, n, 0.5); q1[side] = quantile(v, n, 0.25); q3[side] = quantile(v, n, 0.75)
}
$3 == "sim_fingerprint" { fp[$1] = fp[$1] (index(fp[$1], $4) ? "" : " " $4); next }
{ val[$1, $2, $3] = $4; if ($2 > pairs) pairs = $2 }
END {
    printf "%-22s %-6s %34s %34s %8s %6s %10s\n", "metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "change", "wins", "parent iqr"
    n = split(directions, line, "\n")
    for (k = 1; k <= n; k++) {
        split(line[k], d, " "); metric = d[1]; lower = d[2] == "lower"
        summarize("parent", metric); summarize("change", metric)
        wins = 0
        for (i = 1; i <= pairs; i++) {
            p = val["parent", i, metric]; c = val["change", i, metric]
            if (lower ? c < p : c > p) wins++
        }
        rel = med["parent"] == 0 ? 0 : 100 * (med["change"] - med["parent"]) / med["parent"]
        printf "%-22s %-6s %12.6g [%9.6g,%9.6g] %12.6g [%9.6g,%9.6g] %+7.1f%% %3d/%-2d %10.4g\n", metric, d[2], med["parent"], q1["parent"], q3["parent"], med["change"], q1["change"], q3["change"], rel, wins, pairs, q3["parent"] - q1["parent"]
    }
    printf "sim_fingerprint parent%s change%s\n", fp["parent"], fp["change"]
    if (fp["parent"] != fp["change"]) { print "FAIL: sim_fingerprint differs between the sides"; exit 1 }
}' "$rows"
