#!/usr/bin/env bash
# Observed-artifact comparison, parent against the working tree:
#
#   scripts/artifact_pair.sh <parent-ref>
#
# Backs the claim "every artifact byte-identical". Exports <parent-ref> with
# `git archive` into target/artifact_pair/ (the committed files in a new
# directory; no worktree is registered in .git), builds `bench` there and
# here, runs `bench all --scale 14 --reps 1 --observe --out <dir>` on both
# sides, then `diff -rq`s the two artifact directories and prints, for each
# file that differs, how many lines differ. fig08.json, summary.md and
# fidelity.json carry the CPU baseline's wall clock and differ on every run
# (a parent that predates fidelity.json lists it as "Only in"); anything
# else that differs is a change to a simulated number or to an exporter and
# belongs in CHANGES.md. Exits 0 either way: this is a report, not a gate (the gate is
# `bench gate`). Takes a few minutes the first time a ref is built, so it is
# not part of scripts/check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

ref="${1:?usage: scripts/artifact_pair.sh <parent-ref>}"
root=target/artifact_pair
parent_dir="$root/parent-$(git rev-parse --short "$ref")"
echo "==> building $ref in $parent_dir and the working tree here"
# The directory is named after the commit, so a finished build stays valid.
if [[ ! -x "$parent_dir/target/release/bench" ]]; then
    rm -rf "$parent_dir"
    mkdir -p "$parent_dir"
    git archive "$ref" | tar -x -C "$parent_dir"
    cargo build --release --offline --quiet -p bench --manifest-path "$parent_dir/Cargo.toml"
fi
cargo build --release --offline --quiet -p bench

run_side() {
    local bin="$1" out="$2"
    rm -rf "$out"
    mkdir -p "$out"
    if ! "$bin" all --scale 14 --reps 1 --observe --out "$out" >"$out.log" 2>&1; then
        echo "FAIL: $bin; tail of $out.log:"
        tail -20 "$out.log"
        exit 1
    fi
}
echo "==> bench all --scale 14 --reps 1 --observe on both sides"
run_side "$parent_dir/target/release/bench" "$root/artifacts-parent"
run_side target/release/bench "$root/artifacts-change"

echo "==> diff -rq $root/artifacts-parent $root/artifacts-change"
differing=0
while read -r line; do
    differing=$((differing + 1))
    if [[ "$line" == Files* ]]; then
        read -r _ a _ b _ <<<"$line"
        # One `<` and one `>` line per changed line; count the larger side.
        n=$( (diff "$a" "$b" || true) | awk '/^</ { l++ } /^>/ { r++ } END { print (l > r ? l : r) + 0 }')
        printf '%-16s %6d differing lines\n' "$(basename "$a")" "$n"
    else
        echo "$line"
    fi
done < <(diff -rq "$root/artifacts-parent" "$root/artifacts-change" || true)
total=$(find "$root/artifacts-change" -type f | wc -l)
echo "$differing of $total files differ (fig08.json, summary.md and fidelity.json hold wall-clock time)"
