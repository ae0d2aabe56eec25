#!/usr/bin/env bash
# Repo-wide checks: formatting, lints (warnings are errors), docs (warnings
# are errors), the full test suite — which smoke-runs every registry
# experiment, gates it against results/smoke14 and validates the artifact
# directory (crates/bench/tests/{smoke,artifacts}.rs) — the benchmark
# package's own tests, which compile every public item listed under
# "Benchmark API surface" in perf/README.md, and one observed release-mode
# run whose artifacts CI uploads. Run from anywhere; CI runs exactly this
# script. Not run here because it takes minutes: scripts/stress_serving.sh N
# repeats the two serving suites N times under host contention, and
# scripts/bench_pair.sh <workload> <parent-ref> runs the two-clock benchmark
# in alternating parent/change pairs (medians, quartiles, wins), and
# scripts/artifact_pair.sh <parent-ref> runs the observed smoke-run on both
# sides and lists the artifact files that differ (the evidence behind "every
# artifact byte-identical"; only fig08.json and summary.md, which hold wall
# clock, differ for a change that moves no simulated number). Not a check
# but reported by every deletion PR: scripts/loc.sh prints the code-only
# line count per crate (no blanks, comments or trailing test modules); its
# total is this script's last informational line.
#
# The script leaves the tree as it found it: building perf/ makes cargo
# rewrite the stale perf/Cargo.lock, so the file is saved first and put
# back on exit, and the run fails if the set of modified tracked files at
# its end differs from the set at its start.
set -euo pipefail
cd "$(dirname "$0")/.."

modified() { git diff --name-only HEAD; }
modified_at_start=$(modified)
mkdir -p target
cp perf/Cargo.lock target/check-perf-Cargo.lock
restore_perf_lock() {
    cmp -s target/check-perf-Cargo.lock perf/Cargo.lock ||
        cp target/check-perf-Cargo.lock perf/Cargo.lock
}
trap restore_perf_lock EXIT

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --manifest-path perf/Cargo.toml (benchmark API surface)"
cargo test -q --offline --manifest-path perf/Cargo.toml

echo "==> bench all --scale 14 --observe (artifacts in target/smoke)"
rm -rf target/smoke
mkdir -p target/smoke
if ! cargo run --release --quiet -p bench -- \
    all --scale 14 --reps 1 --observe --out target/smoke >target/smoke/bench.log 2>&1; then
    echo "bench smoke-run failed; tail of log:"
    tail -40 target/smoke/bench.log
    exit 1
fi
echo "    $(ls target/smoke | wc -l) artifact files"

restore_perf_lock
if [[ "$(modified)" != "$modified_at_start" ]]; then
    echo "FAIL: the run changed the set of modified tracked files:"
    diff <(echo "$modified_at_start") <(modified) || true
    exit 1
fi

echo "All checks passed."
echo "    code-only Rust lines (scripts/loc.sh): $(bash scripts/loc.sh | awk '/^total/ { print $2 }')"
