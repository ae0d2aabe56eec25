#!/usr/bin/env bash
# Repo-wide checks: formatting, the one-table gate (no std::collections
# HashMap/HashSet in crates/{primitives,joins,groupby}/src outside oracle.rs
# and trailing #[cfg(test)] modules: operators find matches and groups in
# the simulator's own tables, primitives::{PartitionTable, GlobalHashTable}),
# the range gate (no whole-buffer contiguous stream `(0..n).map(|i|
# buf.addr_of(i))` in non-test code under crates/*/src, same skips: such a
# stream is charged by sector through sim::KernelBuilder::contiguous_loads,
# not lane by lane through warp_loads/warp_stores), the one-skeleton gate
# (`timed_phase(dev, "transform"` in non-test code only in
# crates/joins/src/driver.rs and crates/groupby/src/driver.rs, same skips:
# every join and group-by runs Algorithm 1 through its crate's one driver
# and recipe table), the one-emit gate (in non-test code under
# crates/sim/src, same skips, `trace.as_deref_mut()` appears only in
# DeviceState::emit and `metrics.as_deref_mut()` only there and in the
# retire record: every observation — the simulator's and the engine's
# operator spans, plan-cache instants and query outcomes alike — is one
# TraceEvent emitted once, which the trace and the metrics recorder each
# fold, and nothing else writes a metric), the one-renderer gate (no
# print!/println!/eprint!/eprintln! in non-test code under
# crates/bench/src/exp, same skips: an experiment returns its rows and
# claims, and Report::render is the one formatter Session::run prints),
# lints (warnings are errors), docs (warnings are errors), the full test
# suite — which
# smoke-runs every registry
# experiment, gates it against results/smoke14 and validates the artifact
# directory (crates/bench/tests/{smoke,artifacts}.rs) — the benchmark
# package's own tests, which compile every public item listed under
# "Benchmark API surface" in perf/README.md, and one observed release-mode
# run whose artifacts CI uploads. Run from anywhere; CI runs exactly this
# script. Not run here because it takes minutes: scripts/stress_serving.sh N
# repeats the two serving suites N times under host contention,
# scripts/bench_pair.sh <workload> <parent-ref> runs the two-clock benchmark
# in alternating parent/change pairs (medians, quartiles, wins),
# scripts/layer_pair.sh <parent-ref> does the same for the per-layer probes
# (medians and their ratio; fails if a simulated probe moved), and
# scripts/artifact_pair.sh <parent-ref> runs the observed smoke-run on both
# sides and lists the artifact files that differ (the evidence behind "every
# artifact byte-identical"; only fig08.json, summary.md and fidelity.json,
# which hold wall clock, differ for a change that moves no simulated number). Not a check
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

# Prints "file:line: text" for every line of the .rs files under the given
# directories that matches the ERE in $PATTERN, skipping host oracles
# (oracle.rs), `//` comment lines and each file's trailing `#[cfg(test)]
# mod`, as scripts/loc.sh does.
code_matching() {
    find "$@" -name '*.rs' ! -name oracle.rs -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0; pending = 0 }
        in_tests { next }
        pending {
            pending = 0
            if ($0 ~ /^(pub(\([a-z]+\))? )?mod /) { in_tests = 1; next }
        }
        /^#\[cfg\(test\)\]$/ { pending = 1 }
        /^[ \t]*\/\// { next }
        $0 ~ ENVIRON["PATTERN"] { print FILENAME ":" FNR ": " $0 }
    '
}

echo "==> one-table gate: no std HashMap/HashSet in operator code"
hash_uses=$(PATTERN='Hash(Map|Set)' code_matching \
    crates/primitives/src crates/joins/src crates/groupby/src)
if [[ -n "$hash_uses" ]]; then
    echo "FAIL: std hash collections in operator code (use primitives::PartitionTable):"
    echo "$hash_uses"
    exit 1
fi

echo "==> range gate: no whole-buffer contiguous stream charged lane by lane"
ident='[A-Za-z0-9_]+'
lane_streams=$(PATTERN="\(0\.\.$ident(\.len\(\))?\)\.map\(\|$ident\| *$ident\.addr_of\($ident\)\)" \
    code_matching crates/*/src)
if [[ -n "$lane_streams" ]]; then
    echo "FAIL: (0..n).map(|i| buf.addr_of(i)) charged per lane (use KernelBuilder::contiguous_loads):"
    echo "$lane_streams"
    exit 1
fi

echo "==> one-skeleton gate: transform phases open only in the two drivers"
drivers='^crates/(joins|groupby)/src/driver\.rs:'
skeletons=$(PATTERN='timed_phase\(dev, "transform"' code_matching crates/*/src |
    grep -Ev "$drivers" || true)
if [[ -n "$skeletons" ]]; then
    echo "FAIL: a transform phase outside joins::driver / groupby::driver (add a recipe row instead):"
    echo "$skeletons"
    exit 1
fi

# Prints the name of the last `fn` item opened at or above line $2 of file
# $1: the function whose body holds that line.
enclosing_fn() {
    awk -v at="$2" '
        NR > at { exit }
        /^[ \t]*(pub(\([a-z]+\))? )?fn [a-z_0-9]+/ {
            match($0, /fn [a-z_0-9]+/)
            name = substr($0, RSTART + 3, RLENGTH - 3)
        }
        END { print name }
    ' "$1"
}

# Prints "file:line: in fn NAME" for every non-test `$1.as_deref_mut()` in
# crates/sim/src — on one line, or split by rustfmt after the field — whose
# enclosing function, as "file.rs:NAME", does not match the ERE $2.
writes_outside() {
    PATTERN="(^|[^A-Za-z_])$1\.as_deref_mut\(\)|^[ \t]*\.as_deref_mut\(\)" \
        code_matching crates/sim/src | while IFS=: read -r file line text; do
        if [[ "$text" =~ ^[[:space:]]*\.as_deref_mut ]]; then
            sed -n "$((line - 1))p" "$file" | grep -Eq "(^|[^A-Za-z_])$1[[:space:]]*$" || continue
        fi
        fn=$(enclosing_fn "$file" "$line")
        [[ "$(basename "$file"):$fn" =~ ^($2)$ ]] || echo "$file:$line: in fn $fn"
    done
}

echo "==> one-emit gate: sim delivers each observation once"
stray_writes=$(
    writes_outside trace 'lib\.rs:emit'
    writes_outside metrics 'lib\.rs:(emit|retire)'
)
if [[ -n "$stray_writes" ]]; then
    echo "FAIL: a trace or metrics write outside DeviceState::emit (emit one TraceEvent instead):"
    echo "$stray_writes"
    exit 1
fi

echo "==> one-renderer gate: experiments print nothing"
exp_prints=$(PATTERN='(^|[^A-Za-z_])e?print(ln)?!' code_matching crates/bench/src/exp)
if [[ -n "$exp_prints" ]]; then
    echo "FAIL: an experiment prints (push rows and claims; Report::render formats them):"
    echo "$exp_prints"
    exit 1
fi

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
