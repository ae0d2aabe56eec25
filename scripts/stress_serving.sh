#!/usr/bin/env bash
# Stress the serving suites: scripts/stress_serving.sh N
#
# Builds the `scheduler_equivalence` and `admission_invariants` test
# binaries once (debug profile, so debug assertions are on) and runs each N
# times, the two side by side so both cores stay contended. Stops at the
# first run that exits non-zero and prints its output. These are the two
# suites whose debug assertions used to fire under host contention
# (`turn completed out of order`, `designated == Some(id)`); with the
# single-threaded session loop there is nothing left to race, and this
# script is how that claim is re-checked. `scheduler_equivalence` also
# holds the repeated-spec sessions, whose later arrivals replay the first
# one's recorded lane, so every round re-checks the replay too. Takes
# minutes at large N, so it is not part of scripts/check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

n="${1:?usage: scripts/stress_serving.sh N}"
suites=(scheduler_equivalence admission_invariants)

echo "==> building ${suites[*]} (debug)"
build_json=$(cargo test --offline --no-run --message-format=json \
    "${suites[@]/#/--test=}" 2>/dev/null)
bins=()
for suite in "${suites[@]}"; do
    bin=$(sed -n "s/.*\"executable\":\"\([^\"]*\/${suite}-[^\"]*\)\".*/\1/p" <<<"$build_json" | tail -1)
    [[ -x "$bin" ]] || { echo "no test binary for $suite"; exit 1; }
    bins+=("$bin")
done

logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT
echo "==> $n rounds, ${#suites[@]} suites at a time"
for round in $(seq 1 "$n"); do
    pids=()
    for i in "${!suites[@]}"; do
        "${bins[$i]}" >"$logs/${suites[$i]}.log" 2>&1 &
        pids+=($!)
    done
    for i in "${!suites[@]}"; do
        if ! wait "${pids[$i]}"; then
            echo "FAIL: ${suites[$i]} in round $round of $n"
            cat "$logs/${suites[$i]}.log"
            wait || true
            exit 1
        fi
    done
done
echo "PASS: $n runs each of ${suites[*]}, 0 failures"
