#!/usr/bin/env bash
# Code-only line count — the number ROADMAP item 6 asks every deletion PR
# to report at its parent and at the change.
#
#   scripts/loc.sh              one row per crate under crates/, one for
#                               vendor/, and a total
#   scripts/loc.sh FILE...      one row per named file, and a total
#
# A line counts when it is in a `src/` tree, is not blank, is not a `//`
# comment (doc comments included), and does not belong to the file's
# trailing `#[cfg(test)] mod` — so moving code into tests, docs or
# reformatted whitespace does not read as a reduction.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    [ $# -gt 0 ] || { echo 0; return; }
    awk '
        FNR == 1 { in_tests = 0; pending = 0 }
        in_tests { next }
        pending {
            pending = 0
            if ($0 ~ /^(pub(\([a-z]+\))? )?mod /) { in_tests = 1; n--; next }
        }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        /^#\[cfg\(test\)\]$/ { pending = 1 }
        { n++ }
        END { print n + 0 }
    ' "$@"
}

row() { printf '%-28s %7d\n' "$1" "$2"; }

total=0
if [ $# -gt 0 ]; then
    for f in "$@"; do
        n=$(count "$f")
        row "$f" "$n"
        total=$((total + n))
    done
else
    for dir in crates/*/ vendor/; do
        mapfile -t files < <(find "$dir" -path '*/src/*' -name '*.rs' | sort)
        n=$(count "${files[@]}")
        row "${dir%/}" "$n"
        total=$((total + n))
    done
fi
row total "$total"
