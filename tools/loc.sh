#!/usr/bin/env bash
# tools/loc.sh [ROOT] — code-line counts of the harness + CLI and of
# every crate's sources.
#
# A file's code lines are its lines before the test module — a column-0
# `#[cfg(test)]` on a `mod` — minus blank lines and lines whose first
# non-blank characters are `//` (doc and plain comments). Test-only
# files count nothing: a file marked `#![cfg(test)]` and an out-of-line
# test module `tests.rs`. Prints `src/harness.rs`, the CLI and their
# sum, then one line per `crates/*/src` and the crates' total.
set -euo pipefail

root=${1:-$(cd "$(dirname "$0")/.." && pwd)}
cd "$root"

# Code lines summed over the given files. A column-0 `#[cfg(test)]` is
# not counted; the next line says whether it opens the test module.
count() {
    awk 'FNR == 1 { tests = 0; held = 0; file = 0 }
         tests { next }
         held && /^mod / { tests = 1; next }
         { held = 0 }
         /^#!\[cfg\(test\)\]/ { n -= file; tests = 1; next }
         /^#\[cfg\(test\)\]/ { held = 1; next }
         /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
         { n++; file++ }
         END { print n + 0 }' "$@"
}

harness=$(count src/harness.rs)
cli=$(count src/bin/cubeftl-sim.rs)
echo "src/harness.rs $harness"
echo "src/bin/cubeftl-sim.rs $cli"
echo "harness + CLI $((harness + cli))"

total=0
for dir in crates/*/src; do
    mapfile -d '' files < <(find "$dir" -name '*.rs' ! -name tests.rs -print0)
    n=$(count "${files[@]}")
    echo "$dir $n"
    total=$((total + n))
done
echo "crates/*/src $total"
