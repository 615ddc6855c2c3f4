#!/usr/bin/env bash
# tools/loc.sh [ROOT] — code-line counts of the harness + CLI and of
# every crate's sources.
#
# A file's code lines are the lines before its first `#[cfg(test)]`,
# minus blank lines and lines whose first non-blank characters are `//`
# (doc and plain comments). Prints `src/harness.rs`, the CLI and their
# sum, then one line per `crates/*/src` and the crates' total.
set -euo pipefail

root=${1:-$(cd "$(dirname "$0")/.." && pwd)}
cd "$root"

# Code lines summed over the given files.
count() {
    awk 'FNR == 1 { tests = 0 }
         /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
         tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
         { n++ }
         END { print n + 0 }' "$@"
}

harness=$(count src/harness.rs)
cli=$(count src/bin/cubeftl-sim.rs)
echo "src/harness.rs $harness"
echo "src/bin/cubeftl-sim.rs $cli"
echo "harness + CLI $((harness + cli))"

total=0
for dir in crates/*/src; do
    mapfile -d '' files < <(find "$dir" -name '*.rs' -print0)
    n=$(count "${files[@]}")
    echo "$dir $n"
    total=$((total + n))
done
echo "crates/*/src $total"
