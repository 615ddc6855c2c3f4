#!/usr/bin/env bash
# tools/mutants.sh [PATCH...] — the committed mutation referees.
#
# Each tools/mutants/NNN-name.patch plants one bug that a referee must
# catch, and names that referee in a header line above the diff:
#
#     # must fail: cargo test -q -p ftl --lib mapping::tests::…
#
# The script checks HEAD out into a scratch `git worktree` and first runs
# every named command on the clean tree: each must pass there, so that a
# kill is the patch's doing. Then, for each patch (all of them, or the
# ones given), it resets the worktree, applies the patch and runs its
# command, which must report a failed test ("test result: FAILED"). A
# mutant that passes survived: the referee no longer bites (an
# `#[ignore]`d test or a filter that matches nothing survives too). A
# patch that no longer applies, or a mutant that does not build, is an
# error: the patch is stale. Either fails the script.
#
# Every build shares one target directory (default target/mutants, or
# CARGO_TARGET_DIR), so only the patched crate and its dependents
# recompile per mutant. bash, git and cargo only.
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
if [ $# -eq 0 ]; then
    set -- "$root"/tools/mutants/*.patch
fi
patches=()
for patch in "$@"; do
    patches+=("$(realpath "$patch")")
done
cd "$root"
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$root/target/mutants}

tmp=$(mktemp -d)
tree=$tmp/tree
cleanup() {
    git worktree remove --force "$tree" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --detach --quiet "$tree" HEAD

# must_fail PATCH — the test command the patch's header names.
must_fail() {
    local cmd
    cmd=$(sed -n 's/^# must fail: //p' "$1" | head -n 1)
    [[ $cmd == "cargo test "* ]] || {
        echo "mutants: $1 names no '# must fail: cargo test …' command" >&2
        exit 2
    }
    echo "$cmd"
}

# run CMD LOG — runs the test command in the worktree; its exit status.
run() {
    local words
    read -r -a words <<<"$1"
    (cd "$tree" && "${words[@]}") >"$2" 2>&1
}

declare -A clean
for patch in "${patches[@]}"; do
    cmd=$(must_fail "$patch")
    [ -n "${clean[$cmd]:-}" ] && continue
    if ! run "$cmd" "$tmp/clean.log"; then
        tail -n 30 "$tmp/clean.log" >&2
        echo "mutants: '$cmd' fails on the clean tree" >&2
        exit 1
    fi
    clean[$cmd]=1
done

failed=0
for patch in "${patches[@]}"; do
    cmd=$(must_fail "$patch")
    name=$(basename "$patch" .patch)
    git -C "$tree" reset --quiet --hard HEAD
    if ! git -C "$tree" apply "$patch"; then
        echo "ERROR     $name: the patch no longer applies"
        failed=1
    elif run "$cmd" "$tmp/$name.log"; then
        echo "SURVIVED  $name: '$cmd' passed"
        failed=1
    elif grep -q "test result: FAILED" "$tmp/$name.log"; then
        echo "killed    $name"
    else
        tail -n 30 "$tmp/$name.log" >&2
        echo "ERROR     $name: '$cmd' failed without a failed test (does the mutant build?)"
        failed=1
    fi
done
exit "$failed"
