#!/usr/bin/env bash
# tools/bench_smoke.sh OUTDIR — the bench crate's referee.
#
# Builds the `bench` binary in release and runs every experiment once at
# CI scale with OUTDIR as the working directory: one `<name>.stdout` per
# experiment (plus `<name>.stderr` where it wrote any, and
# `fig17_full.stdout`), and the `--out` file of every experiment that
# writes one. Everything a run prints is a function of the seed, except
# the two things masked here: `shard`'s wall-clock column and the OUTDIR
# prefix of echoed paths. So two trees that print the same numbers
# produce `diff -r`-equal OUTDIRs.
#
# An experiment that exits non-zero (a failed self-assertion) fails the
# script after its stderr is shown.
set -euo pipefail

[ $# -eq 1 ] || { echo "usage: $0 OUTDIR" >&2; exit 2; }
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)

cargo build --release -p bench --manifest-path "$root/Cargo.toml"
bench=${CARGO_TARGET_DIR:-$root/target}/release/bench
cd "$out"

run() {
    local name=$1
    shift
    if ! "$bench" "$name" "$@" >"$name.stdout" 2>"$name.stderr"; then
        cat "$name.stderr" >&2
        echo "bench_smoke: $name $* failed" >&2
        exit 1
    fi
    sed -i "s|$out/||g" "$name.stdout" "$name.stderr"
    [ -s "$name.stderr" ] || rm "$name.stderr"
}

# Characterization figures: no simulator, no flags.
for fig in fig04 fig05 fig06 fig08 fig09 fig10 fig11 fig13 fig14; do
    run "$fig"
done

# The simulator experiments. `maint` and `spo` need more requests than
# the smoke default for their rare events (uncorrectable reads, seeded
# cuts) to occur at all.
run maint --smoke --requests 6000
run spo --smoke --requests 4000
# Fig. 17 once at the paper's 428 blocks/chip (~15 s), so that its
# EXPERIMENTS.md row does not rest on the 64-block reduction alone; the
# loop below then writes the reduced-scale `fig17.stdout`.
run fig17 --full
mv fig17.stdout fig17_full.stdout
for name in ablate campaign fig17 fig18 shard summary sweep_aging; do
    run "$name" --smoke
done
run active_sweep --smoke --out "$out/active_sweep.ndjson"
run rebuild --smoke --out ./rebuild_curve.csv
for name in kv lifetime qos retry; do
    run "$name" --smoke --out "$out/$name.csv"
done

# `shard`'s fifth column is host wall-clock milliseconds.
sed -i -E 's/^(([0-9.x]+ +){4})[0-9]+ +/\1- /' shard.stdout
