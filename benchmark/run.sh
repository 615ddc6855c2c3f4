#!/usr/bin/env bash
# The perf ledger's one command. Builds what it needs with --offline,
# then hands over to the bench-e2e driver, which prints every metric as
# `workload metric value unit`, checks outputs, and exits non-zero on a
# failed check.
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds N]
#                    [--trace 0|1 | --traced] [--quick]
#   benchmark/run.sh --agree A B
#
# Two result sets for --agree:
#   benchmark/run.sh --seed 42 > A.txt; benchmark/run.sh --seed 42 > B.txt
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"

# With CARGO_TARGET_DIR set (the benchmark driver sets it, relative to
# the checkout) all three builds share that directory; without it each
# package keeps its own target/.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) shared=$CARGO_TARGET_DIR ;;
        *) shared=$root/$CARGO_TARGET_DIR ;;
    esac
    sim_target=$shared e2e_target=$shared layers_target=$shared
else
    sim_target=$root/target
    e2e_target=$root/benchmark/e2e/target
    layers_target=$root/benchmark/layers/target
fi

build() { # manifest, target dir, extra cargo args…
    local manifest=$1 target=$2
    shift 2
    CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
        --manifest-path "$manifest" "$@" >&2
}

build benchmark/e2e/Cargo.toml "$e2e_target"
if [ "${1:-}" = "--agree" ]; then
    exec "$e2e_target/release/bench-e2e" "$@"
fi

if [ ! -f Cargo.toml ]; then
    echo "benchmark/run.sh: no Cargo.toml in $root: the simulator is built from the repository's source" >&2
    exit 1
fi
build Cargo.toml "$sim_target" --bin cubeftl-sim
build benchmark/layers/Cargo.toml "$layers_target"

exec "$e2e_target/release/bench-e2e" \
    --sim "$sim_target/release/cubeftl-sim" \
    --layers "$layers_target/release/bench-layers" \
    --out "$root/benchmark/out" \
    "$@"
