#!/usr/bin/env bash
# tools/ab_pairs.sh [--sim-moves] PARENT_BIN CHANGE_BIN N -- <cubeftl-sim flags>
#
# The alternating-pairs measurement behind a host-time claim, for use
# while iterating (the claim itself is >= 10 alternating `benchmark/run.sh`
# runs at an unused seed). Runs N pairs of the two binaries on one flag
# line, alternating which side runs first, each with its own
# `--metrics-out` file. A pair whose two metrics files differ fails the
# script: the two binaries no longer simulate the same device, and no
# timing of them means anything. Prints each side's median and quartiles
# of user+sys CPU seconds, the ratio of the medians (base: parent) and
# how many pairs the change won (ties count for neither side).
#
# --sim-moves is for a change that moves the simulation on purpose: the
# two sides may then write different metrics, but each side must write
# the same file in every pair (each binary is still deterministic), and
# the summary says that the sides simulate different devices.
#
# bash + coreutils only; pass no `--metrics-out` in the flags.
set -euo pipefail

usage() {
    echo "usage: $0 [--sim-moves] PARENT_BIN CHANGE_BIN N -- <cubeftl-sim flags>" >&2
    exit 2
}
sim_moves=0
if [ "${1:-}" = "--sim-moves" ]; then
    sim_moves=1
    shift
fi
[ $# -ge 5 ] && [ "$4" = "--" ] || usage
parent=$1 change=$2 pairs=$3
shift 4
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
[ -x "$parent" ] && [ -x "$change" ] || { echo "$0: both binaries must exist" >&2; exit 2; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
TIMEFORMAT='%3U %3S'

# cpu_ms BIN METRICS_FILE flags… — user+sys milliseconds of one run.
cpu_ms() {
    local bin=$1 metrics=$2 user sys
    shift 2
    { time "$bin" "$@" --metrics-out "$metrics" >/dev/null 2>"$tmp/stderr"; } 2>"$tmp/time" || {
        cat "$tmp/stderr" >&2
        echo "$0: $bin $* failed" >&2
        exit 1
    }
    read -r user sys <"$tmp/time"
    echo $((10#${user/./} + 10#${sys/./}))
}

# quartiles FILE — "q1 median q3" (ms, linear interpolation) of the column.
quartiles() {
    local v n k pos lo rem hi out=()
    mapfile -t v < <(sort -n "$1")
    n=${#v[@]}
    for k in 1 2 3; do
        pos=$((k * (n - 1)))
        lo=$((pos / 4)) rem=$((pos % 4))
        hi=$((lo + 1 < n ? lo + 1 : lo))
        out+=($(((v[lo] * (4 - rem) + v[hi] * rem) / 4)))
    done
    echo "${out[*]}"
}

secs() { printf '%d.%03d' $(($1 / 1000)) $(($1 % 1000)); }

wins=0
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        p=$(cpu_ms "$parent" "$tmp/parent.ndjson" "$@")
        c=$(cpu_ms "$change" "$tmp/change.ndjson" "$@")
    else
        c=$(cpu_ms "$change" "$tmp/change.ndjson" "$@")
        p=$(cpu_ms "$parent" "$tmp/parent.ndjson" "$@")
    fi
    if ((sim_moves)); then
        for side in parent change; do
            [ -f "$tmp/$side.first" ] || cp "$tmp/$side.ndjson" "$tmp/$side.first"
            if ! cmp -s "$tmp/$side.first" "$tmp/$side.ndjson"; then
                echo "$0: pair $i: the $side binary wrote other metrics than in pair 1" >&2
                exit 1
            fi
        done
    elif ! cmp -s "$tmp/parent.ndjson" "$tmp/change.ndjson"; then
        echo "$0: pair $i: the two --metrics-out files differ" >&2
        cmp "$tmp/parent.ndjson" "$tmp/change.ndjson" >&2 || true
        exit 1
    fi
    echo "$p" >>"$tmp/parent.ms"
    echo "$c" >>"$tmp/change.ms"
    ((c < p)) && wins=$((wins + 1))
    echo "pair $i: parent $(secs "$p") s, change $(secs "$c") s"
done

read -r pq1 pmed pq3 < <(quartiles "$tmp/parent.ms")
read -r cq1 cmed cq3 < <(quartiles "$tmp/change.ms")
echo "parent: median $(secs "$pmed") s [$(secs "$pq1"), $(secs "$pq3")]"
echo "change: median $(secs "$cmed") s [$(secs "$cq1"), $(secs "$cq3")]"
metrics="metrics equal in every pair"
if ((sim_moves)) && ! cmp -s "$tmp/parent.first" "$tmp/change.first"; then
    metrics="each side's metrics the same in every pair, the two sides' differ"
fi
if ((pmed > 0)); then
    echo "ratio change/parent: $(secs $((cmed * 1000 / pmed))), change wins $wins/$pairs, $metrics"
else
    echo "ratio change/parent: n/a (parent median below 1 ms), change wins $wins/$pairs, $metrics"
fi
