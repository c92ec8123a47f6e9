#!/usr/bin/env bash
# Paired A/B of the benchmark: a base revision against this working tree.
#
#   scripts/ab.sh <base-rev> [--pairs N] [--seconds S] [--seed B] [workload...]
#
# Builds the benchmark of <base-rev> (checked out into a temporary git
# worktree) and of this tree, offline, each with its own CARGO_TARGET_DIR
# in a temporary directory outside the repository. Then, per workload,
# runs N pairs: pair i runs both binaries untraced with seed B+i for S
# seconds, base first in odd pairs and this tree first in even ones, each
# run pinned with taskset to the last CPU this process may use (the
# script says when it cannot pin).
# Prints every pair's end-to-end metrics and, per metric, each side's
# quartiles and median, the median of the per-pair ratios (this tree /
# base) and in how many pairs this tree read lower. A pair whose digests
# differ, or a run with a failed check, is reported. The builds live
# outside the repository; the worktree is registered in the repository's
# .git while the script runs, and it and the builds are removed on exit.
#
# Defaults: 10 pairs, 15 s, seed 49500, all six workloads.
set -euo pipefail

usage() {
    awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "${BASH_SOURCE[0]}"
    exit "${1:-0}"
}

(($#)) || usage 2
case "$1" in -h | --help) usage ;; -*) usage 2 ;; esac
base_rev=$1
shift
pairs=10
seconds=15
seed=49500
workloads=()
while (($#)); do
    case "$1" in
        --pairs) pairs=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        -h | --help) usage ;;
        -*) echo "ab.sh: unknown option $1" >&2; exit 2 ;;
        *) workloads+=("$1"); shift ;;
    esac
done
((${#workloads[@]})) || workloads=(design1-paper design3-paper swarm-100k swarm-100k-shard8
    feed-recovery shootout-small)

root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
base_sha="$(git -C "$root" rev-parse --verify "$base_rev^{commit}")"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
cleanup() {
    git -C "$root" worktree remove --force "$tmp/base" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "ab: base ${base_sha:0:12} vs working tree of $root"
git -C "$root" worktree add --quiet --detach "$tmp/base" "$base_sha"
for side in base change; do
    src="$tmp/base"
    [[ $side == change ]] && src="$root"
    echo "ab: building $side"
    CARGO_TARGET_DIR="$tmp/target-$side" cargo build --release --offline --quiet \
        --manifest-path "$src/benchmark/Cargo.toml"
    cp "$tmp/target-$side/release/tn-benchmark" "$tmp/bin-$side"
done

pin=()
cpu="$(taskset -pc $$ 2>/dev/null | sed 's/.*: //; s/.*[,-]//')" || cpu=
if [[ -n $cpu ]] && taskset -c "$cpu" true 2>/dev/null; then
    pin=(taskset -c "$cpu")
    echo "ab: runs pinned to CPU $cpu"
else
    echo "ab: taskset cannot pin here; runs are not pinned"
fi

metrics=(ns_per_event cpu_ns_per_event setup_s allocs_per_kevent peak_rss_mb
    sim_latency_p50_ns sim_latency_p99_ns)

# `run <side> <workload> <seed>`: one untraced run; prints the digest,
# then `name value` per metric, and `failed N` when a check failed.
run() {
    local out
    out="$("${pin[@]}" "$tmp/bin-$1" --workload "$2" --seed "$3" --seconds "$seconds" \
        --trace 0)" || echo "failed exit-status"
    awk '$1 == "digest" { print "digest", $2 }' <<<"$out"
    tail -1 <<<"$out" | { grep -o '"[a-z0-9_]*": {"value": [-0-9.e+]*' || true; } |
        sed 's/"\([^"]*\)": {"value": /\1 /'
    tail -1 <<<"$out" | { grep -o '"failed": [0-9]*' || true; } |
        awk '$2 > 0 { print "failed", $2 }'
}

# `quantile <q>`: the q-quantile of the numbers on stdin, one a line,
# interpolated between the two nearest ranks (q = 0.5 is the median).
quantile() {
    sort -g | awk -v q="$1" '{ v[NR] = $1 } END {
        if (NR == 0) { print "nan"; exit }
        r = 1 + q * (NR - 1); i = int(r)
        print (i < NR) ? v[i] + (r - i) * (v[i + 1] - v[i]) : v[NR] }'
}

# `spread <column>` on a workload's table: q1 / median / q3 of one side.
spread() {
    local col=$1 q out=()
    for q in 0.25 0.5 0.75; do
        out+=("$(awk -v m="$m" -v c="$col" '$1 == m { print $c }' "$table" | quantile "$q")")
    done
    printf "%.6g / %.6g / %.6g" "${out[@]}"
}

for w in "${workloads[@]}"; do
    echo
    echo "=== $w: $pairs pairs x ${seconds} s"
    table="$tmp/table-$w"
    : >"$table"
    for ((i = 1; i <= pairs; i++)); do
        s=$((seed + i))
        order=(base change)
        ((i % 2)) || order=(change base)
        for side in "${order[@]}"; do
            run "$side" "$w" "$s" | sed "s/^/$side /" >"$tmp/run-$side"
        done
        echo "  pair $i  seed $s  ${order[0]} first"
        for side in base change; do
            awk '$2 == "failed" { print "    " $1 " run failed: " $3 }' "$tmp/run-$side"
        done
        digests="$(awk '$2 == "digest" { print $3 }' "$tmp/run-base" "$tmp/run-change" |
            sort -u | wc -l)"
        ((digests == 1)) || echo "    digests differ"
        for m in "${metrics[@]}"; do
            b="$(awk -v m="$m" '$2 == m { print $3 }' "$tmp/run-base")"
            c="$(awk -v m="$m" '$2 == m { print $3 }' "$tmp/run-change")"
            [[ -n $b && -n $c ]] || continue
            echo "$m $b $c" >>"$table"
            awk -v m="$m" -v b="$b" -v c="$c" 'BEGIN {
                printf "    %-20s %14.6g -> %-14.6g (%s)\n", m, b, c,
                    b == 0 ? "-" : sprintf("%.3f", c / b) }'
        done
    done
    echo "  --- over $pairs pairs: each side's q1 / median / q3; the median of the"
    echo "      per-pair ratios change / base; pairs in which the change read lower"
    for m in "${metrics[@]}"; do
        grep -q "^$m " "$table" || continue
        r="$(awk -v m="$m" '$1 == m && $2 != 0 { print $3 / $2 }' "$table" | quantile 0.5)"
        lower="$(awk -v m="$m" '$1 == m && $3 < $2 { n++ } END { print n + 0 }' "$table")"
        printf "    %-20s base %s  change %s  ratio %.3f  lower %s/%s\n" \
            "$m" "$(spread 2)" "$(spread 3)" "$r" "$lower" "$pairs"
    done
done
