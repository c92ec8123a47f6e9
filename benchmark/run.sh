#!/usr/bin/env bash
# One command for the whole benchmark.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--smoke] [workload...]
#   benchmark/run.sh calibrate [--sets K] [--seconds S]
#
# Builds the package offline, runs each workload in its own process and
# prints every metric by name with unit, sample count and quartiles.
# Exits non-zero when a check failed (failed_share > 0) or a catalog
# metric is missing. `--trace` makes the runs traced ones (per-layer
# metrics, spans in benchmark/out/); `--smoke` uses the small sizes and
# finishes in under 10 s. `calibrate` runs K untraced sets back to back
# (each set with its own seed, as the driver does) and prints, per metric
# and workload, (max - min) / median and the interquartile range / median:
# the numbers the bounds in BENCHMARK.json are set from.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
all_workloads=(design1-paper design3-paper swarm-100k swarm-100k-shard8 feed-recovery shootout-small)

mode=run
if [[ "${1:-}" == calibrate ]]; then
    mode=calibrate
    shift
fi
seed=42
seconds=10
sets=5
trace=0
smoke=()
workloads=()
while (($#)); do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --sets) sets="$2"; shift 2 ;;
        --trace) trace=1; shift ;;
        --smoke) smoke=(--smoke); shift ;;
        -h|--help) sed -n '2,16p' "${BASH_SOURCE[0]}"; exit 0 ;;
        -*) echo "run.sh: unknown option $1" >&2; exit 2 ;;
        *) workloads+=("$1"); shift ;;
    esac
done
((${#workloads[@]})) || workloads=("${all_workloads[@]}")

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/tn-benchmark"

if [[ $mode == run ]]; then
    status=0
    for w in "${workloads[@]}"; do
        echo "=== $w"
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            "${smoke[@]}" || status=1
    done
    exit $status
fi

# calibrate: K sets, result lines collected and summarized.
results="$(mktemp)"
trap 'rm -f "$results"' EXIT
for ((k = 0; k < sets; k++)); do
    for w in "${workloads[@]}"; do
        echo "set $((k + 1))/$sets  $w  seed $((seed + k))" >&2
        line="$("$bin" --workload "$w" --seed $((seed + k)) --seconds "$seconds" --trace 0 | tail -n 1)"
        echo "$w $line" >>"$results"
    done
done
python3 - "$results" <<'PY'
import json, statistics, sys
runs = {}
for row in open(sys.argv[1]):
    workload, line = row.split(" ", 1)
    for name, m in json.loads(line)["metrics"].items():
        runs.setdefault((name, workload), []).append(m["value"])
print(f"{'metric':<20} {'workload':<18} {'median':>14} {'(max-min)/med':>14} {'iqr/med':>9}  values")
worst_range, worst_iqr = {}, {}
for (name, workload), v in sorted(runs.items()):
    med = statistics.median(v)
    rng = (max(v) - min(v)) / med if med else 0.0
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
    iqr = (q[2] - q[0]) / med if med else 0.0
    worst_range[name] = max(worst_range.get(name, 0.0), rng)
    worst_iqr[name] = max(worst_iqr.get(name, 0.0), iqr)
    shown = " ".join(f"{x:.6g}" for x in v)
    print(f"{name:<20} {workload:<18} {med:>14.6f} {rng:>14.4f} {iqr:>9.4f}  {shown}")
print()
for name in sorted(worst_range):
    print(f"worst over workloads  {name:<20} (max-min)/med {worst_range[name]:.4f}   iqr/med {worst_iqr[name]:.4f}")
PY
