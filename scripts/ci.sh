#!/usr/bin/env sh
# The full CI gauntlet. Everything runs offline (deps are vendored in
# vendor/); any failure fails the script, and so does a dirty tree at the
# end. Scratch files go under target/, which is ignored.
set -eu

cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}
# `bin <package> args...`: run a workspace CLI from the release build.
bin() {
    pkg=$1
    shift
    cargo run --release --offline -q -p "$pkg" -- "$@"
}
# `leads_with <file> <marker>`: the artifact's first line names its schema.
leads_with() {
    head -1 "$1" | grep -q "\"schema\":\"$2\""
    echo "==> $1: $2 ok"
}

run cargo build --release --offline --workspace
# The benchmark package names public items of these crates (a link's
# `transmit`, the scheduler kinds); build it before the long test suite so
# a change that breaks it fails in the first minute.
run cargo build --release --offline --manifest-path benchmark/Cargo.toml
run cargo test -q --offline --workspace
run cargo fmt --check
run cargo clippy --offline --workspace --all-targets -- -D warnings
# Every intra-doc link in the workspace's own crates resolves, and no public
# doc links a private item. The vendored rand/proptest stand-ins are not ours.
run env RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace \
    --exclude rand --exclude proptest

# Static analysis + the whole divergence registry. Besides failing on any
# active finding, `lint` fails when a lint's `audit:allow` count differs
# from its budget in the lint table (crates/audit/src/lints.rs): more is
# suppression creep, fewer is a fix whose budget must come down with it.
run bin tn-audit check --json target/audit-report.json
leads_with target/audit-report.json tn-audit/v1

# Non-test lines per crate, by the rule simplicity changes quote them.
run sh scripts/loc.sh

# SipHash stays off the per-frame path: outside tests, the per-frame
# crates key their maps through tn_sim::FastMap / FastSet, never std's
# default-hasher HashMap / HashSet (by path or in a `use` list). A file's
# lines from its first `#[cfg(test)]` on are not checked.
std_maps=$(find crates/netdev/src crates/switch/src crates/market/src crates/feed/src \
    crates/trading/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { live = 1 }
    /#\[cfg\(test\)\]/ { live = 0 }
    live && /std::collections::(\{[^}]*)?(Hash(Map|Set)|hash_(map|set))/ {
        print FILENAME ":" FNR ": " $0
    }')
echo "==> std-hasher gate: $(printf '%s' "$std_maps" | grep -c .) std maps on the per-frame path"
[ -z "$std_maps" ] || { printf '%s\n' "$std_maps"; exit 1; }

# Paper fidelity: every registered experiment at full size, every anchor.
run bin tn-bench check

# E21's tn-trace/v1 JSONL exports as a tn-flight/v1 timeline, and the
# folded-stacks rendering is byte-stable across two summarize runs.
bin tn-bench run latency-decomposition --json > target/e21-trace.jsonl
leads_with target/e21-trace.jsonl tn-trace/v1
bin tn-obs summarize --timeline target/e21-trace.jsonl > target/e21-flight.json
leads_with target/e21-flight.json tn-flight/v1
for n in 1 2; do
    bin tn-obs summarize --folded target/e21-trace.jsonl > target/e21-folded-$n.txt
done
run cmp target/e21-folded-1.txt target/e21-folded-2.txt

# tn-lab CLI: expand the smoke grid and run it on 2 workers.
bin tn-lab expand --preset smoke > /dev/null
bin tn-lab run --preset smoke --threads 2 --out target/ci-lab-smoke.json > /dev/null
leads_with target/ci-lab-smoke.json tn-lab/v1

# Every example, executed, not just compiled: their own asserts make a
# nonzero exit a real failure (metro_arbitrage: microwave beats fiber and
# both see opportunities; feed_handler: the B side yields duplicates).
for example in quickstart design_shootout feed_handler mcast_cliff metro_arbitrage; do
    echo "==> example $example"
    cargo run --release --offline -q --example "$example" > /dev/null
done

# Speed is gated on BENCHMARK.json by the pipeline; here the benchmark
# package has to pass its own tests against these crates — sharded digest
# equals serial, same seed same result, the BENCHMARK.json contract — and
# then build and pass its own checks, untraced and traced.
run cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
run benchmark/run.sh --smoke
run benchmark/run.sh --smoke --trace
# One full-size pass: every workload with its warm-ups, reps and the
# cross-rep digest check, which `--smoke` (one rep) skips; it is also
# where `swarm-100k-shard8` is held to the serial swarm's digest.
run benchmark/run.sh --seconds 0

dirty=$(git status --porcelain)
[ -z "$dirty" ] || { printf 'ci: the tree is dirty:\n%s\n' "$dirty"; exit 1; }
echo "==> ci: all green"
