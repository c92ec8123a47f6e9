//! The seed is the only source of variation: the same seed gives the
//! same run twice, another seed gives another run. Smoke sizes, so the
//! six workloads finish in seconds.

use tn_benchmark::driver::{end_to_end, EndToEnd, Options, CANONICAL_SEED};
use tn_benchmark::workloads::{self, Scale, NAMES};

fn run(name: &str, seed: u64) -> EndToEnd {
    let scale = Scale::SMOKE;
    let opts = Options::smoke();
    macro_rules! go {
        ($build:path) => {
            end_to_end(
                &mut $build(seed, &scale),
                &$build(CANONICAL_SEED, &scale),
                &opts,
            )
        };
    }
    match name {
        "design1-paper" => go!(workloads::design1_paper),
        "design3-paper" => go!(workloads::design3_paper),
        "swarm-100k" => go!(workloads::swarm_serial),
        "swarm-100k-shard8" => go!(workloads::swarm_sharded),
        "feed-recovery" => go!(workloads::feed_recovery),
        "shootout-small" => go!(workloads::shootout_small),
        other => panic!("no workload `{other}`"),
    }
}

#[test]
fn same_seed_same_run_other_seed_other_run() {
    for name in NAMES {
        let a = run(name, 42);
        let b = run(name, 42);
        let c = run(name, 43);
        assert!(
            a.checks.failures.is_empty(),
            "{name}: {:?}",
            a.checks.failures
        );
        assert!(
            c.checks.failures.is_empty(),
            "{name}: {:?}",
            c.checks.failures
        );
        assert_eq!((a.digest, a.events), (b.digest, b.events), "{name}");
        assert_eq!(a.sim_latency_p50_ns, b.sim_latency_p50_ns, "{name}");
        assert_eq!(a.sim_latency_p99_ns, b.sim_latency_p99_ns, "{name}");
        assert_eq!(a.latency_samples, b.latency_samples, "{name}");
        // Not bit-equal: std's `HashMap` seeds its hasher per instance,
        // and whether a table full of tombstones rehashes in place or
        // reallocates depends on it. A few calls in a million.
        let drift = (a.allocs_per_kevent - b.allocs_per_kevent).abs() / a.allocs_per_kevent;
        assert!(drift < 1e-3, "{name}: allocs_per_kevent {a:?} vs {b:?}");
        assert_ne!(a.digest, c.digest, "{name}: seeds 42 and 43 must differ");
        assert!(a.latency_samples > 0, "{name}: no latency samples");
        assert!(
            a.allocs_per_kevent > 0.0,
            "{name}: a gated metric must never be 0"
        );
    }
}

#[test]
fn sharded_swarm_reproduces_the_serial_swarm() {
    for seed in [42, 43] {
        let serial = run("swarm-100k", seed);
        let sharded = run("swarm-100k-shard8", seed);
        assert!(
            sharded.checks.failures.is_empty(),
            "{:?}",
            sharded.checks.failures
        );
        assert_eq!(
            (serial.digest, serial.events),
            (sharded.digest, sharded.events)
        );
        assert_eq!(serial.sim_latency_p50_ns, sharded.sim_latency_p50_ns);
        assert_eq!(serial.sim_latency_p99_ns, sharded.sim_latency_p99_ns);
        assert_eq!(serial.latency_samples, sharded.latency_samples);
    }
}
