//! Quickstart: build the Figure 1 architecture end to end and watch one
//! market-data event turn into an order.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! This assembles the paper's reference architecture — an exchange
//! publishing a PITCH-like multicast feed, a firm with normalizers,
//! strategies and gateways on a leaf-spine fabric (Design 1) — runs a few
//! simulated milliseconds of market activity, and prints the latency
//! report.

use trading_networks::core::design::{TradingNetworkDesign, TraditionalSwitches};
use trading_networks::core::ScenarioConfig;
use trading_networks::sim::ObsConfig;

fn main() {
    // The common scenario: one exchange, 2 normalizers, 6 strategies,
    // 2 gateways, 50k market events/second. The builder starts from the
    // `small` preset and validates whatever you override.
    //
    // The flight recorder and kernel self-profiler ride along: both are
    // digest-neutral, so the report below is bit-identical to a bare run
    // — it just also says what the kernel did to produce it.
    let obs = ObsConfig {
        provenance: false,
        registry: false,
        ..ObsConfig::full()
    };
    let scenario = ScenarioConfig::builder(42)
        .obs(obs)
        .build()
        .expect("valid scenario");

    println!("Figure 1 architecture, Design 1 (commodity leaf-spine):");
    println!(
        "  {} symbols, {} feed units -> {} normalizers -> {} internal partitions",
        scenario.symbols, scenario.feed_units, scenario.normalizers, scenario.internal_partitions
    );
    println!(
        "  {} strategies (momentum, {} per-record) -> {} gateways -> exchange",
        scenario.strategies, scenario.decision_service, scenario.gateways
    );
    println!();

    let report = TraditionalSwitches::default().run(&scenario);
    println!("{}", report.summary());
    println!();
    println!(
        "Median wire-to-wire reaction {} = {} software + {} network/exchange ({}% network)",
        report.reaction.median,
        report.software_path,
        report.network_time(),
        (report.network_share * 100.0).round(),
    );
}
