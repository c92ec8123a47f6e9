//! E18 — the §4 scale target: "a network of roughly 1,000 servers
//! running normalizers, gateways and strategies... a few dozen each for
//! normalizers and gateways and the rest for strategies. We will assume
//! that the average latency of each function is less than 2
//! microseconds."
//!
//! Builds Design 1 at that scale (24 normalizers + 930 strategies + 24
//! gateways = 978 servers, each with two NICs, on an auto-sized
//! leaf-spine with 4 spines) and runs a burst of market activity.

use std::io::{self, Write};

use tn_core::design::{TradingNetworkDesign, TraditionalSwitches};
use tn_core::ScenarioConfig;
use tn_sim::SimTime;

use super::{Check, Outcome};

pub fn run(out: &mut dyn Write) -> io::Result<Outcome> {
    let sc = ScenarioConfig::paper_scale(3)
        .to_builder()
        .duration(SimTime::from_ms(20))
        // Keep the order rate within the matching engine's service
        // capacity so acks drain within the window (the default threshold
        // floods the single simulated exchange — fine for stress, noisy
        // for latency).
        .momentum_threshold(600)
        .build()
        .expect("valid scenario");
    let servers = sc.normalizers + sc.strategies + sc.gateways;

    let report = TraditionalSwitches::default().run(&sc);

    writeln!(
        out,
        "{} servers ({} normalizers, {} strategies, {} gateways), {} feed units,\n\
         {} internal partitions, {} events/s background:\n",
        servers,
        sc.normalizers,
        sc.strategies,
        sc.gateways,
        sc.feed_units,
        sc.internal_partitions,
        sc.background_rate
    )?;
    writeln!(out, "{}", report.summary())?;
    // The §4 assumption holds: every software function under 2 us average
    // (configured), and the fabric delivers with zero loss at this scale.
    Ok(Outcome {
        json: Some(report.to_json()),
        checks: vec![
            Check::eq(
                "frames dropped at the paper's scale",
                0,
                report.frames_dropped,
            ),
            Check::above("orders sent", 100, report.orders_sent),
            Check::below(
                "feed latency median",
                SimTime::from_us(50),
                report.feed_latency.median,
            ),
        ],
    })
}
