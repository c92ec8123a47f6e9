//! E5 — §4.1's round-trip arithmetic on Design 1, measured.
//!
//! The paper: "a round trip (exchange, normalizer, strategy, gateway, and
//! back to the exchange) would involve 12 switch hops and 3 software
//! hops. Assuming each switch hop incurs 500 nanoseconds of latency, half
//! of the overall time through the system is spent in the network!"

use std::io::{self, Write};

use tn_core::design::{TradingNetworkDesign, TraditionalSwitches};
use tn_core::ScenarioConfig;
use tn_sim::SimTime;

use super::{Check, Outcome};

pub fn run(out: &mut dyn Write) -> io::Result<Outcome> {
    // The paper's assumptions: every software function ~2 us, light load
    // so queueing does not blur the path.
    let sc = ScenarioConfig::builder(5)
        .normalizer_service(SimTime::from_us(2))
        .decision_service(SimTime::from_us(2))
        .gateway_service(SimTime::from_us(2))
        .background_rate(10_000.0)
        .tick_interval(SimTime::from_us(20))
        .duration(SimTime::from_ms(60))
        .build()
        .expect("valid scenario");

    // The analytic model first.
    let switch_hop = SimTime::from_ns(500);
    let hops = 12u64;
    let network_analytic = switch_hop * hops;
    let software_analytic = sc.software_path();
    writeln!(out, "§4.1 analytic model:")?;
    writeln!(out, "  4 legs x 3 switch hops       = {hops} switch hops")?;
    writeln!(out, "  {hops} x {switch_hop} = {network_analytic} network")?;
    writeln!(
        out,
        "  3 software hops x 2us        = {software_analytic} software"
    )?;
    writeln!(
        out,
        "  network share                = {:.0}%  (the paper's 'half')",
        100.0 * network_analytic.as_ps() as f64
            / (network_analytic + software_analytic).as_ps() as f64
    )?;
    writeln!(out)?;

    // Then the measured system.
    let report = TraditionalSwitches::default().run(&sc);
    writeln!(out, "measured on the simulated fabric:")?;
    writeln!(out, "{}", report.summary())?;
    writeln!(out)?;
    writeln!(
        out,
        "  median reaction {} = {} software + {} network/serialization/exchange",
        report.reaction.median,
        report.software_path,
        report.network_time()
    )?;
    writeln!(
        out,
        "  measured network share = {:.0}%  (paper: ~50%; serialization and the \n\
         exchange-side hop push the measured share above the pure-switch analytic)",
        report.network_share * 100.0
    )?;
    Ok(Outcome {
        json: Some(report.to_json()),
        checks: vec![
            Check::above("reactions measured", 0, report.reaction.count),
            Check::new(
                "measured network share",
                "~50% (30%..=80%)",
                format!("{:.0}%", report.network_share * 100.0),
                (0.3..=0.8).contains(&report.network_share),
            ),
        ],
    })
}
