//! E6 — the three §4 designs head to head on the same scenario.
//!
//! Expected shape: L1 circuit switching removes ~two orders of magnitude
//! of per-hop network latency versus commodity switches (6 ns vs 500 ns
//! per hop; +50 ns per merge), and the cloud's equalization constant puts
//! it milliseconds behind both.

use std::io::{self, Write};

use tn_core::design::{CloudDesign, LayerOneSwitches, TradingNetworkDesign, TraditionalSwitches};
use tn_core::{DesignReport, ScenarioConfig};
use tn_sim::json::Json;
use tn_sim::SimTime;

use super::{Check, Outcome};

pub fn run(out: &mut dyn Write) -> io::Result<Outcome> {
    let sc = ScenarioConfig::builder(9)
        .background_rate(10_000.0)
        .tick_interval(SimTime::from_us(20)) // near-per-event: clean paths
        .duration(SimTime::from_ms(60))
        .build()
        .expect("valid scenario");

    let designs: Vec<Box<dyn TradingNetworkDesign>> = vec![
        Box::new(TraditionalSwitches::default()),
        Box::new(CloudDesign::default()),
        Box::new(LayerOneSwitches::default()),
    ];
    let reports: Vec<_> = designs.iter().map(|d| d.run(&sc)).collect();

    writeln!(
        out,
        "{:<32} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "design", "react min", "react median", "react p99", "net time", "net %"
    )?;
    for r in &reports {
        writeln!(
            out,
            "{:<32} {:>12} {:>12} {:>12} {:>12} {:>7.1}%",
            r.design,
            r.reaction.min.to_string(),
            r.reaction.median.to_string(),
            r.reaction.p99.to_string(),
            r.network_time().to_string(),
            r.network_share * 100.0
        )?;
    }
    writeln!(out)?;

    let d1 = &reports[0];
    let d2 = &reports[1];
    let d3 = &reports[2];
    // The minimum reaction is the uncongested path: same software and
    // serialization in every design, so the min-reaction *difference* is
    // the pure switching difference (12 commodity hops vs 4 L1 stages).
    let switching_gap = d1.reaction.min.saturating_sub(d3.reaction.min);
    writeln!(
        out,
        "switching time removed by the L1 fabric    : {} on the uncongested path",
        switching_gap
    )?;
    writeln!(
        out,
        "  analytic: 12 x 500 ns - (6+6+50+50) ns   = {} (four L1 stages, two merged)",
        SimTime::from_ns(12 * 500 - 112)
    )?;
    writeln!(
        out,
        "per-hop advantage (500 ns vs 6 ns fan-out)  : {:.0}x  (paper: 'two orders of magnitude')",
        500.0 / 6.0
    )?;
    writeln!(
        out,
        "cloud penalty over commodity                : {:.0}x on median reaction",
        d2.reaction.median.as_ps() as f64 / d1.reaction.median.as_ps() as f64
    )?;
    Ok(Outcome {
        json: Some(Json::Arr(reports.iter().map(DesignReport::json).collect()).render()),
        checks: vec![
            Check::below(
                "L1 median reaction vs commodity's",
                d1.reaction.median,
                d3.reaction.median,
            ),
            Check::above(
                "cloud median reaction vs 10x commodity's",
                d1.reaction.median * 10,
                d2.reaction.median,
            ),
            Check::new(
                "switching time removed by L1",
                "analytic 5.9 us (4 us..8 us, exclusive)",
                switching_gap,
                switching_gap > SimTime::from_us(4) && switching_gap < SimTime::from_us(8),
            ),
        ],
    })
}
