//! E17 — §5 "Protocols": a custom transport on the L1 fabric, end to end.
//!
//! "It seems fruitful to consider designing custom transport protocols
//! for use in trading systems. One could also imagine designing custom
//! transport protocols with the constraints of L1Ses in mind."
//!
//! Runs Design 3 twice — internal feed framed as Eth+IP+UDP versus the
//! 8-byte `l1t` header — and accounts for the wire time the custom
//! framing returns.

use std::io::{self, Write};

use tn_core::design::{LayerOneSwitches, TradingNetworkDesign};
use tn_core::ScenarioConfig;
use tn_sim::json::Json;
use tn_sim::SimTime;
use tn_wire::l1t;
use tn_wire::stack::UDP_OVERHEAD;

use super::{Check, Outcome};

pub fn run(out: &mut dyn Write) -> io::Result<Outcome> {
    let sc = ScenarioConfig::builder(21)
        .background_rate(20_000.0)
        .duration(SimTime::from_ms(60))
        .build()
        .expect("valid scenario");

    let udp = LayerOneSwitches::default().run(&sc);
    let custom = LayerOneSwitches {
        custom_transport: true,
        ..Default::default()
    }
    .run(&sc);

    writeln!(
        out,
        "Design 3 internal feed, UDP framing vs the §5 custom transport:\n"
    )?;
    writeln!(
        out,
        "{:<22} {:>10} {:>12} {:>12} {:>12}",
        "framing", "orders", "react min", "react med", "hdr B/pkt"
    )?;
    writeln!(
        out,
        "{:<22} {:>10} {:>12} {:>12} {:>12}",
        "Eth+IPv4+UDP",
        udp.orders_sent,
        udp.reaction.min.to_string(),
        udp.reaction.median.to_string(),
        UDP_OVERHEAD
    )?;
    writeln!(
        out,
        "{:<22} {:>10} {:>12} {:>12} {:>12}",
        "l1t (custom)",
        custom.orders_sent,
        custom.reaction.min.to_string(),
        custom.reaction.median.to_string(),
        l1t::HEADER_LEN
    )?;
    writeln!(out)?;
    let saved_bytes = (UDP_OVERHEAD - l1t::HEADER_LEN) as u64;
    let per_pkt = SimTime::serialization(saved_bytes as usize, 10_000_000_000);
    writeln!(
        out,
        "savings: {saved_bytes} header bytes/packet = {per_pkt} of 10G wire time per hop; \
         behaviour is\nbit-identical otherwise ({} orders either way). The custom header \
         also exposes the\npartition at a fixed offset — exactly what an FPGA filter \
         stage wants (§5).",
        custom.orders_sent
    )?;
    Ok(Outcome {
        json: Some(Json::Arr(vec![udp.json(), custom.json()]).render()),
        checks: vec![
            Check::eq(
                "orders sent under l1t vs UDP framing",
                udp.orders_sent,
                custom.orders_sent,
            ),
            Check::new(
                "uncongested reaction under l1t framing",
                format!("<= {} (UDP framing)", udp.reaction.min),
                custom.reaction.min,
                custom.reaction.min <= udp.reaction.min,
            ),
        ],
    })
}
