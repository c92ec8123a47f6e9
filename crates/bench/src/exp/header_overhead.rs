//! E9 — protocol header overhead (§3 Table-1 commentary + §5
//! "Protocols").
//!
//! Three measurements:
//! 1. Header share of feed bytes per Table 1 profile ("40 bytes of
//!    network headers ... represent 25%-40% of the data sent").
//! 2. Order-entry overhead: tiny order messages under a 54-byte
//!    Eth+IP+TCP stack, and the 40 ns it costs to serialize those headers
//!    at 10 Gbps.
//! 3. What the §5 custom transport buys: the same traffic re-framed with
//!    the 8-byte `l1t` header.

use std::io::{self, Write};

use tn_market::ExchangeProfile;
use tn_sim::SimTime;
use tn_wire::pitch::Side;
use tn_wire::stack::{TCP_OVERHEAD, UDP_OVERHEAD};
use tn_wire::{boe, l1t, Symbol};

use super::{Check, Outcome};

pub fn run(out: &mut dyn Write) -> io::Result<Outcome> {
    writeln!(out, "— feed header share (Table 1 traffic) —")?;
    writeln!(
        out,
        "{:<12} {:>10} {:>12} {:>12} {:>10} {:>10}",
        "feed", "frames", "total B", "header B", "share", "l1t share"
    )?;
    for p in ExchangeProfile::table1() {
        let lens = p.sample_frame_lengths(77, 300_000);
        let total: u64 = lens.iter().sum();
        let stack_hdr = (UDP_OVERHEAD + p.extra_header) as u64;
        let headers = stack_hdr * lens.len() as u64;
        // Reframe: replace the network+extra headers with the 8-byte l1t
        // header; payloads unchanged.
        let l1t_total: u64 = lens
            .iter()
            .map(|&l| l - stack_hdr + l1t::HEADER_LEN as u64)
            .sum();
        let l1t_headers = l1t::HEADER_LEN as u64 * lens.len() as u64;
        writeln!(
            out,
            "{:<12} {:>10} {:>12} {:>12} {:>9.1}% {:>9.1}%",
            p.name,
            lens.len(),
            total,
            headers,
            100.0 * headers as f64 / total as f64,
            100.0 * l1t_headers as f64 / l1t_total as f64,
        )?;
    }
    writeln!(
        out,
        "(paper: network + protocol headers are 25%-40% of feed bytes)\n"
    )?;

    writeln!(out, "— order entry —")?;
    let new_order = boe::Message::NewOrder {
        cl_ord_id: 1,
        side: Side::Buy,
        qty: 100,
        symbol: Symbol::new("SPY").unwrap(),
        price: 450_0000,
    };
    let cancel = boe::Message::CancelOrder { cl_ord_id: 1 };
    for (name, msg, pitch_equiv) in [("new order", &new_order, 26usize), ("cancel", &cancel, 14)] {
        let body = msg.wire_len();
        let framed = TCP_OVERHEAD + body;
        writeln!(
            out,
            "{:<10}: {:>3} B message (PITCH equivalent {} B) under {} B of Eth+IP+TCP \
             -> {} B on the wire ({:.0}% headers)",
            name,
            body,
            pitch_equiv,
            TCP_OVERHEAD,
            framed,
            100.0 * TCP_OVERHEAD as f64 / framed as f64
        )?;
    }
    let hdr_time = SimTime::serialization(TCP_OVERHEAD - 4, 10_000_000_000);
    writeln!(
        out,
        "serializing ~50 B of Eth+IP+TCP headers at 10 Gbps costs {} — §5's \"40 \
         nanoseconds\" that strategies pay to ignore those fields",
        hdr_time
    )?;

    writeln!(
        out,
        "\n\
         — custom transport (§5) —"
    )?;
    let savings_udp = UDP_OVERHEAD - l1t::HEADER_LEN;
    let savings_tcp = TCP_OVERHEAD - l1t::HEADER_LEN;
    writeln!(
        out,
        "l1t header is {} B: saves {savings_udp} B/packet vs UDP framing and \
         {savings_tcp} B/packet vs TCP framing,",
        l1t::HEADER_LEN
    )?;
    writeln!(
        out,
        "i.e. {} of wire time per packet back at 10 Gbps — most of a commodity \
         switch hop.",
        SimTime::serialization(savings_tcp, 10_000_000_000)
    )?;
    Ok(Outcome {
        json: None,
        checks: vec![Check::eq(
            "Eth+IP+TCP header serialization at 10 Gbps",
            SimTime::from_ns(40),
            hdr_time,
        )],
    })
}
