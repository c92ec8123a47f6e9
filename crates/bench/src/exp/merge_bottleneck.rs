//! E10 — the L1S merge bottleneck (§4.3).
//!
//! "Recall that market data is bursty, so merged feeds can easily exceed
//! the available bandwidth, leading to latency from queuing or packet
//! loss."
//!
//! N normalizer feeds are merged onto one strategy NIC (a 10 GbE
//! circuit). Each source emits a correlated burst — the §2 observation
//! that bursts across feeds move together. Sweeping N shows the
//! trade-off behind subscription caps: every added feed increases
//! coverage *and* tail latency, until the bounded egress starts dropping.

use std::io::{self, Write};

use tn_fault::{FaultConnect, LinkSpec};
use tn_sim::{Context, Frame, Node, PortId, SimTime, Simulator};
use tn_stats::Summary;
use tn_switch::l1s::{L1Config, L1Switch};

use super::{Check, Outcome};

/// The strategy NIC: records each frame's birth-to-arrival latency.
pub(super) struct Rx {
    pub(super) latencies_ns: Vec<u64>,
}

impl Node for Rx {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _p: PortId, f: Frame) {
        self.latencies_ns.push((ctx.now() - f.born).as_ns());
    }
}

/// Merge `sources` bursting feeds onto one 10G egress with a bounded
/// queue; returns (delivered, dropped, median ns, p99 ns, max ns).
pub(super) fn merge_burst(
    sources: usize,
    frames_per_burst: usize,
    frame_len: usize,
) -> (u64, u64, u64, u64, u64) {
    let mut sim = Simulator::new(2);
    let mut sw = L1Switch::new(L1Config::default());
    let out = PortId(100);
    for s in 0..sources {
        sw.provision_merge(PortId(s as u16), out);
    }
    let sw = sim.add_node("merge", sw);
    let rx = sim.add_node(
        "rx",
        Rx {
            latencies_ns: vec![],
        },
    );
    // The strategy's single NIC circuit: 10G with a 64 kB egress buffer —
    // a generous L1S mux FIFO.
    sim.connect_spec(
        sw,
        out,
        rx,
        PortId(0),
        &LinkSpec::ten_gig(SimTime::ZERO).with_queue_bytes(65_536),
    );

    // Correlated burst: all sources fire at the same instant, each frame
    // spaced at its own line rate (they arrive on independent 10G links).
    let spacing = SimTime::serialization(frame_len, 10_000_000_000);
    for s in 0..sources {
        for i in 0..frames_per_burst {
            let mut f = sim.frame().zeroed(frame_len).build();
            f.born = spacing * i as u64; // stamp the true emission time
            sim.inject_frame(f.born, sw, PortId(s as u16), f);
        }
    }
    sim.run();
    let delivered = sim.node::<Rx>(rx).unwrap().latencies_ns.clone();
    let dropped = sim.stats().frames_dropped;
    let mut s = Summary::new();
    s.extend(delivered.iter().copied());
    (s.count() as u64, dropped, s.median(), s.p99(), s.max())
}

pub fn run(out: &mut dyn Write) -> io::Result<Outcome> {
    let frames_per_burst = 400;
    let frame_len = 600;
    writeln!(
        out,
        "merge onto one 10G NIC circuit; correlated bursts of {frames_per_burst} x \
         {frame_len} B frames per source; 64 kB mux FIFO\n"
    )?;
    writeln!(
        out,
        "{:>8} {:>12} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "feeds", "offered", "delivered", "dropped", "median", "p99", "max"
    )?;
    // Per row: (% of the offered burst dropped, median ns, max ns).
    let mut rows = Vec::new();
    for sources in [1usize, 2, 3, 4, 6, 8] {
        let offered = sources * frames_per_burst;
        let (delivered, dropped, med, p99, max) = merge_burst(sources, frames_per_burst, frame_len);
        writeln!(
            out,
            "{:>8} {:>12} {:>10} {:>10} {:>9} ns {:>9} ns {:>9} ns",
            sources, offered, delivered, dropped, med, p99, max
        )?;
        rows.push((100.0 * dropped as f64 / offered as f64, med, max));
    }
    writeln!(
        out,
        "\n\
         one feed fits (56 ns flat). Every feed beyond the first offers another\n\
         10 Gbps into a 10 Gbps circuit: queueing grows linearly through the burst\n\
         until the FIFO bound, then the §4.3 failure mode — loss. This is why L1\n\
         designs cap subscriptions, and why §5 wants filtering in the merge."
    )?;
    let (one, merged) = (rows[0], &rows[1..]);
    let (first, last) = (merged[0].0, merged[merged.len() - 1].0);
    Ok(Outcome {
        json: None,
        checks: vec![
            Check::new(
                "one feed through the merge",
                "flat 536 ns (56 ns merge + 480 ns serialization), zero loss",
                format!("median {} ns, max {} ns, {}% dropped", one.1, one.2, one.0),
                one == (0.0, 536, 536),
            ),
            Check::new(
                "burst dropped once feeds are merged",
                "36% at 2 feeds rising to 84% at 8 (to the percent, strictly rising)",
                format!("{first:.0}% -> {last:.0}%"),
                first.round() == 36.0
                    && last.round() == 84.0
                    && merged.windows(2).all(|w| w[0].0 < w[1].0),
            ),
        ],
    })
}
