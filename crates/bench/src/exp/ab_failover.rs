//! E20 — A/B feed arbitration through an outage: failover for free.
//!
//! §2's cross-connects carry every feed twice. When the primary path
//! takes a hard 10 ms outage (a flapped port, a microwave fade), the
//! arbiter keeps the stream whole out of the B copy — no requests, no
//! resync, just a win-share swing. This experiment runs the pair through
//! a scheduled outage and a burst-degraded primary and reports who won
//! each packet and what throughput looked like inside the window.

use std::io::{self, Write};

use tn_fault::FaultSpec;
use tn_sim::json::{num_fixed, num_u64, Json};
use tn_sim::SimTime;

use super::{exp_json, Check, Outcome};
use crate::faultsim::{run_ab_failover, AbFailoverConfig, AbFailoverRun};

fn sweep() -> Vec<(&'static str, AbFailoverRun)> {
    let outage = AbFailoverConfig::new(2);

    // Same workload, but A degrades to 30% burst loss instead of dying.
    let mut degraded = AbFailoverConfig::new(2);
    degraded.a_fault = FaultSpec::new(2 ^ 0xA).with_burst_loss(0.1, 0.2, 0.0, 0.9);

    // Both sides lossy and uncorrelated: the pair still beats either
    // alone, but some records now die on both copies.
    let mut both = AbFailoverConfig::new(2);
    both.a_fault = FaultSpec::new(2 ^ 0xA).with_iid_loss(0.10);
    both.b_fault = Some(FaultSpec::new(2 ^ 0xB).with_iid_loss(0.10));

    vec![
        ("A outage 10-20ms", run_ab_failover(&outage)),
        ("A burst-degraded", run_ab_failover(&degraded)),
        ("A+B 10% iid", run_ab_failover(&both)),
    ]
}

fn json(runs: &[(&str, AbFailoverRun)]) -> String {
    let runs = runs.iter().map(|(name, r)| {
        Json::obj([
            ("fault", Json::Str(name.to_string())),
            ("published", num_u64(r.published_messages)),
            ("delivered", num_u64(r.delivered_messages)),
            ("gap_events", num_u64(r.gap_events)),
            ("gap_messages", num_u64(r.gap_messages)),
            ("duplicates", num_u64(r.duplicates)),
            ("a_won", num_u64(r.side_a.1)),
            ("b_won", num_u64(r.side_b.1)),
            ("window_throughput", num_fixed(r.window_throughput, 1)),
            ("clean_throughput", num_fixed(r.clean_throughput, 1)),
            ("digest", Json::Str(format!("{:016x}", r.digest))),
            ("events", num_u64(r.events)),
        ])
    });
    exp_json("ab_failover", runs)
}

pub fn run(out: &mut dyn Write) -> io::Result<Outcome> {
    let runs = sweep();
    writeln!(
        out,
        "A/B arbitration, B {} behind A (6,000 packets / 24,000 messages, 30 ms):\n",
        SimTime::from_us(2)
    )?;
    writeln!(
        out,
        "{:<18} {:>10} {:>10} {:>8} {:>8} {:>8} {:>6} {:>13} {:>13}",
        "primary fault",
        "published",
        "delivered",
        "A won",
        "B won",
        "dups",
        "gaps",
        "window msg/s",
        "clean msg/s"
    )?;
    for (name, r) in &runs {
        writeln!(
            out,
            "{:<18} {:>10} {:>10} {:>8} {:>8} {:>8} {:>6} {:>13} {:>13}",
            name,
            r.published_messages,
            r.delivered_messages,
            r.side_a.1,
            r.side_b.1,
            r.duplicates,
            r.gap_messages,
            crate::eng(r.window_throughput),
            crate::eng(r.clean_throughput),
        )?;
    }
    writeln!(out)?;

    let outage = &runs[0].1;
    let both = &runs[2].1;
    writeln!(
        out,
        "through the outage the stream never blinks: {} of {} delivered, {} records lost, \
         window throughput {} msg/s (vs {} clean).",
        outage.delivered_messages,
        outage.published_messages,
        outage.gap_messages,
        crate::eng(outage.window_throughput),
        crate::eng(outage.clean_throughput),
    )?;
    writeln!(
        out,
        "only correlated loss hurts: with both sides at 10% i.i.d., {} records die on both \
         copies (~1% of the stream) — the pair turns p into p^2.",
        both.gap_messages
    )?;

    let degraded = &runs[1].1;
    Ok(Outcome {
        json: Some(json(&runs)),
        checks: vec![
            Check::eq(
                "A outage: delivered vs published",
                outage.published_messages,
                outage.delivered_messages,
            ),
            Check::eq("A outage: records lost", 0, outage.gap_messages),
            Check::above("A outage: packets B won (inside it)", 0, outage.side_b.1),
            Check::above(
                "A outage: packets A won (outside it) vs B's",
                outage.side_b.1,
                outage.side_a.1,
            ),
            // B covers a degraded-but-alive A; correlated loss is the
            // only real gap source, and it turns p into p^2 (~1%).
            Check::eq("A burst-degraded: records lost", 0, degraded.gap_messages),
            Check::above("A+B 10% i.i.d.: records lost", 0, both.gap_messages),
            Check::below(
                "A+B 10% i.i.d.: records lost vs 2% of the stream",
                both.published_messages / 50,
                both.gap_messages,
            ),
        ],
    })
}
