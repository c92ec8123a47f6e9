//! E19 — gap recovery under feed loss: the edge papers over the fabric.
//!
//! The paper's reliability premise: multicast feeds drop (fades, flaps,
//! oversubscribed replication), and receivers recover via sequence-gap
//! detection + retransmission requests rather than a reliable transport.
//! This experiment sweeps loss models over the same 16k-message stream
//! and reports what the recovery loop gave back and what it cost.

use std::io::{self, Write};

use tn_core::LatencyStats;
use tn_fault::FaultSpec;
use tn_sim::json::{num_u64, Json};

use super::{exp_json, Check, Outcome};
use crate::faultsim::{run_loss_recovery, LossRecoveryConfig, LossRecoveryRun};

fn sweep() -> Vec<(&'static str, LossRecoveryRun)> {
    let cases: Vec<(&'static str, FaultSpec)> = vec![
        ("clean", FaultSpec::new(11)),
        ("iid 0.1%", FaultSpec::new(11).with_iid_loss(0.001)),
        ("iid 1%", FaultSpec::new(11).with_iid_loss(0.01)),
        ("iid 5%", FaultSpec::new(11).with_iid_loss(0.05)),
        // Same 5% mean loss, but clustered: P(good→bad)=1.6%,
        // P(bad→good)=30%, bad state drops everything.
        (
            "burst ~5%",
            FaultSpec::new(11).with_burst_loss(0.016, 0.3, 0.0, 1.0),
        ),
    ];
    cases
        .into_iter()
        .map(|(name, fault)| (name, run_loss_recovery(&LossRecoveryConfig::new(1, fault))))
        .collect()
}

fn json(runs: &[(&str, LossRecoveryRun)]) -> String {
    let runs = runs.iter().map(|(name, r)| {
        let fill = LatencyStats::from_samples(&r.fill_latency_ps);
        Json::obj([
            ("fault", Json::Str(name.to_string())),
            ("published", num_u64(r.published_messages)),
            ("delivered", num_u64(r.delivered_messages)),
            ("gaps", num_u64(r.gaps_seen)),
            ("requests", num_u64(r.retrans_requests)),
            ("recovered", num_u64(r.recovered_messages)),
            ("abandoned", num_u64(r.abandoned)),
            ("refused", num_u64(r.refused)),
            ("fill_median_ps", num_u64(fill.median.as_ps())),
            ("fill_p99_ps", num_u64(fill.p99.as_ps())),
            ("digest", Json::Str(format!("{:016x}", r.digest))),
            ("events", num_u64(r.events)),
        ])
    });
    exp_json("loss_recovery", runs)
}

pub fn run(out: &mut dyn Write) -> io::Result<Outcome> {
    let runs = sweep();
    writeln!(
        out,
        "Gap recovery over a lossy feed (4,000 packets / 16,000 messages, 20 ms):\n"
    )?;
    writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>7} {:>9} {:>10} {:>10} {:>11} {:>11}",
        "fault",
        "published",
        "delivered",
        "gaps",
        "requests",
        "recovered",
        "abandoned",
        "fill med",
        "fill p99"
    )?;
    for (name, r) in &runs {
        let fill = LatencyStats::from_samples(&r.fill_latency_ps);
        writeln!(
            out,
            "{:<12} {:>10} {:>10} {:>7} {:>9} {:>10} {:>10} {:>11} {:>11}",
            name,
            r.published_messages,
            r.delivered_messages,
            r.gaps_seen,
            r.retrans_requests,
            r.recovered_messages,
            r.abandoned,
            fill.median.to_string(),
            fill.p99.to_string(),
        )?;
    }
    writeln!(out)?;

    let clean = &runs[0].1;
    let heavy = &runs[3].1;
    writeln!(
        out,
        "clean feed: {} of {} delivered, zero requests — the recovery path is free when unused.",
        clean.delivered_messages, clean.published_messages
    )?;
    writeln!(
        out,
        "at 5% i.i.d. loss the loop recovers {} messages across {} gaps \
         ({:.1}% delivery without it, {:.1}% with).",
        heavy.recovered_messages,
        heavy.gaps_seen,
        100.0 * (heavy.published_messages - heavy.recovered_messages) as f64
            / heavy.published_messages as f64,
        100.0 * heavy.delivery_rate(),
    )?;
    writeln!(
        out,
        "burstiness at equal mean loss concentrates gaps: {} gap events vs {} i.i.d. \
         — fewer, longer, cheaper to repair per record.",
        runs[4].1.gaps_seen, heavy.gaps_seen
    )?;

    // Recovery must close every gap at these loss rates, in every run.
    let incomplete: Vec<&str> = runs
        .iter()
        .filter(|(_, r)| r.delivered_messages != r.published_messages)
        .map(|&(name, _)| name)
        .collect();
    let abandoned: u64 = runs.iter().map(|(_, r)| r.abandoned).sum();
    Ok(Outcome {
        json: Some(json(&runs)),
        checks: vec![
            Check::eq(
                "clean feed, delivered vs published",
                clean.published_messages,
                clean.delivered_messages,
            ),
            Check::eq("clean feed gaps", 0, clean.gaps_seen),
            Check::new(
                "runs with delivered != published",
                "none of the 5",
                format!("{incomplete:?}"),
                incomplete.is_empty(),
            ),
            Check::eq("gaps abandoned across all runs", 0, abandoned),
            Check::below(
                "gap events, burst ~5% vs i.i.d. 5%",
                heavy.gaps_seen,
                runs[4].1.gaps_seen,
            ),
        ],
    })
}
