//! E21 — per-hop latency decomposition (§2).
//!
//! "Firms decompose end-to-end latency hop by hop": the measurement
//! practice behind every design argument in the paper. This experiment
//! runs the shared decomposition chain (bursty source → fast hop →
//! optical tap → slow 1G hop → sink) with full telemetry and shows where
//! each delivered frame's time went — processing, queueing,
//! serialization, propagation — reconciled to the picosecond against the
//! kernel's own clock.
//!
//! The JSON form is the run as `tn-trace/v1` JSONL (meta, node bindings,
//! one span per provenance segment, arrival events, metric snapshot).

use std::io::{self, Write};

use tn_sim::ObsConfig;

use super::{Check, Outcome};
use crate::obssim::{run_decomposition, trace_jsonl, DecompositionConfig};

pub fn run(out: &mut dyn Write) -> io::Result<Outcome> {
    let cfg = DecompositionConfig::new(42);
    let run = run_decomposition(&cfg, ObsConfig::full());
    let jsonl = trace_jsonl(&cfg, &run);

    writeln!(
        out,
        "latency decomposition: {} bursts x {} frames of {} B every {}\n",
        cfg.bursts, cfg.burst_frames, cfg.payload, cfg.interval
    )?;
    let doc = tn_obs::parse(&jsonl).expect("self-emitted trace parses");
    let summary = tn_obs::summarize(&doc);
    write!(out, "{}", summary.render(&doc, 3))?;

    writeln!(out)?;
    writeln!(
        out,
        "frames: sent={} delivered={} digest={:016x} events={}",
        run.sent_frames,
        run.deliveries.len(),
        run.digest,
        run.events
    )?;
    writeln!(
        out,
        "reconciliation: max |provenance total - measured latency| = {} ps over {} frames",
        run.max_residual_ps,
        run.deliveries.len()
    )?;

    // Full telemetry includes the kernel self-profiler: the same run,
    // annotated with what the *kernel* did to deliver it.
    if let Some(p) = &run.profile {
        writeln!(out)?;
        write!(out, "{}", p.render(""))?;
    }

    writeln!(
        out,
        "\n\
         the slow 1 Gb/s hop dominates: bursts of four frames queue behind each\n\
         other's serialization, so queue time rises with position in the burst —\n\
         the \u{a7}2 tap-and-timestamp picture, reproduced from pure simulation."
    )?;
    Ok(Outcome {
        checks: vec![Check::eq(
            "max abs(provenance total - measured latency), ps",
            0,
            run.max_residual_ps,
        )],
        json: Some(jsonl),
    })
}
