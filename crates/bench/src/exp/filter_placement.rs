//! E8 — where should market-data filtering run? (§3 "Implications for
//! trading systems")
//!
//! Sweeps consumer count and wanted-fraction through the placement cost
//! model: in-process filtering vs a dedicated core vs a shared
//! middlebox. Prints the §3 crossover: "when several systems employ the
//! same partitioning scheme, middleboxes can be more efficient in terms
//! of the number of cores used."

use std::io::{self, Write};

use tn_sim::SimTime;
use tn_trading::filter::{FilterPlacement, FilterWorkload};

use super::{Check, Outcome};

pub fn run(out: &mut dyn Write) -> io::Result<Outcome> {
    let base = FilterWorkload {
        event_rate: 1_500_000.0, // the Fig 2(b) busiest-second rate
        wanted_fraction: 0.05,
        discard_cost: SimTime::from_ns(100),
        process_cost: SimTime::from_us(2),
        consumers: 1,
    };
    writeln!(
        out,
        "workload: {} events/s, {:.0}% wanted, discard {} / process {} per event\n",
        base.event_rate,
        base.wanted_fraction * 100.0,
        base.discard_cost,
        base.process_cost
    )?;

    writeln!(
        out,
        "{:>10} {:>14} {:>14} {:>14} {:>14}",
        "consumers", "in-process", "dedicated", "middlebox", "best"
    )?;
    let mut crossover = None;
    for consumers in [1u32, 2, 4, 8, 16, 32, 64, 128, 256] {
        let w = FilterWorkload { consumers, ..base };
        let ip = w.cost(FilterPlacement::InProcess);
        let dc = w.cost(FilterPlacement::DedicatedCore);
        let mb = w.cost(FilterPlacement::Middlebox);
        let (best, _) = w.best();
        let fmt = |c: tn_trading::filter::PlacementCost| {
            if c.feasible {
                format!("{:.2}", c.cores)
            } else {
                format!("{:.2}!", c.cores)
            }
        };
        writeln!(
            out,
            "{:>10} {:>14} {:>14} {:>14} {:>14}",
            consumers,
            fmt(ip),
            fmt(dc),
            fmt(mb),
            format!("{best:?}")
        )?;
        if crossover.is_none() && best == FilterPlacement::Middlebox {
            crossover = Some(consumers);
        }
    }
    writeln!(out)?;
    match crossover {
        Some(n) => writeln!(
            out,
            "crossover: the shared middlebox wins from {n} consumers up — amortizing one\n\
             full-feed filtering pass across the fleet (cores marked '!' are infeasible:\n\
             a single core cannot keep up with the stream assigned to it)."
        )?,
        None => writeln!(out, "no crossover in range")?,
    }

    // §3's feasibility cliff: at the 100 us peak (100 ns/event), a
    // software core has no headroom at all.
    writeln!(out)?;
    let peak = FilterWorkload {
        event_rate: 10_660_000.0, // 1066 events / 100 us
        ..base
    };
    let ip = peak.cost(FilterPlacement::InProcess);
    writeln!(
        out,
        "at the Fig 2(c) peak rate ({:.2}M events/s): in-process utilization {:.2} — \n\
         infeasible in software; 'little time to perform any operations beyond copying\n\
         data into memory' (§3). Hardware filtering (FPGA-L1S, §5) is the escape hatch.",
        peak.event_rate / 1e6,
        ip.peak_core_utilization
    )?;
    Ok(Outcome {
        json: None,
        checks: vec![
            Check::new(
                "middlebox crossover",
                "wins from 2 consumers up",
                crossover.map_or("none".to_string(), |n| format!("{n} consumers")),
                crossover == Some(2),
            ),
            Check::new(
                "in-process filtering at the Fig 2(c) peak",
                "infeasible in software (utilization > 1)",
                format!("utilization {:.2}", ip.peak_core_utilization),
                !ip.feasible && ip.peak_core_utilization > 1.0,
            ),
        ],
    })
}
