//! E3 — regenerate **Figure 2(b)**: options BBO events for a single
//! stock on a single day, counted in 1-second windows.

use std::io::{self, Write};

use tn_market::workload::{SESSION_CLOSE_SEC, SESSION_OPEN_SEC};
use tn_market::IntradayModel;
use tn_stats::Summary;

use super::{Check, Outcome};
use crate::{ascii_chart, eng};

pub fn run(out: &mut dyn Write) -> io::Result<Outcome> {
    let counts = IntradayModel::default().per_second_counts(2);
    writeln!(
        out,
        "Figure 2(b): options events for a single stock, 1-second windows\n"
    )?;
    // Plot 9:00 - 16:30 like the paper's x-axis.
    let from = 32_400usize;
    let to = 59_400usize;
    let window: Vec<f64> = counts[from..to].iter().map(|&c| c as f64).collect();
    writeln!(out, "{}", ascii_chart(&window, 108, 14))?;
    writeln!(
        out,
        "9:00{:>20}10:30{:>20}12:00{:>20}13:30{:>20}15:00{:>8}16:30",
        "", "", "", "", ""
    )?;
    writeln!(out)?;

    let mut s = Summary::new();
    s.extend(
        counts[SESSION_OPEN_SEC as usize..SESSION_CLOSE_SEC as usize]
            .iter()
            .copied(),
    );
    let median = s.median();
    let max = s.max();
    writeln!(out, "session seconds : {}", s.count())?;
    writeln!(
        out,
        "median second   : {} events   (paper: >300k)",
        eng(median as f64)
    )?;
    writeln!(
        out,
        "busiest second  : {} events   (paper: 1.5M)",
        eng(max as f64)
    )?;
    writeln!(out, "day total       : {} events", eng(s.sum() as f64))?;
    writeln!(out)?;
    // §3: "to be able to process a single second's events as quickly as
    // they arrive, a trading system would need to be able to process each
    // event in around 650 nanoseconds".
    let budget_ns = 1e9 / max as f64;
    writeln!(
        out,
        "per-event budget during the busiest second: {budget_ns:.0} ns   (paper: ~650 ns)"
    )?;
    Ok(Outcome {
        json: None,
        checks: vec![
            Check::above("median second, events", 300_000, median),
            Check::within("busiest second, ~1.5M events", 1_150_000, 1_600_000, max),
        ],
    })
}
