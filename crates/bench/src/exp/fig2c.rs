//! E4 — regenerate **Figure 2(c)**: the busiest second of Figure 2(b) at
//! 100-microsecond resolution.

use std::io::{self, Write};

use tn_market::workload::{SESSION_CLOSE_SEC, SESSION_OPEN_SEC};
use tn_market::{IntradayModel, MicroburstModel};
use tn_stats::Summary;

use super::{Check, Outcome};
use crate::{ascii_chart, eng};

pub fn run(out: &mut dyn Write) -> io::Result<Outcome> {
    // Take the busiest second straight out of the Fig 2(b) model so the
    // two figures are consistent, then distribute it over 100 us windows.
    let counts = IntradayModel::default().per_second_counts(2);
    let (busiest_sec, busiest_count) = counts
        [SESSION_OPEN_SEC as usize..SESSION_CLOSE_SEC as usize]
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, &c)| (SESSION_OPEN_SEC as usize + i, c))
        .expect("session has seconds");

    let model = MicroburstModel {
        total_events: busiest_count,
        ..MicroburstModel::default()
    };
    let windows = model.window_counts(4);

    writeln!(
        out,
        "Figure 2(c): events in the busiest second ({}:{:02}:{:02}, {} events), 100 us windows\n",
        busiest_sec / 3600,
        (busiest_sec % 3600) / 60,
        busiest_sec % 60,
        eng(busiest_count as f64)
    )?;
    let series: Vec<f64> = windows.iter().map(|&c| c as f64).collect();
    writeln!(out, "{}", ascii_chart(&series, 100, 14))?;
    writeln!(
        out,
        "0ms{:>22}200ms{:>18}400ms{:>18}600ms{:>18}800ms",
        "", "", "", ""
    )?;
    writeln!(out)?;

    let mut s = Summary::new();
    s.extend(windows.iter().copied());
    writeln!(
        out,
        "median 100 us window  : {:>5} events   (paper: 129)",
        s.median()
    )?;
    writeln!(
        out,
        "busiest 100 us window : {:>5} events   (paper: 1066)",
        s.max()
    )?;
    writeln!(out)?;
    // §3: "processing at 100 nanoseconds per event — i.e., a software
    // system would have little time to perform any operations beyond
    // copying data into memory."
    let budget_ns = 100_000.0 / s.max() as f64;
    writeln!(
        out,
        "per-event budget in the peak window: {budget_ns:.0} ns   (paper: ~100 ns)"
    )?;
    Ok(Outcome {
        json: None,
        checks: vec![
            Check::within("median 100 us window, ~129 events", 90, 170, s.median()),
            Check::within("busiest 100 us window, ~1066 events", 650, 1700, s.max()),
        ],
    })
}
