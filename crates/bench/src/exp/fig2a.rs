//! E2 — regenerate **Figure 2(a)**: US options + equities market-data
//! events per day, 2020–2024.

use std::io::{self, Write};

use tn_market::GrowthModel;

use super::{Check, Outcome};
use crate::{ascii_chart, eng};

pub fn run(out: &mut dyn Write) -> io::Result<Outcome> {
    let series = GrowthModel::default().series(2024);
    writeln!(
        out,
        "Figure 2(a): market data event count by day (US options + equities)\n"
    )?;
    let values: Vec<f64> = series.iter().map(|p| p.events as f64).collect();
    writeln!(out, "{}", ascii_chart(&values, 100, 12))?;
    writeln!(
        out,
        "2020{:>24}2021{:>20}2022{:>20}2023{:>20}2024",
        "", "", "", ""
    )?;
    writeln!(out)?;

    // Yearly means, plus the growth anchors §3 quotes.
    writeln!(
        out,
        "{:<8} {:>14} {:>18}",
        "year", "events/day", "avg events/sec"
    )?;
    for year in 0..5 {
        let span: Vec<&_> = series
            .iter()
            .filter(|p| (p.year.floor() as i64) == 2020 + year)
            .collect();
        let mean = span.iter().map(|p| p.events as f64).sum::<f64>() / span.len() as f64;
        writeln!(
            out,
            "{:<8} {:>14} {:>18}",
            2020 + year,
            eng(mean),
            eng(mean / 86_400.0)
        )?;
    }
    let first: f64 = series[..60].iter().map(|p| p.events as f64).sum::<f64>() / 60.0;
    let last: f64 = series[series.len() - 60..]
        .iter()
        .map(|p| p.events as f64)
        .sum::<f64>()
        / 60.0;
    writeln!(out)?;
    writeln!(
        out,
        "growth over 5 years: {:.1}x = +{:.0}%  (paper: 'increased 500% over the last 5 years';\n\
         'tens of billions of events per day ... more than 500k events per second')",
        last / first,
        100.0 * (last - first) / first
    )?;
    let avg_rate = last / 86_400.0;
    writeln!(out, "2024 average rate: {} events/sec", eng(avg_rate))?;
    Ok(Outcome {
        json: None,
        checks: vec![Check::new(
            "2024 average event rate",
            ">500k events/s",
            format!("{} events/s", eng(avg_rate)),
            avg_rate > 500_000.0,
        )],
    })
}
