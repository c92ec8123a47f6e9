//! E1 — regenerate **Table 1**: frame lengths from market data feeds.
//!
//! Samples a mid-day hour of traffic from each exchange profile and
//! prints min/avg/median/max frame lengths next to the paper's numbers.

use std::io::{self, Write};

use tn_market::ExchangeProfile;
use tn_stats::Summary;

use super::{Check, Outcome};

pub fn run(out: &mut dyn Write) -> io::Result<Outcome> {
    // A mid-day hour at a few thousand packets/second.
    let samples_per_feed = 1_000_000;
    // (name, paper min/avg/median/max, tolerance on the average in bytes)
    let paper = [
        ("Exchange A", (73u64, 92u64, 89u64, 1514u64), 0u64),
        ("Exchange B", (64, 113, 76, 1067), 1),
        ("Exchange C", (81, 151, 101, 1442), 0),
    ];
    let mut checks = Vec::new();

    writeln!(out, "Table 1: Frame lengths from market data feeds")?;
    writeln!(
        out,
        "{:<12} {:>6} {:>7} {:>8} {:>6}   (paper: min/avg/median/max)",
        "Feed", "min", "avg", "median", "max"
    )?;
    for (profile, (name, (p_min, p_avg, p_med, p_max), avg_tol)) in
        ExchangeProfile::table1().into_iter().zip(paper)
    {
        let mut s = Summary::new();
        s.extend(profile.sample_frame_lengths(0x7AB1u64, samples_per_feed));
        let avg = s.mean().round() as u64;
        writeln!(
            out,
            "{:<12} {:>6} {:>7} {:>8} {:>6}   ({p_min}/{p_avg}/{p_med}/{p_max})",
            name,
            s.min(),
            avg,
            s.median(),
            s.max(),
        )?;
        checks.push(Check::new(
            name,
            format!("{p_min}/{p_avg}/{p_med}/{p_max}, avg within {avg_tol} B, rest exact"),
            format!("{}/{avg}/{}/{}", s.min(), s.median(), s.max()),
            (s.min(), s.median(), s.max()) == (p_min, p_med, p_max)
                && avg.abs_diff(p_avg) <= avg_tol,
        ));
    }
    writeln!(
        out,
        "\n\
         Header accounting: every frame carries 42 B of Eth+IP+UDP headers plus the\n\
         profile's 0-15 B protocol-specific header — 25-40% of all bytes sent (§3)."
    )?;
    Ok(Outcome { json: None, checks })
}
