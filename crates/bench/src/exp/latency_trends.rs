//! E11 — §3's hardware trends: switch latency creeping up while host
//! latency falls, so the network's share of system latency grows.
//!
//! For each (switch generation, host generation) era, computes the §4.1
//! round trip (12 switch hops + 3 software hops) and the network share.

use std::io::{self, Write};

use tn_sim::SimTime;
use tn_switch::{host_generations, switch_generations};

use super::{Check, Outcome};

pub fn run(out: &mut dyn Write) -> io::Result<Outcome> {
    let switches = switch_generations();
    let hosts = host_generations();

    writeln!(
        out,
        "commodity switch generations (§3 'Latency Trends' / 'Multicast Trends'):"
    )?;
    writeln!(
        out,
        "{:>6} {:>12} {:>14} {:>14}",
        "year", "latency", "bandwidth", "mcast groups"
    )?;
    for g in &switches {
        writeln!(
            out,
            "{:>6} {:>12} {:>11} Tb {:>14}",
            g.year,
            g.latency.to_string(),
            g.bandwidth_bps / 1_000_000_000_000,
            g.mcast_groups
        )?;
    }
    let (f, l) = (switches.first().unwrap(), switches.last().unwrap());
    let latency_growth = 100.0 * (l.latency.as_ps() as f64 / f.latency.as_ps() as f64 - 1.0);
    writeln!(
        out,
        "latency +{:.0}% (paper: ~20% higher, ~500 ns today); bandwidth {:.0}x; groups +{:.0}% \
         (paper: 80%)\n",
        latency_growth,
        l.bandwidth_bps as f64 / f.bandwidth_bps as f64,
        100.0 * (l.mcast_groups as f64 / f.mcast_groups as f64 - 1.0),
    )?;

    writeln!(out, "host (one software hop) generations:")?;
    for g in &hosts {
        writeln!(out, "{:>6} {:>12}", g.year, g.latency.to_string())?;
    }
    writeln!(
        out,
        "(paper: 'latency for a hop through a software host ... is now below 1 microsecond')\n"
    )?;

    writeln!(
        out,
        "the §4.1 round trip (12 switch hops + 3 software hops) by era:"
    )?;
    writeln!(
        out,
        "{:>12} {:>14} {:>14} {:>14} {:>10}",
        "era", "network", "software", "total", "net share"
    )?;
    let mut shares = Vec::new();
    for (sw, host) in switches
        .iter()
        .zip([0, 0, 1, 1, 2, 2].iter().map(|&i| &hosts[i]))
    {
        let network = sw.latency * 12;
        let software = host.latency * 3;
        let total = network + software;
        let share = 100.0 * network.as_ps() as f64 / total.as_ps() as f64;
        shares.push(share);
        writeln!(
            out,
            "{:>12} {:>14} {:>14} {:>14} {:>9.0}%",
            format!("{}/{}", sw.year, host.year),
            network.to_string(),
            software.to_string(),
            total.to_string(),
            share,
        )?;
    }
    writeln!(
        out,
        "\n\
         network share climbs monotonically — 'network latency is a large and\n\
         increasing share of total system latency' (§3)."
    )?;
    let host_now = hosts.last().unwrap().latency;
    Ok(Outcome {
        json: None,
        checks: vec![
            Check::new(
                "commodity switch latency over a decade",
                "~20% higher (15%..=25%), 500 ns today",
                format!("+{latency_growth:.0}%, {} today", l.latency),
                (15.0..=25.0).contains(&latency_growth) && l.latency == SimTime::from_ns(500),
            ),
            Check::new(
                "one software host hop today",
                "below 1 us",
                host_now,
                host_now < SimTime::from_us(1),
            ),
            Check::new(
                "network share of the §4.1 round trip by era",
                "increasing: strictly rising across eras",
                format!("{:.0}% -> {:.0}%", shares[0], shares[shares.len() - 1]),
                shares.windows(2).all(|w| w[0] < w[1]),
            ),
        ],
    })
}
