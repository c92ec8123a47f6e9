//! E15 — placement optimization (§4.1's caveat, §5 "Cluster Management").
//!
//! §4.1: optimizing server placement "could only optimize placement for a
//! few strategies and the majority would not benefit." This experiment
//! quantifies that: as the strategy fleet grows against a fixed rack
//! budget, the co-located fraction collapses, while the *traffic-
//! weighted* hop count still improves because the heavy hitters land
//! next to their feeds.

use std::io::{self, Write};

use tn_topo::placement::{colocated_fraction, grouped, mean_path_hops, optimize, skewed_demands};

use super::{Check, Outcome};

pub fn run(out: &mut dyn Write) -> io::Result<Outcome> {
    let normalizers = 4;
    let gateways = 4;
    let slots = 16;

    writeln!(
        out,
        "leaf-spine, {normalizers} normalizers, {gateways} gateways, {slots} hosts/rack, \
         Zipf-weighted strategy traffic\n"
    )?;
    writeln!(
        out,
        "{:>10} {:>8} {:>14} {:>14} {:>12} {:>12}",
        "strategies", "racks", "grouped hops", "optimized", "saved", "co-located"
    )?;
    // Per row: (grouped hops, % of weighted hops saved, % co-located).
    let mut rows = Vec::new();
    for strategies in [8usize, 16, 32, 64, 128, 256, 512] {
        let racks = (normalizers + gateways + strategies).div_ceil(slots).max(2);
        let demands = skewed_demands(strategies, normalizers, gateways);
        let grp = grouped(normalizers, strategies, gateways, slots);
        let opt = optimize(&demands, normalizers, gateways, racks, slots);
        let grp_hops = mean_path_hops(&demands, &grp);
        let opt_hops = mean_path_hops(&demands, &opt);
        let saved = 100.0 * (grp_hops - opt_hops) / grp_hops;
        let colocated = 100.0 * colocated_fraction(&demands, &opt);
        writeln!(
            out,
            "{:>10} {:>8} {:>14.2} {:>14.2} {:>11.0}% {:>11.0}%",
            strategies, racks, grp_hops, opt_hops, saved, colocated,
        )?;
        rows.push((grp_hops, saved.round(), colocated.round()));
    }
    writeln!(
        out,
        "\n\
         grouped placement pays 6 hops (3+3) on every path. The optimizer co-locates\n\
         strategies with their primary feed while rack slots last; as the fleet\n\
         grows, the co-located *fraction* collapses (§4.1: 'the majority would not\n\
         benefit') even though the traffic-weighted savings persist — the Zipf head\n\
         carries the weight. A placement-aware cluster manager (§5) banks exactly\n\
         this: optimize for the heavy few, accept fabric latency for the tail."
    )?;
    let (first, last) = (rows[0], rows[rows.len() - 1]);
    let saved_min = rows.iter().map(|r| r.1).fold(f64::MAX, f64::min);
    let saved_max = rows.iter().map(|r| r.1).fold(f64::MIN, f64::max);
    Ok(Outcome {
        json: None,
        checks: vec![
            Check::new(
                "grouped placement",
                "6.00 mean switch hops on every row",
                format!("{:.2} .. {:.2}", first.0, last.0),
                rows.iter().all(|r| r.0 == 6.0),
            ),
            Check::new(
                "co-located fraction as the fleet grows 8 -> 512",
                "falls 100% -> 11% (to the percent), never rising",
                format!("{:.0}% -> {:.0}%", first.2, last.2),
                first.2 == 100.0 && last.2 == 11.0 && rows.windows(2).all(|w| w[0].2 >= w[1].2),
            ),
            Check::new(
                "traffic-weighted hops saved",
                "45%..=67% on every row",
                format!("{saved_min:.0}% .. {saved_max:.0}%"),
                saved_min >= 45.0 && saved_max <= 67.0,
            ),
        ],
    })
}
