//! E7 — mroute-table exhaustion (§3 "Multicast Trends").
//!
//! Sweeps the number of multicast groups a trading plant asks of a
//! commodity switch past its hardware table capacity, measuring delivery
//! rate and latency per group class. Also prints the §3 trend: market
//! data grew ~500% over five years while switch multicast capacity grew
//! ~80% — partitioning demand (600 → 1300 partitions for one strategy)
//! is on a collision course with the table.
//!
//! The demand axis is expressed as a `tn-lab` sweep spec and executed by
//! the lab's batch runner through a custom [`RunExecutor`] — the
//! proof-of-reuse example for lab-backed experiments. Each cell runs the
//! shared mroute rig ([`crate::mcastsim`]) that `examples/mcast_cliff.rs`
//! and the divergence registry run too.

use std::io::{self, Write};

use tn_lab::{run_batch, Axis, AxisValues, RunExecutor, RunOutcome, RunPlan, SweepSpec};
use tn_sim::{SchedulerKind, SimTime};
use tn_stats::Summary;
use tn_switch::switch_generations;

use super::{lookup, Check, Outcome};
use crate::mcastsim::{run_mroute, MrouteConfig};

/// The demand axis as a declarative sweep spec. The `groups` axis is a
/// free-form parameter interpreted by [`McastExecutor`], not a
/// `ScenarioConfig` field — the lab's manifest/runner/aggregation layers
/// don't care which executor resolves a cell.
fn e7_spec() -> SweepSpec {
    SweepSpec {
        name: "mcast-exhaustion".into(),
        base: "small".into(),
        designs: vec!["commodity-switch".into()],
        overrides: vec![("table".into(), 512.0), ("packets_per_group".into(), 20.0)],
        axes: vec![Axis {
            param: "groups".into(),
            values: AxisValues::List(vec![256.0, 512.0, 576.0, 640.0, 768.0, 1024.0]),
        }],
        seeds: vec![1],
    }
}

/// Lab executor that resolves a cell of [`e7_spec`] on the shared
/// mroute rig: a 64-packet software queue and `packets_per_group`
/// bursts, the first 1 µs after the joins settle; seed 1.
struct McastExecutor;

impl RunExecutor for McastExecutor {
    fn execute(&self, plan: &RunPlan) -> Result<RunOutcome, String> {
        let param =
            |name: &str| lookup(&plan.params, name).ok_or(format!("missing param `{name}`"));
        let groups = param("groups")? as usize;
        let table = param("table")? as usize;
        let rounds = param("packets_per_group")? as usize;
        let run = run_mroute(&MrouteConfig {
            seed: 1,
            table,
            groups,
            sw_queue: 64,
            rounds,
            lead: SimTime::from_us(1),
            scheduler: SchedulerKind::BinaryHeap,
        });
        let (mut hw_lat, mut sw_lat) = (Summary::new(), Summary::new());
        for &(g, lat) in &run.deliveries {
            if (g as usize) < table {
                hw_lat.record(lat.as_ns());
            } else {
                sw_lat.record(lat.as_ns());
            }
        }
        // Delivered share of what each group class was sent, in percent.
        let rate = |got: usize, class_groups: usize| match class_groups * rounds {
            0 => 100.0,
            sent => 100.0 * (got as f64 / sent as f64),
        };
        Ok(RunOutcome {
            digest: run.digest,
            events: run.events,
            samples_ps: run.deliveries.iter().map(|(_, lat)| lat.as_ps()).collect(),
            metrics: vec![
                (
                    "hw_delivery_pct".into(),
                    rate(hw_lat.count(), table.min(groups)),
                ),
                (
                    "sw_delivery_pct".into(),
                    rate(sw_lat.count(), groups.saturating_sub(table)),
                ),
                ("hw_median_ns".into(), hw_lat.median() as f64),
                ("sw_median_ns".into(), sw_lat.median() as f64),
            ],
        })
    }
}

pub fn run(out: &mut dyn Write) -> io::Result<Outcome> {
    let spec = e7_spec();
    let manifest = spec.expand().expect("static spec expands");
    let outcomes = run_batch(&manifest, 1, &McastExecutor).expect("sweep runs");

    let table = 512usize;
    writeln!(
        out,
        "mroute table capacity: {table} groups; sweeping demanded groups"
    )?;
    writeln!(out, "(lab-backed: spec `{}`)\n", spec.name)?;
    writeln!(
        out,
        "{:>8} {:>10} {:>12} {:>12} {:>14} {:>14}",
        "groups", "overflow", "hw del %", "sw del %", "hw median", "sw median"
    )?;
    // Worst case over the rows: in-table delivery, overflow delivery, and
    // the overflow/in-table median latency ratio.
    let (mut hw_del_min, mut sw_del_max, mut slowdown_min) = (f64::MAX, 0.0f64, f64::MAX);
    for (plan, res) in manifest.iter().zip(&outcomes) {
        let metric = |name: &str| lookup(&res.metrics, name).unwrap_or(0.0);
        let groups = lookup(&plan.params, "groups").unwrap_or(0.0) as usize;
        writeln!(
            out,
            "{:>8} {:>10} {:>11.1}% {:>11.1}% {:>11} ns {:>11} ns",
            groups,
            groups.saturating_sub(table),
            metric("hw_delivery_pct"),
            metric("sw_delivery_pct"),
            metric("hw_median_ns") as u64,
            metric("sw_median_ns") as u64,
        )?;
        hw_del_min = hw_del_min.min(metric("hw_delivery_pct"));
        if groups > table {
            sw_del_max = sw_del_max.max(metric("sw_delivery_pct"));
            slowdown_min = slowdown_min.min(metric("sw_median_ns") / metric("hw_median_ns"));
        }
    }
    writeln!(
        out,
        "\n\
         the cliff: once demand passes the table, overflow groups run ~50x slower\n\
         and drop most of their traffic — §3's 'cripples performance and induces\n\
         heavy packet loss'.\n"
    )?;

    // The §3 trend collision.
    let gens = switch_generations();
    let first = gens.first().unwrap();
    let last = gens.last().unwrap();
    writeln!(
        out,
        "trend: market data +500% in 5 years (Fig 2a) vs multicast groups +{:.0}%\n\
         over a decade of switch generations ({} -> {}); one strategy's partition\n\
         count alone grew 600 -> 1300 in two years (§3).",
        100.0 * (last.mcast_groups as f64 / first.mcast_groups as f64 - 1.0),
        first.mcast_groups,
        last.mcast_groups,
    )?;
    let group_growth = 100.0 * (last.mcast_groups as f64 / first.mcast_groups as f64 - 1.0);
    Ok(Outcome {
        json: None,
        checks: vec![
            Check::new(
                "delivery of groups inside the table",
                "100% on every row",
                format!("min {hw_del_min:.1}%"),
                hw_del_min == 100.0,
            ),
            Check::new(
                "delivery of overflow groups",
                "heavy loss: <11% delivered on every overflow row",
                format!("max {sw_del_max:.1}%"),
                sw_del_max < 11.0,
            ),
            Check::new(
                "overflow median latency vs in-table",
                "~50x slower: at least 40x on every overflow row",
                format!("min {slowdown_min:.1}x"),
                slowdown_min >= 40.0,
            ),
            Check::new(
                "multicast group capacity over a decade",
                "+80% (to the percent)",
                format!("+{group_growth:.0}%"),
                group_growth.round() == 80.0,
            ),
        ],
    })
}
