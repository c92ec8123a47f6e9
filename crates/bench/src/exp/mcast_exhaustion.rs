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
//! proof-of-reuse example for lab-backed experiments.

use std::io::{self, Write};

use tn_fault::{FaultConnect, LinkSpec};
use tn_lab::{run_batch, Axis, AxisValues, RunExecutor, RunOutcome, RunPlan, SweepSpec};
use tn_sim::{Context, Frame, Node, PortId, SimTime, Simulator};
use tn_stats::Summary;
use tn_switch::{switch_generations, CommoditySwitch, SwitchConfig};
use tn_wire::{eth, igmp, ipv4, stack};

use super::{lookup, Check, Outcome};

struct Receiver {
    arrivals: Vec<(u32, SimTime)>,
}

impl Node for Receiver {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _p: PortId, f: Frame) {
        if let Ok(v) = stack::parse_udp(&f.bytes) {
            if let Some(idx) = v.dst_ip.multicast_index() {
                self.arrivals.push((idx, ctx.now()));
            }
        }
    }
}

/// Everything one sweep cell measures.
struct SweepResult {
    hw_rate: f64,
    sw_rate: f64,
    hw_med_ns: u64,
    sw_med_ns: u64,
    /// All per-packet latencies (ps), for the lab's pooled cell stats.
    latencies_ps: Vec<u64>,
    /// Kernel trace digest + event count, for the divergence registry.
    digest: u64,
    events: u64,
}

/// Blast `packets_per_group` packets across `groups` groups on a switch
/// with `table` hardware entries.
fn run_sweep(groups: usize, table: usize, packets_per_group: usize) -> SweepResult {
    let cfg = SwitchConfig {
        mcast_table_size: table,
        sw_service: SimTime::from_us(25),
        sw_queue: 64,
        ..SwitchConfig::default()
    };
    let mut sim = Simulator::new(1);
    let sw = sim.add_node("sw", CommoditySwitch::new(cfg));
    let rx = sim.add_node("rx", Receiver { arrivals: vec![] });
    sim.connect_spec(
        sw,
        PortId(1),
        rx,
        PortId(0),
        &LinkSpec::ten_gig(SimTime::ZERO),
    );
    for g in 0..groups as u32 {
        let join = tn_switch::commodity::igmp_frame(
            igmp::MessageType::Report,
            eth::MacAddr::host(2),
            ipv4::Addr::host(2),
            ipv4::Addr::multicast_group(g),
        );
        let f = sim.frame().copy_from(&join).build();
        sim.inject_frame(SimTime::ZERO, sw, PortId(1), f);
    }
    sim.run();
    // Interleave packets across groups in bursts, 1 us apart, so the
    // software queue sees sustained load rather than one megaburst.
    let mut send_times = Vec::new();
    for round in 0..packets_per_group {
        let t0 = sim.now() + SimTime::from_us(1 + round as u64 * 100);
        for g in 0..groups as u32 {
            let frame = stack::build_udp(
                eth::MacAddr::host(1),
                None,
                ipv4::Addr::host(1),
                ipv4::Addr::multicast_group(g),
                30_001,
                30_001,
                &[0u8; 100],
            );
            let f = sim.frame().copy_from(&frame).build();
            sim.inject_frame(t0, sw, PortId(0), f);
            send_times.push((g, t0));
        }
    }
    sim.run();
    let arrivals = &sim.node::<Receiver>(rx).unwrap().arrivals;
    let mut hw_lat = Summary::new();
    let mut sw_lat = Summary::new();
    let mut latencies_ps = Vec::with_capacity(arrivals.len());
    // Latency by matching per (group, round) send times in order.
    let mut seen: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for &(g, t) in arrivals {
        let k = seen.entry(g).or_insert(0);
        let send = send_times
            .iter()
            .filter(|(sg, _)| *sg == g)
            .nth(*k)
            .map(|&(_, st)| st)
            .unwrap_or(SimTime::ZERO);
        *k += 1;
        let lat = t - send;
        latencies_ps.push(lat.as_ps());
        if (g as usize) < table {
            hw_lat.record(lat.as_ns());
        } else {
            sw_lat.record(lat.as_ns());
        }
    }
    let hw_expected = table.min(groups) * packets_per_group;
    let sw_expected = groups.saturating_sub(table) * packets_per_group;
    let hw_rate = if hw_expected > 0 {
        hw_lat.count() as f64 / hw_expected as f64
    } else {
        1.0
    };
    let sw_rate = if sw_expected > 0 {
        sw_lat.count() as f64 / sw_expected as f64
    } else {
        1.0
    };
    SweepResult {
        hw_rate: 100.0 * hw_rate,
        sw_rate: 100.0 * sw_rate,
        hw_med_ns: hw_lat.median(),
        sw_med_ns: sw_lat.median(),
        latencies_ps,
        digest: sim.trace.digest(),
        events: sim.trace.recorded(),
    }
}

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

/// Lab executor that resolves a cell of [`e7_spec`] with [`run_sweep`].
struct McastExecutor;

impl RunExecutor for McastExecutor {
    fn execute(&self, plan: &RunPlan) -> Result<RunOutcome, String> {
        let param =
            |name: &str| lookup(&plan.params, name).ok_or(format!("missing param `{name}`"));
        let groups = param("groups")? as usize;
        let table = param("table")? as usize;
        let packets = param("packets_per_group")? as usize;
        let r = run_sweep(groups, table, packets);
        Ok(RunOutcome {
            digest: r.digest,
            events: r.events,
            samples_ps: r.latencies_ps,
            metrics: vec![
                ("hw_delivery_pct".into(), r.hw_rate),
                ("sw_delivery_pct".into(), r.sw_rate),
                ("hw_median_ns".into(), r.hw_med_ns as f64),
                ("sw_median_ns".into(), r.sw_med_ns as f64),
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
