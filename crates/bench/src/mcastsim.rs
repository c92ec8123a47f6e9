//! Shared mroute-table rig (§3 "Multicast Trends").
//!
//! `examples/mcast_cliff.rs`, `mcast-exhaustion` (E7) and tn-audit's
//! `mcast-cliff` divergence scenario run *exactly* this code. A receiver
//! behind a commodity switch joins `groups` multicast groups; the switch
//! keeps the first `table` of them in hardware and the rest on a ~25 µs
//! software path with a `sw_queue`-deep queue. Then `rounds` bursts, one
//! packet per group each, arrive 100 µs apart, and every delivery is
//! timed against the burst that sent it.

use tn_fault::{FaultConnect, LinkSpec};
use tn_sim::{Context, Frame, Node, PortId, SchedulerKind, SimTime, Simulator};
use tn_switch::{commodity, CommoditySwitch, SwitchConfig};
use tn_wire::{eth, igmp, ipv4, stack};

/// Gap between consecutive bursts.
const ROUND_GAP: SimTime = SimTime::from_us(100);

/// The switch and the burst shape.
#[derive(Debug, Clone)]
pub struct MrouteConfig {
    /// Kernel seed.
    pub seed: u64,
    /// Hardware mroute entries.
    pub table: usize,
    /// Groups the receiver joins and every burst covers.
    pub groups: usize,
    /// Software-path queue depth, in packets.
    pub sw_queue: usize,
    /// Bursts sent.
    pub rounds: usize,
    /// Wait after the joins settle before the first burst.
    pub lead: SimTime,
    /// Event scheduler the kernel runs on (digest-neutral).
    pub scheduler: SchedulerKind,
}

impl MrouteConfig {
    /// The example's cliff: 96 groups against a 64-entry table, a
    /// 16-packet software queue and one burst the instant the joins
    /// settle; seed 3.
    pub fn cliff(scheduler: SchedulerKind) -> MrouteConfig {
        MrouteConfig {
            seed: 3,
            table: 64,
            groups: 96,
            sw_queue: 16,
            rounds: 1,
            lead: SimTime::ZERO,
            scheduler,
        }
    }
}

/// What one run of the rig produced.
#[derive(Debug, Clone)]
pub struct MrouteRun {
    /// Groups the switch placed in hardware after the joins.
    pub hw_groups: usize,
    /// Groups that overflowed to the software path.
    pub sw_groups: usize,
    /// Every delivery in arrival order: group index and latency from the
    /// send of the burst it belongs to (a group's k-th arrival answers
    /// burst k).
    pub deliveries: Vec<(u32, SimTime)>,
    /// Packets the software path dropped.
    pub sw_dropped: u64,
    /// Kernel trace digest.
    pub digest: u64,
    /// Events folded into the digest.
    pub events: u64,
}

/// Records `(group index, arrival time)` for every multicast delivery.
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

/// Append one multicast feed frame from host 1 to `group`, carrying
/// `payload` zero bytes past its Eth/IPv4/UDP headers, to `out`.
pub(crate) fn feed_frame(group: u32, payload: usize, out: &mut Vec<u8>) {
    stack::emit_udp_into(
        eth::MacAddr::host(1),
        None,
        ipv4::Addr::host(1),
        ipv4::Addr::multicast_group(group),
        30_001,
        30_001,
        &[0u8; 1500][..payload],
        out,
    );
}

/// Build the rig, join every group, send the bursts and time them.
pub fn run_mroute(cfg: &MrouteConfig) -> MrouteRun {
    let switch = SwitchConfig {
        mcast_table_size: cfg.table,
        sw_service: SimTime::from_us(25),
        sw_queue: cfg.sw_queue,
        ..SwitchConfig::default()
    };
    let mut sim = Simulator::with_scheduler(cfg.seed, cfg.scheduler);
    let sw = sim.add_node("switch", CommoditySwitch::new(switch));
    let rx = sim.add_node("rx", Receiver { arrivals: vec![] });
    sim.connect_spec(
        sw,
        PortId(1),
        rx,
        PortId(0),
        &LinkSpec::ten_gig(SimTime::ZERO),
    );
    for g in 0..cfg.groups as u32 {
        let join = commodity::igmp_frame(
            igmp::MessageType::Report,
            eth::MacAddr::host(2),
            ipv4::Addr::host(2),
            ipv4::Addr::multicast_group(g),
        );
        let f = sim.frame().copy_from(&join).build();
        sim.inject_frame(SimTime::ZERO, sw, PortId(1), f);
    }
    sim.run();
    let (hw_groups, sw_groups) = {
        let s = sim.node::<CommoditySwitch>(sw).expect("switch");
        (s.hw_group_count(), s.sw_group_count())
    };

    let first = sim.now() + cfg.lead;
    let send = |round: usize| first + ROUND_GAP * round as u64;
    for round in 0..cfg.rounds {
        for g in 0..cfg.groups as u32 {
            let f = sim.frame().fill(|b| feed_frame(g, 100, b)).build();
            sim.inject_frame(send(round), sw, PortId(0), f);
        }
    }
    sim.run();

    let mut seen = vec![0usize; cfg.groups];
    let deliveries = sim
        .node::<Receiver>(rx)
        .expect("receiver")
        .arrivals
        .iter()
        .map(|&(g, t)| {
            let k = &mut seen[g as usize];
            *k += 1;
            (g, t - send(*k - 1))
        })
        .collect();
    MrouteRun {
        hw_groups,
        sw_groups,
        deliveries,
        sw_dropped: sim
            .node::<CommoditySwitch>(sw)
            .expect("switch")
            .stats()
            .mcast_dropped,
        digest: sim.trace.digest(),
        events: sim.trace.recorded(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_examples_cliff_is_pinned() {
        // Recorded from `examples/mcast_cliff.rs` before its rig moved
        // here; the divergence registry printed the same pair.
        let run = run_mroute(&MrouteConfig::cliff(SchedulerKind::BinaryHeap));
        assert_eq!((run.digest, run.events), (0x4cc8e77c1e4d5b6e, 352));
        assert_eq!((run.hw_groups, run.sw_groups), (64, 32));
        let cal = run_mroute(&MrouteConfig::cliff(SchedulerKind::CalendarQueue));
        assert_eq!((cal.digest, cal.events), (run.digest, run.events));
    }

    #[test]
    fn an_e7_cell_is_pinned() {
        // E7's 576-group row, recorded from its private rig before it
        // was folded into this one.
        let run = run_mroute(&MrouteConfig {
            seed: 1,
            table: 512,
            groups: 576,
            sw_queue: 64,
            rounds: 20,
            lead: SimTime::from_us(1),
            scheduler: SchedulerKind::BinaryHeap,
        });
        assert_eq!((run.digest, run.events), (0xfb79b82195b8b772, 32_854));
    }
}
