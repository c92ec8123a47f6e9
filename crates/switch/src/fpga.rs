//! FPGA-augmented Layer-1 switch.
//!
//! §5 ("Hardware") points at commercial L1 switches with reconfigurable-
//! logic accelerators as "the best of both worlds — 100-nanosecond
//! latency and standard IP forwarding and multicast — although they tend
//! to have small forwarding tables." This node models that design point:
//!
//! * fixed ~100 ns pipeline latency,
//! * IP multicast with a *small*, hard-capacity group table — overflow
//!   joins are **rejected** (no CPU to fall back to),
//! * unicast host routes,
//! * optional per-ingress-port group filters, the "combine data arriving
//!   on multiple interfaces \[with\] data filtering" idea: a merge that
//!   discards what the subscriber doesn't want instead of queueing it.

use tn_netdev::TxQueue;
use tn_sim::{
    Context, FastMap, FastSet, Frame, MetricsRegistry, Node, NodeId, PortId, SimTime, TimerToken,
};
use tn_wire::{eth, igmp, ipv4};

/// Configuration of an [`FpgaL1Switch`].
#[derive(Debug, Clone)]
pub struct FpgaConfig {
    /// Pipeline latency (≈100 ns per §5).
    pub latency: SimTime,
    /// Hard multicast table capacity.
    pub mcast_table_size: usize,
}

impl Default for FpgaConfig {
    fn default() -> FpgaConfig {
        FpgaConfig {
            latency: SimTime::from_ns(100),
            mcast_table_size: 128,
        }
    }
}

/// Counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FpgaStats {
    /// Ethernet frames received.
    pub frames_in: u64,
    /// Multicast replications forwarded.
    pub mcast_forwarded: u64,
    /// Unicast frames forwarded.
    pub unicast_forwarded: u64,
    /// Frames discarded by ingress filters (this is *useful* work:
    /// filtered merges shed load the subscriber never wanted).
    pub filtered: u64,
    /// Frames to unknown groups / without routes.
    pub dropped: u64,
    /// Of `dropped`, the frames to unknown groups.
    pub mcast_dropped: u64,
}

const PIPE_TOKEN: u64 = 1;

/// The FPGA-L1S node.
pub struct FpgaL1Switch {
    cfg: FpgaConfig,
    groups: FastMap<ipv4::Addr, Vec<PortId>>,
    routes: FastMap<ipv4::Addr, PortId>,
    /// Per-ingress-port allow-lists. A port without an entry passes
    /// everything.
    ingress_filters: FastMap<PortId, FastSet<ipv4::Addr>>,
    pipe: TxQueue,
    stats: FpgaStats,
}

impl FpgaL1Switch {
    /// Build with the given configuration.
    pub fn new(cfg: FpgaConfig) -> FpgaL1Switch {
        let pipe = TxQueue::new(PIPE_TOKEN).with_pipeline(cfg.latency);
        FpgaL1Switch {
            cfg,
            groups: FastMap::default(),
            routes: FastMap::default(),
            ingress_filters: FastMap::default(),
            pipe,
            stats: FpgaStats::default(),
        }
    }

    /// Install a unicast host route.
    pub fn add_route(&mut self, dst: ipv4::Addr, port: PortId) {
        self.routes.insert(dst, port);
    }

    /// Statically add `port` to `group` (provisioned, not IGMP-learned).
    /// Returns `false` if the table is full.
    pub fn add_group_member(&mut self, group: ipv4::Addr, port: PortId) -> bool {
        if !self.groups.contains_key(&group) && self.groups.len() >= self.cfg.mcast_table_size {
            return false;
        }
        let members = self.groups.entry(group).or_default();
        if !members.contains(&port) {
            members.push(port);
        }
        true
    }

    /// Restrict what `port` may inject: only frames to `groups` pass.
    /// This is the §5 "filtering" feature that makes merges safe.
    pub fn set_ingress_filter(
        &mut self,
        port: PortId,
        groups: impl IntoIterator<Item = ipv4::Addr>,
    ) {
        self.ingress_filters
            .insert(port, groups.into_iter().collect());
    }

    /// Counters so far.
    pub fn stats(&self) -> FpgaStats {
        self.stats
    }
}

impl Node for FpgaL1Switch {
    fn on_frame(&mut self, ctx: &mut Context<'_>, port: PortId, frame: Frame) {
        let Ok(eth_view) = eth::Frame::new_checked(frame.bytes.as_slice()) else {
            ctx.recycle(frame);
            return;
        };
        self.stats.frames_in += 1;
        if eth_view.ethertype() != eth::EtherType::Ipv4 {
            self.stats.dropped += 1;
            ctx.recycle(frame);
            return;
        }
        let Ok(ip) = ipv4::Packet::new_checked(eth_view.payload()) else {
            ctx.recycle(frame);
            return;
        };
        let dst = ip.dst();

        if ip.protocol() == ipv4::PROTO_IGMP {
            if let Ok(msg) = igmp::Message::parse(ip.payload()) {
                match msg.kind {
                    igmp::MessageType::Report => {
                        self.add_group_member(msg.group, port);
                    }
                    igmp::MessageType::Leave => {
                        if let Some(m) = self.groups.get_mut(&msg.group) {
                            m.retain(|&p| p != port);
                            if m.is_empty() {
                                self.groups.remove(&msg.group);
                            }
                        }
                    }
                    igmp::MessageType::Query => {}
                }
            }
            ctx.recycle(frame);
            return;
        }

        if let Some(allow) = self.ingress_filters.get(&port) {
            if !allow.contains(&dst) {
                self.stats.filtered += 1;
                ctx.recycle(frame);
                return;
            }
        }

        if dst.is_multicast() {
            match self.groups.get(&dst) {
                Some(members) => {
                    // Arena-backed replication: one recycled buffer per
                    // egress, all carrying the ingress FrameId.
                    for &p in members {
                        if p != port {
                            self.stats.mcast_forwarded += 1;
                            let copy = ctx.clone_frame(&frame);
                            self.pipe.send_after(ctx, SimTime::ZERO, p, copy);
                        }
                    }
                }
                None => {
                    self.stats.dropped += 1;
                    self.stats.mcast_dropped += 1;
                }
            }
            ctx.recycle(frame);
            return;
        }

        match self.routes.get(&dst) {
            Some(&p) if p != port => {
                self.stats.unicast_forwarded += 1;
                self.pipe.send_after(ctx, SimTime::ZERO, p, frame);
            }
            _ => {
                self.stats.dropped += 1;
                ctx.recycle(frame);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        let consumed = self.pipe.on_timer(ctx, timer);
        debug_assert!(consumed, "unexpected timer {timer:?}");
    }

    fn metrics(&self, me: NodeId, into: &mut MetricsRegistry) {
        let s = &self.stats;
        for (name, n) in [
            ("frames", s.frames_in),
            ("filtered", s.filtered),
            ("unicast_fwd", s.unicast_forwarded),
            ("mcast_fwd", s.mcast_forwarded),
            ("mcast_drop", s.mcast_dropped),
            ("no_route", s.dropped - s.mcast_dropped),
        ] {
            into.add("switch", name, Some(me.0), n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_fault::{FaultConnect, LinkSpec};
    use tn_sim::Simulator;
    use tn_wire::eth::MacAddr;
    use tn_wire::stack;

    struct Sink {
        got: Vec<SimTime>,
    }
    impl Node for Sink {
        fn on_frame(&mut self, ctx: &mut Context<'_>, _p: PortId, _f: Frame) {
            self.got.push(ctx.now());
        }
    }

    fn feed(group: ipv4::Addr) -> Vec<u8> {
        stack::build_udp(
            MacAddr::host(1),
            None,
            ipv4::Addr::host(1),
            group,
            1,
            1,
            &[0; 64],
        )
    }

    fn rig(cfg: FpgaConfig, sinks: usize) -> (Simulator, tn_sim::NodeId, Vec<tn_sim::NodeId>) {
        let mut sim = Simulator::new(9);
        let sw = sim.add_node("fpga", FpgaL1Switch::new(cfg));
        let mut ids = Vec::new();
        for i in 0..sinks {
            let s = sim.add_node(format!("s{i}"), Sink { got: vec![] });
            sim.connect_spec(
                sw,
                PortId(1 + i as u16),
                s,
                PortId(0),
                &LinkSpec::ideal(SimTime::ZERO),
            );
            ids.push(s);
        }
        (sim, sw, ids)
    }

    #[test]
    fn multicast_at_100ns() {
        let (mut sim, sw, sinks) = rig(FpgaConfig::default(), 2);
        let g = ipv4::Addr::multicast_group(1);
        {
            let s = sim.node_mut::<FpgaL1Switch>(sw).unwrap();
            assert!(s.add_group_member(g, PortId(1)));
            assert!(s.add_group_member(g, PortId(2)));
        }
        let bytes = feed(g);
        let f = sim.frame().copy_from(&bytes).build();
        sim.inject_frame(SimTime::ZERO, sw, PortId(0), f);
        sim.run();
        for s in &sinks {
            assert_eq!(
                sim.node::<Sink>(*s).unwrap().got,
                vec![SimTime::from_ns(100)]
            );
        }
        assert_eq!(
            sim.node::<FpgaL1Switch>(sw)
                .unwrap()
                .stats()
                .mcast_forwarded,
            2
        );
    }

    #[test]
    fn small_table_rejects_overflow_joins() {
        let cfg = FpgaConfig {
            mcast_table_size: 2,
            ..FpgaConfig::default()
        };
        let (mut sim, sw, _sinks) = rig(cfg, 1);
        let s = sim.node_mut::<FpgaL1Switch>(sw).unwrap();
        assert!(s.add_group_member(ipv4::Addr::multicast_group(0), PortId(1)));
        assert!(s.add_group_member(ipv4::Addr::multicast_group(1), PortId(1)));
        assert!(!s.add_group_member(ipv4::Addr::multicast_group(2), PortId(1)));
        // Existing group still accepts new members.
        assert!(s.add_group_member(ipv4::Addr::multicast_group(0), PortId(2)));
        assert_eq!(s.groups.len(), 2);
    }

    #[test]
    fn ingress_filter_sheds_unwanted_groups() {
        let (mut sim, sw, sinks) = rig(FpgaConfig::default(), 1);
        let wanted = ipv4::Addr::multicast_group(1);
        let unwanted = ipv4::Addr::multicast_group(2);
        {
            let s = sim.node_mut::<FpgaL1Switch>(sw).unwrap();
            s.add_group_member(wanted, PortId(1));
            s.add_group_member(unwanted, PortId(1));
            s.set_ingress_filter(PortId(0), [wanted]);
        }
        for g in [wanted, unwanted] {
            let bytes = feed(g);
            let f = sim.frame().copy_from(&bytes).build();
            sim.inject_frame(SimTime::ZERO, sw, PortId(0), f);
        }
        sim.run();
        assert_eq!(sim.node::<Sink>(sinks[0]).unwrap().got.len(), 1);
        let stats = sim.node::<FpgaL1Switch>(sw).unwrap().stats();
        assert_eq!(stats.filtered, 1);
        assert_eq!(stats.mcast_forwarded, 1);
    }

    #[test]
    fn igmp_learning_and_unicast() {
        let (mut sim, sw, sinks) = rig(FpgaConfig::default(), 2);
        let g = ipv4::Addr::multicast_group(4);
        let join = crate::commodity::igmp_frame(
            igmp::MessageType::Report,
            MacAddr::host(1),
            ipv4::Addr::host(1),
            g,
        );
        let f = sim.frame().copy_from(&join).build();
        sim.inject_frame(SimTime::ZERO, sw, PortId(1), f);
        sim.run();
        assert_eq!(sim.node::<FpgaL1Switch>(sw).unwrap().groups.len(), 1);

        sim.node_mut::<FpgaL1Switch>(sw)
            .unwrap()
            .add_route(ipv4::Addr::host(50), PortId(2));
        let uni = stack::build_udp(
            MacAddr::host(1),
            Some(MacAddr::host(50)),
            ipv4::Addr::host(1),
            ipv4::Addr::host(50),
            1,
            2,
            b"x",
        );
        let f = sim.frame().copy_from(&uni).build();
        let t = sim.now();
        sim.inject_frame(t, sw, PortId(0), f);
        sim.run();
        assert_eq!(sim.node::<Sink>(sinks[1]).unwrap().got.len(), 1);
        assert_eq!(
            sim.node::<FpgaL1Switch>(sw)
                .unwrap()
                .stats()
                .unicast_forwarded,
            1
        );
    }

    #[test]
    fn unknown_group_or_route_drops() {
        let (mut sim, sw, _s) = rig(FpgaConfig::default(), 1);
        let bytes = feed(ipv4::Addr::multicast_group(9));
        let f = sim.frame().copy_from(&bytes).build();
        sim.inject_frame(SimTime::ZERO, sw, PortId(0), f);
        sim.run();
        assert_eq!(sim.node::<FpgaL1Switch>(sw).unwrap().stats().dropped, 1);
    }
}
