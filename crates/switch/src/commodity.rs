//! Commodity merchant-silicon switch.
//!
//! Models what matters to trading networks out of a modern datacenter
//! switch (§3 "Latency Trends" / "Multicast Trends"):
//!
//! * a cut-through pipeline with fixed port-to-port latency (~500 ns on
//!   current silicon, ~420 ns a decade ago);
//! * L3 unicast forwarding with host routes (one port each) and an ECMP
//!   default route;
//! * IGMP-snooped multicast with a **bounded mroute table**. Joins beyond
//!   the table capacity leave the group on the *software* path: every
//!   packet to such a group is punted to a slow, shallow CPU queue —
//!   orders of magnitude slower and quick to drop, exactly the cliff the
//!   paper describes switches falling off when internal tables overflow.
//!
//! Multicast trees across a fabric are built hop-by-hop: when the first
//! receiver joins a group the switch forwards the join out its configured
//! multicast upstream port, and when the last receiver leaves it sends a
//! leave — a simplified PIM/IGMP-snooping hybrid sufficient for
//! deterministic tree construction in leaf-spine topologies.

use tn_netdev::TxQueue;
use tn_sim::{Context, FastMap, Frame, MetricsRegistry, Node, NodeId, PortId, SimTime, TimerToken};
use tn_wire::{eth, igmp, ipv4};

/// What to do with traffic for groups that did not fit in the mroute
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McastOverflowPolicy {
    /// Punt to the CPU: high per-packet service time, shallow queue,
    /// heavy loss under load (the realistic default).
    SoftwareForward,
    /// Drop outright (some platforms with snooping enabled and no
    /// mrouter behave this way).
    Drop,
}

/// Static configuration of a [`CommoditySwitch`].
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// Cut-through port-to-port latency.
    pub latency: SimTime,
    /// Hardware mroute table capacity (groups).
    pub mcast_table_size: usize,
    /// Overflow behavior.
    pub overflow: McastOverflowPolicy,
    /// Per-packet service time on the software path.
    pub sw_service: SimTime,
    /// Software path queue depth (packets).
    pub sw_queue: usize,
    /// Port toward the multicast rendezvous (joins propagate there).
    pub mcast_upstream: Option<PortId>,
}

impl Default for SwitchConfig {
    /// A current-generation device: 500 ns, a few thousand groups,
    /// software fallback at ~25 µs/packet with a 64-packet CPU queue.
    fn default() -> SwitchConfig {
        SwitchConfig {
            latency: SimTime::from_ns(500),
            mcast_table_size: 3600,
            overflow: McastOverflowPolicy::SoftwareForward,
            sw_service: SimTime::from_us(25),
            sw_queue: 64,
            mcast_upstream: None,
        }
    }
}

/// Observable counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Ethernet frames received.
    pub frames_in: u64,
    /// Unicast frames forwarded in hardware.
    pub unicast_forwarded: u64,
    /// Multicast frame *replications* out of the hardware path.
    pub mcast_forwarded: u64,
    /// Multicast replications that went via the software path.
    pub mcast_sw_forwarded: u64,
    /// Frames dropped: no route.
    pub no_route: u64,
    /// Frames to overflowed groups dropped (policy or CPU queue full).
    pub mcast_dropped: u64,
}

const HW_TOKEN: u64 = 1;
const SW_TOKEN: u64 = 2;

/// The switch node. Any number of ports; connect them with links.
pub struct CommoditySwitch {
    cfg: SwitchConfig,
    /// Host routes: exact dst address -> egress port.
    routes: FastMap<ipv4::Addr, PortId>,
    /// Default route (ECMP set).
    default_route: Vec<PortId>,
    /// Hardware multicast: group -> member ports. Bounded by config.
    hw_groups: FastMap<ipv4::Addr, Vec<PortId>>,
    /// Overflow multicast membership, held in CPU memory (unbounded).
    sw_groups: FastMap<ipv4::Addr, Vec<PortId>>,
    hw_path: TxQueue,
    sw_path: TxQueue,
    stats: SwitchStats,
}

impl CommoditySwitch {
    /// Build with the given configuration.
    pub fn new(cfg: SwitchConfig) -> CommoditySwitch {
        let hw_path = TxQueue::new(HW_TOKEN).with_pipeline(cfg.latency);
        let sw_path = TxQueue::new(SW_TOKEN).with_capacity(cfg.sw_queue);
        CommoditySwitch {
            cfg,
            routes: FastMap::default(),
            default_route: Vec::new(),
            hw_groups: FastMap::default(),
            sw_groups: FastMap::default(),
            hw_path,
            sw_path,
            stats: SwitchStats::default(),
        }
    }

    /// Install a host route (replaces any previous one).
    pub fn add_route(&mut self, dst: ipv4::Addr, port: PortId) {
        self.routes.insert(dst, port);
    }

    /// Set the default route (ECMP set).
    pub fn set_default_route(&mut self, ports: Vec<PortId>) {
        self.default_route = ports;
    }

    /// Counters so far.
    pub fn stats(&self) -> SwitchStats {
        let mut s = self.stats;
        // CPU-queue drops surface as multicast drops.
        s.mcast_dropped += self.sw_path.dropped();
        s
    }

    /// Number of groups on the hardware path.
    pub fn hw_group_count(&self) -> usize {
        self.hw_groups.len()
    }

    /// Number of groups stuck on the software path.
    pub fn sw_group_count(&self) -> usize {
        self.sw_groups.len()
    }

    fn ecmp_pick(ports: &[PortId], src: ipv4::Addr, dst: ipv4::Addr) -> PortId {
        // Deterministic flow hash (FNV-1a over the address pair) so a flow
        // always takes one path — reordering is unacceptable for feeds.
        let mut h = 0xcbf29ce484222325u64;
        for b in src.0.iter().chain(dst.0.iter()) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
        ports[(h % ports.len() as u64) as usize]
    }

    fn on_igmp(&mut self, ctx: &mut Context<'_>, port: PortId, msg: igmp::Message, frame: &Frame) {
        match msg.kind {
            igmp::MessageType::Report => {
                let hw_has = self.hw_groups.contains_key(&msg.group);
                let sw_has = self.sw_groups.contains_key(&msg.group);
                let newly_seen = !hw_has && !sw_has;
                let fits_hw =
                    hw_has || (!sw_has && self.hw_groups.len() < self.cfg.mcast_table_size);
                let members = if fits_hw {
                    self.hw_groups.entry(msg.group).or_default()
                } else {
                    // Table full: membership tracked in CPU memory.
                    self.sw_groups.entry(msg.group).or_default()
                };
                if !members.contains(&port) {
                    members.push(port);
                }
                // First receiver for this group: pull the tree toward us.
                if newly_seen {
                    if let Some(up) = self.cfg.mcast_upstream {
                        if up != port {
                            let copy = ctx.clone_frame(frame);
                            self.hw_path.send_after(ctx, SimTime::ZERO, up, copy);
                        }
                    }
                }
            }
            igmp::MessageType::Leave => {
                let emptied = |members: &mut Vec<PortId>| {
                    members.retain(|&p| p != port);
                    members.is_empty()
                };
                let mut now_empty = false;
                if let Some(m) = self.hw_groups.get_mut(&msg.group) {
                    if emptied(m) {
                        self.hw_groups.remove(&msg.group);
                        now_empty = true;
                    }
                } else if let Some(m) = self.sw_groups.get_mut(&msg.group) {
                    if emptied(m) {
                        self.sw_groups.remove(&msg.group);
                        now_empty = true;
                    }
                }
                if now_empty {
                    if let Some(up) = self.cfg.mcast_upstream {
                        if up != port {
                            let copy = ctx.clone_frame(frame);
                            self.hw_path.send_after(ctx, SimTime::ZERO, up, copy);
                        }
                    }
                }
            }
            igmp::MessageType::Query => {} // queriers are out of scope
        }
    }

    fn forward_multicast(
        &mut self,
        ctx: &mut Context<'_>,
        ingress: PortId,
        frame: Frame,
        group: ipv4::Addr,
    ) {
        // Rendezvous forwarding: traffic always flows toward the multicast
        // upstream (the fabric's rendezvous point) in addition to local
        // members, so sources anywhere reach receivers anywhere. Data
        // arriving *from* upstream only fans out locally — no loops.
        let upstream_extra = match self.cfg.mcast_upstream {
            Some(up) if up != ingress => Some(up),
            _ => None,
        };
        if let Some(members) = self.hw_groups.get(&group) {
            // Replicate per egress through the arena: each copy reuses a
            // recycled buffer and keeps the original FrameId so capture
            // taps still correlate the fan-out.
            for &p in members {
                if p != ingress {
                    self.stats.mcast_forwarded += 1;
                    let copy = ctx.clone_frame(&frame);
                    self.hw_path.send_after(ctx, SimTime::ZERO, p, copy);
                }
            }
            if let Some(up) = upstream_extra {
                if !members.contains(&up) {
                    self.stats.mcast_forwarded += 1;
                    let copy = ctx.clone_frame(&frame);
                    self.hw_path.send_after(ctx, SimTime::ZERO, up, copy);
                }
            }
            ctx.recycle(frame);
            return;
        }
        if !self.sw_groups.contains_key(&group) {
            // Unknown group: still haul it to the rendezvous, where the
            // fabric-wide membership lives.
            if let Some(up) = upstream_extra {
                self.stats.mcast_forwarded += 1;
                self.hw_path.send_after(ctx, SimTime::ZERO, up, frame);
                return;
            }
        }
        if let Some(members) = self.sw_groups.get(&group) {
            match self.cfg.overflow {
                McastOverflowPolicy::Drop => {
                    self.stats.mcast_dropped += 1;
                }
                McastOverflowPolicy::SoftwareForward => {
                    // The members, then the upstream port unless it is one.
                    let up = upstream_extra.filter(|up| !members.contains(up));
                    for &p in members.iter().chain(&up) {
                        if p == ingress {
                            continue;
                        }
                        let copy = ctx.clone_frame(&frame);
                        if self.sw_path.send_after(ctx, self.cfg.sw_service, p, copy) {
                            self.stats.mcast_sw_forwarded += 1;
                        }
                    }
                }
            }
            ctx.recycle(frame);
            return;
        }
        // No receivers anywhere: drop silently (normal for multicast).
        self.stats.mcast_dropped += 1;
        ctx.recycle(frame);
    }
}

impl Node for CommoditySwitch {
    fn on_frame(&mut self, ctx: &mut Context<'_>, port: PortId, frame: Frame) {
        let Ok(eth_view) = eth::Frame::new_checked(frame.bytes.as_slice()) else {
            ctx.recycle(frame);
            return;
        };
        self.stats.frames_in += 1;
        if eth_view.ethertype() != eth::EtherType::Ipv4 {
            // L1-transport or unknown ethertypes are not routable here.
            self.stats.no_route += 1;
            ctx.recycle(frame);
            return;
        }
        let Ok(ip) = ipv4::Packet::new_checked(eth_view.payload()) else {
            ctx.recycle(frame);
            return;
        };
        let (src, dst, proto) = (ip.src(), ip.dst(), ip.protocol());

        if proto == ipv4::PROTO_IGMP {
            if let Ok(msg) = igmp::Message::parse(ip.payload()) {
                self.on_igmp(ctx, port, msg, &frame);
            }
            ctx.recycle(frame);
            return;
        }

        if dst.is_multicast() {
            self.forward_multicast(ctx, port, frame, dst);
            return;
        }

        let egress = match self.routes.get(&dst) {
            Some(&p) => Some(p),
            None if !self.default_route.is_empty() => {
                Some(Self::ecmp_pick(&self.default_route, src, dst))
            }
            None => None,
        };
        match egress {
            Some(p) if p != port => {
                self.stats.unicast_forwarded += 1;
                self.hw_path.send_after(ctx, SimTime::ZERO, p, frame);
            }
            _ => {
                self.stats.no_route += 1;
                ctx.recycle(frame);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        if self.hw_path.on_timer(ctx, timer) {
            return;
        }
        let consumed = self.sw_path.on_timer(ctx, timer);
        debug_assert!(consumed, "unexpected timer {timer:?}");
    }

    fn metrics(&self, me: NodeId, into: &mut MetricsRegistry) {
        // `self.stats`, not `stats()`: the registry has never counted
        // CPU-queue drops as `mcast_drop`.
        let s = &self.stats;
        for (name, n) in [
            ("frames", s.frames_in),
            ("unicast_fwd", s.unicast_forwarded),
            ("mcast_fwd", s.mcast_forwarded),
            ("mcast_sw_fwd", s.mcast_sw_forwarded),
            ("mcast_drop", s.mcast_dropped),
            ("no_route", s.no_route),
        ] {
            into.add("switch", name, Some(me.0), n);
        }
    }
}

/// Append an IGMP join/leave frame, as a host would emit it, to `out`
/// in a single pass — no intermediate per-layer buffers.
pub fn igmp_frame_into(
    kind: igmp::MessageType,
    host_mac: eth::MacAddr,
    host_ip: ipv4::Addr,
    group: ipv4::Addr,
    out: &mut Vec<u8>,
) {
    // Sized once: a fresh arena buffer would otherwise grow per layer.
    out.reserve(eth::HEADER_LEN + ipv4::HEADER_LEN + igmp::MESSAGE_LEN);
    eth::emit_into(
        eth::MacAddr::ipv4_multicast(group),
        host_mac,
        eth::EtherType::Ipv4,
        &[],
        out,
    );
    let ip_start = out.len();
    out.resize(ip_start + ipv4::HEADER_LEN, 0);
    igmp::Message { kind, group }.emit_into(out);
    ipv4::finish_header(&mut out[ip_start..], host_ip, group, ipv4::PROTO_IGMP);
}

/// Build an IGMP join/leave frame as a host would emit it.
pub fn igmp_frame(
    kind: igmp::MessageType,
    host_mac: eth::MacAddr,
    host_ip: ipv4::Addr,
    group: ipv4::Addr,
) -> Vec<u8> {
    let mut out = Vec::new();
    igmp_frame_into(kind, host_mac, host_ip, group, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_fault::{FaultConnect, LinkSpec};
    use tn_sim::Simulator;
    use tn_wire::eth::MacAddr;
    use tn_wire::stack;

    struct Sink {
        got: Vec<(SimTime, usize)>,
    }
    impl Node for Sink {
        fn on_frame(&mut self, ctx: &mut Context<'_>, _p: PortId, f: Frame) {
            self.got.push((ctx.now(), f.len()));
        }
    }

    fn feed_frame(group: ipv4::Addr, payload_len: usize) -> Vec<u8> {
        let mut frame = Vec::new();
        stack::emit_udp_into(
            MacAddr::host(1),
            None,
            ipv4::Addr::host(1),
            group,
            30001,
            30001,
            &vec![0xAB; payload_len],
            &mut frame,
        );
        frame
    }

    fn unicast_frame(src: u32, dst: u32) -> Vec<u8> {
        let mut frame = Vec::new();
        stack::emit_udp_into(
            MacAddr::host(src),
            Some(MacAddr::host(dst)),
            ipv4::Addr::host(src),
            ipv4::Addr::host(dst),
            1,
            2,
            b"x",
            &mut frame,
        );
        frame
    }

    /// Rig: switch port 0 = source, ports 1..=n = sinks.
    fn rig(cfg: SwitchConfig, sinks: usize) -> (Simulator, tn_sim::NodeId, Vec<tn_sim::NodeId>) {
        let mut sim = Simulator::new(5);
        let sw = sim.add_node("sw", CommoditySwitch::new(cfg));
        let mut ids = Vec::new();
        for i in 0..sinks {
            let s = sim.add_node(format!("sink{i}"), Sink { got: vec![] });
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
    fn unicast_forwarding_with_latency() {
        let (mut sim, sw, sinks) = rig(SwitchConfig::default(), 2);
        {
            let s = sim.node_mut::<CommoditySwitch>(sw).unwrap();
            s.add_route(ipv4::Addr::host(10), PortId(1));
            s.add_route(ipv4::Addr::host(11), PortId(2));
        }
        let f = sim.frame().copy_from(&unicast_frame(1, 10)).build();
        sim.inject_frame(SimTime::ZERO, sw, PortId(0), f);
        sim.run();
        let got = &sim.node::<Sink>(sinks[0]).unwrap().got;
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, SimTime::from_ns(500)); // cut-through latency
        assert!(sim.node::<Sink>(sinks[1]).unwrap().got.is_empty());
        assert_eq!(
            sim.node::<CommoditySwitch>(sw)
                .unwrap()
                .stats()
                .unicast_forwarded,
            1
        );
    }

    #[test]
    fn default_route_and_no_route() {
        let (mut sim, sw, sinks) = rig(SwitchConfig::default(), 1);
        let f = sim.frame().copy_from(&unicast_frame(1, 99)).build();
        sim.inject_frame(SimTime::ZERO, sw, PortId(0), f);
        sim.run();
        assert_eq!(sim.node::<CommoditySwitch>(sw).unwrap().stats().no_route, 1);
        sim.node_mut::<CommoditySwitch>(sw)
            .unwrap()
            .set_default_route(vec![PortId(1)]);
        let f = sim.frame().copy_from(&unicast_frame(1, 99)).build();
        let t = sim.now();
        sim.inject_frame(t, sw, PortId(0), f);
        sim.run();
        assert_eq!(sim.node::<Sink>(sinks[0]).unwrap().got.len(), 1);
    }

    #[test]
    fn ecmp_is_deterministic_per_flow() {
        let ports = vec![PortId(1), PortId(2), PortId(3), PortId(4)];
        let a = CommoditySwitch::ecmp_pick(&ports, ipv4::Addr::host(1), ipv4::Addr::host(2));
        for _ in 0..10 {
            assert_eq!(
                CommoditySwitch::ecmp_pick(&ports, ipv4::Addr::host(1), ipv4::Addr::host(2)),
                a
            );
        }
        // Different flows spread across ports (at least two distinct picks
        // among a spread of flows).
        let mut seen = std::collections::HashSet::new();
        for i in 0..32 {
            seen.insert(CommoditySwitch::ecmp_pick(
                &ports,
                ipv4::Addr::host(i),
                ipv4::Addr::host(1000 + i),
            ));
        }
        assert!(seen.len() >= 2);
    }

    #[test]
    fn igmp_join_builds_membership_and_multicast_replicates() {
        let (mut sim, sw, sinks) = rig(SwitchConfig::default(), 3);
        let group = ipv4::Addr::multicast_group(7);
        // Sinks 1 and 2 join; sink 3 does not.
        for port in [1u16, 2] {
            let join = igmp_frame(
                igmp::MessageType::Report,
                MacAddr::host(u32::from(port)),
                ipv4::Addr::host(u32::from(port)),
                group,
            );
            let f = sim.frame().copy_from(&join).build();
            sim.inject_frame(SimTime::ZERO, sw, PortId(port), f);
        }
        sim.run();
        assert_eq!(sim.node::<CommoditySwitch>(sw).unwrap().hw_group_count(), 1);

        let f = sim.frame().copy_from(&feed_frame(group, 100)).build();
        let t = sim.now();
        sim.inject_frame(t, sw, PortId(0), f);
        sim.run();
        assert_eq!(sim.node::<Sink>(sinks[0]).unwrap().got.len(), 1);
        assert_eq!(sim.node::<Sink>(sinks[1]).unwrap().got.len(), 1);
        assert!(sim.node::<Sink>(sinks[2]).unwrap().got.is_empty());
        let stats = sim.node::<CommoditySwitch>(sw).unwrap().stats();
        assert_eq!(stats.mcast_forwarded, 2);
    }

    #[test]
    fn leave_prunes_membership() {
        let (mut sim, sw, sinks) = rig(SwitchConfig::default(), 1);
        let group = ipv4::Addr::multicast_group(7);
        let join = igmp_frame(
            igmp::MessageType::Report,
            MacAddr::host(1),
            ipv4::Addr::host(1),
            group,
        );
        let f = sim.frame().copy_from(&join).build();
        sim.inject_frame(SimTime::ZERO, sw, PortId(1), f);
        sim.run();
        let leave = igmp_frame(
            igmp::MessageType::Leave,
            MacAddr::host(1),
            ipv4::Addr::host(1),
            group,
        );
        let f = sim.frame().copy_from(&leave).build();
        let t = sim.now();
        sim.inject_frame(t, sw, PortId(1), f);
        sim.run();
        assert_eq!(sim.node::<CommoditySwitch>(sw).unwrap().hw_group_count(), 0);
        let f = sim.frame().copy_from(&feed_frame(group, 64)).build();
        let t = sim.now();
        sim.inject_frame(t, sw, PortId(0), f);
        sim.run();
        assert!(sim.node::<Sink>(sinks[0]).unwrap().got.is_empty());
    }

    #[test]
    fn mroute_overflow_falls_back_to_software_and_is_slow() {
        let cfg = SwitchConfig {
            mcast_table_size: 2,
            sw_service: SimTime::from_us(25),
            ..SwitchConfig::default()
        };
        let (mut sim, sw, sinks) = rig(cfg, 1);
        // Join 3 groups from the same sink port; the third overflows.
        for g in 0..3u32 {
            let join = igmp_frame(
                igmp::MessageType::Report,
                MacAddr::host(1),
                ipv4::Addr::host(1),
                ipv4::Addr::multicast_group(g),
            );
            let f = sim.frame().copy_from(&join).build();
            sim.inject_frame(SimTime::ZERO, sw, PortId(1), f);
        }
        sim.run();
        {
            let s = sim.node::<CommoditySwitch>(sw).unwrap();
            assert_eq!(s.hw_group_count(), 2);
            assert_eq!(s.sw_group_count(), 1);
        }
        // Traffic to group 0 (hardware) vs group 2 (software).
        let t = sim.now();
        let f = sim
            .frame()
            .copy_from(&feed_frame(ipv4::Addr::multicast_group(0), 64))
            .build();
        sim.inject_frame(t, sw, PortId(0), f);
        let f = sim
            .frame()
            .copy_from(&feed_frame(ipv4::Addr::multicast_group(2), 64))
            .build();
        sim.inject_frame(t, sw, PortId(0), f);
        sim.run();
        let got = &sim.node::<Sink>(sinks[0]).unwrap().got;
        assert_eq!(got.len(), 2);
        let hw_latency = got[0].0 - t;
        let sw_latency = got[1].0 - t;
        assert_eq!(hw_latency, SimTime::from_ns(500));
        assert_eq!(sw_latency, SimTime::from_us(25));
        // Two orders of magnitude: the §3 software-forwarding cliff.
        assert!(sw_latency.as_ps() / hw_latency.as_ps() >= 50);
    }

    #[test]
    fn software_path_drops_under_load() {
        let cfg = SwitchConfig {
            mcast_table_size: 0, // everything overflows
            sw_queue: 4,
            ..SwitchConfig::default()
        };
        let (mut sim, sw, sinks) = rig(cfg, 1);
        let group = ipv4::Addr::multicast_group(0);
        let join = igmp_frame(
            igmp::MessageType::Report,
            MacAddr::host(1),
            ipv4::Addr::host(1),
            group,
        );
        let f = sim.frame().copy_from(&join).build();
        sim.inject_frame(SimTime::ZERO, sw, PortId(1), f);
        sim.run();
        let t = sim.now();
        for _ in 0..100 {
            let f = sim.frame().copy_from(&feed_frame(group, 64)).build();
            sim.inject_frame(t, sw, PortId(0), f);
        }
        sim.run();
        let delivered = sim.node::<Sink>(sinks[0]).unwrap().got.len();
        let stats = sim.node::<CommoditySwitch>(sw).unwrap().stats();
        assert_eq!(delivered, 4); // only the CPU queue depth survived
        assert_eq!(stats.mcast_dropped, 96);
    }

    #[test]
    fn software_path_serves_members_then_upstream_once() {
        // Every group overflows to the CPU path, which serves one copy per
        // 25 µs, so arrival times give the order the copies were queued.
        let cfg = SwitchConfig {
            mcast_table_size: 0,
            mcast_upstream: Some(PortId(3)),
            ..SwitchConfig::default()
        };
        let (mut sim, sw, sinks) = rig(cfg, 3);
        let group = ipv4::Addr::multicast_group(0);
        let join = |sim: &mut Simulator, port: u16| {
            let report = igmp_frame(
                igmp::MessageType::Report,
                MacAddr::host(u32::from(port)),
                ipv4::Addr::host(u32::from(port)),
                group,
            );
            let f = sim.frame().copy_from(&report).build();
            let t = sim.now();
            sim.inject_frame(t, sw, PortId(port), f);
            sim.run();
        };
        let feed = |sim: &mut Simulator, port: u16| {
            let t = sim.now();
            let f = sim.frame().copy_from(&feed_frame(group, 64)).build();
            sim.inject_frame(t, sw, PortId(port), f);
            sim.run();
            let arrivals = |i: usize| -> Vec<SimTime> {
                let got = &sim.node::<Sink>(sinks[i]).unwrap().got;
                got.iter().filter(|g| g.0 > t).map(|g| g.0 - t).collect()
            };
            [arrivals(0), arrivals(1), arrivals(2)]
        };
        let us = SimTime::from_us;
        // Members in join order (2, then 1), then the upstream port.
        join(&mut sim, 2);
        join(&mut sim, 1);
        assert_eq!(
            feed(&mut sim, 0),
            [vec![us(50)], vec![us(25)], vec![us(75)]]
        );
        // Once the upstream port is a member it gets one copy, not two;
        // traffic from upstream fans out to the other members only.
        join(&mut sim, 3);
        assert_eq!(
            feed(&mut sim, 0),
            [vec![us(50)], vec![us(25)], vec![us(75)]]
        );
        assert_eq!(feed(&mut sim, 3), [vec![us(50)], vec![us(25)], vec![]]);
        assert_eq!(
            sim.node::<CommoditySwitch>(sw)
                .unwrap()
                .stats()
                .mcast_sw_forwarded,
            8
        );
    }

    #[test]
    fn drop_policy_drops_overflow_traffic() {
        let cfg = SwitchConfig {
            mcast_table_size: 0,
            overflow: McastOverflowPolicy::Drop,
            ..SwitchConfig::default()
        };
        let (mut sim, sw, sinks) = rig(cfg, 1);
        let group = ipv4::Addr::multicast_group(0);
        let join = igmp_frame(
            igmp::MessageType::Report,
            MacAddr::host(1),
            ipv4::Addr::host(1),
            group,
        );
        let f = sim.frame().copy_from(&join).build();
        sim.inject_frame(SimTime::ZERO, sw, PortId(1), f);
        sim.run();
        let t = sim.now();
        let f = sim.frame().copy_from(&feed_frame(group, 64)).build();
        sim.inject_frame(t, sw, PortId(0), f);
        sim.run();
        assert!(sim.node::<Sink>(sinks[0]).unwrap().got.is_empty());
        assert!(
            sim.node::<CommoditySwitch>(sw)
                .unwrap()
                .stats()
                .mcast_dropped
                >= 1
        );
    }

    #[test]
    fn joins_propagate_upstream() {
        // Port 0 is upstream; a join on port 1 must be re-emitted on 0.
        let cfg = SwitchConfig {
            mcast_upstream: Some(PortId(0)),
            ..SwitchConfig::default()
        };
        let mut sim = Simulator::new(5);
        let sw = sim.add_node("sw", CommoditySwitch::new(cfg));
        let up = sim.add_node("up", Sink { got: vec![] });
        sim.connect_spec(
            sw,
            PortId(0),
            up,
            PortId(0),
            &LinkSpec::ideal(SimTime::ZERO),
        );
        let group = ipv4::Addr::multicast_group(3);
        let join = igmp_frame(
            igmp::MessageType::Report,
            MacAddr::host(1),
            ipv4::Addr::host(1),
            group,
        );
        let f = sim.frame().copy_from(&join).build();
        sim.inject_frame(SimTime::ZERO, sw, PortId(1), f);
        sim.run();
        assert_eq!(sim.node::<Sink>(up).unwrap().got.len(), 1);
        // A second join to the same group does not re-propagate.
        let join2 = igmp_frame(
            igmp::MessageType::Report,
            MacAddr::host(2),
            ipv4::Addr::host(2),
            group,
        );
        let f = sim.frame().copy_from(&join2).build();
        let t = sim.now();
        sim.inject_frame(t, sw, PortId(2), f);
        sim.run();
        assert_eq!(sim.node::<Sink>(up).unwrap().got.len(), 1);
    }
}
