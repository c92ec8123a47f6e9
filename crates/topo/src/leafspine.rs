//! Design 1: commodity leaf-and-spine (§4.1).
//!
//! A standard two-tier Clos: every rack's ToR (leaf) uplinks to every
//! spine; one leaf is *dedicated to exchange connectivity* so that every
//! host is equidistant from the exchange and policy can be enforced at
//! one choke point, exactly as §4.1 describes.
//!
//! Unicast routing is host-granular: leaves know their local hosts and
//! default-route (ECMP over all spines) everything else; spines know
//! which leaf owns every host. Multicast is rendezvous-rooted at spine 0:
//! joins propagate leaf → spine 0, and data is always hauled to the
//! rendezvous, then down the member tree.
//!
//! §4.1's hop arithmetic emerges directly: a frame from an exchange-ToR
//! host to a host in another rack crosses leaf → spine → leaf = 3 switch
//! hops one way; the paper's normalizer → strategy → gateway round trip
//! (exchange → … → exchange) is 4 such legs = 12 switch hops.

use tn_netdev::EtherLink;
use tn_sim::{NodeId, PortId, SimTime, Simulator};
use tn_switch::{CommoditySwitch, SwitchConfig};
use tn_wire::ipv4;

/// Configuration for the leaf-spine fabric.
#[derive(Debug, Clone)]
pub struct LeafSpineConfig {
    /// Number of server racks (excluding the dedicated exchange ToR).
    pub racks: usize,
    /// Host ports per rack.
    pub hosts_per_rack: usize,
    /// Number of spines.
    pub spines: usize,
    /// Ports on the exchange ToR reserved for exchange cross-connects.
    pub exchange_ports: usize,
    /// Per-switch parameters (latency, mcast table, fallback).
    pub switch: SwitchConfig,
    /// Host access link rate (bits/sec); §2's cross-connects are 10G.
    pub host_link_bps: u64,
    /// Fabric (leaf-spine) link rate.
    pub fabric_link_bps: u64,
    /// Propagation on in-building links.
    pub link_propagation: SimTime,
}

impl Default for LeafSpineConfig {
    /// The paper's scale target: ~1000 servers. 32 racks x 32 hosts with
    /// 4 spines gives 1024 host ports.
    fn default() -> LeafSpineConfig {
        LeafSpineConfig {
            racks: 32,
            hosts_per_rack: 32,
            spines: 4,
            exchange_ports: 4,
            switch: SwitchConfig::default(),
            host_link_bps: 10_000_000_000,
            fabric_link_bps: 100_000_000_000,
            link_propagation: SimTime::from_ns(25), // ~5 m of fiber
        }
    }
}

/// A built fabric: switch node ids and host attachment points.
pub struct LeafSpine {
    /// The dedicated exchange ToR.
    pub exchange_tor: NodeId,
    /// Server-rack leaves.
    pub leaves: Vec<NodeId>,
    /// Spines (index 0 is the multicast rendezvous).
    pub spines: Vec<NodeId>,
    /// Free host attachment points as `(leaf, port)`, rack-major order.
    pub host_ports: Vec<(NodeId, PortId)>,
    /// Exchange attachment points on the exchange ToR.
    pub exchange_attach: Vec<(NodeId, PortId)>,
    cfg: LeafSpineConfig,
    next_in_rack: Vec<usize>,
}

impl LeafSpine {
    /// Build the fabric inside `sim`.
    pub fn build(sim: &mut Simulator, cfg: LeafSpineConfig) -> LeafSpine {
        assert!(cfg.racks >= 1 && cfg.spines >= 1 && cfg.hosts_per_rack >= 1);
        let uplink_base = |host_ports: usize| host_ports as u16;

        // Spines first. Spine ports: one per leaf (including exchange ToR).
        let total_leaves = cfg.racks + 1;
        let mut spines = Vec::new();
        for s in 0..cfg.spines {
            let mut sw_cfg = cfg.switch.clone();
            sw_cfg.mcast_upstream = None; // spine 0 is the rendezvous root
            let node = sim.add_node(format!("spine{s}"), CommoditySwitch::new(sw_cfg));
            spines.push(node);
        }

        // Exchange ToR: ports 0..exchange_ports face exchanges, then
        // uplinks to each spine.
        let mut tor_cfg = cfg.switch.clone();
        tor_cfg.mcast_upstream = Some(PortId(uplink_base(cfg.exchange_ports)));
        let exchange_tor = sim.add_node("exchange-tor", CommoditySwitch::new(tor_cfg));

        // Server leaves: ports 0..hosts_per_rack face hosts, then uplinks.
        let mut leaves = Vec::new();
        for r in 0..cfg.racks {
            let mut leaf_cfg = cfg.switch.clone();
            leaf_cfg.mcast_upstream = Some(PortId(uplink_base(cfg.hosts_per_rack)));
            let node = sim.add_node(format!("leaf{r}"), CommoditySwitch::new(leaf_cfg));
            leaves.push(node);
        }

        // Wire uplinks: leaf port (base + s) <-> spine port (leaf index).
        // Leaf index on spines: 0 = exchange ToR, 1.. = racks.
        let fabric_link = || EtherLink::new(cfg.fabric_link_bps, cfg.link_propagation);
        // Fabric links are concrete EtherLink models, so they attach via
        // the raw `install_link` primitive, one instance per direction.
        let attach = |sim: &mut Simulator, a: NodeId, ap: PortId, b: NodeId, bp: PortId| {
            sim.install_link(a, ap, b, bp, Box::new(fabric_link()));
            sim.install_link(b, bp, a, ap, Box::new(fabric_link()));
        };
        for (s, &spine) in spines.iter().enumerate() {
            attach(
                sim,
                exchange_tor,
                PortId(uplink_base(cfg.exchange_ports) + s as u16),
                spine,
                PortId(0),
            );
            for (r, &leaf) in leaves.iter().enumerate() {
                attach(
                    sim,
                    leaf,
                    PortId(uplink_base(cfg.hosts_per_rack) + s as u16),
                    spine,
                    PortId(1 + r as u16),
                );
            }
        }
        let _ = total_leaves;

        // Every leaf and the exchange ToR default-route up, ECMP over all
        // spines. These depend only on `cfg`, so they are installed here
        // once; `install_host_routes` adds only host-specific entries.
        let uplinks = |base: usize| (0..cfg.spines).map(|s| PortId((base + s) as u16)).collect();
        sim.node_mut::<CommoditySwitch>(exchange_tor)
            .expect("tor")
            .set_default_route(uplinks(cfg.exchange_ports));
        for &leaf in &leaves {
            sim.node_mut::<CommoditySwitch>(leaf)
                .expect("leaf")
                .set_default_route(uplinks(cfg.hosts_per_rack));
        }

        let host_ports = leaves
            .iter()
            .flat_map(|&leaf| (0..cfg.hosts_per_rack).map(move |p| (leaf, PortId(p as u16))))
            .collect();
        let exchange_attach = (0..cfg.exchange_ports)
            .map(|p| (exchange_tor, PortId(p as u16)))
            .collect();

        let racks = cfg.racks;
        LeafSpine {
            exchange_tor,
            leaves,
            spines,
            host_ports,
            exchange_attach,
            cfg,
            next_in_rack: vec![0; racks],
        }
    }

    /// Total host attachment capacity.
    pub fn host_capacity(&self) -> usize {
        self.host_ports.len()
    }

    /// The access link profile for attaching hosts.
    pub fn host_link(&self) -> EtherLink {
        EtherLink::new(self.cfg.host_link_bps, self.cfg.link_propagation)
    }

    /// Claim the next free host port in a specific rack (panics when the
    /// rack is full) — functions are grouped by rack, per §4.1.
    pub fn take_host_port_in_rack(&mut self, rack: usize) -> (NodeId, PortId) {
        let next = self.next_in_rack[rack];
        assert!(next < self.cfg.hosts_per_rack, "rack {rack} is full");
        self.next_in_rack[rack] = next + 1;
        (self.leaves[rack], PortId(next as u16))
    }

    /// Install unicast routes for a host with address `addr` attached at
    /// `(leaf, port)`. Call after attaching each host.
    pub fn install_host_routes(
        &self,
        sim: &mut Simulator,
        leaf: NodeId,
        port: PortId,
        addr: ipv4::Addr,
    ) {
        // The owning leaf delivers locally.
        sim.node_mut::<CommoditySwitch>(leaf)
            .expect("leaf is a commodity switch")
            .add_route(addr, port);
        // Every spine routes toward the owning leaf.
        let leaf_index = if leaf == self.exchange_tor {
            0u16
        } else {
            1 + self
                .leaves
                .iter()
                .position(|&l| l == leaf)
                .expect("leaf belongs to this fabric") as u16
        };
        for &spine in &self.spines {
            sim.node_mut::<CommoditySwitch>(spine)
                .expect("spine is a commodity switch")
                .add_route(addr, PortId(leaf_index));
        }
        // Every other leaf (and the exchange ToR) reaches `addr` by the
        // default route `build` installed.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_sim::{Context, Frame, Node};
    use tn_wire::{eth, stack};

    struct Sink {
        got: Vec<(SimTime, Vec<u8>)>,
    }
    impl Node for Sink {
        fn on_frame(&mut self, ctx: &mut Context<'_>, _p: PortId, f: Frame) {
            self.got.push((ctx.now(), f.bytes));
        }
    }

    /// Bidirectional host hookup through the fabric's Ethernet profile
    /// (an already-built link model, so it goes through `install_link`).
    fn attach_host(
        sim: &mut Simulator,
        fabric: &LeafSpine,
        leaf: NodeId,
        port: PortId,
        host: NodeId,
    ) {
        let link = fabric.host_link();
        sim.install_link(leaf, port, host, PortId(0), Box::new(link.clone()));
        sim.install_link(host, PortId(0), leaf, port, Box::new(link));
    }

    fn small_cfg() -> LeafSpineConfig {
        LeafSpineConfig {
            racks: 3,
            hosts_per_rack: 2,
            spines: 2,
            exchange_ports: 1,
            ..LeafSpineConfig::default()
        }
    }

    #[test]
    fn default_scale_hits_1000_servers() {
        // §4: "support a network of roughly 1,000 servers".
        let mut sim = Simulator::new(1);
        let fabric = LeafSpine::build(&mut sim, LeafSpineConfig::default());
        assert!(fabric.host_capacity() >= 1000);
        assert_eq!(fabric.leaves.len(), 32);
        assert_eq!(fabric.spines.len(), 4);
    }

    #[test]
    fn unicast_crosses_three_switches() {
        let mut sim = Simulator::new(1);
        let mut fabric = LeafSpine::build(&mut sim, small_cfg());
        // Host A in rack 0, host B in rack 1.
        let (leaf_a, port_a) = fabric.take_host_port_in_rack(0);
        let (leaf_b, port_b) = fabric.take_host_port_in_rack(1);
        assert_ne!(leaf_a, leaf_b);
        let a = sim.add_node("a", Sink { got: vec![] });
        let b = sim.add_node("b", Sink { got: vec![] });
        attach_host(&mut sim, &fabric, leaf_a, port_a, a);
        attach_host(&mut sim, &fabric, leaf_b, port_b, b);
        let addr_a = ipv4::Addr::host(1);
        let addr_b = ipv4::Addr::host(2);
        fabric.install_host_routes(&mut sim, leaf_a, port_a, addr_a);
        fabric.install_host_routes(&mut sim, leaf_b, port_b, addr_b);

        let mut frame = Vec::new();
        stack::emit_udp_into(
            eth::MacAddr::host(1),
            Some(eth::MacAddr::host(2)),
            addr_a,
            addr_b,
            1,
            2,
            &[0u8; 58],
            &mut frame,
        );
        let f = sim.frame().copy_from(&frame).build();
        sim.inject_frame(SimTime::ZERO, leaf_a, port_a, f);
        sim.run();
        let got = &sim.node::<Sink>(b).unwrap().got;
        assert_eq!(got.len(), 1);
        // 3 switch hops at 500 ns each dominate; plus 2 fabric links + 1
        // host link of serialization/propagation.
        let t = got[0].0;
        assert!(t >= SimTime::from_ns(1500), "{t}");
        assert!(t < SimTime::from_ns(2200), "{t}");
        assert!(sim.node::<Sink>(a).unwrap().got.is_empty());
    }

    #[test]
    fn multicast_reaches_joined_hosts_across_racks() {
        let mut sim = Simulator::new(1);
        let mut fabric = LeafSpine::build(&mut sim, small_cfg());
        let group = ipv4::Addr::multicast_group(7);
        // Receiver in rack 2, source at the exchange ToR.
        let (leaf_r, port_r) = fabric.take_host_port_in_rack(2);
        let r = sim.add_node("r", Sink { got: vec![] });
        attach_host(&mut sim, &fabric, leaf_r, port_r, r);
        let (tor, xport) = fabric.exchange_attach[0];
        let src = sim.add_node("exch", Sink { got: vec![] });
        attach_host(&mut sim, &fabric, tor, xport, src);

        // Join from the receiver.
        let join = tn_switch::commodity::igmp_frame(
            tn_wire::igmp::MessageType::Report,
            eth::MacAddr::host(9),
            ipv4::Addr::host(9),
            group,
        );
        let f = sim.frame().copy_from(&join).build();
        sim.inject_frame(SimTime::ZERO, leaf_r, port_r, f);
        sim.run();

        // Feed data from the exchange port.
        let mut data = Vec::new();
        stack::emit_udp_into(
            eth::MacAddr::host(1),
            None,
            ipv4::Addr::new(10, 200, 1, 1),
            group,
            30_001,
            30_001,
            &[0xAB; 100],
            &mut data,
        );
        let f = sim.frame().copy_from(&data).build();
        let t0 = sim.now();
        sim.inject_frame(t0, tor, xport, f);
        sim.run();
        let got = &sim.node::<Sink>(r).unwrap().got;
        assert_eq!(got.len(), 1, "receiver should get exactly one copy");
        // ToR -> spine0 -> leaf -> host: 3 switch hops ≈ 1.5 us+.
        let dt = got[0].0 - t0;
        assert!(dt >= SimTime::from_ns(1500), "{dt}");
        // Non-joined host (the source sink) sees nothing back.
        assert!(sim.node::<Sink>(src).unwrap().got.is_empty());
    }
}
