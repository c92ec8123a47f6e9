//! Design 2: the cloud (§4.2) — equalization constant or real mechanisms.
//!
//! Cloud proposals for fair financial networks (DBO and cloud-exchange
//! work the paper cites) assume the provider manages a fabric whose
//! tenant-to-tenant latency is *equalized* — nobody wins by rack
//! placement. The base model keeps that as a provider fabric node that
//! delivers every frame at `equalized_latency` regardless of source or
//! destination pair, with provider-managed multicast.
//!
//! The [`CloudFairnessSpec`] knob replaces the magic constant with the
//! machinery a real cloud exchange needs (tn-cloud): an overlay
//! multicast tree of relay VMs over jittery unicast links distributes
//! the firm's internal feed, a [`tn_cloud::DelayEqualizer`] in front of
//! each subscriber pads deliveries toward a release ceiling, and a
//! [`tn_cloud::HoldReleaseSequencer`] ahead of the exchange's order
//! port enforces stamped order under a clock-sync error bound. A
//! disabled spec (the default) builds *exactly* the old topology, so
//! pre-fairness digests reproduce bit-for-bit.
//!
//! The §4.2 critique is then quantitative: the equalization constant is
//! orders of magnitude above colo switching (tens to hundreds of
//! microseconds versus 500 ns), traffic to exchanges that stay
//! *outside* the cloud pays a WAN penalty on top, and with the
//! mechanisms modelled the fairness itself charges latency — overlay
//! depth × VM hop, plus the equalizer ceiling, plus the sequencer hold.

use tn_cloud::{
    equalizer, overlay::RELAY_IN, DelayEqualizer, EqualizerConfig, HoldReleaseSequencer,
    OverlayTree, OverlayTreeConfig, SequencerConfig,
};
use tn_fault::{FaultLink, FaultSpec};
use tn_netdev::EtherLink;
use tn_sim::{Link, NodeId, PortId, SimTime, Simulator};
use tn_switch::{CommoditySwitch, McastOverflowPolicy, SwitchConfig};
use tn_wire::ipv4;

/// Cloud fabric parameters.
#[derive(Debug, Clone)]
pub struct CloudConfig {
    /// Number of tenant attachment ports.
    pub tenant_ports: usize,
    /// The equalized one-way latency between any two tenants. Public
    /// proposals land in the tens-to-hundreds of microseconds.
    pub equalized_latency: SimTime,
    /// Multicast groups the provider offers a tenant (generous: the
    /// cloud's win is scale-out, not group count).
    pub mcast_groups: usize,
    /// WAN latency to reach an exchange that stays on-prem (one way).
    pub external_wan_latency: SimTime,
    /// Tenant access bandwidth.
    pub access_bps: u64,
    /// Fairness machinery replacing the equalization constant; the
    /// disabled default reproduces the constant-based topology exactly.
    pub fairness: CloudFairnessSpec,
}

impl Default for CloudConfig {
    fn default() -> CloudConfig {
        CloudConfig {
            tenant_ports: 1024,
            equalized_latency: SimTime::from_us(50),
            mcast_groups: 100_000,
            external_wan_latency: SimTime::from_ms(1),
            access_bps: 100_000_000_000,
            fairness: CloudFairnessSpec::default(),
        }
    }
}

/// Knobs for the tn-cloud mechanism set. `overlay_fanout == 0` (the
/// default) disables everything: the fabric keeps its provider
/// multicast and magic equalization constant, bit-for-bit.
#[derive(Debug, Clone, Default)]
pub struct CloudFairnessSpec {
    /// Relay fan-out `k` of the overlay multicast tree; 0 disables the
    /// whole mechanism set.
    pub overlay_fanout: u16,
    /// Per-VM-hop jitter bound (uniform), injected via `FaultLink`.
    pub hop_jitter: SimTime,
    /// Per-copy serialization gap inside each relay VM.
    pub copy_gap: SimTime,
    /// Raw VM-to-VM one-way propagation of an overlay hop — what a
    /// unicast hop costs *before* anyone equalizes anything.
    pub vm_prop: SimTime,
    /// Delay-equalizer release ceiling, measured from frame birth. Must
    /// cover the worst overlay path for spread to collapse.
    pub ceiling: SimTime,
    /// Equalizer residual pacing error.
    pub residual: SimTime,
    /// Sequencer hold window on the order path.
    pub hold: SimTime,
    /// Sequencer clock-sync error bound.
    pub clock_error: SimTime,
    /// Seed for every derived jitter/residual/clock-error stream.
    pub seed: u64,
}

impl CloudFairnessSpec {
    /// Whether the mechanism set is active.
    pub fn enabled(&self) -> bool {
        self.overlay_fanout > 0
    }

    /// A representative enabled configuration: fan-out-4 overlay over
    /// 25 µs VM hops with 2 µs jitter, a 120 µs equalizer ceiling
    /// (covers the 3-hop worst path plus jitter for small firms), and a
    /// 5 µs sequencer hold against a 1 µs clock error.
    pub fn demo() -> CloudFairnessSpec {
        CloudFairnessSpec {
            overlay_fanout: 4,
            hop_jitter: SimTime::from_us(2),
            copy_gap: SimTime::from_ns(250),
            vm_prop: SimTime::from_us(25),
            ceiling: SimTime::from_us(120),
            residual: SimTime::from_ns(100),
            hold: SimTime::from_us(5),
            clock_error: SimTime::from_us(1),
            seed: 0xC10D,
        }
    }
}

/// The overlay feed distribution [`CloudFabric::build_overlay_feed`]
/// lays out: relay tree plus one equalizer gate per subscriber.
pub struct CloudOverlayFeed {
    /// Root relay — publishers send into `overlay::RELAY_IN` here.
    pub root: NodeId,
    /// All relay nodes, root first.
    pub relays: Vec<NodeId>,
    /// One `DelayEqualizer` per subscriber, in subscriber order; its
    /// `equalizer::OUT` awaits the subscriber link.
    pub gates: Vec<NodeId>,
    /// Overlay depth in relay levels.
    pub depth: usize,
}

/// The built cloud fabric.
pub struct CloudFabric {
    /// The provider fabric node (a switch with equalized latency).
    pub fabric: NodeId,
    /// Tenant attachment ports, in order.
    pub tenant_ports: Vec<PortId>,
    /// The port reserved for the on-prem exchange WAN circuit.
    pub external_port: PortId,
    cfg: CloudConfig,
    next_port: usize,
}

impl CloudFabric {
    /// Build the fabric inside `sim`.
    pub fn build(sim: &mut Simulator, cfg: CloudConfig) -> CloudFabric {
        let sw_cfg = SwitchConfig {
            // The equalization constant *is* the port-to-port latency.
            latency: cfg.equalized_latency,
            mcast_table_size: cfg.mcast_groups,
            overflow: McastOverflowPolicy::Drop,
            sw_service: SimTime::ZERO,
            sw_queue: 0,
            mcast_upstream: None,
        };
        let fabric = sim.add_node("cloud-fabric", CommoditySwitch::new(sw_cfg));
        let tenant_ports = (0..cfg.tenant_ports).map(|p| PortId(p as u16)).collect();
        let external_port = PortId(cfg.tenant_ports as u16);
        CloudFabric {
            fabric,
            tenant_ports,
            external_port,
            cfg,
            next_port: 0,
        }
    }

    /// Access-link profile for attaching a tenant.
    pub fn tenant_link(&self) -> EtherLink {
        EtherLink::new(self.cfg.access_bps, SimTime::from_ns(500))
    }

    /// WAN-link profile for the on-prem exchange circuit.
    pub fn external_link(&self) -> EtherLink {
        EtherLink::ten_gig(self.cfg.external_wan_latency)
    }

    /// Claim the next tenant port.
    pub fn take_tenant_port(&mut self) -> PortId {
        let p = self.tenant_ports[self.next_port];
        self.next_port += 1;
        p
    }

    /// Install a unicast route to a tenant address on a port.
    pub fn install_route(&self, sim: &mut Simulator, addr: ipv4::Addr, port: PortId) {
        sim.node_mut::<CommoditySwitch>(self.fabric)
            .expect("fabric is a switch")
            .add_route(addr, port);
    }

    /// The equalized latency constant.
    pub fn equalized_latency(&self) -> SimTime {
        self.cfg.equalized_latency
    }

    /// The fairness spec this fabric was built with.
    pub fn fairness(&self) -> &CloudFairnessSpec {
        &self.cfg.fairness
    }

    /// A raw VM-to-VM unicast link for overlay hop `edge`, jitter-wrapped
    /// through `FaultLink` when the spec asks for it. Edge indices
    /// derive disjoint per-link jitter seeds, so topologies are
    /// digest-stable for a fixed spec seed.
    pub fn overlay_link(&self, edge: u64) -> Box<dyn Link> {
        let f = &self.cfg.fairness;
        let base = EtherLink::new(self.cfg.access_bps, f.vm_prop);
        if f.hop_jitter > SimTime::ZERO {
            let seed = f.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(edge + 1);
            Box::new(FaultLink::wrap(
                base,
                FaultSpec::new(seed).with_jitter(f.hop_jitter),
            ))
        } else {
            Box::new(base)
        }
    }

    /// The VM hop from publisher `n` into the overlay root. Edge indices
    /// above 2^41 stay disjoint from both tree edges and the gate leaf
    /// hops.
    pub fn publisher_link(&self, n: usize) -> Box<dyn Link> {
        self.overlay_link((1u64 << 41) | n as u64)
    }

    /// Build the software multicast overlay plus per-subscriber
    /// equalizer gates that replace provider multicast for the firm's
    /// internal feed. Publishers attach into the returned root; each
    /// subscriber attaches behind its gate's `equalizer::OUT`.
    ///
    /// Panics if the spec is disabled — callers gate on
    /// [`CloudFairnessSpec::enabled`].
    pub fn build_overlay_feed(&self, sim: &mut Simulator, subscribers: usize) -> CloudOverlayFeed {
        let f = &self.cfg.fairness;
        assert!(
            f.enabled(),
            "build_overlay_feed needs an enabled fairness spec"
        );
        let cfg = OverlayTreeConfig {
            fanout: f.overlay_fanout,
            leaves: subscribers,
            copy_gap: f.copy_gap,
        };
        let tree = OverlayTree::build(sim, "cloud-ov", &cfg, |i| self.overlay_link(i as u64));
        let mut gates = Vec::with_capacity(subscribers);
        for (s, &(relay, port)) in tree.leaf_ports.iter().enumerate() {
            let gate = sim.add_node(
                format!("cloud-gate{s}"),
                DelayEqualizer::new(EqualizerConfig {
                    ceiling: f.ceiling,
                    residual: f.residual,
                    seed: f.seed ^ (0xEA00_0000u64 + s as u64),
                }),
            );
            // The leaf's own VM hop lands in front of the gate; leaf
            // edge indices sit far above any realistic tree edge count.
            sim.install_link(
                relay,
                port,
                gate,
                equalizer::IN,
                self.overlay_link(1 << 40 | s as u64),
            );
            gates.push(gate);
        }
        CloudOverlayFeed {
            root: tree.root,
            relays: tree.relays,
            gates,
            depth: tree.depth,
        }
    }

    /// Build the hold-and-release sequencer guarding an order-entry
    /// port. The caller splices it between the fabric and the exchange.
    pub fn build_sequencer(&self, sim: &mut Simulator) -> NodeId {
        let f = &self.cfg.fairness;
        sim.add_node(
            "cloud-seq",
            HoldReleaseSequencer::new(SequencerConfig {
                hold: f.hold,
                clock_error: f.clock_error,
                seed: f.seed ^ 0x5EC0_0000,
            }),
        )
    }

    /// The relay input port publishers send into (re-exported so design
    /// wiring needs only the topo crate).
    pub fn overlay_in(&self) -> PortId {
        RELAY_IN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_sim::{Context, Frame, Node};
    use tn_wire::{eth, stack};

    struct Sink {
        got: Vec<SimTime>,
    }
    impl Node for Sink {
        fn on_frame(&mut self, ctx: &mut Context<'_>, _p: PortId, _f: Frame) {
            self.got.push(ctx.now());
        }
    }

    /// Bidirectional hookup of an already-built Ethernet link model
    /// (goes through `install_link`; no `LinkSpec` equivalent).
    fn attach(sim: &mut Simulator, fabric: NodeId, port: PortId, host: NodeId, link: EtherLink) {
        sim.install_link(fabric, port, host, PortId(0), Box::new(link.clone()));
        sim.install_link(host, PortId(0), fabric, port, Box::new(link));
    }

    #[test]
    fn all_tenant_pairs_see_equal_latency() {
        let mut sim = Simulator::new(1);
        let mut cloud = CloudFabric::build(
            &mut sim,
            CloudConfig {
                tenant_ports: 4,
                ..CloudConfig::default()
            },
        );
        let mut hosts = Vec::new();
        for i in 0..4u32 {
            let port = cloud.take_tenant_port();
            let h = sim.add_node(format!("t{i}"), Sink { got: vec![] });
            attach(&mut sim, cloud.fabric, port, h, cloud.tenant_link());
            cloud.install_route(&mut sim, ipv4::Addr::host(i + 1), port);
            hosts.push((h, port));
        }
        // Send from tenant 0 to tenants 1..3; arrival deltas must match.
        let mut arrivals = Vec::new();
        for dst in 1..4u32 {
            let mut frame = Vec::new();
            stack::emit_udp_into(
                eth::MacAddr::host(1),
                Some(eth::MacAddr::host(dst + 1)),
                ipv4::Addr::host(1),
                ipv4::Addr::host(dst + 1),
                1,
                2,
                &[0u8; 60],
                &mut frame,
            );
            let f = sim.frame().copy_from(&frame).build();
            let t0 = sim.now();
            sim.inject_frame(t0, cloud.fabric, hosts[0].1, f);
            sim.run();
            let got = sim.node::<Sink>(hosts[dst as usize].0).unwrap().got.clone();
            arrivals.push(got[0] - t0);
        }
        assert_eq!(arrivals[0], arrivals[1]);
        assert_eq!(arrivals[1], arrivals[2]);
        // And the constant dwarfs a colo switch hop.
        assert!(arrivals[0] >= SimTime::from_us(50));
    }

    #[test]
    fn provider_multicast_is_generous() {
        let mut sim = Simulator::new(1);
        let cloud = CloudFabric::build(
            &mut sim,
            CloudConfig {
                tenant_ports: 2,
                ..CloudConfig::default()
            },
        );
        let sw = sim.node::<CommoditySwitch>(cloud.fabric).unwrap();
        assert_eq!(sw.hw_group_count(), 0);
        // The group budget is far beyond any commodity switch (§3's
        // thousands): the cloud's pitch is scale.
        assert!(cloud.cfg.mcast_groups >= 100_000);
    }

    #[test]
    fn overlay_feed_equalizes_when_ceiling_covers_the_tree() {
        let mut sim = Simulator::new(9);
        let mut cfg = CloudConfig {
            tenant_ports: 2,
            ..CloudConfig::default()
        };
        cfg.fairness = CloudFairnessSpec {
            hop_jitter: SimTime::ZERO,
            residual: SimTime::ZERO,
            ceiling: SimTime::from_us(200),
            ..CloudFairnessSpec::demo()
        };
        let cloud = CloudFabric::build(&mut sim, cfg);
        let feed = cloud.build_overlay_feed(&mut sim, 6);
        assert_eq!(feed.gates.len(), 6);
        assert!(feed.depth >= 1);
        let mut sinks = Vec::new();
        for (s, &gate) in feed.gates.iter().enumerate() {
            let sink = sim.add_node(format!("sub{s}"), Sink { got: vec![] });
            sim.install_link(
                gate,
                tn_cloud::equalizer::OUT,
                sink,
                PortId(0),
                Box::new(tn_sim::IdealLink::new(SimTime::ZERO)),
            );
            sinks.push(sink);
        }
        let f = sim.frame().zeroed(200).build();
        sim.inject_frame(SimTime::ZERO, feed.root, cloud.overlay_in(), f);
        sim.run();
        let first = sim.node::<Sink>(sinks[0]).unwrap().got[0];
        for &s in &sinks {
            let got = &sim.node::<Sink>(s).unwrap().got;
            assert_eq!(got.len(), 1, "each subscriber hears the event once");
            assert_eq!(
                got[0], first,
                "zero jitter + covering ceiling ⇒ zero spread"
            );
        }
        // Fairness charged latency: release at the ceiling, far above a
        // single VM hop.
        assert!(first >= SimTime::from_us(200));
    }

    #[test]
    fn sequencer_node_is_buildable_and_holds_orders() {
        let mut sim = Simulator::new(4);
        let cfg = CloudConfig {
            fairness: CloudFairnessSpec::demo(),
            ..CloudConfig::default()
        };
        let cloud = CloudFabric::build(&mut sim, cfg);
        let seq = cloud.build_sequencer(&mut sim);
        let sink = sim.add_node("exch", Sink { got: vec![] });
        sim.install_link(
            seq,
            tn_cloud::sequencer::OUT,
            sink,
            PortId(0),
            Box::new(tn_sim::IdealLink::new(SimTime::ZERO)),
        );
        let f = sim.frame().zeroed(64).build();
        sim.inject_frame(SimTime::from_us(1), seq, tn_cloud::sequencer::IN, f);
        sim.run();
        let got = &sim.node::<Sink>(sink).unwrap().got;
        assert_eq!(got.len(), 1);
        // Released exactly one hold window after arrival.
        assert_eq!(got[0], SimTime::from_us(1) + CloudFairnessSpec::demo().hold);
    }

    #[test]
    fn external_exchange_pays_wan_latency() {
        let mut sim = Simulator::new(1);
        let mut cloud = CloudFabric::build(
            &mut sim,
            CloudConfig {
                tenant_ports: 2,
                ..CloudConfig::default()
            },
        );
        let t_port = cloud.take_tenant_port();
        let tenant = sim.add_node("tenant", Sink { got: vec![] });
        attach(&mut sim, cloud.fabric, t_port, tenant, cloud.tenant_link());
        let exch = sim.add_node("exch", Sink { got: vec![] });
        attach(
            &mut sim,
            cloud.fabric,
            cloud.external_port,
            exch,
            cloud.external_link(),
        );
        cloud.install_route(
            &mut sim,
            ipv4::Addr::new(10, 200, 1, 1),
            cloud.external_port,
        );

        let mut frame = Vec::new();
        stack::emit_udp_into(
            eth::MacAddr::host(1),
            Some(eth::MacAddr::host(2)),
            ipv4::Addr::host(1),
            ipv4::Addr::new(10, 200, 1, 1),
            1,
            2,
            &[0u8; 26],
            &mut frame,
        );
        let f = sim.frame().copy_from(&frame).build();
        sim.inject_frame(SimTime::ZERO, cloud.fabric, t_port, f);
        sim.run();
        let got = &sim.node::<Sink>(exch).unwrap().got;
        assert_eq!(got.len(), 1);
        // Equalization + WAN: around a millisecond — §4.2's "latency for
        // communication beyond the cloud will be excessive".
        assert!(got[0] >= SimTime::from_ms(1));
    }
}
