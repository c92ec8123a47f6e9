//! The §4 designs and §5's FPGA hybrid: one trait, one run path.
//!
//! Every design hosts the *same* market + firm (from a
//! [`ScenarioConfig`]): normalizers owning disjoint feed units,
//! strategies subscribing to internal partitions and running momentum
//! logic, and gateways holding the exchange sessions. `run_on` alone
//! builds the kernel, firm and exchange, cables every NIC, starts the run
//! and collects the report; a design contributes only its fabric, through
//! the private `Fabric` seam.
//!
//! `run_on` also fixes the order of kernel mutations (nodes, links,
//! injected joins), which a design's `NodeId`s, link indices, event
//! `seq`s and so its trace digest follow from; `tests/design_digests.rs`
//! pins every design's.

use tn_cloud::{equalizer, sequencer, DelayEqualizer};
use tn_fault::{FaultLink, FaultSpec};
use tn_market::{Exchange, ExchangeConfig, PartitionScheme, SymbolDirectory};
use tn_netdev::EtherLink;
use tn_sim::{IdealLink, Link, NodeId, PortId, SimTime, Simulator};
use tn_stats::FairnessWindow;
use tn_switch::{commodity::igmp_frame, FpgaConfig, FpgaL1Switch};
use tn_topo::{
    CloudConfig, CloudFabric, CloudOverlayFeed, L1FabricConfig, L1TradingFabric, LeafSpine,
    LeafSpineConfig,
};
use tn_trading::{
    gateway, normalizer, strategy, Gateway, GatewayConfig, MomentumLogic, Normalizer,
    NormalizerConfig, OutputTransport, Strategy, StrategyConfig,
};
use tn_wire::{igmp, ipv4, Symbol};

use crate::report::{DesignReport, FairnessStats, LatencyStats, RecoveryStats};
use crate::scenario::ScenarioConfig;

/// Multicast group index base of the exchange's native feed.
pub const FEED_MCAST_BASE: u32 = 0;
/// Multicast group index base of the firm's normalized feed.
pub const NORM_MCAST_BASE: u32 = 20_000;

/// A network design that can host the common scenario.
pub trait TradingNetworkDesign {
    /// Display name.
    fn name(&self) -> String;
    /// Build, run, and report.
    fn run(&self, scenario: &ScenarioConfig) -> DesignReport;
}

/// A tier of firm hosts, in wiring order.
#[derive(Debug, Clone, Copy)]
enum Tier {
    Normalizer,
    Strategy,
    Gateway,
}

/// What runs between a NIC and its attachment point.
enum Wire {
    /// One Ethernet profile, an instance per direction. The cloud's
    /// hold-and-release sequencer, when named, is spliced into the
    /// fabric-to-NIC direction, a zero-delay hop from the NIC.
    Duplex(EtherLink, Option<NodeId>),
    /// The NIC only transmits here (the cloud overlay's publisher hop).
    HostTx(Box<dyn Link>),
    /// The NIC only receives here, a zero-delay hop from an equalizer gate.
    HostRx,
}

/// Where one NIC plugs into a fabric, and over what.
struct Attachment {
    node: NodeId,
    port: PortId,
    wire: Wire,
}

impl Attachment {
    fn duplex(node: NodeId, port: PortId, link: EtherLink) -> Attachment {
        let wire = Wire::Duplex(link, None);
        Attachment { node, port, wire }
    }
}

/// What a design contributes to [`run_on`]: its built fabric.
trait Fabric {
    /// Where the exchange's ports plug in, `PortId(0)` first: the port
    /// that publishes the feed and that its address is routed to.
    fn exchange_attach(&mut self, sim: &mut Simulator) -> Vec<Attachment>;

    /// Where NIC `nic` (0 or 1, the order of [`Host::nics`]) of the
    /// `index`-th host of `tier` plugs in.
    fn host_attach(&mut self, tier: Tier, index: usize, nic: usize) -> Attachment;

    /// Make `addr` reachable through attachment point `at`. Circuit
    /// fabrics have nothing to program.
    fn route(&self, _sim: &mut Simulator, _at: (NodeId, PortId), _addr: ipv4::Addr) {}

    /// Lay the cloud's fairness overlay, its nodes numbered after the
    /// firm's and before the exchange: one equalizer gate per subscriber.
    fn fairness_overlay(&mut self, _sim: &mut Simulator, _subscribers: usize) -> Vec<NodeId> {
        Vec::new()
    }
}

/// Cable a NIC to its attachment point and return that point. `tx_fault`
/// degrades the NIC-to-fabric direction of a duplex wire only.
fn plug(
    sim: &mut Simulator,
    host: NodeId,
    nic: PortId,
    at: Attachment,
    tx_fault: Option<&FaultSpec>,
) -> (NodeId, PortId) {
    let (node, port) = (at.node, at.port);
    let hop = || Box::new(IdealLink::new(SimTime::ZERO));
    match at.wire {
        Wire::HostTx(link) => sim.install_link(host, nic, node, port, link),
        Wire::HostRx => sim.install_link(node, port, host, nic, hop()),
        Wire::Duplex(link, sequencer) => {
            let tx: Box<dyn Link> = match tx_fault {
                Some(spec) => Box::new(FaultLink::wrap(link.clone(), spec.clone())),
                None => Box::new(link.clone()),
            };
            sim.install_link(host, nic, node, port, tx);
            let (rx_node, rx_port) = sequencer.map_or((host, nic), |s| (s, sequencer::IN));
            sim.install_link(node, port, rx_node, rx_port, Box::new(link));
            if let Some(seqr) = sequencer {
                sim.install_link(seqr, sequencer::OUT, host, nic, hop());
            }
        }
    }
    (node, port)
}

/// The one wire-up-and-run path: the scenario's market and firm hosted
/// on whatever `build` lays down.
fn run_on<F: Fabric>(
    name: String,
    sc: &ScenarioConfig,
    opts: FirmOptions,
    build: impl FnOnce(&mut Simulator) -> F,
) -> DesignReport {
    let mut sim = build_sim(sc);
    let dir = SymbolDirectory::synthetic(sc.symbols);
    let mut fabric = build(&mut sim);
    let exch_cfg = exchange_config(sc, &dir);
    let firm = build_firm(&mut sim, sc, &dir, &exch_cfg, opts);
    let gates = fabric.fairness_overlay(&mut sim, sc.strategies);

    let exch_ip = exch_cfg.src_ip;
    let exchange = sim.add_node("exchange", Exchange::new(exch_cfg));
    for (p, at) in fabric.exchange_attach(&mut sim).into_iter().enumerate() {
        // The scenario's feed fault rides the publish direction only;
        // order entry and acks keep a clean path.
        let fault = sc.feed_fault.as_ref().filter(|_| p == 0);
        let point = plug(&mut sim, exchange, PortId(p as u16), at, fault);
        if p == 0 {
            fabric.route(&mut sim, point, exch_ip);
        }
    }

    for (tier, hosts) in [
        (Tier::Normalizer, &firm.normalizers),
        (Tier::Strategy, &firm.strategies),
        (Tier::Gateway, &firm.gateways),
    ] {
        for (i, host) in hosts.iter().enumerate() {
            let points = [0, 1].map(|nic| {
                let at = fabric.host_attach(tier, i, nic);
                plug(&mut sim, host.node, host.nics[nic].0, at, None)
            });
            for join in &host.joins {
                let f = sim.frame().copy_from(join).build();
                sim.inject_frame(SimTime::ZERO, points[0].0, points[0].1, f);
            }
            for (&(_, addr), point) in host.nics.iter().zip(points) {
                if let Some(addr) = addr {
                    fabric.route(&mut sim, point, addr);
                }
            }
        }
    }

    start_everything(&mut sim, &firm, exchange, sc.warmup);
    collect_report(sim, name, sc, &firm, exchange, &gates)
}

// ---------------------------------------------------------------------
// The shared market and firm
// ---------------------------------------------------------------------

/// What a fabric asks of the firm's hosts.
struct FirmOptions {
    /// The fabric delivers the exchange feed by multicast group: a
    /// normalizer's IGMP reports for the units it owns go in at its feed
    /// attachment. On circuits (`false`) every normalizer gets the whole
    /// feed and filters its units host-side instead.
    feed_groups: bool,
    /// Strategies join their subscribed partitions' groups by IGMP.
    strategy_joins: bool,
    /// Framing of the firm's internal (normalized) feed.
    transport: OutputTransport,
}

impl FirmOptions {
    /// An IP fabric that learns groups from IGMP, standard UDP framing.
    const IP_MULTICAST: FirmOptions = FirmOptions {
        feed_groups: true,
        strategy_joins: true,
        transport: OutputTransport::UdpMulticast,
    };
}

/// One firm host.
struct Host {
    node: NodeId,
    /// Its two NICs in wiring order, each with the unicast address (if
    /// any) the fabric must route to it.
    nics: [(PortId, Option<ipv4::Addr>); 2],
    /// IGMP reports to inject at NIC 0's attachment point at time zero.
    joins: Vec<Vec<u8>>,
}

struct Firm {
    normalizers: Vec<Host>,
    strategies: Vec<Host>,
    gateways: Vec<Host>,
}

/// The feed units normalizer `n` owns: round-robin, `u % normalizers`.
fn owned_units(sc: &ScenarioConfig, n: usize) -> impl Iterator<Item = u8> + '_ {
    (0..sc.feed_units)
        .filter(move |u| usize::from(*u) % sc.normalizers == n)
        .map(|u| u8::try_from(u).expect("a PITCH unit id is one byte: feed_units <= 256"))
}

fn build_firm(
    sim: &mut Simulator,
    sc: &ScenarioConfig,
    dir: &SymbolDirectory,
    exchange: &ExchangeConfig,
    opts: FirmOptions,
) -> Firm {
    let symbols: Vec<Symbol> = dir.instruments().iter().map(|i| i.symbol).collect();

    let mut gateways = Vec::new();
    let mut gateway_addrs = Vec::new(); // (mac, internal_ip)
    for g in 0..sc.gateways {
        let mut cfg = GatewayConfig::new(g as u32, exchange.src_mac, exchange.src_ip);
        cfg.service = sc.gateway_service;
        gateway_addrs.push((cfg.src_mac, cfg.internal_ip));
        let nics = [
            (gateway::INTERNAL, Some(cfg.internal_ip)),
            (gateway::EXCHANGE, Some(cfg.src_ip)),
        ];
        let node = sim.add_node(format!("gw{g}"), Gateway::new(cfg));
        let joins = Vec::new();
        gateways.push(Host { node, nics, joins });
    }

    let mut strategies = Vec::new();
    for s in 0..sc.strategies {
        let mut cfg = StrategyConfig::new(s as u32, symbols.clone());
        cfg.mcast_base = NORM_MCAST_BASE;
        cfg.decision_service = sc.decision_service;
        cfg.send_igmp_joins = opts.strategy_joins;
        for p in sc.subscriptions_for(s) {
            cfg.subscriptions.subscribe(p);
        }
        (cfg.gw_mac, cfg.gw_ip) = gateway_addrs[s % gateway_addrs.len()];
        let nics = [(strategy::FEED, None), (strategy::ORDERS, Some(cfg.src_ip))];
        let logic = MomentumLogic::new(sc.momentum_threshold);
        let node = sim.add_node(format!("strat{s}"), Strategy::new(cfg, logic));
        let joins = Vec::new();
        strategies.push(Host { node, nics, joins });
    }

    let mut normalizers = Vec::new();
    for n in 0..sc.normalizers {
        let mut cfg = NormalizerConfig::new(1, n as u32);
        cfg.out_partitions = sc.internal_partitions;
        cfg.out_mcast_base = NORM_MCAST_BASE;
        cfg.per_message_service = sc.normalizer_service;
        cfg.preload = symbols.clone();
        cfg.transport = opts.transport;
        let mut joins = Vec::new();
        if opts.feed_groups {
            for u in owned_units(sc, n) {
                let group = ipv4::Addr::multicast_group(FEED_MCAST_BASE + u32::from(u));
                let report = igmp::MessageType::Report;
                joins.push(igmp_frame(report, cfg.src_mac, cfg.src_ip, group));
            }
        } else {
            cfg.accept_units = Some(owned_units(sc, n).collect());
        }
        let nics = [(normalizer::FEED_A, None), (normalizer::OUT, None)];
        let node = sim.add_node(format!("norm{n}"), Normalizer::new(cfg));
        normalizers.push(Host { node, nics, joins });
    }

    Firm {
        normalizers,
        strategies,
        gateways,
    }
}

fn exchange_config(sc: &ScenarioConfig, dir: &SymbolDirectory) -> ExchangeConfig {
    let mut cfg = ExchangeConfig::new(1, dir.clone());
    cfg.scheme = PartitionScheme::ByHash {
        units: sc.feed_units,
    };
    cfg.mcast_base = FEED_MCAST_BASE;
    cfg.order_service = sc.exchange_service;
    cfg.background_rate = sc.background_rate;
    cfg.tick_interval = sc.tick_interval;
    cfg.seed = sc.seed;
    cfg
}

/// Build the kernel a design runs on: the scenario's event scheduler,
/// then the telemetry it asked for, on the empty kernel as
/// [`Simulator::set_obs`] asks. Neither knob moves
/// the run — schedulers pop in identical `(time, seq)` order and
/// telemetry is purely side-state — so the trace digest is identical for
/// any [`tn_sim::SchedulerKind`] / [`tn_sim::ObsConfig`] setting (pinned
/// by `tn-audit divergence`).
fn build_sim(sc: &ScenarioConfig) -> Simulator {
    let mut sim = Simulator::with_scheduler(sc.seed, sc.scheduler);
    sim.set_obs(&sc.obs);
    sim
}

fn start_everything(sim: &mut Simulator, firm: &Firm, exchange: NodeId, warmup: SimTime) {
    for g in &firm.gateways {
        sim.schedule_timer(SimTime::ZERO, g.node, gateway::START);
    }
    for s in &firm.strategies {
        sim.schedule_timer(SimTime::from_us(10), s.node, strategy::START);
    }
    sim.schedule_timer(warmup, exchange, tn_market::TICK);
}

/// Drive the run to `warmup + duration` and read the report off the
/// nodes. `gates` are the per-subscriber equalizers a fairness section is
/// folded from; none (every fabric but the fair cloud) skips the section.
fn collect_report(
    mut sim: Simulator,
    name: String,
    sc: &ScenarioConfig,
    firm: &Firm,
    exchange: NodeId,
    gates: &[NodeId],
) -> DesignReport {
    let deadline = sc.warmup + sc.duration;
    sim.run_until(deadline);
    let mut feed_samples = Vec::new();
    let mut orders = 0;
    let mut acks = 0;
    let mut fills = 0;
    let mut evaluated = 0;
    let mut discarded = 0;
    for s in &firm.strategies {
        let node = sim
            .node::<Strategy<MomentumLogic>>(s.node)
            .expect("strategy");
        feed_samples.extend_from_slice(&node.decision_latency_ps);
        let st = node.stats();
        orders += st.orders_sent;
        acks += st.acks;
        fills += st.fills;
        evaluated += st.records_evaluated;
        discarded += st.records_discarded;
    }
    // Degraded-mode accounting from the normalizers' arbiters: gaps the
    // skip-forward policy declared, sequence numbers lost, duplicate
    // copies absorbed. (Retransmission fills come from the dedicated
    // recovery experiments, not the design topologies.)
    let mut recovery = RecoveryStats::none();
    for n in &firm.normalizers {
        let node = sim.node::<Normalizer>(n.node).expect("normalizer");
        let arb = node.core().arbiter().stats();
        recovery.gaps_seen += arb.gap_events;
        recovery.records_lost += arb.gap_messages;
        recovery.duplicates_absorbed += arb.duplicates;
    }
    // Snapshot the metrics (if the scenario turned provenance on) at the deadline
    // the run was driven to — reading it is pure observation.
    let telemetry = sim
        .metrics_snapshot(deadline.as_ps())
        .map(|snap| crate::report::Telemetry::from_snapshot(&snap));
    // Same discipline for the kernel self-profile and the flight ring:
    // both are pure observation, read after the run has been driven.
    let profile = sim.profile();
    let flight_dump = if sim.flight().is_enabled() {
        Some(sim.dump_flight())
    } else {
        None
    };
    // Fairness accounting from the per-subscriber equalizer gates:
    // frame ids group the relay copies of one published event, so the
    // window measures last-minus-first delivery across subscribers.
    let fairness = if gates.is_empty() {
        None
    } else {
        let mut window = FairnessWindow::new(gates.len());
        let mut late = 0;
        let mut pads = Vec::new();
        for &g in gates {
            let eq = sim.node::<DelayEqualizer>(g).expect("equalizer gate");
            for &(id, at_ps) in eq.releases() {
                window.observe(id, at_ps);
            }
            late += eq.stats().late;
            pads.extend_from_slice(eq.pad_ps());
        }
        Some(FairnessStats::from_window(&window, late, &pads))
    };
    let exch = sim.node::<Exchange>(exchange).expect("exchange");
    let reaction_samples = exch.response_latency_ps().to_vec();
    let reaction = LatencyStats::from_samples(&reaction_samples);
    let feed_messages = exch.stats().feed_messages;
    let software = sc.software_path();
    let network_share = if reaction.count > 0 && reaction.median > SimTime::ZERO {
        1.0 - software.as_ps() as f64 / reaction.median.as_ps() as f64
    } else {
        0.0
    }
    .max(0.0);
    DesignReport {
        design: name,
        feed_latency: LatencyStats::from_samples(&feed_samples),
        reaction,
        feed_messages,
        records_evaluated: evaluated,
        records_discarded: discarded,
        orders_sent: orders,
        acks,
        fills,
        frames_dropped: sim.stats().frames_dropped,
        software_path: software,
        network_share,
        trace_digest: sim.trace.digest(),
        events_recorded: sim.trace.recorded(),
        trace: sim.trace.events().to_vec(),
        recovery,
        telemetry,
        profile,
        flight_dump,
        reaction_samples,
        fairness,
    }
}

/// The 10G, 25 ns (~5 m of fiber) cable of the L1 and FPGA fabrics.
fn short_10g() -> EtherLink {
    EtherLink::ten_gig(SimTime::from_ns(25))
}

// ---------------------------------------------------------------------
// Design 1: traditional switches
// ---------------------------------------------------------------------

/// §4.1: commodity leaf-and-spine with functions grouped by rack.
#[derive(Debug, Clone, Default)]
pub struct TraditionalSwitches {
    /// Base fabric parameters; rack count is auto-sized to the scenario.
    pub fabric: LeafSpineConfig,
}

/// A leaf-spine with each tier's racks set aside: normalizers in the
/// first racks, strategies in the middle, gateways in the last.
struct RackedLeafSpine {
    fabric: LeafSpine,
    hosts_per_rack: usize,
    /// First rack of each tier.
    tier_base: [usize; 3],
}

impl TradingNetworkDesign for TraditionalSwitches {
    fn name(&self) -> String {
        "design-1-traditional-switches".into()
    }

    fn run(&self, sc: &ScenarioConfig) -> DesignReport {
        run_on(self.name(), sc, FirmOptions::IP_MULTICAST, |sim| {
            // Auto-size racks: every host consumes two ports (Fig 1(d):
            // separate NICs for market data and orders), grouped by
            // function.
            let hosts_per_rack = self.fabric.hosts_per_rack;
            let racks_for = |hosts: usize| (2 * hosts).div_ceil(hosts_per_rack);
            let norm_racks = racks_for(sc.normalizers);
            let strat_racks = racks_for(sc.strategies);
            let mut cfg = self.fabric.clone();
            cfg.racks = norm_racks + strat_racks + racks_for(sc.gateways);
            RackedLeafSpine {
                fabric: LeafSpine::build(sim, cfg),
                hosts_per_rack,
                tier_base: [0, norm_racks, norm_racks + strat_racks],
            }
        })
    }
}

impl Fabric for RackedLeafSpine {
    /// The exchange sits on the dedicated ToR.
    fn exchange_attach(&mut self, _sim: &mut Simulator) -> Vec<Attachment> {
        let (tor, port) = self.fabric.exchange_attach[0];
        vec![Attachment::duplex(tor, port, self.fabric.host_link())]
    }

    /// A tier fills its racks port by port, so a host's second NIC moves
    /// to the next rack when an odd `hosts_per_rack` leaves one port.
    fn host_attach(&mut self, tier: Tier, index: usize, nic: usize) -> Attachment {
        let rack = self.tier_base[tier as usize] + (2 * index + nic) / self.hosts_per_rack;
        let (leaf, port) = self.fabric.take_host_port_in_rack(rack);
        Attachment::duplex(leaf, port, self.fabric.host_link())
    }

    fn route(&self, sim: &mut Simulator, (leaf, port): (NodeId, PortId), addr: ipv4::Addr) {
        self.fabric.install_host_routes(sim, leaf, port, addr);
    }
}

// ---------------------------------------------------------------------
// Design 2: the cloud
// ---------------------------------------------------------------------

/// §4.2: a latency-equalized provider fabric, exchange on-prem behind a
/// WAN circuit.
#[derive(Debug, Clone, Default)]
pub struct CloudDesign {
    /// Provider fabric parameters.
    pub cloud: CloudConfig,
}

/// The provider fabric plus, when its fairness spec is on, the software
/// overlay that carries the firm's internal feed.
struct CloudTenancy {
    cloud: CloudFabric,
    overlay: Option<CloudOverlayFeed>,
}

impl TradingNetworkDesign for CloudDesign {
    fn name(&self) -> String {
        "design-2-cloud".into()
    }

    fn run(&self, sc: &ScenarioConfig) -> DesignReport {
        let opts = FirmOptions {
            // The overlay cannot parse IGMP: with it on, strategies must
            // not send joins into their feed path.
            strategy_joins: !self.cloud.fairness.enabled(),
            ..FirmOptions::IP_MULTICAST
        };
        run_on(self.name(), sc, opts, |sim| {
            let mut cfg = self.cloud.clone();
            cfg.tenant_ports = 2 * (sc.normalizers + sc.strategies + sc.gateways) + 4;
            CloudTenancy {
                cloud: CloudFabric::build(sim, cfg),
                overlay: None,
            }
        })
    }
}

impl Fabric for CloudTenancy {
    fn fairness_overlay(&mut self, sim: &mut Simulator, subscribers: usize) -> Vec<NodeId> {
        if !self.cloud.fairness().enabled() {
            return Vec::new();
        }
        let overlay = self.cloud.build_overlay_feed(sim, subscribers);
        self.overlay.insert(overlay).gates.clone()
    }

    /// The WAN circuit. With the fairness machinery on, the
    /// hold-and-release sequencer guards the order direction.
    fn exchange_attach(&mut self, sim: &mut Simulator) -> Vec<Attachment> {
        let cloud = &self.cloud;
        let sequencer = self.overlay.as_ref().map(|_| cloud.build_sequencer(sim));
        let wire = Wire::Duplex(cloud.external_link(), sequencer);
        let (node, port) = (cloud.fabric, cloud.external_port);
        vec![Attachment { node, port, wire }]
    }

    fn host_attach(&mut self, tier: Tier, index: usize, nic: usize) -> Attachment {
        // Every NIC claims a tenant port, even the two the overlay
        // carries instead: the port numbers of all later NICs (and so
        // the digest) must not depend on the fairness spec.
        let port = self.cloud.take_tenant_port();
        let cloud = &self.cloud;
        match (&self.overlay, tier, nic) {
            // Publisher hop: one jittery VM link into the overlay root.
            (Some(ov), Tier::Normalizer, 1) => Attachment {
                node: ov.root,
                port: cloud.overlay_in(),
                wire: Wire::HostTx(cloud.publisher_link(index)),
            },
            // Subscriber side: the gate releases into the feed NIC.
            (Some(ov), Tier::Strategy, 0) => Attachment {
                node: ov.gates[index],
                port: equalizer::OUT,
                wire: Wire::HostRx,
            },
            _ => Attachment::duplex(cloud.fabric, port, cloud.tenant_link()),
        }
    }

    fn route(&self, sim: &mut Simulator, (_, port): (NodeId, PortId), addr: ipv4::Addr) {
        self.cloud.install_route(sim, addr, port);
    }
}

// ---------------------------------------------------------------------
// Design 3: Layer-1 switches
// ---------------------------------------------------------------------

/// §4.3: four circuit networks on L1 switches.
#[derive(Debug, Clone, Default)]
pub struct LayerOneSwitches {
    /// How many normalizer feeds each strategy's NIC can take (merged).
    /// `None` subscribes every strategy to every normalizer.
    pub subscription_cap: Option<usize>,
    /// Frame the internal feed with the §5 custom transport instead of
    /// Eth+IP+UDP — only circuit fabrics permit this.
    pub custom_transport: bool,
}

impl TradingNetworkDesign for LayerOneSwitches {
    fn name(&self) -> String {
        "design-3-layer-one".into()
    }

    fn run(&self, sc: &ScenarioConfig) -> DesignReport {
        let opts = FirmOptions {
            feed_groups: false, // no IGMP on circuits
            strategy_joins: false,
            transport: if self.custom_transport {
                OutputTransport::L1Transport
            } else {
                OutputTransport::UdpMulticast
            },
        };
        run_on(self.name(), sc, opts, |sim| {
            let cfg = L1FabricConfig {
                normalizers: sc.normalizers,
                strategies: sc.strategies,
                gateways: sc.gateways,
                subscription_cap: self.subscription_cap.unwrap_or(sc.normalizers),
                ..L1FabricConfig::default()
            };
            L1TradingFabric::build(sim, &cfg)
        })
    }
}

impl Fabric for L1TradingFabric {
    /// Feed out on port 0 into network 1; orders in/out on port 1 via
    /// network 4.
    fn exchange_attach(&mut self, _sim: &mut Simulator) -> Vec<Attachment> {
        let (feed, entry) = (&self.feed_net, &self.entry_net);
        vec![
            Attachment::duplex(feed.switch, feed.inputs[0], short_10g()),
            Attachment::duplex(entry.switch, entry.outputs[0], short_10g()),
        ]
    }

    /// Each NIC gets a circuit on the network its tier shares with the next.
    fn host_attach(&mut self, tier: Tier, index: usize, nic: usize) -> Attachment {
        let (node, port) = match (tier, nic) {
            (Tier::Normalizer, 0) => (self.feed_net.switch, self.feed_net.outputs[index]),
            (Tier::Normalizer, _) => (self.dist_net.switch, self.dist_net.inputs[index]),
            (Tier::Strategy, 0) => (self.dist_merge_node(), self.dist_net.outputs[index]),
            (Tier::Strategy, _) => (self.order_net.switch, self.order_net.inputs[index]),
            (Tier::Gateway, 0) => (self.order_net.switch, self.order_net.outputs[index]),
            (Tier::Gateway, _) => (self.entry_net.switch, self.entry_net.inputs[index]),
        };
        Attachment::duplex(node, port, short_10g())
    }
}

// ---------------------------------------------------------------------
// §5 "Hardware": FPGA-augmented Layer-1 hybrid
// ---------------------------------------------------------------------

/// The §5 future-work design point: a single FPGA-augmented L1 switch
/// fabric — "100-nanosecond latency and standard IP forwarding and
/// multicast" — with IGMP-learned groups bounded by a small table.
/// Merging is safe because the fabric filters: strategies receive only
/// their subscribed partitions, at circuit-class latency.
#[derive(Debug, Clone)]
pub struct FpgaHybrid {
    /// Device parameters (latency, table size).
    pub fpga: FpgaConfig,
}

impl Default for FpgaHybrid {
    fn default() -> FpgaHybrid {
        FpgaHybrid {
            fpga: FpgaConfig {
                mcast_table_size: 1024,
                ..FpgaConfig::default()
            },
        }
    }
}

/// The one device, handing out its ports in order: the exchange first,
/// then every host's two NICs.
struct FpgaDevice {
    node: NodeId,
    next_port: u16,
}

impl TradingNetworkDesign for FpgaHybrid {
    fn name(&self) -> String {
        "design-3b-fpga-hybrid".into()
    }

    fn run(&self, sc: &ScenarioConfig) -> DesignReport {
        run_on(self.name(), sc, FirmOptions::IP_MULTICAST, |sim| {
            FpgaDevice {
                node: sim.add_node("fpga-fabric", FpgaL1Switch::new(self.fpga.clone())),
                next_port: 0,
            }
        })
    }
}

impl FpgaDevice {
    fn take_port(&mut self) -> Attachment {
        let port = PortId(self.next_port);
        self.next_port += 1;
        Attachment::duplex(self.node, port, short_10g())
    }
}

impl Fabric for FpgaDevice {
    fn exchange_attach(&mut self, _sim: &mut Simulator) -> Vec<Attachment> {
        vec![self.take_port()]
    }

    fn host_attach(&mut self, _tier: Tier, _index: usize, _nic: usize) -> Attachment {
        self.take_port()
    }

    fn route(&self, sim: &mut Simulator, (node, port): (NodeId, PortId), addr: ipv4::Addr) {
        sim.node_mut::<FpgaL1Switch>(node)
            .expect("the fabric node is the FPGA switch")
            .add_route(addr, port);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_topo::CloudFairnessSpec;

    #[test]
    fn fpga_hybrid_beats_design1_with_multicast_semantics() {
        let sc = ScenarioConfig::small(7);
        let d1 = TraditionalSwitches::default().run(&sc);
        let d3b = FpgaHybrid::default().run(&sc);
        assert!(d3b.orders_sent > 0, "{}", d3b.summary());
        // 100 ns hops instead of 500 ns, with the same group filtering:
        // nothing discarded at hosts, and lower reaction latency.
        assert_eq!(d3b.records_discarded, 0, "{}", d3b.summary());
        assert!(
            d3b.reaction.min < d1.reaction.min,
            "d3b {} !< d1 {}",
            d3b.reaction.min,
            d1.reaction.min
        );
    }

    #[test]
    fn alternative_schedulers_leave_digest_untouched() {
        let heap = ScenarioConfig::small(7);
        let r_heap = TraditionalSwitches::default().run(&heap);
        for kind in tn_sim::SchedulerKind::ALL {
            let mut other = ScenarioConfig::small(7);
            other.scheduler = kind;
            let r_other = TraditionalSwitches::default().run(&other);
            // Scheduler choice is wall-clock-only: same pops, same digest.
            assert_eq!(r_heap.trace_digest, r_other.trace_digest, "{}", kind.name());
            assert_eq!(r_heap.events_recorded, r_other.events_recorded);
            assert_eq!(r_heap.orders_sent, r_other.orders_sent);
        }
    }

    #[test]
    fn full_telemetry_leaves_digest_untouched_and_reconciles() {
        let off = ScenarioConfig::small(7);
        let mut on = ScenarioConfig::small(7);
        on.obs = tn_sim::ObsConfig::full();
        let r_off = TraditionalSwitches::default().run(&off);
        let r_on = TraditionalSwitches::default().run(&on);
        // The tentpole invariant: telemetry is pure observation.
        assert_eq!(r_off.trace_digest, r_on.trace_digest);
        assert_eq!(r_off.events_recorded, r_on.events_recorded);
        assert!(r_off.telemetry.is_none());
        let t = r_on.telemetry.clone().expect("provenance enabled");
        // Every delivered frame passed the kernel's deliver counter, and
        // the hop decomposition saw real link time.
        assert!(t.counter_total("kernel", "deliver") > 0, "{t:?}");
        assert!(t.counter_total("switch", "frames") > 0, "{t:?}");
        assert!(!t.hops.is_empty() && !t.hottest_nodes.is_empty());
        let share_sum: f64 = t.hops.iter().map(|h| h.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "shares sum to {share_sum}");
        // And the JSON report carries the section.
        assert!(r_on.to_json().contains("\"telemetry\":{"));
    }

    #[test]
    fn flight_and_profile_leave_digest_untouched_and_report() {
        let off = ScenarioConfig::small(7);
        let mut on = ScenarioConfig::small(7);
        on.obs.flight_capacity = 512;
        on.obs.profile = true;
        let r_off = TraditionalSwitches::default().run(&off);
        let r_on = TraditionalSwitches::default().run(&on);
        // Recorder + profiler are pure observation: same digest, same run.
        assert_eq!(r_off.trace_digest, r_on.trace_digest);
        assert_eq!(r_off.events_recorded, r_on.events_recorded);
        assert!(r_off.profile.is_none() && r_off.flight_dump.is_none());
        let p = r_on.profile.as_ref().expect("profiler enabled");
        // The profile reconciles with the run's own counters.
        assert!(p.frames > 0 && p.schedules >= p.frames, "{p:?}");
        assert!(!p.per_node.is_empty() && p.max_queue_depth > 0);
        assert!(p.arena_reuse_ratio().is_some());
        let dump = r_on.flight_dump.as_ref().expect("flight enabled");
        assert!(dump.starts_with("tn-flight dump @ "), "{dump}");
        assert!(dump.contains("dispatch"), "{dump}");
        // And both land in the human summary + JSON.
        assert!(r_on.summary().contains("kernel profile @ "));
        assert!(r_on.to_json().contains("\"kernel_profile\":{"));
    }

    #[test]
    fn profile_reports_on_faulted_runs_too() {
        let mut sc = ScenarioConfig::small(11);
        sc.feed_fault = Some(tn_fault::FaultSpec::new(9).with_iid_loss(0.05));
        sc.obs.flight_capacity = 256;
        sc.obs.profile = true;
        let r = TraditionalSwitches::default().run(&sc);
        let p = r.profile.as_ref().expect("profiler enabled");
        assert!(p.dispatches() > 0, "{}", r.summary());
        assert!(r.summary().contains("kernel profile @ "), "{}", r.summary());
        // A lossy feed gives the recovery machinery work; the faulted run
        // still produces a full dump for post-mortems.
        assert!(r.flight_dump.is_some());
    }

    #[test]
    fn design1_runs_and_reacts() {
        let sc = ScenarioConfig::small(7);
        let report = TraditionalSwitches::default().run(&sc);
        assert!(report.feed_messages > 100, "{}", report.summary());
        assert!(report.records_evaluated > 0, "{}", report.summary());
        assert!(report.orders_sent > 0, "{}", report.summary());
        assert!(report.acks > 0, "{}", report.summary());
        assert!(report.reaction.count > 0, "{}", report.summary());
        // Reaction includes 12 switch hops + 3 software hops; must exceed
        // the raw software budget.
        assert!(report.reaction.median > sc.software_path());
    }

    #[test]
    fn design1_wires_an_odd_rack_size() {
        // Three ports per rack: host 1's second NIC spills into the next
        // rack, which the port-sized fabric has room for.
        let odd = TraditionalSwitches {
            fabric: LeafSpineConfig {
                hosts_per_rack: 3,
                ..LeafSpineConfig::default()
            },
        };
        let report = odd.run(&ScenarioConfig::small(7));
        assert!(report.orders_sent > 0, "{}", report.summary());
        assert_eq!(report.frames_dropped, 0, "{}", report.summary());
    }

    #[test]
    fn design3_custom_transport_works_and_saves_bytes() {
        let sc = ScenarioConfig::small(7);
        let udp = LayerOneSwitches::default().run(&sc);
        let l1t = LayerOneSwitches {
            custom_transport: true,
            ..Default::default()
        }
        .run(&sc);
        // Identical event flow; the transport never changes what trades.
        assert_eq!(udp.feed_messages, l1t.feed_messages);
        assert!(l1t.orders_sent > 0, "{}", l1t.summary());
        assert_eq!(udp.orders_sent, l1t.orders_sent);
        // 34 fewer header bytes per internal-feed packet = ~27 ns less
        // serialization per hop; the uncongested path must not get slower.
        assert!(
            l1t.reaction.min <= udp.reaction.min,
            "l1t {} !<= udp {}",
            l1t.reaction.min,
            udp.reaction.min
        );
    }

    #[test]
    fn design3_is_faster_than_design1() {
        let sc = ScenarioConfig::small(7);
        let d1 = TraditionalSwitches::default().run(&sc);
        let d3 = LayerOneSwitches::default().run(&sc);
        assert!(d3.reaction.count > 0 && d1.reaction.count > 0);
        assert!(
            d3.reaction.median < d1.reaction.median,
            "d1 {} vs d3 {}",
            d1.reaction.median,
            d3.reaction.median
        );
        // The *network* component should differ by far more than the
        // totals (software dominates both).
        assert!(d3.network_time() < d1.network_time());
    }

    #[test]
    fn design2_pays_the_equalization_constant() {
        let mut sc = ScenarioConfig::small(7);
        sc.duration = SimTime::from_ms(30);
        let d2 = CloudDesign::default().run(&sc);
        assert!(d2.reaction.count > 0, "{}", d2.summary());
        // Several equalized hops plus the WAN dwarf everything.
        assert!(d2.reaction.median > SimTime::from_ms(1), "{}", d2.summary());
        // The constant-based baseline has no fairness machinery to report.
        assert!(d2.fairness.is_none());
    }

    #[test]
    fn design2_fairness_mechanisms_equalize_and_report() {
        let mut sc = ScenarioConfig::small(7);
        sc.duration = SimTime::from_ms(30);
        let fair = CloudDesign {
            cloud: CloudConfig {
                fairness: CloudFairnessSpec::demo(),
                ..CloudConfig::default()
            },
        };
        let r = fair.run(&sc);
        assert!(r.orders_sent > 0, "{}", r.summary());
        assert!(r.reaction.count > 0, "{}", r.summary());
        let fa = r.fairness.clone().expect("fairness section when enabled");
        assert_eq!(fa.subscribers, sc.strategies as u64);
        assert!(fa.events_measured > 100, "{}", r.summary());
        // The demo ceiling (120 µs) covers the worst 3-hop overlay path
        // plus jitter, so no delivery is late and the spread across all
        // subscribers collapses to the residual pacing error.
        assert_eq!(fa.late_deliveries, 0, "{}", r.summary());
        assert!(fa.spread_max <= SimTime::from_ns(100), "{}", r.summary());
        // …and the fairness is paid for in padding: deliveries idle in
        // the equalizer for tens of microseconds.
        assert!(fa.pad_median > SimTime::from_us(20), "{}", r.summary());
        // Deterministic: same scenario, same digest.
        let r2 = fair.run(&sc);
        assert_eq!(r.trace_digest, r2.trace_digest);
        assert_eq!(r.fairness, r2.fairness);
    }
}
