//! The three §4 designs behind one trait.
//!
//! Each design builds the *same* market + firm (from a
//! [`ScenarioConfig`]) over its own fabric, runs it, and reports. The
//! firm tier is: normalizers owning disjoint feed units, strategies
//! subscribing to internal partitions and running momentum logic, and
//! gateways holding the exchange sessions.

use std::collections::HashSet;

use tn_market::{Exchange, ExchangeConfig, PartitionScheme, SymbolDirectory};
use tn_netdev::EtherLink;
use tn_sim::{NodeId, PortId, SimTime, Simulator};
use tn_switch::{FpgaConfig, FpgaL1Switch};
use tn_topo::{
    CloudConfig, CloudFabric, L1FabricConfig, L1TradingFabric, LeafSpine, LeafSpineConfig,
};
use tn_trading::{
    gateway, normalizer, strategy, Gateway, GatewayConfig, MomentumLogic, Normalizer,
    NormalizerConfig, OutputTransport, Strategy, StrategyConfig,
};
use tn_wire::{eth, igmp, ipv4, Symbol};

use tn_cloud::{equalizer, sequencer, DelayEqualizer};
use tn_fault::FaultLink;
use tn_sim::Link;
use tn_stats::FairnessWindow;

use tn_sim::{IdealLink, ShardedSimulator};

use crate::report::{DesignReport, FairnessStats, LatencyStats, RecoveryStats, ShardReport};
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

// ---------------------------------------------------------------------
// Shared firm construction
// ---------------------------------------------------------------------

struct Firm {
    normalizers: Vec<NodeId>,
    strategies: Vec<NodeId>,
    gateways: Vec<NodeId>,
    gateway_addrs: Vec<(eth::MacAddr, ipv4::Addr, ipv4::Addr)>, // (mac, exch_ip, internal_ip)
    strategy_addrs: Vec<(eth::MacAddr, ipv4::Addr)>,
    normalizer_addrs: Vec<(eth::MacAddr, ipv4::Addr)>,
}

fn build_firm(
    sim: &mut Simulator,
    sc: &ScenarioConfig,
    dir: &SymbolDirectory,
    exch_mac: eth::MacAddr,
    exch_ip: ipv4::Addr,
    send_igmp_joins: bool,
    accept_units: bool,
) -> Firm {
    build_firm_with_transport(
        sim,
        sc,
        dir,
        exch_mac,
        exch_ip,
        send_igmp_joins,
        accept_units,
        OutputTransport::UdpMulticast,
    )
}

#[allow(clippy::too_many_arguments)]
fn build_firm_with_transport(
    sim: &mut Simulator,
    sc: &ScenarioConfig,
    dir: &SymbolDirectory,
    exch_mac: eth::MacAddr,
    exch_ip: ipv4::Addr,
    send_igmp_joins: bool,
    accept_units: bool,
    transport: OutputTransport,
) -> Firm {
    let symbols: Vec<Symbol> = dir.instruments().iter().map(|i| i.symbol).collect();

    let mut gateways = Vec::new();
    let mut gateway_addrs = Vec::new();
    for g in 0..sc.gateways {
        let mut cfg = GatewayConfig::new(g as u32, exch_mac, exch_ip);
        cfg.service = sc.gateway_service;
        gateway_addrs.push((cfg.src_mac, cfg.src_ip, cfg.internal_ip));
        gateways.push(sim.add_node(format!("gw{g}"), Gateway::new(cfg)));
    }

    let mut strategies = Vec::new();
    let mut strategy_addrs = Vec::new();
    for s in 0..sc.strategies {
        let mut cfg = StrategyConfig::new(s as u32, symbols.clone());
        cfg.mcast_base = NORM_MCAST_BASE;
        cfg.decision_service = sc.decision_service;
        cfg.send_igmp_joins = send_igmp_joins;
        let mut subs = tn_feed::SubscriptionSet::unbounded();
        for p in sc.subscriptions_for(s) {
            subs.subscribe(p);
        }
        cfg.subscriptions = subs;
        let (gmac, _gip, ginternal) = gateway_addrs[s % gateway_addrs.len()];
        cfg.gw_mac = gmac;
        cfg.gw_ip = ginternal;
        strategy_addrs.push((cfg.src_mac, cfg.src_ip));
        let logic = MomentumLogic::new(sc.momentum_threshold);
        strategies.push(sim.add_node(format!("strat{s}"), Strategy::new(cfg, logic)));
    }

    let mut normalizers = Vec::new();
    let mut normalizer_addrs = Vec::new();
    for n in 0..sc.normalizers {
        let mut cfg = NormalizerConfig::new(1, n as u32);
        cfg.out_partitions = sc.internal_partitions;
        cfg.out_mcast_base = NORM_MCAST_BASE;
        cfg.per_message_service = sc.normalizer_service;
        cfg.preload = symbols.clone();
        cfg.transport = transport;
        if accept_units {
            let mine: HashSet<u8> = (0..sc.feed_units)
                .filter(|u| (*u as usize) % sc.normalizers == n)
                .map(|u| u as u8)
                .collect();
            cfg.accept_units = Some(mine);
        }
        normalizer_addrs.push((cfg.src_mac, cfg.src_ip));
        normalizers.push(sim.add_node(format!("norm{n}"), Normalizer::new(cfg)));
    }

    Firm {
        normalizers,
        strategies,
        gateways,
        gateway_addrs,
        strategy_addrs,
        normalizer_addrs,
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

/// The units normalizer `n` owns under round-robin unit assignment.
fn units_for(sc: &ScenarioConfig, n: usize) -> Vec<u32> {
    (0..u32::from(sc.feed_units))
        .filter(|u| (*u as usize) % sc.normalizers == n)
        .collect()
}

/// Bidirectional attach of an already-built link model. The designs wire
/// concrete hardware models (`EtherLink`, fabric host links) that the
/// `LinkSpec`-based `connect_spec` cannot express, so they go in through
/// the raw `install_link` primitive, one instance per direction.
fn attach(
    sim: &mut Simulator,
    a: NodeId,
    a_port: PortId,
    b: NodeId,
    b_port: PortId,
    link: impl Link + Clone + 'static,
) {
    sim.install_link(a, a_port, b, b_port, Box::new(link.clone()));
    sim.install_link(b, b_port, a, a_port, Box::new(link));
}

/// Attach the exchange's feed port to the fabric, injecting the
/// scenario's feed fault (if any) on the publish direction only — order
/// entry and acks ride the clean reverse path. With no fault configured
/// this is exactly a plain bidirectional attach, so pre-fault digests
/// reproduce bit-for-bit.
fn connect_exchange_feed(
    sim: &mut Simulator,
    sc: &ScenarioConfig,
    exchange: NodeId,
    exch_port: PortId,
    fabric: NodeId,
    fabric_port: PortId,
    link: impl Link + Clone + 'static,
) {
    match &sc.feed_fault {
        Some(spec) => {
            sim.install_link(
                exchange,
                exch_port,
                fabric,
                fabric_port,
                Box::new(FaultLink::wrap(link.clone(), spec.clone())),
            );
            sim.install_link(fabric, fabric_port, exchange, exch_port, Box::new(link));
        }
        None => attach(sim, exchange, exch_port, fabric, fabric_port, link),
    }
}

/// Build the kernel a design runs on: the scenario's event scheduler,
/// then the telemetry it asked for. Called before any node or link
/// exists: `add_node` / `install_link` hand the metrics handle to
/// everything added later, including the fault wrappers
/// `connect_exchange_feed` installs. None of the knobs move the run —
/// schedulers pop in identical `(time, seq)` order, telemetry is purely
/// side-state, and arena pooling hands out logically empty buffers
/// either way, so the event schedule and trace digest are identical for
/// any [`tn_sim::SchedulerKind`] / [`tn_sim::ObsConfig`] /
/// `frame_pooling` setting (pinned by `tn-audit divergence`).
fn build_sim(sc: &ScenarioConfig) -> Simulator {
    let mut sim = Simulator::with_scheduler(sc.seed, sc.scheduler);
    if !sc.frame_pooling {
        sim.set_arena_max_free(0);
    }
    sim.set_obs(&sc.obs);
    sim
}

fn start_everything(sim: &mut Simulator, firm: &Firm, exchange: NodeId, warmup: SimTime) {
    for &g in &firm.gateways {
        sim.schedule_timer(SimTime::ZERO, g, gateway::START);
    }
    for &s in &firm.strategies {
        sim.schedule_timer(SimTime::from_us(10), s, strategy::START);
    }
    sim.schedule_timer(warmup, exchange, tn_market::TICK);
}

fn collect_report(
    sim: Simulator,
    name: String,
    sc: &ScenarioConfig,
    firm: &Firm,
    exchange: NodeId,
    deadline: SimTime,
) -> DesignReport {
    collect_report_with_fairness(sim, name, sc, firm, exchange, deadline, &[])
}

/// [`collect_report`] plus a fairness section folded from the given
/// equalizer gates (one per subscriber). An empty slice skips the
/// section entirely — every non-cloud design passes through here with
/// no fairness machinery.
fn collect_report_with_fairness(
    mut sim: Simulator,
    name: String,
    sc: &ScenarioConfig,
    firm: &Firm,
    exchange: NodeId,
    deadline: SimTime,
    gates: &[NodeId],
) -> DesignReport {
    // Serial or sharded execution per the scenario's `shards` spec. The
    // sharded path reassembles into the same dense kernel afterwards, so
    // everything below — downcasts, registry snapshot, profile, digest —
    // reads identically. Plans are resolved against the topology here
    // because only now does the graph exist; a rejected manual spec is a
    // configuration bug, surfaced with the validator's explanation.
    let shard = match sc.resolve_shard_plan(&sim) {
        Err(e) => panic!("{e}"),
        Ok(None) => {
            sim.run_until(deadline);
            None
        }
        Ok(Some(plan)) => {
            let mut sharded =
                ShardedSimulator::split(sim, &plan).expect("plan validated against this topology");
            sharded.run_until(deadline);
            let stats = sharded.run_stats();
            sim = sharded.finish();
            Some(ShardReport {
                shards: stats.shards,
                windows: stats.windows,
                cross_shard_frames: stats.cross_shard_frames,
                events_per_shard: stats.events_per_shard,
                nodes_per_shard: stats.nodes_per_shard,
            })
        }
    };
    let mut feed_samples = Vec::new();
    let mut orders = 0;
    let mut acks = 0;
    let mut fills = 0;
    let mut evaluated = 0;
    let mut discarded = 0;
    for &s in &firm.strategies {
        let node = sim.node::<Strategy<MomentumLogic>>(s).expect("strategy");
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
    for &n in &firm.normalizers {
        let node = sim.node::<Normalizer>(n).expect("normalizer");
        let arb = node.core().arbiter().stats();
        recovery.gaps_seen += arb.gap_events;
        recovery.records_lost += arb.gap_messages;
        recovery.duplicates_absorbed += arb.duplicates;
    }
    // Snapshot the registry (if the scenario enabled one) at the deadline
    // the run was driven to — reading it is pure observation.
    let telemetry = sim
        .metrics()
        .snapshot(deadline.as_ps())
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
        recovery,
        telemetry,
        profile,
        flight_dump,
        reaction_samples,
        shard,
        fairness,
    }
}

fn igmp_join_frame(mac: eth::MacAddr, ip: ipv4::Addr, group_idx: u32) -> Vec<u8> {
    tn_switch::commodity::igmp_frame(
        igmp::MessageType::Report,
        mac,
        ip,
        ipv4::Addr::multicast_group(group_idx),
    )
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

impl TradingNetworkDesign for TraditionalSwitches {
    fn name(&self) -> String {
        "design-1-traditional-switches".into()
    }

    fn run(&self, sc: &ScenarioConfig) -> DesignReport {
        let mut sim = build_sim(sc);
        let dir = SymbolDirectory::synthetic(sc.symbols);
        // Auto-size racks: every host consumes two ports (Fig 1(d):
        // separate NICs for market data and orders), grouped by function.
        let hpr = self.fabric.hosts_per_rack;
        let racks_for = |hosts: usize| (2 * hosts).div_ceil(hpr);
        let norm_racks = racks_for(sc.normalizers);
        let strat_racks = racks_for(sc.strategies);
        let gw_racks = racks_for(sc.gateways);
        let mut fabric_cfg = self.fabric.clone();
        fabric_cfg.racks = norm_racks + strat_racks + gw_racks;
        let mut fabric = LeafSpine::build(&mut sim, fabric_cfg);

        let firm = build_firm(
            &mut sim,
            sc,
            &dir,
            eth::MacAddr::host(0xEE01),
            ipv4::Addr::new(10, 200, 1, 1),
            true,
            false,
        );

        // Exchange on the dedicated ToR.
        let exch_cfg = exchange_config(sc, &dir);
        let (exch_mac, exch_ip) = (exch_cfg.src_mac, exch_cfg.src_ip);
        let exchange = sim.add_node("exchange", Exchange::new(exch_cfg));
        let (tor, tor_port) = fabric.exchange_attach[0];
        connect_exchange_feed(
            &mut sim,
            sc,
            exchange,
            PortId(0),
            tor,
            tor_port,
            fabric.host_link(),
        );
        fabric.install_host_routes(&mut sim, tor, tor_port, exch_ip);
        debug_assert_eq!(exch_mac, eth::MacAddr::host(0xEE01));

        // Normalizers in the first racks: FEED_A + OUT ports.
        for (n, &node) in firm.normalizers.iter().enumerate() {
            let rack = (2 * n) / hpr;
            let (leaf_f, port_f) = fabric.take_host_port_in_rack(rack);
            let (leaf_o, port_o) = fabric.take_host_port_in_rack(rack);
            attach(
                &mut sim,
                node,
                normalizer::FEED_A,
                leaf_f,
                port_f,
                fabric.host_link(),
            );
            attach(
                &mut sim,
                node,
                normalizer::OUT,
                leaf_o,
                port_o,
                fabric.host_link(),
            );
            // Join this normalizer's feed units.
            let (mac, ip) = firm.normalizer_addrs[n];
            for u in units_for(sc, n) {
                let join = igmp_join_frame(mac, ip, FEED_MCAST_BASE + u);
                let f = sim.frame().copy_from(&join).build();
                sim.inject_frame(SimTime::ZERO, leaf_f, port_f, f);
            }
        }

        // Strategies in the middle racks.
        for (s, &node) in firm.strategies.iter().enumerate() {
            let rack = norm_racks + (2 * s) / hpr;
            let (leaf_f, port_f) = fabric.take_host_port_in_rack(rack);
            let (leaf_o, port_o) = fabric.take_host_port_in_rack(rack);
            attach(
                &mut sim,
                node,
                strategy::FEED,
                leaf_f,
                port_f,
                fabric.host_link(),
            );
            attach(
                &mut sim,
                node,
                strategy::ORDERS,
                leaf_o,
                port_o,
                fabric.host_link(),
            );
            let (_mac, ip) = firm.strategy_addrs[s];
            fabric.install_host_routes(&mut sim, leaf_o, port_o, ip);
        }

        // Gateways in the last racks.
        for (g, &node) in firm.gateways.iter().enumerate() {
            let rack = norm_racks + strat_racks + (2 * g) / hpr;
            let (leaf_i, port_i) = fabric.take_host_port_in_rack(rack);
            let (leaf_x, port_x) = fabric.take_host_port_in_rack(rack);
            attach(
                &mut sim,
                node,
                gateway::INTERNAL,
                leaf_i,
                port_i,
                fabric.host_link(),
            );
            attach(
                &mut sim,
                node,
                gateway::EXCHANGE,
                leaf_x,
                port_x,
                fabric.host_link(),
            );
            let (_mac, exch_side_ip, internal_ip) = firm.gateway_addrs[g];
            fabric.install_host_routes(&mut sim, leaf_i, port_i, internal_ip);
            fabric.install_host_routes(&mut sim, leaf_x, port_x, exch_side_ip);
        }

        start_everything(&mut sim, &firm, exchange, sc.warmup);
        collect_report(
            sim,
            self.name(),
            sc,
            &firm,
            exchange,
            sc.warmup + sc.duration,
        )
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

impl TradingNetworkDesign for CloudDesign {
    fn name(&self) -> String {
        "design-2-cloud".into()
    }

    fn run(&self, sc: &ScenarioConfig) -> DesignReport {
        let mut sim = build_sim(sc);
        let dir = SymbolDirectory::synthetic(sc.symbols);
        let mut cloud_cfg = self.cloud.clone();
        cloud_cfg.tenant_ports = 2 * (sc.normalizers + sc.strategies + sc.gateways) + 4;
        let mut cloud = CloudFabric::build(&mut sim, cloud_cfg);
        let fair = cloud.fairness().enabled();

        // With the fairness machinery on, the firm's internal feed rides
        // the software overlay instead of provider multicast, so
        // strategies must not send IGMP joins into a path that cannot
        // parse them.
        let firm = build_firm(
            &mut sim,
            sc,
            &dir,
            eth::MacAddr::host(0xEE01),
            ipv4::Addr::new(10, 200, 1, 1),
            !fair,
            false,
        );
        let overlay = if fair {
            Some(cloud.build_overlay_feed(&mut sim, sc.strategies))
        } else {
            None
        };

        let exch_cfg = exchange_config(sc, &dir);
        let exch_ip = exch_cfg.src_ip;
        let exchange = sim.add_node("exchange", Exchange::new(exch_cfg));
        if fair {
            // Splice the hold-and-release sequencer into the order
            // direction only: fabric → sequencer → exchange. The publish
            // direction keeps the scenario's feed-fault discipline of
            // `connect_exchange_feed` exactly.
            let seqr = cloud.build_sequencer(&mut sim);
            let wan = cloud.external_link();
            let publish: Box<dyn Link> = match &sc.feed_fault {
                Some(spec) => Box::new(FaultLink::wrap(wan.clone(), spec.clone())),
                None => Box::new(wan.clone()),
            };
            sim.install_link(
                exchange,
                PortId(0),
                cloud.fabric,
                cloud.external_port,
                publish,
            );
            sim.install_link(
                cloud.fabric,
                cloud.external_port,
                seqr,
                sequencer::IN,
                Box::new(wan),
            );
            sim.install_link(
                seqr,
                sequencer::OUT,
                exchange,
                PortId(0),
                Box::new(IdealLink::new(SimTime::ZERO)),
            );
        } else {
            connect_exchange_feed(
                &mut sim,
                sc,
                exchange,
                PortId(0),
                cloud.fabric,
                cloud.external_port,
                cloud.external_link(),
            );
        }
        cloud.install_route(&mut sim, exch_ip, cloud.external_port);

        for (n, &node) in firm.normalizers.iter().enumerate() {
            let pf = cloud.take_tenant_port();
            let po = cloud.take_tenant_port();
            attach(
                &mut sim,
                node,
                normalizer::FEED_A,
                cloud.fabric,
                pf,
                cloud.tenant_link(),
            );
            match &overlay {
                // Publisher hop: one jittery VM link into the overlay
                // root. Edge indices above 2^41 stay disjoint from both
                // tree edges and the gate leaf hops.
                Some(ov) => {
                    let link = cloud.overlay_link((1u64 << 41) | n as u64);
                    sim.install_link(node, normalizer::OUT, ov.root, cloud.overlay_in(), link);
                }
                None => attach(
                    &mut sim,
                    node,
                    normalizer::OUT,
                    cloud.fabric,
                    po,
                    cloud.tenant_link(),
                ),
            }
            let (mac, ip) = firm.normalizer_addrs[n];
            for u in units_for(sc, n) {
                let join = igmp_join_frame(mac, ip, FEED_MCAST_BASE + u);
                let f = sim.frame().copy_from(&join).build();
                sim.inject_frame(SimTime::ZERO, cloud.fabric, pf, f);
            }
        }
        for (s, &node) in firm.strategies.iter().enumerate() {
            let pf = cloud.take_tenant_port();
            let po = cloud.take_tenant_port();
            match &overlay {
                // Subscriber side: the equalizer gate releases straight
                // into the strategy's feed NIC.
                Some(ov) => sim.install_link(
                    ov.gates[s],
                    equalizer::OUT,
                    node,
                    strategy::FEED,
                    Box::new(IdealLink::new(SimTime::ZERO)),
                ),
                None => attach(
                    &mut sim,
                    node,
                    strategy::FEED,
                    cloud.fabric,
                    pf,
                    cloud.tenant_link(),
                ),
            }
            attach(
                &mut sim,
                node,
                strategy::ORDERS,
                cloud.fabric,
                po,
                cloud.tenant_link(),
            );
            cloud.install_route(&mut sim, firm.strategy_addrs[s].1, po);
        }
        for (g, &node) in firm.gateways.iter().enumerate() {
            let pi = cloud.take_tenant_port();
            let px = cloud.take_tenant_port();
            attach(
                &mut sim,
                node,
                gateway::INTERNAL,
                cloud.fabric,
                pi,
                cloud.tenant_link(),
            );
            attach(
                &mut sim,
                node,
                gateway::EXCHANGE,
                cloud.fabric,
                px,
                cloud.tenant_link(),
            );
            let (_mac, exch_side_ip, internal_ip) = firm.gateway_addrs[g];
            cloud.install_route(&mut sim, internal_ip, pi);
            cloud.install_route(&mut sim, exch_side_ip, px);
        }

        start_everything(&mut sim, &firm, exchange, sc.warmup);
        let gates = overlay.map(|ov| ov.gates).unwrap_or_default();
        collect_report_with_fairness(
            sim,
            self.name(),
            sc,
            &firm,
            exchange,
            sc.warmup + sc.duration,
            &gates,
        )
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
        let mut sim = build_sim(sc);
        let dir = SymbolDirectory::synthetic(sc.symbols);
        let l1_cfg = L1FabricConfig {
            normalizers: sc.normalizers,
            strategies: sc.strategies,
            gateways: sc.gateways,
            subscription_cap: self.subscription_cap.unwrap_or(sc.normalizers),
            ..L1FabricConfig::default()
        };
        let fabric = L1TradingFabric::build(&mut sim, &l1_cfg);

        let transport = if self.custom_transport {
            OutputTransport::L1Transport
        } else {
            OutputTransport::UdpMulticast
        };
        let firm = build_firm_with_transport(
            &mut sim,
            sc,
            &dir,
            eth::MacAddr::host(0xEE01),
            ipv4::Addr::new(10, 200, 1, 1),
            false, // no IGMP on circuits
            true,  // normalizers host-filter their units
            transport,
        );

        let link = || EtherLink::ten_gig(SimTime::from_ns(25));

        let exch_cfg = exchange_config(sc, &dir);
        let exchange = sim.add_node("exchange", Exchange::new(exch_cfg));
        // Feed out on port 0 into network 1; orders in/out on port 1 via
        // network 4.
        connect_exchange_feed(
            &mut sim,
            sc,
            exchange,
            PortId(0),
            fabric.feed_net.switch,
            fabric.feed_net.inputs[0],
            link(),
        );
        attach(
            &mut sim,
            exchange,
            PortId(1),
            fabric.entry_net.switch,
            fabric.entry_net.outputs[0],
            link(),
        );

        for (n, &node) in firm.normalizers.iter().enumerate() {
            attach(
                &mut sim,
                node,
                normalizer::FEED_A,
                fabric.feed_net.switch,
                fabric.feed_net.outputs[n],
                link(),
            );
            attach(
                &mut sim,
                node,
                normalizer::OUT,
                fabric.dist_net.switch,
                fabric.dist_net.inputs[n],
                link(),
            );
        }
        for (s, &node) in firm.strategies.iter().enumerate() {
            attach(
                &mut sim,
                node,
                strategy::FEED,
                fabric.dist_merge_node(),
                fabric.dist_net.outputs[s],
                link(),
            );
            attach(
                &mut sim,
                node,
                strategy::ORDERS,
                fabric.order_net.switch,
                fabric.order_net.inputs[s],
                link(),
            );
        }
        for (g, &node) in firm.gateways.iter().enumerate() {
            attach(
                &mut sim,
                node,
                gateway::INTERNAL,
                fabric.order_net.switch,
                fabric.order_net.outputs[g],
                link(),
            );
            attach(
                &mut sim,
                node,
                gateway::EXCHANGE,
                fabric.entry_net.switch,
                fabric.entry_net.inputs[g],
                link(),
            );
        }

        start_everything(&mut sim, &firm, exchange, sc.warmup);
        collect_report(
            sim,
            self.name(),
            sc,
            &firm,
            exchange,
            sc.warmup + sc.duration,
        )
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

impl TradingNetworkDesign for FpgaHybrid {
    fn name(&self) -> String {
        "design-3b-fpga-hybrid".into()
    }

    fn run(&self, sc: &ScenarioConfig) -> DesignReport {
        let mut sim = build_sim(sc);
        let dir = SymbolDirectory::synthetic(sc.symbols);
        let fabric = sim.add_node("fpga-fabric", FpgaL1Switch::new(self.fpga.clone()));
        let firm = build_firm(
            &mut sim,
            sc,
            &dir,
            eth::MacAddr::host(0xEE01),
            ipv4::Addr::new(10, 200, 1, 1),
            true,  // the FPGA learns groups from IGMP
            false, // normalizers get only their joined units
        );
        let link = || EtherLink::ten_gig(SimTime::from_ns(25));
        let mut next_port = 0u16;
        let mut take = || {
            let p = PortId(next_port);
            next_port += 1;
            p
        };

        let exch_cfg = exchange_config(sc, &dir);
        let exch_ip = exch_cfg.src_ip;
        let exchange = sim.add_node("exchange", Exchange::new(exch_cfg));
        let xp = take();
        connect_exchange_feed(&mut sim, sc, exchange, PortId(0), fabric, xp, link());
        sim.node_mut::<FpgaL1Switch>(fabric)
            .unwrap()
            .add_route(exch_ip, xp);

        for (n, &node) in firm.normalizers.iter().enumerate() {
            let pf = take();
            let po = take();
            attach(&mut sim, node, normalizer::FEED_A, fabric, pf, link());
            attach(&mut sim, node, normalizer::OUT, fabric, po, link());
            let (mac, ip) = firm.normalizer_addrs[n];
            for u in units_for(sc, n) {
                let join = igmp_join_frame(mac, ip, FEED_MCAST_BASE + u);
                let f = sim.frame().copy_from(&join).build();
                sim.inject_frame(SimTime::ZERO, fabric, pf, f);
            }
        }
        for (s, &node) in firm.strategies.iter().enumerate() {
            let pf = take();
            let po = take();
            attach(&mut sim, node, strategy::FEED, fabric, pf, link());
            attach(&mut sim, node, strategy::ORDERS, fabric, po, link());
            let ip = firm.strategy_addrs[s].1;
            sim.node_mut::<FpgaL1Switch>(fabric)
                .unwrap()
                .add_route(ip, po);
        }
        for (g, &node) in firm.gateways.iter().enumerate() {
            let pi = take();
            let px = take();
            attach(&mut sim, node, gateway::INTERNAL, fabric, pi, link());
            attach(&mut sim, node, gateway::EXCHANGE, fabric, px, link());
            let (_mac, exch_side_ip, internal_ip) = firm.gateway_addrs[g];
            let f = sim.node_mut::<FpgaL1Switch>(fabric).unwrap();
            f.add_route(internal_ip, pi);
            f.add_route(exch_side_ip, px);
        }

        start_everything(&mut sim, &firm, exchange, sc.warmup);
        collect_report(
            sim,
            self.name(),
            sc,
            &firm,
            exchange,
            sc.warmup + sc.duration,
        )
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
        let t = r_on.telemetry.clone().expect("registry enabled");
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
        on.obs.flight = true;
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
        sc.obs.flight = true;
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
