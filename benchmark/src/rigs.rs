//! Layer rigs: the traced run's calls into each crate's public functions.
//!
//! A rig builds an input shaped like the workload's traffic (its PITCH
//! message mix, messages per packet, fan-out, host counts — see
//! [`Shape`]), then calls one layer function in batches, one span per
//! batch. The reported per-operation cost is the *lowest* batch: other
//! tenants of the host only ever add time, so the floor is the layer's
//! own cost. Rigs never touch a workload's simulator and never run
//! inside a gated measurement.
//!
//! Metric `x.y_ns` comes from span `x.y` (likewise `_us`, `_ms`);
//! counts and ratios are returned by name.

use std::hint::black_box;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tn_cloud::harness::{run_fairness, DesignKind, FairnessScenario};
use tn_core::{
    CloudDesign, DesignReport, FpgaHybrid, LayerOneSwitches, ScenarioConfig, TradingNetworkDesign,
    TraditionalSwitches,
};
use tn_fault::{FaultLink, FaultSpec};
use tn_feed::bookbuild::BookBuilder;
use tn_feed::nodes::RetransUnitConfig;
use tn_feed::normalize::{HashRepartition, NormalizerCore};
use tn_feed::retrans::{Reorderer, RetransmissionServer};
use tn_feed::Arbiter;
use tn_market::book::OrderBook;
use tn_market::{FlowMix, MatchingEngine, OrderFlowGenerator, SymbolDirectory};
use tn_netdev::links::EtherLink;
use tn_sim::{
    Context, FlightKind, FlightRecord, FlightRecorder, Frame, FrameArena, IdealLink, Link,
    LinkOutcome, MetricsRegistry, Node, NodeId, PortId, SimTime, Simulator, TimerToken,
};
use tn_stats::{Histogram, Summary};
use tn_switch::commodity::igmp_frame;
use tn_switch::fpga::{FpgaConfig, FpgaL1Switch};
use tn_switch::l1s::{L1Config, L1Switch};
use tn_switch::{CommoditySwitch, SwitchConfig};
use tn_topo::cloud::{CloudConfig, CloudFabric};
use tn_topo::l1fabric::{L1FabricConfig, L1TradingFabric};
use tn_topo::leafspine::{LeafSpine, LeafSpineConfig};
use tn_trading::risk::ComplianceMonitor;
use tn_wire::pitch::{self, GapRequest, Side};
use tn_wire::{boe, eth, igmp, ipv4, norm, stack, Symbol};

use crate::trace::Tracer;

/// Checks the rigs make on their own outputs (copies the commodity
/// switch forwarded, the paper's design ordering); codec errors inside
/// a rig count on top.
pub const SELF_CHECKS: u64 = 2;

/// Batches (spans) per rig; the metric is the cheapest one.
const BATCHES: usize = 3;

/// What a rig needs to know about the workload it stands beside.
#[derive(Debug, Clone)]
pub struct Shape {
    /// The workload's seed; every rig input derives from it.
    pub seed: u64,
    /// The firm and market the workload simulates (host counts, symbol
    /// universe, partitions); workloads without one use the small preset.
    pub scenario: ScenarioConfig,
    /// `false`: PITCH traffic is the market flow over `scenario.symbols`.
    /// `true`: nothing but `DeleteOrder`, as `feed-recovery` publishes.
    pub delete_only: bool,
    /// Messages the publisher packs into one packet.
    pub msgs_per_packet: usize,
    /// Nodes in the workload's kernel (registry keys cycle over them).
    pub nodes: usize,
    /// Simulated-latency samples one pass yields.
    pub latency_samples: usize,
}

/// Traffic generated once per traced run and shared by the rigs.
struct Traffic {
    dir: SymbolDirectory,
    /// PITCH messages in publish order.
    msgs: Vec<pitch::Message>,
    /// The same messages packed into sequenced-unit packets (unit 0).
    packets: Vec<Vec<u8>>,
    /// The packets wrapped in Ethernet/IPv4/UDP to `group`.
    frames: Vec<Vec<u8>>,
    group: ipv4::Addr,
}

const SRC_MAC: eth::MacAddr = eth::MacAddr::host(0xEE01);
const SRC_IP: ipv4::Addr = ipv4::Addr::new(10, 200, 1, 1);

fn traffic(shape: &Shape, want_msgs: usize) -> Traffic {
    let dir = SymbolDirectory::synthetic(shape.scenario.symbols);
    let mut msgs = Vec::with_capacity(want_msgs + 8);
    if shape.delete_only {
        msgs.extend((0..want_msgs as u32).map(|i| pitch::Message::DeleteOrder {
            offset_ns: i % 4,
            order_id: u64::from(i) + 1,
        }));
    } else {
        let mut engine = MatchingEngine::new(dir.instruments().iter().map(|i| i.symbol));
        let mut flow = OrderFlowGenerator::new(&dir, FlowMix::default());
        let mut rng = SmallRng::seed_from_u64(shape.seed);
        let mut t = 0u32;
        while msgs.len() < want_msgs {
            msgs.extend(flow.step(&dir, &mut engine, &mut rng, t));
            t = t.wrapping_add(1);
        }
    }
    let mut packets = Vec::new();
    let mut pb = pitch::PacketBuilder::new(0, 1, 1_400);
    for (i, m) in msgs.iter().enumerate() {
        packets.extend(pb.push(m));
        if (i + 1) % shape.msgs_per_packet.max(1) == 0 {
            packets.extend(pb.flush());
        }
    }
    packets.extend(pb.flush());
    let group = ipv4::Addr::multicast_group(7);
    let frames = packets
        .iter()
        .map(|p| {
            let mut f = Vec::with_capacity(p.len() + stack::UDP_OVERHEAD);
            stack::emit_udp_into(SRC_MAC, None, SRC_IP, group, 32_000, 32_000, p, &mut f);
            f
        })
        .collect();
    Traffic {
        dir,
        msgs,
        packets,
        frames,
        group,
    }
}

/// Results that are not span timings: counts, ratios, simulated values.
pub type Values = Vec<(&'static str, f64)>;

/// Feed messages one `OrderFlowGenerator::step` produced on average: not
/// a catalog metric, but the ledger needs it to turn a message count
/// into a step count.
pub const MSGS_PER_FLOW_STEP: &str = "rig.msgs_per_flow_step";

/// Run every rig once for `shape`. Timings land in `tr` as spans;
/// everything else is returned by metric name. `failures` collects rig
/// self-checks that did not hold.
pub fn run_all(tr: &Tracer, shape: &Shape, failures: &mut Vec<String>) -> Values {
    let mut out = Values::new();
    let t = traffic(shape, 24_000);
    sim_rigs(tr, shape, &t);
    obs_rigs(tr, shape);
    wire_rigs(tr, &t, &mut out);
    link_rigs(tr, shape, &t, &mut out);
    switch_rigs(tr, shape, &t, failures);
    market_rigs(tr, shape, &t, &mut out);
    feed_rigs(tr, shape, &t, &mut out, failures);
    topo_rigs(tr, shape);
    core_rigs(tr, shape, &mut out, failures);
    cloud_rigs(tr, shape, &mut out);
    stats_rigs(tr, shape);
    out
}

/// Lowest per-operation self time (ns) among the spans called `span`
/// (0 when there are none).
pub fn floor_ns_per_op(tr: &Tracer, span: &str) -> f64 {
    tr.per_span(span)
        .into_iter()
        .filter(|(_, count)| *count > 0)
        .map(|(self_ns, count)| self_ns as f64 / count as f64)
        .min_by(f64::total_cmp)
        .unwrap_or(0.0)
}

fn batches(tr: &Tracer, span: &'static str, count: u64, mut f: impl FnMut()) {
    for _ in 0..BATCHES {
        let _span = tr.span_n(span, count);
        f();
    }
}

// ---------------------------------------------------------------------
// tn-sim
// ---------------------------------------------------------------------

/// Absorbs frames and timers.
struct Sink;

impl Node for Sink {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        ctx.recycle(frame);
    }
}

/// Recycles what arrives and answers with a fresh 64-byte frame.
struct Bouncer;

impl Node for Bouncer {
    fn on_frame(&mut self, ctx: &mut Context<'_>, port: PortId, frame: Frame) {
        ctx.recycle(frame);
        let reply = ctx.frame().zeroed(64).build();
        ctx.send(port, reply);
    }
}

/// Copies each arriving frame to ports `1..=outs`.
struct Fan {
    outs: u16,
}

impl Node for Fan {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        for p in 1..=self.outs {
            let copy = ctx.clone_frame(&frame);
            ctx.send(PortId(p), copy);
        }
        ctx.recycle(frame);
    }
}

/// Counts its timers: one word of state, so every node is a heap cell
/// of its own, as real nodes are.
struct Ticker(u64);

impl Node for Ticker {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        ctx.recycle(frame);
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: TimerToken) {
        self.0 += 1;
    }
}

/// `schedule_timer` + `step` with `depth` timers pending throughout,
/// one per node, firing in an order unrelated to the order the nodes
/// were built in: deep queues come from many nodes, so the node table
/// is as cold as the heap.
fn timer_dispatch(tr: &Tracer, span: &'static str, seed: u64, depth: u64, ops: u64) {
    let mut sim = Simulator::new(seed);
    let nodes: Vec<NodeId> = (0..depth)
        .map(|i| sim.add_node(format!("tick{i}"), Ticker(0)))
        .collect();
    // 7919 is coprime to both depths, so this visits every node once.
    let order: Vec<NodeId> = (0..depth)
        .map(|i| nodes[(i * 7919 % depth) as usize])
        .collect();
    for (i, &node) in order.iter().enumerate() {
        sim.schedule_timer(SimTime::from_ns(1 + i as u64), node, TimerToken(0));
    }
    let mut next = 0usize;
    batches(tr, span, ops, || {
        for _ in 0..ops {
            // Re-armed periodic timers land behind everything pending,
            // as the swarm's and the feed publishers' do; the node whose
            // timer is about to pop is the one re-armed.
            let at = sim.now() + SimTime::from_ns(depth + 1);
            sim.schedule_timer(at, order[next], TimerToken(0));
            next = (next + 1) % order.len();
            sim.step();
        }
    });
}

fn attach_sinks(sim: &mut Simulator, hub: NodeId, sinks: u16, link: impl Fn() -> Box<dyn Link>) {
    for p in 1..=sinks {
        let sink = sim.add_node(format!("sink{p}"), Sink);
        sim.install_link(hub, PortId(p), sink, PortId(0), link());
    }
}

/// Inject `frames` into `node`'s port 0, 20 µs apart, and drain the
/// kernel inside one span counting `copies_per_frame` each.
fn drive_hub(
    tr: &Tracer,
    span: &'static str,
    sim: &mut Simulator,
    node: NodeId,
    frames: &[Vec<u8>],
    copies_per_frame: u64,
) {
    batches(tr, span, frames.len() as u64 * copies_per_frame, || {
        let mut at = sim.now();
        for bytes in frames {
            at += SimTime::from_us(20);
            let f = sim.frame().copy_from(bytes).build();
            sim.inject_frame(at, node, PortId(0), f);
        }
        sim.run();
    });
}

fn sim_rigs(tr: &Tracer, shape: &Shape, t: &Traffic) {
    timer_dispatch(tr, "sim.timer_dispatch", shape.seed, 16, 200_000);
    timer_dispatch(tr, "sim.timer_dispatch_deep", shape.seed, 100_000, 200_000);

    // One frame in flight, bounced between two nodes: build, send over
    // an IdealLink, dispatch, recycle.
    let mut sim = Simulator::new(shape.seed);
    let a = sim.add_node("a", Bouncer);
    let b = sim.add_node("b", Bouncer);
    let hop = || Box::new(IdealLink::new(SimTime::from_ns(100)));
    sim.install_link(a, PortId(0), b, PortId(0), hop());
    sim.install_link(b, PortId(0), a, PortId(0), hop());
    let first = sim.frame().zeroed(64).build();
    sim.inject_frame(SimTime::ZERO, a, PortId(0), first);
    batches(tr, "sim.frame_hop", 200_000, || {
        for _ in 0..200_000 {
            sim.step();
        }
    });

    // One frame copied to every strategy host's port.
    let outs = shape.scenario.strategies.min(usize::from(u16::MAX) - 1) as u16;
    let mut sim = Simulator::new(shape.seed);
    let fan = sim.add_node("fan", Fan { outs });
    attach_sinks(&mut sim, fan, outs, || {
        Box::new(IdealLink::new(SimTime::from_ns(25)))
    });
    let frames_per_batch = (200_000 / usize::from(outs).max(1)).clamp(8, t.frames.len());
    drive_hub(
        tr,
        "sim.fanout_copy",
        &mut sim,
        fan,
        &t.frames[..frames_per_batch],
        u64::from(outs),
    );

    let mut arena = FrameArena::new();
    batches(tr, "sim.arena_cycle", 500_000, || {
        for _ in 0..500_000 {
            let mut buf = arena.take();
            buf.resize(64, 0);
            arena.give(black_box(buf));
        }
    });
}

// ---------------------------------------------------------------------
// tn-obs
// ---------------------------------------------------------------------

fn obs_rigs(tr: &Tracer, shape: &Shape) {
    let nodes = shape.nodes.max(1) as u64;
    let mut reg = MetricsRegistry::new();
    batches(tr, "obs.registry_inc", 200_000, || {
        for i in 0..200_000u64 {
            // The kernel's own per-dispatch key: (scope, name, node).
            reg.inc("kernel", "deliver", Some((i * 7 % nodes) as u32));
        }
    });
    black_box(reg.len());

    let mut ring = FlightRecorder::with_capacity(1024);
    batches(tr, "obs.flight_record", 500_000, || {
        for i in 0..500_000u64 {
            ring.record(FlightRecord {
                at_ps: i,
                kind: FlightKind::Dispatch,
                node: (i % nodes) as u32,
                shard: 0,
                a: i,
                b: u64::MAX,
            });
        }
    });
    black_box(ring.total());
}

// ---------------------------------------------------------------------
// tn-wire
// ---------------------------------------------------------------------

fn wire_rigs(tr: &Tracer, t: &Traffic, out: &mut Values) {
    let mut parse_errors = 0u64;
    let n = t.msgs.len() as u64;

    let mut buf = Vec::with_capacity(64);
    batches(tr, "wire.pitch_emit", n, || {
        for m in &t.msgs {
            buf.clear();
            m.emit(&mut buf);
            black_box(&buf);
        }
    });

    let mut encoded = Vec::new();
    for m in &t.msgs {
        m.emit(&mut encoded);
    }
    batches(tr, "wire.pitch_parse", n, || {
        let mut off = 0;
        while off < encoded.len() {
            match pitch::Message::parse(black_box(&encoded[off..])) {
                Ok((m, len)) => {
                    black_box(m);
                    off += len;
                }
                Err(_) => {
                    parse_errors += 1;
                    break;
                }
            }
        }
    });

    // Order entry as the strategies and the exchange speak it: a new
    // order out, an ack and sometimes a fill back.
    let symbols: Vec<Symbol> = t.dir.instruments().iter().map(|i| i.symbol).collect();
    let orders: Vec<boe::Message> = (0..8_000u64)
        .map(|i| match i % 4 {
            0 | 1 => boe::Message::NewOrder {
                cl_ord_id: i,
                side: if i % 8 < 4 { Side::Buy } else { Side::Sell },
                qty: 100,
                symbol: symbols[(i as usize * 31) % symbols.len()],
                price: 100_0000 + i % 500,
            },
            2 => boe::Message::OrderAck {
                cl_ord_id: i,
                exch_ord_id: i + 1_000_000,
            },
            _ => boe::Message::Fill {
                cl_ord_id: i,
                exec_id: i,
                qty: 100,
                price: 100_0000,
                leaves: 0,
            },
        })
        .collect();
    batches(tr, "wire.boe_emit", orders.len() as u64, || {
        for (seq, m) in orders.iter().enumerate() {
            buf.clear();
            m.emit(seq as u32, &mut buf);
            black_box(&buf);
        }
    });
    let mut encoded_orders = Vec::new();
    for (seq, m) in orders.iter().enumerate() {
        m.emit(seq as u32, &mut encoded_orders);
    }
    batches(tr, "wire.boe_parse", orders.len() as u64, || {
        let mut off = 0;
        while off < encoded_orders.len() {
            match boe::Message::parse(black_box(&encoded_orders[off..])) {
                Ok((m, _seq, len)) => {
                    black_box(m);
                    off += len;
                }
                Err(_) => {
                    parse_errors += 1;
                    break;
                }
            }
        }
    });

    batches(tr, "wire.udp_emit", t.packets.len() as u64, || {
        for p in &t.packets {
            buf.clear();
            stack::emit_udp_into(SRC_MAC, None, SRC_IP, t.group, 32_000, 32_000, p, &mut buf);
            black_box(&buf);
        }
    });
    batches(tr, "wire.udp_parse", t.frames.len() as u64, || {
        for f in &t.frames {
            match stack::parse_udp(black_box(f)) {
                Ok(view) => {
                    black_box(view.payload.len());
                }
                Err(_) => parse_errors += 1,
            }
        }
    });
    out.push(("wire.parse_errors", parse_errors as f64));
}

// ---------------------------------------------------------------------
// tn-netdev / tn-fault
// ---------------------------------------------------------------------

fn offer_all(link: &mut impl Link, now: &mut SimTime, frames: &[Vec<u8>]) -> u64 {
    let mut delivered = 0;
    for f in frames {
        // 200 ns apart: above a 10G link's serialization of these
        // frames, so the egress queue stays shallow as in the workloads.
        *now += SimTime::from_ns(200);
        if let LinkOutcome::Deliver(_) = link.transmit(*now, f.len(), 0.5) {
            delivered += 1;
        }
    }
    delivered
}

fn link_rigs(tr: &Tracer, shape: &Shape, t: &Traffic, out: &mut Values) {
    let n = t.frames.len() as u64;
    let mut now = SimTime::ZERO;
    let mut ether = EtherLink::ten_gig(SimTime::from_ns(25));
    batches(tr, "netdev.etherlink_transmit", n, || {
        black_box(offer_all(&mut ether, &mut now, &t.frames));
    });

    let spec = FaultSpec::new(shape.seed ^ 11).with_iid_loss(0.01);
    let mut faulty = FaultLink::wrap(EtherLink::ten_gig(SimTime::from_ns(500)), spec);
    let mut now = SimTime::ZERO;
    batches(tr, "fault.link_transmit", n, || {
        black_box(offer_all(&mut faulty, &mut now, &t.frames));
    });
    out.push(("fault.frames_lost", faulty.stats().lost as f64));
}

// ---------------------------------------------------------------------
// tn-switch
// ---------------------------------------------------------------------

fn ten_gig() -> Box<dyn Link> {
    Box::new(EtherLink::ten_gig(SimTime::from_ns(25)))
}

fn switch_rigs(tr: &Tracer, shape: &Shape, t: &Traffic, failures: &mut Vec<String>) {
    // A leaf's worth of receivers behind the IP switches; every strategy
    // host behind the Layer-1 fan-out.
    let rack = shape.scenario.strategies.min(32) as u16;
    let frames = &t.frames[..t.frames.len().min(4_000)];

    // Commodity leaf: receivers join by IGMP, then the feed multicasts.
    let mut sim = Simulator::new(shape.seed);
    let sw = sim.add_node("leaf", CommoditySwitch::new(SwitchConfig::default()));
    attach_sinks(&mut sim, sw, rack, ten_gig);
    for p in 1..=rack {
        let join = igmp_frame(
            igmp::MessageType::Report,
            eth::MacAddr::host(u32::from(p)),
            ipv4::Addr::host(u32::from(p)),
            t.group,
        );
        let f = sim.frame().copy_from(&join).build();
        sim.inject_frame(SimTime::from_ns(u64::from(p)), sw, PortId(p), f);
    }
    sim.run();
    drive_hub(
        tr,
        "switch.commodity_fwd",
        &mut sim,
        sw,
        frames,
        u64::from(rack),
    );
    let stats = sim.node::<CommoditySwitch>(sw).expect("just added").stats();
    if stats.mcast_forwarded != (BATCHES * frames.len()) as u64 * u64::from(rack) {
        failures.push(format!(
            "commodity rig forwarded {} copies, expected {}",
            stats.mcast_forwarded,
            BATCHES * frames.len() * usize::from(rack)
        ));
    }

    // Layer-1 fan-out: one input circuit replicated to every host.
    let outs = shape.scenario.strategies.min(usize::from(u16::MAX) - 1) as u16;
    let mut sim = Simulator::new(shape.seed);
    let mut l1 = L1Switch::new(L1Config::default());
    l1.provision_fanout(PortId(0), (1..=outs).map(PortId).collect());
    let sw = sim.add_node("l1", l1);
    attach_sinks(&mut sim, sw, outs, ten_gig);
    let per_batch = (200_000 / usize::from(outs).max(1)).clamp(8, frames.len());
    drive_hub(
        tr,
        "switch.l1_fanout",
        &mut sim,
        sw,
        &frames[..per_batch],
        u64::from(outs),
    );

    // FPGA hybrid: provisioned group, same rack of receivers.
    let mut sim = Simulator::new(shape.seed);
    let mut fpga = FpgaL1Switch::new(FpgaConfig::default());
    for p in 1..=rack {
        fpga.add_group_member(t.group, PortId(p));
    }
    let sw = sim.add_node("fpga", fpga);
    attach_sinks(&mut sim, sw, rack, ten_gig);
    drive_hub(tr, "switch.fpga_fwd", &mut sim, sw, frames, u64::from(rack));
}

// ---------------------------------------------------------------------
// tn-market
// ---------------------------------------------------------------------

fn market_rigs(tr: &Tracer, shape: &Shape, t: &Traffic, out: &mut Values) {
    let mut book = OrderBook::new();
    let mut id = 0u64;
    for i in 0..100 {
        id += 1;
        book.submit(id, Side::Buy, 100_0000 - i * 100, 100, false);
        id += 1;
        book.submit(id, Side::Sell, 100_1000 + i * 100, 100, false);
    }
    batches(tr, "market.book_submit_cancel", 100_000, || {
        for _ in 0..100_000 {
            id += 1;
            black_box(book.submit(id, Side::Buy, black_box(99_5000), 10, false));
            black_box(book.cancel(id));
        }
    });

    let mut book = OrderBook::new();
    batches(tr, "market.book_execute", 100_000, || {
        for _ in 0..50_000 {
            id += 1;
            book.submit(id, Side::Sell, 100_0000, 100, false);
            id += 1;
            black_box(book.submit(id, Side::Buy, 100_0000, 100, true));
        }
    });

    let mut engine = MatchingEngine::new(t.dir.instruments().iter().map(|i| i.symbol));
    let mut flow = OrderFlowGenerator::new(&t.dir, FlowMix::default());
    let mut rng = SmallRng::seed_from_u64(shape.seed);
    let mut tick = 0u32;
    let mut produced = 0u64;
    batches(tr, "market.flow_step", 20_000, || {
        for _ in 0..20_000 {
            tick = tick.wrapping_add(1);
            produced += flow.step(&t.dir, &mut engine, &mut rng, tick).len() as u64;
        }
    });
    out.push((
        MSGS_PER_FLOW_STEP,
        produced as f64 / (BATCHES * 20_000) as f64,
    ));
}

// ---------------------------------------------------------------------
// tn-feed / tn-trading
// ---------------------------------------------------------------------

fn feed_rigs(
    tr: &Tracer,
    shape: &Shape,
    t: &Traffic,
    out: &mut Values,
    failures: &mut Vec<String>,
) {
    let n_packets = t.packets.len() as u64;

    // A/B arbitration: every packet offered twice, second copy absorbed.
    let (mut offers, mut dups) = (0u64, 0u64);
    batches(tr, "feed.arbiter_offer", 2 * n_packets, || {
        let mut arb = Arbiter::new();
        for p in &t.packets {
            black_box(arb.offer(p).ok());
            black_box(arb.offer(p).ok());
        }
        offers += 2 * n_packets;
        dups += arb.stats().duplicates;
    });
    out.push(("feed.arb_dup_share", dups as f64 / offers.max(1) as f64));

    let partitions = shape.scenario.internal_partitions;
    let mut records: Vec<norm::Record> = Vec::new();
    batches(tr, "feed.normalizer_msg", t.msgs.len() as u64, || {
        let mut core = NormalizerCore::new(1, HashRepartition { partitions });
        core.preload_symbols(t.dir.instruments().iter().map(|i| i.symbol));
        records.clear();
        for (i, p) in t.packets.iter().enumerate() {
            match core.on_packet(p, i as u64) {
                Ok(outs) => records.extend(outs.iter().map(|o| o.record)),
                Err(e) => failures.push(format!("normalizer rig: packet {i}: {e:?}")),
            }
        }
    });

    batches(tr, "feed.bookbuild_apply", t.msgs.len() as u64, || {
        let mut bb = BookBuilder::new();
        for m in &t.msgs {
            black_box(bb.apply(m));
        }
    });

    // 1% of packets go missing and come back three packets later, as a
    // retransmission fill would.
    batches(tr, "feed.reorder_offer", n_packets, || {
        let mut ro = Reorderer::new(10_000);
        let mut released = 0u64;
        for (i, p) in t.packets.iter().enumerate() {
            if i % 100 != 50 {
                released += ro.offer(p).map_or(0, |o| o.messages.len() as u64);
            }
            if i % 100 == 53 {
                released += ro
                    .offer(&t.packets[i - 3])
                    .map_or(0, |o| o.messages.len() as u64);
            }
        }
        black_box(released);
    });

    // The retransmission unit's default ring (4,096 packets), full; the
    // requests name recently published packets, as real gaps do.
    let history = RetransUnitConfig::default().history_packets;
    let mut server = RetransmissionServer::new(history, u64::MAX / 4, u64::MAX / 4);
    let ring_start = t.packets.len().saturating_sub(history);
    let mut gaps = Vec::new();
    for (i, p) in t.packets.iter().enumerate().skip(ring_start) {
        if let Err(e) = server.store(p) {
            failures.push(format!("retrans rig: store {i}: {e:?}"));
        }
        if i + 200 >= t.packets.len() {
            if let Ok(pkt) = pitch::Packet::new_checked(&p[..]) {
                gaps.push(GapRequest {
                    unit: pkt.unit(),
                    seq: pkt.sequence(),
                    count: u16::from(pkt.count()),
                });
            }
        }
    }
    let mut now = SimTime::ZERO;
    batches(tr, "feed.retrans_serve", gaps.len() as u64, || {
        for g in &gaps {
            now += SimTime::from_us(50);
            black_box(server.serve(now, g).map_or(0, |replay| replay.len()));
        }
    });

    if records.is_empty() {
        // Delete-only traffic normalizes to nothing it can price; give
        // the monitor a quote stream over the same symbols instead.
        records = (0..t.msgs.len() as u32)
            .map(|i| norm::Record {
                kind: norm::Kind::Bbo,
                exchange: (i % 3) as u8,
                side: (i % 2) as u8,
                flags: 0,
                symbol_id: i % shape.scenario.symbols.max(1) as u32,
                price: 100_0000 + i64::from(i % 200),
                size: 100,
                aux: 0,
                src_time_ns: u64::from(i),
            })
            .collect();
    }
    batches(
        tr,
        "trading.compliance_record",
        records.len() as u64,
        || {
            let mut monitor = ComplianceMonitor::new();
            for r in &records {
                monitor.on_record(r);
            }
            black_box(monitor.condition(0));
        },
    );
}

// ---------------------------------------------------------------------
// tn-topo
// ---------------------------------------------------------------------

fn topo_rigs(tr: &Tracer, shape: &Shape) {
    let sc = &shape.scenario;
    let hosts = sc.normalizers + sc.strategies + sc.gateways;

    // Sized as Design 1 sizes it: two ports per host, racks per tier.
    let mut cfg = LeafSpineConfig::default();
    let racks_for = |h: usize| (2 * h).div_ceil(cfg.hosts_per_rack);
    cfg.racks = racks_for(sc.normalizers) + racks_for(sc.strategies) + racks_for(sc.gateways);
    batches(tr, "topo.leafspine_build", 1, || {
        let mut sim = Simulator::new(shape.seed);
        black_box(LeafSpine::build(&mut sim, cfg.clone()).host_capacity());
    });

    let l1 = L1FabricConfig {
        normalizers: sc.normalizers,
        strategies: sc.strategies,
        gateways: sc.gateways,
        subscription_cap: sc.normalizers,
        ..L1FabricConfig::default()
    };
    batches(tr, "topo.l1fabric_build", 1, || {
        let mut sim = Simulator::new(shape.seed);
        black_box(L1TradingFabric::build(&mut sim, &l1).dist_merge_node());
    });

    let cloud = CloudConfig {
        tenant_ports: 2 * hosts + 4,
        ..CloudConfig::default()
    };
    batches(tr, "topo.cloud_build", 1, || {
        let mut sim = Simulator::new(shape.seed);
        black_box(CloudFabric::build(&mut sim, cloud.clone()).equalized_latency());
    });
}

// ---------------------------------------------------------------------
// tn-core: the paper's verdict on the small preset
// ---------------------------------------------------------------------

fn core_rigs(tr: &Tracer, shape: &Shape, out: &mut Values, failures: &mut Vec<String>) {
    let mut sc = ScenarioConfig::small(shape.seed);
    sc.duration = SimTime::from_ms(20);
    sc.warmup = SimTime::from_ms(1);
    let run = |d: &dyn TradingNetworkDesign| -> DesignReport {
        let _span = tr.span("core.design_run_small");
        d.run(&sc)
    };
    let d1 = run(&TraditionalSwitches::default());
    let d2 = run(&CloudDesign::default());
    let d3 = run(&LayerOneSwitches::default());
    let d3b = run(&FpgaHybrid::default());

    batches(tr, "core.report_json", 200, || {
        for _ in 0..200 {
            black_box(d1.to_json().len());
        }
    });

    let ns = |t: SimTime| t.as_ps() as f64 / 1e3;
    out.push(("core.network_share", d1.network_share));
    out.push(("core.feed_latency_p50_ns", ns(d1.feed_latency.median)));
    out.push(("core.design1_reaction_p50_ns", ns(d1.reaction.median)));
    out.push(("core.design2_reaction_p50_ns", ns(d2.reaction.median)));
    out.push(("core.design3_reaction_p50_ns", ns(d3.reaction.median)));
    out.push(("core.design3b_reaction_p50_ns", ns(d3b.reaction.median)));
    // §4's verdict: Layer-1 ≤ traditional < cloud.
    if !(d3.reaction.median <= d1.reaction.median && d1.reaction.median < d2.reaction.median) {
        failures.push(format!(
            "design ordering broken: l1 {} traditional {} cloud {}",
            d3.reaction.median, d1.reaction.median, d2.reaction.median
        ));
    }
}

// ---------------------------------------------------------------------
// tn-cloud / tn-stats
// ---------------------------------------------------------------------

fn cloud_rigs(tr: &Tracer, shape: &Shape, out: &mut Values) {
    let sc = FairnessScenario::small(shape.seed);
    let design = DesignKind::Cloud {
        fanout: 2,
        jitter: SimTime::from_us(2),
        hold: SimTime::from_us(10),
        residual: SimTime::from_ns(50),
    };
    let probe = run_fairness(&sc, &design);
    batches(
        tr,
        "cloud.fairness_ns_per_event",
        probe.events.max(1),
        || {
            black_box(run_fairness(&sc, &design).digest);
        },
    );
    out.push(("cloud.spread_p99_ps", probe.spread_p99_ps as f64));
}

fn stats_rigs(tr: &Tracer, shape: &Shape) {
    let n = shape.latency_samples.clamp(1_000, 200_000) as u64;
    // Latency-like samples: tens of microseconds, in picoseconds.
    let sample = |i: u64| 10_000_000 + i.wrapping_mul(2_654_435_761) % 40_000_000;

    let mut last = Summary::new();
    batches(tr, "stats.summary_record", n, || {
        let mut s = Summary::new();
        for i in 0..n {
            s.record(sample(i));
        }
        last = s;
    });
    batches(tr, "stats.summary_p99", 1, || {
        // A fresh copy each time: the first percentile call sorts.
        let mut s = last.clone();
        black_box(s.p99());
    });
    batches(tr, "stats.hist_record", n, || {
        let mut h = Histogram::new(0, 100_000, 1_000);
        for i in 0..n {
            h.record(sample(i));
        }
        black_box(h.count());
    });
}
