//! The normalizer as a simulation node.
//!
//! Wraps [`tn_feed::NormalizerCore`] with service-time modeling and
//! multicast output. Ports:
//!
//! * [`FEED_A`] / [`FEED_B`] — the exchange's A/B feed (B optional).
//! * [`OUT`] — the internal normalized feed, published as UDP multicast
//!   with one group per internal partition.
//!
//! Each native message costs `per_message_service` on the normalizer's
//! core — §3's per-event budget arithmetic (650 ns/event at the busiest
//! second, 100 ns at the 100 µs peak) runs against exactly this knob.

use tn_feed::normalize::{HashRepartition, NormalizerCore};
use tn_netdev::TxQueue;
use tn_sim::{Context, FastSet, Frame, MetricsRegistry, Node, NodeId, PortId, SimTime, TimerToken};
use tn_wire::{eth, ipv4, l1t, norm, stack};

/// How the normalized feed is framed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputTransport {
    /// Standard Ethernet/IPv4/UDP multicast (42 bytes of headers) —
    /// required on switched fabrics that route by group address.
    UdpMulticast,
    /// The §5 custom transport: an 8-byte [`tn_wire::l1t`] header carrying
    /// the partition as its stream id. Only usable on circuit fabrics
    /// (L1S), which never look at the bytes.
    L1Transport,
}

/// A-side feed input port.
pub const FEED_A: PortId = PortId(0);
/// B-side feed input port.
pub const FEED_B: PortId = PortId(1);
/// Normalized multicast output port.
pub const OUT: PortId = PortId(2);

const SVC_TOKEN: u64 = 1;

/// Normalizer configuration.
#[derive(Debug, Clone)]
pub struct NormalizerConfig {
    /// Which exchange's feed this normalizer owns.
    pub exchange_id: u8,
    /// Internal partitions to spread output over.
    pub out_partitions: u16,
    /// Multicast group index base for internal partitions: partition `p`
    /// publishes to group `out_mcast_base + p`.
    pub out_mcast_base: u32,
    /// Per-native-message processing cost.
    pub per_message_service: SimTime,
    /// Source addressing for emitted frames.
    pub src_mac: eth::MacAddr,
    /// Source IP.
    pub src_ip: ipv4::Addr,
    /// UDP port for the internal feed.
    pub udp_port: u16,
    /// Emit depth deltas too (bigger internal feed, fuller books).
    pub emit_depth: bool,
    /// Symbols to pre-intern so ids match the firm dictionary.
    pub preload: Vec<tn_wire::Symbol>,
    /// Output framing (see [`OutputTransport`]).
    pub transport: OutputTransport,
    /// Feed units this normalizer owns. `None` accepts everything
    /// (multicast fabrics deliver only the joined units); `Some` models
    /// circuit fabrics where the host sees the whole feed and must
    /// discard other units in software.
    pub accept_units: Option<FastSet<u8>>,
    /// Cost of inspecting-and-discarding a packet from a foreign unit.
    pub unit_discard_service: SimTime,
}

impl NormalizerConfig {
    /// Sensible defaults for exchange `exchange_id`, normalizer index `i`.
    pub fn new(exchange_id: u8, i: u32) -> NormalizerConfig {
        NormalizerConfig {
            exchange_id,
            out_partitions: 16,
            out_mcast_base: 10_000 + u32::from(exchange_id) * 1_000,
            per_message_service: SimTime::from_ns(650),
            src_mac: eth::MacAddr::host(0x4E00 + i),
            src_ip: ipv4::Addr::new(10, 50, exchange_id, (i % 250) as u8 + 1),
            udp_port: 31_000,
            emit_depth: false,
            preload: Vec::new(),
            transport: OutputTransport::UdpMulticast,
            accept_units: None,
            unit_discard_service: SimTime::from_ns(100),
        }
    }
}

/// Node-level counters (the core's own stats are nested).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NormalizerNodeStats {
    /// Feed frames received (both sides).
    pub frames_in: u64,
}

/// The normalizer node.
pub struct Normalizer {
    cfg: NormalizerConfig,
    core: NormalizerCore,
    /// One packet builder per output partition; each carries its
    /// partition's sequence across packets.
    builders: Vec<norm::PacketBuilder>,
    svc: TxQueue,
    stats: NormalizerNodeStats,
    /// Reusable sealed-packet byte buffer (packets are concatenated, with
    /// boundaries in `bounds_scratch`).
    wire_scratch: Vec<u8>,
    /// `(start, end)` offsets of each sealed packet in `wire_scratch`.
    bounds_scratch: Vec<(usize, usize)>,
}

impl Normalizer {
    /// Build from config.
    pub fn new(cfg: NormalizerConfig) -> Normalizer {
        let mut core = NormalizerCore::new(
            cfg.exchange_id,
            HashRepartition {
                partitions: cfg.out_partitions,
            },
        );
        core.emit_depth = cfg.emit_depth;
        core.preload_symbols(cfg.preload.iter().copied());
        Normalizer {
            builders: (0..cfg.out_partitions)
                .map(|p| norm::PacketBuilder::new(p, 1, 1_400))
                .collect(),
            core,
            svc: TxQueue::new(SVC_TOKEN),
            cfg,
            stats: NormalizerNodeStats::default(),
            wire_scratch: Vec::new(),
            bounds_scratch: Vec::new(),
        }
    }

    /// Node counters.
    pub fn stats(&self) -> NormalizerNodeStats {
        self.stats
    }

    /// Core (arbitration/gap) statistics.
    pub fn core(&self) -> &NormalizerCore {
        &self.core
    }

    /// Publish the records the core produced from the last packet. Reads
    /// them where the core keeps them: the core lends, this node's own
    /// buffers (`wire_scratch`, `bounds_scratch`) take it from there.
    fn emit(&mut self, ctx: &mut Context<'_>, src: &Frame) {
        let outputs = self.core.outputs();
        // Group contiguous same-partition records into packets; feeds are
        // bursty per symbol so runs are common.
        let mut i = 0;
        while i < outputs.len() {
            let partition = outputs[i].partition;
            let pb = &mut self.builders[partition as usize];
            // Seal packets into the reusable scratch buffer, recording
            // boundaries, then frame each slice once the run is closed.
            self.wire_scratch.clear();
            self.bounds_scratch.clear();
            while i < outputs.len() && outputs[i].partition == partition {
                let before = self.wire_scratch.len();
                if pb.push_into(&outputs[i].record, &mut self.wire_scratch) {
                    self.bounds_scratch.push((before, self.wire_scratch.len()));
                }
                i += 1;
            }
            let before = self.wire_scratch.len();
            if pb.flush_into(&mut self.wire_scratch) {
                self.bounds_scratch.push((before, self.wire_scratch.len()));
            }
            let transport = self.cfg.transport;
            let (src_mac, src_ip, udp_port, mcast_base) = (
                self.cfg.src_mac,
                self.cfg.src_ip,
                self.cfg.udp_port,
                self.cfg.out_mcast_base,
            );
            let l1t_seq = pb.next_seq();
            for &(s, e) in &self.bounds_scratch {
                let payload = &self.wire_scratch[s..e];
                let builder = match transport {
                    OutputTransport::UdpMulticast => {
                        let group = ipv4::Addr::multicast_group(mcast_base + u32::from(partition));
                        ctx.frame().fill(|b| {
                            stack::emit_udp_into(
                                src_mac, None, src_ip, group, udp_port, udp_port, payload, b,
                            )
                        })
                    }
                    OutputTransport::L1Transport => ctx
                        .frame()
                        .fill(|b| l1t::emit_into(partition, l1t_seq, payload, b)),
                };
                // Propagate the market event's identity/time so downstream
                // latency is measured against the original event.
                let frame = builder.meta(src.meta.clone()).build();
                self.svc.send_after(ctx, SimTime::ZERO, OUT, frame);
            }
        }
    }

    fn on_feed(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
        self.stats.frames_in += 1;
        let Ok(view) = stack::parse_udp(&frame.bytes) else {
            return;
        };
        if let Some(accept) = &self.cfg.accept_units {
            // Peek the unit byte; foreign units cost a discard.
            if let Ok(pkt) = tn_wire::pitch::Packet::new_checked(view.payload) {
                if !accept.contains(&pkt.unit()) {
                    self.svc.charge(ctx.now(), self.cfg.unit_discard_service);
                    return;
                }
            }
        }
        let time_ns = ctx.now().as_ps() / 1_000;
        let msgs_before = self.core.stats().messages_in;
        if self.core.on_packet(view.payload, time_ns).is_err() {
            return;
        }
        // Every native message costs core time whether or not it survives
        // normalization — the basis of the §3 filtering analysis.
        let consumed = self.core.stats().messages_in - msgs_before;
        self.svc
            .charge(ctx.now(), self.cfg.per_message_service * consumed);
        self.emit(ctx, frame);
    }
}

impl Node for Normalizer {
    fn on_frame(&mut self, ctx: &mut Context<'_>, port: PortId, frame: Frame) {
        match port {
            FEED_A | FEED_B => {
                self.on_feed(ctx, &frame);
                // Terminal consumer: normalized output rides fresh frames,
                // so the native frame's buffer goes back to the arena.
                ctx.recycle(frame);
            }
            OUT => ctx.recycle(frame), // nothing arrives on the output port
            // Wiring invariant: ports are fixed at topology build time, so
            // failing fast beats silently eating frames.
            // audit:allow(hotpath-unwrap): port fan-in is fixed by connect() wiring at build time; a mismatch is a topology bug where stopping loudly beats simulating garbage
            other => panic!("normalizer has 3 ports, got {other:?}"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        let consumed = self.svc.on_timer(ctx, timer);
        debug_assert!(consumed, "unexpected timer {timer:?}");
    }

    fn metrics(&self, _me: NodeId, into: &mut MetricsRegistry) {
        self.core.arbiter().metrics(into);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_fault::{FaultConnect, LinkSpec};
    use tn_sim::Simulator;
    use tn_wire::pitch::{self, Side};
    use tn_wire::Symbol;

    struct Sink {
        frames: Vec<(SimTime, Vec<u8>)>,
    }
    impl Node for Sink {
        fn on_frame(&mut self, ctx: &mut Context<'_>, _p: PortId, f: Frame) {
            self.frames.push((ctx.now(), f.bytes));
        }
    }

    fn feed_frame(first_seq: u32, adds: u32) -> Vec<u8> {
        let mut pb = pitch::PacketBuilder::new(0, first_seq, 1400);
        for i in 0..adds {
            pb.push(&pitch::Message::AddOrder {
                offset_ns: i,
                order_id: u64::from(first_seq + i),
                side: Side::Buy,
                qty: 100,
                symbol: Symbol::new("SPY").unwrap(),
                price: 450_0000 + u64::from(i) * 100, // each improves the bid
            });
        }
        let payload = pb.flush().unwrap();
        stack::build_udp(
            eth::MacAddr::host(1),
            None,
            ipv4::Addr::new(10, 200, 1, 1),
            ipv4::Addr::multicast_group(0),
            30_001,
            30_001,
            &payload,
        )
    }

    fn rig(cfg: NormalizerConfig) -> (Simulator, tn_sim::NodeId, tn_sim::NodeId) {
        let mut sim = Simulator::new(4);
        let n = sim.add_node("norm", Normalizer::new(cfg));
        let sink = sim.add_node("sink", Sink { frames: vec![] });
        sim.connect_spec(n, OUT, sink, PortId(0), &LinkSpec::ideal(SimTime::ZERO));
        (sim, n, sink)
    }

    #[test]
    fn native_feed_becomes_normalized_multicast() {
        let cfg = NormalizerConfig::new(1, 0);
        let base = cfg.out_mcast_base;
        let (mut sim, n, sink) = rig(cfg);
        let f = sim.frame().copy_from(&feed_frame(1, 3)).build();
        sim.inject_frame(SimTime::from_us(1), n, FEED_A, f);
        sim.run();
        let frames = &sim.node::<Sink>(sink).unwrap().frames;
        assert_eq!(frames.len(), 1);
        let v = stack::parse_udp(&frames[0].1).unwrap();
        assert!(v.dst_ip.multicast_index().unwrap() >= base);
        let pkt = norm::Packet::new_checked(v.payload).unwrap();
        assert_eq!(pkt.count(), 3); // three BBO improvements
        for r in pkt.records() {
            let r = r.unwrap();
            assert_eq!(r.kind, norm::Kind::Bbo);
            assert_eq!(r.exchange, 1);
        }
        // Service time: 3 messages x 650 ns after arrival at 1 us.
        assert_eq!(frames[0].0, SimTime::from_us(1) + SimTime::from_ns(3 * 650));
        let stats = sim.node::<Normalizer>(n).unwrap().stats();
        assert_eq!(stats.frames_in, 1);
    }

    #[test]
    fn b_side_duplicates_are_absorbed() {
        let (mut sim, n, sink) = rig(NormalizerConfig::new(1, 0));
        let bytes = feed_frame(1, 2);
        let fa = sim.frame().copy_from(&bytes).build();
        let fb = sim.frame().copy_from(&bytes).build();
        sim.inject_frame(SimTime::from_us(1), n, FEED_A, fa);
        sim.inject_frame(SimTime::from_us(2), n, FEED_B, fb);
        sim.run();
        assert_eq!(sim.node::<Sink>(sink).unwrap().frames.len(), 1);
        let norm_node = sim.node::<Normalizer>(n).unwrap();
        assert_eq!(norm_node.core().arbiter().stats().duplicates, 1);
    }

    #[test]
    fn service_time_queues_under_bursts() {
        let mut cfg = NormalizerConfig::new(1, 0);
        cfg.per_message_service = SimTime::from_us(1);
        let (mut sim, n, sink) = rig(cfg);
        // Two packets arrive back to back; the second's output waits for
        // the first's service.
        let f1 = sim.frame().copy_from(&feed_frame(1, 2)).build();
        let f2 = sim.frame().copy_from(&feed_frame(3, 2)).build();
        sim.inject_frame(SimTime::ZERO, n, FEED_A, f1);
        sim.inject_frame(SimTime::ZERO, n, FEED_A, f2);
        sim.run();
        let frames = &sim.node::<Sink>(sink).unwrap().frames;
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].0, SimTime::from_us(2));
        assert_eq!(frames[1].0, SimTime::from_us(4));
    }

    #[test]
    fn garbage_is_dropped() {
        let (mut sim, n, sink) = rig(NormalizerConfig::new(1, 0));
        let f = sim.frame().fill(|b| b.resize(40, 0xFF)).build();
        sim.inject_frame(SimTime::ZERO, n, FEED_A, f);
        sim.run();
        assert_eq!(sim.node::<Normalizer>(n).unwrap().stats().frames_in, 1);
        assert!(sim.node::<Sink>(sink).unwrap().frames.is_empty());
    }
}
