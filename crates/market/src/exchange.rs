//! The exchange as a simulation node.
//!
//! Ties the whole substrate together behind cross-connect ports (§2):
//! PITCH-like multicast feed out, BOE-like order entry in/out, a matching
//! engine in the middle, and a background order-flow generator standing in
//! for the rest of the market.
//!
//! ## Ports
//!
//! * `feed_ports` — each carries the full multicast feed (two ports make
//!   an A/B pair, as real exchanges publish).
//! * Order entry arrives on *any* port; replies return through the port
//!   the session's traffic came from.
//!
//! ## Timers
//!
//! * [`TICK`] — periodic background-flow batch; re-arms itself. Arm once
//!   from the scenario with `sim.schedule_timer(start, exchange, TICK)`.
//! * [`BURST_BASE`]` + i` — one-shot bursts of `cfg.bursts[i]` events,
//!   scheduled by the scenario to model correlated market-wide spikes.
//!
//! ## Simplifications (documented in DESIGN.md)
//!
//! Order entry rides simplified TCP: segments carry real headers and
//! per-session byte sequence numbers, but there is no handshake or
//! retransmission — order paths in the simulated fabrics are lossless and
//! in-order, so the machinery would never fire.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tn_netdev::TxQueue;
use tn_sim::{Context, FastMap, Frame, Node, PortId, SimTime, TimerToken};
use tn_wire::{boe, eth, ipv4, stack, tcp};

use crate::engine::{MatchingEngine, Reply};
use crate::feedpub::FeedPublisher;
use crate::flow::{FlowMix, OrderFlowGenerator};
use crate::partition::PartitionScheme;
use crate::symbols::SymbolDirectory;
use crate::workload::poisson;

/// Timer token for the background-flow tick.
pub const TICK: TimerToken = TimerToken(100);
/// Timer tokens `BURST_BASE + i` fire burst `i` of `ExchangeConfig::bursts`.
pub const BURST_BASE: u64 = 1_000;

const MATCH_TOKEN: u64 = 1;

/// Exchange-side TCP port for order-entry sessions.
pub const ORDER_ENTRY_PORT: u16 = 7_001;

/// Exchange configuration.
pub struct ExchangeConfig {
    /// Identity used in normalized records and diagnostics.
    pub exchange_id: u8,
    /// Listed universe.
    pub directory: SymbolDirectory,
    /// Feed partitioning scheme.
    pub scheme: PartitionScheme,
    /// Multicast group index base: unit `u` publishes to group
    /// `mcast_base + u`.
    pub mcast_base: u32,
    /// Ports carrying the feed (e.g. two for an A/B pair).
    pub feed_ports: Vec<PortId>,
    /// Exchange-side addressing.
    pub src_mac: eth::MacAddr,
    /// Exchange source IP.
    pub src_ip: ipv4::Addr,
    /// UDP port for feed packets.
    pub feed_udp_port: u16,
    /// Matching-engine service time per order-entry message.
    pub order_service: SimTime,
    /// Background events per second (0 disables ambient flow).
    pub background_rate: f64,
    /// Background tick interval.
    pub tick_interval: SimTime,
    /// One-shot burst sizes, fired by `BURST_BASE + index` timers.
    pub bursts: Vec<u32>,
    /// Largest feed payload per packet.
    pub max_payload: usize,
    /// PRNG seed for the exchange's own randomness.
    pub seed: u64,
}

impl ExchangeConfig {
    /// A small default exchange over `directory`.
    pub fn new(exchange_id: u8, directory: SymbolDirectory) -> ExchangeConfig {
        ExchangeConfig {
            exchange_id,
            directory,
            scheme: PartitionScheme::ByHash { units: 4 },
            mcast_base: 0,
            feed_ports: vec![PortId(0)],
            src_mac: eth::MacAddr::host(0xEE00 + u32::from(exchange_id)),
            src_ip: ipv4::Addr::new(10, 200, exchange_id, 1),
            feed_udp_port: 30_001,
            order_service: SimTime::from_us(10),
            background_rate: 0.0,
            tick_interval: SimTime::from_ms(1),
            bursts: Vec::new(),
            max_payload: 1_400,
            seed: 1,
        }
    }
}

/// Exchange counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Feed packets emitted (per port).
    pub feed_packets: u64,
    /// Feed messages emitted.
    pub feed_messages: u64,
}

#[derive(Debug, Clone, Copy)]
struct SessionAddr {
    port: PortId,
    mac: eth::MacAddr,
    ip: ipv4::Addr,
    tcp_port: u16,
    /// Next TCP sequence (byte offset) for exchange→firm segments.
    tx_seq: u32,
}

/// The exchange node.
pub struct Exchange {
    cfg: ExchangeConfig,
    engine: MatchingEngine,
    flow: OrderFlowGenerator,
    rng: SmallRng,
    /// Stream reassembly per transport peer.
    decoders: FastMap<(ipv4::Addr, u16), boe::Decoder>,
    /// Peer → session (so mid-stream messages resolve their session).
    peer_session: FastMap<(ipv4::Addr, u16), u32>,
    matcher: TxQueue,
    /// Everything that turns engine output into frames, kept apart from
    /// the engine so it can read the output the engine lends.
    wire: Wire,
    /// Wire-to-wire response latencies: for every inbound order frame
    /// whose metadata carries the market-data event time that triggered
    /// it, the picoseconds from that event leaving the matching engine to
    /// the order arriving back — the firm's end-to-end reaction time as
    /// the exchange observes it.
    response_latency_ps: Vec<u64>,
    /// Reusable per-dispatch output batch (taken/restored around builds).
    outbox: Vec<(PortId, Frame)>,
    /// Reusable background-tick message batch.
    msg_scratch: Vec<tn_wire::pitch::Message>,
    /// Reusable order-entry message batch.
    boe_scratch: Vec<boe::Message>,
}

/// The exchange's frame builders and the state only they touch.
struct Wire {
    publisher: FeedPublisher,
    /// Session id → reply addressing, learned at login.
    sessions: FastMap<u32, SessionAddr>,
    stats: ExchangeStats,
    event_counter: u64,
    /// Reusable BOE reply payload buffer.
    payload_scratch: Vec<u8>,
}

impl Exchange {
    /// Build the node.
    pub fn new(cfg: ExchangeConfig) -> Exchange {
        let engine = MatchingEngine::new(cfg.directory.instruments().iter().map(|i| i.symbol));
        let flow = OrderFlowGenerator::new(&cfg.directory, FlowMix::default());
        let rng = SmallRng::seed_from_u64(cfg.seed);
        let matcher = TxQueue::new(MATCH_TOKEN);
        let wire = Wire {
            publisher: FeedPublisher::new(cfg.scheme, cfg.max_payload),
            sessions: FastMap::default(),
            stats: ExchangeStats::default(),
            event_counter: 0,
            payload_scratch: Vec::new(),
        };
        Exchange {
            cfg,
            engine,
            flow,
            rng,
            decoders: FastMap::default(),
            peer_session: FastMap::default(),
            matcher,
            wire,
            response_latency_ps: Vec::new(),
            outbox: Vec::new(),
            msg_scratch: Vec::new(),
            boe_scratch: Vec::new(),
        }
    }

    /// Observed firm reaction latencies (see field docs), picoseconds.
    pub fn response_latency_ps(&self) -> &[u64] {
        &self.response_latency_ps
    }

    /// Counters so far.
    pub fn stats(&self) -> ExchangeStats {
        self.wire.stats
    }

    fn offset_ns(now: SimTime) -> u32 {
        (now.as_ps() % 1_000_000_000_000 / 1_000) as u32
    }

    /// Publish immediately (background-flow path: tick granularity is far
    /// coarser than matcher service time).
    fn publish_feed(&mut self, ctx: &mut Context<'_>, msgs: &[tn_wire::pitch::Message]) {
        let mut out = std::mem::take(&mut self.outbox);
        self.wire.feed_frames(&self.cfg, ctx, msgs, &mut out);
        for (port, frame) in out.drain(..) {
            ctx.send(port, frame);
        }
        self.outbox = out;
    }

    fn run_background(&mut self, ctx: &mut Context<'_>, events: u32) {
        let mut msgs = std::mem::take(&mut self.msg_scratch);
        msgs.clear();
        let offset = Self::offset_ns(ctx.now());
        for _ in 0..events {
            msgs.extend(self.flow.step(
                &self.cfg.directory,
                &mut self.engine,
                &mut self.rng,
                offset,
            ));
        }
        self.publish_feed(ctx, &msgs);
        self.msg_scratch = msgs;
    }

    fn on_order_entry(&mut self, ctx: &mut Context<'_>, port: PortId, view: stack::TcpView<'_>) {
        let peer = (view.src_ip, view.src_port);
        let decoder = self.decoders.entry(peer).or_default();
        let mut messages = std::mem::take(&mut self.boe_scratch);
        // A malformed stream poisons its decoder: nothing more decodes.
        let _ = decoder.decode(view.payload, &mut messages);
        let (src_mac, src_ip, src_port) = (view.src_mac, view.src_ip, view.src_port);
        for msg in messages.drain(..) {
            if let boe::Message::Login { session, .. } = msg {
                self.wire.sessions.insert(
                    session,
                    SessionAddr {
                        port,
                        mac: src_mac,
                        ip: src_ip,
                        tcp_port: src_port,
                        tx_seq: 1,
                    },
                );
                self.peer_session.insert(peer, session);
                continue;
            }
            let Some(&session) = self.peer_session.get(&peer) else {
                continue; // not logged in; drop (real exchanges disconnect)
            };
            let offset = Self::offset_ns(ctx.now());
            let out = self.engine.handle_boe(session, msg, offset);
            // Charge one matcher service quantum to the order; all of its
            // outputs (replies and feed) leave after that service time,
            // serialized behind earlier orders — a single-threaded
            // matching engine.
            let mut service = self.cfg.order_service;
            let mut outputs = std::mem::take(&mut self.outbox);
            self.wire
                .reply_frames(&self.cfg, ctx, &out.replies, &mut outputs);
            self.wire
                .feed_frames(&self.cfg, ctx, &out.feed, &mut outputs);
            for (port, frame) in outputs.drain(..) {
                self.matcher.send_after(ctx, service, port, frame);
                service = SimTime::ZERO;
            }
            self.outbox = outputs;
        }
        self.boe_scratch = messages;
    }
}

impl Wire {
    /// Build multicast frames for feed messages produced now, appending to
    /// `out`; one frame per (packet, feed port). Each packet is emitted
    /// once, into the first port's arena frame; further ports copy that
    /// frame. A/B copies share the measurement tag but carry distinct
    /// [`tn_sim::FrameId`]s, exactly as real A/B publications are distinct
    /// wire frames.
    fn feed_frames(
        &mut self,
        cfg: &ExchangeConfig,
        ctx: &mut Context<'_>,
        msgs: &[tn_wire::pitch::Message],
        out: &mut Vec<(PortId, Frame)>,
    ) {
        if msgs.is_empty() {
            return;
        }
        let now = ctx.now();
        let time_ns = now.as_ps() / 1_000;
        self.stats.feed_messages += msgs.len() as u64;
        for pkt in self.publisher.publish(&cfg.directory, time_ns, msgs) {
            let group = ipv4::Addr::multicast_group(cfg.mcast_base + u32::from(pkt.unit));
            self.event_counter += 1;
            let tag = self.event_counter;
            let Some((&first, rest)) = cfg.feed_ports.split_first() else {
                continue;
            };
            let frame = ctx
                .frame()
                .fill(|b| {
                    stack::emit_udp_into(
                        cfg.src_mac,
                        None,
                        cfg.src_ip,
                        group,
                        cfg.feed_udp_port,
                        cfg.feed_udp_port,
                        pkt.bytes,
                        b,
                    )
                })
                .tag(tag)
                .event_time(now)
                .build();
            out.push((first, frame));
            let emitted = out.len() - 1;
            for &port in rest {
                let copy = ctx
                    .frame()
                    .copy_from(&out[emitted].1.bytes)
                    .tag(tag)
                    .event_time(now)
                    .build();
                out.push((port, copy));
            }
            self.stats.feed_packets += cfg.feed_ports.len() as u64;
        }
    }

    /// Build reply segments, appending to `out`; the caller decides how to
    /// charge service.
    fn reply_frames(
        &mut self,
        cfg: &ExchangeConfig,
        ctx: &mut Context<'_>,
        replies: &[Reply],
        out: &mut Vec<(PortId, Frame)>,
    ) {
        for r in replies {
            let Some(addr) = self.sessions.get_mut(&r.session) else {
                continue;
            };
            self.payload_scratch.clear();
            r.message.emit(addr.tx_seq, &mut self.payload_scratch);
            let (dst_mac, dst_ip, dst_port, tx_seq, port) =
                (addr.mac, addr.ip, addr.tcp_port, addr.tx_seq, addr.port);
            addr.tx_seq = addr.tx_seq.wrapping_add(self.payload_scratch.len() as u32);
            let payload = &self.payload_scratch;
            let frame = ctx
                .frame()
                .fill(|b| {
                    stack::emit_tcp_into(
                        cfg.src_mac,
                        dst_mac,
                        cfg.src_ip,
                        dst_ip,
                        ORDER_ENTRY_PORT,
                        dst_port,
                        tx_seq,
                        0,
                        tcp::Flags::ACK | tcp::Flags::PSH,
                        payload,
                        b,
                    )
                })
                .build();
            out.push((port, frame));
        }
    }
}

impl Node for Exchange {
    fn on_frame(&mut self, ctx: &mut Context<'_>, port: PortId, frame: Frame) {
        if frame.meta.event_time != SimTime::ZERO {
            let rtt = ctx.now().saturating_sub(frame.meta.event_time);
            self.response_latency_ps.push(rtt.as_ps());
        }
        if let Ok(view) = stack::parse_tcp(&frame.bytes) {
            self.on_order_entry(ctx, port, view);
        }
        // Anything else (stray multicast, gap requests — those go to the
        // feed's `RetransUnit`) is ignored. Either
        // way the exchange is a terminal consumer: the frame is fully
        // decoded here, so its buffer goes back to the arena.
        ctx.recycle(frame);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        if self.matcher.on_timer(ctx, timer) {
            return;
        }
        if timer == TICK {
            let secs = self.cfg.tick_interval.as_secs_f64();
            let lambda = self.cfg.background_rate * secs;
            let events = poisson(&mut self.rng, lambda);
            self.run_background(ctx, events as u32);
            let interval = self.cfg.tick_interval;
            ctx.set_timer(interval, TICK);
            return;
        }
        if timer.0 >= BURST_BASE {
            let idx = (timer.0 - BURST_BASE) as usize;
            if let Some(&events) = self.cfg.bursts.get(idx) {
                self.run_background(ctx, events);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_fault::{FaultConnect, LinkSpec};
    use tn_sim::Simulator;
    use tn_wire::pitch;
    use tn_wire::pitch::Side;
    use tn_wire::Symbol;

    struct Collector {
        frames: Vec<(SimTime, Vec<u8>)>,
    }
    impl Node for Collector {
        fn on_frame(&mut self, ctx: &mut Context<'_>, _p: PortId, f: Frame) {
            self.frames.push((ctx.now(), f.bytes));
        }
    }

    fn small_exchange(background_rate: f64) -> ExchangeConfig {
        let mut cfg = ExchangeConfig::new(1, SymbolDirectory::synthetic(20));
        cfg.background_rate = background_rate;
        cfg.feed_ports = vec![PortId(0)];
        cfg
    }

    #[test]
    fn background_flow_publishes_parseable_feed() {
        let mut sim = Simulator::new(3);
        let ex = sim.add_node("exch", Exchange::new(small_exchange(50_000.0)));
        let col = sim.add_node("col", Collector { frames: vec![] });
        sim.connect_spec(
            ex,
            PortId(0),
            col,
            PortId(0),
            &LinkSpec::ideal(SimTime::from_ns(100)),
        );
        sim.schedule_timer(SimTime::ZERO, ex, TICK);
        sim.run_until(SimTime::from_ms(20));
        let frames = &sim.node::<Collector>(col).unwrap().frames;
        assert!(!frames.is_empty(), "no feed frames");
        let mut messages = 0usize;
        for (_, bytes) in frames {
            let v = stack::parse_udp(bytes).expect("valid udp frame");
            assert!(v.dst_ip.is_multicast());
            let pkt = pitch::Packet::new_checked(v.payload).expect("valid pitch");
            for m in pkt.messages() {
                m.expect("parseable message");
                messages += 1;
            }
        }
        assert!(messages > 100, "messages {messages}");
        let stats = sim.node::<Exchange>(ex).unwrap().stats();
        // Frames sent just before the deadline may still be in flight.
        assert!(stats.feed_packets as usize >= frames.len());
        assert!(stats.feed_packets as usize <= frames.len() + 16);
    }

    #[test]
    fn ab_feed_ports_carry_duplicates() {
        let mut cfg = small_exchange(20_000.0);
        cfg.feed_ports = vec![PortId(0), PortId(1)];
        let mut sim = Simulator::new(3);
        let ex = sim.add_node("exch", Exchange::new(cfg));
        let a = sim.add_node("a", Collector { frames: vec![] });
        let b = sim.add_node("b", Collector { frames: vec![] });
        sim.connect_spec(ex, PortId(0), a, PortId(0), &LinkSpec::ideal(SimTime::ZERO));
        sim.connect_spec(ex, PortId(1), b, PortId(0), &LinkSpec::ideal(SimTime::ZERO));
        sim.schedule_timer(SimTime::ZERO, ex, TICK);
        sim.run_until(SimTime::from_ms(10));
        let fa = &sim.node::<Collector>(a).unwrap().frames;
        let fb = &sim.node::<Collector>(b).unwrap().frames;
        assert!(!fa.is_empty());
        assert_eq!(fa.len(), fb.len());
        assert_eq!(fa[0].1, fb[0].1); // identical bytes on A and B
    }

    #[test]
    fn order_entry_round_trip_ack_and_feed() {
        let mut sim = Simulator::new(3);
        let mut cfg = small_exchange(0.0);
        let symbol = cfg.directory.instruments()[0].symbol;
        cfg.feed_ports = vec![PortId(1)];
        let ex_ip = cfg.src_ip;
        let ex_mac = cfg.src_mac;
        let ex = sim.add_node("exch", Exchange::new(cfg));
        let firm = sim.add_node("firm", Collector { frames: vec![] });
        let feed = sim.add_node("feed", Collector { frames: vec![] });
        sim.connect_spec(
            ex,
            PortId(0),
            firm,
            PortId(0),
            &LinkSpec::ideal(SimTime::from_ns(500)),
        );
        sim.connect_spec(
            ex,
            PortId(1),
            feed,
            PortId(0),
            &LinkSpec::ideal(SimTime::from_ns(500)),
        );

        // Login then a new order, from 10.0.0.9:40000.
        let firm_ip = ipv4::Addr::new(10, 0, 0, 9);
        let firm_mac = eth::MacAddr::host(9);
        let mut payload = Vec::new();
        boe::Message::Login {
            session: 7,
            token: 1,
        }
        .emit(0, &mut payload);
        boe::Message::NewOrder {
            cl_ord_id: 1,
            side: Side::Buy,
            qty: 100,
            symbol,
            price: 50_0000,
        }
        .emit(1, &mut payload);
        let seg = stack::build_tcp(
            firm_mac,
            ex_mac,
            firm_ip,
            ex_ip,
            40_000,
            30_001,
            1,
            0,
            tcp::Flags::ACK | tcp::Flags::PSH,
            &payload,
        );
        let f = sim.frame().copy_from(&seg).build();
        sim.inject_frame(SimTime::from_us(1), ex, PortId(0), f);
        sim.run();

        // The firm got an ack.
        let firm_frames = &sim.node::<Collector>(firm).unwrap().frames;
        assert_eq!(firm_frames.len(), 1);
        let v = stack::parse_tcp(&firm_frames[0].1).unwrap();
        let (msg, _, _) = boe::Message::parse(v.payload).unwrap();
        assert!(matches!(msg, boe::Message::OrderAck { cl_ord_id: 1, .. }));
        // The ack was delayed by the matching service time (10 us).
        assert!(firm_frames[0].0 >= SimTime::from_us(11));

        // The feed observed the resulting AddOrder.
        let feed_frames = &sim.node::<Collector>(feed).unwrap().frames;
        assert_eq!(feed_frames.len(), 1);
        let v = stack::parse_udp(&feed_frames[0].1).unwrap();
        let pkt = pitch::Packet::new_checked(v.payload).unwrap();
        let msgs: Vec<_> = pkt.messages().map(|m| m.unwrap()).collect();
        assert!(msgs
            .iter()
            .any(|m| matches!(m, pitch::Message::AddOrder { qty: 100, .. })));
        let _ = Symbol::new("X");
    }

    #[test]
    fn bursts_fire_on_schedule() {
        let mut cfg = small_exchange(0.0);
        cfg.bursts = vec![500];
        let mut sim = Simulator::new(3);
        let ex = sim.add_node("exch", Exchange::new(cfg));
        let col = sim.add_node("col", Collector { frames: vec![] });
        sim.connect_spec(
            ex,
            PortId(0),
            col,
            PortId(0),
            &LinkSpec::ideal(SimTime::ZERO),
        );
        sim.schedule_timer(SimTime::from_ms(5), ex, TimerToken(BURST_BASE));
        sim.run();
        let frames = &sim.node::<Collector>(col).unwrap().frames;
        assert!(!frames.is_empty());
        assert!(frames[0].0 >= SimTime::from_ms(5));
        // A 500-event burst coalesces into multi-message packets.
        let v = stack::parse_udp(&frames[0].1).unwrap();
        let pkt = pitch::Packet::new_checked(v.payload).unwrap();
        assert!(pkt.count() > 1);
    }
}
