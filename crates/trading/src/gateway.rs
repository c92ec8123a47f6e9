//! Order-entry gateways.
//!
//! §2: "The purpose of the gateway is to translate from internal order
//! entry formats back to the protocols that the exchanges use." The
//! gateway terminates internal strategy sessions on one side and holds
//! the firm's exchange session on the other, remapping client order ids
//! in both directions. Ports:
//!
//! * [`INTERNAL`] — strategies' order sessions.
//! * [`EXCHANGE`] — the firm's cross-connect session to one exchange.

use tn_netdev::TxQueue;
use tn_sim::{Context, FastMap, Frame, Node, PortId, SimTime, TimerToken};
use tn_wire::{boe, eth, ipv4, stack, tcp};

/// Strategy-facing port.
pub const INTERNAL: PortId = PortId(0);
/// Exchange-facing port.
pub const EXCHANGE: PortId = PortId(1);

/// TCP port gateways listen on for internal sessions.
pub const INTERNAL_PORT: u16 = 6_001;

/// Timer token that triggers the exchange login; schedule once.
pub const START: TimerToken = TimerToken(60);

const SVC_TOKEN: u64 = 1;

/// Gateway configuration.
pub struct GatewayConfig {
    /// The firm's session id on the exchange.
    pub exchange_session: u32,
    /// Translation service time per message (§4's software-hop budget).
    pub service: SimTime,
    /// Gateway addressing.
    pub src_mac: eth::MacAddr,
    /// Exchange-facing IP (exchange replies route here).
    pub src_ip: ipv4::Addr,
    /// Strategy-facing IP (internal orders route here). Fig 1(d): hosts
    /// use separate NICs for market data, orders and management, so the
    /// two sides of a gateway have distinct addresses.
    pub internal_ip: ipv4::Addr,
    /// Exchange addressing.
    pub exch_mac: eth::MacAddr,
    /// Exchange IP.
    pub exch_ip: ipv4::Addr,
    /// Exchange order-entry TCP port.
    pub exch_port: u16,
}

impl GatewayConfig {
    /// Defaults for gateway `i` toward the given exchange addressing.
    pub fn new(i: u32, exch_mac: eth::MacAddr, exch_ip: ipv4::Addr) -> GatewayConfig {
        GatewayConfig {
            exchange_session: 9_000 + i,
            service: SimTime::from_us(2),
            src_mac: eth::MacAddr::host(0x6000 + i),
            src_ip: ipv4::Addr::new(10, 70, (i / 250) as u8, (i % 250) as u8 + 1),
            internal_ip: ipv4::Addr::new(10, 71, (i / 250) as u8, (i % 250) as u8 + 1),
            exch_mac,
            exch_ip,
            exch_port: 7_001,
        }
    }
}

/// Gateway counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Messages dropped (unknown mappings, protocol errors).
    pub dropped: u64,
}

#[derive(Debug, Clone, Copy)]
struct StrategyAddr {
    mac: eth::MacAddr,
    ip: ipv4::Addr,
    tcp_port: u16,
}

/// The gateway node.
pub struct Gateway {
    cfg: GatewayConfig,
    /// Reassembly per internal peer.
    internal_decoders: FastMap<(ipv4::Addr, u16), boe::Decoder>,
    exchange_decoder: boe::Decoder,
    /// Internal session → addressing (learned at login).
    strategies: FastMap<u32, StrategyAddr>,
    /// Peer → internal session.
    peer_session: FastMap<(ipv4::Addr, u16), u32>,
    /// Exchange cl_ord_id → (internal session, internal cl_ord_id).
    order_map: FastMap<u64, (u32, u64)>,
    next_cl_ord: u64,
    exch_tx_seq: u32,
    internal_tx_seq: u32,
    svc: TxQueue,
    stats: GatewayStats,
    /// Reusable BOE payload buffer.
    payload_scratch: Vec<u8>,
    /// Reusable per-dispatch message batch.
    msg_scratch: Vec<boe::Message>,
}

impl Gateway {
    /// Build the node.
    pub fn new(cfg: GatewayConfig) -> Gateway {
        Gateway {
            cfg,
            internal_decoders: FastMap::default(),
            exchange_decoder: boe::Decoder::new(),
            strategies: FastMap::default(),
            peer_session: FastMap::default(),
            order_map: FastMap::default(),
            next_cl_ord: 1,
            exch_tx_seq: 1,
            internal_tx_seq: 1,
            svc: TxQueue::new(SVC_TOKEN),
            stats: GatewayStats::default(),
            payload_scratch: Vec::new(),
            msg_scratch: Vec::new(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> GatewayStats {
        self.stats
    }

    fn send_to_exchange(
        &mut self,
        ctx: &mut Context<'_>,
        msg: &boe::Message,
        meta: tn_sim::FrameMeta,
        service: SimTime,
    ) {
        self.payload_scratch.clear();
        msg.emit(self.exch_tx_seq, &mut self.payload_scratch);
        let tx_seq = self.exch_tx_seq;
        self.exch_tx_seq = self
            .exch_tx_seq
            .wrapping_add(self.payload_scratch.len() as u32);
        let cfg = &self.cfg;
        let payload = &self.payload_scratch;
        let frame = ctx
            .frame()
            .fill(|b| {
                stack::emit_tcp_into(
                    cfg.src_mac,
                    cfg.exch_mac,
                    cfg.src_ip,
                    cfg.exch_ip,
                    45_000,
                    cfg.exch_port,
                    tx_seq,
                    0,
                    tcp::Flags::ACK | tcp::Flags::PSH,
                    payload,
                    b,
                )
            })
            .meta(meta)
            .build();
        self.svc.send_after(ctx, service, EXCHANGE, frame);
    }

    fn send_to_strategy(
        &mut self,
        ctx: &mut Context<'_>,
        session: u32,
        msg: &boe::Message,
        service: SimTime,
    ) {
        let Some(addr) = self.strategies.get(&session).copied() else {
            self.stats.dropped += 1;
            return;
        };
        self.payload_scratch.clear();
        msg.emit(self.internal_tx_seq, &mut self.payload_scratch);
        let tx_seq = self.internal_tx_seq;
        self.internal_tx_seq = self
            .internal_tx_seq
            .wrapping_add(self.payload_scratch.len() as u32);
        let cfg = &self.cfg;
        let payload = &self.payload_scratch;
        let frame = ctx
            .frame()
            .fill(|b| {
                stack::emit_tcp_into(
                    cfg.src_mac,
                    addr.mac,
                    cfg.internal_ip,
                    addr.ip,
                    INTERNAL_PORT,
                    addr.tcp_port,
                    tx_seq,
                    0,
                    tcp::Flags::ACK | tcp::Flags::PSH,
                    payload,
                    b,
                )
            })
            .build();
        self.svc.send_after(ctx, service, INTERNAL, frame);
    }

    fn on_internal(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
        let Ok(view) = stack::parse_tcp(&frame.bytes) else {
            self.stats.dropped += 1;
            return;
        };
        let peer = (view.src_ip, view.src_port);
        let decoder = self.internal_decoders.entry(peer).or_default();
        let mut msgs = std::mem::take(&mut self.msg_scratch);
        // A malformed stream poisons its decoder: nothing more decodes.
        let _ = decoder.decode(view.payload, &mut msgs);
        let (mac, ip, port) = (view.src_mac, view.src_ip, view.src_port);
        for msg in msgs.drain(..) {
            match msg {
                boe::Message::Login { session, .. } => {
                    self.strategies.insert(
                        session,
                        StrategyAddr {
                            mac,
                            ip,
                            tcp_port: port,
                        },
                    );
                    self.peer_session.insert(peer, session);
                }
                boe::Message::NewOrder {
                    cl_ord_id,
                    side,
                    qty,
                    symbol,
                    price,
                } => {
                    let Some(&session) = self.peer_session.get(&peer) else {
                        self.stats.dropped += 1;
                        continue;
                    };
                    let gw_cl_ord = self.next_cl_ord;
                    self.next_cl_ord += 1;
                    self.order_map.insert(gw_cl_ord, (session, cl_ord_id));
                    let service = self.cfg.service;
                    self.send_to_exchange(
                        ctx,
                        &boe::Message::NewOrder {
                            cl_ord_id: gw_cl_ord,
                            side,
                            qty,
                            symbol,
                            price,
                        },
                        frame.meta.clone(),
                        service,
                    );
                }
                boe::Message::CancelOrder { cl_ord_id } => {
                    let Some(&session) = self.peer_session.get(&peer) else {
                        self.stats.dropped += 1;
                        continue;
                    };
                    // Find the gateway id for this strategy order.
                    let found = self
                        .order_map
                        .iter()
                        .find(|(_, &(s, c))| s == session && c == cl_ord_id)
                        .map(|(&g, _)| g);
                    match found {
                        Some(gw_cl_ord) => {
                            let service = self.cfg.service;
                            self.send_to_exchange(
                                ctx,
                                &boe::Message::CancelOrder {
                                    cl_ord_id: gw_cl_ord,
                                },
                                frame.meta.clone(),
                                service,
                            );
                        }
                        None => self.stats.dropped += 1,
                    }
                }
                _ => self.stats.dropped += 1,
            }
        }
        self.msg_scratch = msgs;
    }

    fn on_exchange(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
        let Ok(view) = stack::parse_tcp(&frame.bytes) else {
            self.stats.dropped += 1;
            return;
        };
        // Circuit fabrics fan exchange replies out to all gateways;
        // filter by address before decoding.
        if view.dst_ip != self.cfg.src_ip && view.dst_ip != self.cfg.internal_ip {
            return;
        }
        let mut msgs = std::mem::take(&mut self.msg_scratch);
        // A malformed stream poisons the decoder: nothing more decodes.
        let _ = self.exchange_decoder.decode(view.payload, &mut msgs);
        for msg in msgs.drain(..) {
            let service = self.cfg.service;
            let (gw_cl_ord, rewrite): (u64, fn(u64, &boe::Message) -> boe::Message) = match msg {
                boe::Message::OrderAck {
                    cl_ord_id,
                    exch_ord_id,
                } => (
                    cl_ord_id,
                    // Rewrap with the strategy's own cl_ord_id.
                    {
                        let _ = exch_ord_id;
                        |c, m| match *m {
                            boe::Message::OrderAck { exch_ord_id, .. } => boe::Message::OrderAck {
                                cl_ord_id: c,
                                exch_ord_id,
                            },
                            _ => unreachable!(),
                        }
                    },
                ),
                boe::Message::OrderReject { cl_ord_id, .. } => (cl_ord_id, |c, m| match *m {
                    boe::Message::OrderReject { reason, .. } => boe::Message::OrderReject {
                        cl_ord_id: c,
                        reason,
                    },
                    _ => unreachable!(),
                }),
                boe::Message::Fill { cl_ord_id, .. } => (cl_ord_id, |c, m| match *m {
                    boe::Message::Fill {
                        exec_id,
                        qty,
                        price,
                        leaves,
                        ..
                    } => boe::Message::Fill {
                        cl_ord_id: c,
                        exec_id,
                        qty,
                        price,
                        leaves,
                    },
                    _ => unreachable!(),
                }),
                boe::Message::CancelAck { cl_ord_id } => {
                    (cl_ord_id, |c, _| boe::Message::CancelAck { cl_ord_id: c })
                }
                _ => continue,
            };
            let Some(&(session, strat_cl_ord)) = self.order_map.get(&gw_cl_ord) else {
                self.stats.dropped += 1;
                continue;
            };
            let translated = rewrite(strat_cl_ord, &msg);
            self.send_to_strategy(ctx, session, &translated, service);
        }
        self.msg_scratch = msgs;
    }
}

impl Node for Gateway {
    fn on_frame(&mut self, ctx: &mut Context<'_>, port: PortId, frame: Frame) {
        match port {
            INTERNAL => self.on_internal(ctx, &frame),
            EXCHANGE => self.on_exchange(ctx, &frame),
            // Wiring invariant: ports are fixed at topology build time, so
            // failing fast beats silently eating frames.
            // audit:allow(hotpath-unwrap): port fan-in is fixed by connect() wiring at build time; a mismatch is a topology bug where stopping loudly beats simulating garbage
            other => panic!("gateway has 2 ports, got {other:?}"),
        }
        // Terminal consumer: both sides fully decode (translated traffic
        // rides fresh frames), so the buffer goes back to the arena.
        ctx.recycle(frame);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        if self.svc.on_timer(ctx, timer) {
            return;
        }
        if timer == START {
            let session = self.cfg.exchange_session;
            let login = boe::Message::Login {
                session,
                token: u64::from(session),
            };
            self.send_to_exchange(ctx, &login, tn_sim::FrameMeta::default(), SimTime::ZERO);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_fault::{FaultConnect, LinkSpec};
    use tn_sim::Simulator;
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

    fn boe_in_tcp(msgs: &[boe::Message], src_ip: ipv4::Addr, src_port: u16) -> Vec<u8> {
        let mut payload = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            m.emit(i as u32, &mut payload);
        }
        let mut frame = Vec::new();
        stack::emit_tcp_into(
            eth::MacAddr::host(1),
            eth::MacAddr::host(0x6000),
            src_ip,
            ipv4::Addr::new(10, 70, 0, 1),
            src_port,
            INTERNAL_PORT,
            1,
            0,
            tcp::Flags::ACK,
            &payload,
            &mut frame,
        );
        frame
    }

    fn rig() -> (Simulator, tn_sim::NodeId, tn_sim::NodeId, tn_sim::NodeId) {
        let mut sim = Simulator::new(8);
        let cfg = GatewayConfig::new(
            0,
            eth::MacAddr::host(0xEE01),
            ipv4::Addr::new(10, 200, 1, 1),
        );
        let gw = sim.add_node("gw", Gateway::new(cfg));
        let strat = sim.add_node("strat", Collector { frames: vec![] });
        let exch = sim.add_node("exch", Collector { frames: vec![] });
        sim.connect_spec(
            gw,
            INTERNAL,
            strat,
            PortId(0),
            &LinkSpec::ideal(SimTime::ZERO),
        );
        sim.connect_spec(
            gw,
            EXCHANGE,
            exch,
            PortId(0),
            &LinkSpec::ideal(SimTime::ZERO),
        );
        (sim, gw, strat, exch)
    }

    #[test]
    fn login_then_order_translates_with_fresh_id() {
        let (mut sim, gw, _strat, exch) = rig();
        let strat_ip = ipv4::Addr::new(10, 60, 0, 1);
        let order = boe::Message::NewOrder {
            cl_ord_id: 777,
            side: Side::Buy,
            qty: 10,
            symbol: Symbol::new("SPY").unwrap(),
            price: 450_0000,
        };
        let frame_bytes = boe_in_tcp(
            &[
                boe::Message::Login {
                    session: 100,
                    token: 1,
                },
                order,
            ],
            strat_ip,
            40_100,
        );
        let f = sim.frame().copy_from(&frame_bytes).build();
        sim.inject_frame(SimTime::ZERO, gw, INTERNAL, f);
        sim.run();
        let exch_frames = &sim.node::<Collector>(exch).unwrap().frames;
        assert_eq!(exch_frames.len(), 1);
        // Service delay applied (2 us default).
        assert_eq!(exch_frames[0].0, SimTime::from_us(2));
        let v = stack::parse_tcp(&exch_frames[0].1).unwrap();
        let (msg, _, _) = boe::Message::parse(v.payload).unwrap();
        match msg {
            boe::Message::NewOrder {
                cl_ord_id, qty: 10, ..
            } => {
                assert_ne!(cl_ord_id, 777, "gateway must remap ids");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn replies_route_back_to_owning_strategy() {
        let (mut sim, gw, strat, _exch) = rig();
        let strat_ip = ipv4::Addr::new(10, 60, 0, 1);
        let order = boe::Message::NewOrder {
            cl_ord_id: 5,
            side: Side::Sell,
            qty: 1,
            symbol: Symbol::new("QQQ").unwrap(),
            price: 380_0000,
        };
        let bytes = boe_in_tcp(
            &[
                boe::Message::Login {
                    session: 100,
                    token: 1,
                },
                order,
            ],
            strat_ip,
            40_100,
        );
        let f = sim.frame().copy_from(&bytes).build();
        sim.inject_frame(SimTime::ZERO, gw, INTERNAL, f);
        sim.run();
        // Exchange acks gateway order id 1.
        let mut payload = Vec::new();
        boe::Message::OrderAck {
            cl_ord_id: 1,
            exch_ord_id: 42,
        }
        .emit(1, &mut payload);
        let mut ack = Vec::new();
        stack::emit_tcp_into(
            eth::MacAddr::host(0xEE01),
            eth::MacAddr::host(0x6000),
            ipv4::Addr::new(10, 200, 1, 1),
            ipv4::Addr::new(10, 70, 0, 1),
            7_001,
            45_000,
            1,
            0,
            tcp::Flags::ACK,
            &payload,
            &mut ack,
        );
        let f = sim.frame().copy_from(&ack).build();
        let t = sim.now();
        sim.inject_frame(t, gw, EXCHANGE, f);
        sim.run();
        let strat_frames = &sim.node::<Collector>(strat).unwrap().frames;
        assert_eq!(strat_frames.len(), 1);
        let v = stack::parse_tcp(&strat_frames[0].1).unwrap();
        let (msg, _, _) = boe::Message::parse(v.payload).unwrap();
        // The strategy sees its own id again.
        assert!(matches!(
            msg,
            boe::Message::OrderAck {
                cl_ord_id: 5,
                exch_ord_id: 42
            }
        ));
    }

    #[test]
    fn unknown_replies_are_dropped() {
        let (mut sim, gw, strat, _exch) = rig();
        let mut payload = Vec::new();
        boe::Message::OrderAck {
            cl_ord_id: 99,
            exch_ord_id: 1,
        }
        .emit(1, &mut payload);
        let mut ack = Vec::new();
        stack::emit_tcp_into(
            eth::MacAddr::host(0xEE01),
            eth::MacAddr::host(0x6000),
            ipv4::Addr::new(10, 200, 1, 1),
            ipv4::Addr::new(10, 70, 0, 1),
            7_001,
            45_000,
            1,
            0,
            tcp::Flags::ACK,
            &payload,
            &mut ack,
        );
        let f = sim.frame().copy_from(&ack).build();
        sim.inject_frame(SimTime::ZERO, gw, EXCHANGE, f);
        sim.run();
        assert!(sim.node::<Collector>(strat).unwrap().frames.is_empty());
        assert_eq!(sim.node::<Gateway>(gw).unwrap().stats().dropped, 1);
    }

    #[test]
    fn start_timer_logs_in_to_exchange() {
        let (mut sim, gw, _strat, exch) = rig();
        sim.schedule_timer(SimTime::from_us(1), gw, START);
        sim.run();
        let frames = &sim.node::<Collector>(exch).unwrap().frames;
        assert_eq!(frames.len(), 1);
        let v = stack::parse_tcp(&frames[0].1).unwrap();
        let (msg, _, _) = boe::Message::parse(v.payload).unwrap();
        assert!(matches!(msg, boe::Message::Login { session: 9000, .. }));
    }
}
