//! Strategy hosts.
//!
//! A strategy server (§2) subscribes to normalized-feed partitions,
//! reacts to records with custom decision logic, and sends orders to a
//! gateway over a long-lived internal session. Ports:
//!
//! * [`FEED`] — normalized multicast in; IGMP joins go out this port.
//! * [`ORDERS`] — internal order session toward the gateway (replies
//!   arrive here too).
//!
//! Service-time model: every record that reaches the host costs CPU —
//! `discard_service` for records in unsubscribed partitions (the host-side
//! filtering §3 analyses) and `decision_service` for records the strategy
//! actually evaluates (the paper's §4 analysis assumes ~2 µs per
//! function).

use tn_feed::SubscriptionSet;
use tn_netdev::TxQueue;
use tn_sim::{Context, FastMap, Frame, Node, PortId, SimTime, TimerToken};
use tn_wire::pitch::Side;
use tn_wire::{boe, eth, ipv4, l1t, norm, stack, tcp, Symbol};

use crate::gateway;

/// Normalized feed port.
pub const FEED: PortId = PortId(0);
/// Order session port.
pub const ORDERS: PortId = PortId(1);

/// Timer token that kicks off subscriptions/login; schedule it once from
/// the scenario.
pub const START: TimerToken = TimerToken(50);

const SVC_TOKEN: u64 = 1;

/// What a strategy wants to do in response to a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderIntent {
    /// Interned symbol id (firm dictionary).
    pub symbol_id: u32,
    /// Side to send.
    pub side: Side,
    /// Quantity.
    pub qty: u32,
    /// Limit price (1e-4 dollars).
    pub price: u64,
}

/// Pluggable decision logic. `Send` is a supertrait because strategies
/// are simulator nodes, and sharded runs move nodes onto per-shard
/// threads (see [`tn_sim::Node`]).
pub trait StrategyLogic: Send {
    /// Evaluate one normalized record; optionally produce an order.
    fn on_record(&mut self, record: &norm::Record) -> Option<OrderIntent>;
}

/// Reacts to upward BBO momentum on a symbol by lifting the offer (and
/// vice versa). Deliberately simple: it exists to generate plausible,
/// deterministic order flow whose *latency* is the object of study.
#[derive(Debug, Default)]
pub struct MomentumLogic {
    last_bid: FastMap<u32, i64>,
    /// Minimum favorable move before firing (1e-4 dollars).
    pub threshold: i64,
}

impl MomentumLogic {
    /// Momentum logic with a price-move threshold.
    pub fn new(threshold: i64) -> MomentumLogic {
        MomentumLogic {
            last_bid: FastMap::default(),
            threshold,
        }
    }
}

impl StrategyLogic for MomentumLogic {
    fn on_record(&mut self, record: &norm::Record) -> Option<OrderIntent> {
        if record.kind != norm::Kind::Bbo || record.side != b'B' || record.price == 0 {
            return None;
        }
        let prev = self.last_bid.insert(record.symbol_id, record.price);
        match prev {
            Some(p) if record.price >= p + self.threshold => Some(OrderIntent {
                symbol_id: record.symbol_id,
                side: Side::Buy,
                qty: 100,
                price: record.price as u64 + 10_000, // cross to take liquidity
            }),
            _ => None,
        }
    }
}

/// Cross-market arbitrage: tracks BBO per (exchange, symbol) and fires
/// when one exchange's bid crosses another's ask — the aggregation across
/// remote exchanges that §4.2 argues cloud designs struggle with.
#[derive(Debug, Default)]
pub struct CrossMarketArb {
    best_bid: FastMap<u32, (u8, i64)>,
    best_ask: FastMap<u32, (u8, i64)>,
    /// Arbitrage opportunities detected (crossed books observed).
    pub opportunities: u64,
}

impl StrategyLogic for CrossMarketArb {
    fn on_record(&mut self, record: &norm::Record) -> Option<OrderIntent> {
        if record.kind != norm::Kind::Bbo || record.price == 0 {
            return None;
        }
        match record.side {
            b'B' => {
                let e = self
                    .best_bid
                    .entry(record.symbol_id)
                    .or_insert((record.exchange, 0));
                if record.price >= e.1 || e.0 == record.exchange {
                    *e = (record.exchange, record.price);
                }
            }
            b'S' => {
                let e = self
                    .best_ask
                    .entry(record.symbol_id)
                    .or_insert((record.exchange, i64::MAX));
                if record.price <= e.1 || e.0 == record.exchange {
                    *e = (record.exchange, record.price);
                }
            }
            _ => return None,
        }
        let (bid_ex, bid) = *self.best_bid.get(&record.symbol_id)?;
        let (ask_ex, ask) = *self.best_ask.get(&record.symbol_id)?;
        if bid_ex != ask_ex && bid > ask && ask > 0 {
            self.opportunities += 1;
            // Buy the cheap side.
            return Some(OrderIntent {
                symbol_id: record.symbol_id,
                side: Side::Buy,
                qty: 100,
                price: ask as u64,
            });
        }
        None
    }
}

/// Market making: quote both sides around each symbol's BBO, one tick
/// inside the spread when it is wide enough, running the §4.2 pre-trade
/// compliance check so a quote never locks or crosses another exchange's
/// advertised price.
#[derive(Debug, Default)]
pub struct MarketMakerLogic {
    compliance: crate::risk::ComplianceMonitor,
    /// Last side quoted per symbol (alternate bid/ask).
    last_quoted: FastMap<u32, Side>,
    /// Quotes suppressed by the lock/cross check.
    pub suppressed: u64,
    /// Minimum spread (1e-4 dollars) before quoting inside.
    pub min_spread: i64,
}

impl MarketMakerLogic {
    /// Market maker quoting inside spreads wider than `min_spread`.
    pub fn new(min_spread: i64) -> MarketMakerLogic {
        MarketMakerLogic {
            min_spread,
            ..MarketMakerLogic::default()
        }
    }
}

impl StrategyLogic for MarketMakerLogic {
    fn on_record(&mut self, record: &norm::Record) -> Option<OrderIntent> {
        self.compliance.on_record(record);
        if record.kind != norm::Kind::Bbo {
            return None;
        }
        use crate::risk::MarketSide;
        let bid = self
            .compliance
            .nbbo_side(record.symbol_id, MarketSide::Bid)?
            .1;
        let ask = self
            .compliance
            .nbbo_side(record.symbol_id, MarketSide::Ask)?
            .1;
        if ask - bid < self.min_spread {
            return None;
        }
        // Alternate sides so inventory stays near flat.
        let side = match self.last_quoted.get(&record.symbol_id) {
            Some(Side::Buy) => Side::Sell,
            _ => Side::Buy,
        };
        // Improve aggressively (two ticks) to win queue position; the
        // compliance check below is what keeps aggression legal.
        let (market_side, price) = match side {
            Side::Buy => (MarketSide::Bid, bid + 200),
            Side::Sell => (MarketSide::Ask, ask - 200),
        };
        // §4.2: never advertise a locking/crossing price.
        if self
            .compliance
            .would_lock_or_cross(record.symbol_id, market_side, price)
        {
            self.suppressed += 1;
            return None;
        }
        self.last_quoted.insert(record.symbol_id, side);
        Some(OrderIntent {
            symbol_id: record.symbol_id,
            side,
            qty: 50,
            price: price as u64,
        })
    }
}

/// Strategy host configuration.
pub struct StrategyConfig {
    /// Internal session id (unique per strategy).
    pub session: u32,
    /// Subscribed partitions.
    pub subscriptions: SubscriptionSet,
    /// Multicast group index base of the internal feed.
    pub mcast_base: u32,
    /// CPU cost of evaluating a subscribed record.
    pub decision_service: SimTime,
    /// CPU cost of discarding an unsubscribed record.
    pub discard_service: SimTime,
    /// Host addressing.
    pub src_mac: eth::MacAddr,
    /// Host IP.
    pub src_ip: ipv4::Addr,
    /// Gateway addressing.
    pub gw_mac: eth::MacAddr,
    /// Gateway IP.
    pub gw_ip: ipv4::Addr,
    /// Firm-wide dictionary in id order (for symbol lookup on order send).
    pub symbols: Vec<Symbol>,
    /// Send IGMP joins at START (multicast fabrics). Circuit fabrics
    /// (L1S) have no group management — subscription is provisioning.
    pub send_igmp_joins: bool,
}

impl StrategyConfig {
    /// Defaults for strategy `i`, subscribing to nothing yet.
    pub fn new(i: u32, symbols: Vec<Symbol>) -> StrategyConfig {
        StrategyConfig {
            session: 100 + i,
            subscriptions: SubscriptionSet::unbounded(),
            mcast_base: 10_000,
            decision_service: SimTime::from_us(2),
            discard_service: SimTime::from_ns(50),
            src_mac: eth::MacAddr::host(0x5000 + i),
            src_ip: ipv4::Addr::new(10, 60, (i / 250) as u8, (i % 250) as u8 + 1),
            gw_mac: eth::MacAddr::host(0x6000),
            gw_ip: ipv4::Addr::new(10, 71, 0, 1),
            symbols,
            send_igmp_joins: true,
        }
    }
}

/// Strategy counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrategyStats {
    /// Records in subscribed partitions evaluated.
    pub records_evaluated: u64,
    /// Records discarded by the host-side partition filter.
    pub records_discarded: u64,
    /// Orders sent.
    pub orders_sent: u64,
    /// Acks received.
    pub acks: u64,
    /// Fills received.
    pub fills: u64,
    /// Rejects received.
    pub rejects: u64,
}

/// The strategy node.
pub struct Strategy<L: StrategyLogic> {
    cfg: StrategyConfig,
    logic: L,
    svc: TxQueue,
    decoder: boe::Decoder,
    next_cl_ord: u64,
    tx_seq: u32,
    stats: StrategyStats,
    /// Decision latencies: market event time → order emission, ps.
    pub decision_latency_ps: Vec<u64>,
    /// Reusable BOE payload buffer.
    payload_scratch: Vec<u8>,
    /// Reusable per-packet intent batch.
    intent_scratch: Vec<OrderIntent>,
    /// Reusable batch of decoded replies.
    reply_scratch: Vec<boe::Message>,
}

/// Room for the longest BOE message a strategy sends (a new order is 34
/// bytes), so its payload buffer never grows.
const PAYLOAD_CAPACITY: usize = 64;

impl<L: StrategyLogic> Strategy<L> {
    /// Build a strategy host.
    pub fn new(cfg: StrategyConfig, logic: L) -> Strategy<L> {
        Strategy {
            cfg,
            logic,
            svc: TxQueue::new(SVC_TOKEN),
            decoder: boe::Decoder::new(),
            next_cl_ord: 1,
            tx_seq: 1,
            stats: StrategyStats::default(),
            decision_latency_ps: Vec::new(),
            payload_scratch: Vec::with_capacity(PAYLOAD_CAPACITY),
            intent_scratch: Vec::new(),
            reply_scratch: Vec::new(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> StrategyStats {
        self.stats
    }

    /// The decision logic (for reading accumulated state).
    pub fn logic(&self) -> &L {
        &self.logic
    }

    fn send_boe(&mut self, ctx: &mut Context<'_>, msg: &boe::Message, meta: tn_sim::FrameMeta) {
        self.payload_scratch.clear();
        msg.emit(self.tx_seq, &mut self.payload_scratch);
        let tx_seq = self.tx_seq;
        self.tx_seq = self.tx_seq.wrapping_add(self.payload_scratch.len() as u32);
        let cfg = &self.cfg;
        let payload = &self.payload_scratch;
        let frame = ctx
            .frame()
            .fill(|b| {
                stack::emit_tcp_into(
                    cfg.src_mac,
                    cfg.gw_mac,
                    cfg.src_ip,
                    cfg.gw_ip,
                    40_000 + cfg.session as u16,
                    gateway::INTERNAL_PORT,
                    tx_seq,
                    0,
                    tcp::Flags::ACK | tcp::Flags::PSH,
                    payload,
                    b,
                )
            })
            .meta(meta)
            .build();
        self.svc.send_after(ctx, SimTime::ZERO, ORDERS, frame);
    }

    /// Send one IGMP report per subscribed partition's group.
    fn join_groups(&self, ctx: &mut Context<'_>) {
        let cfg = &self.cfg;
        for p in cfg.subscriptions.partitions() {
            let group = ipv4::Addr::multicast_group(cfg.mcast_base + u32::from(p));
            let frame = ctx
                .frame()
                .fill(|b| {
                    tn_switch::commodity::igmp_frame_into(
                        tn_wire::igmp::MessageType::Report,
                        cfg.src_mac,
                        cfg.src_ip,
                        group,
                        b,
                    )
                })
                .build();
            ctx.send(FEED, frame);
        }
    }

    fn on_feed(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
        // The normalized feed arrives either as UDP multicast or as the
        // §5 custom transport; the payload format is identical.
        let payload: &[u8] = if let Ok(view) = stack::parse_udp(&frame.bytes) {
            view.payload
        } else if let Ok(f) = l1t::Frame::new_checked(frame.bytes.as_slice()) {
            &frame.bytes[l1t::HEADER_LEN..f.len_field() as usize]
        } else {
            return;
        };
        let Ok(pkt) = norm::Packet::new_checked(payload) else {
            return;
        };
        let partition = pkt.partition();
        if !self.cfg.subscriptions.wants(partition) {
            // The whole packet is for a partition we don't want: pay the
            // per-record discard cost (header inspection + drop).
            let n = u64::from(pkt.count());
            self.stats.records_discarded += n;
            self.svc.charge(ctx.now(), self.cfg.discard_service * n);
            return;
        }
        let mut intents = std::mem::take(&mut self.intent_scratch);
        let mut n = 0u64;
        for rec in pkt.records() {
            let Ok(rec) = rec else { break };
            n += 1;
            if let Some(intent) = self.logic.on_record(&rec) {
                intents.push(intent);
            }
        }
        self.stats.records_evaluated += n;
        self.svc.charge(ctx.now(), self.cfg.decision_service * n);
        for intent in intents.drain(..) {
            let Some(&symbol) = self.cfg.symbols.get(intent.symbol_id as usize) else {
                continue;
            };
            let cl_ord_id = self.next_cl_ord;
            self.next_cl_ord += 1;
            let msg = boe::Message::NewOrder {
                cl_ord_id,
                side: intent.side,
                qty: intent.qty,
                symbol,
                price: intent.price,
            };
            self.stats.orders_sent += 1;
            if frame.meta.event_time != SimTime::ZERO {
                self.decision_latency_ps
                    .push(ctx.now().saturating_sub(frame.meta.event_time).as_ps());
            }
            self.send_boe(ctx, &msg, frame.meta.clone());
        }
        self.intent_scratch = intents;
    }

    fn on_reply(&mut self, frame: &Frame) {
        let Ok(view) = stack::parse_tcp(&frame.bytes) else {
            return;
        };
        // On circuit fabrics (L1S) every strategy on a gateway's reply
        // fan-out sees every reply; hosts filter by address.
        if view.dst_ip != self.cfg.src_ip {
            return;
        }
        let mut replies = std::mem::take(&mut self.reply_scratch);
        // A malformed stream poisons the decoder: nothing more decodes.
        let _ = self.decoder.decode(view.payload, &mut replies);
        for msg in replies.drain(..) {
            match msg {
                boe::Message::OrderAck { .. } => self.stats.acks += 1,
                boe::Message::Fill { .. } => self.stats.fills += 1,
                boe::Message::OrderReject { .. } => self.stats.rejects += 1,
                _ => {}
            }
        }
        self.reply_scratch = replies;
    }
}

impl<L: StrategyLogic + 'static> Node for Strategy<L> {
    fn on_frame(&mut self, ctx: &mut Context<'_>, port: PortId, frame: Frame) {
        match port {
            FEED => self.on_feed(ctx, &frame),
            ORDERS => self.on_reply(&frame),
            // Wiring invariant: ports are fixed at topology build time, so
            // failing fast beats silently eating frames.
            // audit:allow(hotpath-unwrap): port fan-in is fixed by connect() wiring at build time; a mismatch is a topology bug where stopping loudly beats simulating garbage
            other => panic!("strategy has 2 ports, got {other:?}"),
        }
        // Terminal consumer: feed records and replies are fully decoded
        // above, so the buffer goes back to the arena.
        ctx.recycle(frame);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        if self.svc.on_timer(ctx, timer) {
            return;
        }
        if timer == START {
            // Join subscribed groups and log in to the gateway.
            if self.cfg.send_igmp_joins {
                self.join_groups(ctx);
            }
            let session = self.cfg.session;
            let login = boe::Message::Login {
                session,
                token: u64::from(session),
            };
            self.send_boe(ctx, &login, tn_sim::FrameMeta::default());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(symbol_id: u32, side: u8, price: i64) -> norm::Record {
        norm::Record {
            kind: norm::Kind::Bbo,
            exchange: 1,
            side,
            flags: 0,
            symbol_id,
            price,
            size: 100,
            aux: 0,
            src_time_ns: 0,
        }
    }

    #[test]
    fn momentum_fires_on_upward_move() {
        let mut m = MomentumLogic::new(500);
        assert!(m.on_record(&rec(1, b'B', 100_0000)).is_none()); // baseline
        assert!(m.on_record(&rec(1, b'B', 100_0400)).is_none()); // below threshold
        let intent = m.on_record(&rec(1, b'B', 100_0900)).unwrap();
        assert_eq!(intent.side, Side::Buy);
        assert_eq!(intent.symbol_id, 1);
        // Ask-side records don't trigger.
        assert!(m.on_record(&rec(1, b'S', 200_0000)).is_none());
        // Independent per symbol.
        assert!(m.on_record(&rec(2, b'B', 50_0000)).is_none());
    }

    #[test]
    fn cross_market_arb_detects_crossed_books() {
        let mut a = CrossMarketArb::default();
        // Exchange 1 asks 100.00.
        let mut ask = rec(7, b'S', 100_0000);
        ask.exchange = 1;
        assert!(a.on_record(&ask).is_none());
        // Exchange 2 bids 100.05: crossed across exchanges.
        let mut bid = rec(7, b'B', 100_0500);
        bid.exchange = 2;
        let intent = a.on_record(&bid).unwrap();
        assert_eq!(intent.price, 100_0000); // buy at the cheap ask
        assert_eq!(a.opportunities, 1);
        // Same-exchange cross does not fire (that's the exchange's job).
        let mut a2 = CrossMarketArb::default();
        let mut ask = rec(7, b'S', 100_0000);
        ask.exchange = 1;
        let mut bid = rec(7, b'B', 100_0500);
        bid.exchange = 1;
        a2.on_record(&ask);
        assert!(a2.on_record(&bid).is_none());
    }

    #[test]
    fn market_maker_quotes_inside_wide_spreads() {
        let mut mm = MarketMakerLogic::new(500);
        // Establish a wide market: 100.00 / 100.20.
        assert!(mm.on_record(&rec(1, b'B', 100_0000)).is_none()); // no ask yet
        let intent = mm.on_record(&rec(1, b'S', 100_2000)).unwrap();
        // First quote bids two ticks above the best bid.
        assert_eq!(intent.side, Side::Buy);
        assert_eq!(intent.price, 100_0200);
        // Next quote takes the other side, two ticks under the ask.
        let intent = mm.on_record(&rec(1, b'S', 100_2000)).unwrap();
        assert_eq!(intent.side, Side::Sell);
        assert_eq!(intent.price, 100_1800);
        assert_eq!(mm.suppressed, 0);
    }

    #[test]
    fn market_maker_respects_min_spread() {
        let mut mm = MarketMakerLogic::new(500);
        mm.on_record(&rec(1, b'B', 100_0000));
        // Tight market (4 ticks): stay out.
        assert!(mm.on_record(&rec(1, b'S', 100_0400)).is_none());
    }

    #[test]
    fn market_maker_never_locks_another_exchange() {
        let mut mm = MarketMakerLogic::new(200);
        // Market exactly at the minimum spread: 100.00 / 100.02. An
        // aggressive two-tick improvement would land exactly on the ask —
        // a locked market. The §4.2 pre-trade check must suppress it.
        mm.on_record(&rec(1, b'B', 100_0000));
        let out = mm.on_record(&rec(1, b'S', 100_0200));
        assert!(out.is_none());
        assert_eq!(mm.suppressed, 1);
        // A slightly wider market is quotable again.
        let out = mm.on_record(&rec(1, b'S', 100_0300));
        assert!(out.is_some());
    }

    #[test]
    fn non_bbo_records_ignored() {
        let mut m = MomentumLogic::new(1);
        let mut r = rec(1, b'B', 100_0000);
        r.kind = norm::Kind::Trade;
        assert!(m.on_record(&r).is_none());
        let mut a = CrossMarketArb::default();
        assert!(a.on_record(&r).is_none());
    }
}
