//! Multi-symbol matching engine.
//!
//! Couples [`crate::book::OrderBook`]s with the two exchange-facing
//! protocols: BOE-style order entry in, PITCH-style market data out. Every
//! state change produces exactly the feed messages a real exchange would
//! publish, so the simulated feed is *causally* derived from order flow —
//! an order round-trip (gateway → engine → fill → feed) exercises the same
//! code path as production (§2).

use std::collections::BTreeMap;

use tn_sim::FastMap;
use tn_wire::boe;
use tn_wire::pitch::{self, Side};
use tn_wire::Symbol;

use crate::book::{OrderBook, OrderId, Price, Qty};

/// Who submitted an order: a connected session or the background market.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Owner {
    /// An order-entry session (firm gateways).
    Session(u32),
    /// Ambient market participants simulated by the workload generator.
    Background,
}

#[derive(Debug, Clone, Copy)]
struct OpenOrder {
    owner: Owner,
    cl_ord_id: u64,
    symbol: Symbol,
    side: Side,
}

/// A reply addressed to one order-entry session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// Destination session.
    pub session: u32,
    /// The message.
    pub message: boe::Message,
}

/// Open orders by exchange id. The ids are also kept in a sorted `Vec`,
/// so sampling one by rank is an index. Exchange ids are assigned in
/// increasing order, so a new id is always pushed at the end.
#[derive(Default)]
struct OpenOrders {
    by_id: FastMap<OrderId, OpenOrder>,
    ids: Vec<OrderId>,
}

impl OpenOrders {
    fn get(&self, id: OrderId) -> Option<OpenOrder> {
        self.by_id.get(&id).copied()
    }

    fn insert(&mut self, id: OrderId, order: OpenOrder) {
        debug_assert!(
            self.ids.last().is_none_or(|&last| last < id),
            "exchange ids are assigned in increasing order"
        );
        self.ids.push(id);
        self.by_id.insert(id, order);
    }

    fn remove(&mut self, id: OrderId) {
        if self.by_id.remove(&id).is_some() {
            if let Ok(i) = self.ids.binary_search(&id) {
                self.ids.remove(i);
            }
        }
    }
}

/// Output of one engine operation, lent from a buffer the engine owns: it
/// lives until the engine's next operation.
#[derive(Debug, Default)]
pub struct EngineOutput {
    /// Order-entry replies (acks, rejects, fills — possibly to several
    /// sessions, since a fill notifies the resting order's owner too).
    pub replies: Vec<Reply>,
    /// Market-data messages for the feed publisher, in causal order.
    pub feed: Vec<pitch::Message>,
}

impl EngineOutput {
    fn reject(&mut self, session: u32, cl_ord_id: u64, reason: boe::RejectReason) {
        self.replies.push(Reply {
            session,
            message: boe::Message::OrderReject { cl_ord_id, reason },
        });
    }
}

/// The engine.
pub struct MatchingEngine {
    books: BTreeMap<Symbol, OrderBook>,
    open: OpenOrders,
    by_client: FastMap<(u32, u64), OrderId>,
    next_order_id: OrderId,
    next_exec_id: u64,
    /// What the last operation produced; every operation lends it.
    out: EngineOutput,
}

impl MatchingEngine {
    /// An engine listing the given symbols.
    pub fn new(symbols: impl IntoIterator<Item = Symbol>) -> MatchingEngine {
        MatchingEngine {
            books: symbols.into_iter().map(|s| (s, OrderBook::new())).collect(),
            open: OpenOrders::default(),
            by_client: FastMap::default(),
            next_order_id: 1,
            next_exec_id: 1,
            out: EngineOutput::default(),
        }
    }

    /// Whether `symbol` is listed here.
    pub fn lists(&self, symbol: Symbol) -> bool {
        self.books.contains_key(&symbol)
    }

    /// Listed symbols, in sorted order.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.books.keys().copied()
    }

    /// The book for `symbol`, if listed.
    pub fn book(&self, symbol: Symbol) -> Option<&OrderBook> {
        self.books.get(&symbol)
    }

    /// Open orders across all books.
    pub fn open_orders(&self) -> usize {
        self.open.ids.len()
    }

    /// Start an operation: the previous one's output is spent.
    fn begin(&mut self) {
        self.out.replies.clear();
        self.out.feed.clear();
    }

    /// Submit an order on behalf of `owner`. `offset_ns` stamps the feed
    /// messages (nanoseconds within the current second).
    #[allow(clippy::too_many_arguments)]
    pub fn submit(
        &mut self,
        owner: Owner,
        cl_ord_id: u64,
        symbol: Symbol,
        side: Side,
        price: Price,
        qty: Qty,
        ioc: bool,
        offset_ns: u32,
    ) -> &EngineOutput {
        self.begin();
        self.submit_into(owner, cl_ord_id, symbol, side, price, qty, ioc, offset_ns);
        &self.out
    }

    /// [`MatchingEngine::submit`], appending to the current output.
    #[allow(clippy::too_many_arguments)]
    fn submit_into(
        &mut self,
        owner: Owner,
        cl_ord_id: u64,
        symbol: Symbol,
        side: Side,
        price: Price,
        qty: Qty,
        ioc: bool,
        offset_ns: u32,
    ) {
        let out = &mut self.out;
        let Some(book) = self.books.get_mut(&symbol) else {
            if let Owner::Session(s) = owner {
                out.reject(s, cl_ord_id, boe::RejectReason::UnknownSymbol);
            }
            return;
        };
        if qty == 0 || price == 0 {
            if let Owner::Session(s) = owner {
                out.reject(s, cl_ord_id, boe::RejectReason::BadPrice);
            }
            return;
        }
        let exch_id = self.next_order_id;
        self.next_order_id += 1;
        if let Owner::Session(s) = owner {
            out.replies.push(Reply {
                session: s,
                message: boe::Message::OrderAck {
                    cl_ord_id,
                    exch_ord_id: exch_id,
                },
            });
            self.by_client.insert((s, cl_ord_id), exch_id);
        }
        let result = book.submit(exch_id, side, price, qty, ioc);
        let mut aggressor_filled: Qty = 0;
        for exec in result.executions {
            aggressor_filled += exec.qty;
            let exec_id = self.next_exec_id;
            self.next_exec_id += 1;
            out.feed.push(pitch::Message::OrderExecuted {
                offset_ns,
                order_id: exec.resting_id,
                qty: exec.qty,
                exec_id,
            });
            // Notify the resting order's owner.
            if let Some(open) = self.open.get(exec.resting_id) {
                if let Owner::Session(s) = open.owner {
                    out.replies.push(Reply {
                        session: s,
                        message: boe::Message::Fill {
                            cl_ord_id: open.cl_ord_id,
                            exec_id,
                            qty: exec.qty,
                            price: exec.price,
                            leaves: exec.resting_leaves,
                        },
                    });
                }
                if exec.resting_leaves == 0 {
                    self.open.remove(exec.resting_id);
                    if let Owner::Session(s) = open.owner {
                        self.by_client.remove(&(s, open.cl_ord_id));
                    }
                }
            }
            // Notify the aggressor session of its own fill.
            if let Owner::Session(s) = owner {
                out.replies.push(Reply {
                    session: s,
                    message: boe::Message::Fill {
                        cl_ord_id,
                        exec_id,
                        qty: exec.qty,
                        price: exec.price,
                        // Leaves as seen mid-match; the remainder may
                        // still post (or die, if IOC) after matching.
                        leaves: qty - aggressor_filled,
                    },
                });
            }
        }
        if result.posted > 0 {
            self.open.insert(
                exch_id,
                OpenOrder {
                    owner,
                    cl_ord_id,
                    symbol,
                    side,
                },
            );
            out.feed.push(pitch::Message::AddOrder {
                offset_ns,
                order_id: exch_id,
                side,
                qty: result.posted,
                symbol,
                price,
            });
        } else if let Owner::Session(s) = owner {
            self.by_client.remove(&(s, cl_ord_id));
        }
    }

    /// Cancel by exchange order id (background flow).
    pub fn cancel_exchange_order(&mut self, order_id: OrderId, offset_ns: u32) -> &EngineOutput {
        self.begin();
        self.cancel_into(order_id, offset_ns);
        &self.out
    }

    /// [`MatchingEngine::cancel_exchange_order`], appending to the current
    /// output.
    fn cancel_into(&mut self, order_id: OrderId, offset_ns: u32) {
        let Some(open) = self.open.get(order_id) else {
            return;
        };
        // audit:allow(hotpath-unwrap): every open order was admitted against a listed book
        let book = self.books.get_mut(&open.symbol).expect("listed");
        if book.cancel(order_id).is_some() {
            self.open.remove(order_id);
            if let Owner::Session(s) = open.owner {
                self.by_client.remove(&(s, open.cl_ord_id));
                self.out.replies.push(Reply {
                    session: s,
                    message: boe::Message::CancelAck {
                        cl_ord_id: open.cl_ord_id,
                    },
                });
            }
            self.out.feed.push(pitch::Message::DeleteOrder {
                offset_ns,
                order_id,
            });
        }
    }

    /// Reduce a resting order (background flow: partial cancel).
    pub fn reduce_exchange_order(
        &mut self,
        order_id: OrderId,
        by: Qty,
        offset_ns: u32,
    ) -> &EngineOutput {
        self.begin();
        let Some(open) = self.open.get(order_id) else {
            return &self.out;
        };
        // audit:allow(hotpath-unwrap): every open order was admitted against a listed book
        let book = self.books.get_mut(&open.symbol).expect("listed");
        match book.reduce(order_id, by) {
            Some(0) => {
                self.open.remove(order_id);
                self.out.feed.push(pitch::Message::DeleteOrder {
                    offset_ns,
                    order_id,
                });
            }
            Some(_) => {
                self.out.feed.push(pitch::Message::ReduceSize {
                    offset_ns,
                    order_id,
                    qty: by,
                });
            }
            None => {}
        }
        &self.out
    }

    /// An arbitrary open (background) order id, for workload generators
    /// that cancel/modify existing liquidity: the `k % n`-th smallest of
    /// the `n` open ids, so deterministic given `k`.
    pub fn sample_open_order(&self, k: usize) -> Option<OrderId> {
        let ids = &self.open.ids;
        (!ids.is_empty()).then(|| ids[k % ids.len()])
    }

    /// Process one order-entry message from `session`.
    pub fn handle_boe(&mut self, session: u32, msg: boe::Message, offset_ns: u32) -> &EngineOutput {
        self.begin();
        match msg {
            boe::Message::NewOrder {
                cl_ord_id,
                side,
                qty,
                symbol,
                price,
            } => self.submit_into(
                Owner::Session(session),
                cl_ord_id,
                symbol,
                side,
                price,
                qty,
                false,
                offset_ns,
            ),
            boe::Message::CancelOrder { cl_ord_id } => {
                match self.by_client.get(&(session, cl_ord_id)).copied() {
                    Some(exch_id) => self.cancel_into(exch_id, offset_ns),
                    // The §2 race: cancel arrived after the fill.
                    None => self
                        .out
                        .reject(session, cl_ord_id, boe::RejectReason::UnknownOrder),
                }
            }
            boe::Message::ModifyOrder {
                cl_ord_id,
                qty,
                price,
            } => {
                // Cancel/replace semantics: price moves lose time priority.
                match self.by_client.get(&(session, cl_ord_id)).copied() {
                    Some(exch_id) => {
                        let open = self.open.get(exch_id);
                        self.cancel_into(exch_id, offset_ns);
                        if let Some(open) = open {
                            // A modify keeps the original side; price
                            // changes go through cancel/replace.
                            self.submit_into(
                                Owner::Session(session),
                                cl_ord_id,
                                open.symbol,
                                open.side,
                                price,
                                qty,
                                false,
                                offset_ns,
                            );
                        }
                    }
                    None => self
                        .out
                        .reject(session, cl_ord_id, boe::RejectReason::UnknownOrder),
                }
            }
            boe::Message::Login { .. } | boe::Message::Heartbeat => {}
            // Exchange-to-firm messages arriving here are protocol errors.
            _ => self.out.reject(session, 0, boe::RejectReason::Session),
        }
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::new(s).unwrap()
    }

    fn engine() -> MatchingEngine {
        MatchingEngine::new([sym("SPY"), sym("QQQ")])
    }

    #[test]
    fn new_order_acks_and_publishes_add() {
        let mut e = engine();
        let out = e.submit(
            Owner::Session(1),
            100,
            sym("SPY"),
            Side::Buy,
            450_0000,
            10,
            false,
            5,
        );
        assert_eq!(out.replies.len(), 1);
        assert!(matches!(
            out.replies[0].message,
            boe::Message::OrderAck {
                cl_ord_id: 100,
                exch_ord_id: 1
            }
        ));
        assert_eq!(out.feed.len(), 1);
        assert!(matches!(
            out.feed[0],
            pitch::Message::AddOrder {
                order_id: 1,
                qty: 10,
                offset_ns: 5,
                ..
            }
        ));
        assert_eq!(e.open_orders(), 1);
    }

    #[test]
    fn unknown_symbol_rejected() {
        let mut e = engine();
        let out = e.submit(
            Owner::Session(1),
            7,
            sym("ZZZ"),
            Side::Buy,
            1_0000,
            1,
            false,
            0,
        );
        assert!(matches!(
            out.replies[0].message,
            boe::Message::OrderReject {
                reason: boe::RejectReason::UnknownSymbol,
                ..
            }
        ));
        assert!(out.feed.is_empty());
    }

    #[test]
    fn cross_fills_both_sessions_and_publishes_execution() {
        let mut e = engine();
        e.submit(
            Owner::Session(1),
            1,
            sym("SPY"),
            Side::Sell,
            450_0000,
            10,
            false,
            0,
        );
        let out = e.submit(
            Owner::Session(2),
            2,
            sym("SPY"),
            Side::Buy,
            450_0000,
            10,
            false,
            9,
        );
        // Ack to session 2, fill to session 1 (resting), fill to session 2.
        let kinds: Vec<_> = out.replies.iter().map(|r| (r.session, r.message)).collect();
        assert!(matches!(kinds[0], (2, boe::Message::OrderAck { .. })));
        assert!(kinds
            .iter()
            .any(|(s, m)| *s == 1 && matches!(m, boe::Message::Fill { leaves: 0, .. })));
        assert!(kinds
            .iter()
            .any(|(s, m)| *s == 2 && matches!(m, boe::Message::Fill { .. })));
        assert_eq!(out.feed.len(), 1);
        assert!(matches!(
            out.feed[0],
            pitch::Message::OrderExecuted {
                order_id: 1,
                qty: 10,
                offset_ns: 9,
                ..
            }
        ));
        assert_eq!(e.open_orders(), 0);
    }

    #[test]
    fn boe_roundtrip_cancel_and_delete() {
        let mut e = engine();
        let new = boe::Message::NewOrder {
            cl_ord_id: 5,
            side: Side::Buy,
            qty: 100,
            symbol: sym("QQQ"),
            price: 380_0000,
        };
        let out = e.handle_boe(9, new, 0);
        assert!(matches!(
            out.replies[0].message,
            boe::Message::OrderAck { .. }
        ));
        let out = e.handle_boe(9, boe::Message::CancelOrder { cl_ord_id: 5 }, 100);
        assert!(matches!(
            out.replies[0].message,
            boe::Message::CancelAck { cl_ord_id: 5 }
        ));
        assert!(matches!(
            out.feed[0],
            pitch::Message::DeleteOrder { offset_ns: 100, .. }
        ));
        // Cancel again: the unknown-order race reject.
        let out = e.handle_boe(9, boe::Message::CancelOrder { cl_ord_id: 5 }, 101);
        assert!(matches!(
            out.replies[0].message,
            boe::Message::OrderReject {
                reason: boe::RejectReason::UnknownOrder,
                ..
            }
        ));
    }

    #[test]
    fn cancel_after_fill_race_rejects() {
        let mut e = engine();
        e.handle_boe(
            1,
            boe::Message::NewOrder {
                cl_ord_id: 10,
                side: Side::Sell,
                qty: 5,
                symbol: sym("SPY"),
                price: 450_0000,
            },
            0,
        );
        // Background flow lifts the offer before the cancel arrives.
        e.submit(
            Owner::Background,
            0,
            sym("SPY"),
            Side::Buy,
            450_0000,
            5,
            true,
            1,
        );
        let out = e.handle_boe(1, boe::Message::CancelOrder { cl_ord_id: 10 }, 2);
        assert!(matches!(
            out.replies[0].message,
            boe::Message::OrderReject {
                reason: boe::RejectReason::UnknownOrder,
                ..
            }
        ));
    }

    #[test]
    fn background_flow_produces_feed_without_replies() {
        let mut e = engine();
        let out = e.submit(
            Owner::Background,
            0,
            sym("SPY"),
            Side::Buy,
            449_0000,
            100,
            false,
            3,
        );
        assert!(out.replies.is_empty());
        assert_eq!(out.feed.len(), 1);
        let id = match out.feed[0] {
            pitch::Message::AddOrder { order_id, .. } => order_id,
            ref other => panic!("{other:?}"),
        };
        let out = e.reduce_exchange_order(id, 40, 4);
        assert!(matches!(
            out.feed[0],
            pitch::Message::ReduceSize { qty: 40, .. }
        ));
        let out = e.reduce_exchange_order(id, 60, 5);
        assert!(matches!(out.feed[0], pitch::Message::DeleteOrder { .. }));
        assert_eq!(e.open_orders(), 0);
    }

    #[test]
    fn sample_open_order_cycles() {
        let mut e = engine();
        assert_eq!(e.sample_open_order(0), None);
        for i in 0..5 {
            e.submit(
                Owner::Background,
                0,
                sym("SPY"),
                Side::Buy,
                400_0000 - i,
                10,
                false,
                0,
            );
        }
        let a = e.sample_open_order(0).unwrap();
        let b = e.sample_open_order(1).unwrap();
        assert!(e.open_orders() == 5);
        let _ = (a, b);
    }

    #[test]
    fn modify_loses_priority_via_cancel_replace() {
        let mut e = engine();
        e.handle_boe(
            1,
            boe::Message::NewOrder {
                cl_ord_id: 1,
                side: Side::Buy,
                qty: 10,
                symbol: sym("SPY"),
                price: 450_0000,
            },
            0,
        );
        let out = e.handle_boe(
            1,
            boe::Message::ModifyOrder {
                cl_ord_id: 1,
                qty: 20,
                price: 451_0000,
            },
            1,
        );
        // Delete of the old order, ack + add of the replacement.
        assert!(out
            .feed
            .iter()
            .any(|m| matches!(m, pitch::Message::DeleteOrder { .. })));
        assert!(out.feed.iter().any(|m| matches!(
            m,
            pitch::Message::AddOrder {
                qty: 20,
                price: 451_0000,
                ..
            }
        )));
        assert_eq!(e.open_orders(), 1);
    }
}
