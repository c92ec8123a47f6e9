//! Book building from the stateful PITCH stream.
//!
//! PITCH executions, reductions and deletes carry only order ids; the
//! receiver must remember each order's symbol, side, price and size from
//! its original add. The builder maintains that state plus per-symbol
//! aggregated price levels, and reports best-bid/offer changes — the
//! events Figure 2(b)/(c) count ("filtered to just those that affect the
//! best bid and offer prices or sizes").

use std::collections::BTreeMap;

use tn_sim::FastMap;
use tn_wire::pitch::{Message, Side};
use tn_wire::Symbol;

/// A change to a symbol's best bid or offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BboUpdate {
    /// The symbol whose top of book changed.
    pub symbol: Symbol,
    /// Side that changed.
    pub side: Side,
    /// New best price (0 when the side is empty).
    pub price: u64,
    /// New size at the best price (0 when empty).
    pub size: u64,
}

#[derive(Debug, Clone, Copy)]
struct TrackedOrder {
    symbol: Symbol,
    side: Side,
    price: u64,
    qty: u32,
}

#[derive(Debug, Default)]
struct SymbolBook {
    /// Aggregate displayed size per price level.
    bids: BTreeMap<u64, u64>,
    asks: BTreeMap<u64, u64>,
    /// Last published (price, size) per side, to suppress no-op updates.
    last_bid: Option<(u64, u64)>,
    last_ask: Option<(u64, u64)>,
}

impl SymbolBook {
    fn best(&self, side: Side) -> (u64, u64) {
        match side {
            Side::Buy => self
                .bids
                .iter()
                .next_back()
                .map(|(&p, &s)| (p, s))
                .unwrap_or((0, 0)),
            Side::Sell => self
                .asks
                .iter()
                .next()
                .map(|(&p, &s)| (p, s))
                .unwrap_or((0, 0)),
        }
    }

    fn apply(&mut self, side: Side, price: u64, delta: i64) {
        let levels = match side {
            Side::Buy => &mut self.bids,
            Side::Sell => &mut self.asks,
        };
        let entry = levels.entry(price).or_insert(0);
        let next = (*entry as i64 + delta).max(0) as u64;
        if next == 0 {
            levels.remove(&price);
        } else {
            *entry = next;
        }
    }
}

/// Builder statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Messages applied.
    pub applied: u64,
    /// Messages referencing unknown order ids (evidence of upstream gaps).
    pub unknown_orders: u64,
    /// BBO updates emitted.
    pub bbo_updates: u64,
}

/// The book builder.
#[derive(Debug, Default)]
pub struct BookBuilder {
    orders: FastMap<u64, TrackedOrder>,
    books: FastMap<Symbol, SymbolBook>,
    stats: BuildStats,
}

impl BookBuilder {
    /// Fresh builder.
    pub fn new() -> BookBuilder {
        BookBuilder::default()
    }

    /// Counters so far.
    pub fn stats(&self) -> BuildStats {
        self.stats
    }

    /// Orders currently tracked.
    pub fn tracked_orders(&self) -> usize {
        self.orders.len()
    }

    /// Current BBO for a symbol: `(bid_price, bid_size, ask_price,
    /// ask_size)`, zeros for empty sides.
    pub fn bbo(&self, symbol: Symbol) -> (u64, u64, u64, u64) {
        match self.books.get(&symbol) {
            Some(b) => {
                let (bp, bs) = b.best(Side::Buy);
                let (ap, asz) = b.best(Side::Sell);
                (bp, bs, ap, asz)
            }
            None => (0, 0, 0, 0),
        }
    }

    /// The symbol an order id belongs to, if tracked.
    pub fn symbol_of(&self, order_id: u64) -> Option<Symbol> {
        self.orders.get(&order_id).map(|o| o.symbol)
    }

    /// Apply one message; returns the BBO update it caused, if any.
    pub fn apply(&mut self, msg: &Message) -> Option<BboUpdate> {
        self.stats.applied += 1;
        let (symbol, side) = match *msg {
            Message::AddOrder {
                order_id,
                side,
                qty,
                symbol,
                price,
                ..
            } => {
                self.orders.insert(
                    order_id,
                    TrackedOrder {
                        symbol,
                        side,
                        price,
                        qty,
                    },
                );
                self.books
                    .entry(symbol)
                    .or_default()
                    .apply(side, price, i64::from(qty));
                (symbol, side)
            }
            Message::OrderExecuted { order_id, qty, .. }
            | Message::ReduceSize { order_id, qty, .. } => {
                let Some(mut o) = self.orders.get(&order_id).copied() else {
                    self.stats.unknown_orders += 1;
                    return None;
                };
                let delta = qty.min(o.qty);
                o.qty -= delta;
                if o.qty == 0 {
                    self.orders.remove(&order_id);
                } else {
                    self.orders.insert(order_id, o);
                }
                self.books
                    .entry(o.symbol)
                    .or_default()
                    .apply(o.side, o.price, -i64::from(delta));
                (o.symbol, o.side)
            }
            Message::DeleteOrder { order_id, .. } => {
                let Some(o) = self.orders.remove(&order_id) else {
                    self.stats.unknown_orders += 1;
                    return None;
                };
                self.books
                    .entry(o.symbol)
                    .or_default()
                    .apply(o.side, o.price, -i64::from(o.qty));
                (o.symbol, o.side)
            }
            Message::ModifyOrder {
                order_id,
                qty,
                price,
                ..
            } => {
                let Some(mut o) = self.orders.get(&order_id).copied() else {
                    self.stats.unknown_orders += 1;
                    return None;
                };
                let book = self.books.entry(o.symbol).or_default();
                book.apply(o.side, o.price, -i64::from(o.qty));
                book.apply(o.side, price, i64::from(qty));
                o.price = price;
                o.qty = qty;
                let (symbol, side) = (o.symbol, o.side);
                self.orders.insert(order_id, o);
                (symbol, side)
            }
            Message::Trade { .. } | Message::Time { .. } | Message::TradingStatus { .. } => {
                // Trades against hidden orders and status changes don't
                // move displayed books.
                return None;
            }
        };
        // Did the top of book change on that side?
        // audit:allow(hotpath-unwrap): books are created when a symbol is first seen; a miss is corrupted state worth a loud stop
        let book = self.books.get(&symbol).expect("book exists");
        let (price, size) = book.best(side);
        let update = BboUpdate {
            symbol,
            side,
            price,
            size,
        };
        // Track last-published BBO per (symbol, side) to suppress no-ops.
        let changed = self.note_bbo(update);
        if changed {
            self.stats.bbo_updates += 1;
            Some(update)
        } else {
            None
        }
    }

    fn note_bbo(&mut self, update: BboUpdate) -> bool {
        // Stored in the book struct to avoid another map.
        let book = self.books.entry(update.symbol).or_default();
        let slot = match update.side {
            Side::Buy => &mut book.last_bid,
            Side::Sell => &mut book.last_ask,
        };
        if *slot == Some((update.price, update.size)) {
            false
        } else {
            *slot = Some((update.price, update.size));
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::new(s).unwrap()
    }

    fn add(order_id: u64, side: Side, qty: u32, price: u64) -> Message {
        Message::AddOrder {
            offset_ns: 0,
            order_id,
            side,
            qty,
            symbol: sym("SPY"),
            price,
        }
    }

    #[test]
    fn adds_move_the_bbo() {
        let mut b = BookBuilder::new();
        let u = b.apply(&add(1, Side::Buy, 100, 449_0000)).unwrap();
        assert_eq!(
            u,
            BboUpdate {
                symbol: sym("SPY"),
                side: Side::Buy,
                price: 449_0000,
                size: 100
            }
        );
        // A better bid moves the top.
        let u = b.apply(&add(2, Side::Buy, 50, 450_0000)).unwrap();
        assert_eq!(u.price, 450_0000);
        assert_eq!(u.size, 50);
        // A worse bid does not.
        assert!(b.apply(&add(3, Side::Buy, 10, 448_0000)).is_none());
        assert_eq!(b.bbo(sym("SPY")), (450_0000, 50, 0, 0));
        assert_eq!(b.tracked_orders(), 3);
    }

    #[test]
    fn size_changes_at_the_top_are_bbo_updates() {
        let mut b = BookBuilder::new();
        b.apply(&add(1, Side::Sell, 100, 451_0000));
        b.apply(&add(2, Side::Sell, 60, 451_0000)); // same level, more size
        let u = b
            .apply(&Message::OrderExecuted {
                offset_ns: 0,
                order_id: 1,
                qty: 40,
                exec_id: 1,
            })
            .unwrap();
        assert_eq!(u.size, 120); // 160 - 40
        assert_eq!(u.price, 451_0000);
    }

    #[test]
    fn delete_exposes_next_level() {
        let mut b = BookBuilder::new();
        b.apply(&add(1, Side::Buy, 100, 450_0000));
        b.apply(&add(2, Side::Buy, 70, 449_0000));
        let u = b
            .apply(&Message::DeleteOrder {
                offset_ns: 0,
                order_id: 1,
            })
            .unwrap();
        assert_eq!(u.price, 449_0000);
        assert_eq!(u.size, 70);
        // Deleting the last order empties the side.
        let u = b
            .apply(&Message::DeleteOrder {
                offset_ns: 0,
                order_id: 2,
            })
            .unwrap();
        assert_eq!((u.price, u.size), (0, 0));
        assert_eq!(b.tracked_orders(), 0);
    }

    #[test]
    fn modify_moves_between_levels() {
        let mut b = BookBuilder::new();
        b.apply(&add(1, Side::Sell, 100, 452_0000));
        let u = b
            .apply(&Message::ModifyOrder {
                offset_ns: 0,
                order_id: 1,
                qty: 80,
                price: 451_0000,
            })
            .unwrap();
        assert_eq!(u.price, 451_0000);
        assert_eq!(u.size, 80);
        assert_eq!(b.bbo(sym("SPY")).2, 451_0000);
    }

    #[test]
    fn unknown_orders_are_counted_not_fatal() {
        let mut b = BookBuilder::new();
        assert!(b
            .apply(&Message::OrderExecuted {
                offset_ns: 0,
                order_id: 99,
                qty: 1,
                exec_id: 1
            })
            .is_none());
        assert!(b
            .apply(&Message::DeleteOrder {
                offset_ns: 0,
                order_id: 98
            })
            .is_none());
        assert_eq!(b.stats().unknown_orders, 2);
    }

    #[test]
    fn non_book_messages_are_ignored() {
        let mut b = BookBuilder::new();
        assert!(b.apply(&Message::Time { seconds: 1 }).is_none());
        assert!(b
            .apply(&Message::TradingStatus {
                offset_ns: 0,
                symbol: sym("SPY"),
                status: b'H'
            })
            .is_none());
        assert_eq!(b.stats().applied, 2);
        assert_eq!(b.stats().bbo_updates, 0);
    }

    #[test]
    fn depth_changes_below_top_do_not_emit() {
        let mut b = BookBuilder::new();
        b.apply(&add(1, Side::Buy, 100, 450_0000));
        b.apply(&add(2, Side::Buy, 100, 449_0000));
        // Reduce the second-level order: BBO unchanged.
        assert!(b
            .apply(&Message::ReduceSize {
                offset_ns: 0,
                order_id: 2,
                qty: 50
            })
            .is_none());
        assert_eq!(b.stats().bbo_updates, 1);
    }
}
