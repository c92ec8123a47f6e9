//! Property tests on the order book and matching engine: the invariants
//! every exchange relies on, under arbitrary operation sequences.

use std::collections::{BTreeMap, HashMap, VecDeque};

use proptest::prelude::*;

use tn_market::book::{Execution, OrderBook, OrderId, Price, Qty};
use tn_market::{MatchingEngine, Owner, SymbolDirectory};
use tn_wire::pitch::{Message, Side};

/// The reference book: a `BTreeMap` of `VecDeque` levels that scans a
/// level to cancel or reduce, and sums it for its size. The slab-backed
/// `OrderBook` must be indistinguishable from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefSubmit {
    /// Fills against resting orders, in match order.
    pub executions: Vec<Execution>,
    /// Quantity left posted on the book (0 if fully filled or IOC).
    pub posted: Qty,
}

#[derive(Debug, Clone)]
struct Resting {
    id: OrderId,
    qty: Qty,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Locator {
    side: Side,
    price: Price,
}

/// The book itself. One instance per symbol.
#[derive(Debug, Default)]
pub struct RefBook {
    /// Bids: highest price first (iterate via `.rev()`).
    bids: BTreeMap<Price, VecDeque<Resting>>,
    /// Asks: lowest price first.
    asks: BTreeMap<Price, VecDeque<Resting>>,
    locators: HashMap<OrderId, Locator>,
}

impl RefBook {
    /// An empty book.
    pub fn new() -> RefBook {
        RefBook::default()
    }

    /// Best bid (price, total displayed size).
    pub fn best_bid(&self) -> Option<(Price, Qty)> {
        self.bids
            .iter()
            .next_back()
            .map(|(&p, level)| (p, level_size(level)))
    }

    /// Best ask (price, total displayed size).
    pub fn best_ask(&self) -> Option<(Price, Qty)> {
        self.asks
            .iter()
            .next()
            .map(|(&p, level)| (p, level_size(level)))
    }

    /// Number of resting orders.
    pub fn open_orders(&self) -> usize {
        self.locators.len()
    }

    /// Total displayed size at a price on a side.
    pub fn depth_at(&self, side: Side, price: Price) -> Qty {
        let level = match side {
            Side::Buy => self.bids.get(&price),
            Side::Sell => self.asks.get(&price),
        };
        level.map(level_size).unwrap_or(0)
    }

    /// Submit a limit order. Marketable quantity executes immediately;
    /// the remainder posts unless `ioc` (immediate-or-cancel) is set.
    pub fn submit(
        &mut self,
        id: OrderId,
        side: Side,
        price: Price,
        mut qty: Qty,
        ioc: bool,
    ) -> RefSubmit {
        assert!(!self.locators.contains_key(&id), "duplicate order id {id}");
        let mut executions = Vec::new();
        // Match against the opposite side while crossed.
        loop {
            if qty == 0 {
                break;
            }
            let best = match side {
                Side::Buy => self
                    .asks
                    .iter()
                    .next()
                    .map(|(&p, _)| p)
                    .filter(|&p| p <= price),
                Side::Sell => self
                    .bids
                    .iter()
                    .next_back()
                    .map(|(&p, _)| p)
                    .filter(|&p| p >= price),
            };
            let Some(level_price) = best else {
                break;
            };
            let levels = match side {
                Side::Buy => &mut self.asks,
                Side::Sell => &mut self.bids,
            };
            let level = levels.get_mut(&level_price).expect("level exists");
            while qty > 0 {
                let Some(front) = level.front_mut() else {
                    break;
                };
                let traded = qty.min(front.qty);
                front.qty -= traded;
                qty -= traded;
                executions.push(Execution {
                    resting_id: front.id,
                    qty: traded,
                    price: level_price,
                    resting_leaves: front.qty,
                });
                if front.qty == 0 {
                    self.locators.remove(&front.id);
                    level.pop_front();
                }
            }
            if level.is_empty() {
                levels.remove(&level_price);
            }
        }
        let posted = if qty > 0 && !ioc {
            let levels = match side {
                Side::Buy => &mut self.bids,
                Side::Sell => &mut self.asks,
            };
            levels
                .entry(price)
                .or_default()
                .push_back(Resting { id, qty });
            self.locators.insert(id, Locator { side, price });
            qty
        } else {
            0
        };
        RefSubmit { executions, posted }
    }

    /// Cancel an open order; returns its remaining quantity if it existed.
    pub fn cancel(&mut self, id: OrderId) -> Option<Qty> {
        let loc = self.locators.remove(&id)?;
        let levels = match loc.side {
            Side::Buy => &mut self.bids,
            Side::Sell => &mut self.asks,
        };
        let level = levels.get_mut(&loc.price)?;
        let idx = level.iter().position(|r| r.id == id)?;
        let qty = level[idx].qty;
        level.remove(idx);
        if level.is_empty() {
            levels.remove(&loc.price);
        }
        Some(qty)
    }

    /// Reduce an order's quantity in place (keeps time priority).
    /// Returns the new remaining quantity, or `None` if unknown.
    pub fn reduce(&mut self, id: OrderId, by: Qty) -> Option<Qty> {
        let loc = *self.locators.get(&id)?;
        let levels = match loc.side {
            Side::Buy => &mut self.bids,
            Side::Sell => &mut self.asks,
        };
        let level = levels.get_mut(&loc.price)?;
        let idx = level.iter().position(|r| r.id == id)?;
        let r = &mut level[idx];
        if by >= r.qty {
            level.remove(idx);
            if level.is_empty() {
                levels.remove(&loc.price);
            }
            self.locators.remove(&id);
            Some(0)
        } else {
            r.qty -= by;
            Some(r.qty)
        }
    }

    /// Look up an open order's side, price and remaining quantity.
    pub fn lookup(&self, id: OrderId) -> Option<(Side, Price, Qty)> {
        let loc = self.locators.get(&id)?;
        let level = match loc.side {
            Side::Buy => self.bids.get(&loc.price)?,
            Side::Sell => self.asks.get(&loc.price)?,
        };
        let r = level.iter().find(|r| r.id == id)?;
        Some((loc.side, loc.price, r.qty))
    }
}

fn level_size(level: &VecDeque<Resting>) -> Qty {
    level.iter().map(|r| r.qty).sum()
}

/// Every operation the oracle test drives, with ids drawn from those
/// issued so far plus a few never issued.
#[derive(Debug, Clone)]
enum BookOp {
    Submit {
        side: Side,
        price: u64,
        qty: u32,
        ioc: bool,
    },
    Cancel {
        pick: usize,
    },
    Reduce {
        pick: usize,
        by: u32,
    },
}

/// Prices 99.90 ..= 100.10 in cent ticks: narrow enough that orders
/// cross, share levels and empty them.
const ORACLE_LEVELS: std::ops::RangeInclusive<u64> = 9_990..=10_010;

fn arb_book_op() -> impl Strategy<Value = BookOp> {
    let submit = || {
        (
            prop_oneof![Just(Side::Buy), Just(Side::Sell)],
            ORACLE_LEVELS,
            1u32..120,
            0u8..5,
        )
            .prop_map(|(side, price, qty, ioc)| BookOp::Submit {
                side,
                price: price * 100,
                qty,
                ioc: ioc == 0,
            })
    };
    // Half the operations submit; one in five submits is IOC.
    prop_oneof![
        submit(),
        submit(),
        any::<usize>().prop_map(|pick| BookOp::Cancel { pick }),
        (any::<usize>(), 1u32..80).prop_map(|(pick, by)| BookOp::Reduce { pick, by }),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    Submit {
        side: Side,
        price: u64,
        qty: u32,
        ioc: bool,
    },
    Cancel {
        idx: usize,
    },
    Reduce {
        idx: usize,
        by: u32,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            prop_oneof![Just(Side::Buy), Just(Side::Sell)],
            95_000u64..105_000,
            1u32..500,
            any::<bool>()
        )
            .prop_map(|(side, price, qty, ioc)| Op::Submit {
                side,
                price: price * 100,
                qty,
                ioc
            }),
        (any::<usize>()).prop_map(|idx| Op::Cancel { idx }),
        (any::<usize>(), 1u32..100).prop_map(|(idx, by)| Op::Reduce { idx, by }),
    ]
}

proptest! {
    /// The slab-backed book answers every query exactly as the reference
    /// book does, after every operation: submits (IOC or not, crossing
    /// or not), cancels and reductions of live, dead and never-issued ids.
    #[test]
    fn book_matches_reference(ops in proptest::collection::vec(arb_book_op(), 1..300)) {
        let mut book = OrderBook::new();
        let mut oracle = RefBook::new();
        let mut next_id: OrderId = 1;
        for op in ops {
            match op {
                BookOp::Submit { side, price, qty, ioc } => {
                    let want = oracle.submit(next_id, side, price, qty, ioc);
                    let got = book.submit(next_id, side, price, qty, ioc);
                    prop_assert_eq!(got.executions, &want.executions[..]);
                    prop_assert_eq!(got.posted, want.posted);
                    next_id += 1;
                }
                BookOp::Cancel { pick } => {
                    // Ids 1..next_id were issued; the next three never were.
                    let id = 1 + (pick as u64) % (next_id + 2);
                    prop_assert_eq!(book.cancel(id), oracle.cancel(id));
                }
                BookOp::Reduce { pick, by } => {
                    let id = 1 + (pick as u64) % (next_id + 2);
                    prop_assert_eq!(book.reduce(id, by), oracle.reduce(id, by));
                }
            }
            prop_assert_eq!(book.best_bid(), oracle.best_bid());
            prop_assert_eq!(book.best_ask(), oracle.best_ask());
            prop_assert_eq!(book.open_orders(), oracle.open_orders());
            for price in ORACLE_LEVELS.map(|p| p * 100) {
                for side in [Side::Buy, Side::Sell] {
                    prop_assert_eq!(book.depth_at(side, price), oracle.depth_at(side, price));
                }
            }
            for id in 1..next_id + 3 {
                prop_assert_eq!(book.lookup(id), oracle.lookup(id));
            }
        }
    }

    /// The book is never crossed after any operation sequence: matching
    /// must consume all marketable quantity before anything posts.
    #[test]
    fn book_never_crossed(ops in proptest::collection::vec(arb_op(), 1..200)) {
        let mut book = OrderBook::new();
        let mut live_ids: Vec<u64> = Vec::new();
        let mut next_id = 1u64;
        for op in ops {
            match op {
                Op::Submit { side, price, qty, ioc } => {
                    let r = book.submit(next_id, side, price, qty, ioc);
                    if r.posted > 0 {
                        live_ids.push(next_id);
                    }
                    // Executions never exceed the submitted quantity.
                    let executed: u32 = r.executions.iter().map(|e| e.qty).sum();
                    prop_assert!(executed + r.posted <= qty);
                    next_id += 1;
                }
                Op::Cancel { idx } => {
                    if !live_ids.is_empty() {
                        let id = live_ids[idx % live_ids.len()];
                        book.cancel(id);
                        live_ids.retain(|&l| l != id);
                    }
                }
                Op::Reduce { idx, by } => {
                    if !live_ids.is_empty() {
                        let id = live_ids[idx % live_ids.len()];
                        if book.reduce(id, by) == Some(0) {
                            live_ids.retain(|&l| l != id);
                        }
                    }
                }
            }
            if let (Some((bid, _)), Some((ask, _))) = (book.best_bid(), book.best_ask()) {
                prop_assert!(bid < ask, "book crossed: bid {bid} >= ask {ask}");
            }
        }
    }

    /// Engine feed-message conservation: every add is eventually matched
    /// by executions+reductions+deletes of no more than its size, and a
    /// book builder replaying the feed tracks the engine's own BBO.
    #[test]
    fn feed_replay_matches_engine_state(
        seeds in proptest::collection::vec(any::<u8>(), 20..150),
    ) {
        let dir = SymbolDirectory::synthetic(5);
        let symbol = dir.instruments()[0].symbol;
        let mut engine = MatchingEngine::new([symbol]);
        let mut builder = tn_feed::BookBuilder::new();
        let mut feed: Vec<Message> = Vec::new();
        let mut cl = 0u64;
        for s in seeds {
            cl += 1;
            let side = if s % 2 == 0 { Side::Buy } else { Side::Sell };
            let price = 100_0000 + u64::from(s % 16) * 100 - 800;
            let qty = u32::from(s % 50) + 1;
            let out = engine.submit(Owner::Background, cl, symbol, side, price, qty, s % 7 == 0, 0);
            feed.extend(out.feed.iter().copied());
            if s % 5 == 0 {
                if let Some(id) = engine.sample_open_order(s as usize) {
                    feed.extend(&engine.cancel_exchange_order(id, 0).feed);
                }
            }
        }
        for m in &feed {
            builder.apply(m);
        }
        // The replayed book's BBO equals the engine's book BBO.
        let book = engine.book(symbol).unwrap();
        let (bid, bid_sz, ask, ask_sz) = builder.bbo(symbol);
        prop_assert_eq!(book.best_bid().unwrap_or((0, 0)), (bid, bid_sz as u32));
        prop_assert_eq!(book.best_ask().unwrap_or((0, 0)), (ask, ask_sz as u32));
        // And it tracked exactly the open orders.
        prop_assert_eq!(builder.tracked_orders(), engine.open_orders());
        prop_assert_eq!(builder.stats().unknown_orders, 0);
    }
}
