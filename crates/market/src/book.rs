//! Price-time-priority limit order book.
//!
//! The core data structure of every exchange matching engine. Orders rest
//! at price levels; incoming marketable orders execute against the
//! opposite side best-first, oldest-first. The book reports BBO changes
//! so feed publication can be driven directly off book mutations.
//!
//! ## Layout
//!
//! Every resting order of the book lives in one slab, `orders`. A price
//! level is an intrusive FIFO list over that slab — `{ head, tail, total }`
//! in a `BTreeMap` per side — so creating a level allocates nothing, a
//! cancel or reduce unlinks its slot in O(1), and the displayed size at a
//! level is a cached sum. Freed slots are threaded into a free list and
//! reused before the slab grows.

use std::collections::BTreeMap;

use tn_sim::FastMap;
use tn_wire::pitch::Side;

/// Integer price in 1e-4 dollars (the PITCH long convention).
pub type Price = u64;
/// Order quantity.
pub type Qty = u32;
/// Exchange-assigned order id.
pub type OrderId = u64;

/// A fill produced by matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Execution {
    /// The resting order that traded.
    pub resting_id: OrderId,
    /// Executed quantity.
    pub qty: Qty,
    /// Execution price (the resting order's price).
    pub price: Price,
    /// Remaining quantity on the resting order after this execution.
    pub resting_leaves: Qty,
}

/// Outcome of submitting an order, lent from a buffer the book owns: it
/// lives until the book's next mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitResult<'a> {
    /// Fills against resting orders, in match order.
    pub executions: &'a [Execution],
    /// Quantity left posted on the book (0 if fully filled or IOC).
    pub posted: Qty,
}

/// End of a level list (and of the free list).
const NIL: u32 = u32::MAX;

/// One slab slot: a resting order linked into its level, or a free slot
/// linked into the free list through `next`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: OrderId,
    qty: Qty,
    prev: u32,
    next: u32,
}

/// A price level: the ends of its FIFO list and its displayed size.
#[derive(Debug, Clone, Copy)]
struct Level {
    head: u32,
    tail: u32,
    total: Qty,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Locator {
    side: Side,
    price: Price,
    slot: u32,
}

/// The book itself. One instance per symbol.
#[derive(Debug)]
pub struct OrderBook {
    /// Bids: highest price first (iterate via `.rev()`).
    bids: BTreeMap<Price, Level>,
    /// Asks: lowest price first.
    asks: BTreeMap<Price, Level>,
    locators: FastMap<OrderId, Locator>,
    orders: Vec<Slot>,
    free: u32,
    /// The last submit's fills, lent out by [`SubmitResult`].
    executions: Vec<Execution>,
}

impl Default for OrderBook {
    fn default() -> OrderBook {
        OrderBook {
            bids: BTreeMap::new(),
            asks: BTreeMap::new(),
            locators: FastMap::default(),
            orders: Vec::new(),
            free: NIL,
            executions: Vec::new(),
        }
    }
}

impl OrderBook {
    /// An empty book.
    pub fn new() -> OrderBook {
        OrderBook::default()
    }

    /// Best bid (price, total displayed size).
    pub fn best_bid(&self) -> Option<(Price, Qty)> {
        self.bids.last_key_value().map(|(&p, l)| (p, l.total))
    }

    /// Best ask (price, total displayed size).
    pub fn best_ask(&self) -> Option<(Price, Qty)> {
        self.asks.first_key_value().map(|(&p, l)| (p, l.total))
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
        level.map_or(0, |l| l.total)
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
    ) -> SubmitResult<'_> {
        assert!(!self.locators.contains_key(&id), "duplicate order id {id}");
        self.executions.clear();
        let (opposite, own) = match side {
            Side::Buy => (&mut self.asks, &mut self.bids),
            Side::Sell => (&mut self.bids, &mut self.asks),
        };
        // Match against the opposite side while crossed.
        while qty > 0 {
            let best = match side {
                Side::Buy => opposite.first_entry().filter(|e| *e.key() <= price),
                Side::Sell => opposite.last_entry().filter(|e| *e.key() >= price),
            };
            let Some(mut entry) = best else {
                break;
            };
            let level_price = *entry.key();
            let level = entry.get_mut();
            while qty > 0 && level.head != NIL {
                let slot = level.head;
                let front = &mut self.orders[slot as usize];
                let traded = qty.min(front.qty);
                front.qty -= traded;
                level.total -= traded;
                qty -= traded;
                self.executions.push(Execution {
                    resting_id: front.id,
                    qty: traded,
                    price: level_price,
                    resting_leaves: front.qty,
                });
                if front.qty == 0 {
                    self.locators.remove(&front.id);
                    unlink(&mut self.orders, level, slot);
                    release(&mut self.orders, &mut self.free, slot);
                }
            }
            if level.head == NIL {
                entry.remove();
            }
        }
        let posted = if qty > 0 && !ioc {
            let slot = acquire(&mut self.orders, &mut self.free, id, qty);
            let level = own.entry(price).or_insert(Level {
                head: NIL,
                tail: NIL,
                total: 0,
            });
            push_back(&mut self.orders, level, slot);
            self.locators.insert(id, Locator { side, price, slot });
            qty
        } else {
            0
        };
        SubmitResult {
            executions: &self.executions,
            posted,
        }
    }

    /// Cancel an open order; returns its remaining quantity if it existed.
    pub fn cancel(&mut self, id: OrderId) -> Option<Qty> {
        let loc = self.locators.remove(&id)?;
        let qty = self.orders[loc.slot as usize].qty;
        self.remove_slot(loc);
        Some(qty)
    }

    /// Reduce an order's quantity in place (keeps time priority).
    /// Returns the new remaining quantity, or `None` if unknown.
    pub fn reduce(&mut self, id: OrderId, by: Qty) -> Option<Qty> {
        let loc = *self.locators.get(&id)?;
        let order = &mut self.orders[loc.slot as usize];
        if by >= order.qty {
            self.locators.remove(&id);
            self.remove_slot(loc);
            return Some(0);
        }
        order.qty -= by;
        let left = order.qty;
        let levels = match loc.side {
            Side::Buy => &mut self.bids,
            Side::Sell => &mut self.asks,
        };
        if let Some(level) = levels.get_mut(&loc.price) {
            level.total -= by;
        }
        Some(left)
    }

    /// Look up an open order's side, price and remaining quantity.
    pub fn lookup(&self, id: OrderId) -> Option<(Side, Price, Qty)> {
        let loc = self.locators.get(&id)?;
        Some((loc.side, loc.price, self.orders[loc.slot as usize].qty))
    }

    /// Unlink a located order from its level, drop the level if that
    /// emptied it, and free the slot. The locator is already gone.
    fn remove_slot(&mut self, loc: Locator) {
        let qty = self.orders[loc.slot as usize].qty;
        let levels = match loc.side {
            Side::Buy => &mut self.bids,
            Side::Sell => &mut self.asks,
        };
        if let Some(level) = levels.get_mut(&loc.price) {
            level.total -= qty;
            unlink(&mut self.orders, level, loc.slot);
            if level.head == NIL {
                levels.remove(&loc.price);
            }
        }
        release(&mut self.orders, &mut self.free, loc.slot);
    }
}

/// A slot holding `(id, qty)`, unlinked: the free list's head if there is
/// one, else a new slot at the end of the slab.
fn acquire(orders: &mut Vec<Slot>, free: &mut u32, id: OrderId, qty: Qty) -> u32 {
    let slot = Slot {
        id,
        qty,
        prev: NIL,
        next: NIL,
    };
    if *free == NIL {
        orders.push(slot);
        return (orders.len() - 1) as u32;
    }
    let at = *free;
    *free = orders[at as usize].next;
    orders[at as usize] = slot;
    at
}

/// Put an unlinked slot on the free list.
fn release(orders: &mut [Slot], free: &mut u32, slot: u32) {
    orders[slot as usize].next = *free;
    *free = slot;
}

/// Append `slot` to the back of `level`'s list.
fn push_back(orders: &mut [Slot], level: &mut Level, slot: u32) {
    orders[slot as usize].prev = level.tail;
    orders[slot as usize].next = NIL;
    if level.tail == NIL {
        level.head = slot;
    } else {
        orders[level.tail as usize].next = slot;
    }
    level.tail = slot;
    level.total += orders[slot as usize].qty;
}

/// Detach `slot` from `level`'s list (its qty is not touched).
fn unlink(orders: &mut [Slot], level: &mut Level, slot: u32) {
    let Slot { prev, next, .. } = orders[slot as usize];
    if prev == NIL {
        level.head = next;
    } else {
        orders[prev as usize].next = next;
    }
    if next == NIL {
        level.tail = prev;
    } else {
        orders[next as usize].prev = prev;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn posting_and_bbo() {
        let mut b = OrderBook::new();
        assert_eq!(b.best_bid(), None);
        let r = b.submit(1, Side::Buy, 100_0000, 100, false);
        assert!(r.executions.is_empty());
        assert_eq!(r.posted, 100);
        b.submit(2, Side::Buy, 101_0000, 50, false);
        b.submit(3, Side::Sell, 102_0000, 75, false);
        assert_eq!(b.best_bid(), Some((101_0000, 50)));
        assert_eq!(b.best_ask(), Some((102_0000, 75)));
        assert_eq!(b.open_orders(), 3);
        assert_eq!(b.depth_at(Side::Buy, 100_0000), 100);
    }

    #[test]
    fn price_time_priority_matching() {
        let mut b = OrderBook::new();
        b.submit(1, Side::Sell, 100_0000, 30, false); // first at best
        b.submit(2, Side::Sell, 100_0000, 30, false); // second at best
        b.submit(3, Side::Sell, 99_0000, 30, false); // better price
        let r = b.submit(10, Side::Buy, 100_0000, 70, false);
        // Best price first (99), then time priority at 100 (id 1, then 2).
        assert_eq!(r.executions.len(), 3);
        assert_eq!(
            r.executions[0],
            Execution {
                resting_id: 3,
                qty: 30,
                price: 99_0000,
                resting_leaves: 0
            }
        );
        assert_eq!(
            r.executions[1],
            Execution {
                resting_id: 1,
                qty: 30,
                price: 100_0000,
                resting_leaves: 0
            }
        );
        assert_eq!(
            r.executions[2],
            Execution {
                resting_id: 2,
                qty: 10,
                price: 100_0000,
                resting_leaves: 20
            }
        );
        assert_eq!(r.posted, 0);
        assert_eq!(b.best_ask(), Some((100_0000, 20)));
    }

    #[test]
    fn partial_fill_posts_remainder() {
        let mut b = OrderBook::new();
        b.submit(1, Side::Sell, 100_0000, 40, false);
        let r = b.submit(2, Side::Buy, 100_0000, 100, false);
        assert_eq!(r.executions.len(), 1);
        assert_eq!(r.posted, 60);
        assert_eq!(b.best_bid(), Some((100_0000, 60)));
        assert_eq!(b.best_ask(), None);
    }

    #[test]
    fn ioc_does_not_post() {
        let mut b = OrderBook::new();
        let r = b.submit(1, Side::Buy, 100_0000, 10, true);
        assert_eq!(r.posted, 0);
        assert_eq!(b.open_orders(), 0);
        b.submit(2, Side::Sell, 100_0000, 5, false);
        let r = b.submit(3, Side::Buy, 100_0000, 10, true);
        assert_eq!(r.executions.len(), 1);
        assert_eq!(r.executions[0].qty, 5);
        assert_eq!(r.posted, 0);
    }

    #[test]
    fn no_trade_through_uncrossed_prices() {
        let mut b = OrderBook::new();
        b.submit(1, Side::Sell, 101_0000, 10, false);
        let r = b.submit(2, Side::Buy, 100_0000, 10, false);
        assert!(r.executions.is_empty());
        assert_eq!(r.posted, 10);
        // Both orders rest; the book is locked at no point (bid < ask).
        assert!(b.best_bid().unwrap().0 < b.best_ask().unwrap().0);
    }

    #[test]
    fn cancel_and_reduce() {
        let mut b = OrderBook::new();
        b.submit(1, Side::Buy, 100_0000, 100, false);
        b.submit(2, Side::Buy, 100_0000, 50, false);
        assert_eq!(b.cancel(1), Some(100));
        assert_eq!(b.cancel(1), None); // idempotent
        assert_eq!(b.best_bid(), Some((100_0000, 50)));
        assert_eq!(b.reduce(2, 20), Some(30));
        assert_eq!(b.best_bid(), Some((100_0000, 30)));
        assert_eq!(b.reduce(2, 30), Some(0)); // reduce-to-zero removes
        assert_eq!(b.best_bid(), None);
        assert_eq!(b.reduce(2, 1), None);
        assert_eq!(b.open_orders(), 0);
    }

    #[test]
    fn reduce_keeps_time_priority() {
        let mut b = OrderBook::new();
        b.submit(1, Side::Sell, 100_0000, 100, false);
        b.submit(2, Side::Sell, 100_0000, 100, false);
        b.reduce(1, 50);
        let r = b.submit(3, Side::Buy, 100_0000, 60, false);
        // Order 1 still matches first despite the reduction.
        assert_eq!(r.executions[0].resting_id, 1);
        assert_eq!(r.executions[0].qty, 50);
        assert_eq!(r.executions[1].resting_id, 2);
        assert_eq!(r.executions[1].qty, 10);
    }

    #[test]
    fn lookup_reflects_state() {
        let mut b = OrderBook::new();
        b.submit(1, Side::Sell, 100_0000, 100, false);
        assert_eq!(b.lookup(1), Some((Side::Sell, 100_0000, 100)));
        b.submit(2, Side::Buy, 100_0000, 40, false);
        assert_eq!(b.lookup(1), Some((Side::Sell, 100_0000, 60)));
        b.cancel(1);
        assert_eq!(b.lookup(1), None);
    }

    #[test]
    #[should_panic(expected = "duplicate order id")]
    fn duplicate_ids_rejected() {
        let mut b = OrderBook::new();
        b.submit(1, Side::Buy, 1, 1, false);
        b.submit(1, Side::Buy, 1, 1, false);
    }
}
