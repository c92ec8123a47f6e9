//! Firm-wide position tracking and regulatory market checks.
//!
//! §4.2: firms "track metrics akin to a firm-wide net position, for
//! regulatory reasons and to assess risk", and the SEC prohibits
//! advertising prices that *lock* (bid on one exchange equals another's
//! ask) or *cross* (bid exceeds another's ask), or *trading through*
//! better advertised prices. These checks need an aggregated view of all
//! exchanges — the "broad internal communication" requirement that shapes
//! the firm's network.

use std::collections::BTreeMap;

use tn_wire::{boe, norm};

/// Net-position tracker keyed by interned symbol id.
#[derive(Debug, Default)]
pub struct PositionTracker {
    positions: BTreeMap<u32, i64>,
    /// Signed notional traded (1e-4 dollars), for gross-exposure checks.
    notional: i128,
    fills: u64,
}

impl PositionTracker {
    /// Fresh tracker.
    pub fn new() -> PositionTracker {
        PositionTracker::default()
    }

    /// Apply a fill: positive `qty` for buys, negative for sells.
    pub fn on_fill(&mut self, symbol_id: u32, signed_qty: i64, price: u64) {
        *self.positions.entry(symbol_id).or_insert(0) += signed_qty;
        self.notional += i128::from(signed_qty) * i128::from(price);
        self.fills += 1;
    }

    /// Convenience: apply a BOE fill report for a known side.
    pub fn on_boe_fill(&mut self, symbol_id: u32, side: tn_wire::pitch::Side, fill: &boe::Message) {
        if let boe::Message::Fill { qty, price, .. } = *fill {
            let signed = match side {
                tn_wire::pitch::Side::Buy => i64::from(qty),
                tn_wire::pitch::Side::Sell => -i64::from(qty),
            };
            self.on_fill(symbol_id, signed, price);
        }
    }

    /// Net position in a symbol.
    pub fn position(&self, symbol_id: u32) -> i64 {
        self.positions.get(&symbol_id).copied().unwrap_or(0)
    }

    /// Firm-wide absolute position across symbols.
    pub fn gross_position(&self) -> u64 {
        self.positions.values().map(|p| p.unsigned_abs()).sum()
    }

    /// Signed notional (1e-4 dollars).
    pub fn notional(&self) -> i128 {
        self.notional
    }

    /// Fills applied.
    pub fn fills(&self) -> u64 {
        self.fills
    }
}

/// Side of the aggregated market used in compliance queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarketSide {
    /// Best bid across exchanges.
    Bid,
    /// Best ask across exchanges.
    Ask,
}

/// Condition of the national market for a symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarketCondition {
    /// Bid < ask everywhere: healthy.
    Normal,
    /// Some bid equals another exchange's ask.
    Locked,
    /// Some bid exceeds another exchange's ask.
    Crossed,
    /// Not enough quotes to judge.
    Unknown,
}

/// Aggregates per-exchange BBOs and answers the §4.2 regulatory queries.
#[derive(Debug, Default)]
pub struct ComplianceMonitor {
    /// (symbol, exchange) → (bid, ask); zero means absent.
    quotes: BTreeMap<(u32, u8), (i64, i64)>,
}

impl ComplianceMonitor {
    /// Fresh monitor.
    pub fn new() -> ComplianceMonitor {
        ComplianceMonitor::default()
    }

    /// Ingest a normalized BBO record.
    pub fn on_record(&mut self, r: &norm::Record) {
        if r.kind != norm::Kind::Bbo {
            return;
        }
        let entry = self
            .quotes
            .entry((r.symbol_id, r.exchange))
            .or_insert((0, 0));
        match r.side {
            b'B' => entry.0 = r.price,
            b'S' => entry.1 = r.price,
            _ => {}
        }
    }

    /// Best price across exchanges on one side, with its exchange. Ties
    /// go to the lowest exchange id.
    pub fn nbbo_side(&self, symbol_id: u32, side: MarketSide) -> Option<(u8, i64)> {
        let mut best: Option<(u8, i64)> = None;
        let quotes = self.quotes.range((symbol_id, 0)..=(symbol_id, u8::MAX));
        for (&(_, ex), &(bid, ask)) in quotes {
            let px = match side {
                MarketSide::Bid => bid,
                MarketSide::Ask => ask,
            };
            if px <= 0 {
                continue;
            }
            best = match (best, side) {
                (None, _) => Some((ex, px)),
                (Some((_, b)), MarketSide::Bid) if px > b => Some((ex, px)),
                (Some((_, b)), MarketSide::Ask) if px < b => Some((ex, px)),
                (b, _) => b,
            };
        }
        best
    }

    /// Classify the aggregated market for a symbol.
    pub fn condition(&self, symbol_id: u32) -> MarketCondition {
        let (Some((bid_ex, bid)), Some((ask_ex, ask))) = (
            self.nbbo_side(symbol_id, MarketSide::Bid),
            self.nbbo_side(symbol_id, MarketSide::Ask),
        ) else {
            return MarketCondition::Unknown;
        };
        if bid_ex == ask_ex {
            // A single exchange cannot lock itself (its engine matches).
            return MarketCondition::Normal;
        }
        if bid > ask {
            MarketCondition::Crossed
        } else if bid == ask {
            MarketCondition::Locked
        } else {
            MarketCondition::Normal
        }
    }

    /// Would posting `price` on `side` lock or cross the market?
    /// (The pre-trade check firms run before advertising a quote.)
    pub fn would_lock_or_cross(&self, symbol_id: u32, side: MarketSide, price: i64) -> bool {
        match side {
            MarketSide::Bid => match self.nbbo_side(symbol_id, MarketSide::Ask) {
                Some((_, ask)) => price >= ask,
                None => false,
            },
            MarketSide::Ask => match self.nbbo_side(symbol_id, MarketSide::Bid) {
                Some((_, bid)) => price <= bid,
                None => false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_wire::pitch::Side;

    fn bbo(symbol_id: u32, exchange: u8, side: u8, price: i64) -> norm::Record {
        norm::Record {
            kind: norm::Kind::Bbo,
            exchange,
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
    fn position_tracking() {
        let mut p = PositionTracker::new();
        p.on_fill(1, 100, 450_0000);
        p.on_fill(1, -30, 451_0000);
        p.on_fill(2, -50, 100_0000);
        assert_eq!(p.position(1), 70);
        assert_eq!(p.position(2), -50);
        assert_eq!(p.position(3), 0);
        assert_eq!(p.gross_position(), 120);
        assert_eq!(p.fills(), 3);
        let expected = 100i128 * 450_0000 - 30 * 451_0000 - 50 * 100_0000;
        assert_eq!(p.notional(), expected);
    }

    #[test]
    fn boe_fill_signs_by_side() {
        let mut p = PositionTracker::new();
        let fill = boe::Message::Fill {
            cl_ord_id: 1,
            exec_id: 1,
            qty: 10,
            price: 5_0000,
            leaves: 0,
        };
        p.on_boe_fill(7, Side::Buy, &fill);
        p.on_boe_fill(7, Side::Sell, &fill);
        assert_eq!(p.position(7), 0);
        assert_eq!(p.fills(), 2);
    }

    #[test]
    fn normal_locked_crossed() {
        let mut m = ComplianceMonitor::new();
        m.on_record(&bbo(1, 1, b'B', 100_0000));
        m.on_record(&bbo(1, 1, b'S', 100_1000));
        assert_eq!(m.condition(1), MarketCondition::Normal);
        // Exchange 2 bids exactly exchange 1's ask: locked.
        m.on_record(&bbo(1, 2, b'B', 100_1000));
        assert_eq!(m.condition(1), MarketCondition::Locked);
        // Exchange 2 bids through it: crossed.
        m.on_record(&bbo(1, 2, b'B', 100_2000));
        assert_eq!(m.condition(1), MarketCondition::Crossed);
        assert_eq!(m.condition(42), MarketCondition::Unknown);
    }

    #[test]
    fn nbbo_aggregation_picks_best_sides() {
        let mut m = ComplianceMonitor::new();
        m.on_record(&bbo(1, 1, b'B', 99_0000));
        m.on_record(&bbo(1, 2, b'B', 100_0000));
        m.on_record(&bbo(1, 1, b'S', 101_0000));
        m.on_record(&bbo(1, 2, b'S', 100_5000));
        assert_eq!(m.nbbo_side(1, MarketSide::Bid), Some((2, 100_0000)));
        assert_eq!(m.nbbo_side(1, MarketSide::Ask), Some((2, 100_5000)));
    }

    /// The scan `nbbo_side` made before it read only the symbol's range:
    /// every quote of every symbol, kept verbatim as the oracle.
    fn nbbo_side_by_full_scan(
        quotes: &BTreeMap<(u32, u8), (i64, i64)>,
        symbol_id: u32,
        side: MarketSide,
    ) -> Option<(u8, i64)> {
        let mut best: Option<(u8, i64)> = None;
        for (&(s, ex), &(bid, ask)) in quotes {
            if s != symbol_id {
                continue;
            }
            let px = match side {
                MarketSide::Bid => bid,
                MarketSide::Ask => ask,
            };
            if px <= 0 {
                continue;
            }
            best = match (best, side) {
                (None, _) => Some((ex, px)),
                (Some((_, b)), MarketSide::Bid) if px > b => Some((ex, px)),
                (Some((_, b)), MarketSide::Ask) if px < b => Some((ex, px)),
                (b, _) => b,
            };
        }
        best
    }

    proptest::proptest! {
        /// Random BBO records (and a few that are not BBOs) on a handful
        /// of symbols and exchanges, the extreme exchange ids included,
        /// with prices that repeat so ties occur; then queries on every
        /// symbol up to two past the last quoted one, on both sides.
        #[test]
        fn nbbo_side_matches_the_full_scan(
            records in proptest::collection::vec(
                (0..4u32, 0..5usize, 0..3usize, -1..4i64, 0..8u8),
                0..64,
            )
        ) {
            let mut m = ComplianceMonitor::new();
            for (symbol_id, exchange, side, price, kind) in records {
                let exchange = [0, 1, 2, 254, u8::MAX][exchange];
                let side = [b'B', b'S', b'X'][side];
                let mut r = bbo(symbol_id, exchange, side, price);
                if kind == 0 {
                    r.kind = norm::Kind::Trade;
                }
                m.on_record(&r);
            }
            for symbol_id in 0..6 {
                for side in [MarketSide::Bid, MarketSide::Ask] {
                    proptest::prop_assert_eq!(
                        m.nbbo_side(symbol_id, side),
                        nbbo_side_by_full_scan(&m.quotes, symbol_id, side)
                    );
                }
            }
        }
    }

    #[test]
    fn pre_trade_check_prevents_locking() {
        let mut m = ComplianceMonitor::new();
        m.on_record(&bbo(1, 1, b'S', 100_0000));
        assert!(m.would_lock_or_cross(1, MarketSide::Bid, 100_0000)); // lock
        assert!(m.would_lock_or_cross(1, MarketSide::Bid, 100_5000)); // cross
        assert!(!m.would_lock_or_cross(1, MarketSide::Bid, 99_9000)); // fine
        m.on_record(&bbo(1, 2, b'B', 99_0000));
        assert!(m.would_lock_or_cross(1, MarketSide::Ask, 99_0000));
        assert!(!m.would_lock_or_cross(1, MarketSide::Ask, 99_1000));
        // No quotes on the far side: nothing to lock against.
        assert!(!m.would_lock_or_cross(2, MarketSide::Bid, 10_000_000));
    }
}
