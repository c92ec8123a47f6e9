//! The normalizer core: native feed in, normalized records out.
//!
//! §2: "The normalizer's purpose is to convert from each exchange's
//! format to an internal standard format, and also to re-partition the
//! data, again according to some standard." This module is that
//! transformation as a pure state machine; `tn-trading` wraps it in a
//! simulation node with service-time modeling.

use tn_sim::FastMap;
use tn_wire::norm;
use tn_wire::pitch::{Message, Side};
use tn_wire::{Result, Symbol};

use crate::arb::Arbiter;
use crate::bookbuild::BookBuilder;

/// Maps a symbol to the firm's internal partition.
pub trait Repartition {
    /// Partition for `symbol` (dense, `< partitions()`).
    fn partition_for(&self, symbol: Symbol) -> u16;
    /// Total partitions.
    fn partitions(&self) -> u16;
}

/// FNV-hash repartitioning over a fixed count (the firm-internal default;
/// the paper notes one strategy's partition count growing 600 → 1300).
#[derive(Debug, Clone, Copy)]
pub struct HashRepartition {
    /// Partition count.
    pub partitions: u16,
}

impl Repartition for HashRepartition {
    fn partition_for(&self, symbol: Symbol) -> u16 {
        let mut h = 0xcbf29ce484222325u64;
        for b in symbol.0 {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        (h % u64::from(self.partitions.max(1))) as u16
    }

    fn partitions(&self) -> u16 {
        self.partitions
    }
}

/// A normalized record tagged with its internal partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NormalizerOutput {
    /// Internal partition the record belongs on.
    pub partition: u16,
    /// The record.
    pub record: norm::Record,
}

/// Interns symbols to dense ids on first sight.
pub trait SymbolInterner {
    /// Stable id for `symbol`.
    fn intern(&mut self, symbol: Symbol) -> u32;
}

/// A simple growable interner.
#[derive(Debug, Default)]
pub struct MapInterner {
    map: FastMap<Symbol, u32>,
}

impl SymbolInterner for MapInterner {
    fn intern(&mut self, symbol: Symbol) -> u32 {
        let next = self.map.len() as u32;
        *self.map.entry(symbol).or_insert(next)
    }
}

impl MapInterner {
    /// Pre-assign ids in iteration order so they match a firm-wide
    /// dictionary (strategies must agree with normalizers on ids).
    pub fn preload(&mut self, symbols: impl IntoIterator<Item = Symbol>) {
        for s in symbols {
            self.intern(s);
        }
    }
}

/// Normalizer statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NormStats {
    /// Feed packets consumed (post-arbitration).
    pub packets_in: u64,
    /// Native messages consumed.
    pub messages_in: u64,
    /// Normalized records produced.
    pub records_out: u64,
}

/// The normalizer core for one exchange's feed: the merge stage
/// (A/B arbitration), then decode into normalized records.
pub struct NormalizerCore<R: Repartition> {
    arbiter: Arbiter,
    decode: Decode<R>,
    stats: NormStats,
    /// Records of the last packet, lent until the next.
    out: Vec<NormalizerOutput>,
    /// Emit depth deltas in addition to BBO updates.
    pub emit_depth: bool,
}

/// The decode stage: book state, symbol ids and the partition map. Apart
/// from the arbiter, so it can run over the messages the arbiter lends.
struct Decode<R: Repartition> {
    exchange_id: u8,
    builder: BookBuilder,
    interner: MapInterner,
    repartition: R,
}

impl<R: Repartition> NormalizerCore<R> {
    /// A normalizer for `exchange_id`'s feed, repartitioning with `r`.
    pub fn new(exchange_id: u8, repartition: R) -> NormalizerCore<R> {
        NormalizerCore {
            arbiter: Arbiter::new(),
            decode: Decode {
                exchange_id,
                builder: BookBuilder::new(),
                interner: MapInterner::default(),
                repartition,
            },
            stats: NormStats::default(),
            out: Vec::new(),
            emit_depth: false,
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> NormStats {
        self.stats
    }

    /// Arbitration state (gaps etc.).
    pub fn arbiter(&self) -> &Arbiter {
        &self.arbiter
    }

    /// Mirror the inner arbiter's counters into a metrics registry.
    pub fn set_metrics(&mut self, metrics: &tn_sim::Metrics) {
        self.arbiter.set_metrics(metrics);
    }

    /// Pre-assign symbol ids in iteration order (to match a firm-wide
    /// dictionary shared with strategies).
    pub fn preload_symbols(&mut self, symbols: impl IntoIterator<Item = Symbol>) {
        self.decode.interner.preload(symbols);
    }

    /// Process one feed packet (UDP payload from either A or B side).
    /// `src_time_ns` is the receive timestamp propagated into records.
    /// Lends the records it produced (none for a duplicate) until the
    /// next call.
    pub fn on_packet(&mut self, payload: &[u8], src_time_ns: u64) -> Result<&[NormalizerOutput]> {
        self.out.clear();
        if let Some(msgs) = self.arbiter.offer(payload)? {
            self.stats.packets_in += 1;
            self.stats.messages_in += msgs.len() as u64;
            for msg in msgs {
                self.decode
                    .normalize(msg, src_time_ns, self.emit_depth, &mut self.out);
            }
            self.stats.records_out += self.out.len() as u64;
        }
        Ok(&self.out)
    }

    /// The records the last [`on_packet`](NormalizerCore::on_packet)
    /// produced.
    pub fn outputs(&self) -> &[NormalizerOutput] {
        &self.out
    }
}

impl<R: Repartition> Decode<R> {
    fn normalize(
        &mut self,
        msg: &Message,
        src_time_ns: u64,
        emit_depth: bool,
        out: &mut Vec<NormalizerOutput>,
    ) {
        // Resolve the symbol before mutating the book (deletes forget it).
        let symbol = msg
            .symbol()
            .or_else(|| msg.order_id().and_then(|id| self.builder.symbol_of(id)));
        // Trades print directly.
        if let Message::Trade {
            side,
            qty,
            price,
            exec_id,
            ..
        } = *msg
        {
            if let Some(symbol) = symbol {
                let symbol_id = self.interner.intern(symbol);
                out.push(self.make(
                    symbol,
                    norm::Record {
                        kind: norm::Kind::Trade,
                        exchange: self.exchange_id,
                        side: side_byte(side),
                        flags: 0,
                        symbol_id,
                        price: price as i64,
                        size: u64::from(qty) as u32,
                        aux: exec_id as u32,
                        src_time_ns,
                    },
                ));
            }
            return;
        }
        if let Message::TradingStatus { symbol, status, .. } = *msg {
            let symbol_id = self.interner.intern(symbol);
            out.push(self.make(
                symbol,
                norm::Record {
                    kind: norm::Kind::Status,
                    exchange: self.exchange_id,
                    side: status,
                    flags: 0,
                    symbol_id,
                    price: 0,
                    size: 0,
                    aux: 0,
                    src_time_ns,
                },
            ));
            return;
        }
        let bbo = self.builder.apply(msg);
        if let Some(u) = bbo {
            let symbol_id = self.interner.intern(u.symbol);
            let (_, bid_size, _, ask_size) = self.builder.bbo(u.symbol);
            let aux = match u.side {
                Side::Buy => ask_size,
                Side::Sell => bid_size,
            } as u32;
            out.push(self.make(
                u.symbol,
                norm::Record {
                    kind: norm::Kind::Bbo,
                    exchange: self.exchange_id,
                    side: side_byte(u.side),
                    flags: 0,
                    symbol_id,
                    price: u.price as i64,
                    size: u.size as u32,
                    aux,
                    src_time_ns,
                },
            ));
        } else if emit_depth {
            if let Some(symbol) = symbol {
                let symbol_id = self.interner.intern(symbol);
                out.push(self.make(
                    symbol,
                    norm::Record {
                        kind: norm::Kind::BookDelta,
                        exchange: self.exchange_id,
                        side: 0,
                        flags: 0,
                        symbol_id,
                        price: 0,
                        size: 0,
                        aux: 0,
                        src_time_ns,
                    },
                ));
            }
        }
    }

    fn make(&self, symbol: Symbol, record: norm::Record) -> NormalizerOutput {
        NormalizerOutput {
            partition: self.repartition.partition_for(symbol),
            record,
        }
    }
}

fn side_byte(side: Side) -> u8 {
    match side {
        Side::Buy => b'B',
        Side::Sell => b'S',
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_wire::pitch::PacketBuilder;

    fn sym(s: &str) -> Symbol {
        Symbol::new(s).unwrap()
    }

    fn packet(first_seq: u32, msgs: &[Message]) -> Vec<u8> {
        let mut pb = PacketBuilder::new(0, first_seq, 1400);
        for m in msgs {
            pb.push(m);
        }
        pb.flush().unwrap()
    }

    fn add(order_id: u64, side: Side, qty: u32, price: u64, s: &str) -> Message {
        Message::AddOrder {
            offset_ns: 0,
            order_id,
            side,
            qty,
            symbol: sym(s),
            price,
        }
    }

    #[test]
    fn bbo_records_flow_through() {
        let mut n = NormalizerCore::new(2, HashRepartition { partitions: 8 });
        let p = packet(1, &[add(1, Side::Buy, 100, 450_0000, "SPY")]);
        let out = n.on_packet(&p, 34_200_000_000_123).unwrap();
        assert_eq!(out.len(), 1);
        let r = out[0].record;
        assert_eq!(r.kind, norm::Kind::Bbo);
        assert_eq!(r.exchange, 2);
        assert_eq!(r.side, b'B');
        assert_eq!(r.price, 450_0000);
        assert_eq!(r.size, 100);
        assert_eq!(r.src_time_ns, 34_200_000_000_123);
        let expected = HashRepartition { partitions: 8 }.partition_for(sym("SPY"));
        assert_eq!(out[0].partition, expected);
    }

    #[test]
    fn duplicates_produce_nothing() {
        let mut n = NormalizerCore::new(2, HashRepartition { partitions: 8 });
        let p = packet(1, &[add(1, Side::Buy, 100, 450_0000, "SPY")]);
        assert_eq!(n.on_packet(&p, 0).unwrap().len(), 1);
        assert_eq!(n.on_packet(&p, 0).unwrap().len(), 0);
        assert_eq!(n.stats().packets_in, 1);
        assert_eq!(n.arbiter().stats().duplicates, 1);
    }

    #[test]
    fn trades_and_status_normalize() {
        let mut n = NormalizerCore::new(3, HashRepartition { partitions: 4 });
        let msgs = [
            Message::Trade {
                offset_ns: 0,
                order_id: 9,
                side: Side::Sell,
                qty: 10,
                symbol: sym("QQQ"),
                price: 380_0000,
                exec_id: 77,
            },
            Message::TradingStatus {
                offset_ns: 0,
                symbol: sym("QQQ"),
                status: b'H',
            },
        ];
        let out = n.on_packet(&packet(1, &msgs), 5).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].record.kind, norm::Kind::Trade);
        assert_eq!(out[0].record.aux, 77);
        assert_eq!(out[1].record.kind, norm::Kind::Status);
        assert_eq!(out[1].record.side, b'H');
        // Same symbol, same partition.
        assert_eq!(out[0].partition, out[1].partition);
    }

    #[test]
    fn non_bbo_depth_suppressed_unless_enabled() {
        let mut n = NormalizerCore::new(1, HashRepartition { partitions: 4 });
        let p1 = packet(
            1,
            &[
                add(1, Side::Buy, 100, 450_0000, "SPY"),
                add(2, Side::Buy, 100, 449_0000, "SPY"),
            ],
        );
        // Second add is below the top: only one BBO record.
        let out = n.on_packet(&p1, 0).unwrap();
        assert_eq!(out.len(), 1);
        // With depth enabled, the below-top add also emits.
        let mut n2 = NormalizerCore::new(1, HashRepartition { partitions: 4 });
        n2.emit_depth = true;
        let out = n2.on_packet(&p1, 0).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].record.kind, norm::Kind::BookDelta);
    }

    #[test]
    fn delete_resolves_symbol_before_forgetting() {
        let mut n = NormalizerCore::new(1, HashRepartition { partitions: 4 });
        n.emit_depth = true;
        let p1 = packet(
            1,
            &[
                add(1, Side::Buy, 100, 450_0000, "SPY"),
                add(2, Side::Buy, 50, 451_0000, "SPY"),
            ],
        );
        n.on_packet(&p1, 0).unwrap();
        // Delete order 1 (below top after order 2 improved it): must emit
        // a BookDelta with SPY's partition, not be dropped.
        let p2 = packet(
            3,
            &[Message::DeleteOrder {
                offset_ns: 0,
                order_id: 1,
            }],
        );
        let out = n.on_packet(&p2, 0).unwrap();
        assert_eq!(out.len(), 1);
        let expected = HashRepartition { partitions: 4 }.partition_for(sym("SPY"));
        assert_eq!(out[0].partition, expected);
    }

    #[test]
    fn interner_is_stable() {
        let mut i = MapInterner::default();
        let a = i.intern(sym("SPY"));
        let b = i.intern(sym("QQQ"));
        assert_ne!(a, b);
        assert_eq!(i.intern(sym("SPY")), a);
    }

    #[test]
    fn hash_repartition_is_balanced() {
        let r = HashRepartition { partitions: 16 };
        let mut counts = vec![0u32; 16];
        for i in 0..1600 {
            let s = Symbol::new(&format!("S{i:04}")).unwrap();
            counts[r.partition_for(s) as usize] += 1;
        }
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max < &(2 * min), "{counts:?}");
        assert_eq!(r.partitions(), 16);
    }
}
