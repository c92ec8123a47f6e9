//! Feed publisher: engine events → sequenced multicast packets.
//!
//! Routes each feed message to its unit (per the exchange's partitioning
//! scheme), prefixes `Time` messages on second rollover, packs messages
//! into sequenced-unit packets, and seals packets at the end of each
//! publication batch (exchanges flush immediately — coalescing happens
//! only when messages are produced together, which is what makes quiet
//! periods emit small frames and bursts emit MTU-sized ones).

use std::ops::Range;

use tn_sim::FastMap;
use tn_wire::pitch::{self, PacketBuilder};

use crate::partition::PartitionScheme;
use crate::symbols::SymbolDirectory;

/// A sealed packet tagged with its unit, lent from the publisher: it
/// lives until the next [`FeedPublisher::publish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitPacket<'a> {
    /// Feed unit (multicast group selector).
    pub unit: u16,
    /// The sequenced-unit packet bytes (UDP payload).
    pub bytes: &'a [u8],
}

/// Where an order lives and how much of it is still displayed.
#[derive(Debug, Clone, Copy)]
struct Routed {
    unit: u16,
    qty: u32,
}

/// The publisher.
pub struct FeedPublisher {
    scheme: PartitionScheme,
    builders: Vec<PacketBuilder>,
    last_time_sec: Vec<Option<u32>>,
    /// Which unit an exchange order id lives on, learned from AddOrder —
    /// messages like executions don't carry a symbol, mirroring the
    /// statefulness of real PITCH. The remaining quantity rides along so
    /// an order is forgotten once a delete, execution or reduction takes
    /// it to nothing.
    order_units: FastMap<u64, Routed>,
    /// The last publish's packets, back to back, and each one's unit and
    /// byte range in it; both are lent by `publish` and reused by the next.
    bytes: Vec<u8>,
    sealed: Vec<(u16, Range<usize>)>,
    /// Units the current publish pushed to, in first-touch order.
    touched: Vec<u16>,
}

impl FeedPublisher {
    /// Publisher for `scheme`, packing up to `max_payload` bytes per
    /// packet. Panics on a scheme with more than 256 units: a PITCH unit
    /// id is one byte, and two units sharing one would interleave their
    /// sequence streams.
    pub fn new(scheme: PartitionScheme, max_payload: usize) -> FeedPublisher {
        let units = scheme.units();
        FeedPublisher {
            scheme,
            builders: (0..units)
                .map(|u| u8::try_from(u).expect("a PITCH unit id is one byte: at most 256 units"))
                .map(|unit| PacketBuilder::new(unit, 1, max_payload))
                .collect(),
            last_time_sec: vec![None; usize::from(units)],
            order_units: FastMap::default(),
            bytes: Vec::new(),
            sealed: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Route one message to its unit.
    fn unit_of(&mut self, dir: &SymbolDirectory, msg: &pitch::Message) -> u16 {
        if let Some(symbol) = msg.symbol() {
            let unit = self.scheme.unit_for(dir, symbol);
            if let pitch::Message::AddOrder { order_id, qty, .. } = *msg {
                self.order_units.insert(order_id, Routed { unit, qty });
            }
            return unit;
        }
        let Some(order_id) = msg.order_id() else {
            return 0;
        };
        let Some(routed) = self.order_units.get_mut(&order_id) else {
            return 0;
        };
        routed.qty = match *msg {
            pitch::Message::OrderExecuted { qty, .. } | pitch::Message::ReduceSize { qty, .. } => {
                routed.qty.saturating_sub(qty)
            }
            pitch::Message::ModifyOrder { qty, .. } => qty,
            // DeleteOrder: the one other message naming an order but no symbol.
            _ => 0,
        };
        let unit = routed.unit;
        if routed.qty == 0 {
            self.order_units.remove(&order_id);
        }
        unit
    }

    /// Publish a batch of messages stamped at `time_ns` (nanoseconds since
    /// midnight). Lends the sealed packets, at most one per touched unit
    /// (plus extras if a unit's batch overflowed the payload cap).
    pub fn publish(
        &mut self,
        dir: &SymbolDirectory,
        time_ns: u64,
        msgs: &[pitch::Message],
    ) -> impl ExactSizeIterator<Item = UnitPacket<'_>> {
        self.bytes.clear();
        self.sealed.clear();
        self.touched.clear();
        let second = (time_ns / 1_000_000_000) as u32;
        for msg in msgs {
            let unit = self.unit_of(dir, msg);
            let b = &mut self.builders[unit as usize];
            let start = self.bytes.len();
            if self.last_time_sec[unit as usize] != Some(second) {
                self.last_time_sec[unit as usize] = Some(second);
                if b.push_into(&pitch::Message::Time { seconds: second }, &mut self.bytes) {
                    self.sealed.push((unit, start..self.bytes.len()));
                }
            }
            let start = self.bytes.len();
            if b.push_into(msg, &mut self.bytes) {
                self.sealed.push((unit, start..self.bytes.len()));
            }
            if !self.touched.contains(&unit) {
                self.touched.push(unit);
            }
        }
        for &unit in &self.touched {
            let start = self.bytes.len();
            if self.builders[unit as usize].flush_into(&mut self.bytes) {
                self.sealed.push((unit, start..self.bytes.len()));
            }
        }
        let bytes = &self.bytes;
        self.sealed.iter().map(move |(unit, range)| UnitPacket {
            unit: *unit,
            bytes: &bytes[range.clone()],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_wire::pitch::Side;
    use tn_wire::Symbol;

    fn sym(s: &str) -> Symbol {
        Symbol::new(s).unwrap()
    }

    fn add(order_id: u64, symbol: Symbol) -> pitch::Message {
        pitch::Message::AddOrder {
            offset_ns: 1,
            order_id,
            side: Side::Buy,
            qty: 100,
            symbol,
            price: 100_0000,
        }
    }

    fn dir() -> SymbolDirectory {
        SymbolDirectory::synthetic(100)
    }

    #[test]
    fn time_message_prefixes_each_new_second() {
        let d = dir();
        let mut p = FeedPublisher::new(PartitionScheme::ByHash { units: 1 }, 1400);
        let packets: Vec<_> = p
            .publish(&d, 34_200_000_000_000, &[add(1, sym("A0000"))])
            .collect();
        assert_eq!(packets.len(), 1);
        let pkt = pitch::Packet::new_checked(packets[0].bytes).unwrap();
        let msgs: Vec<_> = pkt.messages().map(|m| m.unwrap()).collect();
        assert_eq!(msgs[0], pitch::Message::Time { seconds: 34_200 });
        assert!(matches!(msgs[1], pitch::Message::AddOrder { .. }));
        // Same second: no new Time message.
        let packet = p
            .publish(&d, 34_200_500_000_000, &[add(2, sym("A0000"))])
            .next()
            .unwrap();
        let pkt = pitch::Packet::new_checked(packet.bytes).unwrap();
        assert_eq!(pkt.count(), 1);
        // New second: Time again.
        let packet = p
            .publish(&d, 34_201_000_000_000, &[add(3, sym("A0000"))])
            .next()
            .unwrap();
        let pkt = pitch::Packet::new_checked(packet.bytes).unwrap();
        assert_eq!(pkt.count(), 2);
    }

    #[test]
    fn messages_route_to_units_and_track_orders() {
        let d = dir();
        let scheme = PartitionScheme::ByHash { units: 4 };
        let mut p = FeedPublisher::new(scheme, 1400);
        let s1 = sym("A0000");
        let s2 = sym("B0001");
        let u1 = scheme.unit_for(&d, s1);
        assert_eq!(
            p.publish(&d, 1_000_000_000, &[add(1, s1), add(2, s2)])
                .len(),
            2
        );
        // Executions without symbols follow the add's unit.
        let exec = pitch::Message::OrderExecuted {
            offset_ns: 2,
            order_id: 1,
            qty: 10,
            exec_id: 1,
        };
        let packets: Vec<_> = p.publish(&d, 1_000_000_100, &[exec]).collect();
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].unit, u1);
        assert_eq!(p.order_units.len(), 2);
        // Deletes release tracking.
        let del = pitch::Message::DeleteOrder {
            offset_ns: 3,
            order_id: 1,
        };
        let _ = p.publish(&d, 1_000_000_200, &[del]);
        assert_eq!(p.order_units.len(), 1);
    }

    #[test]
    fn fully_executed_orders_are_forgotten() {
        // The engine publishes only `OrderExecuted` when a resting order
        // fills completely; no delete follows.
        let d = dir();
        let s = sym("A0000");
        let mut engine = crate::MatchingEngine::new([s]);
        let mut p = FeedPublisher::new(PartitionScheme::ByHash { units: 4 }, 1400);
        for (side, qty) in [(Side::Sell, 30), (Side::Sell, 30), (Side::Buy, 40)] {
            let out = engine.submit(
                crate::Owner::Background,
                0,
                s,
                side,
                100_0000,
                qty,
                false,
                0,
            );
            let _ = p.publish(&d, 1_000_000_000, &out.feed);
        }
        // The buy filled the first sell and half the second; it never rested.
        assert_eq!(engine.open_orders(), 1);
        assert_eq!(p.order_units.len(), engine.open_orders());
        // A reduction that takes an order to nothing forgets it too.
        let reduce = pitch::Message::ReduceSize {
            offset_ns: 0,
            order_id: 2,
            qty: 20,
        };
        let _ = p.publish(&d, 1_000_000_000, &[reduce]);
        assert_eq!(p.order_units.len(), 0);
    }

    #[test]
    fn sequences_are_continuous_per_unit() {
        let d = dir();
        let mut p = FeedPublisher::new(PartitionScheme::ByHash { units: 1 }, 1400);
        let mut next_seq = 1u32;
        for batch in 0..5 {
            let msgs: Vec<_> = (0..3)
                .map(|i| add(batch * 3 + i + 1, sym("A0000")))
                .collect();
            for packet in p.publish(&d, 1_000_000_000 * (batch + 1), &msgs) {
                let pkt = pitch::Packet::new_checked(packet.bytes).unwrap();
                assert_eq!(pkt.sequence(), next_seq);
                next_seq += u32::from(pkt.count());
            }
        }
    }

    #[test]
    fn bursts_overflow_into_multiple_packets() {
        let d = dir();
        let mut p = FeedPublisher::new(PartitionScheme::ByHash { units: 1 }, 120);
        let msgs: Vec<_> = (0..20).map(|i| add(i + 1, sym("A0000"))).collect();
        let packets: Vec<_> = p.publish(&d, 1_000_000_000, &msgs).collect();
        assert!(packets.len() > 1);
        let total: usize = packets
            .iter()
            .map(|pk| pitch::Packet::new_checked(pk.bytes).unwrap().count() as usize)
            .sum();
        assert_eq!(total, 21); // 20 adds + 1 Time
        for pk in &packets {
            assert!(pk.bytes.len() <= 120);
        }
    }
}
