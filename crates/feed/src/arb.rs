//! A/B feed arbitration and gap detection.
//!
//! Exchanges publish every packet on two independent paths (§2's
//! cross-connects carry an A/B pair). The arbiter takes the first copy of
//! each sequence range to arrive, drops the duplicate, and reports gaps —
//! which in production trigger retransmission requests or a re-snapshot.

use tn_sim::MetricsRegistry;
use tn_wire::pitch;
use tn_wire::Result;

use crate::retrans::{Arrival, Reorderer};

/// Which of the exchange's two feed copies a packet arrived on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedSide {
    /// The A feed.
    A,
    /// The B feed.
    B,
}

/// Per-side arbitration counters: when one side degrades, its `won`
/// share collapses while the pair keeps the stream whole.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SideStats {
    /// Packets offered from this side.
    pub offered: u64,
    /// Packets from this side that advanced the stream (arrived first).
    pub won: u64,
}

/// Arbitration counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArbStats {
    /// Packets accepted (first copy).
    pub accepted: u64,
    /// Packets dropped as duplicates (other side arrived first).
    pub duplicates: u64,
    /// Of `duplicates`, the copies with nothing new in them (the rest
    /// overlapped the cursor and delivered their tail).
    pub full_duplicates: u64,
    /// Sequence numbers skipped (lost on both sides).
    pub gap_messages: u64,
    /// Distinct gap events.
    pub gap_events: u64,
    /// A-side breakdown (only populated via [`Arbiter::offer_from`]).
    pub side_a: SideStats,
    /// B-side breakdown (only populated via [`Arbiter::offer_from`]).
    pub side_b: SideStats,
}

/// The arbiter. Feed it packets from either side; it yields each unique
/// packet's messages exactly once, in sequence order per unit (gaps are
/// skipped forward, as real feed handlers do after declaring loss).
///
/// It is the merge of [`crate::retrans`] with a hold bound of zero: a
/// packet ahead of the cursor trips the bound as it is held, so its gap is
/// abandoned and its messages released in the same call.
#[derive(Debug, Default)]
pub struct Arbiter {
    merge: Reorderer,
    stats: ArbStats,
}

impl Arbiter {
    /// Fresh arbiter.
    pub fn new() -> Arbiter {
        Arbiter::default()
    }

    /// Counters so far.
    pub fn stats(&self) -> ArbStats {
        self.stats
    }

    /// Report the arbitration counters under scope `"feed"`: the view
    /// a node that owns an arbiter hands to the registry.
    pub fn metrics(&self, into: &mut MetricsRegistry) {
        let s = &self.stats;
        for (name, n) in [
            ("arb_accepted", s.accepted),
            ("arb_duplicate", s.full_duplicates),
            ("arb_gap", s.gap_events),
            ("arb_gap_msgs", s.gap_messages),
            ("a_offered", s.side_a.offered),
            ("a_won", s.side_a.won),
            ("b_offered", s.side_b.offered),
            ("b_won", s.side_b.won),
        ] {
            into.add("feed", name, None, n);
        }
    }

    /// Offer a sequenced-unit packet (the UDP payload). Lends the decoded
    /// messages, until the next call, if this packet advanced the stream;
    /// `None` for duplicates/stale copies.
    pub fn offer(&mut self, payload: &[u8]) -> Result<Option<&[pitch::Message]>> {
        let (_, arrival) = self.merge.accept(payload)?;
        match arrival {
            Arrival::Empty => return Ok(None),
            Arrival::Old => {
                self.stats.duplicates += 1;
                self.stats.full_duplicates += 1;
                return Ok(None);
            }
            // Partial duplicate: only the new tail is delivered, and the
            // overlapping copy is counted once.
            Arrival::Next(skip) => {
                if skip > 0 {
                    self.stats.duplicates += 1;
                }
            }
            Arrival::Ahead(missing) => {
                self.stats.gap_events += 1;
                self.stats.gap_messages += u64::from(missing);
            }
        }
        self.stats.accepted += 1;
        Ok(Some(&self.merge.released().messages))
    }

    /// [`offer`](Arbiter::offer), attributed to a feed side so the stats
    /// record which copy is actually winning races (the A/B-failover
    /// experiments read this to show arbitration papering over
    /// single-side loss).
    pub fn offer_from(
        &mut self,
        side: FeedSide,
        payload: &[u8],
    ) -> Result<Option<&[pitch::Message]>> {
        let won = self.offer(payload)?.is_some();
        let s = match side {
            FeedSide::A => &mut self.stats.side_a,
            FeedSide::B => &mut self.stats.side_b,
        };
        s.offered += 1;
        if won {
            s.won += 1;
        }
        Ok(won.then_some(&self.merge.released().messages))
    }

    /// The next expected sequence for a unit (`None` before any packet).
    pub fn expected_seq(&self, unit: u8) -> Option<u32> {
        self.merge.expected_seq(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_wire::WireError;

    fn packet(unit: u8, first_seq: u32, n: u32) -> Vec<u8> {
        let mut pb = pitch::PacketBuilder::new(unit, first_seq, 1400);
        for i in 0..n {
            pb.push(&pitch::Message::DeleteOrder {
                offset_ns: i,
                order_id: u64::from(first_seq + i),
            });
        }
        pb.flush().expect("non-empty")
    }

    #[test]
    fn first_copy_wins_duplicate_dropped() {
        let mut arb = Arbiter::new();
        let p = packet(0, 1, 3);
        let a = arb.offer(&p).unwrap();
        assert_eq!(a.as_ref().map(|m| m.len()), Some(3));
        let b = arb.offer(&p).unwrap();
        assert!(b.is_none());
        let s = arb.stats();
        assert_eq!(s.accepted, 1);
        assert_eq!(s.duplicates, 1);
        assert_eq!(arb.expected_seq(0), Some(4));
    }

    #[test]
    fn interleaved_ab_sides() {
        let mut arb = Arbiter::new();
        let p1 = packet(0, 1, 2);
        let p2 = packet(0, 3, 2);
        // A delivers p1, B delivers p1 late, B delivers p2 first, A dup.
        assert!(arb.offer(&p1).unwrap().is_some());
        assert!(arb.offer(&p1).unwrap().is_none());
        assert!(arb.offer(&p2).unwrap().is_some());
        assert!(arb.offer(&p2).unwrap().is_none());
        assert_eq!(arb.stats().accepted, 2);
        assert_eq!(arb.stats().duplicates, 2);
        assert_eq!(arb.stats().gap_messages, 0);
    }

    #[test]
    fn gap_detection_and_skip_forward() {
        let mut arb = Arbiter::new();
        assert!(arb.offer(&packet(0, 1, 2)).unwrap().is_some()); // 1,2
                                                                 // 3..=5 lost on both sides; next packet starts at 6.
        let msgs = arb.offer(&packet(0, 6, 2)).unwrap().unwrap();
        assert_eq!(msgs.len(), 2);
        let s = arb.stats();
        assert_eq!(s.gap_events, 1);
        assert_eq!(s.gap_messages, 3);
        assert_eq!(arb.expected_seq(0), Some(8));
    }

    #[test]
    fn partial_overlap_delivers_only_new_messages() {
        let mut arb = Arbiter::new();
        assert!(arb.offer(&packet(0, 1, 3)).unwrap().is_some()); // 1..=3
                                                                 // A retransmitted copy covering 2..=5: only 4,5 are new.
        let msgs = arb.offer(&packet(0, 2, 4)).unwrap().unwrap();
        assert_eq!(msgs.len(), 2);
        match msgs[0] {
            pitch::Message::DeleteOrder { order_id, .. } => assert_eq!(order_id, 4),
            ref other => panic!("{other:?}"),
        }
        assert_eq!(arb.expected_seq(0), Some(6));
    }

    #[test]
    fn units_are_independent() {
        let mut arb = Arbiter::new();
        assert!(arb.offer(&packet(0, 1, 2)).unwrap().is_some());
        assert!(arb.offer(&packet(1, 100, 2)).unwrap().is_some());
        assert_eq!(arb.expected_seq(0), Some(3));
        assert_eq!(arb.expected_seq(1), Some(102));
        assert_eq!(arb.expected_seq(2), None);
        assert_eq!(arb.stats().gap_messages, 0);
    }

    #[test]
    fn sequence_wraparound() {
        let mut arb = Arbiter::new();
        assert!(arb.offer(&packet(0, u32::MAX - 1, 2)).unwrap().is_some()); // wraps to 0
        assert_eq!(arb.expected_seq(0), Some(0));
        assert!(arb.offer(&packet(0, 0, 2)).unwrap().is_some());
        assert_eq!(arb.expected_seq(0), Some(2));
        assert_eq!(arb.stats().gap_messages, 0);
    }

    #[test]
    fn per_side_attribution() {
        let mut arb = Arbiter::new();
        let p1 = packet(0, 1, 2);
        let p2 = packet(0, 3, 2);
        // A wins p1; B's copy is a duplicate. B wins p2 (A copy lost).
        assert!(arb.offer_from(FeedSide::A, &p1).unwrap().is_some());
        assert!(arb.offer_from(FeedSide::B, &p1).unwrap().is_none());
        assert!(arb.offer_from(FeedSide::B, &p2).unwrap().is_some());
        let s = arb.stats();
        assert_eq!(s.side_a, SideStats { offered: 1, won: 1 });
        assert_eq!(s.side_b, SideStats { offered: 2, won: 1 });
        assert_eq!(s.accepted, 2);
    }

    #[test]
    fn malformed_packets_error() {
        let mut arb = Arbiter::new();
        assert_eq!(arb.offer(&[0u8; 3]).unwrap_err(), WireError::Truncated);
    }
}
