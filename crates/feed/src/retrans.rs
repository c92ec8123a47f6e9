//! The merge stage and gap recovery.
//!
//! Sequenced multicast feeds (§2's "highly-optimized, stateful
//! protocols") arrive twice (an A/B pair) and pair the lossy multicast
//! stream with a unicast recovery channel. One per-unit state machine
//! merges all of it — live copies from either side and retransmitted
//! ranges alike — back into sequence order: a cursor, a bounded hold of
//! packets that arrived ahead of it, and a flag for whether the hole at
//! the cursor has been requested. The hold bound is the only policy:
//!
//! * [`Reorderer`] is that machine. Packets ahead of the cursor wait (as
//!   the bytes that arrived) until the hole fills or more than `max_held`
//!   messages are waiting, at which point the hole is declared lost.
//! * [`crate::Arbiter`] is a `Reorderer` that holds nothing — every gap
//!   is given up at once, i.e. skipped forward — plus the A/B counters.
//! * [`RecoveryClient`] adds the timeout/backoff retry policy around a
//!   `Reorderer`'s requests.
//!
//! A packet is validated when it is offered, before anything moves, so an
//! `Err` leaves every cursor, hold and counter as it was and releasing a
//! held packet cannot fail. An in-order message is decoded once, straight
//! into the release buffer, and never stored.
//!
//! Every stage here owns its output buffer and lends it until the next
//! call: [`Released`] out of the merge and the client, the history ring's
//! own packets out of [`RetransmissionServer::serve`]. The exchange side
//! answers from a bounded history under a token-bucket rate limit —
//! recovery bandwidth is a shared, policed resource.

use std::collections::{BTreeMap, VecDeque};

use tn_netdev::queues::TokenBucket;
use tn_sim::{MetricsRegistry, SimTime};
use tn_wire::pitch::{self, GapRequest};
use tn_wire::{Result, WireError};

/// `a` is strictly before `b` in wrapping sequence space.
fn wrapping_lt(a: u32, b: u32) -> bool {
    b.wrapping_sub(a) as i32 > 0
}

/// Where a packet covering `[seq, seq + count)` stands against a unit's
/// cursor — the one classification every arrival and every held packet
/// goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arrival {
    /// Carries no messages.
    Empty,
    /// Ends at or before the cursor: a copy of something already released.
    Old,
    /// Reaches the cursor: this many leading messages are old, the rest
    /// are next in sequence.
    Next(u32),
    /// Starts this many sequence numbers past the cursor.
    Ahead(u32),
}

impl Arrival {
    fn classify(next: u32, seq: u32, count: u32) -> Arrival {
        if count == 0 {
            Arrival::Empty
        } else if !wrapping_lt(next, seq.wrapping_add(count)) {
            Arrival::Old
        } else if !wrapping_lt(next, seq) {
            Arrival::Next(next.wrapping_sub(seq))
        } else {
            Arrival::Ahead(seq.wrapping_sub(next))
        }
    }
}

/// Decode `pkt`'s messages, appending those from the `skip`-th on to
/// `out`. Fails on the first malformed message, whichever side of `skip`.
fn decode_from(pkt: &pitch::Packet<&[u8]>, skip: u32, out: &mut Vec<pitch::Message>) -> Result<()> {
    for (i, m) in pkt.messages().enumerate() {
        let m = m?;
        if i as u32 >= skip {
            out.push(m);
        }
    }
    Ok(())
}

/// A request for the `missing` sequence numbers from `seq` on, as much of
/// them as one request can name.
fn gap_request(unit: u8, seq: u32, missing: u32) -> GapRequest {
    GapRequest {
        unit,
        seq,
        count: u16::try_from(missing).unwrap_or(u16::MAX),
    }
}

/// What one merge or client call released and asked for. The stage owns
/// it and lends it until its next call.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Released {
    /// Messages released in sequence order.
    pub messages: Vec<pitch::Message>,
    /// Retransmission requests to send: a newly opened gap and, from
    /// [`RecoveryClient::poll`], timed-out re-requests.
    pub requests: Vec<GapRequest>,
    /// Sequence numbers abandoned (hold bound passed or retries spent).
    pub abandoned: u64,
}

impl Released {
    fn clear(&mut self) {
        self.messages.clear();
        self.requests.clear();
        self.abandoned = 0;
    }
}

/// A packet kept as the bytes that arrived, beside the sequence range its
/// header declared: what the hold and the server's history are made of.
#[derive(Debug)]
struct Kept {
    seq: u32,
    count: u32,
    bytes: Vec<u8>,
}

impl Kept {
    /// Copy `payload` into `buffer` (a spare one, for its capacity).
    fn new(mut buffer: Vec<u8>, seq: u32, count: u32, payload: &[u8]) -> Kept {
        buffer.clear();
        buffer.extend_from_slice(payload);
        Kept {
            seq,
            count,
            bytes: buffer,
        }
    }

    /// Does this packet carry any of `[start, end)`?
    fn overlaps(&self, start: u32, end: u32) -> bool {
        wrapping_lt(self.seq, end) && wrapping_lt(start, self.seq.wrapping_add(self.count))
    }
}

#[derive(Debug, Default)]
struct Unit {
    /// Next sequence to release; `None` before the unit's first packet.
    next_seq: Option<u32>,
    /// Packets ahead of the cursor, nearest first.
    held: VecDeque<Kept>,
    held_messages: usize,
    /// Whether the hole at the cursor has already been requested.
    requested: bool,
}

impl Unit {
    /// Release every held packet the cursor has reached, dropping ranges
    /// already released; emptied buffers go to `spare`.
    fn drain(&mut self, out: &mut Vec<pitch::Message>, spare: &mut Vec<Vec<u8>>) {
        while let (Some(cur), Some(h)) = (self.next_seq, self.held.front()) {
            let arrival = Arrival::classify(cur, h.seq, h.count);
            if matches!(arrival, Arrival::Ahead(_)) {
                break; // still a hole before the nearest held packet
            }
            let Some(h) = self.held.pop_front() else {
                break;
            };
            self.held_messages -= h.count as usize;
            if let Arrival::Next(skip) = arrival {
                let decoded = pitch::Packet::new_checked(&h.bytes[..])
                    .and_then(|pkt| decode_from(&pkt, skip, out));
                debug_assert!(decoded.is_ok(), "held packets were validated at offer");
                self.next_seq = Some(h.seq.wrapping_add(h.count));
            }
            spare.push(h.bytes);
        }
    }
}

/// The per-unit merge: sequence order out of A/B copies, late arrivals
/// and retransmitted ranges, with gap requests. The default holds nothing.
#[derive(Debug, Default)]
pub struct Reorderer {
    /// Indexed by unit id, grown on first sight.
    units: Vec<Unit>,
    /// Held messages per unit before giving up on a gap.
    max_held: usize,
    stats: ReorderStats,
    out: Released,
    /// Buffers of held packets since released, reused by the next hold.
    spare: Vec<Vec<u8>>,
}

/// Reorderer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReorderStats {
    /// Gap requests issued.
    pub requests: u64,
    /// Messages released by a gap closing (the retransmitted fill plus
    /// the held packets it unblocked) — the "records recovered" number.
    pub recovered_messages: u64,
    /// Sequence numbers abandoned.
    pub abandoned: u64,
}

impl Reorderer {
    /// Receiver that holds at most `max_held` messages per unit while
    /// waiting for a retransmission.
    pub fn new(max_held: usize) -> Reorderer {
        Reorderer {
            max_held,
            ..Reorderer::default()
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> ReorderStats {
        self.stats
    }

    /// Messages currently buffered behind gaps (all units).
    pub fn held(&self) -> usize {
        self.units.iter().map(|u| u.held_messages).sum()
    }

    fn unit(&self, unit: u8) -> Option<&Unit> {
        self.units.get(usize::from(unit))
    }

    /// The next expected sequence for a unit (`None` before any packet).
    pub fn expected_seq(&self, unit: u8) -> Option<u32> {
        self.unit(unit)?.next_seq
    }

    /// Is a gap currently open (request outstanding / packets held) on
    /// `unit`?
    pub fn gap_open(&self, unit: u8) -> bool {
        self.unit(unit)
            .is_some_and(|u| u.requested || !u.held.is_empty())
    }

    /// The hole currently blocking `unit`, as a re-requestable range
    /// (first missing sequence up to the first held packet), or `None`
    /// when the unit is flowing in order.
    pub fn current_gap(&self, unit: u8) -> Option<GapRequest> {
        let u = self.unit(unit)?;
        let next = u.next_seq?;
        let first_held = u.held.front()?.seq;
        Some(gap_request(unit, next, first_held.wrapping_sub(next)))
    }

    /// What the last call released and asked for.
    pub(crate) fn released(&self) -> &Released {
        &self.out
    }

    /// Offer a sequenced-unit packet (multicast or retransmitted — the
    /// server replays the same packets, so both paths converge here).
    pub fn offer(&mut self, payload: &[u8]) -> Result<&Released> {
        self.accept(payload)?;
        Ok(&self.out)
    }

    /// [`offer`](Reorderer::offer), reporting the packet's unit and how it
    /// stood against the cursor instead of lending the output (which
    /// [`released`](Reorderer::released) still holds).
    pub(crate) fn accept(&mut self, payload: &[u8]) -> Result<(u8, Arrival)> {
        let pkt = pitch::Packet::new_checked(payload)?;
        let (unit_id, seq, count) = (pkt.unit(), pkt.sequence(), u32::from(pkt.count()));
        let next = self.expected_seq(unit_id).unwrap_or(seq);
        let arrival = Arrival::classify(next, seq, count);
        self.out.clear();
        // Validate before anything moves. What is next in sequence decodes
        // straight into the release buffer; what is ahead decodes to
        // nothing here and again, from its held bytes, when it is reached.
        let skip = match arrival {
            Arrival::Empty | Arrival::Old => return Ok((unit_id, arrival)),
            Arrival::Next(skip) => skip,
            Arrival::Ahead(_) => count,
        };
        if let Err(e) = decode_from(&pkt, skip, &mut self.out.messages) {
            self.out.messages.clear();
            return Err(e);
        }

        let index = usize::from(unit_id);
        if self.units.len() <= index {
            self.units.resize_with(index + 1, Unit::default);
        }
        let unit = &mut self.units[index];
        if let Arrival::Ahead(missing) = arrival {
            let at = unit.held.partition_point(|h| wrapping_lt(h.seq, seq));
            if unit.held.get(at).is_none_or(|h| h.seq != seq) {
                let buffer = self.spare.pop().unwrap_or_default();
                unit.held.insert(at, Kept::new(buffer, seq, count, payload));
                unit.held_messages += count as usize;
            }
            if !unit.requested {
                unit.requested = true;
                self.stats.requests += 1;
                self.out.requests.push(gap_request(unit_id, next, missing));
            }
            if unit.held_messages > self.max_held {
                self.abandon(unit_id);
            }
        } else {
            unit.next_seq = Some(seq.wrapping_add(count));
            let gap_was_open = unit.requested;
            unit.drain(&mut self.out.messages, &mut self.spare);
            if gap_was_open && unit.held.is_empty() {
                unit.requested = false;
            }
            if gap_was_open {
                self.stats.recovered_messages += self.out.messages.len() as u64;
            }
        }
        Ok((unit_id, arrival))
    }

    /// Give up on `unit`'s open gap: declare the hole at the cursor lost,
    /// resume at the nearest held packet, and append what that releases
    /// to the output. The hold bound does this from
    /// [`offer`](Reorderer::offer); [`RecoveryClient::poll`] does it when
    /// retries are exhausted.
    fn abandon(&mut self, unit: u8) {
        let Some(u) = self.units.get_mut(usize::from(unit)) else {
            return;
        };
        u.requested = false;
        let (Some(next), Some(first)) = (u.next_seq, u.held.front()) else {
            return;
        };
        let lost = u64::from(first.seq.wrapping_sub(next));
        u.next_seq = Some(first.seq);
        u.drain(&mut self.out.messages, &mut self.spare);
        self.out.abandoned += lost;
        self.stats.abandoned += lost;
    }
}

/// Timeout/backoff policy for [`RecoveryClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Wait this long for a fill before re-requesting.
    pub timeout: SimTime,
    /// Multiply the wait by this factor on every retry (exponential
    /// backoff; `1` keeps a fixed interval).
    pub backoff: u32,
    /// Re-request at most this many times before abandoning the gap and
    /// resuming from the first held packet.
    pub max_retries: u32,
    /// Held-message bound handed to the inner [`Reorderer`].
    pub max_held: usize,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig {
            timeout: SimTime::from_us(200),
            backoff: 2,
            max_retries: 3,
            max_held: 4096,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct OpenGap {
    opened_at: SimTime,
    /// When the next re-request (or the abandon) fires.
    deadline: SimTime,
    retries: u32,
}

/// Receiver-side gap recovery with timeout/backoff: a [`Reorderer`] plus
/// the retry state machine around its requests.
///
/// Drive it with [`offer`](RecoveryClient::offer) for every arriving
/// packet (live or retransmitted) and [`poll`](RecoveryClient::poll)
/// whenever [`next_deadline`](RecoveryClient::next_deadline) passes —
/// sim nodes arm a timer for exactly that instant. The client records a
/// gap-fill latency sample (request to release, in picoseconds) for every
/// gap a retransmission closes; those samples feed the report layer's
/// recovery section.
#[derive(Debug)]
pub struct RecoveryClient {
    reorderer: Reorderer,
    cfg: RecoveryConfig,
    open: BTreeMap<u8, OpenGap>,
    fill_latency_ps: Vec<u64>,
    re_requests: u64,
    abandoned_gaps: u64,
}

impl RecoveryClient {
    /// New client with `cfg`'s policy.
    pub fn new(cfg: RecoveryConfig) -> RecoveryClient {
        RecoveryClient {
            reorderer: Reorderer::new(cfg.max_held),
            cfg,
            open: BTreeMap::new(),
            fill_latency_ps: Vec::new(),
            re_requests: 0,
            abandoned_gaps: 0,
        }
    }

    /// Report the recovery counters — gap detections, re-requests,
    /// abandons and the gap-fill latencies — under scope `"feed"`: the
    /// view a node that owns a client hands to the registry.
    pub fn metrics(&self, into: &mut MetricsRegistry) {
        into.add(
            "feed",
            "gap_detected",
            None,
            self.reorderer.stats().requests,
        );
        into.add("feed", "gap_abandoned", None, self.abandoned_gaps);
        into.add("feed", "re_request", None, self.re_requests);
        for &fill_ps in &self.fill_latency_ps {
            into.observe("feed", "fill_ps", None, fill_ps);
        }
    }

    /// The inner reorderer (for its counters).
    pub fn reorderer(&self) -> &Reorderer {
        &self.reorderer
    }

    /// Request-to-release latency of every gap a retransmission filled,
    /// in picoseconds.
    pub fn fill_latencies_ps(&self) -> &[u64] {
        &self.fill_latency_ps
    }

    /// Timed-out re-requests issued.
    // audit:allow(dead): oracle: faultsim's reconcile test holds the registry's `re_request` counter to it
    pub fn re_requests(&self) -> u64 {
        self.re_requests
    }

    /// Gaps abandoned (retries exhausted or hold bound passed).
    pub fn abandoned_gaps(&self) -> u64 {
        self.abandoned_gaps
    }

    /// Units currently blocked on an open gap.
    pub fn open_gaps(&self) -> usize {
        self.open.len()
    }

    /// Earliest re-request/abandon deadline across open gaps, if any —
    /// the instant to call [`poll`](RecoveryClient::poll) at.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.open.values().map(|g| g.deadline).min()
    }

    /// Offer an arriving packet at time `now`. The output is the inner
    /// reorderer's own, lent on.
    pub fn offer(&mut self, now: SimTime, payload: &[u8]) -> Result<&Released> {
        let (unit, _) = self.reorderer.accept(payload)?;
        let out = self.reorderer.released();
        if !out.requests.is_empty() {
            self.open.insert(
                unit,
                OpenGap {
                    opened_at: now,
                    deadline: now + self.cfg.timeout,
                    retries: 0,
                },
            );
        }
        if let Some(gap) = self.open.get(&unit).copied() {
            if !self.reorderer.gap_open(unit) {
                self.open.remove(&unit);
                if out.abandoned > 0 {
                    self.abandoned_gaps += 1;
                } else {
                    let fill_ps = now.saturating_sub(gap.opened_at).as_ps();
                    self.fill_latency_ps.push(fill_ps);
                }
            }
        }
        Ok(out)
    }

    /// Fire timeouts due at `now`: re-request still-open gaps (with
    /// exponential backoff) and abandon those out of retries.
    pub fn poll(&mut self, now: SimTime) -> &Released {
        self.reorderer.out.clear();
        self.open.retain(|&unit, gap| {
            if gap.deadline > now {
                return true;
            }
            let Some(req) = self.reorderer.current_gap(unit) else {
                // Nothing held any more (e.g. closed by an abandon path);
                // drop the bookkeeping entry.
                return false;
            };
            if gap.retries >= self.cfg.max_retries {
                self.abandoned_gaps += 1;
                self.reorderer.abandon(unit);
                return false;
            }
            gap.retries += 1;
            let wait_ps = self
                .cfg
                .timeout
                .as_ps()
                .saturating_mul(u64::from(self.cfg.backoff).saturating_pow(gap.retries));
            gap.deadline = now + SimTime::from_ps(wait_ps);
            self.re_requests += 1;
            self.reorderer.out.requests.push(req);
            true
        });
        &self.reorderer.out
    }
}

/// Exchange-side retransmission server: bounded per-unit history, rate
/// limited by a token bucket (recovery must not starve the live feed).
pub struct RetransmissionServer {
    /// Indexed by unit id, grown on first sight; each ring in store order.
    history: Vec<VecDeque<Kept>>,
    max_packets_per_unit: usize,
    /// The buffer the last eviction freed, reused by the next store.
    spare: Vec<u8>,
    bucket: TokenBucket,
}

impl RetransmissionServer {
    /// Server keeping `max_packets_per_unit` of history and replaying at
    /// most `rate_bytes_per_sec` (burst `burst_bytes`).
    pub fn new(
        max_packets_per_unit: usize,
        rate_bytes_per_sec: u64,
        burst_bytes: u64,
    ) -> RetransmissionServer {
        RetransmissionServer {
            history: Vec::new(),
            max_packets_per_unit,
            spare: Vec::new(),
            bucket: TokenBucket::new(rate_bytes_per_sec, burst_bytes),
        }
    }

    /// Record a published packet (call for every live packet).
    pub fn store(&mut self, payload: &[u8]) -> Result<()> {
        let pkt = pitch::Packet::new_checked(payload)?;
        let unit = usize::from(pkt.unit());
        if self.history.len() <= unit {
            self.history.resize_with(unit + 1, VecDeque::new);
        }
        let ring = &mut self.history[unit];
        let buffer = std::mem::take(&mut self.spare);
        let count = u32::from(pkt.count());
        ring.push_back(Kept::new(buffer, pkt.sequence(), count, payload));
        if ring.len() > self.max_packets_per_unit {
            self.spare = ring.pop_front().map(|s| s.bytes).unwrap_or_default();
        }
        Ok(())
    }

    /// Serve a gap request at time `now`: lends the stored packets
    /// covering the requested range — the run of history from the first
    /// to the last packet that overlaps it — subject to history and rate
    /// limits.
    pub fn serve(
        &mut self,
        now: SimTime,
        req: &GapRequest,
    ) -> Result<impl ExactSizeIterator<Item = &[u8]> + '_> {
        let ring = match self.history.get(usize::from(req.unit)) {
            Some(ring) if !ring.is_empty() => ring,
            _ => return Err(WireError::BadField),
        };
        let (start, end) = (req.seq, req.seq.wrapping_add(u32::from(req.count)));
        // Gaps are recent: find the run from the ring's young end.
        let run = ring
            .iter()
            .rposition(|s| s.overlaps(start, end))
            .map(|last| {
                let older = ring.range(..last).rev();
                let first = last - older.take_while(|s| s.overlaps(start, end)).count();
                first..last + 1
            });
        let Some(run) = run.filter(|run| !wrapping_lt(start, ring[run.start].seq)) else {
            return Err(WireError::BadLength);
        };
        let bytes: usize = ring.range(run.clone()).map(|s| s.bytes.len()).sum();
        if !self.bucket.try_consume(now, bytes) {
            return Err(WireError::BadLength);
        }
        Ok(ring.range(run).map(|s| &s.bytes[..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(unit: u8, first_seq: u32, n: u32) -> Vec<u8> {
        let mut pb = pitch::PacketBuilder::new(unit, first_seq, 1400);
        for i in 0..n {
            pb.push(&pitch::Message::DeleteOrder {
                offset_ns: i,
                order_id: u64::from(first_seq.wrapping_add(i)),
            });
        }
        pb.flush().expect("non-empty")
    }

    fn ids(msgs: &[pitch::Message]) -> Vec<u64> {
        msgs.iter().map(|m| m.order_id().unwrap()).collect()
    }

    #[test]
    fn in_order_stream_passes_through() {
        let mut r = Reorderer::new(100);
        let out = r.offer(&packet(0, 1, 3)).unwrap();
        assert_eq!(ids(&out.messages), vec![1, 2, 3]);
        assert!(out.requests.is_empty());
        let out = r.offer(&packet(0, 4, 2)).unwrap();
        assert_eq!(ids(&out.messages), vec![4, 5]);
        assert_eq!(r.held(), 0);
    }

    #[test]
    fn gap_holds_and_requests_then_recovers() {
        let mut r = Reorderer::new(100);
        r.offer(&packet(0, 1, 2)).unwrap(); // 1,2
                                            // 3..=4 lost; 5..=6 arrives.
        let out = r.offer(&packet(0, 5, 2)).unwrap();
        assert!(out.messages.is_empty());
        assert_eq!(
            out.requests,
            vec![GapRequest {
                unit: 0,
                seq: 3,
                count: 2
            }]
        );
        assert_eq!(r.held(), 2);
        // More future data: held, but no duplicate request.
        let out = r.offer(&packet(0, 7, 1)).unwrap();
        assert!(out.requests.is_empty());
        // Retransmission of 3..=4 arrives: everything drains in order.
        let out = r.offer(&packet(0, 3, 2)).unwrap();
        assert_eq!(ids(&out.messages), vec![3, 4, 5, 6, 7]);
        assert_eq!(r.held(), 0);
        let s = r.stats();
        assert_eq!(s.requests, 1);
        assert_eq!(s.recovered_messages, 5);
        assert_eq!(s.abandoned, 0);
    }

    #[test]
    fn gives_up_when_hold_bound_passes() {
        let mut r = Reorderer::new(3);
        r.offer(&packet(0, 1, 1)).unwrap();
        // Lose 2; buffer 3,4,5,6 — the 4th held message trips the bound.
        assert_eq!(r.offer(&packet(0, 3, 1)).unwrap().requests.len(), 1);
        r.offer(&packet(0, 4, 1)).unwrap();
        r.offer(&packet(0, 5, 1)).unwrap();
        let out = r.offer(&packet(0, 6, 1)).unwrap();
        assert_eq!(out.abandoned, 1); // seq 2 declared lost
        assert_eq!(ids(&out.messages), vec![3, 4, 5, 6]);
        assert_eq!(r.stats().abandoned, 1);
        // Stream continues normally afterward.
        let out = r.offer(&packet(0, 7, 1)).unwrap();
        assert_eq!(ids(&out.messages), vec![7]);
    }

    #[test]
    fn held_packets_drain_in_sequence_order_across_the_wrap() {
        let mut r = Reorderer::new(100);
        r.offer(&packet(0, u32::MAX - 2, 1)).unwrap();
        // MAX-1 is lost; what follows arrives newest first, so the hold
        // must order 1 (past the wrap) after MAX (before it).
        r.offer(&packet(0, 1, 1)).unwrap();
        r.offer(&packet(0, u32::MAX, 2)).unwrap();
        assert_eq!(r.held(), 3);
        let out = r.offer(&packet(0, u32::MAX - 1, 1)).unwrap();
        let max = u64::from(u32::MAX);
        assert_eq!(ids(&out.messages), vec![max - 1, max, 0, 1]);
        assert_eq!(r.held(), 0);
        assert_eq!(r.expected_seq(0), Some(2));
    }

    #[test]
    fn a_damaged_packet_ahead_is_refused_when_offered_not_when_released() {
        let mut r = Reorderer::new(100);
        assert_eq!(ids(&r.offer(&packet(0, 1, 1)).unwrap().messages), vec![1]);
        let mut ahead = packet(0, 5, 2);
        let second = ahead.len() - 14; // a delete is 14 bytes: length, type, ...
        ahead[second + 1] = 0xFF; // no such message type
        assert!(r.offer(&ahead).is_err());
        assert_eq!((r.held(), r.gap_open(0)), (0, false));
        assert_eq!(r.stats(), ReorderStats::default());
    }

    #[test]
    fn empty_packets_move_nothing() {
        let mut r = Reorderer::new(100);
        r.offer(&packet(0, 1, 1)).unwrap();
        let mut empty = packet(0, 9, 1);
        empty[2] = 0; // count
        let out = r.offer(&empty).unwrap();
        assert!(out.messages.is_empty() && out.requests.is_empty());
        assert_eq!((r.expected_seq(0), r.gap_open(0)), (Some(2), false));
    }

    #[test]
    fn duplicates_and_overlaps() {
        let mut r = Reorderer::new(10);
        r.offer(&packet(0, 1, 3)).unwrap();
        let out = r.offer(&packet(0, 1, 3)).unwrap(); // full dup
        assert!(out.messages.is_empty());
        let out = r.offer(&packet(0, 2, 4)).unwrap(); // overlap: 4,5 new
        assert_eq!(ids(&out.messages), vec![4, 5]);
    }

    #[test]
    fn server_stores_and_replays() {
        let mut s = RetransmissionServer::new(16, 1_000_000, 10_000);
        for seq in [1u32, 4, 7] {
            s.store(&packet(2, seq, 3)).unwrap();
        }
        let mut replay = s
            .serve(
                SimTime::ZERO,
                &GapRequest {
                    unit: 2,
                    seq: 4,
                    count: 3,
                },
            )
            .unwrap();
        assert_eq!(replay.len(), 1);
        // The ring's own bytes, as stored.
        assert_eq!(replay.next(), Some(&packet(2, 4, 3)[..]));
        drop(replay);
        // A range spanning two packets returns both.
        let replay = s
            .serve(
                SimTime::ZERO,
                &GapRequest {
                    unit: 2,
                    seq: 5,
                    count: 4,
                },
            )
            .unwrap();
        assert_eq!(replay.len(), 2);
    }

    #[test]
    fn server_refuses_aged_out_and_unknown() {
        let mut s = RetransmissionServer::new(2, 1_000_000, 10_000);
        for seq in [1u32, 4, 7, 10] {
            s.store(&packet(0, seq, 3)).unwrap();
        }
        // Only 7.. and 10.. remain in a 2-deep ring.
        assert!(s
            .serve(
                SimTime::ZERO,
                &GapRequest {
                    unit: 0,
                    seq: 1,
                    count: 3
                }
            )
            .is_err());
        assert!(s
            .serve(
                SimTime::ZERO,
                &GapRequest {
                    unit: 9,
                    seq: 1,
                    count: 1
                }
            )
            .is_err());
        assert!(s
            .serve(
                SimTime::ZERO,
                &GapRequest {
                    unit: 0,
                    seq: 7,
                    count: 3
                }
            )
            .is_ok());
    }

    #[test]
    fn server_rate_limits() {
        // Bucket of ~one packet; the second immediate request throttles.
        let pkt = packet(0, 1, 3);
        let mut s = RetransmissionServer::new(16, 1_000, pkt.len() as u64 + 4);
        s.store(&pkt).unwrap();
        assert!(s
            .serve(
                SimTime::ZERO,
                &GapRequest {
                    unit: 0,
                    seq: 1,
                    count: 3
                }
            )
            .is_ok());
        assert!(s
            .serve(
                SimTime::ZERO,
                &GapRequest {
                    unit: 0,
                    seq: 1,
                    count: 3
                }
            )
            .is_err());
        // Tokens refill with time.
        assert!(s
            .serve(
                SimTime::from_secs(1),
                &GapRequest {
                    unit: 0,
                    seq: 1,
                    count: 3
                }
            )
            .is_ok());
    }

    fn client_cfg() -> RecoveryConfig {
        RecoveryConfig {
            timeout: SimTime::from_us(100),
            backoff: 2,
            max_retries: 2,
            max_held: 100,
        }
    }

    #[test]
    fn client_requests_and_records_fill_latency() {
        let mut c = RecoveryClient::new(client_cfg());
        c.offer(SimTime::ZERO, &packet(0, 1, 2)).unwrap();
        // 3..=4 lost; 5 arrives at t=10us.
        let out = c.offer(SimTime::from_us(10), &packet(0, 5, 1)).unwrap();
        assert_eq!(out.requests.len(), 1);
        assert_eq!(c.open_gaps(), 1);
        assert_eq!(c.next_deadline(), Some(SimTime::from_us(110)));
        // Fill arrives at t=60us: gap closes, latency = 50us.
        let out = c.offer(SimTime::from_us(60), &packet(0, 3, 2)).unwrap();
        assert_eq!(ids(&out.messages), vec![3, 4, 5]);
        assert_eq!(c.open_gaps(), 0);
        assert_eq!(c.next_deadline(), None);
        assert_eq!(c.fill_latencies_ps(), &[SimTime::from_us(50).as_ps()]);
        assert_eq!(c.abandoned_gaps(), 0);
    }

    #[test]
    fn client_backs_off_then_abandons() {
        let mut c = RecoveryClient::new(client_cfg());
        c.offer(SimTime::ZERO, &packet(0, 1, 1)).unwrap();
        let out = c.offer(SimTime::ZERO, &packet(0, 3, 1)).unwrap(); // 2 lost
        let first = out.requests[0];
        // Before the deadline nothing fires.
        assert!(c.poll(SimTime::from_us(99)).requests.is_empty());
        // 1st timeout at 100us: re-request, next wait doubles to 200us.
        let out = c.poll(SimTime::from_us(100));
        assert_eq!(out.requests, vec![first]);
        assert_eq!(c.next_deadline(), Some(SimTime::from_us(300)));
        // 2nd timeout: re-request again, wait doubles to 400us.
        let out = c.poll(SimTime::from_us(300));
        assert_eq!(out.requests, vec![first]);
        assert_eq!(c.re_requests(), 2);
        assert_eq!(c.next_deadline(), Some(SimTime::from_us(700)));
        // Retries exhausted: abandon, releasing the held tail.
        let out = c.poll(SimTime::from_us(700));
        assert!(out.requests.is_empty());
        assert_eq!(out.abandoned, 1); // seq 2
        assert_eq!(ids(&out.messages), vec![3]);
        assert_eq!(c.abandoned_gaps(), 1);
        assert_eq!(c.open_gaps(), 0);
        assert!(c.fill_latencies_ps().is_empty());
        // Stream resumes cleanly past the abandoned hole.
        let out = c.offer(SimTime::from_us(800), &packet(0, 4, 1)).unwrap();
        assert_eq!(ids(&out.messages), vec![4]);
    }

    #[test]
    fn client_bound_abandon_counts_as_abandoned_not_fill() {
        let mut c = RecoveryClient::new(RecoveryConfig {
            max_held: 2,
            ..client_cfg()
        });
        c.offer(SimTime::ZERO, &packet(0, 1, 1)).unwrap();
        c.offer(SimTime::from_us(1), &packet(0, 3, 1)).unwrap();
        c.offer(SimTime::from_us(2), &packet(0, 4, 1)).unwrap();
        // Third held message trips the bound: seq 2 declared lost.
        let out = c.offer(SimTime::from_us(3), &packet(0, 5, 1)).unwrap();
        assert_eq!(out.abandoned, 1);
        assert_eq!(ids(&out.messages), vec![3, 4, 5]);
        assert_eq!(c.abandoned_gaps(), 1);
        assert!(c.fill_latencies_ps().is_empty());
        assert_eq!(c.open_gaps(), 0);
    }

    #[test]
    fn reorderer_recovery_end_to_end_with_server() {
        // The full loop: live stream with a hole, request, server replay.
        let mut server = RetransmissionServer::new(64, 1_000_000, 100_000);
        let mut rx = Reorderer::new(100);
        let mut delivered = Vec::new();
        for seq in (1..=20u32).step_by(2) {
            let p = packet(0, seq, 2);
            server.store(&p).unwrap();
            // Drop the packet starting at seq 9 on the "multicast" path.
            if seq == 9 {
                continue;
            }
            let out = rx.offer(&p).unwrap();
            delivered.extend(ids(&out.messages));
            if let Some(req) = out.requests.first().copied() {
                for replay in server.serve(SimTime::ZERO, &req).unwrap() {
                    let out = rx.offer(replay).unwrap();
                    delivered.extend(ids(&out.messages));
                }
            }
        }
        assert_eq!(delivered, (1..=20u64).collect::<Vec<_>>());
        assert_eq!(rx.stats().abandoned, 0);
    }
}
