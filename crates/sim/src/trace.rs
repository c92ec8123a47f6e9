//! Lightweight kernel-level tracing.
//!
//! The kernel records frame deliveries and drops when tracing is enabled.
//! This is deliberately coarse: fine-grained, timestamped measurement is
//! the job of capture taps in `tn-netdev`, mirroring how real trading
//! plants instrument with optical taps rather than switch counters.
//!
//! Every record, stored or not, is folded into the run digest by
//! [`fold_event`]: three words, one multiply each, since the kernel pays
//! it on every event. [`fnv1a_fold`] is the content hash for bytes —
//! packets, JSON documents, lab plans — and is not the run digest.

use crate::frame::FrameId;
use crate::hash::K;
use crate::node::{NodeId, PortId};
use crate::time::SimTime;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Frame handed to a node's `on_frame`.
    Deliver,
    /// Frame dropped in flight (link loss / queue overflow / no link).
    Drop,
    /// Timer fired.
    Timer,
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub at: SimTime,
    /// Node involved (receiver for delivers, transmitter for drops).
    pub node: NodeId,
    /// Port involved.
    pub port: PortId,
    /// Frame involved (`FrameId(u64::MAX)` for timers).
    pub frame: FrameId,
    /// Event class.
    pub kind: TraceKind,
}

/// FNV-1a 64-bit offset basis: where [`fnv1a_fold`] content hashes and
/// the run digest start, so the digest of an empty event stream.
pub const EMPTY_DIGEST: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Fold `bytes` into an FNV-1a 64-bit digest, one byte at a time: the
/// content hash for artifacts that are bytes (packet streams, merged
/// sweep documents), so the divergence registry can compare them. The
/// run digest folds words instead ([`fold_event`]).
#[inline]
pub fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold one record into a run digest: its time, its frame id, and its
/// node, port and kind packed as `node | port << 32 | kind << 48`, each
/// word by one add–multiply–rotate step with `crate::FastHasher`'s
/// multiplier. Each step is a bijection of the running hash for a fixed
/// word and of the word for a fixed hash, so two streams that differ in
/// one field of one record never share a digest.
#[inline]
pub fn fold_event(h: u64, ev: &TraceEvent) -> u64 {
    let step = |h: u64, word: u64| h.wrapping_add(word).wrapping_mul(K).rotate_left(26);
    let ids = u64::from(ev.node.0) | u64::from(ev.port.0) << 32 | (ev.kind as u64) << 48;
    step(step(step(h, ev.at.as_ps()), ev.frame.0), ids)
}

/// An append-only in-memory trace log with an always-on run digest.
///
/// Event *storage* is gated on `enabled` (it costs memory proportional to
/// the run), but the [`digest`](TraceLog::digest) — [`fold_event`] over
/// every `(time, node, port, frame, kind)` the kernel records — is
/// maintained unconditionally. Two runs of the same scenario with the same
/// seed must produce identical digests; `tn-audit divergence` checks
/// exactly that, which turns the kernel's "deterministic" promise into an
/// enforced invariant rather than a comment.
#[derive(Debug)]
pub struct TraceLog {
    enabled: bool,
    events: Vec<TraceEvent>,
    digest: u64,
    recorded: u64,
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::disabled()
    }
}

impl TraceLog {
    /// A disabled log (hashes, but stores nothing).
    pub fn disabled() -> Self {
        TraceLog {
            enabled: false,
            events: Vec::new(),
            digest: EMPTY_DIGEST,
            recorded: 0,
        }
    }

    /// An enabled log.
    pub fn enabled() -> Self {
        TraceLog {
            enabled: true,
            ..TraceLog::disabled()
        }
    }

    /// Turn event storage on or off (the digest is always maintained).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether event storage is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    pub(crate) fn record(&mut self, ev: TraceEvent) {
        self.digest = fold_event(self.digest, &ev);
        self.recorded += 1;
        if self.enabled {
            self.events.push(ev);
        }
    }

    /// The run digest: [`fold_event`] over every event recorded so far,
    /// including those recorded while storage was disabled. Equal inputs
    /// (scenario + seed) must yield equal digests.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Total events folded into the digest (stored or not).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Count of records with the given kind.
    pub fn count(&self, kind: TraceKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Drop all records and reset the digest (keeps the enabled flag).
    pub fn clear(&mut self) {
        self.events.clear();
        self.digest = EMPTY_DIGEST;
        self.recorded = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::ZERO,
            node: NodeId(0),
            port: PortId(0),
            frame: FrameId(0),
            kind,
        }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::disabled();
        log.record(ev(TraceKind::Deliver));
        assert!(log.events().is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn digest_covers_events_even_when_storage_is_off() {
        let mut on = TraceLog::enabled();
        let mut off = TraceLog::disabled();
        assert_eq!(on.digest(), EMPTY_DIGEST);
        for kind in [TraceKind::Deliver, TraceKind::Drop, TraceKind::Timer] {
            on.record(ev(kind));
            off.record(ev(kind));
        }
        assert_eq!(on.digest(), off.digest());
        assert_ne!(on.digest(), EMPTY_DIGEST);
        assert_eq!(off.recorded(), 3);
        assert!(off.events().is_empty());
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let mut a = TraceLog::disabled();
        a.record(ev(TraceKind::Deliver));
        a.record(ev(TraceKind::Drop));
        let mut b = TraceLog::disabled();
        b.record(ev(TraceKind::Drop));
        b.record(ev(TraceKind::Deliver));
        assert_ne!(
            a.digest(),
            b.digest(),
            "swapped order must change the digest"
        );
        let mut c = TraceLog::disabled();
        c.record(ev(TraceKind::Deliver));
        c.record(TraceEvent {
            at: SimTime::from_ns(1),
            ..ev(TraceKind::Drop)
        });
        assert_ne!(
            a.digest(),
            c.digest(),
            "changed timestamp must change the digest"
        );
    }

    #[test]
    fn digest_is_the_fold_of_the_stored_records() {
        let mut log = TraceLog::enabled();
        for (i, kind) in [TraceKind::Deliver, TraceKind::Timer, TraceKind::Drop]
            .into_iter()
            .enumerate()
        {
            log.record(TraceEvent {
                at: SimTime::from_ns(i as u64),
                ..ev(kind)
            });
        }
        let refold = log.events().iter().fold(EMPTY_DIGEST, fold_event);
        assert_eq!(log.digest(), refold);
    }

    #[test]
    fn clear_resets_digest() {
        let mut log = TraceLog::enabled();
        log.record(ev(TraceKind::Deliver));
        log.clear();
        assert_eq!(log.digest(), EMPTY_DIGEST);
        assert_eq!(log.recorded(), 0);
    }

    #[test]
    fn enabled_log_records_and_counts() {
        let mut log = TraceLog::enabled();
        log.record(ev(TraceKind::Deliver));
        log.record(ev(TraceKind::Drop));
        log.record(ev(TraceKind::Deliver));
        assert_eq!(log.events().len(), 3);
        assert_eq!(log.count(TraceKind::Deliver), 2);
        assert_eq!(log.count(TraceKind::Drop), 1);
        log.clear();
        assert!(log.events().is_empty());
        assert!(log.is_enabled());
    }
}
