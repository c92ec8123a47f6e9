//! tn-flight: a bounded ring-buffer flight recorder for kernel events.
//!
//! Aircraft-style black box: the kernel (and instrumented nodes) append
//! fixed-size [`FlightRecord`]s into a preallocated ring; when the ring
//! is full the oldest record is overwritten, so at any moment the
//! recorder holds the *last N* events leading up to now. The intended
//! consumers are crash forensics — the simulator dumps the ring on panic
//! and on divergence-check failure — and explicit
//! `Simulator::dump_flight()` calls.
//!
//! Recording is pure side-state over plain integers: it never draws
//! randomness, never schedules events, never allocates after the ring is
//! sized (one `Vec` reserved at enable time), and never touches
//! wall-clock, so an enabled recorder cannot move a run's trace digest.

/// What kind of kernel activity a [`FlightRecord`] captures.
///
/// The kernel has no cancel operation (timers are never revoked, only
/// ignored by their owners), so there is no `Cancel` kind; every other
/// hot-path state change is covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlightKind {
    /// An event was pushed into the scheduler (`a` = insertion seq,
    /// `b` = simulated time of the push, ps; `at_ps` = when it fires).
    Schedule,
    /// A frame or timer was popped and dispatched to a node
    /// (`a` = frame id or timer token, `b` = port or `u64::MAX`).
    Dispatch,
    /// A frame was discarded: link loss, queue overflow, or an
    /// unconnected port (`a` = frame id, `b` = port).
    Drop,
    /// A frame build fell through the arena to a fresh heap allocation
    /// (`a` = frame id about to be assigned).
    FrameAlloc,
    /// A frame build reused a pooled arena buffer (`a` = frame id about
    /// to be assigned).
    FrameReuse,
    /// A feed receiver detected a sequence gap and asked for
    /// retransmission (`a`/`b` = application detail, e.g. first missing
    /// sequence and gap length).
    RecoveryGap,
}

impl FlightKind {
    /// Every kind, in declaration order.
    pub const ALL: [FlightKind; 6] = [
        FlightKind::Schedule,
        FlightKind::Dispatch,
        FlightKind::Drop,
        FlightKind::FrameAlloc,
        FlightKind::FrameReuse,
        FlightKind::RecoveryGap,
    ];

    /// Stable lowercase name for dumps and exports.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::Schedule => "schedule",
            FlightKind::Dispatch => "dispatch",
            FlightKind::Drop => "drop",
            FlightKind::FrameAlloc => "frame-alloc",
            FlightKind::FrameReuse => "frame-reuse",
            FlightKind::RecoveryGap => "recovery-gap",
        }
    }
}

/// One fixed-size flight record. The `a`/`b` payload words are
/// kind-specific (see [`FlightKind`]); unused words are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecord {
    /// Simulated time the record refers to, picoseconds.
    pub at_ps: u64,
    /// What happened.
    pub kind: FlightKind,
    /// Node the record is attributed to (`u32::MAX` when none).
    pub node: u32,
    /// Unused: the kernel writes 0 (a sharded kernel keeps no ring) and
    /// nothing reads it.
    pub shard: u16,
    /// First kind-specific payload word.
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
}

/// The bounded ring buffer. Capacity is fixed at enable time; a disabled
/// recorder ([`FlightRecorder::disabled`]) holds no storage and its
/// [`FlightRecorder::record`] is a single branch.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    /// Ring storage; grows by push until `cap`, then wraps in place.
    buf: Vec<FlightRecord>,
    /// Configured capacity (0 = disabled).
    cap: usize,
    /// Next write index; equals `buf.len()` until the first wrap.
    head: usize,
    /// Records ever offered (including overwritten ones).
    total: u64,
}

impl FlightRecorder {
    /// A recorder that drops everything (the default).
    pub fn disabled() -> FlightRecorder {
        FlightRecorder::default()
    }

    /// A recorder keeping the last `capacity` records. The ring is
    /// reserved up front so recording never allocates.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            total: 0,
        }
    }

    /// True when the recorder stores records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.cap > 0
    }

    /// Configured ring capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Records currently held (`<= capacity`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or the recorder is off).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records ever offered, including ones the ring has overwritten.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Append one record, overwriting the oldest when the ring is full.
    #[inline]
    pub fn record(&mut self, rec: FlightRecord) {
        if self.cap == 0 {
            return;
        }
        if self.buf.len() < self.cap {
            // Still filling: push stays within the reserved capacity.
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
        }
        self.head += 1;
        if self.head == self.cap {
            self.head = 0;
        }
        self.total += 1;
    }

    /// Forget everything recorded so far; capacity is retained.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.total = 0;
    }

    /// The held records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &FlightRecord> {
        let split = if self.buf.len() < self.cap {
            0 // not wrapped yet: buf is already oldest-first
        } else {
            self.head
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }

    /// Human-readable dump of the ring, oldest first: one line per
    /// record plus a header noting how many records scrolled off.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "flight recorder: last {} of {} records (capacity {})\n",
            self.len(),
            self.total,
            self.cap
        ));
        for r in self.records() {
            let node = if r.node == u32::MAX {
                "-".to_string()
            } else {
                r.node.to_string()
            };
            out.push_str(&format!(
                "  {:>16}ps {:<16} node={:<5} a={} b={}\n",
                r.at_ps,
                r.kind.name(),
                node,
                r.a,
                r.b
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ps: u64, kind: FlightKind) -> FlightRecord {
        FlightRecord {
            at_ps,
            kind,
            node: 1,
            shard: 0,
            a: at_ps,
            b: 0,
        }
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let mut r = FlightRecorder::disabled();
        assert!(!r.is_enabled());
        r.record(rec(1, FlightKind::Dispatch));
        assert_eq!(r.len(), 0);
        assert_eq!(r.total(), 0);
        assert!(r.is_empty());
        assert_eq!(r.records().count(), 0);
    }

    #[test]
    fn ring_holds_the_last_n_in_order() {
        let mut r = FlightRecorder::with_capacity(4);
        assert!(r.is_enabled());
        for i in 0..10u64 {
            r.record(rec(i, FlightKind::Schedule));
            assert!(r.len() <= r.capacity(), "ring exceeded capacity");
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total(), 10);
        let seen: Vec<u64> = r.records().map(|x| x.at_ps).collect();
        assert_eq!(seen, vec![6, 7, 8, 9], "oldest-first tail of the stream");
    }

    #[test]
    fn partial_fill_iterates_in_order() {
        let mut r = FlightRecorder::with_capacity(8);
        for i in 0..3u64 {
            r.record(rec(i, FlightKind::Dispatch));
        }
        let seen: Vec<u64> = r.records().map(|x| x.at_ps).collect();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn recording_never_allocates_after_construction() {
        let mut r = FlightRecorder::with_capacity(16);
        let cap_before = r.buf.capacity();
        for i in 0..1_000u64 {
            r.record(rec(i, FlightKind::FrameReuse));
        }
        assert_eq!(r.buf.capacity(), cap_before, "ring storage must not grow");
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut r = FlightRecorder::with_capacity(2);
        r.record(rec(1, FlightKind::Drop));
        r.clear();
        assert_eq!(r.len(), 0);
        assert_eq!(r.total(), 0);
        assert_eq!(r.capacity(), 2);
        r.record(rec(2, FlightKind::Drop));
        assert_eq!(r.records().next().map(|x| x.at_ps), Some(2));
    }

    #[test]
    fn render_lists_records_and_truncation() {
        let mut r = FlightRecorder::with_capacity(2);
        for i in 0..3u64 {
            r.record(FlightRecord {
                at_ps: i,
                kind: FlightKind::RecoveryGap,
                node: u32::MAX,
                shard: 0,
                a: 64,
                b: 1024,
            });
        }
        let dump = r.render();
        assert!(dump.contains("last 2 of 3 records"), "{dump}");
        assert!(dump.contains("recovery-gap"), "{dump}");
        assert!(dump.contains("node=-"), "{dump}");
    }

    #[test]
    fn kind_names_are_stable_and_distinct() {
        let mut names: Vec<&str> = FlightKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FlightKind::ALL.len());
    }
}
