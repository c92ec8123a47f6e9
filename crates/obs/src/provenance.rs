//! Per-hop latency provenance carried with a frame.
//!
//! A [`Provenance`] is the simulated equivalent of correlating one frame
//! across every timestamped tap in the plant: a contiguous sequence of
//! [`HopSegment`]s covering `[origin, frontier)` with no gaps, so the sum
//! of segment durations always equals the end-to-end elapsed time — the
//! property the workspace proptests pin down to the picosecond.

/// What a frame was doing during a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SegmentKind {
    /// Held by a node between arrival (or birth) and the next transmit —
    /// application/device processing time.
    Process,
    /// Waiting behind earlier frames in a link's egress queue.
    Queue,
    /// Being clocked onto the wire at the link rate.
    Serialize,
    /// In flight at propagation speed.
    Propagate,
}

impl SegmentKind {
    /// All kinds, in canonical order.
    pub const ALL: [SegmentKind; 4] = [
        SegmentKind::Process,
        SegmentKind::Queue,
        SegmentKind::Serialize,
        SegmentKind::Propagate,
    ];

    /// Stable lowercase name used in metrics keys and `tn-trace/v1`.
    pub fn name(self) -> &'static str {
        match self {
            SegmentKind::Process => "process",
            SegmentKind::Queue => "queue",
            SegmentKind::Serialize => "serialize",
            SegmentKind::Propagate => "propagate",
        }
    }

    /// Inverse of [`SegmentKind::name`].
    pub fn parse(s: &str) -> Option<SegmentKind> {
        SegmentKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One contiguous slice of a frame's journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopSegment {
    /// Node attributed with the time (for link segments: the transmitting
    /// node).
    pub node: u32,
    /// Port on `node` (for `Process`: the port the next transmit leaves
    /// by).
    pub port: u16,
    /// What the frame was doing.
    pub kind: SegmentKind,
    /// Segment start, absolute picoseconds.
    pub start_ps: u64,
    /// Segment end, absolute picoseconds (`end_ps >= start_ps`).
    pub end_ps: u64,
}

impl HopSegment {
    /// Duration in picoseconds.
    pub fn duration_ps(&self) -> u64 {
        self.end_ps - self.start_ps
    }
}

/// The accumulated journey of one frame.
///
/// Segments are appended only at the current frontier (zero-duration
/// segments are elided), so the record is contiguous by construction and
/// `sum_ps() == total_ps()` always holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Provenance {
    origin_ps: u64,
    segments: Vec<HopSegment>,
}

impl Provenance {
    /// Empty provenance starting at `origin_ps` (typically the frame's
    /// birth time).
    pub fn new(origin_ps: u64) -> Provenance {
        Provenance {
            origin_ps,
            // audit:allow(hotpath-alloc): provenance capture is opt-in diagnostics; per-hop allocation is the feature's price when enabled
            segments: Vec::new(),
        }
    }

    /// Recorded segments, in journey order.
    pub fn segments(&self) -> &[HopSegment] {
        &self.segments
    }

    /// End of the last segment (the origin when empty).
    pub fn frontier_ps(&self) -> u64 {
        self.segments.last().map_or(self.origin_ps, |s| s.end_ps)
    }

    /// Elapsed time covered: `frontier - origin`.
    pub fn total_ps(&self) -> u64 {
        self.frontier_ps() - self.origin_ps
    }

    /// Sum of segment durations. Equal to [`Provenance::total_ps`] by the
    /// contiguity invariant.
    pub fn sum_ps(&self) -> u64 {
        self.segments.iter().map(HopSegment::duration_ps).sum()
    }

    /// True when segments tile `[origin, frontier)` with no gaps or
    /// overlaps. Always true for kernel-built records; exposed so parsers
    /// of externally supplied traces can validate.
    pub fn is_contiguous(&self) -> bool {
        let mut at = self.origin_ps;
        for s in &self.segments {
            if s.start_ps != at || s.end_ps < s.start_ps {
                return false;
            }
            at = s.end_ps;
        }
        true
    }

    fn push(&mut self, node: u32, port: u16, kind: SegmentKind, end_ps: u64) {
        let start_ps = self.frontier_ps();
        debug_assert!(end_ps >= start_ps, "provenance must move forward");
        if end_ps > start_ps {
            self.segments.push(HopSegment {
                node,
                port,
                kind,
                start_ps,
                end_ps,
            });
        }
    }

    /// Close the gap between the frontier and `until_ps` with a `Process`
    /// segment at `node` — the time the frame sat inside the node before
    /// it transmitted out of `port`. No-op when there is no gap.
    pub fn record_process(&mut self, node: u32, port: u16, until_ps: u64) {
        self.push(node, port, SegmentKind::Process, until_ps);
    }

    /// Record one link traversal out of `(node, port)`: queueing, then
    /// serialization, then propagation, starting at the current frontier.
    /// Zero-duration phases are elided.
    pub fn record_hop(
        &mut self,
        node: u32,
        port: u16,
        queue_ps: u64,
        serialize_ps: u64,
        propagate_ps: u64,
    ) {
        let f = self.frontier_ps();
        self.push(node, port, SegmentKind::Queue, f + queue_ps);
        let f = self.frontier_ps();
        self.push(node, port, SegmentKind::Serialize, f + serialize_ps);
        let f = self.frontier_ps();
        self.push(node, port, SegmentKind::Propagate, f + propagate_ps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_names() {
        for k in SegmentKind::ALL {
            assert_eq!(SegmentKind::parse(k.name()), Some(k));
        }
        assert_eq!(SegmentKind::parse("wire"), None);
    }

    #[test]
    fn segments_tile_the_journey() {
        let mut p = Provenance::new(1_000);
        p.record_process(0, 0, 1_500); // 500 ps of processing
        p.record_hop(0, 0, 100, 200, 300);
        assert_eq!(p.segments().len(), 4);
        assert_eq!(p.frontier_ps(), 2_100);
        assert_eq!(p.total_ps(), 1_100);
        assert_eq!(p.sum_ps(), p.total_ps());
        assert!(p.is_contiguous());
    }

    #[test]
    fn zero_phases_are_elided_without_breaking_contiguity() {
        let mut p = Provenance::new(0);
        p.record_process(1, 2, 0); // no gap: elided
        p.record_hop(1, 2, 0, 0, 250);
        assert_eq!(p.segments().len(), 1);
        assert_eq!(p.segments()[0].kind, SegmentKind::Propagate);
        assert_eq!(p.segments()[0].duration_ps(), 250);
        assert!(p.is_contiguous());
        assert_eq!(p.sum_ps(), p.total_ps());
    }

    #[test]
    fn contiguity_detects_gaps() {
        let mut p = Provenance::new(0);
        p.record_hop(0, 0, 0, 0, 10);
        assert!(p.is_contiguous());
        // Hand-build a gapped record through the public parse path instead:
        let broken = Provenance {
            origin_ps: 0,
            segments: vec![HopSegment {
                node: 0,
                port: 0,
                kind: SegmentKind::Queue,
                start_ps: 5,
                end_ps: 9,
            }],
        };
        assert!(!broken.is_contiguous());
        assert_ne!(broken.sum_ps(), broken.total_ps());
    }
}
