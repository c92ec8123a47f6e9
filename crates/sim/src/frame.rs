//! The unit of data exchanged between nodes.

use crate::time::SimTime;

/// Identity of a frame, stable across hops and multicast replication.
///
/// Replicas made by switches keep the original `FrameId`, which is what lets
/// capture taps correlate a frame observed at different points in the
/// network and compute per-hop latency — exactly how trading firms measure
/// with timestamped taps (§2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub u64);

/// Out-of-band metadata carried with a frame.
///
/// None of this exists on the wire; it models the knowledge an observer
/// with a perfect capture fabric would have, and is used exclusively for
/// measurement and assertions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameMeta {
    /// Application-level tag (e.g. market-data event sequence, order id).
    pub tag: u64,
    /// Simulation time of the application-level event this frame carries
    /// (for market data: when the matching engine produced the update).
    /// Zero when unset.
    pub event_time: SimTime,
    /// Per-hop latency provenance, accumulated by the kernel when
    /// [`crate::Simulator::set_provenance`] is on. Boxed so the disabled
    /// (`None`) case costs one pointer; middleboxes that copy metadata
    /// onto rewritten frames carry the journey forward with it.
    pub provenance: Option<Box<tn_obs::Provenance>>,
}

/// A frame in flight: owned bytes plus measurement metadata.
///
/// Wire-format crates parse and build `bytes` with zero-copy views; the
/// kernel and devices treat it as opaque payload of length `len()`.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The on-the-wire bytes (for Ethernet models: the full L2 frame,
    /// excluding preamble and FCS — lengths match Table 1's convention of
    /// counting Ethernet + IP + UDP headers).
    pub bytes: Vec<u8>,
    /// Stable identity across hops and replication.
    pub id: FrameId,
    /// Time the frame was first created (first transmission onto any wire).
    pub born: SimTime,
    /// Measurement metadata.
    pub meta: FrameMeta,
}

impl Frame {
    /// Length in bytes, as counted on the wire.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the payload is empty (never the case for valid frames; kept
    /// for API completeness and clippy's `len_without_is_empty`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// In-flight construction of a new [`Frame`], started by
/// `Context::frame()` or `Simulator::frame()`.
///
/// The unified arena-first constructor API: the payload buffer is drawn
/// from the kernel's [`FrameArena`] the moment the builder is created (in
/// steady state a recycled buffer — no allocation), the combinators fill
/// it in place, and [`FrameBuilder::build`] stamps the frame with a fresh
/// monotonic [`FrameId`] and the current simulation time.
///
/// ```
/// # use tn_sim::{Simulator, SimTime};
/// let mut sim = Simulator::new(1);
/// let f = sim
///     .frame()
///     .fill(|b| b.extend_from_slice(b"payload"))
///     .tag(42)
///     .build();
/// assert_eq!(f.bytes, b"payload");
/// assert_eq!(f.meta.tag, 42);
/// ```
pub struct FrameBuilder<'h> {
    bytes: Vec<u8>,
    meta: FrameMeta,
    born: SimTime,
    next_frame_id: &'h mut u64,
}

impl<'h> FrameBuilder<'h> {
    pub(crate) fn start(
        arena: &mut FrameArena,
        next_frame_id: &'h mut u64,
        born: SimTime,
    ) -> FrameBuilder<'h> {
        FrameBuilder {
            bytes: arena.take(),
            meta: FrameMeta::default(),
            born,
            next_frame_id,
        }
    }

    /// Extend the payload to `len` zero bytes.
    pub fn zeroed(mut self, len: usize) -> Self {
        self.bytes.resize(len, 0);
        self
    }

    /// Append a copy of `src` to the payload.
    pub fn copy_from(mut self, src: &[u8]) -> Self {
        self.bytes.extend_from_slice(src);
        self
    }

    /// Emit payload bytes directly into the arena buffer — the zero-copy
    /// companion of the wire crate's `emit_into` builders.
    pub fn fill(mut self, f: impl FnOnce(&mut Vec<u8>)) -> Self {
        f(&mut self.bytes);
        self
    }

    /// Replace the frame's metadata wholesale.
    pub fn meta(mut self, meta: FrameMeta) -> Self {
        self.meta = meta;
        self
    }

    /// Set the application-level tag.
    pub fn tag(mut self, tag: u64) -> Self {
        self.meta.tag = tag;
        self
    }

    /// Set the application-level event time.
    pub fn event_time(mut self, t: SimTime) -> Self {
        self.meta.event_time = t;
        self
    }

    /// Finish: assign the next monotonic [`FrameId`] and birth time.
    pub fn build(self) -> Frame {
        let id = FrameId(*self.next_frame_id);
        *self.next_frame_id += 1;
        Frame {
            bytes: self.bytes,
            id,
            born: self.born,
            meta: self.meta,
        }
    }
}

/// Counters describing how well buffer recycling is working.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers handed out that had to be freshly allocated.
    pub allocated: u64,
    /// Buffers handed out from the free slab (no allocation).
    pub reused: u64,
    /// Buffers returned to the slab.
    pub recycled: u64,
}

/// Upper bound on parked buffers before [`FrameArena::give`] starts
/// letting them drop. Set from a measurement: with the cap lifted, the
/// paper-scale benchmark workloads park at most 18,601 buffers
/// (`design3-paper`, whose two L1 stages have ≈ 9,000 copies to 930 hosts
/// in flight at once; `design1-paper` parks 8,371, the small topologies
/// under 200), and the cap is the next power of two above that. Under a
/// cap below one fan-out a third of `design3-paper`'s takes allocated.
/// A parked buffer is memory the run already held, in flight, at its
/// peak; what the cap costs is what the allocator would have reused in
/// between (`peak_rss_mb` 25.1 → 27.5 MiB on `design3-paper`).
const DEFAULT_MAX_FREE: usize = 32_768;

/// Capacity of a buffer [`FrameArena::take`] allocates fresh, chosen from
/// the measured frame sizes. A cold arena used to hand out `Vec::new()`,
/// which the first frame written sized exactly: the 46-byte IGMP joins
/// every host sends at t = 0 drew most of `design1-paper`'s first
/// buffers, and each grew again (a `realloc`) the first time a
/// 100–256-byte feed copy or order frame reused it, about 17,000 of that
/// workload's 76,348 allocation calls per run. With the floor, 207 grow
/// there per run, for the few feed packets over 256 bytes. The floor
/// costs resident memory in proportion to the buffers a run holds at its
/// peak: `peak_rss_mb` about +5% on `design1-paper` and +7–10% on
/// `design3-paper`.
const FRESH_CAPACITY: usize = 256;

/// A slab of reusable payload buffers.
///
/// The kernel owns one and hands its buffers out through
/// `Simulator::frame` / `Context::frame`; buffers come back via `recycle`
/// or when the kernel itself discards a frame (unrouted ports, link
/// drops). This kills the
/// per-frame `Vec<u8>` allocation on the hot path that tn-audit's
/// `hotpath-alloc` lint flags — in steady state every frame reuses a
/// previously freed buffer. A buffer allocated fresh (the slab is empty)
/// starts with `FRESH_CAPACITY` (256) bytes, so a frame up to that size
/// never regrows it, whichever frame drew it first.
///
/// The arena is pure side-state: it never touches the PRNG, the event
/// queue, or the trace, so pooled and non-pooled runs of the same scenario
/// produce identical digests (buffers are handed out logically empty, and
/// filled identically either way).
#[derive(Debug)]
pub struct FrameArena {
    free: Vec<Vec<u8>>,
    max_free: usize,
    stats: ArenaStats,
}

impl Default for FrameArena {
    fn default() -> Self {
        FrameArena::new()
    }
}

impl FrameArena {
    /// An empty arena parking at most `DEFAULT_MAX_FREE` buffers.
    pub fn new() -> Self {
        FrameArena::with_max_free(DEFAULT_MAX_FREE)
    }

    /// An empty arena parking at most `max_free` buffers.
    pub fn with_max_free(max_free: usize) -> Self {
        FrameArena {
            free: Vec::new(),
            max_free,
            stats: ArenaStats::default(),
        }
    }

    /// True when the next [`FrameArena::take`] will hand out a recycled
    /// buffer rather than allocate. Lets the flight recorder classify a
    /// frame build as reuse vs. allocation *before* the builder borrows
    /// the arena.
    #[inline]
    pub fn will_reuse(&self) -> bool {
        !self.free.is_empty()
    }

    /// Hand out an empty buffer: the most recently recycled one when the
    /// slab has any (its capacity is kept, its length is zero), a fresh
    /// allocation of `FRESH_CAPACITY` bytes otherwise.
    pub fn take(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(buf) => {
                debug_assert!(buf.is_empty(), "recycled buffers are length-reset");
                self.stats.reused += 1;
                buf
            }
            None => {
                self.stats.allocated += 1;
                Vec::with_capacity(FRESH_CAPACITY)
            }
        }
    }

    /// Return a buffer to the slab. Its contents are cleared (length 0,
    /// capacity kept). Capacity-less buffers and overflow beyond the slab
    /// cap are dropped instead of parked.
    pub fn give(&mut self, mut buf: Vec<u8>) {
        if buf.capacity() > 0 && self.free.len() < self.max_free {
            buf.clear();
            self.free.push(buf);
            self.stats.recycled += 1;
        }
    }

    /// Recycling counters so far.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Fold another arena into this one: counters are summed and parked
    /// buffers adopted up to this arena's cap. Used when a sharded run
    /// reassembles per-shard arenas into the unified kernel.
    pub(crate) fn absorb(&mut self, other: FrameArena) {
        self.stats.allocated += other.stats.allocated;
        self.stats.reused += other.stats.reused;
        self.stats.recycled += other.stats.recycled;
        for buf in other.free {
            if self.free.len() == self.max_free {
                break;
            }
            self.free.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_basics() {
        let f = Frame {
            bytes: vec![1, 2, 3],
            id: FrameId(7),
            born: SimTime::from_ns(5),
            meta: FrameMeta::default(),
        };
        assert_eq!(f.len(), 3);
        assert!(!f.is_empty());
    }

    #[test]
    fn arena_reuses_buffers_and_resets_length() {
        let mut arena = FrameArena::new();
        let mut buf = arena.take();
        assert_eq!(arena.stats().allocated, 1);
        assert_eq!(
            buf.capacity(),
            FRESH_CAPACITY,
            "fresh buffers start at the floor"
        );
        buf.extend_from_slice(&[1, 2, 3, 4]);
        let cap = buf.capacity();
        arena.give(buf);
        assert_eq!(arena.free.len(), 1);
        let again = arena.take();
        // Recycled: zero-length reset, capacity (and thus the allocation)
        // retained.
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap);
        let s = arena.stats();
        assert_eq!((s.allocated, s.reused, s.recycled), (1, 1, 1));
    }

    #[test]
    fn arena_drops_capacityless_and_overflow_buffers() {
        let mut arena = FrameArena::with_max_free(2);
        arena.give(Vec::new()); // no capacity: nothing worth parking
        assert_eq!(arena.free.len(), 0);
        for _ in 0..5 {
            arena.give(vec![0u8; 8]);
        }
        assert_eq!(arena.free.len(), 2, "slab cap respected");
        assert_eq!(arena.stats().recycled, 2);
    }
}
