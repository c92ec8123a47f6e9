//! Event schedulers: the pending-event set behind the kernel.
//!
//! The kernel pops events in strict `(time, seq)` order — time first, then
//! insertion sequence so equal-time events replay in schedule order. That
//! total order *is* the determinism contract: any two [`Scheduler`]
//! implementations must pop the exact same sequence for the exact same
//! pushes, which `tests/scheduler_equivalence.rs` and the tn-audit
//! divergence corpus pin bit-for-bit via trace digests.
//!
//! The kernel holds its queue as an `EventQueue`, an enum over the three
//! implementations rather than a `Box<dyn Scheduler>`: almost every push
//! on a fan-out workload is a single link store, cheaper than the call
//! that used to wrap it. The kernel pushes and pops through
//! `EventQueue::push_event` and `pop_event`, which carry time, seq and
//! payload apart rather than as one [`QueuedEvent`]. Their heap arm is
//! forced inline into the kernel's event loop (through
//! `Simulator::schedule`, which is too); the other two arms sit behind
//! one out-of-line function per operation, so the `match` does not grow
//! the loop. A plain three-arm `match` leaves the heap's push and pop as
//! out-of-line calls.
//!
//! On the heap's arm a payload is written to its slab slot once and read
//! from it once. A push picks the slot first and writes the whole slot
//! there, and nothing before that write can panic: a payload that
//! unwinding might have to drop is kept in a stack copy, and the write
//! would copy it from there. A pop orders the key out first (the run
//! advances or the heap sifts) and puts the slot on the free list; only
//! then is the payload moved straight out of the slot, into the kernel's
//! one by-value match. A push made during the dispatch that follows can
//! reuse the slot at once.
//!
//! Three implementations ship:
//!
//! * [`BinaryHeapScheduler`] — the reference `O(log n)` min-heap: 24-byte
//!   `(time, seq, slot)` keys sifted over a payload slab, so the part of
//!   the queue every push and pop walks stays cache-resident at 10⁵
//!   pending events. A key stands for a *run* — consecutive pushes for
//!   one instant under consecutive seqs, which is what a fan-out is — so
//!   only a run's first push and last pop touch the heap at all. Default.
//! * [`CalendarQueue`] — Brown's calendar queue (CACM '88), `O(1)`
//!   amortized for the dense, near-future event horizons that link and
//!   switch latencies produce. Selected per scenario via
//!   [`SchedulerKind::CalendarQueue`].
//! * [`TimingWheel`] — a hierarchical timing wheel (Varghese & Lauck,
//!   SOSP '87): 64-slot levels at 6 bits per level, nanosecond ticks at
//!   level 0. Near events pay an array index; far events park in coarse
//!   upper levels and cascade down only when the cursor reaches them.
//!   Selected via [`SchedulerKind::TimingWheel`].

use std::collections::VecDeque;

use crate::context::TimerToken;
use crate::frame::Frame;
use crate::node::{NodeId, PortId};
use crate::time::SimTime;

/// What a queued event does when it fires.
pub(crate) enum EventKind {
    /// Deliver `frame` to `(node, port)`.
    Frame {
        node: NodeId,
        port: PortId,
        frame: Frame,
    },
    /// Fire `token` on `node`. A service queue's completion timer carries
    /// the frame it releases, to be sent on `port`: the frame waits in
    /// the event instead of in a per-queue buffer, so releasing it reads
    /// only what the pop already brought into cache. `port` is unused
    /// when `frame` is `None`. Flattened rather than an
    /// `Option<(PortId, Frame)>`, which would cost another word.
    Timer {
        node: NodeId,
        token: TimerToken,
        port: PortId,
        frame: Option<Frame>,
    },
}

/// One pending event. Ordered by `(at, seq)`; `seq` is the kernel's global
/// insertion counter, so ordering is total and deterministic.
///
/// Public so [`Scheduler`] is nameable outside the crate, but fields and
/// construction are kernel-internal.
pub struct QueuedEvent {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

impl EventKind {
    /// Node the event will dispatch to.
    #[inline]
    pub(crate) fn target_node(&self) -> NodeId {
        match self {
            EventKind::Frame { node, .. } | EventKind::Timer { node, .. } => *node,
        }
    }
}

impl QueuedEvent {
    /// `(time, seq)` sort key.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Structural statistics a scheduler exposes to the kernel profiler:
/// plain counters, `Copy`, cheap enough to snapshot per event when the
/// flight recorder is watching for rebuilds and cascades.
///
/// Implementations fill only the fields that apply to them (the heap has
/// none); everything defaults to zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Calendar-queue bucket-array rebuilds since construction.
    pub rebuilds: u64,
    /// Timing-wheel upper-level cascades since construction.
    pub cascades: u64,
    /// Calendar-queue bucket count right now.
    pub bucket_count: u64,
    /// Calendar-queue bucket width right now, picoseconds.
    pub bucket_width_ps: u64,
    /// Timing-wheel occupied slots per level right now.
    pub wheel_occupancy: [u64; WHEEL_LEVELS],
}

/// The pending-event set. Implementations must pop in ascending
/// `(time, seq)` order — the same total order as the reference
/// [`BinaryHeapScheduler`] — or trace digests diverge and the
/// equivalence suite fails. `Send` is a supertrait so per-shard
/// schedulers can live on per-shard threads.
pub trait Scheduler: Send {
    /// Insert an event.
    fn push(&mut self, ev: QueuedEvent);
    /// Remove and return the `(time, seq)`-minimal event.
    fn pop(&mut self) -> Option<QueuedEvent>;
    /// Timestamp of the event [`Scheduler::pop`] would return, without
    /// removing it. Takes `&mut self` so implementations may cache the
    /// search.
    fn next_at(&mut self) -> Option<SimTime>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// Structural counters for the profiler. Pure observation: calling
    /// this must not change future pop order.
    fn stats(&self) -> SchedStats {
        SchedStats::default()
    }
}

/// Which `Scheduler` a simulator uses. Selectable per scenario via
/// `ScenarioConfig::scheduler` in `tn-core`; the default stays the
/// reference heap so existing runs are untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Reference `O(log n)` binary min-heap.
    #[default]
    BinaryHeap,
    /// Brown's `O(1)`-amortized calendar queue.
    CalendarQueue,
    /// Hierarchical timing wheel (64-slot levels, nanosecond ticks).
    TimingWheel,
}

impl SchedulerKind {
    /// Every kind, for differential test sweeps.
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::BinaryHeap,
        SchedulerKind::CalendarQueue,
        SchedulerKind::TimingWheel,
    ];

    /// Construct the queue this kind names.
    pub(crate) fn build(self) -> EventQueue {
        match self {
            SchedulerKind::BinaryHeap => EventQueue::Heap(BinaryHeapScheduler::new()),
            SchedulerKind::CalendarQueue => EventQueue::Calendar(CalendarQueue::new()),
            SchedulerKind::TimingWheel => EventQueue::Wheel(TimingWheel::new()),
        }
    }

    /// Stable name, as `FromStr` parses it.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::BinaryHeap => "binary-heap",
            SchedulerKind::CalendarQueue => "calendar-queue",
            SchedulerKind::TimingWheel => "timing-wheel",
        }
    }
}

impl std::str::FromStr for SchedulerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "binary-heap" | "heap" => Ok(SchedulerKind::BinaryHeap),
            "calendar-queue" | "calendar" => Ok(SchedulerKind::CalendarQueue),
            "timing-wheel" | "wheel" => Ok(SchedulerKind::TimingWheel),
            other => Err(format!(
                "unknown scheduler {other:?} (expected binary-heap, calendar-queue, or timing-wheel)"
            )),
        }
    }
}

/// The kernel's queue: whichever [`Scheduler`] its [`SchedulerKind`]
/// names, held by value. Every method forces the heap's arm inline and
/// sends the other two to one `#[inline(never)]` function, so the event
/// loop pays neither a vtable call nor the code of the arms it does not
/// run.
pub(crate) enum EventQueue {
    Heap(BinaryHeapScheduler),
    Calendar(CalendarQueue),
    Wheel(TimingWheel),
}

impl EventQueue {
    #[inline(never)]
    fn push_other(&mut self, ev: QueuedEvent) {
        match self {
            EventQueue::Heap(heap) => heap.push(ev),
            EventQueue::Calendar(cal) => cal.push(ev),
            EventQueue::Wheel(wheel) => wheel.push(ev),
        }
    }

    #[inline(never)]
    fn pop_other(&mut self) -> Option<QueuedEvent> {
        match self {
            EventQueue::Heap(heap) => heap.pop(),
            EventQueue::Calendar(cal) => cal.pop(),
            EventQueue::Wheel(wheel) => wheel.pop(),
        }
    }

    #[inline(never)]
    fn next_at_other(&mut self) -> Option<SimTime> {
        match self {
            EventQueue::Heap(heap) => heap.next_at(),
            EventQueue::Calendar(cal) => cal.next_at(),
            EventQueue::Wheel(wheel) => wheel.next_at(),
        }
    }

    /// The kernel's push: `kind` for `at` under `seq`. Time, seq and
    /// payload travel apart, so the heap's arm writes the payload into
    /// its slab slot without first building a [`QueuedEvent`] around it.
    #[inline(always)]
    pub(crate) fn push_event(&mut self, at: SimTime, seq: u64, kind: EventKind) {
        match self {
            EventQueue::Heap(heap) => heap.insert_event(at, seq, kind),
            _ => self.push_other(QueuedEvent { at, seq, kind }),
        }
    }

    /// The kernel's pop: the minimal event's time, seq and payload. On
    /// the heap's arm the key is ordered out first and the payload then
    /// moved straight out of its slab slot, which is vacant again before
    /// the event is dispatched; the other two arms pop as usual.
    #[inline(always)]
    pub(crate) fn pop_event(&mut self) -> Option<(SimTime, u64, EventKind)> {
        match self {
            EventQueue::Heap(heap) => {
                let key = heap.pop_key()?;
                Some((key.at, key.seq, heap.take_payload(key.slot)))
            }
            _ => self.pop_other().map(|ev| (ev.at, ev.seq, ev.kind)),
        }
    }
}

impl Scheduler for EventQueue {
    #[inline(always)]
    fn push(&mut self, ev: QueuedEvent) {
        self.push_event(ev.at, ev.seq, ev.kind);
    }

    #[inline(always)]
    fn pop(&mut self) -> Option<QueuedEvent> {
        let (at, seq, kind) = self.pop_event()?;
        Some(QueuedEvent { at, seq, kind })
    }

    #[inline(always)]
    fn next_at(&mut self) -> Option<SimTime> {
        match self {
            EventQueue::Heap(heap) => heap.next_at(),
            _ => self.next_at_other(),
        }
    }

    #[inline(always)]
    fn len(&self) -> usize {
        match self {
            EventQueue::Heap(heap) => heap.len(),
            EventQueue::Calendar(cal) => cal.len(),
            EventQueue::Wheel(wheel) => wheel.len(),
        }
    }

    fn stats(&self) -> SchedStats {
        match self {
            EventQueue::Heap(heap) => heap.stats(),
            EventQueue::Calendar(cal) => cal.stats(),
            EventQueue::Wheel(wheel) => wheel.stats(),
        }
    }
}

/// What the heap sifts: a run's `(at, seq)` sort key — its head's — and
/// the slab slot the head's payload waits in. 24 bytes, so 100,000 pending
/// timers are a 2.4 MB array and a sift level moves three words; the
/// 80-byte [`EventKind`] (room for a whole [`Frame`] in every one, timers
/// included) never moves.
#[derive(Clone, Copy)]
struct HeapKey {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl HeapKey {
    /// Strict `(time, seq)` order — the kernel's pop order.
    #[inline]
    fn before(&self, other: &HeapKey) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

/// "No slot": ends a run's chain, ends the vacant list, and marks the
/// open run closed. The slab stops growing one short of it.
const NIL: u32 = u32::MAX;

/// Reference scheduler: an implicit binary min-heap of *runs* over a
/// payload slab.
///
/// A run is a maximal sequence of consecutive pushes for one instant
/// under consecutive seqs — what a switch's fan-out, or a node setting N
/// timers for one deadline, produces. It owns one `HeapKey` (its
/// head's) and its members are chained through their slots' `link`s. A
/// push that continues the last push's run costs one link store and no
/// heap operation; a pop that leaves a successor advances the root key
/// in place, with no sift. Only a run's first push sifts up and only its
/// last pop sifts down, so a 930-way fan-out is one heap entry, not 930.
///
/// Why that preserves the `(time, seq)` pop order: seqs are unique, so a
/// run `(t, s)..=(t, s + k)` is an interval no other pending event can
/// sort inside, and two runs compare as their heads do. After the head
/// `(t, s)` pops, every other run still sorts after `(t, s + k)`, hence
/// after the new head `(t, s + 1)`: the root is still the minimum. The
/// join rule is therefore contiguity (`seq == last + 1`), not `seq >
/// last`: a shard pushes leader-assigned real seqs among provisional
/// bit-63 ones at one instant, and a run with a hole in it is not an
/// interval — the event that belongs in the hole would pop late.
///
/// A payload is written once on push and read once on pop; in between
/// only its run's key is compared and moved. Vacated slots are reused
/// newest-first, so the pop-dispatch-push cycle of a periodic timer keeps
/// hitting the slot it just vacated.
pub struct BinaryHeapScheduler {
    /// The heap, one key per run: `keys[0]` is the minimum, children of
    /// `i` at `2i + 1` and `2i + 2`.
    keys: Vec<HeapKey>,
    /// Payloads and run links, indexed by slot.
    slab: Vec<Slot>,
    /// Most recently vacated slab slot, or [`NIL`].
    free: u32,
    /// Pending events (not runs: `sim.max_queue_depth` reads this).
    len: usize,
    /// The open run — the one the next push may join: the last push's
    /// `(at, seq, slot)`. `slot` is [`NIL`] once that event has popped, so
    /// a slot the free list may have handed out again is never linked to.
    open: HeapKey,
}

/// One slab entry.
struct Slot {
    /// A pending event's payload; `None` is vacant.
    kind: Option<EventKind>,
    /// For a pending event: the slot of its successor in its run, or
    /// [`NIL`]. For a vacant slot: the slot vacated before it, or [`NIL`].
    /// In the slot rather than in an array beside the slab, so a run costs
    /// no allocation the per-event heap did not make.
    link: u32,
}

impl Default for BinaryHeapScheduler {
    fn default() -> Self {
        BinaryHeapScheduler::new()
    }
}

impl BinaryHeapScheduler {
    /// An empty heap.
    pub fn new() -> Self {
        BinaryHeapScheduler {
            keys: Vec::new(),
            slab: Vec::new(),
            free: NIL,
            len: 0,
            open: HeapKey {
                at: SimTime::ZERO,
                seq: 0,
                slot: NIL,
            },
        }
    }

    /// Queue `kind` for `at` under `seq`.
    #[inline(always)]
    fn insert_event(&mut self, at: SimTime, seq: u64, kind: EventKind) {
        // The destination first, then one write of the whole slot, and
        // nothing that can panic before it: a payload that unwinding
        // might have to drop is kept in a stack copy, and that copy is
        // what would be written here.
        let slot = match self.slab.get_mut(self.free as usize) {
            Some(entry) => {
                debug_assert!(
                    entry.kind.is_none(),
                    "free list runs through a pending event"
                );
                let slot = self.free;
                self.free = entry.link;
                // Forgotten, not dropped: the vacant payload has nothing
                // to drop, and a drop that might unwind is a panic
                // before the write, as above.
                std::mem::forget(std::mem::replace(
                    entry,
                    Slot {
                        kind: Some(kind),
                        link: NIL,
                    },
                ));
                slot
            }
            None => self.grow(kind),
        };
        self.len += 1;
        let key = HeapKey { at, seq, slot };
        let last = std::mem::replace(&mut self.open, key);
        if last.slot != NIL && last.at == key.at && last.seq.checked_add(1) == Some(key.seq) {
            // Joins the open run: no ordering decision to make.
            self.slab[last.slot as usize].link = slot;
            return;
        }
        // Opens a run. Sift up: pull parents down into the hole until
        // `key` fits.
        let mut hole = self.keys.len();
        self.keys.push(key);
        while hole > 0 {
            let parent = (hole - 1) / 2;
            if !key.before(&self.keys[parent]) {
                break;
            }
            self.keys[hole] = self.keys[parent];
            hole = parent;
        }
        self.keys[hole] = key;
    }

    /// Append a slot holding `kind` and return its index: the free list
    /// is empty. Growth only; the steady state reuses vacated slots.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, kind: EventKind) -> u32 {
        debug_assert_eq!(self.free, NIL, "grew with a vacant slot to reuse");
        assert!(self.slab.len() < NIL as usize, "event slab full");
        self.slab.push(Slot {
            kind: Some(kind),
            link: NIL,
        });
        (self.slab.len() - 1) as u32
    }

    /// Order the minimal event out: its run advances, or its key leaves
    /// the heap, and its slot joins the free list. The payload stays in
    /// the slot for [`BinaryHeapScheduler::take_payload`], so it is read once,
    /// straight into whoever dispatches it, and not carried across the
    /// key work in between. Until it is taken nothing may push.
    #[inline(always)]
    fn pop_key(&mut self) -> Option<HeapKey> {
        let top = *self.keys.first()?;
        let next = self.slab[top.slot as usize].link;
        if next != NIL {
            // The run goes on: its next member is the new minimum.
            self.keys[0] = HeapKey {
                at: top.at,
                seq: top.seq + 1,
                slot: next,
            };
        } else {
            if top.slot == self.open.slot {
                self.open.slot = NIL;
            }
            // The run is spent. Sift down: the last key re-enters at the
            // root, the smaller child rising into the hole until it fits.
            let last = self.keys.pop()?;
            let keys = self.keys.as_mut_slice();
            if !keys.is_empty() {
                let mut hole = 0;
                loop {
                    let mut child = 2 * hole + 1;
                    if child >= keys.len() {
                        break;
                    }
                    if child + 1 < keys.len() && keys[child + 1].before(&keys[child]) {
                        child += 1;
                    }
                    if !keys[child].before(&last) {
                        break;
                    }
                    keys[hole] = keys[child];
                    hole = child;
                }
                keys[hole] = last;
            }
        }
        self.len -= 1;
        self.slab[top.slot as usize].link = self.free;
        self.free = top.slot;
        Some(top)
    }

    /// Move the payload out of the slot [`BinaryHeapScheduler::pop_key`]
    /// just vacated, leaving it empty for the next push.
    #[inline(always)]
    fn take_payload(&mut self, slot: u32) -> EventKind {
        let Some(kind) = self.slab[slot as usize].kind.take() else {
            unreachable!("heap key points at a vacant slab slot")
        };
        kind
    }
}

impl Scheduler for BinaryHeapScheduler {
    #[inline(always)]
    fn push(&mut self, ev: QueuedEvent) {
        self.insert_event(ev.at, ev.seq, ev.kind);
    }

    #[inline(always)]
    fn pop(&mut self) -> Option<QueuedEvent> {
        let key = self.pop_key()?;
        Some(QueuedEvent {
            at: key.at,
            seq: key.seq,
            kind: self.take_payload(key.slot),
        })
    }

    fn next_at(&mut self) -> Option<SimTime> {
        self.keys.first().map(|key| key.at)
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Smallest bucket count; the queue starts here and never shrinks below.
const MIN_BUCKETS: usize = 16;
/// Largest bucket count; growth stops here regardless of population.
const MAX_BUCKETS: usize = 1 << 16;
/// Initial bucket-width shift (2^10 ps ≈ 1 ns) until the first resize
/// measures the real inter-event gap. Widths are always powers of two so
/// the day of a timestamp is a shift, not a division — `day_of` runs on
/// every push, pop, and scan probe.
const INITIAL_WIDTH_SHIFT: u32 = 10;

/// Brown's calendar queue: a bucket ring indexed by `time / width`, like a
/// desk calendar — one bucket per "day", one lap of the ring per "year".
///
/// Each bucket is kept sorted ascending by `(time, seq)`, so a bucket's
/// front is its minimum and `pop` is a front removal. The scan from the
/// current day therefore probes one front per bucket: the first bucket
/// whose front belongs to the day being visited holds the global minimum
/// (later "years" hash to the same bucket but sort behind the current
/// day). If a whole year of days is empty the queue falls back to a
/// direct minimum over bucket fronts, which also fast-forwards the
/// calendar. Resizes re-derive the bucket width from the median non-zero
/// gap between pending events — the mean is useless here because this
/// kernel's workloads mix equal-time cohorts with millisecond dead zones.
/// All decisions are pure functions of the queue contents, so the
/// schedule stays deterministic.
pub struct CalendarQueue {
    /// `buckets.len()` is a power of two; `mask = len - 1`. Each bucket is
    /// sorted ascending by `(time, seq)`.
    buckets: Vec<VecDeque<QueuedEvent>>,
    mask: usize,
    /// Bucket width is `1 << shift` picoseconds. An event at `t` lives in
    /// bucket `(t >> shift) & mask` — `t >> shift` is its absolute "day".
    shift: u32,
    /// Day of the most recent pop; scans resume here.
    cursor: u64,
    len: usize,
    /// Bucket whose front is the global minimum, cached between
    /// [`Scheduler::next_at`] and [`Scheduler::pop`].
    cached_min: Option<usize>,
    /// Searches since the last rebuild that fell off the calendar into
    /// the direct-minimum fallback. A high count means the width no
    /// longer matches the event horizon (it is only re-derived on
    /// resize), so [`Scheduler::pop`] forces a re-derivation. Purely a
    /// function of the push/pop history, so determinism is preserved.
    fallbacks: u32,
    /// Shift-based exponential average of the push horizon (how far
    /// ahead of the cursor events land, in picoseconds). Cheap to keep
    /// per push; drives the width auto-tune below.
    horizon_ema_ps: u64,
    /// Pushes since the width was last checked against the horizon.
    pushes_since_tune: u32,
    /// Rebuilds since construction, for [`SchedStats`].
    rebuilds: u64,
}

/// Pushes between width auto-tune checks. Checking is cheap but a
/// triggered rebuild is not, so it is rate-limited; amortized over this
/// many pushes the tune costs nothing.
const TUNE_INTERVAL: u32 = 4096;

impl Default for CalendarQueue {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl CalendarQueue {
    /// An empty calendar with `MIN_BUCKETS` days of `INITIAL_WIDTH_PS`.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| VecDeque::new()).collect(),
            mask: MIN_BUCKETS - 1,
            shift: INITIAL_WIDTH_SHIFT,
            cursor: 0,
            len: 0,
            cached_min: None,
            fallbacks: 0,
            horizon_ema_ps: 0,
            pushes_since_tune: 0,
            rebuilds: 0,
        }
    }

    /// Current bucket width in picoseconds (test / diagnostic visibility).
    pub fn bucket_width_ps(&self) -> u64 {
        1u64 << self.shift
    }

    #[inline]
    fn day_of(&self, at: SimTime) -> u64 {
        at.as_ps() >> self.shift
    }

    /// Locate the bucket whose front is the `(time, seq)`-minimal event:
    /// one lap of the calendar from the cursor peeking only at fronts,
    /// then a direct minimum over fronts when the year ahead is empty.
    fn find_min(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        for i in 0..self.buckets.len() as u64 {
            let day = self.cursor.wrapping_add(i);
            let b = (day as usize) & self.mask;
            if let Some(front) = self.buckets[b].front() {
                // The front is the bucket minimum; it belongs to `day`
                // exactly when this bucket has anything this "year".
                if self.day_of(front.at) == day {
                    return Some(b);
                }
            }
        }
        self.fallbacks += 1;
        let mut best: Option<(usize, (SimTime, u64))> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            if let Some(front) = bucket.front() {
                let key = front.key();
                if best.is_none_or(|(_, k)| key < k) {
                    best = Some((b, key));
                }
            }
        }
        best.map(|(b, _)| b)
    }

    /// Re-bucket every event into `new_nb` buckets, re-deriving the width
    /// as a power of two near the *smaller* of ≈3× the median non-zero
    /// inter-event gap and ≈3× the mean gap (`span / len`). The median
    /// keeps equal-time cohorts — which drag the mean to zero — from
    /// collapsing the width; the mean keeps dense horizons (many live
    /// timers in a short span) from over-filling each day, which would
    /// turn the sorted-bucket inserts into large memmoves. Deterministic:
    /// inputs are the queue contents only.
    fn rebuild(&mut self, new_nb: usize) {
        self.rebuild_with(new_nb, None);
    }

    /// [`CalendarQueue::rebuild`] with an optionally imposed width shift:
    /// the horizon auto-tune passes the shift its EMA implies (the queue
    /// may be near-empty at tune time, leaving nothing to re-derive
    /// from); occupancy resizes pass `None` and re-derive from contents.
    fn rebuild_with(&mut self, new_nb: usize, forced_shift: Option<u32>) {
        self.rebuilds += 1;
        let new_nb = new_nb.clamp(MIN_BUCKETS, MAX_BUCKETS);
        let cursor_ps = self.cursor << self.shift;
        // audit:allow(hotpath-alloc): rebuild is an occupancy-triggered resize, amortized across many pushes
        let mut evs: Vec<QueuedEvent> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            evs.extend(bucket.drain(..));
        }
        evs.sort_unstable_by_key(QueuedEvent::key);
        if let Some(shift) = forced_shift {
            self.shift = shift;
        } else if evs.len() >= 2 {
            let mut gaps: Vec<u64> = evs
                .windows(2)
                .map(|w| w[1].at.as_ps() - w[0].at.as_ps())
                .filter(|&g| g > 0)
                .collect();
            if !gaps.is_empty() {
                gaps.sort_unstable();
                let median = gaps[gaps.len() / 2];
                let span = evs[evs.len() - 1].at.as_ps() - evs[0].at.as_ps();
                let mean = span / evs.len() as u64;
                let target = median.min(mean.max(1)).saturating_mul(3).max(1);
                self.shift = 63 - target.next_power_of_two().leading_zeros();
            }
        }
        // Rescale the cursor to the (possibly new) width; the first
        // pending event pins it exactly when there is one.
        self.cursor = cursor_ps >> self.shift;
        if let Some(first) = evs.first() {
            self.cursor = self.day_of(first.at);
        }
        self.buckets = (0..new_nb).map(|_| VecDeque::new()).collect();
        self.mask = new_nb - 1;
        for ev in evs {
            // Ascending feed: appending keeps every bucket sorted.
            let b = (self.day_of(ev.at) as usize) & self.mask;
            self.buckets[b].push_back(ev);
        }
        self.cached_min = None;
        self.fallbacks = 0;
    }
}

impl Scheduler for CalendarQueue {
    fn push(&mut self, ev: QueuedEvent) {
        // Width auto-tune: track how far ahead of the calendar events
        // land (EMA over pushes, 1/16 gain) and, every TUNE_INTERVAL
        // pushes, compare the width that horizon implies (≈3× the mean
        // gap, matching `rebuild`'s derivation) against the current one.
        // More than two octaves of drift forces a same-size rebuild,
        // which re-derives the width from the live contents. Inputs are
        // the push history only, so the schedule stays deterministic.
        let horizon = ev.at.as_ps().saturating_sub(self.cursor << self.shift);
        self.horizon_ema_ps = self.horizon_ema_ps - self.horizon_ema_ps / 16 + horizon / 16;
        self.pushes_since_tune += 1;
        if self.pushes_since_tune >= TUNE_INTERVAL {
            self.pushes_since_tune = 0;
            let target = (self.horizon_ema_ps / self.len.max(1) as u64)
                .saturating_mul(3)
                .max(1);
            let ideal = 63 - target.next_power_of_two().leading_zeros();
            if ideal.abs_diff(self.shift) > 2 {
                self.rebuild_with(self.buckets.len(), Some(ideal));
            }
        }
        if self.len + 1 > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.rebuild(self.buckets.len() * 2);
        }
        let day = self.day_of(ev.at);
        if day < self.cursor {
            // The kernel never schedules into the past, but a standalone
            // scheduler must still honor it: rewind so the scan sees it.
            self.cursor = day;
        }
        let b = (day as usize) & self.mask;
        let key = ev.key();
        let bucket = &mut self.buckets[b];
        // Binary search for the sorted slot. The common shapes are cheap:
        // an equal-time cohort appends at the back, and VecDeque::insert
        // rotates whichever side is shorter.
        let (mut lo, mut hi) = (0usize, bucket.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if bucket[mid].key() < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        bucket.insert(lo, ev);
        self.len += 1;
        if let Some(cb) = self.cached_min {
            // A key below the cached global minimum is the new minimum,
            // and is therefore at the front of its own bucket.
            // audit:allow(hotpath-unwrap): cached_min always points at a non-empty bucket; it is cleared when its bucket drains
            if key < self.buckets[cb].front().expect("cached bucket empty").key() {
                self.cached_min = Some(b);
            }
        }
    }

    fn pop(&mut self) -> Option<QueuedEvent> {
        let b = match self.cached_min.take() {
            Some(b) => b,
            None => self.find_min()?,
        };
        let ev = self.buckets[b].pop_front()?;
        self.len -= 1;
        self.cursor = self.day_of(ev.at);
        if self.len * 4 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
            self.rebuild(self.buckets.len() / 2);
        } else if self.fallbacks >= 64 {
            // The width has drifted away from the live horizon; same
            // bucket count, fresh width.
            self.rebuild(self.buckets.len());
        }
        Some(ev)
    }

    fn next_at(&mut self) -> Option<SimTime> {
        if self.cached_min.is_none() {
            self.cached_min = self.find_min();
        }
        self.cached_min
            .and_then(|b| self.buckets[b].front())
            .map(|ev| ev.at)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn stats(&self) -> SchedStats {
        SchedStats {
            rebuilds: self.rebuilds,
            bucket_count: self.buckets.len() as u64,
            bucket_width_ps: self.bucket_width_ps(),
            ..SchedStats::default()
        }
    }
}

/// Slots per wheel level; `2^WHEEL_GROUP_BITS`.
const WHEEL_SLOTS: usize = 64;
/// Bits of the tick consumed per level.
const WHEEL_GROUP_BITS: u32 = 6;
/// Level-0 tick granularity: `2^10` ps ≈ 1 ns, matching the sub-ns link
/// latencies the kernel schedules at. Coarser ticks would merge distinct
/// deadlines into one slot; finer ones waste levels on empty space.
const WHEEL_TICK_SHIFT: u32 = 10;
/// Levels needed to cover the full 54 usable tick bits (`64 - 10`), six
/// bits at a time: no slot index ever wraps, so upper-level positions
/// are absolute and the cursor scan never revisits a lap.
const WHEEL_LEVELS: usize = 9;

/// Hierarchical timing wheel (Varghese & Lauck, SOSP '87).
///
/// Time is quantized into ~1 ns ticks. Level `L` slices bits
/// `[6L, 6L+6)` of the tick: an event lives at the *highest* level where
/// its tick still differs from the cursor's, so the 64 level-0 slots
/// hold the next 64 ticks in exact order and each coarser level holds
/// exponentially wider "someday" bands. Popping scans at most 64
/// level-0 fronts; when the current 64-tick window drains, the nearest
/// occupied upper slot *cascades* — its events are re-placed relative to
/// the advanced cursor, landing one level (or more) lower. Each event
/// cascades at most [`WHEEL_LEVELS`] times, so the amortized cost per
/// event is O(levels) with no comparisons against unrelated events —
/// the win over the heap's O(log n) on timer-churn workloads.
///
/// Level-0 slots are kept sorted by `(time, seq)` (events sharing a
/// 1 ns tick); upper slots are append-only and sort implicitly by
/// re-placement during the cascade. All decisions are pure functions of
/// the push/pop history, so any run replays bit-identically.
pub struct TimingWheel {
    /// Slot `(L, s)` lives at `slots[L * 64 + s]`, one contiguous slab
    /// for locality: level 0 sorted ascending by key, upper levels in
    /// arrival order.
    slots: Vec<VecDeque<QueuedEvent>>,
    /// Occupancy bitmask per level (bit `s` set iff slot `(L, s)` holds
    /// events): the min scan and the cascade search are single
    /// `trailing_zeros` instructions instead of 64-slot walks.
    occ: [u64; WHEEL_LEVELS],
    /// Tick of the most recent pop (or of the earliest push since
    /// empty): the wheel's notion of "now".
    cursor: u64,
    len: usize,
    /// Level-0 slot holding the global minimum, cached between
    /// [`Scheduler::next_at`] and [`Scheduler::pop`].
    cached_min: Option<usize>,
    /// Cascades since construction, for [`SchedStats`].
    cascades: u64,
}

impl Default for TimingWheel {
    fn default() -> Self {
        TimingWheel::new()
    }
}

impl TimingWheel {
    /// An empty wheel with its cursor at tick zero.
    pub fn new() -> Self {
        TimingWheel {
            slots: (0..WHEEL_LEVELS * WHEEL_SLOTS)
                .map(|_| VecDeque::new())
                .collect(),
            occ: [0; WHEEL_LEVELS],
            cursor: 0,
            len: 0,
            cached_min: None,
            cascades: 0,
        }
    }

    #[inline]
    fn tick_of(at: SimTime) -> u64 {
        at.as_ps() >> WHEEL_TICK_SHIFT
    }

    /// Highest 6-bit group where `tick` differs from the cursor — the
    /// level the event belongs to *right now*.
    #[inline]
    fn level_of(&self, tick: u64) -> usize {
        let diff = tick ^ self.cursor;
        if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / WHEEL_GROUP_BITS) as usize
        }
    }

    #[inline]
    fn slot_of(tick: u64, level: usize) -> usize {
        ((tick >> (WHEEL_GROUP_BITS * level as u32)) as usize) & (WHEEL_SLOTS - 1)
    }

    /// File `ev` at its level/slot relative to the current cursor.
    fn place(&mut self, ev: QueuedEvent) {
        let tick = Self::tick_of(ev.at);
        debug_assert!(tick >= self.cursor, "place below cursor");
        let level = self.level_of(tick);
        let slot = Self::slot_of(tick, level);
        self.occ[level] |= 1 << slot;
        let bucket = &mut self.slots[(level << WHEEL_GROUP_BITS) | slot];
        if level == 0 {
            // A level-0 slot is a single tick; order the (rare) sub-tick
            // ties by `(time, seq)`. Equal-time cohorts append.
            let key = ev.key();
            let (mut lo, mut hi) = (0usize, bucket.len());
            while lo < hi {
                let mid = (lo + hi) / 2;
                if bucket[mid].key() < key {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            bucket.insert(lo, ev);
        } else {
            // Upper slots sort lazily, at cascade time.
            bucket.push_back(ev);
        }
    }

    /// Move the cursor back to `tick` and re-place everything. The
    /// kernel never schedules into the past, so this is a correctness
    /// backstop for standalone users, not a hot path.
    fn rewind(&mut self, tick: u64) {
        // audit:allow(hotpath-alloc): rewind only fires on into-the-past pushes, which the kernel never issues
        let mut evs: Vec<QueuedEvent> = Vec::with_capacity(self.len);
        for slot in &mut self.slots {
            evs.extend(slot.drain(..));
        }
        self.occ = [0; WHEEL_LEVELS];
        self.cursor = tick;
        for ev in evs {
            self.place(ev);
        }
        self.cached_min = None;
    }

    /// Drain the nearest occupied upper slot into the levels below,
    /// advancing the cursor to that slot's base tick. Returns false when
    /// every upper level is empty. Lower levels are exhausted whenever
    /// this runs, so draining the lowest, nearest occupied slot is
    /// always the correct next window.
    fn cascade(&mut self) -> bool {
        for level in 1..WHEEL_LEVELS {
            if self.occ[level] == 0 {
                continue;
            }
            let shift = WHEEL_GROUP_BITS * level as u32;
            let cur_idx = ((self.cursor >> shift) as usize) & (WHEEL_SLOTS - 1);
            // Slot `cur_idx` is empty by construction (its events differ
            // from the cursor at this level, so they'd be stored lower),
            // and earlier slots would be in the past — every set bit is
            // strictly after `cur_idx`, so the lowest one is the target.
            debug_assert_eq!(
                self.occ[level] & ((1u64 << cur_idx) | ((1u64 << cur_idx) - 1)),
                0,
                "occupied slot at or before the cursor"
            );
            let s = self.occ[level].trailing_zeros() as usize;
            self.occ[level] &= !(1u64 << s);
            self.cascades += 1;
            // Take the deque out, re-place its events, hand the
            // (now empty) buffer back: no allocation on the cascade.
            let mut drained = std::mem::take(&mut self.slots[(level << WHEEL_GROUP_BITS) | s]);
            // Jump the cursor to the slot's earliest tick rather than the
            // slot's base: everything outside this slot is strictly
            // later, and the earliest drained event then re-files
            // directly into level 0 — one cascade per pop instead of one
            // per level.
            let min_tick = drained
                .iter()
                .map(|e| Self::tick_of(e.at))
                .min()
                // audit:allow(hotpath-unwrap): an occupancy bit is only set while its slot holds events
                .expect("occupied slot was empty");
            self.cursor = min_tick;
            for ev in drained.drain(..) {
                self.place(ev);
            }
            self.slots[(level << WHEEL_GROUP_BITS) | s] = drained;
            return true;
        }
        false
    }

    /// Level-0 slot of the `(time, seq)`-minimal event, cascading upper
    /// levels down as needed.
    fn find_min(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Within the current 64-tick window, slot index == tick
            // order, and every upper-level event is strictly later, so
            // the first occupied slot holds the global minimum. Slots
            // before the cursor are empty by invariant, so the lowest
            // set bit is it.
            if self.occ[0] != 0 {
                return Some(self.occ[0].trailing_zeros() as usize);
            }
            if !self.cascade() {
                debug_assert_eq!(self.len, 0, "events lost off the wheel");
                return None;
            }
        }
    }
}

impl Scheduler for TimingWheel {
    fn push(&mut self, ev: QueuedEvent) {
        let tick = Self::tick_of(ev.at);
        if self.len == 0 {
            // Empty wheel: snap the cursor to the event so long idle
            // gaps don't leave it parked in the distant past.
            self.cursor = tick;
        } else if tick < self.cursor {
            self.rewind(tick);
        }
        let key = ev.key();
        self.place(ev);
        self.len += 1;
        if let Some(s) = self.cached_min {
            // audit:allow(hotpath-unwrap): cached_min always points at a non-empty level-0 slot; it is cleared when that slot drains
            if key < self.slots[s].front().expect("cached slot empty").key() {
                self.cached_min = None;
            }
        }
    }

    fn pop(&mut self) -> Option<QueuedEvent> {
        let s = match self.cached_min.take() {
            Some(s) => s,
            None => self.find_min()?,
        };
        let ev = self.slots[s].pop_front()?;
        self.len -= 1;
        self.cursor = Self::tick_of(ev.at);
        if self.slots[s].is_empty() {
            self.occ[0] &= !(1u64 << s);
        } else {
            // Same tick, later seq: still the global minimum.
            self.cached_min = Some(s);
        }
        Some(ev)
    }

    fn next_at(&mut self) -> Option<SimTime> {
        if self.cached_min.is_none() {
            self.cached_min = self.find_min();
        }
        self.cached_min
            .and_then(|s| self.slots[s].front())
            .map(|ev| ev.at)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn stats(&self) -> SchedStats {
        let mut s = SchedStats {
            cascades: self.cascades,
            ..SchedStats::default()
        };
        for (level, occ) in self.occ.iter().enumerate() {
            s.wheel_occupancy[level] = u64::from(occ.count_ones());
        }
        s
    }
}

#[cfg(test)]
impl EventQueue {
    /// Slots in the heap's slab, pending and vacant (0 on other arms).
    pub(crate) fn slab_len(&self) -> usize {
        match self {
            EventQueue::Heap(heap) => heap.slab.len(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn timer(at: SimTime, seq: u64) -> QueuedEvent {
        QueuedEvent {
            at,
            seq,
            kind: EventKind::Timer {
                node: NodeId(0),
                token: TimerToken(0),
                port: PortId(0),
                frame: None,
            },
        }
    }

    /// Feed the reference heap and every other scheduler the same pushes
    /// (interleaved with pops) and assert identical pop sequences.
    fn differential(pushes: &[(u64, usize)]) {
        for kind in SchedulerKind::ALL {
            if kind == SchedulerKind::BinaryHeap {
                continue;
            }
            let mut heap = SchedulerKind::BinaryHeap.build();
            let mut other = kind.build();
            for (seq, &(at_ps, pops)) in pushes.iter().enumerate() {
                let at = SimTime::from_ps(at_ps);
                heap.push(timer(at, seq as u64));
                other.push(timer(at, seq as u64));
                for _ in 0..pops {
                    assert_eq!(heap.next_at(), other.next_at(), "{}", kind.name());
                    let (h, c) = (heap.pop(), other.pop());
                    match (h, c) {
                        (None, None) => {}
                        (Some(h), Some(c)) => {
                            assert_eq!((h.at, h.seq), (c.at, c.seq), "{}", kind.name());
                        }
                        _ => panic!("{} disagreed on emptiness", kind.name()),
                    }
                }
            }
            while let Some(h) = heap.pop() {
                let c = other.pop().unwrap_or_else(|| {
                    panic!("{} drained early", kind.name());
                });
                assert_eq!((h.at, h.seq), (c.at, c.seq), "{}", kind.name());
            }
            assert!(other.pop().is_none());
            assert_eq!(other.len(), 0);
        }
    }

    #[test]
    fn heap_key_stays_three_words_and_a_slab_slot_eleven() {
        // The heap's footprint at 10^5 pending events is this times 10^5;
        // a fourth word is +0.8 MB there and shows up only as RSS drift.
        assert_eq!(std::mem::size_of::<HeapKey>(), 24);
        // The payload's 80 bytes and the run link. A timer can carry the
        // frame a service queue releases; with its port and frame
        // flattened into the variant that costs one word over a bare
        // timer, where a nested `Option<(PortId, Frame)>` would make
        // this 96.
        assert_eq!(std::mem::size_of::<Slot>(), 88);
    }

    #[test]
    fn a_fan_out_is_one_heap_entry() {
        let t = SimTime::from_us(1);
        let mut heap = BinaryHeapScheduler::new();
        for seq in 0..930 {
            heap.push(timer(t, seq));
        }
        assert_eq!((heap.keys.len(), heap.len()), (1, 930));
        // Pops mid-run advance the one key; an append still joins.
        for seq in 0..10 {
            assert_eq!(heap.pop().map(|e| e.seq), Some(seq));
        }
        heap.push(timer(t, 930));
        assert_eq!((heap.keys.len(), heap.len()), (1, 921));
        // A skipped seq, another instant and a provisional seq each open
        // a run; so does the real seq that follows the provisional one.
        heap.push(timer(t, 932));
        heap.push(timer(SimTime::from_us(2), 933));
        heap.push(timer(SimTime::from_us(2), 1 << 63));
        heap.push(timer(SimTime::from_us(2), 934));
        assert_eq!((heap.keys.len(), heap.len()), (5, 925));
        // Once the last push has popped there is no run left to join,
        // though the instant and the seq would fit.
        while heap.pop().is_some() {}
        heap.push(timer(SimTime::from_us(2), 935));
        heap.push(timer(SimTime::from_us(2), 936));
        assert_eq!((heap.keys.len(), heap.len()), (1, 2));
        assert_eq!(heap.slab.len(), 930, "vacated slots are reused first");
        // The last seq there is has no successor: seq 0 sorts before it.
        heap.push(timer(SimTime::from_us(3), u64::MAX));
        heap.push(timer(SimTime::from_us(3), 0));
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop()).map(|e| e.seq).collect();
        assert_eq!(order, [935, 936, 0, u64::MAX]);
    }

    /// Pop the heap the way the kernel's `step` does — the key, then the
    /// payload out of the slot it vacated — and the oracle once, and
    /// hold them against each other.
    fn pop_both(
        heap: &mut BinaryHeapScheduler,
        oracle: &mut Vec<(SimTime, u64)>,
    ) -> Result<Option<(SimTime, u64)>, proptest::TestCaseError> {
        let want = (!oracle.is_empty()).then(|| oracle.remove(0));
        let got = heap.pop_key().map(|key| match heap.take_payload(key.slot) {
            EventKind::Timer { token, .. } => (key.at, key.seq, token.0),
            EventKind::Frame { .. } => unreachable!("only timers were pushed"),
        });
        prop_assert_eq!(got, want.map(|(at, seq)| (at, seq, seq)));
        prop_assert_eq!(heap.len(), oracle.len());
        prop_assert_eq!(heap.next_at(), oracle.first().map(|&(at, _)| at));
        Ok(want)
    }

    proptest! {
        /// The run heap against a sorted-`Vec` oracle, one op at a time:
        /// same pops, `next_at` is the next pop's time, `len` counts
        /// events, each payload comes back under the key it was pushed
        /// with, and vacated slab slots are reused before the slab grows.
        /// The ops are what runs can get wrong: bursts that join, pops
        /// that stop mid-run, appends to a run partly popped, the next
        /// seq for the same instant after the open run's tail has popped,
        /// a real seq at the instant of an open provisional (bit-63) run,
        /// seqs that skip, the shard rekey's drain-and-repush, and a
        /// dispatch that re-arms: one pop, then a push, which must land on
        /// the slot the pop vacated.
        #[test]
        fn heap_matches_a_sorted_vec_oracle(
            ops in proptest::collection::vec((0..10u8, 0..4096u64), 1..400)
        ) {
            let mut heap = BinaryHeapScheduler::new();
            let mut oracle: Vec<(SimTime, u64)> = Vec::new();
            // Real seqs and shard-provisional ones (bit 63 set) each count
            // up on their own, as the kernel's two counters do.
            let mut next_seq = [0u64, 1 << 63];
            let (mut last_at, mut last_prov) = (SimTime::ZERO, false);
            let mut high_water = 0usize;
            for (op, arg) in ops {
                // (pops first, pushes, provisional?, seqs skipped first)
                let (pops, pushes, prov, skip) = match op {
                    0 => (0, 1, false, 0),
                    1 => (0, 1, true, 0),
                    2 => (0, 2 + arg % 7, false, 0),
                    3 => (0, 2 + arg % 7, true, 0),
                    4 => (0, 1, false, 1 + arg % 3),
                    5 | 6 => (1 + arg % 6, 0, false, 0),
                    // Drain, then the seq after the last push's.
                    7 => (u64::MAX, 1, last_prov, 0),
                    // Rekey: drain, push everything back in sorted order.
                    8 => (0, 0, false, 0),
                    // Dispatch: the popped event re-arms.
                    _ => (1, 1, false, 0),
                };
                for _ in 0..pops {
                    if pop_both(&mut heap, &mut oracle)?.is_none() {
                        break;
                    }
                }
                let mut keys: Vec<(SimTime, u64)> = Vec::new();
                if op == 8 {
                    while let Some(key) = pop_both(&mut heap, &mut oracle)? {
                        keys.push(key);
                    }
                }
                // Half the pushes land on the previous push's instant.
                let at = match arg % 4 {
                    0 | 1 => last_at,
                    _ if op == 7 => last_at,
                    2 => SimTime::from_ns(arg % 8),
                    _ => SimTime::from_ps(arg * 977),
                };
                next_seq[usize::from(prov)] += skip;
                for _ in 0..pushes {
                    keys.push((at, next_seq[usize::from(prov)]));
                    next_seq[usize::from(prov)] += 1;
                }
                for (at, seq) in keys {
                    heap.push(QueuedEvent {
                        at,
                        seq,
                        kind: EventKind::Timer {
                            node: NodeId(0),
                            token: TimerToken(seq),
                            port: PortId(0),
                            frame: None,
                        },
                    });
                    (last_at, last_prov) = (at, seq >> 63 != 0);
                    let at_sorted = oracle.partition_point(|&k| k < (at, seq));
                    oracle.insert(at_sorted, (at, seq));
                    high_water = high_water.max(oracle.len());
                    prop_assert_eq!(heap.len(), oracle.len());
                    prop_assert_eq!(heap.next_at(), oracle.first().map(|&(at, _)| at));
                }
                prop_assert_eq!(heap.len(), oracle.len());
                prop_assert!(heap.keys.len() <= heap.len(), "more runs than events");
                prop_assert_eq!(heap.slab.len(), high_water);
                let vacant = heap.slab.iter().filter(|s| s.kind.is_none()).count();
                prop_assert_eq!(vacant, high_water - oracle.len());
            }
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        for kind in SchedulerKind::ALL {
            let mut s = kind.build();
            s.push(timer(SimTime::from_ns(30), 0));
            s.push(timer(SimTime::from_ns(10), 1));
            s.push(timer(SimTime::from_ns(10), 2));
            s.push(timer(SimTime::from_ns(20), 3));
            let order: Vec<(u64, u64)> = std::iter::from_fn(|| s.pop())
                .map(|e| (e.at.as_ps(), e.seq))
                .collect();
            assert_eq!(
                order,
                vec![(10_000, 1), (10_000, 2), (20_000, 3), (30_000, 0)],
                "{} broke (time, seq) order",
                kind.name()
            );
        }
    }

    #[test]
    fn equal_time_bursts_stay_in_schedule_order() {
        for kind in SchedulerKind::ALL {
            let mut s = kind.build();
            for seq in 0..100 {
                s.push(timer(SimTime::from_us(1), seq));
            }
            let seqs: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|e| e.seq).collect();
            assert_eq!(seqs, (0..100).collect::<Vec<_>>(), "{}", kind.name());
        }
    }

    #[test]
    fn calendar_matches_heap_on_dense_near_future_events() {
        // The workload shape the calendar is built for: tight horizon,
        // lots of ties.
        let mut rng = SmallRng::seed_from_u64(7);
        let pushes: Vec<(u64, usize)> = (0..2_000u64)
            .map(|i| {
                (
                    1_000 * (i / 4) + rng.gen_range(0..5_000u64),
                    rng.gen_range(0..2),
                )
            })
            .collect();
        differential(&pushes);
    }

    #[test]
    fn calendar_matches_heap_on_sparse_far_future_events() {
        // Sparse horizon: most laps are empty, exercising the direct-search
        // fallback and width re-derivation on resize.
        let mut rng = SmallRng::seed_from_u64(8);
        let pushes: Vec<(u64, usize)> = (0..500)
            .map(|_| (rng.gen_range(0..1_000_000_000_000u64), rng.gen_range(0..3)))
            .collect();
        differential(&pushes);
    }

    #[test]
    fn calendar_matches_heap_through_grow_and_shrink() {
        // Fill far past the grow threshold, then drain past the shrink
        // threshold, twice.
        let mut rng = SmallRng::seed_from_u64(9);
        let mut pushes: Vec<(u64, usize)> = Vec::new();
        for round in 0..2u64 {
            let base = round * 10_000_000;
            pushes.extend((0..300u64).map(|i| (base + i * 7 + rng.gen_range(0..50u64), 0)));
            pushes.extend((0..290).map(|_| (base + 5_000_000, 2)));
        }
        differential(&pushes);
    }

    #[test]
    fn calendar_resizes_and_reports_geometry() {
        let mut cal = CalendarQueue::new();
        assert_eq!(cal.buckets.len(), MIN_BUCKETS);
        for seq in 0..200 {
            cal.push(timer(SimTime::from_ns(seq * 13), seq));
        }
        assert!(cal.buckets.len() > MIN_BUCKETS, "queue never grew");
        assert!(cal.bucket_width_ps() >= 1);
        while cal.pop().is_some() {}
        assert_eq!(cal.buckets.len(), MIN_BUCKETS, "queue never shrank back");
        assert_eq!(cal.len(), 0);
    }

    #[test]
    fn wheel_cascades_across_levels() {
        // Deadlines spanning ns to tens of ms park events at several
        // wheel levels; draining in order exercises every cascade path.
        let mut wheel = TimingWheel::new();
        let spans_ps = [
            1_000u64,          // level 0: 1 ns
            50_000,            // level 0 window edge: 50 ns
            100_000,           // level 1: 100 ns
            7_000_000,         // level 2: 7 us
            300_000_000,       // level 3: 300 us
            20_000_000_000,    // level 4: 20 ms
            1_500_000_000_000, // level 6: 1.5 s
        ];
        let mut seq = 0u64;
        for &base in &spans_ps {
            for i in 0..8u64 {
                wheel.push(timer(SimTime::from_ps(base + i * 977), seq));
                seq += 1;
            }
        }
        let mut last = (SimTime::ZERO, 0u64);
        let mut popped = 0usize;
        while let Some(ev) = wheel.pop() {
            assert!(ev.key() >= last, "wheel popped out of order");
            last = ev.key();
            popped += 1;
        }
        assert_eq!(popped, spans_ps.len() * 8);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn wheel_rewinds_on_past_push() {
        // The kernel never schedules into the past, but the wheel must
        // still honor it standalone.
        let mut wheel = TimingWheel::new();
        wheel.push(timer(SimTime::from_us(10), 0));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(0));
        wheel.push(timer(SimTime::from_us(9), 1)); // behind the cursor
        wheel.push(timer(SimTime::from_us(11), 2));
        assert_eq!(wheel.next_at(), Some(SimTime::from_us(9)));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(1));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(2));
    }

    #[test]
    fn calendar_width_autotune_follows_the_horizon() {
        // Start the calendar on a nanosecond-scale horizon, then feed a
        // millisecond-scale one: the EMA-triggered rebuild must widen
        // the buckets without waiting for an occupancy resize.
        let mut cal = CalendarQueue::new();
        let mut seq = 0u64;
        for i in 0..64u64 {
            cal.push(timer(SimTime::from_ns(i), seq));
            seq += 1;
        }
        for _ in 0..64 {
            cal.pop();
        }
        let narrow = cal.bucket_width_ps();
        for i in 0..2 * TUNE_INTERVAL as u64 {
            cal.push(timer(SimTime::from_us(10 + i * 500), seq));
            seq += 1;
            if !seq.is_multiple_of(3) {
                cal.pop();
            }
        }
        assert!(
            cal.bucket_width_ps() > narrow,
            "width never widened: {} -> {}",
            narrow,
            cal.bucket_width_ps()
        );
    }

    #[test]
    fn next_at_matches_pop_without_consuming() {
        for kind in SchedulerKind::ALL {
            let mut s = kind.build();
            assert_eq!(s.next_at(), None);
            s.push(timer(SimTime::from_ns(40), 0));
            s.push(timer(SimTime::from_ns(15), 1));
            assert_eq!(s.next_at(), Some(SimTime::from_ns(15)));
            assert_eq!(s.len(), 2);
            // A smaller push must displace the cached minimum.
            s.push(timer(SimTime::from_ns(5), 2));
            assert_eq!(s.next_at(), Some(SimTime::from_ns(5)));
            assert_eq!(s.pop().map(|e| e.seq), Some(2));
        }
    }

    #[test]
    fn stats_report_rebuilds_cascades_and_occupancy() {
        // The reference heap has no structure to report.
        let mut heap = BinaryHeapScheduler::new();
        heap.push(timer(SimTime::from_ns(1), 0));
        assert_eq!(heap.stats(), SchedStats::default());

        // Growing the calendar far enough forces at least one rebuild.
        let mut cal = CalendarQueue::new();
        assert_eq!(cal.stats().rebuilds, 0);
        for seq in 0..200 {
            cal.push(timer(SimTime::from_ns(seq * 13), seq));
        }
        let cs = cal.stats();
        assert!(cs.rebuilds > 0, "grow never rebuilt");
        assert_eq!(cs.bucket_count, cal.buckets.len() as u64);
        assert_eq!(cs.bucket_width_ps, cal.bucket_width_ps());
        assert_eq!(cs.cascades, 0);

        // Far-future events park in upper wheel levels, then cascade
        // down when drained.
        let mut wheel = TimingWheel::new();
        wheel.push(timer(SimTime::from_ps(1_000), 0));
        wheel.push(timer(SimTime::from_us(7), 1));
        wheel.push(timer(SimTime::from_ms(20), 2));
        let ws = wheel.stats();
        assert_eq!(ws.cascades, 0);
        assert_eq!(ws.wheel_occupancy.iter().sum::<u64>(), 3);
        assert!(
            ws.wheel_occupancy[1..].iter().sum::<u64>() >= 2,
            "far events should park above level 0: {:?}",
            ws.wheel_occupancy
        );
        while wheel.pop().is_some() {}
        assert!(wheel.stats().cascades > 0, "drain never cascaded");
        assert_eq!(wheel.stats().wheel_occupancy, [0; WHEEL_LEVELS]);
    }

    #[test]
    fn each_kind_builds_a_queue_that_reports_as_itself() {
        // The kernel's queue forwards every call to the arm its kind
        // built: a swapped arm shows up as the wrong counters.
        for kind in SchedulerKind::ALL {
            let mut queue = kind.build();
            queue.push(timer(SimTime::from_ps(1_000), 0));
            queue.push(timer(SimTime::from_ms(20), 1));
            let s = queue.stats();
            match kind {
                SchedulerKind::BinaryHeap => assert_eq!(s, SchedStats::default()),
                SchedulerKind::CalendarQueue => assert_eq!(
                    s,
                    SchedStats {
                        bucket_count: MIN_BUCKETS as u64,
                        bucket_width_ps: 1 << INITIAL_WIDTH_SHIFT,
                        ..SchedStats::default()
                    }
                ),
                SchedulerKind::TimingWheel => {
                    assert_eq!(s.wheel_occupancy.iter().sum::<u64>(), 2);
                    assert_eq!((s.rebuilds, s.bucket_count, s.bucket_width_ps), (0, 0, 0));
                }
            }
            assert_eq!(queue.len(), 2);
            while queue.pop().is_some() {}
            let cascaded = queue.stats().cascades > 0;
            assert_eq!(
                cascaded,
                kind == SchedulerKind::TimingWheel,
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn kind_parses_and_names_round_trip() {
        for kind in SchedulerKind::ALL {
            let parsed: SchedulerKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert_eq!(
            "heap".parse::<SchedulerKind>(),
            Ok(SchedulerKind::BinaryHeap)
        );
        assert!("fifo".parse::<SchedulerKind>().is_err());
        assert_eq!(SchedulerKind::default(), SchedulerKind::BinaryHeap);
    }
}
