//! The event loop: queue, dispatch, link lookup, statistics.
//!
//! Routing state lives with the node: each [`NodeSlot`] carries its own
//! port → link-index table ([`Ports`]), so `transmit` finds the outgoing
//! link by indexing off the slot the dispatch just touched, and a shard
//! that takes a node takes its routes with it.
//!
//! Two functions are the only way in and out of the loop's bookkeeping.
//! `Simulator::observe` is the observation spine: a delivery, a fired
//! timer, an unrouted frame and a link drop are each counted once there —
//! in [`SimStats`] and, while a profile or provenance will read them, in
//! the node's count row — and recorded in the trace (or, on a shard, the
//! window log) and the flight ring, from there and from nowhere else.
//! The profile's dispatch counts and a snapshot's `kernel/*` counters
//! are views of the rows, computed when read.
//! `Simulator::schedule` is the only place an event gets its seq, and
//! with `schedule_frame` the only place a shard tells the merge leader
//! about a push or hands it a frame bound for another shard.
//!
//! A node's requests take effect at the call. For the length of a
//! callback, dispatch lends the node out of its slot and hands it a
//! [`Context`] over the whole simulator, so `Context::send` crosses the
//! link and a timer or local delivery is queued before the method
//! returns: seqs, frame ids and kernel coins are drawn in call order,
//! and a send's drop record follows the dispatch record it belongs to.

use std::any::Any;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tn_obs::{
    Distribution, FlightKind, FlightRecord, FlightRecorder, KernelProfile, KernelProfiler,
    MetricsRegistry, NodeProfile, ObsConfig, SegmentKind, Snapshot,
};

use crate::context::{Context, TimerToken};
use crate::frame::{Frame, FrameArena, FrameBuilder, FrameId};
use crate::link::{DropReason, Link, LinkOutcome};
use crate::node::{Node, NodeId, PortId};
use crate::sched::{EventKind, EventQueue, QueuedEvent, Scheduler, SchedulerKind};
use crate::shard::{WEntry, WindowState};
use crate::time::SimTime;
use crate::trace::{TraceEvent, TraceKind, TraceLog};

/// Object-safe extension of [`Node`] that adds downcasting, so scenario
/// code can read application state back out of the simulator after a run.
/// Blanket-implemented for every `Node + 'static`.
pub trait AnyNode: Node {
    /// Upcast to `Any` for downcasting by concrete type.
    fn as_any(&self) -> &dyn Any;
    /// Mutable upcast.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Node + 'static> AnyNode for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Everything dispatch and routing need about one node. Kept to 40 bytes
/// (`Option<NodeSlot>` included): a shard of a partitioned run holds a
/// global-size vector of these, so every byte here is paid `K × nodes`
/// times. The diagnostic name lives in [`Simulator::names`] instead.
pub(crate) struct NodeSlot {
    /// `None` only while the node is lent out to its own callback.
    pub(crate) node: Option<Box<dyn AnyNode>>,
    pub(crate) ports: Ports,
}

/// [`Ports::Table`] entry for a port with no link.
const NO_LINK: u32 = u32::MAX;
/// Connected ports a node keeps inline before it gets a table.
const INLINE_PORTS: usize = 3;

/// A node's outgoing port → index into [`Simulator::links`]. Hosts (one
/// to three NICs, every swarm agent) keep their routes inside the slot
/// and allocate nothing; a switch gets a dense table indexed by port
/// number.
pub(crate) enum Ports {
    /// `ports[i]` leads to `links[i]`; connected entries first, ascending
    /// by port, the rest [`NO_LINK`].
    Inline {
        ports: [PortId; INLINE_PORTS],
        links: [u32; INLINE_PORTS],
    },
    /// `table[port]` is the link index, or [`NO_LINK`]. Sized past the
    /// highest connected port by doubling, so wiring a switch's ports in
    /// ascending order copies O(ports) in total.
    Table(Box<[u32]>),
}

impl Ports {
    /// No outgoing link yet.
    const EMPTY: Ports = Ports::Inline {
        ports: [PortId(0); INLINE_PORTS],
        links: [NO_LINK; INLINE_PORTS],
    };

    /// Link index behind `port`, if one is connected.
    #[inline]
    fn get(&self, port: PortId) -> Option<usize> {
        let link = match self {
            Ports::Inline { ports, links } => {
                // All three compared, no early exit: which NIC a host
                // sends on is not something a branch predictor learns.
                // (A free entry's port reads 0, hence the second test.)
                let mut found = NO_LINK;
                for (p, l) in ports.iter().zip(links) {
                    if *p == port && *l != NO_LINK {
                        found = *l;
                    }
                }
                found
            }
            Ports::Table(table) => *table.get(usize::from(port.0)).unwrap_or(&NO_LINK),
        };
        (link != NO_LINK).then_some(link as usize)
    }

    /// Connect `port` to `link`. The caller has checked the port is free.
    fn set(&mut self, port: PortId, link: u32) {
        match self {
            Ports::Inline { ports, links } if links[INLINE_PORTS - 1] == NO_LINK => {
                let n = links.iter().take_while(|&&l| l != NO_LINK).count();
                let at = ports[..n].partition_point(|&p| p < port);
                ports.copy_within(at..n, at + 1);
                links.copy_within(at..n, at + 1);
                (ports[at], links[at]) = (port, link);
            }
            Ports::Inline { ports, links } => {
                // Fourth port: spill into a table wide enough for all four.
                let mut table = Self::widened(&[], port.max(ports[INLINE_PORTS - 1]));
                for (p, l) in ports.iter().zip(links.iter()) {
                    table[usize::from(p.0)] = *l;
                }
                table[usize::from(port.0)] = link;
                *self = Ports::Table(table);
            }
            Ports::Table(table) => {
                if usize::from(port.0) >= table.len() {
                    *table = Self::widened(table, port);
                }
                table[usize::from(port.0)] = link;
            }
        }
    }

    /// A copy of `table` long enough to index by `top`: the next power of
    /// two, new entries [`NO_LINK`].
    fn widened(table: &[u32], top: PortId) -> Box<[u32]> {
        let mut wider = vec![NO_LINK; (usize::from(top.0) + 1).next_power_of_two()];
        wider[..table.len()].copy_from_slice(table);
        wider.into_boxed_slice()
    }

    /// Connected link indices, ascending by port.
    pub(crate) fn links(&self) -> impl Iterator<Item = usize> + '_ {
        let entries: &[u32] = match self {
            Ports::Inline { links, .. } => links,
            Ports::Table(table) => table,
        };
        entries
            .iter()
            .filter(|&&link| link != NO_LINK)
            .map(|&link| link as usize)
    }
}

pub(crate) struct LinkSlot {
    pub(crate) link: Box<dyn Link>,
    pub(crate) dst: NodeId,
    pub(crate) dst_port: PortId,
}

/// Aggregate kernel statistics for a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events popped from the queue.
    pub events_processed: u64,
    /// Frames handed to `on_frame`.
    pub frames_delivered: u64,
    /// Frames dropped by links (loss, queue overflow, MTU).
    pub frames_dropped: u64,
    /// `frames_dropped` split by [`DropReason`], indexed by `reason as usize`.
    pub link_drops: [u64; DropReason::ALL.len()],
    /// Frames sent out of ports with no link attached.
    pub frames_unrouted: u64,
    /// Timer callbacks fired.
    pub timers_fired: u64,
}

/// Snapshot names of the four [`Seen`] kinds, in the order of
/// [`NodeCounts::seen`].
const SEEN_NAMES: [&str; 4] = ["deliver", "timer", "unrouted", "drop"];

/// One node's share of what `Simulator::observe` saw: the row the
/// profile's dispatch counts and a snapshot's `kernel/*` counters are
/// read from. Kept beside the slots rather than in them, so
/// [`NodeSlot`] stays 40 bytes.
#[derive(Clone, Copy)]
pub(crate) struct NodeCounts {
    /// Deliveries, timers, unrouted sends and link drops, named by
    /// [`SEEN_NAMES`].
    seen: [u64; 4],
    /// Simulated time of the first dispatch, ps (`u64::MAX` if none).
    first_ps: u64,
    /// Simulated time of the last dispatch, ps (0 if none).
    last_ps: u64,
    /// Shard whose kernel counted here: 0 serially or before a split.
    shard: u16,
}

impl NodeCounts {
    /// A row with nothing counted yet, stamped with `shard`.
    pub(crate) fn idle(shard: u16) -> NodeCounts {
        NodeCounts {
            seen: [0; 4],
            first_ps: u64::MAX,
            last_ps: 0,
            shard,
        }
    }

    fn is_active(&self) -> bool {
        self.seen.iter().any(|&n| n > 0)
    }

    /// Fold a shard's row for the same node into this one; the shard
    /// that counted anything there takes the attribution.
    pub(crate) fn absorb(&mut self, other: &NodeCounts) {
        for (mine, theirs) in self.seen.iter_mut().zip(other.seen) {
            *mine += theirs;
        }
        self.first_ps = self.first_ps.min(other.first_ps);
        self.last_ps = self.last_ps.max(other.last_ps);
        if other.is_active() {
            self.shard = other.shard;
        }
    }
}

/// The four things the kernel reports to its sinks, each at the current
/// time and about one node, through `Simulator::observe`.
enum Seen {
    /// The popped event `seq` hands a frame to the node's `on_frame`.
    Deliver { seq: u64 },
    /// The popped event `seq` fires the node's timer.
    Timer { seq: u64, token: TimerToken },
    /// The node sent a frame out of a port with no link.
    Unrouted,
    /// The link behind the node's port refused the frame.
    LinkDrop(DropReason),
}

/// The discrete-event simulator.
///
/// See the crate docs for the programming model. All public mutation is
/// deterministic: two simulators constructed with the same seed and given
/// the same call sequence produce identical traces.
pub struct Simulator {
    pub(crate) now: SimTime,
    pub(crate) seq: u64,
    pub(crate) queue: EventQueue,
    pub(crate) sched_kind: SchedulerKind,
    /// Node slots indexed by global node id. Serial simulators are dense
    /// (every slot `Some`); a shard of a partitioned run keeps global ids
    /// and leaves foreign nodes `None`.
    pub(crate) nodes: Vec<Option<NodeSlot>>,
    /// Diagnostic node names, indexed like `nodes`. Cold, so kept out of
    /// the slots; a shard carries none (the leader keeps them).
    pub(crate) names: Vec<String>,
    /// Link slots, sparse exactly like `nodes` in a shard: a link lives
    /// wherever its source node does, whose [`Ports`] index into here.
    pub(crate) links: Vec<Option<LinkSlot>>,
    pub(crate) rng: SmallRng,
    pub(crate) next_frame_id: u64,
    pub(crate) arena: FrameArena,
    pub(crate) stats: SimStats,
    pub(crate) provenance: bool,
    /// Each node's hop durations by [`SegmentKind`] while provenance is
    /// on, empty otherwise (see `Simulator::sync_rows`).
    hops: Vec<[Option<Distribution>; SegmentKind::ALL.len()]>,
    pub(crate) flight: FlightRecorder,
    pub(crate) profiler: KernelProfiler,
    /// One count row per node while a profile or provenance will read
    /// them, empty otherwise (see `Simulator::sync_rows`).
    pub(crate) counts: Vec<NodeCounts>,
    /// `Some` while this simulator runs as one shard of a partitioned
    /// run: dispatches append reconciliation entries here instead of
    /// recording into `trace`, and cross-shard deliveries are buffered
    /// for the merge leader instead of being pushed locally.
    pub(crate) wlog: Option<Box<WindowState>>,
    /// Kernel-level trace log (disabled by default).
    pub trace: TraceLog,
}

impl Simulator {
    /// Create an empty simulator whose randomness is derived from `seed`,
    /// using the reference [`SchedulerKind::BinaryHeap`] event scheduler.
    pub fn new(seed: u64) -> Self {
        Simulator::with_scheduler(seed, SchedulerKind::BinaryHeap)
    }

    /// Create an empty simulator with an explicit event scheduler. Every
    /// [`SchedulerKind`] pops events in the same `(time, seq)` order, so
    /// the choice affects wall-clock speed only — trace digests are
    /// bit-for-bit identical across kinds (pinned by `tn-audit divergence`
    /// and `tests/scheduler_equivalence.rs`).
    pub fn with_scheduler(seed: u64, kind: SchedulerKind) -> Self {
        Simulator {
            now: SimTime::ZERO,
            seq: 0,
            queue: kind.build(),
            sched_kind: kind,
            nodes: Vec::new(),
            names: Vec::new(),
            links: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            next_frame_id: 0,
            arena: FrameArena::new(),
            stats: SimStats::default(),
            provenance: false,
            hops: Vec::new(),
            flight: FlightRecorder::disabled(),
            profiler: KernelProfiler::disabled(),
            counts: Vec::new(),
            wlog: None,
            trace: TraceLog::disabled(),
        }
    }

    /// Enable or disable per-hop latency provenance. When on, every frame
    /// accumulates contiguous [`tn_obs::Provenance`] segments in its
    /// [`FrameMeta`](crate::FrameMeta) at each transmit: processing time inside the source
    /// node, then the link traversal decomposed via [`Link::decompose`].
    ///
    /// While on, the kernel also keeps each node's hop durations by
    /// segment kind and count rows, which [`Simulator::metrics_snapshot`]
    /// reads; turning it off drops the hop rows.
    ///
    /// Provenance is pure side-state — it never draws randomness,
    /// schedules events, or feeds the trace digest, so toggling it cannot
    /// change a run's digest (pinned by `tn-audit divergence`).
    pub fn set_provenance(&mut self, on: bool) {
        self.provenance = on;
        self.sync_rows();
    }

    /// Snapshot the run's counters at simulated time `at_ps`, built fresh
    /// from plain counts: `link_drop/<reason>` from
    /// [`SimStats::link_drops`], `hop/<kind>` per node from the hop rows,
    /// every node's and link's counters from [`Node::metrics`] and
    /// [`Link::metrics`], and `kernel/{deliver,timer,unrouted,drop}` per
    /// node from the count rows, in `(scope, name, node)` order. Zero
    /// counts and empty distributions leave no entry. `None` unless
    /// provenance is on.
    pub fn metrics_snapshot(&self, at_ps: u64) -> Option<Snapshot> {
        if !self.provenance {
            return None;
        }
        let mut reg = MetricsRegistry::new();
        for (reason, &n) in DropReason::ALL.iter().zip(&self.stats.link_drops) {
            reg.add("link_drop", reason.name(), None, n);
        }
        for (node, row) in self.hops.iter().enumerate() {
            for (kind, d) in SegmentKind::ALL.iter().zip(row) {
                if let Some(d) = d {
                    reg.merge("hop", kind.name(), Some(node as u32), d);
                }
            }
        }
        for (id, slot) in self.nodes.iter().enumerate() {
            if let Some(node) = slot.as_ref().and_then(|s| s.node.as_ref()) {
                node.metrics(NodeId(id as u32), &mut reg);
            }
        }
        for slot in self.links.iter().flatten() {
            slot.link.metrics(&mut reg);
        }
        for (node, row) in self.counts.iter().enumerate() {
            for (&name, &n) in SEEN_NAMES.iter().zip(&row.seen) {
                reg.add("kernel", name, Some(node as u32), n);
            }
        }
        Some(reg.snapshot(at_ps))
    }

    /// Keep one count row per node while a profile or provenance will
    /// read them, and one hop row per node while provenance is on; none
    /// otherwise, so an unobserved run carries no rows. Rows already
    /// counted survive while a reader stays on.
    fn sync_rows(&mut self) {
        let n = self.nodes.len();
        if self.profiler.is_enabled() || self.provenance {
            self.counts.resize(n, NodeCounts::idle(0));
        } else {
            self.counts = Vec::new();
        }
        if self.provenance {
            self.hops.resize_with(n, Default::default);
        } else {
            self.hops = Vec::new();
        }
    }

    /// Size (and enable) the tn-flight recorder: keep the last
    /// `capacity` kernel events (schedules, dispatches, drops, frame
    /// alloc/reuse, application notes) in a fixed ring, dumped on panic
    /// or via [`Simulator::dump_flight`]. `0` disables. Replaces the ring, so call between runs.
    ///
    /// Recording is pure side-state — no randomness, no scheduling, no
    /// wall-clock — so any capacity leaves trace digests bit-identical
    /// (pinned by the `flight-on-vs-off` divergence scenario).
    pub fn set_flight_capacity(&mut self, capacity: usize) {
        self.flight = if capacity == 0 {
            FlightRecorder::disabled()
        } else {
            FlightRecorder::with_capacity(capacity)
        };
    }

    /// Borrow the flight recorder (tests, diagnostics).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Render the flight-recorder ring as a human-readable dump: a
    /// header with the simulated time and scheduler, then the last N
    /// records oldest-first. Deterministic for a given run prefix.
    pub fn dump_flight(&self) -> String {
        format!(
            "tn-flight dump @ {} ps (scheduler {})\n{}",
            self.now.as_ps(),
            self.sched_kind.name(),
            self.flight.render()
        )
    }

    /// Enable or disable the deterministic kernel self-profiler.
    /// Enabling restarts the schedule stream (push count, queue depths).
    /// The dispatch counts are the kernel's count rows: enabling starts
    /// them from zero unless provenance already keeps them, and
    /// disabling drops them unless provenance still reads them. Like
    /// the flight recorder, profiling is pure side-state and cannot move
    /// a run's digest.
    pub fn set_profile(&mut self, on: bool) {
        self.profiler = if on {
            KernelProfiler::enabled()
        } else {
            KernelProfiler::disabled()
        };
        self.sync_rows();
    }

    /// Switch on everything `obs` asks of the kernel: per-hop provenance
    /// (and with it the snapshot's rows), the flight ring at its configured
    /// capacity, the profiler and trace storage. What `obs` leaves off
    /// stays as it was. Call it on an empty simulator.
    pub fn set_obs(&mut self, obs: &ObsConfig) {
        if obs.provenance {
            self.set_provenance(true);
        }
        if obs.flight_capacity > 0 {
            self.set_flight_capacity(obs.flight_capacity as usize);
        }
        if obs.profile {
            self.set_profile(true);
        }
        if obs.trace {
            self.trace.set_enabled(true);
        }
    }

    /// Snapshot the profiler into a [`KernelProfile`], folding in the
    /// dispatch counts of every active node (ascending id), the
    /// scheduler's structural counters and the arena's reuse statistics.
    /// `None` unless [`Simulator::set_profile`] enabled collection.
    pub fn profile(&self) -> Option<KernelProfile> {
        let mut p = self.profiler.snapshot(self.now.as_ps())?;
        for (node, row) in self.counts.iter().enumerate() {
            if !row.is_active() {
                continue;
            }
            let [deliver, timer, unrouted, drop] = row.seen;
            p.frames += deliver;
            p.timers += timer;
            p.drops += unrouted + drop;
            p.per_node.push(NodeProfile {
                node: node as u32,
                shard: row.shard,
                frames: deliver,
                timers: timer,
                drops: unrouted + drop,
                first_at_ps: row.first_ps,
                last_at_ps: row.last_ps,
            });
        }
        p.scheduler = self.sched_kind.name().to_string();
        let s = self.queue.stats();
        p.sched_rebuilds = s.rebuilds;
        p.sched_cascades = s.cascades;
        p.sched_bucket_count = s.bucket_count;
        p.sched_bucket_width_ps = s.bucket_width_ps;
        p.wheel_occupancy = s.wheel_occupancy;
        let a = self.arena.stats();
        p.arena_allocated = a.allocated;
        p.arena_reused = a.reused;
        p.arena_recycled = a.recycled;
        Some(p)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Kernel statistics so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Register a node; the returned id addresses it for connections and
    /// injections. `name` appears in diagnostics only.
    pub fn add_node(&mut self, name: impl Into<String>, node: impl Node + 'static) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(NodeSlot {
            node: Some(Box::new(node)),
            ports: Ports::EMPTY,
        }));
        self.names.push(name.into());
        // Registration is the cold path that sizes the count rows, so
        // dispatch-time counting is pure indexing.
        self.sync_rows();
        id
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Borrow a node by concrete type. Panics if the id is out of range;
    /// returns `None` if the type does not match (or the node lives on a
    /// different shard).
    pub fn node<T: Node + 'static>(&self, id: NodeId) -> Option<&T> {
        self.nodes[id.0 as usize]
            .as_ref()?
            .node
            .as_ref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutably borrow a node by concrete type.
    pub fn node_mut<T: Node + 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes[id.0 as usize]
            .as_mut()?
            .node
            .as_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Install a directional, already-built link model from
    /// `(src, src_port)` to `(dst, dst_port)` — the raw primitive behind
    /// `connect_directed_spec`. Most call sites should describe the link
    /// with tn-fault's `LinkSpec` and use `connect_spec` /
    /// `connect_directed_spec` instead; this remains public for link
    /// models a `LinkSpec` cannot express (hand-built `impl Link`
    /// instances). Panics if either end is not a registered node, or if
    /// the source port already has a link (ports are point-to-point).
    pub fn install_link(
        &mut self,
        src: NodeId,
        src_port: PortId,
        dst: NodeId,
        dst_port: PortId,
        link: Box<dyn Link>,
    ) {
        assert!(
            (dst.0 as usize) < self.nodes.len(),
            "link destination {dst:?} is not a registered node"
        );
        assert!(
            !self.is_connected(src, src_port),
            "port ({src:?}, {src_port:?}) already connected; ports are point-to-point"
        );
        let idx = self.links.len();
        assert!(idx < NO_LINK as usize, "link table full");
        let Some(src_slot) = self.nodes.get_mut(src.0 as usize).and_then(Option::as_mut) else {
            panic!("link source {src:?} is not a registered node");
        };
        src_slot.ports.set(src_port, idx as u32);
        self.links.push(Some(LinkSlot {
            link,
            dst,
            dst_port,
        }));
    }

    /// True if the port has an outgoing link. An unknown node or a port
    /// past the node's table is simply not connected.
    pub fn is_connected(&self, node: NodeId, port: PortId) -> bool {
        self.link_index(node, port).is_some()
    }

    /// Index into `links` of the link leaving `(node, port)`, if any.
    #[inline]
    fn link_index(&self, node: NodeId, port: PortId) -> Option<usize> {
        self.nodes.get(node.0 as usize)?.as_ref()?.ports.get(port)
    }

    /// Every installed link as `(source node, link index)`, ascending by
    /// `(node, port)`: the cold walk shard planning and splitting use.
    pub(crate) fn links_by_source(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.nodes.iter().enumerate().flat_map(|(i, slot)| {
            slot.iter()
                .flat_map(|slot| slot.ports.links())
                .map(move |idx| (NodeId(i as u32), idx))
        })
    }

    /// Start building a new frame born at the current time: the unified
    /// arena-first constructor for scenario drivers; nodes use
    /// [`Context::frame`]. The payload buffer is drawn from the
    /// [`FrameArena`] (in steady state a recycled buffer — no
    /// allocation).
    pub fn frame(&mut self) -> FrameBuilder<'_> {
        self.start_frame(u32::MAX)
    }

    /// Start a frame born now on behalf of `node` (`u32::MAX` for the
    /// scenario driver): the one constructor behind [`Context::frame`]
    /// and [`Simulator::frame`], so the flight ring's note of whether
    /// the payload buffer is fresh or recycled is made in one place.
    pub(crate) fn start_frame(&mut self, node: u32) -> FrameBuilder<'_> {
        let kind = if self.arena.will_reuse() {
            FlightKind::FrameReuse
        } else {
            FlightKind::FrameAlloc
        };
        self.flight.record(FlightRecord {
            at_ps: self.now.as_ps(),
            kind,
            node,
            shard: 0,
            a: self.next_frame_id,
            b: 0,
        });
        FrameBuilder::start(&mut self.arena, &mut self.next_frame_id, self.now)
    }

    /// Replace the frame arena with one parking at most `max_free`
    /// buffers (`0` disables pooling entirely: every frame build becomes
    /// a fresh allocation). Call before the first frame is built — the
    /// swap resets [`ArenaStats`](crate::ArenaStats). Pooling is pure side-state, so runs
    /// with any cap produce bit-identical trace digests (pinned by
    /// `tests/kernel_properties.rs`).
    pub fn set_arena_max_free(&mut self, max_free: usize) {
        self.arena = FrameArena::with_max_free(max_free);
    }

    /// Schedule delivery of `frame` to `(node, port)` at absolute time `at`.
    /// Panics if `at` is in the past — popping such an event would run the
    /// clock backwards — or if `node` was never registered.
    pub fn inject_frame(&mut self, at: SimTime, node: NodeId, port: PortId, frame: Frame) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.schedule_frame(at, node, port, frame);
    }

    /// Schedule a timer callback on `node` at absolute time `at`. Panics
    /// if `at` is in the past or `node` was never registered, like
    /// [`Simulator::inject_frame`].
    pub fn schedule_timer(&mut self, at: SimTime, node: NodeId, token: TimerToken) {
        assert!(at >= self.now, "cannot schedule into the past");
        let kind = EventKind::Timer {
            node,
            token,
            port: PortId(0),
            frame: None,
        };
        self.schedule(at, kind);
    }

    /// Queue `kind` for `at` under the next seq. Every event the kernel
    /// orders itself comes through here — driver injections, timers,
    /// local and link deliveries — so here is where an event for a node
    /// nobody registered is refused, while the caller is still on the
    /// stack, and where a shard logs the push for the merge leader to
    /// match with a real seq.
    #[inline(always)]
    pub(crate) fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        let ev = QueuedEvent { at, seq, kind };
        let node = ev.target_node();
        assert!(
            (node.0 as usize) < self.nodes.len(),
            "{node:?} is not a registered node"
        );
        self.seq += 1;
        self.push_event(ev);
        if let Some(w) = self.wlog.as_mut() {
            w.entries.push(WEntry::LocalPush);
        }
    }

    /// [`Simulator::schedule`] for a frame, which unlike a timer may be
    /// bound for a node on another shard: that frame goes to the merge
    /// leader, which assigns the real seq in serial order and routes it
    /// (or panics, coldly, if it lands inside the safe window).
    #[inline]
    pub(crate) fn schedule_frame(&mut self, at: SimTime, node: NodeId, port: PortId, frame: Frame) {
        if let Some(w) = self.wlog.as_mut() {
            if matches!(self.nodes.get(node.0 as usize), Some(None)) {
                w.log_builds(self.next_frame_id);
                w.entries.push(WEntry::Remote {
                    arrival: at,
                    dst: node,
                    dst_port: port,
                });
                w.remote.push(frame);
                return;
            }
        }
        self.schedule(at, EventKind::Frame { node, port, frame });
    }

    /// Single funnel for every scheduler insertion. The profiler and
    /// flight recorder observe the stream here — pure side-state ahead
    /// of an unchanged `push`, so pop order cannot move. Forced inline,
    /// like `schedule`, so the heap's push lands in the dispatch loop: a
    /// push that joins a run is one link store, cheaper than the call.
    #[inline(always)]
    fn push_event(&mut self, ev: QueuedEvent) {
        if self.profiler.is_enabled() {
            // Guarded for the queue-length call, not the record.
            self.profiler
                .record_schedule(ev.at.as_ps(), self.queue.len() + 1);
        }
        self.flight.record(FlightRecord {
            at_ps: ev.at.as_ps(),
            kind: FlightKind::Schedule,
            node: ev.target_node().0,
            shard: 0,
            a: ev.seq,
            b: self.now.as_ps(),
        });
        self.queue.push(ev);
    }

    /// Process the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        self.stats.events_processed += 1;
        let node = ev.target_node();
        let seq = ev.seq;
        match &ev.kind {
            EventKind::Frame { port, frame, .. } => {
                self.observe(Seen::Deliver { seq }, node, *port, frame.id);
            }
            EventKind::Timer { token, .. } => {
                let (port, frame) = (PortId(u16::MAX), FrameId(u64::MAX));
                self.observe(Seen::Timer { seq, token: *token }, node, port, frame);
            }
        }
        // Lend the node to its callback, so the context can reach the
        // rest of the kernel; it goes back into its slot afterwards.
        let Some(mut lent) = self.slot(node).node.take() else {
            unreachable!("{node:?} dispatched while lent out")
        };
        let mut ctx = Context {
            sim: self,
            me: node,
            carried: None,
        };
        match ev.kind {
            EventKind::Frame { port, frame, .. } => lent.on_frame(&mut ctx, port, frame),
            EventKind::Timer {
                token, port, frame, ..
            } => {
                ctx.carried = frame.map(|frame| (port, frame));
                lent.on_timer(&mut ctx, token);
                if let Some((_, frame)) = ctx.carried.take() {
                    debug_assert!(false, "{node:?} left the frame timer {token:?} carried");
                    ctx.recycle(frame);
                }
            }
        }
        self.slot(node).node = Some(lent);
        if let Some(w) = self.wlog.as_mut() {
            // Frames the callback drew and kept are named by later blocks.
            w.log_builds(self.next_frame_id);
        }
        true
    }

    /// The slot of a node this kernel owns.
    #[inline(always)]
    fn slot(&mut self, node: NodeId) -> &mut NodeSlot {
        let Some(slot) = self.nodes[node.0 as usize].as_mut() else {
            unreachable!("event dispatched to a node outside this shard")
        };
        slot
    }

    /// The observation spine: count that `seen` happened now, to `node`,
    /// involving `port` and `frame` (the trace's timer sentinels for a
    /// timer), and tell the record sinks. No other kernel code counts a
    /// delivery, timer or drop, and each is counted once — in
    /// [`SimStats`] and, while kept, the node's row — so the profile and
    /// snapshot views read back the same count. Serial and window mode
    /// differ only in the last step: a shard logs the trace record it
    /// would have made — a delivery or timer record opens that
    /// dispatch's block, keyed by the popped seq — for the merge leader
    /// to record in serial order.
    #[inline]
    fn observe(&mut self, seen: Seen, node: NodeId, port: PortId, frame: FrameId) {
        let at_ps = self.now.as_ps();
        // `tag` keys a shard's dispatch block; `a` and `b` are the flight
        // ring's two words: which frame on which port, or which timer.
        let (mut tag, mut a, mut b) = (0, frame.0, u64::from(port.0));
        // `seen_at` indexes the node's row, in `SEEN_NAMES` order.
        let (seen_at, kind) = match seen {
            Seen::Deliver { seq } => {
                tag = seq;
                self.stats.frames_delivered += 1;
                (0, TraceKind::Deliver)
            }
            Seen::Timer { seq, token } => {
                (tag, a, b) = (seq, token.0, u64::MAX);
                self.stats.timers_fired += 1;
                (1, TraceKind::Timer)
            }
            Seen::Unrouted => {
                self.stats.frames_unrouted += 1;
                (2, TraceKind::Drop)
            }
            Seen::LinkDrop(reason) => {
                self.stats.frames_dropped += 1;
                // The row keeps no reason; the stats do.
                self.stats.link_drops[reason as usize] += 1;
                (3, TraceKind::Drop)
            }
        };
        let flight = if kind == TraceKind::Drop {
            FlightKind::Drop
        } else {
            FlightKind::Dispatch
        };
        // Rows exist only while a profile or provenance reads them, so an
        // unobserved run pays one failed bounds check here.
        if let Some(row) = self.counts.get_mut(node.0 as usize) {
            row.seen[seen_at] += 1;
            if flight == FlightKind::Dispatch {
                row.first_ps = row.first_ps.min(at_ps);
                row.last_ps = at_ps;
            }
        }
        self.flight.record(FlightRecord {
            at_ps,
            kind: flight,
            node: node.0,
            shard: 0,
            a,
            b,
        });
        let ev = TraceEvent {
            at: self.now,
            node,
            port,
            frame,
            kind,
        };
        match self.wlog.as_mut() {
            None => self.trace.record(ev),
            Some(w) => {
                w.log_builds(self.next_frame_id);
                w.entries.push(WEntry::Record { ev, tag });
            }
        }
    }

    /// Time of the next pending event, if any. Shard coordination probes
    /// this to compute the global safe window.
    pub(crate) fn peek_next_at(&mut self) -> Option<SimTime> {
        self.queue.next_at()
    }

    /// Window-mode run loop: process every pending event strictly before
    /// `h_excl` (the exclusive conservative-lookahead horizon), leaving
    /// later events queued. Returns the number of events processed.
    pub(crate) fn run_window(&mut self, h_excl: SimTime) -> u64 {
        let mut n = 0;
        while let Some(at) = self.queue.next_at() {
            if at >= h_excl {
                break;
            }
            self.step();
            n += 1;
        }
        n
    }

    /// Push a cross-shard delivery routed by the merge leader. The seq was
    /// assigned by the leader's global counter (mirroring the serial
    /// kernel's assignment order), so local pops interleave it correctly.
    pub(crate) fn push_external(
        &mut self,
        at: SimTime,
        seq: u64,
        node: NodeId,
        port: PortId,
        frame: Frame,
    ) {
        debug_assert!(at >= self.now, "cross-shard delivery into the past");
        self.push_event(QueuedEvent {
            at,
            seq,
            kind: EventKind::Frame { node, port, frame },
        });
    }

    /// Run until the event queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run until the queue is empty or the next event is later than
    /// `deadline`. Events at exactly `deadline` are processed. Returns the
    /// number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while let Some(at) = self.queue.next_at() {
            if at > deadline {
                break;
            }
            self.step();
            n += 1;
        }
        // Advance the clock to the deadline even if nothing was pending so
        // repeated run_until calls behave like wall-clock progression.
        if self.now < deadline {
            self.now = deadline;
        }
        n
    }

    /// Number of events waiting in the queue.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Accumulate provenance for a hop that will complete at `deliver_at`
    /// and count the new segments into the hop rows. Pure
    /// side-state over `frame.meta`; the event schedule is untouched.
    fn record_hop_provenance(
        &mut self,
        src: NodeId,
        port: PortId,
        frame: &mut Frame,
        link_idx: usize,
        deliver_at: SimTime,
    ) {
        let born = frame.born;
        let len = frame.len();
        let Some(link_slot) = self.links[link_idx].as_ref() else {
            return;
        };
        let timing = link_slot.link.decompose(len, deliver_at - self.now);
        let prov = frame
            .meta
            .provenance
            // audit:allow(hotpath-alloc): lazy init, paid only when hop provenance is enabled (opt-in diagnostics)
            .get_or_insert_with(|| Box::new(tn_obs::Provenance::new(born.as_ps())));
        let before = prov.segments().len();
        // Time the frame spent inside `src` since its last recorded
        // movement (or since birth) is processing time at `src`.
        prov.record_process(src.0, port.0, self.now.as_ps());
        prov.record_hop(
            src.0,
            port.0,
            timing.queue.as_ps(),
            timing.serialize.as_ps(),
            timing.propagate.as_ps(),
        );
        for seg in &prov.segments()[before..] {
            self.hops[seg.node as usize][seg.kind as usize]
                .get_or_insert_with(Distribution::default)
                .observe(seg.duration_ps());
        }
    }

    /// Send `frame` out of `src`'s `port`: draw the kernel coin, cross
    /// the link and queue the delivery, or record the drop.
    pub(crate) fn transmit(&mut self, src: NodeId, port: PortId, mut frame: Frame) {
        let lost = match self.link_index(src, port) {
            None => Seen::Unrouted,
            Some(idx) => {
                let coin = self.rng.gen::<f64>();
                let Some(slot) = self.links[idx].as_mut() else {
                    unreachable!("port table routed to a link outside this shard")
                };
                match slot.link.transmit(self.now, frame.len(), coin) {
                    LinkOutcome::Deliver(at) => {
                        debug_assert!(at >= self.now);
                        let (dst, dst_port) = (slot.dst, slot.dst_port);
                        if self.provenance {
                            self.record_hop_provenance(src, port, &mut frame, idx, at);
                        }
                        return self.schedule_frame(at, dst, dst_port, frame);
                    }
                    LinkOutcome::Drop(reason) => Seen::LinkDrop(reason),
                }
            }
        };
        self.observe(lost, src, port, frame.id);
        self.arena.give(frame.bytes);
    }
}

impl Drop for Simulator {
    /// Flight recorders exist for the moment everything else is gone:
    /// when the simulator unwinds during a panic with records in the
    /// ring, dump them to stderr so the crash report carries the last N
    /// kernel events. Quiet on normal drops and when the ring is off.
    fn drop(&mut self) {
        if std::thread::panicking() && !self.flight.is_empty() {
            eprintln!("{}", self.dump_flight());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::IdealLink;
    use tn_obs::SnapshotValue;

    /// Forwards every frame out the same port after a modeled delay, and
    /// counts what it saw.
    struct Repeater {
        seen: Vec<(SimTime, FrameId)>,
        bounce: bool,
    }

    impl Node for Repeater {
        fn on_frame(&mut self, ctx: &mut Context<'_>, port: PortId, frame: Frame) {
            self.seen.push((ctx.now(), frame.id));
            if self.bounce {
                ctx.send(port, frame);
            }
        }
    }

    struct TimerNode {
        fired_at: Vec<(SimTime, u64)>,
        rearm: Option<SimTime>,
    }

    impl Node for TimerNode {
        fn on_frame(&mut self, _: &mut Context<'_>, _: PortId, _: Frame) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
            self.fired_at.push((ctx.now(), timer.0));
            if let Some(period) = self.rearm {
                if self.fired_at.len() < 5 {
                    ctx.set_timer(period, timer);
                }
            }
        }
    }

    #[test]
    fn frame_travels_and_time_advances() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(
            "a",
            Repeater {
                seen: vec![],
                bounce: true,
            },
        );
        let b = sim.add_node(
            "b",
            Repeater {
                seen: vec![],
                bounce: false,
            },
        );
        let link = IdealLink::new(SimTime::from_ns(100));
        sim.install_link(a, PortId(0), b, PortId(0), Box::new(link.clone()));
        sim.install_link(b, PortId(0), a, PortId(0), Box::new(link));
        let f = sim.frame().zeroed(64).build();
        sim.inject_frame(SimTime::from_ns(10), a, PortId(0), f);
        sim.run();
        let a_node = sim.node::<Repeater>(a).unwrap();
        let b_node = sim.node::<Repeater>(b).unwrap();
        assert_eq!(a_node.seen.len(), 1);
        assert_eq!(a_node.seen[0].0, SimTime::from_ns(10));
        assert_eq!(b_node.seen.len(), 1);
        assert_eq!(b_node.seen[0].0, SimTime::from_ns(110));
        assert_eq!(sim.now(), SimTime::from_ns(110));
        assert_eq!(sim.stats().frames_delivered, 2);
    }

    #[test]
    fn equal_time_events_preserve_schedule_order() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(
            "a",
            Repeater {
                seen: vec![],
                bounce: false,
            },
        );
        let t = SimTime::from_ns(50);
        for i in 0..10 {
            let mut f = sim.frame().zeroed(64).build();
            f.id = FrameId(i);
            sim.inject_frame(t, a, PortId(0), f);
        }
        sim.run();
        let node = sim.node::<Repeater>(a).unwrap();
        let ids: Vec<u64> = node.seen.iter().map(|(_, id)| id.0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn timers_fire_and_rearm() {
        let mut sim = Simulator::new(1);
        let n = sim.add_node(
            "t",
            TimerNode {
                fired_at: vec![],
                rearm: Some(SimTime::from_us(1)),
            },
        );
        sim.schedule_timer(SimTime::from_us(1), n, TimerToken(7));
        sim.run();
        let node = sim.node::<TimerNode>(n).unwrap();
        assert_eq!(node.fired_at.len(), 5);
        assert_eq!(node.fired_at[0], (SimTime::from_us(1), 7));
        assert_eq!(node.fired_at[4], (SimTime::from_us(5), 7));
        assert_eq!(sim.stats().timers_fired, 5);
    }

    #[test]
    fn unrouted_frames_are_counted_not_lost_silently() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(
            "a",
            Repeater {
                seen: vec![],
                bounce: true,
            },
        );
        let f = sim.frame().zeroed(64).build();
        sim.inject_frame(SimTime::ZERO, a, PortId(0), f);
        sim.run();
        assert_eq!(sim.stats().frames_unrouted, 1);
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim = Simulator::new(1);
        let n = sim.add_node(
            "t",
            TimerNode {
                fired_at: vec![],
                rearm: Some(SimTime::from_ms(1)),
            },
        );
        sim.schedule_timer(SimTime::from_ms(1), n, TimerToken(0));
        let processed = sim.run_until(SimTime::from_ms(2));
        assert_eq!(processed, 2);
        assert_eq!(sim.now(), SimTime::from_ms(2));
        assert_eq!(sim.pending_events(), 1);
        // Deadline with no events still moves the clock.
        sim.run_until(SimTime::from_ms(2) + SimTime::from_ns(1));
        assert!(sim.now() >= SimTime::from_ms(2));
    }

    #[test]
    fn identical_seeds_produce_identical_traces() {
        fn run(seed: u64) -> Vec<TraceEvent> {
            let mut sim = Simulator::new(seed);
            sim.trace.set_enabled(true);
            let a = sim.add_node(
                "a",
                Repeater {
                    seen: vec![],
                    bounce: true,
                },
            );
            let b = sim.add_node(
                "b",
                Repeater {
                    seen: vec![],
                    bounce: true,
                },
            );
            let link = IdealLink::new(SimTime::from_ns(13));
            sim.install_link(a, PortId(0), b, PortId(0), Box::new(link.clone()));
            sim.install_link(b, PortId(0), a, PortId(0), Box::new(link));
            let f = sim.frame().zeroed(100).build();
            sim.inject_frame(SimTime::ZERO, a, PortId(0), f);
            sim.run_until(SimTime::from_us(1));
            sim.trace.events().to_vec()
        }
        assert_eq!(run(99), run(99));
        // Ping-pong between two bouncers runs forever; run_until bounded it.
        assert!(!run(99).is_empty());
    }

    #[test]
    fn identical_seeds_produce_identical_digests() {
        fn digest(seed: u64) -> (u64, u64) {
            let mut sim = Simulator::new(seed);
            // Storage off on purpose: the digest must not depend on it.
            let a = sim.add_node(
                "a",
                Repeater {
                    seen: vec![],
                    bounce: true,
                },
            );
            let b = sim.add_node(
                "b",
                Repeater {
                    seen: vec![],
                    bounce: true,
                },
            );
            let link = IdealLink::new(SimTime::from_ns(13));
            sim.install_link(a, PortId(0), b, PortId(0), Box::new(link.clone()));
            sim.install_link(b, PortId(0), a, PortId(0), Box::new(link));
            let f = sim.frame().zeroed(100).build();
            sim.inject_frame(SimTime::ZERO, a, PortId(0), f);
            sim.run_until(SimTime::from_us(1));
            (sim.trace.digest(), sim.trace.recorded())
        }
        let (d1, n1) = digest(5);
        let (d2, n2) = digest(5);
        assert_eq!(d1, d2);
        assert_eq!(n1, n2);
        assert!(n1 > 0);
        // A different injection time must shift the digest.
        let (d3, _) = digest(5); // same again, sanity
        assert_eq!(d1, d3);
    }

    #[test]
    fn schedulers_produce_identical_digests() {
        fn digest(kind: SchedulerKind) -> (u64, u64) {
            let mut sim = Simulator::with_scheduler(3, kind);
            assert_eq!(sim.sched_kind, kind);
            let a = sim.add_node(
                "a",
                Repeater {
                    seen: vec![],
                    bounce: true,
                },
            );
            let b = sim.add_node(
                "b",
                Repeater {
                    seen: vec![],
                    bounce: true,
                },
            );
            let link = IdealLink::new(SimTime::from_ns(13));
            sim.install_link(a, PortId(0), b, PortId(0), Box::new(link.clone()));
            sim.install_link(b, PortId(0), a, PortId(0), Box::new(link));
            let f = sim.frame().zeroed(100).build();
            sim.inject_frame(SimTime::ZERO, a, PortId(0), f);
            sim.run_until(SimTime::from_us(1));
            (sim.trace.digest(), sim.trace.recorded())
        }
        let reference = digest(SchedulerKind::BinaryHeap);
        for kind in SchedulerKind::ALL {
            assert_eq!(reference, digest(kind), "{} diverged", kind.name());
        }
    }

    #[test]
    fn kernel_recycles_discarded_frames() {
        // Unrouted sends return their payload buffers to the arena.
        let mut sim = Simulator::new(1);
        let a = sim.add_node(
            "a",
            Repeater {
                seen: vec![],
                bounce: true,
            },
        );
        let f = sim.frame().zeroed(64).build();
        sim.inject_frame(SimTime::ZERO, a, PortId(0), f);
        sim.run();
        assert_eq!(sim.stats().frames_unrouted, 1);
        assert_eq!(sim.arena.stats().recycled, 1);
        // The next pooled frame reuses that buffer: no fresh allocation.
        let g = sim.frame().zeroed(64).build();
        assert_eq!(g.bytes, vec![0u8; 64]);
        assert_eq!(sim.arena.stats().reused, 1);
        assert_eq!(
            sim.arena.stats().allocated,
            1,
            "only the first frame's buffer was a real allocation"
        );
    }

    #[test]
    fn arena_allocations_go_flat_after_warmup() {
        // A steady produce/consume loop must reach allocation-free
        // steady state: after the first few frames prime the pool, every
        // build draws a recycled buffer.
        struct Producer;
        impl Node for Producer {
            fn on_frame(&mut self, ctx: &mut Context<'_>, _p: PortId, f: Frame) {
                ctx.recycle(f);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
                let f = ctx.frame().zeroed(128).build();
                ctx.send(PortId(0), f);
                ctx.set_timer(SimTime::from_ns(100), timer);
            }
        }
        struct Consumer;
        impl Node for Consumer {
            fn on_frame(&mut self, ctx: &mut Context<'_>, _p: PortId, f: Frame) {
                ctx.recycle(f);
            }
        }
        let mut sim = Simulator::new(5);
        let p = sim.add_node("p", Producer);
        let c = sim.add_node("c", Consumer);
        let link = IdealLink::new(SimTime::from_ns(10));
        sim.install_link(p, PortId(0), c, PortId(0), Box::new(link.clone()));
        sim.install_link(c, PortId(0), p, PortId(0), Box::new(link));
        sim.schedule_timer(SimTime::ZERO, p, TimerToken(0));
        sim.run_until(SimTime::from_us(1)); // warmup: ~10 frames
        let warm = sim.arena.stats();
        sim.run_until(SimTime::from_us(100));
        let done = sim.arena.stats();
        assert_eq!(
            done.allocated, warm.allocated,
            "steady state must not allocate: {warm:?} -> {done:?}"
        );
        assert!(
            done.reused > warm.reused + 500,
            "recycled buffers must carry the steady state: {done:?}"
        );
    }

    #[test]
    fn arena_allocations_go_flat_after_a_paper_scale_fan_out_warms_up() {
        // The shape of Design 3's feed path: bursts of frames copied 30
        // ways and then 31 ways to 930 hosts, with a pause between bursts
        // long enough for every copy to come home. Some 9,600 buffers are
        // out at a burst's peak and parked at its end; the arena must keep
        // them all, or every burst allocates afresh what the last one
        // dropped.
        const BURST: u64 = 10;
        struct Source;
        impl Node for Source {
            fn on_frame(&mut self, _ctx: &mut Context<'_>, _p: PortId, _f: Frame) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
                for _ in 0..BURST {
                    let f = ctx.frame().zeroed(128).build();
                    ctx.send(PortId(0), f);
                }
                ctx.set_timer(SimTime::from_us(10), timer);
            }
        }
        struct Stage {
            ways: u16,
        }
        impl Node for Stage {
            fn on_frame(&mut self, ctx: &mut Context<'_>, _p: PortId, f: Frame) {
                for port in 1..=self.ways {
                    let copy = ctx.frame().copy_from(&f.bytes).build();
                    ctx.send(PortId(port), copy);
                }
                ctx.recycle(f);
            }
        }
        struct Host;
        impl Node for Host {
            fn on_frame(&mut self, ctx: &mut Context<'_>, _p: PortId, f: Frame) {
                ctx.recycle(f);
            }
        }
        let mut sim = Simulator::new(5);
        let wire = |ns| Box::new(IdealLink::new(SimTime::from_ns(ns)));
        let source = sim.add_node("source", Source);
        let first = sim.add_node("stage1", Stage { ways: 30 });
        sim.install_link(source, PortId(0), first, PortId(0), wire(10));
        for i in 1..=30 {
            let second = sim.add_node(format!("stage2.{i}"), Stage { ways: 31 });
            sim.install_link(first, PortId(i), second, PortId(0), wire(100));
            for j in 1..=31 {
                let host = sim.add_node(format!("host{i}.{j}"), Host);
                sim.install_link(second, PortId(j), host, PortId(0), wire(1_000));
            }
        }
        sim.schedule_timer(SimTime::ZERO, source, TimerToken(0));
        sim.run_until(SimTime::from_us(15)); // warmup: two bursts
        let warm = sim.arena.stats();
        assert!(warm.allocated >= BURST * 930, "{warm:?}");
        sim.run_until(SimTime::from_us(55)); // four more
        let done = sim.arena.stats();
        assert_eq!(
            done.allocated, warm.allocated,
            "a warmed-up fan-out must not allocate: {warm:?} -> {done:?}"
        );
        assert!(done.reused >= warm.reused + 4 * BURST * 961, "{done:?}");
    }

    #[test]
    fn pooled_frame_ids_stay_monotonic_across_recycling() {
        let mut sim = Simulator::new(1);
        let mut last = None;
        for _ in 0..10 {
            let f = sim.frame().zeroed(32).build();
            if let Some(prev) = last {
                assert!(f.id > prev, "frame ids must grow despite buffer reuse");
            }
            last = Some(f.id);
            sim.arena.give(f.bytes);
        }
        let s = sim.arena.stats();
        assert_eq!(s.recycled, 10);
        assert_eq!(s.allocated, 1, "one real allocation feeds all ten frames");
    }

    #[test]
    fn node_downcast_checks_type() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(
            "a",
            Repeater {
                seen: vec![],
                bounce: false,
            },
        );
        assert!(sim.node::<Repeater>(a).is_some());
        assert!(sim.node::<TimerNode>(a).is_none());
        assert_eq!(sim.names[a.0 as usize], "a");
        assert_eq!(sim.node_count(), 1);
    }

    /// A two-node ping-pong plant used by the flight/profile tests.
    fn bouncing_pair(sim: &mut Simulator) -> NodeId {
        let a = sim.add_node(
            "a",
            Repeater {
                seen: vec![],
                bounce: true,
            },
        );
        let b = sim.add_node(
            "b",
            Repeater {
                seen: vec![],
                bounce: true,
            },
        );
        let link = IdealLink::new(SimTime::from_ns(13));
        sim.install_link(a, PortId(0), b, PortId(0), Box::new(link.clone()));
        sim.install_link(b, PortId(0), a, PortId(0), Box::new(link));
        a
    }

    #[test]
    fn flight_ring_captures_kernel_events() {
        let mut sim = Simulator::new(7);
        sim.set_flight_capacity(16);
        assert!(sim.flight().is_enabled());
        let a = bouncing_pair(&mut sim);
        let f = sim.frame().zeroed(64).build();
        sim.inject_frame(SimTime::ZERO, a, PortId(0), f);
        sim.run_until(SimTime::from_us(1));
        let flight = sim.flight();
        assert!(flight.total() > 16, "ping-pong overflows a 16-slot ring");
        assert_eq!(flight.len(), 16, "ring holds exactly its capacity");
        let kinds: Vec<FlightKind> = flight.records().map(|r| r.kind).collect();
        assert!(kinds.contains(&FlightKind::Schedule));
        assert!(kinds.contains(&FlightKind::Dispatch));
        // Oldest-first: record times never decrease.
        let times: Vec<u64> = flight.records().map(|r| r.at_ps).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let dump = sim.dump_flight();
        assert!(dump.starts_with("tn-flight dump @ "));
        assert!(dump.contains("schedule"));
    }

    #[test]
    fn profile_counts_match_kernel_stats() {
        let mut sim = Simulator::new(7);
        sim.set_profile(true);
        let a = bouncing_pair(&mut sim);
        let f = sim.frame().zeroed(64).build();
        sim.inject_frame(SimTime::ZERO, a, PortId(0), f);
        sim.run_until(SimTime::from_us(1));
        let p = sim.profile().expect("profiler is on");
        let stats = sim.stats();
        assert_eq!(p.frames, stats.frames_delivered);
        assert_eq!(p.timers, stats.timers_fired);
        assert_eq!(p.drops, stats.frames_dropped + stats.frames_unrouted);
        assert!(p.schedules > 0);
        assert!(p.max_queue_depth >= 1);
        assert_eq!(p.per_node.len(), 2);
        let by_node: u64 = p.per_node.iter().map(|n| n.dispatches()).sum();
        assert_eq!(by_node, p.dispatches());
        // The arena section is folded in from the simulator.
        assert_eq!(p.arena_allocated, sim.arena.stats().allocated);
        assert!(sim.profile().is_some(), "snapshot is repeatable");
        assert!(
            sim.metrics_snapshot(0).is_none(),
            "no snapshot without provenance"
        );
        sim.set_profile(false);
        assert!(sim.profile().is_none());
        assert!(sim.counts.is_empty(), "no reader, no rows");
    }

    #[test]
    fn count_rows_attribute_per_node_and_kind() {
        let mut sim = Simulator::new(7);
        sim.set_profile(true);
        let repeater = |bounce| Repeater {
            seen: vec![],
            bounce,
        };
        sim.add_node("idle", repeater(false));
        // Bounces out of a port with no link: each frame is also a drop.
        let one = sim.add_node("one", repeater(true));
        let two = sim.add_node(
            "two",
            TimerNode {
                fired_at: vec![],
                rearm: None,
            },
        );
        sim.add_node("idle too", repeater(false));
        for at in [100, 200] {
            let f = sim.frame().zeroed(64).build();
            sim.inject_frame(SimTime::from_ps(at), one, PortId(0), f);
        }
        sim.schedule_timer(SimTime::from_ps(300), two, TimerToken(9));
        sim.run();
        let p = sim.profile().expect("profiler is on");
        assert_eq!((p.frames, p.timers, p.drops), (2, 1, 2));
        assert_eq!(p.dispatches(), 3);
        let row = |node: u32, frames, timers, drops, first_at_ps, last_at_ps| NodeProfile {
            node,
            shard: 0,
            frames,
            timers,
            drops,
            first_at_ps,
            last_at_ps,
        };
        // Only active nodes, ascending by id.
        assert_eq!(
            p.per_node,
            vec![row(1, 2, 0, 2, 100, 200), row(2, 0, 1, 0, 300, 300)]
        );
        assert_eq!(p.busiest_nodes(1)[0].node, 1);
    }

    #[test]
    fn a_node_added_after_profiling_came_on_gets_its_own_row() {
        let mut sim = Simulator::new(7);
        sim.set_profile(true);
        let sink = || Repeater {
            seen: vec![],
            bounce: false,
        };
        let first = sim.add_node("first", sink());
        let f = sim.frame().zeroed(64).build();
        sim.inject_frame(SimTime::from_ps(10), first, PortId(0), f);
        sim.run();
        let late = (1..=5).map(|i| sim.add_node(format!("late{i}"), sink()));
        let last = late.last().expect("five added");
        let f = sim.frame().zeroed(64).build();
        sim.inject_frame(SimTime::from_ps(20), last, PortId(0), f);
        sim.run();
        let p = sim.profile().expect("profiler is on");
        let rows: Vec<(u32, u64, u64)> = p
            .per_node
            .iter()
            .map(|n| (n.node, n.frames, n.first_at_ps))
            .collect();
        assert_eq!(rows, vec![(0, 1, 10), (5, 1, 20)]);
    }

    /// Sum of the snapshot's `kernel/<name>` counters over nodes.
    fn kernel_total(sim: &Simulator, name: &str) -> u64 {
        let snap = sim
            .metrics_snapshot(sim.now().as_ps())
            .expect("provenance is on");
        snap.entries
            .iter()
            .filter(|e| e.scope == "kernel" && e.name == name)
            .map(|e| match e.value {
                SnapshotValue::Counter(n) => n,
                _ => panic!("kernel/{name} is a counter"),
            })
            .sum()
    }

    #[test]
    fn kernel_counters_survive_the_profile_coming_and_going() {
        let mut sim = Simulator::new(7);
        sim.set_provenance(true);
        let a = bouncing_pair(&mut sim);
        let f = sim.frame().zeroed(64).build();
        sim.inject_frame(SimTime::ZERO, a, PortId(0), f);
        sim.run_until(SimTime::from_ns(500));
        let delivered = sim.stats().frames_delivered;
        assert!(delivered > 0);
        assert_eq!(kernel_total(&sim, "deliver"), delivered);
        sim.set_profile(true);
        assert_eq!(kernel_total(&sim, "deliver"), delivered);
        sim.run_until(SimTime::from_us(1));
        sim.set_profile(false);
        assert_eq!(kernel_total(&sim, "deliver"), sim.stats().frames_delivered);
        sim.set_provenance(false);
        assert!(sim.counts.is_empty(), "no reader, no rows");
        assert!(sim.hops.is_empty(), "no provenance, no hop rows");
    }

    /// Refuses every frame, without the kernel coin, and counts them.
    #[derive(Default)]
    struct Refuse {
        refused: u64,
    }

    impl Link for Refuse {
        fn transmit(&mut self, _: SimTime, _: usize, _: f64) -> LinkOutcome {
            self.refused += 1;
            LinkOutcome::Drop(DropReason::RandomLoss)
        }
        fn propagation(&self) -> SimTime {
            SimTime::from_ns(1)
        }
        fn metrics(&self, into: &mut MetricsRegistry) {
            into.add("feed", "gap", None, self.refused);
        }
    }

    /// Delivers 100 ns after the offer but advertises 5 ns of
    /// propagation, so each hop splits into queueing and propagation.
    struct Late;

    impl Link for Late {
        fn transmit(&mut self, now: SimTime, _: usize, _: f64) -> LinkOutcome {
            LinkOutcome::Deliver(now + SimTime::from_ns(100))
        }
        fn propagation(&self) -> SimTime {
            SimTime::from_ns(5)
        }
    }

    /// Each tick sends one frame to the sink, one into a refusing link
    /// and one out of a port with no link.
    struct Spray {
        ticks: u64,
    }

    impl Node for Spray {
        fn on_frame(&mut self, ctx: &mut Context<'_>, _: PortId, frame: Frame) {
            ctx.recycle(frame);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
            for port in [PortId(0), PortId(1), PortId(2)] {
                let f = ctx.frame().zeroed(64).build();
                ctx.send(port, f);
            }
            self.ticks += 1;
            if self.ticks < 4 {
                ctx.set_timer(SimTime::from_ns(10), timer);
            }
        }
        fn metrics(&self, me: NodeId, into: &mut MetricsRegistry) {
            into.add("feed", "gap", Some(me.0), self.ticks);
            into.add("zone", "last", None, self.ticks);
            into.add("zone", "never", None, 0);
        }
    }

    #[test]
    fn metrics_snapshot_equals_a_registry_fed_through_inc() {
        let mut sim = Simulator::new(7);
        sim.set_provenance(true);
        let spray = sim.add_node("spray", Spray { ticks: 0 });
        let sink = sim.add_node(
            "sink",
            Repeater {
                seen: vec![],
                bounce: true,
            },
        );
        sim.install_link(spray, PortId(0), sink, PortId(0), Box::new(Late));
        sim.install_link(spray, PortId(1), sink, PortId(1), Box::<Refuse>::default());
        let back = IdealLink::new(SimTime::from_ns(3));
        sim.install_link(sink, PortId(0), spray, PortId(0), Box::new(back));
        sim.schedule_timer(SimTime::ZERO, spray, TimerToken(1));
        sim.run();
        // The registry path: one `inc` or `observe` per observation. The
        // node's and the link's views add scopes sorting before and after
        // "kernel", per node and not; their zero count leaves no key.
        // Each frame the sink bounces back adds a hop of its own.
        let mut want = MetricsRegistry::new();
        for _ in 0..4 {
            want.observe("hop", "queue", Some(spray.0), 95_000);
            want.observe("hop", "propagate", Some(spray.0), 5_000);
            want.observe("hop", "propagate", Some(sink.0), 3_000);
            want.inc("kernel", "deliver", Some(spray.0));
            want.inc("feed", "gap", None);
            want.inc("feed", "gap", Some(spray.0));
            want.inc("zone", "last", None);
            want.inc("kernel", "timer", Some(spray.0));
            want.inc("kernel", "drop", Some(spray.0));
            want.inc("kernel", "unrouted", Some(spray.0));
            want.inc("link_drop", "random_loss", None);
            want.inc("kernel", "deliver", Some(sink.0));
        }
        let at = sim.now().as_ps();
        assert_eq!(sim.metrics_snapshot(at), Some(want.snapshot(at)));
    }

    #[test]
    fn flight_and_profile_leave_digests_unchanged() {
        fn digest(flight: bool) -> (u64, u64) {
            let mut sim = Simulator::new(3);
            if flight {
                sim.set_flight_capacity(32);
                sim.set_profile(true);
            }
            let a = bouncing_pair(&mut sim);
            let f = sim.frame().zeroed(100).build();
            sim.inject_frame(SimTime::ZERO, a, PortId(0), f);
            sim.run_until(SimTime::from_us(1));
            (sim.trace.digest(), sim.trace.recorded())
        }
        assert_eq!(digest(false), digest(true));
        assert!(digest(true).1 > 0);
    }

    #[test]
    fn node_slot_stays_forty_bytes() {
        // A K-shard run holds K global-size `Vec<Option<NodeSlot>>`s:
        // 24 more bytes here was +17 MiB on the 8-shard 100k swarm.
        assert!(std::mem::size_of::<Option<NodeSlot>>() <= 40);
    }

    #[test]
    fn window_log_entries_stay_thirty_two_bytes() {
        // One per dispatch, push and drop of every shard window; the
        // trace record rides in the entry with its kind as the niche.
        assert!(std::mem::size_of::<WEntry>() <= 32);
    }

    #[test]
    fn ports_stay_in_port_order_inline_and_after_spilling() {
        // Shard planning walks links in (node, port) order whatever
        // order the ports were wired in.
        let mut ports = Ports::EMPTY;
        assert_eq!(ports.get(PortId(0)), None);
        for (port, link) in [(9, 0), (2, 1), (4, 2)] {
            ports.set(PortId(port), link);
        }
        assert!(matches!(ports, Ports::Inline { .. }));
        assert_eq!(ports.links().collect::<Vec<_>>(), [1, 2, 0]);
        assert_eq!(ports.get(PortId(4)), Some(2));
        assert_eq!(ports.get(PortId(0)), None);
        ports.set(PortId(3), 3);
        assert!(matches!(ports, Ports::Table(_)));
        assert_eq!(ports.links().collect::<Vec<_>>(), [1, 3, 2, 0]);
        assert_eq!(ports.get(PortId(9)), Some(0));
        assert_eq!(ports.get(PortId(5)), None);
        assert_eq!(ports.get(PortId(16)), None, "past the table");
    }

    /// Sends one pooled frame out of each port in `ports` when its timer
    /// fires.
    struct Sprayer {
        ports: Vec<u16>,
    }

    impl Node for Sprayer {
        fn on_frame(&mut self, ctx: &mut Context<'_>, _: PortId, frame: Frame) {
            ctx.recycle(frame);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _: TimerToken) {
            for &port in &self.ports {
                let frame = ctx.frame().zeroed(64).build();
                ctx.send(PortId(port), frame);
            }
        }
    }

    #[test]
    fn sparse_ports_route_and_the_gap_between_them_does_not() {
        let mut sim = Simulator::new(1);
        let hub = sim.add_node(
            "hub",
            Sprayer {
                ports: vec![0, 6_000, 12_500, 40_000],
            },
        );
        let sink = sim.add_node(
            "sink",
            Repeater {
                seen: vec![],
                bounce: false,
            },
        );
        let link = IdealLink::new(SimTime::from_ns(5));
        sim.install_link(hub, PortId(0), sink, PortId(0), Box::new(link.clone()));
        sim.install_link(hub, PortId(12_500), sink, PortId(1), Box::new(link));
        assert!(sim.is_connected(hub, PortId(0)));
        assert!(sim.is_connected(hub, PortId(12_500)));
        // Inside the table but unwired, past the table, a node with no
        // links at all, and a node that does not exist: all just "no".
        assert!(!sim.is_connected(hub, PortId(6_000)));
        assert!(!sim.is_connected(hub, PortId(40_000)));
        assert!(!sim.is_connected(sink, PortId(0)));
        assert!(!sim.is_connected(NodeId(99), PortId(0)));

        sim.schedule_timer(SimTime::ZERO, hub, TimerToken(0));
        sim.run();
        assert_eq!(sim.node::<Repeater>(sink).unwrap().seen.len(), 2);
        assert_eq!(sim.stats().frames_unrouted, 2);
        assert_eq!(
            sim.arena.stats().recycled,
            2,
            "unrouted payloads go back to the arena"
        );
    }

    #[test]
    #[should_panic(expected = "destination NodeId(7) is not a registered node")]
    fn link_to_an_unregistered_node_panics_at_build_time() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a", Sprayer { ports: vec![] });
        let link = IdealLink::new(SimTime::ZERO);
        sim.install_link(a, PortId(0), NodeId(7), PortId(0), Box::new(link));
    }

    #[test]
    #[should_panic(expected = "source NodeId(7) is not a registered node")]
    fn link_from_an_unregistered_node_panics_at_build_time() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a", Sprayer { ports: vec![] });
        let link = IdealLink::new(SimTime::ZERO);
        sim.install_link(NodeId(7), PortId(0), a, PortId(0), Box::new(link));
    }

    #[test]
    #[should_panic(expected = "NodeId(7) is not a registered node")]
    fn frame_for_an_unregistered_node_panics_at_the_injection() {
        let mut sim = Simulator::new(1);
        sim.add_node("a", Sprayer { ports: vec![] });
        let f = sim.frame().zeroed(64).build();
        sim.inject_frame(SimTime::ZERO, NodeId(7), PortId(0), f);
    }

    #[test]
    #[should_panic(expected = "NodeId(7) is not a registered node")]
    fn timer_for_an_unregistered_node_panics_at_the_call() {
        let mut sim = Simulator::new(1);
        sim.add_node("a", Sprayer { ports: vec![] });
        sim.schedule_timer(SimTime::ZERO, NodeId(7), TimerToken(0));
    }

    #[test]
    #[should_panic(expected = "NodeId(7) is not a registered node")]
    fn local_delivery_to_an_unregistered_node_panics_in_the_sending_dispatch() {
        struct Misdirected;
        impl Node for Misdirected {
            fn on_frame(&mut self, _: &mut Context<'_>, _: PortId, _: Frame) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, _: TimerToken) {
                let f = ctx.frame().zeroed(64).build();
                ctx.deliver_local(NodeId(7), PortId(0), SimTime::from_ns(1), f);
            }
        }
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a", Misdirected);
        sim.schedule_timer(SimTime::ZERO, a, TimerToken(0));
        // The delivery would pop 1 ns later; the panic must not wait.
        sim.step();
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn timer_into_the_past_panics_in_every_profile() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a", Sprayer { ports: vec![] });
        sim.run_until(SimTime::from_us(1));
        sim.schedule_timer(SimTime::from_ns(999), a, TimerToken(0));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn frame_into_the_past_panics_in_every_profile() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a", Sprayer { ports: vec![] });
        sim.run_until(SimTime::from_us(1));
        let f = sim.frame().zeroed(64).build();
        sim.inject_frame(SimTime::from_ns(999), a, PortId(0), f);
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(
            "a",
            Repeater {
                seen: vec![],
                bounce: false,
            },
        );
        let b = sim.add_node(
            "b",
            Repeater {
                seen: vec![],
                bounce: false,
            },
        );
        let link = IdealLink::new(SimTime::ZERO);
        sim.install_link(a, PortId(0), b, PortId(0), Box::new(link.clone()));
        sim.install_link(a, PortId(0), b, PortId(1), Box::new(link));
    }
}
