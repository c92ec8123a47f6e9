//! Sharded execution: conservative-lookahead parallel simulation.
//!
//! A [`ShardedSimulator`] partitions a built [`Simulator`] into K shards,
//! each owning a disjoint subset of the nodes (and every link whose
//! *source* it owns: a node's port table moves with its slot) with its
//! own [`crate::Scheduler`] instance, and runs them window-by-window
//! under a conservative-lookahead protocol:
//!
//! 1. **Safe window.** Each round the leader computes one global horizon
//!    `H = min over shards j with pending events of (T_j + L_j)`, where
//!    `T_j` is shard j's next event time and `L_j` is the minimum
//!    [`crate::Link::min_delay`] over *cut* links leaving j (infinite when
//!    j has none). Every event strictly before `H` is causally closed:
//!    no cross-shard frame sent at or after `T_j` can arrive before
//!    `T_j + L_j ≥ H`. Shards process their sub-window independently —
//!    on scoped OS threads when enough work is pending, inline otherwise
//!    (both paths execute identical code, so the digest cannot depend on
//!    the policy).
//!
//! 2. **Provisional ids.** Shards assign event seqs and frame ids from a
//!    per-shard counter with bit 63 set (`(1 << 63) | shard << 48 | n`),
//!    so real (serial-order) ids — always below `2^63` — are
//!    distinguishable. Within one shard, provisional order equals the
//!    eventual real order.
//!
//! 3. **Window log merge.** Each shard logs one block per dispatched
//!    event: the dispatch's own [`WEntry::Record`] — the trace record
//!    the serial kernel would have made, logged by the kernel's
//!    observation spine in place of recording it — then the pushes,
//!    drop records and cross-shard sends its callback made, in call
//!    order, each entry that names a frame id preceded by a
//!    [`WEntry::Builds`] for the frames drawn since the last. The
//!    leader K-way merges the blocks by `(time, translated tag)` —
//!    exactly the serial kernel's pop order — assigning real seqs and
//!    frame ids from global counters at the positions the serial
//!    kernel would have, recording each logged record with its
//!    frame id translated, and routing cross-shard frames (with their
//!    ids rewritten to real ids) into the owning shard's queue. By
//!    induction over windows the merged record stream is bit-for-bit
//!    the serial one, so the trace digest is too.
//!
//! The protocol refuses topologies it cannot reproduce exactly: a cut
//! link with zero `min_delay` (no lookahead) or one whose outcome
//! consumes the kernel coin (per-shard PRNG streams differ from the
//! serial stream). A shard carries the kernel profile and the trace and
//! no other telemetry, so [`ShardedSimulator::split`] also refuses a
//! simulator with provenance or the flight ring on.

use std::collections::BTreeMap;

use crate::frame::{Frame, FrameId};
use crate::kernel::{NodeCounts, SimStats, Simulator};
use crate::node::{NodeId, PortId};
use crate::sched::{EventKind, Scheduler, SchedulerKind};
use crate::time::SimTime;
use crate::trace::{TraceEvent, TraceKind, TraceLog};
use tn_obs::KernelProfiler;

/// High bit marking a shard-provisional id (event seq or frame id).
/// Real ids assigned by the serial kernel or the merge leader stay
/// below `2^63`.
const PROV_BIT: u64 = 1 << 63;
/// Low bits of a provisional id holding the shard-local counter.
const PROV_IDX_MASK: u64 = (1 << 48) - 1;

/// Base value for shard `s`'s provisional counters.
#[inline]
fn prov_base(shard: usize) -> u64 {
    PROV_BIT | ((shard as u64) << 48)
}

/// One entry in a shard's per-window reconciliation log. A window's log
/// is a sequence of blocks, each opened by the [`WEntry::Record`] of a
/// dispatch and followed by what that dispatch caused, in exact apply
/// order.
pub(crate) enum WEntry {
    /// The trace record the serial kernel would have made here, its
    /// frame id possibly provisional. A `Deliver` or `Timer` record
    /// opens a block, and `tag` is the popped event's (possibly
    /// provisional) seq — the merge key; a `Drop` record belongs to the
    /// block it sits in and its `tag` is unused.
    Record { ev: TraceEvent, tag: u64 },
    /// The dispatch callback built `n` frames (ids from the shard's
    /// provisional counter) since the last `Builds`; the leader assigns
    /// the matching real ids. Logged before the next entry that names a
    /// frame id, and at the end of the dispatch.
    Builds(u32),
    /// A shard-local event was pushed (timer, local delivery, or local
    /// link delivery); the shard consumed one provisional seq and the
    /// leader assigns the matching real one.
    LocalPush,
    /// A frame left the shard: the leader assigns its real seq, rewrites
    /// its id, and routes it. The n-th `Remote` entry pairs with the
    /// n-th frame in [`WindowState::remote`].
    Remote {
        arrival: SimTime,
        dst: NodeId,
        dst_port: PortId,
    },
}

impl WEntry {
    /// The `(time, tag)` merge key, if this entry opens a dispatch block.
    fn opens_block(&self) -> Option<(SimTime, u64)> {
        match self {
            WEntry::Record { ev, tag } if ev.kind != TraceKind::Drop => Some((ev.at, *tag)),
            _ => None,
        }
    }
}

/// Per-shard window log: reconciliation entries plus the cross-shard
/// frames awaiting routing, buffers reused across windows.
pub(crate) struct WindowState {
    pub(crate) entries: Vec<WEntry>,
    pub(crate) remote: Vec<Frame>,
    /// The shard's frame-id counter as of the last [`WEntry::Builds`]:
    /// ids below it have been logged. Starts at the shard's provisional
    /// base, not zero.
    built: u64,
}

impl WindowState {
    /// Log a [`WEntry::Builds`] for the frame ids drawn since the last
    /// one (`next_frame_id` is the shard's counter), so the leader has
    /// their real ids before any later entry names one of them.
    #[inline]
    pub(crate) fn log_builds(&mut self, next_frame_id: u64) {
        let drawn = next_frame_id - self.built;
        if drawn > 0 {
            self.entries.push(WEntry::Builds(drawn as u32));
            self.built = next_frame_id;
        }
    }
}

/// Why a topology cannot be sharded with a given assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A cut link has zero minimum delay: the conservative lookahead
    /// collapses and the protocol cannot make progress.
    ZeroDelayCut { src: NodeId, dst: NodeId },
    /// A cut-adjacent link consumes the kernel coin (e.g. i.i.d. loss):
    /// per-shard PRNG streams differ from the serial stream, so outcomes
    /// would diverge from the golden run.
    CoinLink { src: NodeId, dst: NodeId },
    /// The manual assignment does not cover the topology.
    BadAssignment(String),
    /// The simulator has a sink on that a shard does not carry
    /// (`"provenance"` or `"flight"`).
    Telemetry(&'static str),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::ZeroDelayCut { src, dst } => write!(
                f,
                "cross-shard link {} -> {} has zero min_delay; \
                 conservative lookahead needs every cut delay > 0",
                src.0, dst.0
            ),
            ShardError::CoinLink { src, dst } => write!(
                f,
                "link {} -> {} consumes the kernel coin (random loss); \
                 sharded runs cannot reproduce the serial PRNG stream",
                src.0, dst.0
            ),
            ShardError::BadAssignment(msg) => write!(f, "bad shard assignment: {msg}"),
            ShardError::Telemetry(sink) => write!(
                f,
                "{sink} is on; a shard carries only the kernel profile and the trace"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// A node-to-shard assignment, either computed (cut-minimizing) or
/// supplied manually.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// `assignment[node] = shard` for every node id.
    pub assignment: Vec<u32>,
    /// Number of shards (max assignment + 1; empty shards allowed).
    pub shards: u16,
}

impl ShardPlan {
    /// A manual assignment. Validated against a concrete topology by
    /// [`ShardPlan::validate`].
    pub fn manual(assignment: Vec<u32>) -> ShardPlan {
        let shards = assignment.iter().max().map_or(1, |&m| m + 1) as u16;
        ShardPlan { assignment, shards }
    }

    /// Compute a cut-minimizing assignment into at most `k` shards:
    /// Kruskal-style ascending-delay edge contraction (heaviest-traffic,
    /// shortest-delay neighborhoods merge first; zero-delay and
    /// coin-consuming links merge unconditionally since they can never
    /// be cut), stopping when `k` components remain, then greedy
    /// packing of components into `k` bins by descending node count.
    /// Deterministic: inputs are the topology only.
    pub fn auto(sim: &Simulator, k: u16) -> ShardPlan {
        let n = sim.nodes.len();
        let k = usize::from(k.max(1)).min(n.max(1));
        // Undirected pairwise constraints: minimum cut delay per pair,
        // and whether the pair can be cut at all.
        let mut pair_delay: BTreeMap<(u32, u32), (SimTime, bool)> = BTreeMap::new();
        for (src, idx) in sim.links_by_source() {
            let Some(slot) = sim.links[idx].as_ref() else {
                continue;
            };
            let (a, b) = (src.0.min(slot.dst.0), src.0.max(slot.dst.0));
            if a == b {
                continue; // self-loop: never a cut
            }
            let d = slot.link.min_delay();
            let uncuttable = d == SimTime::ZERO || slot.link.uses_kernel_coin();
            let e = pair_delay.entry((a, b)).or_insert((d, false));
            if d < e.0 {
                e.0 = d;
            }
            e.1 |= uncuttable;
        }
        // Union-find over nodes.
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        let mut components = n;
        // Mandatory merges first: edges that can never be cut.
        for (&(a, b), &(_, uncuttable)) in &pair_delay {
            if uncuttable {
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                if ra != rb {
                    parent[rb as usize] = ra;
                    components -= 1;
                }
            }
        }
        // Ascending-delay contraction until k components remain. Equal
        // delays are processed in (delay, a, b) order — deterministic.
        let mut edges: Vec<(SimTime, u32, u32)> = pair_delay
            .iter()
            .filter(|(_, &(_, unc))| !unc)
            .map(|(&(a, b), &(d, _))| (d, a, b))
            .collect();
        edges.sort_unstable();
        for (_, a, b) in edges {
            if components <= k {
                break;
            }
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[rb as usize] = ra;
                components -= 1;
            }
        }
        // Pack components into k bins: descending node count, each to
        // the least-loaded bin (ties to the lowest bin index).
        let mut members: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for v in 0..n as u32 {
            let r = find(&mut parent, v);
            members.entry(r).or_default().push(v);
        }
        let mut comps: Vec<Vec<u32>> = members.into_values().collect();
        comps.sort_by_key(|c| (std::cmp::Reverse(c.len()), c[0]));
        let bins = k.min(comps.len()).max(1);
        let mut load = vec![0usize; bins];
        let mut assignment = vec![0u32; n];
        for comp in comps {
            let mut best = 0;
            for (i, &l) in load.iter().enumerate() {
                if l < load[best] {
                    best = i;
                }
            }
            load[best] += comp.len();
            for v in comp {
                assignment[v as usize] = best as u32;
            }
        }
        ShardPlan {
            assignment,
            shards: bins as u16,
        }
    }

    /// Check this plan against a built topology: coverage, and the two
    /// protocol preconditions on every cut link (positive lookahead, no
    /// kernel-coin consumption).
    pub fn validate(&self, sim: &Simulator) -> Result<(), ShardError> {
        if self.assignment.len() != sim.nodes.len() {
            return Err(ShardError::BadAssignment(format!(
                "assignment covers {} nodes, topology has {}",
                self.assignment.len(),
                sim.nodes.len()
            )));
        }
        if self.shards == 0 {
            return Err(ShardError::BadAssignment("zero shards".into()));
        }
        for &s in &self.assignment {
            if s >= u32::from(self.shards) {
                return Err(ShardError::BadAssignment(format!(
                    "shard id {s} out of range (shards = {})",
                    self.shards
                )));
            }
        }
        for (src, idx) in sim.links_by_source() {
            let Some(slot) = sim.links[idx].as_ref() else {
                continue;
            };
            if self.assignment[src.0 as usize] == self.assignment[slot.dst.0 as usize] {
                continue;
            }
            if slot.link.uses_kernel_coin() {
                return Err(ShardError::CoinLink { src, dst: slot.dst });
            }
            if slot.link.min_delay() == SimTime::ZERO {
                return Err(ShardError::ZeroDelayCut { src, dst: slot.dst });
            }
        }
        Ok(())
    }
}

/// Aggregate statistics of a sharded run, for reports and benches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRunStats {
    /// Number of shards (including idle ones).
    pub shards: u16,
    /// Safe windows executed.
    pub windows: u64,
    /// Frames that crossed a shard boundary.
    pub cross_shard_frames: u64,
}

/// Pending-event threshold at or above which a window runs on scoped OS
/// threads rather than inline on the leader. Tiny windows are cheaper
/// to run inline than to fan out.
const DEFAULT_PARALLEL_THRESHOLD: usize = 256;

/// A [`Simulator`] split into per-shard kernels running under the
/// conservative-lookahead protocol. See the module docs for the
/// determinism argument.
pub struct ShardedSimulator {
    shards: Vec<Simulator>,
    assignment: Vec<u32>,
    /// The parent's node names, held here while the nodes are out on
    /// their shards.
    names: Vec<String>,
    /// Per shard: minimum `min_delay` over cut links leaving it
    /// (`None` = no cut links, i.e. infinite lookahead).
    out_look: Vec<Option<SimTime>>,
    /// Global (serial-order) event seq counter, continued from the
    /// parent kernel.
    seq: u64,
    /// Global (serial-order) frame id counter.
    next_frame_id: u64,
    /// The unified trace: the parent's log, fed reconstructed records in
    /// merged (serial) order.
    trace: TraceLog,
    /// The parent's pre-split profiler; per-shard profilers fold in at
    /// reassembly.
    profiler_base: KernelProfiler,
    /// The parent's pre-split count rows; each shard counts from zero
    /// and folds in at reassembly.
    counts_base: Vec<NodeCounts>,
    sched_kind: SchedulerKind,
    stats_base: SimStats,
    now: SimTime,
    /// Per-shard translation: provisional seq index -> real seq.
    /// Persistent across windows (queued events outlive their window).
    seq_map: Vec<Vec<u64>>,
    /// Per-shard translation: provisional frame-id index -> real id.
    frame_map: Vec<Vec<u64>>,
    parallel_threshold: usize,
    windows: u64,
    cross_shard_frames: u64,
    /// Scratch buffer for the post-merge rekey pass (reused every
    /// window to keep the leader loop allocation-free).
    rekey_buf: Vec<crate::sched::QueuedEvent>,
}

impl ShardedSimulator {
    /// Split a built simulator into shards under `plan`. Fails (dropping
    /// the simulator) when the plan violates a protocol precondition or
    /// the simulator has provenance or the flight ring on;
    /// call [`ShardPlan::validate`] first to keep the simulator on error.
    pub fn split(mut sim: Simulator, plan: &ShardPlan) -> Result<ShardedSimulator, ShardError> {
        plan.validate(&sim)?;
        for (on, sink) in [
            (sim.provenance, "provenance"),
            (sim.flight.is_enabled(), "flight"),
        ] {
            if on {
                return Err(ShardError::Telemetry(sink));
            }
        }
        let k = usize::from(plan.shards);
        let n_nodes = sim.nodes.len();
        let n_links = sim.links.len();

        // Cross-shard lookahead per source shard.
        let mut out_look: Vec<Option<SimTime>> = vec![None; k];
        for (src, idx) in sim.links_by_source() {
            let Some(slot) = sim.links[idx].as_ref() else {
                continue;
            };
            let (ss, ds) = (
                plan.assignment[src.0 as usize] as usize,
                plan.assignment[slot.dst.0 as usize] as usize,
            );
            if ss != ds {
                let d = slot.link.min_delay();
                if out_look[ss].is_none_or(|cur| d < cur) {
                    out_look[ss] = Some(d);
                }
            }
        }

        let mut shards: Vec<Simulator> = (0..k)
            .map(|s| {
                // The shard seed is arbitrary: validation guarantees no
                // link consumes the kernel coin, and no workspace node
                // draws from the dispatch RNG, so the stream is dead.
                let mut sh = Simulator::with_scheduler(0x5eed ^ s as u64, sim.sched_kind);
                sh.now = sim.now;
                sh.seq = prov_base(s);
                sh.next_frame_id = prov_base(s);
                sh.nodes = (0..n_nodes).map(|_| None).collect();
                sh.links = (0..n_links).map(|_| None).collect();
                if sim.profiler.is_enabled() {
                    sh.profiler = KernelProfiler::enabled();
                }
                if !sim.counts.is_empty() {
                    sh.counts = vec![NodeCounts::idle(s as u16 + 1); n_nodes];
                }
                sh.wlog = Some(Box::new(WindowState {
                    entries: Vec::with_capacity(1024),
                    remote: Vec::with_capacity(64),
                    built: sh.next_frame_id,
                }));
                sh
            })
            .collect();

        // Distribute nodes; each takes its port table along, and its
        // links follow it (transmit runs on the source's shard).
        for (i, slot) in sim.nodes.iter_mut().enumerate() {
            let shard = &mut shards[plan.assignment[i] as usize];
            for idx in slot.iter().flat_map(|slot| slot.ports.links()) {
                shard.links[idx] = sim.links[idx].take();
            }
            shard.nodes[i] = slot.take();
        }
        // Pending events (pre-split injections carry real seqs) go to the
        // target node's shard. Direct queue pushes: their Schedule
        // telemetry was already recorded by the parent at injection.
        while let Some(ev) = sim.queue.pop() {
            let s = plan.assignment[ev.kind.target_node().0 as usize] as usize;
            shards[s].queue.push(ev);
        }
        // The parent's arena seeds shard 0; reassembly absorbs them all.
        shards[0].arena = std::mem::take(&mut sim.arena);

        Ok(ShardedSimulator {
            assignment: plan.assignment.clone(),
            names: std::mem::take(&mut sim.names),
            out_look,
            seq: sim.seq,
            next_frame_id: sim.next_frame_id,
            trace: std::mem::take(&mut sim.trace),
            profiler_base: std::mem::replace(&mut sim.profiler, KernelProfiler::disabled()),
            counts_base: std::mem::take(&mut sim.counts),
            sched_kind: sim.sched_kind,
            stats_base: sim.stats,
            now: sim.now,
            seq_map: (0..k).map(|_| Vec::new()).collect(),
            frame_map: (0..k).map(|_| Vec::new()).collect(),
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
            windows: 0,
            cross_shard_frames: 0,
            rekey_buf: Vec::new(),
            shards,
        })
    }

    /// Set the pending-event count at or above which a window fans out
    /// to scoped OS threads (`0` forces threads for every window; both
    /// paths run identical code, so the digest cannot move).
    pub fn set_parallel_threshold(&mut self, threshold: usize) {
        self.parallel_threshold = threshold;
    }

    /// Statistics of the run so far.
    pub fn run_stats(&self) -> ShardRunStats {
        ShardRunStats {
            shards: self.shards.len() as u16,
            windows: self.windows,
            cross_shard_frames: self.cross_shard_frames,
        }
    }

    /// Translate a possibly-provisional id through shard `shard`'s
    /// `which` map (`"seq"` or `"frame"`). The timer sentinel passes
    /// through untouched. An id the map does not cover yet means the
    /// window log named it before the entry that maps it, so that is
    /// where a misordered log surfaces.
    #[inline]
    fn translate(map: &[u64], raw: u64, shard: usize, which: &str) -> u64 {
        if raw == u64::MAX || raw & PROV_BIT == 0 {
            return raw;
        }
        let idx = raw & PROV_IDX_MASK;
        match map.get(idx as usize) {
            Some(&real) => real,
            None => panic!(
                "shard {shard}: provisional {which} id {raw:#x} (index {idx}) is not in \
                 the {which} map, which holds {} ids: the window log named it before \
                 the entry that maps it",
                map.len()
            ),
        }
    }

    /// Run every shard up to `deadline` (inclusive, matching
    /// [`Simulator::run_until`] semantics), window by window. Returns
    /// the number of events processed across all shards.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let before: u64 = self.shards.iter().map(|s| s.stats().events_processed).sum();
        let bound_excl = SimTime::from_ps(deadline.as_ps().saturating_add(1));
        loop {
            // One global safe window: H = min(T_j + L_j) over shards
            // with pending events; shards with no events contribute
            // nothing (they cannot send anything).
            let mut min_t: Option<SimTime> = None;
            let mut horizon: Option<SimTime> = None;
            for s in 0..self.shards.len() {
                let Some(t) = self.shards[s].peek_next_at() else {
                    continue;
                };
                if min_t.is_none_or(|m| t < m) {
                    min_t = Some(t);
                }
                if let Some(look) = self.out_look[s] {
                    let h = SimTime::from_ps(t.as_ps().saturating_add(look.as_ps()));
                    if horizon.is_none_or(|cur| h < cur) {
                        horizon = Some(h);
                    }
                }
            }
            let Some(min_t) = min_t else {
                break; // every queue is empty
            };
            if min_t > deadline {
                break;
            }
            let h_excl = match horizon {
                Some(h) if h < bound_excl => h,
                _ => bound_excl,
            };
            debug_assert!(
                h_excl > min_t,
                "lookahead stalled: horizon {} <= next event {}",
                h_excl.as_ps(),
                min_t.as_ps()
            );
            self.windows += 1;
            let pending: usize = self.shards.iter().map(|s| s.pending_events()).sum();
            if pending >= self.parallel_threshold && self.shards.len() > 1 {
                std::thread::scope(|scope| {
                    for sh in self.shards.iter_mut() {
                        scope.spawn(move || {
                            sh.run_window(h_excl);
                        });
                    }
                });
            } else {
                for sh in self.shards.iter_mut() {
                    sh.run_window(h_excl);
                }
            }
            self.merge_window(h_excl);
        }
        // Serial run_until advances the clock to the deadline even when
        // idle; mirror that on every shard and the leader.
        for sh in self.shards.iter_mut() {
            if sh.now < deadline {
                sh.now = deadline;
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
        let after: u64 = self.shards.iter().map(|s| s.stats().events_processed).sum();
        after - before
    }

    /// K-way merge of the window logs: reconstruct the serial record
    /// stream, assign real ids, route cross-shard frames.
    fn merge_window(&mut self, h_excl: SimTime) {
        let k = self.shards.len();
        // Take the logs out so the shards stay mutably borrowable for
        // routing; buffers are handed back (cleared) at the end.
        let mut cursor = vec![0usize; k];
        let mut remote: Vec<std::vec::IntoIter<Frame>> = Vec::with_capacity(k);
        let mut entries: Vec<Vec<WEntry>> = Vec::with_capacity(k);
        for sh in self.shards.iter_mut() {
            let Some(w) = sh.wlog.as_mut() else {
                unreachable!("shard lost its window log")
            };
            entries.push(std::mem::take(&mut w.entries));
            remote.push(std::mem::take(&mut w.remote).into_iter());
        }
        loop {
            // Head of each shard's log is always a dispatch record (the
            // shard logs it before anything the dispatch causes); pick
            // the (at, translated tag) minimum — serial pop order. A
            // provisional head tag always translates: its LocalPush was
            // logged earlier in the *same* shard's log (intra-shard
            // push) or in a previous window, so its map entry exists.
            let mut best: Option<(SimTime, u64, usize)> = None;
            for s in 0..k {
                if let Some((at, tag)) = entries[s].get(cursor[s]).and_then(WEntry::opens_block) {
                    let real = Self::translate(&self.seq_map[s], tag, s, "seq");
                    if best.is_none_or(|(ba, bt, _)| (at, real) < (ba, bt)) {
                        best = Some((at, real, s));
                    }
                }
            }
            let Some((_, _, s)) = best else {
                break;
            };
            // Consume the block: the dispatch record plus everything up
            // to the next one (or the end of the log).
            loop {
                match &entries[s][cursor[s]] {
                    WEntry::Record { ev, .. } => {
                        let frame =
                            FrameId(Self::translate(&self.frame_map[s], ev.frame.0, s, "frame"));
                        self.trace.record(TraceEvent { frame, ..*ev });
                    }
                    WEntry::Builds(n) => {
                        for _ in 0..*n {
                            self.frame_map[s].push(self.next_frame_id);
                            self.next_frame_id += 1;
                        }
                    }
                    WEntry::LocalPush => {
                        self.seq_map[s].push(self.seq);
                        self.seq += 1;
                    }
                    WEntry::Remote {
                        arrival,
                        dst,
                        dst_port,
                    } => {
                        // The serial kernel bumped its seq here too.
                        let real_seq = self.seq;
                        self.seq += 1;
                        self.cross_shard_frames += 1;
                        let Some(mut f) = remote[s].next() else {
                            unreachable!("Remote entry without a buffered frame");
                        };
                        f.id = FrameId(Self::translate(&self.frame_map[s], f.id.0, s, "frame"));
                        if *arrival < h_excl {
                            // Cold path: a link advertised a min_delay
                            // larger than a delivery it produced.
                            panic!(
                                "cross-shard delivery into the past: frame {} arrives at {} ps \
                                 inside the already-executed window (horizon {} ps); \
                                 a link's min_delay() overstates its guarantee",
                                f.id.0,
                                arrival.as_ps(),
                                h_excl.as_ps()
                            );
                        }
                        let ds = self.assignment[dst.0 as usize] as usize;
                        self.shards[ds].push_external(*arrival, real_seq, *dst, *dst_port, f);
                    }
                }
                cursor[s] += 1;
                if entries[s]
                    .get(cursor[s])
                    .is_none_or(|e| e.opens_block().is_some())
                {
                    break;
                }
            }
        }
        // Hand the (cleared) buffers back for the next window.
        for (sh, mut ents) in self.shards.iter_mut().zip(entries) {
            if let Some(w) = sh.wlog.as_mut() {
                ents.clear();
                w.entries = ents;
            }
        }
        // Rekey pass: rewrite every pending provisional seq to the real
        // seq the merge just assigned. A provisional key compares as
        // "newest possible" inside the shard's scheduler, which breaks
        // same-timestamp ties the moment a cross-shard arrival (small
        // real seq) lands next to an older local push (huge provisional
        // seq) — the external event would jump the queue. After the
        // merge every pending push has its real seq in `seq_map`, so the
        // drain-translate-reinsert leaves each shard ordering ties in
        // exact serial push order. Single-shard runs have no external
        // arrivals and skip the pass.
        if k > 1 {
            for (s, sh) in self.shards.iter_mut().enumerate() {
                while let Some(mut ev) = sh.queue.pop() {
                    ev.seq = Self::translate(&self.seq_map[s], ev.seq, s, "seq");
                    self.rekey_buf.push(ev);
                }
                for ev in self.rekey_buf.drain(..) {
                    sh.queue.push(ev);
                }
            }
        }
    }

    /// Reassemble the shards into one serial [`Simulator`] carrying the
    /// unified trace, summed statistics, the merged profile, and every
    /// node — so post-run harvesting (reports, downcasts) is identical
    /// to the serial path.
    pub fn finish(mut self) -> Simulator {
        let mut sim = Simulator::with_scheduler(0, self.sched_kind);
        sim.now = self.now;
        sim.seq = self.seq;
        sim.next_frame_id = self.next_frame_id;
        sim.stats = self.stats_base;
        let n_nodes = self.shards.first().map_or(0, |s| s.nodes.len());
        let n_links = self.shards.first().map_or(0, |s| s.links.len());
        sim.nodes = (0..n_nodes).map(|_| None).collect();
        sim.names = std::mem::take(&mut self.names);
        sim.links = (0..n_links).map(|_| None).collect();
        for (s, sh) in self.shards.iter_mut().enumerate() {
            sh.wlog = None; // leave window mode before the final drain
            for (i, slot) in sh.nodes.iter_mut().enumerate() {
                if let Some(slot) = slot.take() {
                    sim.nodes[i] = Some(slot);
                }
            }
            for (i, slot) in sh.links.iter_mut().enumerate() {
                if let Some(slot) = slot.take() {
                    sim.links[i] = Some(slot);
                }
            }
            // Residual events (beyond the deadline) rejoin the unified
            // queue with their ids translated to serial order.
            while let Some(mut ev) = sh.queue.pop() {
                ev.seq = Self::translate(&self.seq_map[s], ev.seq, s, "seq");
                // A frame riding a service-queue timer is as much in
                // flight as one bound for a port.
                if let EventKind::Frame { frame, .. }
                | EventKind::Timer {
                    frame: Some(frame), ..
                } = &mut ev.kind
                {
                    frame.id = FrameId(Self::translate(&self.frame_map[s], frame.id.0, s, "frame"));
                }
                sim.queue.push(ev);
            }
            let st = sh.stats();
            sim.stats.events_processed += st.events_processed;
            sim.stats.frames_delivered += st.frames_delivered;
            sim.stats.frames_dropped += st.frames_dropped;
            for (mine, theirs) in sim.stats.link_drops.iter_mut().zip(st.link_drops) {
                *mine += theirs;
            }
            sim.stats.frames_unrouted += st.frames_unrouted;
            sim.stats.timers_fired += st.timers_fired;
            let arena = std::mem::take(&mut sh.arena);
            if s == 0 {
                sim.arena = arena;
            } else {
                sim.arena.absorb(arena);
            }
            self.profiler_base.merge_from(&sh.profiler);
            for (mine, theirs) in self.counts_base.iter_mut().zip(&sh.counts) {
                mine.absorb(theirs);
            }
        }
        sim.trace = self.trace;
        sim.profiler = self.profiler_base;
        sim.counts = self.counts_base;
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{Context, TimerToken};
    use crate::link::{IdealLink, Link, LinkOutcome};
    use crate::node::Node;
    use crate::sched::SchedulerKind;
    use tn_obs::NodeProfile;

    /// Bounces frames back out the arrival port for a while.
    struct Bouncer {
        hops_left: u32,
    }

    impl Node for Bouncer {
        fn on_frame(&mut self, ctx: &mut Context<'_>, port: PortId, frame: Frame) {
            if self.hops_left > 0 {
                self.hops_left -= 1;
                ctx.send(port, frame);
            } else {
                ctx.recycle(frame);
            }
        }
    }

    /// Fires a periodic timer and sprays a frame each tick.
    struct Ticker {
        period: SimTime,
        ticks_left: u32,
    }

    impl Node for Ticker {
        fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
            ctx.recycle(frame);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
            let f = ctx
                .frame()
                .zeroed(64)
                .tag(u64::from(self.ticks_left))
                .build();
            ctx.send(PortId(0), f);
            if self.ticks_left > 0 {
                self.ticks_left -= 1;
                ctx.set_timer(self.period, timer);
            }
        }
    }

    /// Four nodes in a line, mixed delays, cross traffic and timers.
    fn build_line(kind: SchedulerKind) -> Simulator {
        let mut sim = Simulator::with_scheduler(11, kind);
        let a = sim.add_node(
            "a",
            Ticker {
                period: SimTime::from_ns(70),
                ticks_left: 40,
            },
        );
        let b = sim.add_node("b", Bouncer { hops_left: 6 });
        let c = sim.add_node("c", Bouncer { hops_left: 9 });
        let d = sim.add_node(
            "d",
            Ticker {
                period: SimTime::from_ns(110),
                ticks_left: 25,
            },
        );
        let short = IdealLink::new(SimTime::from_ns(5));
        let long = IdealLink::new(SimTime::from_ns(400));
        sim.install_link(a, PortId(0), b, PortId(0), Box::new(short.clone()));
        sim.install_link(b, PortId(0), a, PortId(0), Box::new(short.clone()));
        sim.install_link(b, PortId(1), c, PortId(1), Box::new(long.clone()));
        sim.install_link(c, PortId(1), b, PortId(1), Box::new(long));
        sim.install_link(c, PortId(0), d, PortId(0), Box::new(short.clone()));
        sim.install_link(d, PortId(0), c, PortId(0), Box::new(short));
        sim.schedule_timer(SimTime::ZERO, a, TimerToken(1));
        sim.schedule_timer(SimTime::from_ns(33), d, TimerToken(2));
        sim
    }

    fn serial_signature(kind: SchedulerKind, deadline: SimTime) -> (u64, u64, SimStats) {
        let mut sim = build_line(kind);
        sim.run_until(deadline);
        (sim.trace.digest(), sim.trace.recorded(), sim.stats())
    }

    #[test]
    fn sharded_line_matches_serial_for_every_count_and_scheduler() {
        let deadline = SimTime::from_us(20);
        for kind in SchedulerKind::ALL {
            let want = serial_signature(kind, deadline);
            for k in 1..=4u16 {
                let sim = build_line(kind);
                let plan = ShardPlan::auto(&sim, k);
                let mut sharded = ShardedSimulator::split(sim, &plan).expect("plan is valid");
                sharded.run_until(deadline);
                let merged = sharded.finish();
                let got = (
                    merged.trace.digest(),
                    merged.trace.recorded(),
                    merged.stats(),
                );
                assert_eq!(got, want, "k={k} kind={}", kind.name());
            }
        }
    }

    #[test]
    fn merged_rows_name_their_shard_and_count_pre_split_work_once() {
        let deadline = SimTime::from_us(20);
        let profiled = || {
            let mut sim = build_line(SchedulerKind::BinaryHeap);
            sim.set_profile(true);
            sim
        };
        let mut serial = profiled();
        serial.run_until(deadline);
        let want = serial.profile().expect("profiler is on").per_node;

        // Half a microsecond on the parent, the rest on two shards.
        let mut parent = profiled();
        parent.run_until(SimTime::from_ns(500));
        let plan = ShardPlan::manual(vec![0, 0, 1, 1]);
        let mut sharded = ShardedSimulator::split(parent, &plan).expect("valid");
        sharded.run_until(deadline);
        let got = sharded.finish().profile().expect("profiler is on").per_node;
        let shards: Vec<(u32, u16)> = got.iter().map(|n| (n.node, n.shard)).collect();
        assert_eq!(shards, vec![(0, 1), (1, 1), (2, 2), (3, 2)]);
        let counts = |rows: &[NodeProfile]| {
            rows.iter()
                .map(|n| (n.frames, n.timers, n.drops, n.first_at_ps, n.last_at_ps))
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(&got), counts(&want));
    }

    #[test]
    fn manual_plan_round_trips_and_counts_cross_shard_traffic() {
        let deadline = SimTime::from_us(20);
        let want = serial_signature(SchedulerKind::BinaryHeap, deadline);
        let sim = build_line(SchedulerKind::BinaryHeap);
        // Interleaved assignment: the busy a<->b and c<->d links are cut.
        let plan = ShardPlan::manual(vec![0, 1, 0, 1]);
        plan.validate(&sim).expect("every cut has 5ns lookahead");
        let mut sharded = ShardedSimulator::split(sim, &plan).expect("valid");
        sharded.run_until(deadline);
        let stats = sharded.run_stats();
        assert_eq!(stats.shards, 2);
        assert!(stats.windows > 1, "multi-window run expected");
        assert!(
            stats.cross_shard_frames > 0,
            "a<->b traffic crosses the cut"
        );
        let merged = sharded.finish();
        assert_eq!(
            (
                merged.trace.digest(),
                merged.trace.recorded(),
                merged.stats()
            ),
            want
        );
    }

    #[test]
    fn reassembled_kernel_keeps_routing_every_link() {
        // Split, run half way, reassemble, and finish on the serial
        // kernel: every link must have come back with its source node,
        // or the second half drops frames the all-serial run delivers.
        let (half, full) = (SimTime::from_us(2), SimTime::from_us(20));
        for kind in SchedulerKind::ALL {
            let want = serial_signature(kind, full);
            let sim = build_line(kind);
            let plan = ShardPlan::manual(vec![0, 1, 0, 1]);
            let mut sharded = ShardedSimulator::split(sim, &plan).expect("plan is valid");
            sharded.run_until(half);
            let mut merged = sharded.finish();
            for (node, port) in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 0), (3, 0)] {
                assert!(merged.is_connected(NodeId(node), PortId(port)));
            }
            assert_eq!(merged.links_by_source().count(), 6);
            assert_eq!(merged.names[2], "c");
            merged.run_until(full);
            let got = (
                merged.trace.digest(),
                merged.trace.recorded(),
                merged.stats(),
            );
            assert_eq!(got, want, "kind={}", kind.name());
            assert_eq!(merged.stats().frames_unrouted, 0);
        }
    }

    #[test]
    fn auto_plan_contracts_zero_delay_edges() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a", Bouncer { hops_left: 0 });
        let b = sim.add_node("b", Bouncer { hops_left: 0 });
        let c = sim.add_node("c", Bouncer { hops_left: 0 });
        let _ = c;
        sim.install_link(
            a,
            PortId(0),
            b,
            PortId(0),
            Box::new(IdealLink::new(SimTime::ZERO)),
        );
        let plan = ShardPlan::auto(&sim, 3);
        assert_eq!(
            plan.assignment[a.0 as usize], plan.assignment[b.0 as usize],
            "zero-delay neighbors must share a shard"
        );
        plan.validate(&sim).expect("auto plans always validate");
    }

    #[test]
    fn zero_delay_cut_is_rejected() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a", Bouncer { hops_left: 0 });
        let b = sim.add_node("b", Bouncer { hops_left: 0 });
        sim.install_link(
            a,
            PortId(0),
            b,
            PortId(0),
            Box::new(IdealLink::new(SimTime::ZERO)),
        );
        let plan = ShardPlan::manual(vec![0, 1]);
        assert_eq!(
            plan.validate(&sim),
            Err(ShardError::ZeroDelayCut { src: a, dst: b })
        );
        assert!(ShardedSimulator::split(sim, &plan).is_err());
    }

    #[test]
    fn split_refuses_every_sink_a_shard_does_not_carry() {
        let plan = ShardPlan::manual(vec![0, 0, 1, 1]);
        for sink in ["provenance", "flight"] {
            let mut sim = build_line(SchedulerKind::BinaryHeap);
            sim.set_profile(true);
            match sink {
                "provenance" => sim.set_provenance(true),
                _ => sim.set_flight_capacity(8),
            }
            let err = ShardedSimulator::split(sim, &plan).err();
            assert_eq!(err, Some(ShardError::Telemetry(sink)));
        }
        let mut sim = build_line(SchedulerKind::BinaryHeap);
        sim.set_profile(true);
        sim.trace.set_enabled(true);
        assert!(ShardedSimulator::split(sim, &plan).is_ok());
    }

    /// Deterministic link that *lies* about its lookahead: it advertises
    /// a large min_delay but delivers almost immediately.
    #[derive(Clone)]
    struct LyingLink;
    impl Link for LyingLink {
        fn transmit(&mut self, now: SimTime, _len: usize, _coin: f64) -> LinkOutcome {
            LinkOutcome::Deliver(now + SimTime::from_ns(1))
        }
        fn propagation(&self) -> SimTime {
            SimTime::from_ns(1)
        }
        fn min_delay(&self) -> SimTime {
            SimTime::from_ms(10) // wildly overstated guarantee
        }
    }

    /// Coin-consuming link for validation tests; never actually run.
    #[derive(Clone)]
    struct CoinLink;
    impl Link for CoinLink {
        fn transmit(&mut self, now: SimTime, _len: usize, coin: f64) -> LinkOutcome {
            if coin < 0.5 {
                LinkOutcome::Deliver(now + SimTime::from_ns(10))
            } else {
                LinkOutcome::Drop(crate::link::DropReason::RandomLoss)
            }
        }
        fn propagation(&self) -> SimTime {
            SimTime::from_ns(10)
        }
        fn uses_kernel_coin(&self) -> bool {
            true
        }
    }

    #[test]
    fn coin_consuming_cut_is_rejected() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a", Bouncer { hops_left: 0 });
        let b = sim.add_node("b", Bouncer { hops_left: 0 });
        sim.install_link(a, PortId(0), b, PortId(0), Box::new(CoinLink));
        let plan = ShardPlan::manual(vec![0, 1]);
        assert_eq!(
            plan.validate(&sim),
            Err(ShardError::CoinLink { src: a, dst: b })
        );
        // Auto planning contracts the pair instead of cutting it.
        let auto = ShardPlan::auto(&sim, 2);
        assert_eq!(auto.assignment[0], auto.assignment[1]);
    }

    #[test]
    #[should_panic(expected = "cross-shard delivery into the past")]
    fn lying_lookahead_panics_instead_of_corrupting_the_run() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(
            "a",
            Ticker {
                period: SimTime::from_ns(100),
                ticks_left: 50,
            },
        );
        let b = sim.add_node("b", Bouncer { hops_left: 100 });
        sim.install_link(a, PortId(0), b, PortId(0), Box::new(LyingLink));
        sim.install_link(b, PortId(0), a, PortId(0), Box::new(LyingLink));
        sim.schedule_timer(SimTime::ZERO, a, TimerToken(0));
        let plan = ShardPlan::manual(vec![0, 1]);
        plan.validate(&sim).expect("min_delay looks positive");
        let mut sharded = ShardedSimulator::split(sim, &plan).expect("valid");
        sharded.run_until(SimTime::from_us(100));
    }

    #[test]
    #[should_panic(expected = "NodeId(9) is not a registered node")]
    fn local_delivery_to_an_unregistered_node_panics_on_a_shard_too() {
        // A shard's node table is sparse: "not here" must not be taken
        // for "on another shard" when the id is past the table's end.
        struct Misdirected;
        impl Node for Misdirected {
            fn on_frame(&mut self, _: &mut Context<'_>, _: PortId, _: Frame) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, _: TimerToken) {
                let f = ctx.frame().zeroed(64).build();
                ctx.deliver_local(NodeId(9), PortId(0), SimTime::from_ns(1), f);
            }
        }
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a", Misdirected);
        sim.add_node("b", Bouncer { hops_left: 0 });
        sim.schedule_timer(SimTime::ZERO, a, TimerToken(0));
        let plan = ShardPlan::manual(vec![0, 1]);
        let mut sharded = ShardedSimulator::split(sim, &plan).expect("valid");
        sharded.run_until(SimTime::from_us(1));
    }

    #[test]
    fn bad_assignments_are_rejected() {
        let mut sim = Simulator::new(1);
        sim.add_node("a", Bouncer { hops_left: 0 });
        sim.add_node("b", Bouncer { hops_left: 0 });
        assert!(matches!(
            ShardPlan::manual(vec![0]).validate(&sim),
            Err(ShardError::BadAssignment(_))
        ));
        let mut plan = ShardPlan::manual(vec![0, 1]);
        plan.shards = 1; // id 1 now out of range
        assert!(matches!(
            plan.validate(&sim),
            Err(ShardError::BadAssignment(_))
        ));
    }

    #[test]
    fn imbalanced_partition_terminates_and_makes_progress() {
        // One hot shard (a fast ticker spraying frames across a cut) next
        // to four completely idle shards: the window loop must neither
        // deadlock (idle shards contribute no horizon) nor livelock
        // (every window advances past at least one event), with every
        // window forced onto real OS threads. Forward progress is
        // asserted from the kernel self-profiler's dispatch counts and
        // the per-shard event tallies.
        let ticks = 2_000u32;
        let build = || {
            let mut sim = Simulator::new(9);
            sim.set_profile(true);
            let h = sim.add_node(
                "hot",
                Ticker {
                    period: SimTime::from_ns(10),
                    ticks_left: ticks,
                },
            );
            let r = sim.add_node("sink", Bouncer { hops_left: 0 });
            for i in 0..4 {
                sim.add_node(format!("idle{i}"), Bouncer { hops_left: 0 });
            }
            let cut = IdealLink::new(SimTime::from_ns(50));
            sim.install_link(h, PortId(0), r, PortId(0), Box::new(cut));
            sim.schedule_timer(SimTime::ZERO, h, TimerToken(1));
            sim
        };
        let deadline = SimTime::from_us(100);
        let mut serial = build();
        serial.run_until(deadline);
        let want = (serial.trace.digest(), serial.trace.recorded());

        let sim = build();
        let plan = ShardPlan::manual(vec![0, 1, 2, 3, 4, 5]);
        let mut sharded = ShardedSimulator::split(sim, &plan).expect("valid");
        sharded.set_parallel_threshold(0); // every window on real threads
        sharded.run_until(deadline);
        let stats = sharded.run_stats();
        assert!(stats.windows > 1, "hot shard must be window-bounded");
        let expected = u64::from(ticks) + 1; // timer dispatches (ticks_left hits 0 on the last)
        let merged = sharded.finish();
        let profile = merged.profile().expect("profiler was on");
        // `(node, shard, dispatches)`: every frame crossed, idle stays idle.
        let busy: Vec<(u32, u16, u64)> = profile
            .per_node
            .iter()
            .filter(|n| n.dispatches() > 0)
            .map(|n| (n.node, n.shard, n.dispatches()))
            .collect();
        assert_eq!(busy, [(0, 1, expected), (1, 2, expected)]);
        assert_eq!(
            profile.dispatches(),
            2 * expected,
            "profiler must account for every dispatch"
        );
        assert_eq!((merged.trace.digest(), merged.trace.recorded()), want);
    }

    /// Each tick builds two frames, loses the second to a dropping link
    /// and sends the first across the cut, then builds a third and
    /// carries it on a timer that sends it across after the other shard
    /// has drawn ids of its own: the first two are named mid-callback,
    /// the third only in a later block.
    struct ThreeFrames {
        ticks_left: u32,
    }

    impl Node for ThreeFrames {
        fn on_frame(&mut self, ctx: &mut Context<'_>, _: PortId, frame: Frame) {
            ctx.recycle(frame);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
            if let Some((port, frame)) = ctx.take_carried() {
                return ctx.send(port, frame);
            }
            let [first, second] = [1, 2].map(|tag| ctx.frame().zeroed(64).tag(tag).build());
            ctx.send(PortId(1), second);
            ctx.send(PortId(0), first);
            let third = ctx.frame().zeroed(64).tag(3).build();
            ctx.set_timer_carrying(SimTime::from_ns(70), TimerToken(2), PortId(0), third);
            if self.ticks_left > 0 {
                self.ticks_left -= 1;
                ctx.set_timer(SimTime::from_ns(100), timer);
            }
        }
    }

    /// Answers every frame with a frame of its own, so the other shard
    /// draws frame ids between the blocks of [`ThreeFrames`].
    struct Replier;

    impl Node for Replier {
        fn on_frame(&mut self, ctx: &mut Context<'_>, port: PortId, frame: Frame) {
            ctx.recycle(frame);
            let reply = ctx.frame().zeroed(32).build();
            ctx.send(port, reply);
        }
    }

    /// Drops every frame, without the kernel coin.
    struct BlackHole;

    impl Link for BlackHole {
        fn transmit(&mut self, _: SimTime, _: usize, _: f64) -> LinkOutcome {
            LinkOutcome::Drop(crate::link::DropReason::QueueOverflow)
        }
        fn propagation(&self) -> SimTime {
            SimTime::from_ns(1)
        }
    }

    #[test]
    fn frames_named_mid_callback_merge_like_serial() {
        let build = || {
            let mut sim = Simulator::new(4);
            let a = sim.add_node("a", ThreeFrames { ticks_left: 20 });
            let b = sim.add_node("b", Replier);
            let c = sim.add_node("c", Bouncer { hops_left: 0 });
            let cut = IdealLink::new(SimTime::from_ns(30));
            sim.install_link(a, PortId(0), b, PortId(0), Box::new(cut.clone()));
            sim.install_link(b, PortId(0), a, PortId(0), Box::new(cut));
            sim.install_link(a, PortId(1), c, PortId(0), Box::new(BlackHole));
            sim.schedule_timer(SimTime::ZERO, a, TimerToken(1));
            sim
        };
        let deadline = SimTime::from_us(3);
        let mut serial = build();
        serial.run_until(deadline);
        let want = (
            serial.trace.digest(),
            serial.trace.recorded(),
            serial.stats(),
        );
        assert_eq!(want.2.frames_dropped, 21, "one loss per tick");

        let plan = ShardPlan::manual(vec![0, 1, 0]);
        let mut sharded = ShardedSimulator::split(build(), &plan).expect("valid");
        sharded.run_until(deadline);
        assert_eq!(sharded.run_stats().cross_shard_frames, 4 * 21);
        let merged = sharded.finish();
        let got = (
            merged.trace.digest(),
            merged.trace.recorded(),
            merged.stats(),
        );
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "shard 2: provisional frame id 0x8002000000000001 (index 1)")]
    fn an_unmapped_provisional_id_names_its_shard_and_map() {
        ShardedSimulator::translate(&[7], prov_base(2) | 1, 2, "frame");
    }

    #[test]
    fn forced_threading_matches_inline_execution() {
        let deadline = SimTime::from_us(20);
        let want = serial_signature(SchedulerKind::BinaryHeap, deadline);
        let sim = build_line(SchedulerKind::BinaryHeap);
        let plan = ShardPlan::manual(vec![0, 0, 1, 1]);
        let mut sharded = ShardedSimulator::split(sim, &plan).expect("valid");
        sharded.set_parallel_threshold(0); // every window on real threads
        sharded.run_until(deadline);
        let merged = sharded.finish();
        assert_eq!(
            (
                merged.trace.digest(),
                merged.trace.recorded(),
                merged.stats()
            ),
            want
        );
    }
}
