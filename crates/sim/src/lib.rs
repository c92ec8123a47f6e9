//! # tn-sim — deterministic discrete-event simulation kernel
//!
//! The foundation for every model in the `trading-networks` workspace: a
//! single-threaded, deterministic discrete-event simulator with picosecond
//! time resolution.
//!
//! Trading networks are measured in nanoseconds (switch hops) down to
//! picoseconds (capture timestamps — the paper cites firms wanting <100 ps
//! precision), so [`SimTime`] counts integer picoseconds. A `u64` of
//! picoseconds spans ~213 days, far more than the one trading day any
//! scenario simulates.
//!
//! ## Model
//!
//! A simulation is a graph of [`Node`]s connected port-to-port by
//! [`Link`]s. Nodes receive [`Frame`]s and timer callbacks through the
//! [`Node`] trait and react by sending frames out of their own ports,
//! setting timers, or recording trace events via [`Context`].
//!
//! Links are owned by the kernel and model serialization (line rate),
//! propagation delay, egress queueing, and loss. The kernel is strictly
//! deterministic: events at equal timestamps are delivered in schedule
//! order, and all randomness flows from one seeded PRNG.
//!
//! ```
//! use tn_sim::{Simulator, Node, Context, Frame, PortId, SimTime, IdealLink};
//!
//! struct Echo;
//! impl Node for Echo {
//!     fn on_frame(&mut self, ctx: &mut Context<'_>, port: PortId, frame: Frame) {
//!         ctx.send(port, frame); // bounce it straight back
//!     }
//! }
//!
//! struct Counter(u32);
//! impl Node for Counter {
//!     fn on_frame(&mut self, _ctx: &mut Context<'_>, _port: PortId, _frame: Frame) {
//!         self.0 += 1;
//!     }
//! }
//!
//! let mut sim = Simulator::new(42);
//! let echo = sim.add_node("echo", Echo);
//! let counter = sim.add_node("counter", Counter(0));
//! sim.install_link(echo, PortId(0), counter, PortId(0), Box::new(IdealLink::new(SimTime::from_ns(10))));
//! sim.install_link(counter, PortId(0), echo, PortId(0), Box::new(IdealLink::new(SimTime::from_ns(10))));
//! let f = sim.frame().zeroed(64).build();
//! sim.inject_frame(SimTime::ZERO, counter, PortId(0), f);
//! sim.run();
//! ```

mod context;
mod frame;
mod hash;
mod kernel;
mod link;
mod node;
mod sched;
mod shard;
mod time;
mod trace;

pub use context::{Context, TimerToken};
pub use frame::{ArenaStats, Frame, FrameArena, FrameBuilder, FrameId, FrameMeta};
pub use hash::{FastHasher, FastMap, FastSet};
pub use kernel::{AnyNode, SimStats, Simulator};
pub use link::{DropReason, HopTiming, IdealLink, Link, LinkOutcome};
pub use node::{Node, NodeId, PortId};
pub use sched::{BinaryHeapScheduler, CalendarQueue, SchedStats, Scheduler, SchedulerKind};
pub use shard::{ShardError, ShardPlan, ShardRunStats, ShardedSimulator};
pub use time::SimTime;
pub use trace::{fnv1a_fold, fold_event, TraceEvent, TraceKind, TraceLog, EMPTY_DIGEST};

/// Re-export of the telemetry types the kernel integrates with (see
/// [`Simulator::set_provenance`] / [`Simulator::metrics_snapshot`] /
/// [`Simulator::set_flight_capacity`] / [`Simulator::set_profile`]), so
/// models can name them without depending on `tn-obs` directly.
pub use tn_obs::{
    Distribution, FlightKind, FlightRecord, FlightRecorder, HopSegment, KernelProfile,
    KernelProfiler, MetricsRegistry, NodeProfile, ObsConfig, Provenance, SegmentKind, Snapshot,
    SnapshotEntry, SnapshotValue,
};

/// The workspace's one JSON module, so every crate that writes or reads a
/// versioned document reaches it through the kernel it already depends on.
pub use tn_obs::json;

/// Re-export of the PRNG used throughout the workspace, so models can name
/// it without depending on `rand` directly.
pub use rand::rngs::SmallRng;
pub use rand::{Rng, SeedableRng};
