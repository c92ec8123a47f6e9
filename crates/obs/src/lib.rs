//! # tn-obs — deterministic telemetry
//!
//! The paper's central argument is that trading plants are *measured*
//! systems: operators decompose end-to-end latency hop by hop with optical
//! taps and hardware timestamps (§2). This crate is the simulator's
//! equivalent of that capture fabric:
//!
//! - [`Provenance`] — an optional per-frame record of contiguous
//!   `(node, port, kind, start, end)` segments accumulated by the kernel at
//!   every dispatch and link traversal, so a delivered frame decomposes
//!   into processing vs. queueing vs. serialization vs. propagation time.
//! - [`MetricsRegistry`] — counters and histograms keyed by
//!   `(scope, name, node)` in `BTreeMap`s (deterministic iteration),
//!   built at snapshot time. The simulator keeps no registry during a run:
//!   a snapshot is built fresh from plain counts — its per-reason link
//!   drops, per-node hop distributions and dispatch count rows, and the
//!   stats each device keeps.
//! - [`TraceWriter`] / [`parse`] / [`summarize()`] — the
//!   versioned `tn-trace/v1` JSONL span/event export and its summarizer.
//! - [`FlightRecorder`] — tn-flight: a bounded ring of the last N kernel
//!   events (fixed-size [`FlightRecord`]s), dumped on panic, divergence
//!   failure, or demand.
//! - [`KernelProfiler`] / [`KernelProfile`] — deterministic self-profiler:
//!   the profiler records the schedule stream (a bounded queue-depth time
//!   series); the profile adds per-node and per-kind dispatch counts,
//!   read from the kernel's count rows, and scheduler/arena statistics,
//!   reported through `DesignReport`.
//! - [`timeline`] — `tn-flight/v1` Chrome trace-event (Perfetto) export
//!   and folded-stacks rendering of provenance documents.
//! - [`json`] — the one JSON tree, renderer and parser every versioned
//!   `tn-*/v1` document in the workspace is written and read with.
//!
//! Everything here is pure side-state over plain integers (`u64`
//! picoseconds, `u32` node ids, `u16` ports): recording never draws
//! randomness, never schedules events, and never touches wall-clock time,
//! so enabling full telemetry leaves run digests bit-for-bit identical —
//! an invariant `tn-audit divergence` pins against golden digests.

mod config;
mod flight;
pub mod json;
mod profile;
mod provenance;
mod registry;
mod summarize;
pub mod timeline;
pub mod trace;

pub use config::ObsConfig;
pub use flight::{FlightKind, FlightRecord, FlightRecorder};
pub use profile::{KernelProfile, KernelProfiler, NodeProfile};
pub use provenance::{Provenance, SegmentKind};
pub use registry::{Distribution, MetricsRegistry, Snapshot, SnapshotValue};
pub use summarize::summarize;
pub use timeline::{chrome_trace, folded_stacks, FLIGHT_SCHEMA};
pub use trace::{parse, TraceWriter};
