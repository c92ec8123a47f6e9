//! # tn-netdev — device substrate
//!
//! Everything between the simulation kernel and the switches/applications:
//!
//! * [`links`] — Ethernet links with line-rate serialization, propagation
//!   delay, bounded egress queues, and MTU; metro fiber and microwave
//!   profiles (§2: firms run private WANs and use lossier-but-faster
//!   microwave links between colos).
//! * [`service`] — software-hop service-time modeling: a serialized
//!   processor with FIFO queueing, used by every application node.
//! * [`capture`] — optical-tap capture points with picosecond timestamps
//!   (§2: firms record traffic with sub-100 ps precision).
//! * [`clock`] — drifting host clocks with PTP-style resynchronization,
//!   for experiments that need imperfect timestamps.
//! * [`queues`] — a token bucket, the retransmission server's rate limit.

pub mod capture;
pub mod clock;
pub mod links;
pub mod queues;
pub mod service;

pub use capture::Tap;
pub use links::{fiber_propagation, microwave_propagation, EtherLink};
pub use service::TxQueue;
