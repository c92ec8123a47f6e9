//! # tn-trading — the trading-firm application tier
//!
//! The three functions a firm decomposes into (§2), each as a simulation
//! node, plus the supporting analyses:
//!
//! * [`normalizer`] — consumes an exchange's native feed (A/B arbitrated),
//!   produces the firm's normalized internal feed, re-partitioned.
//! * [`strategy`] — subscribes to normalized partitions, runs pluggable
//!   decision logic, and emits orders toward a gateway.
//! * [`gateway`] — translates internal orders into the exchange's
//!   order-entry protocol over the firm's sessions, and relays replies.
//! * [`filter`] — the §3 filtering-placement analysis: in-process versus
//!   dedicated-core versus middlebox, as a core-count model.
//! * [`risk`] — the §4.2 regulatory checks (locked/crossed market
//!   detection across exchanges).

pub mod filter;
pub mod gateway;
pub mod normalizer;
pub mod risk;
pub mod strategy;

pub use gateway::{Gateway, GatewayConfig};
pub use normalizer::{Normalizer, NormalizerConfig, OutputTransport};
pub use strategy::{CrossMarketArb, MomentumLogic, Strategy, StrategyConfig};
