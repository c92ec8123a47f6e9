//! # tn-market — exchange substrate and workload models
//!
//! Everything on the exchange side of the cross-connect, plus the
//! statistical workload models behind the paper's Figure 2 and Table 1:
//!
//! * [`book`] / [`engine`] — price-time-priority order books and a
//!   multi-symbol matching engine that consumes BOE-style order entry and
//!   produces PITCH-style market data.
//! * [`feedpub`] — packs engine events into sequenced multicast packets
//!   across feed units.
//! * [`partition`] / [`symbols`] — feed partitioning schemes (§2) over an
//!   interned symbol directory.
//! * [`flow`] — background order-flow generation with a realistic
//!   message-type mix.
//! * [`workload`] — the Figure 2 models: multi-year growth (2a), intraday
//!   per-second bursts (2b), and 100 µs microbursts (2c).
//! * [`profiles`] — per-exchange frame-length profiles calibrated to
//!   Table 1.
//! * [`exchange`] — the whole exchange as a pluggable simulation node.

pub mod book;
pub mod engine;
pub mod exchange;
pub mod feedpub;
pub mod flow;
pub mod partition;
pub mod profiles;
pub mod symbols;
pub mod workload;

pub use engine::{MatchingEngine, Owner};
pub use exchange::{Exchange, ExchangeConfig, TICK};
pub use feedpub::FeedPublisher;
pub use flow::{FlowMix, OrderFlowGenerator};
pub use partition::PartitionScheme;
pub use profiles::ExchangeProfile;
pub use symbols::SymbolDirectory;
pub use workload::{GrowthModel, IntradayModel, MicroburstModel};
