//! # tn-core — the trading-network design space
//!
//! The paper's contribution, as an executable API: a common scenario (an
//! exchange, a firm's normalizer/strategy/gateway tier, a workload) that
//! runs unchanged over each of the three §4 network designs, producing
//! comparable latency/loss/capacity reports.
//!
//! ```no_run
//! use tn_core::{ScenarioConfig, TradingNetworkDesign};
//! use tn_core::design::{LayerOneSwitches, TraditionalSwitches};
//!
//! let scenario = ScenarioConfig::small(42);
//! let d1 = TraditionalSwitches::default().run(&scenario);
//! let d3 = LayerOneSwitches::default().run(&scenario);
//! println!("{}", d1.summary());
//! println!("{}", d3.summary());
//! assert!(d3.reaction.median < d1.reaction.median);
//! ```

pub mod design;
pub mod report;
pub mod scenario;

pub use design::{
    CloudDesign, FpgaHybrid, LayerOneSwitches, TradingNetworkDesign, TraditionalSwitches,
};
pub use report::{DesignReport, LatencyStats, Telemetry};
pub use scenario::ScenarioConfig;
