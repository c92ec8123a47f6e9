//! # tn-stats — measurement utilities
//!
//! Statistics primitives shared by the simulator and the experiment
//! harness: exact sample summaries (min/avg/median/percentiles, the
//! columns of Table 1), streaming histograms, and delivery-fairness
//! accounting (how far apart one event reaches its subscribers).
//!
//! Everything here operates on plain `u64`/`f64` values so the crate has
//! no dependencies; callers pick the unit (picoseconds, events, bytes).

mod fairness;
mod hist;
mod summary;

pub use fairness::FairnessWindow;
pub use hist::{Histogram, Percentile};
pub use summary::Summary;
