//! # tn-benchmark — one benchmark for the trading-networks simulator
//!
//! Six workloads, each one public entry point of the simulator run in a
//! closed loop on one thread; eight end-to-end metrics measured with
//! every observability switch off; and a separate traced run whose layer
//! rigs time calls into each crate's public functions. `BENCHMARK.json`
//! at the repository root is the contract; `README.md` beside this crate
//! is the glossary.

pub mod catalog;
pub mod driver;
pub mod measure;
pub mod rigs;
pub mod swarm;
pub mod trace;
pub mod traced;
pub mod workloads;
