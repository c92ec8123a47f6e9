//! # tn-topo — network designs for trading systems
//!
//! Builders for the three §4 designs plus the metro-region substrate:
//!
//! * [`leafspine`] — Design 1: commodity leaf-and-spine with a dedicated
//!   exchange ToR, L3 unicast with ECMP, and rendezvous-rooted multicast.
//! * [`cloud`] — Design 2: a latency-equalized provider fabric.
//! * [`l1fabric`] — Design 3: four Layer-1 circuit networks
//!   (exchange→normalizers, normalizers→strategies, strategies→gateways,
//!   gateways→exchange) with per-strategy merge stages.
//! * [`metro`] — co-location facilities tens of miles apart connected by
//!   fiber or microwave (§2's metropolitan region).
//! * [`placement`] — rack-placement optimization: the §4.1 grouped
//!   baseline versus a latency-aware greedy packer (§5 "Cluster
//!   Management").

pub mod cloud;
pub mod l1fabric;
pub mod leafspine;
pub mod metro;
pub mod placement;

pub use cloud::{CloudConfig, CloudFabric, CloudFairnessSpec, CloudOverlayFeed};
pub use l1fabric::{L1FabricConfig, L1TradingFabric};
pub use leafspine::{LeafSpine, LeafSpineConfig};
