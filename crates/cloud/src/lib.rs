//! # tn-cloud
//!
//! The mechanisms a cloud exchange actually needs to be *fair*, built as
//! deterministic [`tn_sim::Node`] types.
//!
//! The paper's §4.2 cloud verdict rests on one constant: a provider
//! fabric whose tenant-to-tenant latency is "equalized". Public cloud
//! exchange designs (CloudEx-style hold-and-release sequencing, delay
//! equalization, software multicast over unicast VM links) show what that
//! constant hides — every fairness property must be *manufactured* from
//! jittery unicast parts, and each mechanism charges latency for the
//! fairness it buys. This crate models the three standard parts:
//!
//! - [`HoldReleaseSequencer`] — stamps inbound orders against a bounded
//!   clock-sync error and releases them in stamped order after a hold
//!   window. Fair ordering costs the hold window on the order path.
//! - [`DelayEqualizer`] — pads each feed delivery toward a release
//!   ceiling measured from the frame's birth, so every subscriber sees
//!   the event at the same simulated instant (up to a residual error).
//!   Fair delivery costs `ceiling − nominal_path` of added latency.
//! - `OverlayRelay` / [`OverlayTree`] — fan-out-`k` software relays
//!   over unicast VM links, replacing provider "free multicast". Scale
//!   costs tree depth × VM hop latency plus per-copy serialization.
//!
//! All three are digest-disciplined: their randomness (clock error,
//! residual jitter) comes from node-owned [`tn_sim::SmallRng`] streams,
//! never the kernel coin, and zero-knob configurations are
//! latency-transparent. [`harness`] packages a source → fabric →
//! subscriber microbench that charts the fairness/latency frontier for
//! cloud vs leaf-spine vs L1 fan-out.

pub mod equalizer;
pub mod harness;
pub mod overlay;
pub mod sequencer;

pub use equalizer::{DelayEqualizer, EqualizerConfig};
pub use harness::{run_fairness, DesignKind, FairnessScenario};
pub use overlay::{OverlayTree, OverlayTreeConfig};
pub use sequencer::{HoldReleaseSequencer, SequencerConfig};
