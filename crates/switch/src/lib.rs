//! # tn-switch — switch models
//!
//! The three classes of forwarding device the paper's design space is
//! built from:
//!
//! * [`commodity`] — a merchant-silicon cut-through switch: ~500 ns
//!   port-to-port, L3 unicast with ECMP, IGMP-snooped multicast backed by
//!   a **finite mroute table** whose overflow falls back to software
//!   forwarding — the §3 failure mode ("cripples performance and induces
//!   heavy packet loss").
//! * [`l1s`] — a Layer-1 switch (Arista 7130-class): a circuit cross-
//!   connect that fans any input out to any output set in 5–6 ns and can
//!   merge inputs onto one output for +50 ns, but cannot classify or
//!   filter packets (§4.3).
//! * [`fpga`] — an FPGA-augmented L1 switch: ~100 ns latency with IP
//!   forwarding, multicast and filtering, but small tables (§5
//!   "Hardware").
//! * [`generations`] — parameter presets tracking §3's hardware-trend
//!   numbers across device generations.

pub mod commodity;
pub mod fpga;
pub mod generations;
pub mod l1s;

pub use commodity::{CommoditySwitch, McastOverflowPolicy, SwitchConfig};
pub use fpga::{FpgaConfig, FpgaL1Switch};
pub use generations::{host_generations, switch_generations};
