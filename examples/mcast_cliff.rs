//! The multicast table cliff (§3 "Multicast Trends"), live.
//!
//! ```sh
//! cargo run --example mcast_cliff
//! ```
//!
//! Joins an increasing number of multicast groups on a commodity switch
//! whose mroute table holds 64 entries, then blasts one packet per group
//! and reports delivery latency per group class. Groups that fit run in
//! hardware at 500 ns; overflow groups fall back to ~25 µs software
//! forwarding and drop heavily under load — "cripples performance and
//! induces heavy packet loss." The rig is `tn_bench::mcastsim`, which E7
//! and the divergence registry run too.

use tn_bench::mcastsim::{run_mroute, MrouteConfig};
use trading_networks::sim::SchedulerKind;

fn main() {
    let cfg = MrouteConfig::cliff(SchedulerKind::BinaryHeap);
    let run = run_mroute(&cfg);
    println!(
        "groups joined: {} in hardware, {} overflowed to software",
        run.hw_groups, run.sw_groups
    );

    let latencies = |in_table: bool| -> Vec<u64> {
        run.deliveries
            .iter()
            .filter(|(g, _)| ((*g as usize) < cfg.table) == in_table)
            .map(|(_, lat)| lat.as_ns())
            .collect()
    };
    let hw = latencies(true);
    let sw_lat = latencies(false);
    let overflow = cfg.groups - cfg.table;
    println!(
        "hardware groups: {}/{} delivered, first at {} ns",
        hw.len(),
        cfg.table,
        hw.first().copied().unwrap_or(0)
    );
    println!(
        "software groups: {}/{} delivered (queue depth {}), first at {} ns, last at {} ns",
        sw_lat.len(),
        overflow,
        cfg.sw_queue,
        sw_lat.first().copied().unwrap_or(0),
        sw_lat.last().copied().unwrap_or(0)
    );
    println!("drops at the software path: {}", run.sw_dropped);
    println!();
    println!(
        "the cliff: {}x latency and {:.0}% loss once the mroute table overflows",
        sw_lat.first().copied().unwrap_or(0) / hw.first().copied().unwrap_or(1).max(1),
        100.0 * run.sw_dropped as f64 / overflow as f64
    );
}
