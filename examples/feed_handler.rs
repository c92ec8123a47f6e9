//! Feed handler: consume a raw PITCH-like A/B feed, arbitrate, build
//! books, and normalize — the §2 pipeline in isolation, without a
//! network simulation.
//!
//! ```sh
//! cargo run --example feed_handler
//! ```
//!
//! Generates one second of bursty feed traffic with the matching engine
//! (~20k events/s, published in 2 ms batches), duplicates it into A/B
//! copies with independent 2% loss — far worse than any real fiber pair,
//! to make arbitration visible — and shows the arbiter recovering from
//! single-side loss while counting the gaps that hit both sides. The
//! scenario is `tn_bench::feedsim`, which the divergence registry runs
//! too.

use tn_bench::feedsim::run_feed;

fn main() {
    let run = run_feed(500);
    let arb = run.arb;
    println!("generated {} feed packets", run.packets);
    println!(
        "arbitration: accepted={} duplicates={} gaps={} (in {} gap events)",
        arb.accepted, arb.duplicates, arb.gap_messages, arb.gap_events
    );
    println!(
        "normalized:  {} native messages -> {} records ({} BBO updates)",
        run.messages_in, run.records, run.bbo
    );
    println!(
        "loss handling: both-sides loss probability 0.02^2 = 0.04% of packets -> {} gap events",
        arb.gap_events
    );
    assert!(
        arb.duplicates > 0,
        "B side should have been mostly redundant"
    );
}
