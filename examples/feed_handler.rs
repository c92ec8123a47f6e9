//! Feed handler: consume a raw PITCH-like A/B feed, arbitrate, build
//! books, and normalize — the §2 pipeline in isolation, without a
//! network simulation.
//!
//! ```sh
//! cargo run --example feed_handler
//! ```
//!
//! Generates one second of bursty feed traffic with the matching engine,
//! duplicates it into A/B copies with independent loss, and shows the
//! arbiter recovering from single-side loss while counting the gaps that
//! hit both sides.

use trading_networks::feed::normalize::{HashRepartition, NormalizerCore};
use trading_networks::market::{FeedPublisher, PartitionScheme};
use trading_networks::market::{FlowMix, MatchingEngine, OrderFlowGenerator, SymbolDirectory};
use trading_networks::sim::{Rng, SeedableRng, SmallRng};
use trading_networks::wire::norm;

fn main() {
    let dir = SymbolDirectory::synthetic(100);
    let mut engine = MatchingEngine::new(dir.instruments().iter().map(|i| i.symbol));
    let mut flow = OrderFlowGenerator::new(&dir, FlowMix::default());
    let mut publisher = FeedPublisher::new(PartitionScheme::ByHash { units: 4 }, 1400);
    let mut rng = SmallRng::seed_from_u64(99);

    // One simulated second at ~20k events/s, published in 2 ms batches.
    let mut packets: Vec<Vec<u8>> = Vec::new();
    for batch in 0..500u64 {
        let mut msgs = Vec::new();
        for _ in 0..40 {
            msgs.extend(flow.step(&dir, &mut engine, &mut rng, (batch * 2_000_000) as u32));
        }
        let time_ns = 34_200_000_000_000 + batch * 2_000_000;
        for p in publisher.publish(&dir, time_ns, &msgs) {
            packets.push(p.bytes.to_vec());
        }
    }
    println!("generated {} feed packets", packets.len());

    // A/B copies with independent 2% loss — far worse than any real
    // fiber pair, to make arbitration visible.
    let mut normalizer = NormalizerCore::new(1, HashRepartition { partitions: 16 });
    normalizer.preload_symbols(dir.instruments().iter().map(|i| i.symbol));
    let mut records = 0usize;
    let mut bbo = 0usize;
    for (i, pkt) in packets.iter().enumerate() {
        let drop_a = rng.gen::<f64>() < 0.02;
        let drop_b = rng.gen::<f64>() < 0.02;
        let t = 34_200_000_000_000 + i as u64;
        if !drop_a {
            for out in normalizer.on_packet(pkt, t).expect("valid packet") {
                records += 1;
                if out.record.kind == norm::Kind::Bbo {
                    bbo += 1;
                }
            }
        }
        if !drop_b {
            for out in normalizer.on_packet(pkt, t).expect("valid packet") {
                records += 1;
                if out.record.kind == norm::Kind::Bbo {
                    bbo += 1;
                }
            }
        }
    }

    let arb = normalizer.arbiter().stats();
    let stats = normalizer.stats();
    println!(
        "arbitration: accepted={} duplicates={} gaps={} (in {} gap events)",
        arb.accepted, arb.duplicates, arb.gap_messages, arb.gap_events
    );
    println!(
        "normalized:  {} native messages -> {} records ({} BBO updates)",
        stats.messages_in, records, bbo
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
