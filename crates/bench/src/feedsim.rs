//! Shared A/B feed-handler scenario (§2's arbitration, no network).
//!
//! `examples/feed_handler.rs` and tn-audit's `feed-handler` divergence
//! scenario run *exactly* this code, at 500 and 100 batches: a matching
//! engine's order flow is published as PITCH packets, each packet is
//! offered to one normalizer as an A copy and a B copy with independent
//! 2% loss, and the arbiter keeps the first copy of every sequence number.
//!
//! There is no kernel, so the signature is an FNV-1a fold of what the
//! pipeline produced: every published packet's bytes, then each
//! normalized record's kind and internal partition.

use tn_feed::normalize::{HashRepartition, NormalizerCore};
use tn_feed::ArbStats;
use tn_market::{
    FeedPublisher, FlowMix, MatchingEngine, OrderFlowGenerator, PartitionScheme, SymbolDirectory,
};
use tn_sim::{fnv1a_fold, Rng, SeedableRng, SmallRng, EMPTY_DIGEST};
use tn_wire::norm;

/// What one feed-handler run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedRun {
    /// Packets the publisher emitted.
    pub packets: usize,
    /// Arbitration counters after both copies of every packet.
    pub arb: ArbStats,
    /// Native messages the normalizer consumed.
    pub messages_in: u64,
    /// Normalized records emitted.
    pub records: u64,
    /// Of those, BBO updates.
    pub bbo: u64,
    /// FNV-1a fold of packet bytes and record kinds/partitions.
    pub digest: u64,
    /// Packets plus records folded into the digest.
    pub events: u64,
}

/// Publish `batches` 2 ms batches of 40 flow steps over 100 symbols
/// (seed 99), then feed every packet through A/B arbitration and
/// normalization.
pub fn run_feed(batches: u64) -> FeedRun {
    let dir = SymbolDirectory::synthetic(100);
    let mut engine = MatchingEngine::new(dir.instruments().iter().map(|i| i.symbol));
    let mut flow = OrderFlowGenerator::new(&dir, FlowMix::default());
    let mut publisher = FeedPublisher::new(PartitionScheme::ByHash { units: 4 }, 1400);
    let mut rng = SmallRng::seed_from_u64(99);

    let mut packets: Vec<Vec<u8>> = Vec::new();
    for batch in 0..batches {
        let mut msgs = Vec::new();
        for _ in 0..40 {
            msgs.extend(flow.step(&dir, &mut engine, &mut rng, (batch * 2_000_000) as u32));
        }
        let time_ns = 34_200_000_000_000 + batch * 2_000_000;
        for p in publisher.publish(&dir, time_ns, &msgs) {
            packets.push(p.bytes.to_vec());
        }
    }

    let mut normalizer = NormalizerCore::new(1, HashRepartition { partitions: 16 });
    normalizer.preload_symbols(dir.instruments().iter().map(|i| i.symbol));
    let (mut digest, mut records, mut bbo) = (EMPTY_DIGEST, 0u64, 0u64);
    for (i, pkt) in packets.iter().enumerate() {
        digest = fnv1a_fold(digest, pkt);
        let drop_a = rng.gen::<f64>() < 0.02;
        let drop_b = rng.gen::<f64>() < 0.02;
        let t = 34_200_000_000_000 + i as u64;
        for dropped in [drop_a, drop_b] {
            if dropped {
                continue;
            }
            for out in normalizer.on_packet(pkt, t).expect("valid packet") {
                digest = fnv1a_fold(digest, &[out.record.kind as u8]);
                digest = fnv1a_fold(digest, &out.partition.to_le_bytes());
                records += 1;
                if out.record.kind == norm::Kind::Bbo {
                    bbo += 1;
                }
            }
        }
    }
    FeedRun {
        packets: packets.len(),
        arb: normalizer.arbiter().stats(),
        messages_in: normalizer.stats().messages_in,
        records,
        bbo,
        digest,
        events: packets.len() as u64 + records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_examples_run_is_pinned() {
        // Recorded from `examples/feed_handler.rs` before its scenario
        // moved here: 500 batches, the same fold.
        let run = run_feed(500);
        assert_eq!((run.digest, run.events), (0xd261899e7878a5aa, 8_378));
        assert!(run.arb.duplicates > 0, "{run:?}");
    }
}
