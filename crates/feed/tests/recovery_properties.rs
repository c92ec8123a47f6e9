//! Property tests on feed recovery: under arbitrary loss, duplication
//! and reordering, the arbiter delivers without duplicates and the
//! reorderer + retransmission server recover *everything* the history
//! still holds; the arbiter is the reorderer with nothing held; and
//! damaged packets are refused whole.

use proptest::prelude::*;

use tn_feed::normalize::HashRepartition;
use tn_feed::RetransmissionServer;
use tn_feed::{Arbiter, NormalizerCore, RecoveryClient, RecoveryConfig, Reorderer};
use tn_sim::SimTime;
use tn_wire::pitch::{self, Side};
use tn_wire::Symbol;

fn packet(unit: u8, first_seq: u32, n: u32) -> Vec<u8> {
    let mut pb = pitch::PacketBuilder::new(unit, first_seq, 1400);
    for i in 0..n {
        pb.push(&pitch::Message::DeleteOrder {
            offset_ns: i,
            order_id: u64::from(first_seq.wrapping_add(i)),
        });
    }
    pb.flush().expect("non-empty")
}

fn ids(msgs: &[pitch::Message]) -> Vec<u64> {
    msgs.iter().map(|m| m.order_id().unwrap()).collect()
}

/// A stream of packets with per-packet fates on two redundant paths.
#[derive(Debug, Clone)]
struct Fate {
    drop_a: bool,
    drop_b: bool,
    dup_a: bool,
}

fn arb_stream() -> impl Strategy<Value = (Vec<u32>, Vec<Fate>)> {
    // Packet sizes 1..=4 messages, 5..40 packets.
    proptest::collection::vec(
        (1u32..=4, any::<bool>(), any::<bool>(), any::<bool>()),
        5..40,
    )
    .prop_map(|v| {
        let sizes: Vec<u32> = v.iter().map(|(s, _, _, _)| *s).collect();
        let fates = v
            .into_iter()
            .map(|(_, drop_a, drop_b, dup_a)| Fate {
                drop_a,
                drop_b,
                dup_a,
            })
            .collect();
        (sizes, fates)
    })
}

/// One publication: its size, what each side does with it, and whether a
/// replay reaching `back` messages into already-published sequence space
/// follows it (as an overlapping retransmission would).
#[derive(Debug, Clone)]
struct Publication {
    size: u32,
    fate: Fate,
    b_lag: usize,
    replay_back: Option<u32>,
}

fn ab_streams() -> impl Strategy<Value = (u32, Vec<Publication>)> {
    let publication = (
        1u32..=4,
        (any::<bool>(), any::<bool>(), any::<bool>()),
        0usize..3,
        // One publication in five is followed by a replay.
        (0u32..30).prop_map(|v| (v < 6).then_some(v)),
    )
        .prop_map(
            |(size, (drop_a, drop_b, dup_a), b_lag, replay_back)| Publication {
                size,
                fate: Fate {
                    drop_a,
                    drop_b,
                    dup_a,
                },
                b_lag,
                replay_back,
            },
        );
    // Start at 1, or close enough to the top that the stream wraps.
    let start = prop_oneof![Just(1u32), (0u32..60).prop_map(|k| u32::MAX - k)];
    (start, proptest::collection::vec(publication, 5..60))
}

/// The `(first_seq, count)` of every packet a receiver is offered, in
/// arrival order: A copies at once, B copies `b_lag` publications later.
fn arrivals(start: u32, stream: &[Publication]) -> Vec<(u32, u32)> {
    let mut slots: Vec<Vec<(u32, u32)>> = vec![Vec::new(); stream.len() + 3];
    let mut seq = start;
    for (i, p) in stream.iter().enumerate() {
        if !p.fate.drop_a {
            let copies = if p.fate.dup_a { 2 } else { 1 };
            slots[i].extend(std::iter::repeat_n((seq, p.size), copies));
        }
        if let Some(back) = p.replay_back {
            slots[i].push((seq.wrapping_sub(back), back + p.size));
        }
        if !p.fate.drop_b {
            slots[i + p.b_lag].push((seq, p.size));
        }
        seq = seq.wrapping_add(p.size);
    }
    slots.concat()
}

/// A packet of `n` messages of every wire length the feed carries (long
/// and short adds, executions, deletes, trades), so truncations and bit
/// flips land in every kind of field.
fn mixed_packet(unit: u8, first_seq: u32, n: u32) -> Vec<u8> {
    let symbol = Symbol::new("SPY").unwrap();
    let mut pb = pitch::PacketBuilder::new(unit, first_seq, 1400);
    for i in 0..n {
        let order_id = u64::from(first_seq.wrapping_add(i));
        pb.push(&match i % 4 {
            0 => pitch::Message::AddOrder {
                offset_ns: i,
                order_id,
                side: Side::Buy,
                qty: 100,
                symbol,
                price: 450_0000 + u64::from(i),
            },
            1 => pitch::Message::AddOrder {
                offset_ns: i,
                order_id,
                side: Side::Sell,
                qty: 70_000, // long form
                symbol,
                price: 451_0000,
            },
            2 => pitch::Message::OrderExecuted {
                offset_ns: i,
                order_id: order_id.wrapping_sub(2),
                qty: 10,
                exec_id: u64::from(i),
            },
            _ => pitch::Message::DeleteOrder {
                offset_ns: i,
                order_id: order_id.wrapping_sub(2),
            },
        });
    }
    pb.flush().expect("non-empty")
}

/// How a valid packet is damaged on its way in.
#[derive(Debug, Clone)]
enum Damage {
    None,
    /// Keep only the first `keep` per mille of the bytes.
    Truncate(usize),
    /// Flip bit `bit` (modulo the packet's length in bits).
    Flip(usize),
}

fn damaged_arrivals() -> impl Strategy<Value = Vec<(u32, u32, Damage)>> {
    let damage = prop_oneof![
        Just(Damage::None),
        Just(Damage::None),
        (0usize..1000).prop_map(Damage::Truncate),
        (0usize..100_000).prop_map(Damage::Flip),
    ];
    // Mostly in order, with steps back (duplicates) and ahead (gaps), so
    // damage meets every arrival class and a non-empty hold.
    proptest::collection::vec((0u32..12, 1u32..=6, damage), 10..60)
}

fn damage(mut bytes: Vec<u8>, how: &Damage) -> Vec<u8> {
    match *how {
        Damage::None => {}
        Damage::Truncate(per_mille) => bytes.truncate(bytes.len() * per_mille / 1000),
        Damage::Flip(bit) => {
            let bit = bit % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }
    bytes
}

/// Everything a reorderer lets a caller see, for every unit a flipped
/// header could name.
fn reorderer_state(r: &Reorderer) -> impl PartialEq + std::fmt::Debug {
    let units: Vec<_> = (0..=u8::MAX)
        .map(|u| (r.expected_seq(u), r.gap_open(u), r.current_gap(u)))
        .collect();
    (r.stats(), r.held(), units)
}

fn arbiter_state(a: &Arbiter) -> impl PartialEq + std::fmt::Debug {
    let cursors: Vec<_> = (0..=u8::MAX).map(|u| a.expected_seq(u)).collect();
    (a.stats(), cursors)
}

proptest! {
    /// Arbitration is reordering with nothing held: on any A/B stream
    /// (loss on either side, duplicates, late B copies, overlapping
    /// replays, `u32` wrap) the arbiter and a zero-hold reorderer release
    /// the same messages packet for packet, and count the same gaps.
    #[test]
    fn arbiter_is_a_reorderer_that_holds_nothing((start, stream) in ab_streams()) {
        let mut arb = Arbiter::new();
        let mut ro = Reorderer::new(0);
        for (seq, count) in arrivals(start, &stream) {
            let p = packet(0, seq, count);
            let from_arb = arb.offer(&p).unwrap().map(ids).unwrap_or_default();
            let from_ro = ids(&ro.offer(&p).unwrap().messages);
            prop_assert_eq!(from_arb, from_ro, "at packet ({}, {})", seq, count);
            prop_assert_eq!(ro.held(), 0);
            prop_assert_eq!(arb.expected_seq(0), ro.expected_seq(0));
        }
        prop_assert_eq!(arb.stats().gap_events, ro.stats().requests);
        prop_assert_eq!(arb.stats().gap_messages, ro.stats().abandoned);
    }

    /// Hostile input: truncations and single bit flips of valid packets
    /// get `Ok` or `Err` from every stage, never a panic, and an `Err`
    /// leaves every cursor, hold, gap flag and counter as it was — a
    /// packet is validated when it is offered, so a damaged one that is
    /// held cannot fail later, at release.
    #[test]
    fn damaged_packets_are_refused_whole(arrivals in damaged_arrivals()) {
        let mut arb = Arbiter::new();
        let mut ro = Reorderer::new(64);
        let mut client = RecoveryClient::new(RecoveryConfig { max_held: 64, ..RecoveryConfig::default() });
        let mut core = NormalizerCore::new(1, HashRepartition { partitions: 8 });
        let mut seq = u32::MAX - 40; // the stream wraps part-way through
        for (step, (jump, count, how)) in arrivals.iter().enumerate() {
            // 0..=3 steps back into released ranges, 4 is in order, the
            // rest leave a hole.
            let first = seq.wrapping_add(*jump).wrapping_sub(4);
            let bytes = damage(mixed_packet(0, first, *count), how);
            let now = SimTime::from_us(step as u64);

            let before = arbiter_state(&arb);
            if arb.offer(&bytes).is_err() {
                prop_assert_eq!(before, arbiter_state(&arb));
            }
            let before = reorderer_state(&ro);
            if ro.offer(&bytes).is_err() {
                prop_assert_eq!(before, reorderer_state(&ro));
            }
            let before = (
                reorderer_state(client.reorderer()),
                client.open_gaps(),
                client.next_deadline(),
                client.abandoned_gaps(),
                client.fill_latencies_ps().len(),
            );
            if client.offer(now, &bytes).is_err() {
                let after = (
                    reorderer_state(client.reorderer()),
                    client.open_gaps(),
                    client.next_deadline(),
                    client.abandoned_gaps(),
                    client.fill_latencies_ps().len(),
                );
                prop_assert_eq!(before, after);
            }
            let before = (core.stats(), arbiter_state(core.arbiter()));
            if core.on_packet(&bytes, step as u64).is_err() {
                prop_assert_eq!(before, (core.stats(), arbiter_state(core.arbiter())));
            }
            if matches!(how, Damage::None) && *jump >= 4 {
                seq = first.wrapping_add(*count);
            }
        }
        // Whatever was held through all that still releases.
        client.poll(SimTime::from_secs(1));
    }

    /// A/B arbitration: regardless of which side drops or duplicates,
    /// every message that arrived on at least one side is delivered
    /// exactly once and in order (gaps only where both sides lost).
    #[test]
    fn arbiter_delivers_exactly_once((sizes, fates) in arb_stream()) {
        let mut arb = Arbiter::new();
        let mut delivered: Vec<u64> = Vec::new();
        let mut seq = 1u32;
        for (size, fate) in sizes.iter().zip(&fates) {
            let p = packet(0, seq, *size);
            // A side (possibly duplicated), then B side.
            for _ in 0..if fate.dup_a { 2 } else { 1 } {
                if !fate.drop_a {
                    if let Some(msgs) = arb.offer(&p).unwrap() {
                        delivered.extend(ids(msgs));
                    }
                }
            }
            if !fate.drop_b {
                if let Some(msgs) = arb.offer(&p).unwrap() {
                    delivered.extend(ids(msgs));
                }
            }
            seq += size;
        }
        // No duplicates, strictly increasing.
        for w in delivered.windows(2) {
            prop_assert!(w[0] < w[1], "out of order or duplicate: {delivered:?}");
        }
        // Every message from a packet that survived on either side is there.
        let mut expect_seq = 1u64;
        let mut survived: Vec<u64> = Vec::new();
        for (size, fate) in sizes.iter().zip(&fates) {
            if !(fate.drop_a && fate.drop_b) {
                // Only messages at/after the arbiter's cursor could be
                // delivered; earlier both-lost ranges are skipped forward.
                survived.extend(expect_seq..expect_seq + u64::from(*size));
            }
            expect_seq += u64::from(*size);
        }
        // Delivered is a suffix-filtered subset: everything delivered is
        // in survived, and anything in survived after the last both-lost
        // skip is delivered.
        for d in &delivered {
            prop_assert!(survived.contains(d));
        }
    }

    /// Reorderer + server: with a bounded number of single-path losses
    /// and an adequate history, recovery restores a complete, in-order
    /// stream with nothing abandoned.
    #[test]
    fn reorderer_recovers_everything(
        (sizes, fates) in arb_stream(),
    ) {
        let mut server = RetransmissionServer::new(1024, 1_000_000_000, 1_000_000);
        let mut rx = Reorderer::new(10_000);
        let mut delivered: Vec<u64> = Vec::new();
        let mut seq = 1u32;
        let mut total: u64 = 0;
        for (size, fate) in sizes.iter().zip(&fates) {
            let p = packet(0, seq, *size);
            server.store(&p).unwrap();
            total += u64::from(*size);
            // Single lossy path: drop when drop_a.
            if !fate.drop_a {
                let out = rx.offer(&p).unwrap();
                delivered.extend(ids(&out.messages));
                if let Some(req) = out.requests.first().copied() {
                    if let Ok(replays) = server.serve(SimTime::ZERO, &req) {
                        for r in replays {
                            let out = rx.offer(r).unwrap();
                            delivered.extend(ids(&out.messages));
                        }
                    }
                }
            }
            seq += size;
        }
        // Tail losses (no later packet to trigger a request) are the only
        // legitimate holes: delivered must be the exact prefix-complete,
        // in-order sequence from the first packet the path ever saw (the
        // reorderer anchors its cursor on first sight — losses before
        // that are invisible to it, as on a real late-joining receiver).
        for w in delivered.windows(2) {
            prop_assert_eq!(w[1], w[0] + 1, "hole or duplicate: {:?}", &delivered);
        }
        let mut first_seen: Option<u64> = None;
        let mut seq_walk = 1u64;
        for (size, fate) in sizes.iter().zip(&fates) {
            if !fate.drop_a {
                first_seen = Some(seq_walk);
                break;
            }
            seq_walk += u64::from(*size);
        }
        match (delivered.first(), first_seen) {
            (Some(&first), Some(anchor)) => prop_assert_eq!(first, anchor),
            (None, None) => {}
            (None, Some(_)) => {} // everything after the anchor also lost? impossible: the anchor packet itself arrived
            (Some(_), None) => prop_assert!(false, "delivered without arrivals"),
        }
        prop_assert_eq!(rx.stats().abandoned, 0);
        prop_assert!(delivered.len() as u64 <= total);
    }
}
