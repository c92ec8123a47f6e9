//! Property-based tests: every codec must roundtrip arbitrary valid
//! values, and parsers must never panic on arbitrary bytes.

use proptest::prelude::*;
use proptest::TestCaseError;

use tn_wire::pitch::{self, Side};
use tn_wire::{boe, eth, igmp, ipv4, l1t, norm, stack, tcp, udp, Symbol};

/// Assert a writer-style emitter appends exactly `built` to `out` while
/// leaving whatever `out` already held untouched.
fn assert_appends(
    prefix: &[u8],
    built: &[u8],
    emit: impl FnOnce(&mut Vec<u8>),
) -> Result<(), TestCaseError> {
    let mut out = prefix.to_vec();
    emit(&mut out);
    prop_assert_eq!(&out[..prefix.len()], prefix, "prefix clobbered");
    prop_assert_eq!(
        &out[prefix.len()..],
        built,
        "appended bytes diverge from build()"
    );
    Ok(())
}

fn arb_symbol() -> impl Strategy<Value = Symbol> {
    proptest::string::string_regex("[A-Z]{1,6}")
        .unwrap()
        .prop_map(|s| Symbol::new(&s).unwrap())
}

fn arb_side() -> impl Strategy<Value = Side> {
    prop_oneof![Just(Side::Buy), Just(Side::Sell)]
}

fn arb_pitch_message() -> impl Strategy<Value = pitch::Message> {
    prop_oneof![
        any::<u32>().prop_map(|seconds| pitch::Message::Time { seconds }),
        (
            any::<u32>(),
            any::<u64>(),
            arb_side(),
            any::<u32>(),
            arb_symbol(),
            0u64..100_000_000
        )
            .prop_map(|(offset_ns, order_id, side, qty, symbol, price)| {
                pitch::Message::AddOrder {
                    offset_ns,
                    order_id,
                    side,
                    qty,
                    symbol,
                    price,
                }
            }),
        (any::<u32>(), any::<u64>(), any::<u32>(), any::<u64>()).prop_map(
            |(offset_ns, order_id, qty, exec_id)| pitch::Message::OrderExecuted {
                offset_ns,
                order_id,
                qty,
                exec_id
            }
        ),
        (any::<u32>(), any::<u64>(), any::<u32>()).prop_map(|(offset_ns, order_id, qty)| {
            pitch::Message::ReduceSize {
                offset_ns,
                order_id,
                qty,
            }
        }),
        (any::<u32>(), any::<u64>(), any::<u32>(), 0u64..100_000_000).prop_map(
            |(offset_ns, order_id, qty, price)| pitch::Message::ModifyOrder {
                offset_ns,
                order_id,
                qty,
                price
            }
        ),
        (any::<u32>(), any::<u64>()).prop_map(|(offset_ns, order_id)| {
            pitch::Message::DeleteOrder {
                offset_ns,
                order_id,
            }
        }),
        (
            any::<u32>(),
            any::<u64>(),
            arb_side(),
            any::<u32>(),
            arb_symbol(),
            0u64..100_000_000,
            any::<u64>()
        )
            .prop_map(|(offset_ns, order_id, side, qty, symbol, price, exec_id)| {
                pitch::Message::Trade {
                    offset_ns,
                    order_id,
                    side,
                    qty,
                    symbol,
                    price,
                    exec_id,
                }
            }),
        (
            any::<u32>(),
            arb_symbol(),
            prop_oneof![Just(b'T'), Just(b'H')]
        )
            .prop_map(
                |(offset_ns, symbol, status)| pitch::Message::TradingStatus {
                    offset_ns,
                    symbol,
                    status
                }
            ),
    ]
}

fn arb_boe_message() -> impl Strategy<Value = boe::Message> {
    prop_oneof![
        (any::<u32>(), any::<u64>())
            .prop_map(|(session, token)| boe::Message::Login { session, token }),
        Just(boe::Message::Heartbeat),
        (
            any::<u64>(),
            arb_side(),
            any::<u32>(),
            arb_symbol(),
            any::<u64>()
        )
            .prop_map(
                |(cl_ord_id, side, qty, symbol, price)| boe::Message::NewOrder {
                    cl_ord_id,
                    side,
                    qty,
                    symbol,
                    price
                }
            ),
        any::<u64>().prop_map(|cl_ord_id| boe::Message::CancelOrder { cl_ord_id }),
        (any::<u64>(), any::<u32>(), any::<u64>()).prop_map(|(cl_ord_id, qty, price)| {
            boe::Message::ModifyOrder {
                cl_ord_id,
                qty,
                price,
            }
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(cl_ord_id, exch_ord_id)| {
            boe::Message::OrderAck {
                cl_ord_id,
                exch_ord_id,
            }
        }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            any::<u32>()
        )
            .prop_map(
                |(cl_ord_id, exec_id, qty, price, leaves)| boe::Message::Fill {
                    cl_ord_id,
                    exec_id,
                    qty,
                    price,
                    leaves
                }
            ),
        any::<u64>().prop_map(|cl_ord_id| boe::Message::CancelAck { cl_ord_id }),
    ]
}

/// Run every decoder the totality properties cover over `bytes`, and
/// every accessor of what each accepts. Results are dropped: only a
/// panic fails.
fn decode_all(bytes: &[u8]) {
    let _ = norm::Record::parse(bytes);
    if let Ok(p) = norm::Packet::new_checked(bytes) {
        let _ = (p.count(), p.partition(), p.sequence());
        p.records().for_each(drop);
    }
    if let Ok(f) = l1t::Frame::new_checked(bytes) {
        let _ = (f.len_field(), f.stream(), f.seq(), f.payload());
    }
    let _ = igmp::Message::parse(bytes);
    let _ = stack::parse_tcp(bytes);
}

/// [`decode_all`] over every truncation of a valid `frame` and every
/// copy of it with one bit flipped.
fn decode_damaged(frame: &[u8]) {
    for len in 0..frame.len() {
        decode_all(&frame[..len]);
    }
    let mut flipped = frame.to_vec();
    for bit in 0..frame.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        decode_all(&flipped);
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}

fn arb_norm_record() -> impl Strategy<Value = norm::Record> {
    (
        (1u8..=4, any::<u8>(), any::<u8>(), any::<u32>()),
        (any::<i64>(), any::<u32>(), any::<u32>(), any::<u64>()),
    )
        .prop_map(
            |((kind, exchange, side, symbol_id), (price, size, aux, src_time_ns))| norm::Record {
                kind: match kind {
                    1 => norm::Kind::Bbo,
                    2 => norm::Kind::Trade,
                    3 => norm::Kind::Status,
                    _ => norm::Kind::BookDelta,
                },
                exchange,
                side,
                flags: 0,
                symbol_id,
                price,
                size,
                aux,
                src_time_ns,
            },
        )
}

proptest! {
    #[test]
    fn pitch_message_roundtrip(msg in arb_pitch_message()) {
        let mut buf = Vec::new();
        msg.emit(&mut buf);
        prop_assert_eq!(buf.len(), msg.wire_len());
        let (parsed, used) = pitch::Message::parse(&buf).unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(parsed, msg);
    }

    #[test]
    fn pitch_packet_roundtrip(msgs in proptest::collection::vec(arb_pitch_message(), 1..40),
                              unit in any::<u8>(), first_seq in any::<u32>()) {
        let mut pb = pitch::PacketBuilder::new(unit, first_seq, 1400);
        let mut packets = Vec::new();
        for m in &msgs {
            if let Some(p) = pb.push(m) {
                packets.push(p);
            }
        }
        packets.extend(pb.flush());
        let mut decoded = Vec::new();
        let mut seq = first_seq;
        for p in &packets {
            let pkt = pitch::Packet::new_checked(&p[..]).unwrap();
            prop_assert_eq!(pkt.unit(), unit);
            prop_assert_eq!(pkt.sequence(), seq);
            seq = seq.wrapping_add(u32::from(pkt.count()));
            for m in pkt.messages() {
                decoded.push(m.unwrap());
            }
        }
        prop_assert_eq!(decoded, msgs);
    }

    #[test]
    fn pitch_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = pitch::Message::parse(&bytes);
        if let Ok(pkt) = pitch::Packet::new_checked(&bytes[..]) {
            for m in pkt.messages() {
                let _ = m;
            }
        }
    }

    #[test]
    fn boe_message_roundtrip(msg in arb_boe_message(), seq in any::<u32>()) {
        let mut buf = Vec::new();
        msg.emit(seq, &mut buf);
        prop_assert_eq!(buf.len(), msg.wire_len());
        let (parsed, got_seq, used) = boe::Message::parse(&buf).unwrap();
        prop_assert_eq!(parsed, msg);
        prop_assert_eq!(got_seq, seq);
        prop_assert_eq!(used, buf.len());
    }

    #[test]
    fn boe_decoder_handles_any_segmentation(
        msgs in proptest::collection::vec(arb_boe_message(), 1..20),
        cut in 1usize..17,
    ) {
        let mut stream = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            m.emit(i as u32, &mut stream);
        }
        let mut dec = boe::Decoder::new();
        let mut out = Vec::new();
        for chunk in stream.chunks(cut) {
            dec.push(chunk);
            while let Some((m, _)) = dec.next_message().unwrap() {
                out.push(m);
            }
        }
        prop_assert_eq!(out, msgs);
    }

    #[test]
    fn boe_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = boe::Message::parse(&bytes);
    }

    #[test]
    fn norm_record_roundtrip(
        kind in 1u8..=4, exchange in any::<u8>(), side in any::<u8>(),
        symbol_id in any::<u32>(), price in any::<i64>(), size in any::<u32>(),
        aux in any::<u32>(), src_time_ns in any::<u64>(),
    ) {
        let kind = match kind {
            1 => norm::Kind::Bbo,
            2 => norm::Kind::Trade,
            3 => norm::Kind::Status,
            _ => norm::Kind::BookDelta,
        };
        let r = norm::Record {
            kind, exchange, side, flags: 0, symbol_id, price, size, aux, src_time_ns,
        };
        let mut buf = Vec::new();
        r.emit(&mut buf);
        prop_assert_eq!(norm::Record::parse(&buf).unwrap(), r);
    }

    #[test]
    fn l1t_roundtrip(stream in any::<u16>(), seq in any::<u32>(),
                     payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let buf = l1t::build(stream, seq, &payload);
        let f = l1t::Frame::new_checked(&buf[..]).unwrap();
        prop_assert_eq!(f.stream(), stream);
        prop_assert_eq!(f.seq(), seq);
        prop_assert_eq!(f.payload(), &payload[..]);
    }

    #[test]
    fn udp_stack_roundtrip(
        src in any::<u32>(), group in 0u32..1_000_000,
        src_port in any::<u16>(), dst_port in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1400),
    ) {
        let src_ip = ipv4::Addr::host(src);
        let dst_ip = ipv4::Addr::multicast_group(group);
        let frame = stack::build_udp(
            tn_wire::eth::MacAddr::host(src), None, src_ip, dst_ip, src_port, dst_port, &payload,
        );
        let v = stack::parse_udp(&frame).unwrap();
        prop_assert_eq!(v.src_ip, src_ip);
        prop_assert_eq!(v.dst_ip, dst_ip);
        prop_assert_eq!(v.src_port, src_port);
        prop_assert_eq!(v.dst_port, dst_port);
        prop_assert_eq!(v.payload, &payload[..]);
        // UDP checksum over the real pseudo-header must verify.
        let d = udp::Datagram::new_checked(
            &frame[stack::UDP_OVERHEAD - udp::HEADER_LEN..],
        ).unwrap();
        prop_assert!(d.verify_checksum(src_ip, dst_ip));
    }

    #[test]
    fn tcp_stack_roundtrip(
        seq in any::<u32>(), ack in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let a = ipv4::Addr::host(1);
        let b = ipv4::Addr::host(2);
        let frame = stack::build_tcp(
            tn_wire::eth::MacAddr::host(1), tn_wire::eth::MacAddr::host(2),
            a, b, 100, 200, seq, ack, tcp::Flags::ACK, &payload,
        );
        let v = stack::parse_tcp(&frame).unwrap();
        prop_assert_eq!(v.seq, seq);
        prop_assert_eq!(v.ack, ack);
        prop_assert_eq!(v.payload, &payload[..]);
    }

    #[test]
    fn stack_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = stack::parse_udp(&bytes);
        let _ = stack::parse_tcp(&bytes);
    }

    /// Every writer-style emitter appends the exact bytes its allocating
    /// counterpart returns — byte-for-byte, at any starting offset.
    #[test]
    fn emit_into_matches_build_at_every_layer(
        prefix in proptest::collection::vec(any::<u8>(), 0..32),
        payload in proptest::collection::vec(any::<u8>(), 0..600),
        src in any::<u32>(), group in 0u32..1_000_000,
        src_port in any::<u16>(), dst_port in any::<u16>(),
        seq in any::<u32>(), ack in any::<u32>(),
        stream in any::<u16>(), unit in any::<u8>(), count in any::<u16>(),
    ) {
        let src_ip = ipv4::Addr::host(src);
        let mc_ip = ipv4::Addr::multicast_group(group);
        let dst_ip = ipv4::Addr::host(src.wrapping_add(1));
        let src_mac = eth::MacAddr::host(src);
        let dst_mac = eth::MacAddr::host(src.wrapping_add(1));

        assert_appends(
            &prefix,
            &eth::build(dst_mac, src_mac, eth::EtherType::Ipv4, &payload),
            |o| eth::emit_into(dst_mac, src_mac, eth::EtherType::Ipv4, &payload, o),
        )?;
        assert_appends(
            &prefix,
            &ipv4::build(src_ip, mc_ip, ipv4::PROTO_UDP, &payload),
            |o| ipv4::emit_into(src_ip, mc_ip, ipv4::PROTO_UDP, &payload, o),
        )?;
        assert_appends(
            &prefix,
            &udp::build(src_ip, mc_ip, src_port, dst_port, &payload),
            |o| udp::emit_into(src_ip, mc_ip, src_port, dst_port, &payload, o),
        )?;
        assert_appends(
            &prefix,
            &tcp::build(src_ip, dst_ip, src_port, dst_port, seq, ack, tcp::Flags::ACK, &payload),
            |o| tcp::emit_into(
                src_ip, dst_ip, src_port, dst_port, seq, ack, tcp::Flags::ACK, &payload, o,
            ),
        )?;
        assert_appends(&prefix, &l1t::build(stream, seq, &payload), |o| {
            l1t::emit_into(stream, seq, &payload, o)
        })?;
        assert_appends(
            &prefix,
            &stack::build_udp(src_mac, None, src_ip, mc_ip, src_port, dst_port, &payload),
            |o| stack::emit_udp_into(src_mac, None, src_ip, mc_ip, src_port, dst_port, &payload, o),
        )?;
        assert_appends(
            &prefix,
            &stack::build_tcp(
                src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, seq, ack,
                tcp::Flags::ACK, &payload,
            ),
            |o| stack::emit_tcp_into(
                src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, seq, ack,
                tcp::Flags::ACK, &payload, o,
            ),
        )?;
        let join = igmp::Message { kind: igmp::MessageType::Report, group: mc_ip };
        assert_appends(&prefix, &join.emit(), |o| join.emit_into(o))?;
        let gap = pitch::GapRequest { unit, seq, count };
        assert_appends(&prefix, &gap.emit(), |o| gap.emit_into(o))?;
    }

    /// The writer-style PITCH packer produces the identical packet stream
    /// the allocating packer does, sealed packet for sealed packet.
    #[test]
    fn pitch_push_into_streams_identical_bytes(
        msgs in proptest::collection::vec(arb_pitch_message(), 1..60),
        unit in any::<u8>(), first_seq in any::<u32>(),
    ) {
        let mut alloc = pitch::PacketBuilder::new(unit, first_seq, 200);
        let mut expect = Vec::new();
        for m in &msgs {
            if let Some(p) = alloc.push(m) {
                expect.extend_from_slice(&p);
            }
        }
        if let Some(p) = alloc.flush() {
            expect.extend_from_slice(&p);
        }
        let mut writer = pitch::PacketBuilder::new(unit, first_seq, 200);
        let mut got = Vec::new();
        for m in &msgs {
            writer.push_into(m, &mut got);
        }
        writer.flush_into(&mut got);
        prop_assert_eq!(got, expect);
        prop_assert_eq!(writer.next_seq(), alloc.next_seq());
    }

    /// Same equivalence for the normalized-feed packer.
    #[test]
    fn norm_push_into_streams_identical_bytes(
        recs in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), any::<i64>(), any::<u32>(), any::<u64>()),
            1..60,
        ),
        partition in any::<u16>(), first_seq in any::<u32>(),
    ) {
        let recs: Vec<norm::Record> = recs
            .iter()
            .map(|&(side, symbol_id, price, size, src_time_ns)| norm::Record {
                kind: norm::Kind::Bbo,
                exchange: 1,
                side,
                flags: 0,
                symbol_id,
                price,
                size,
                aux: 0,
                src_time_ns,
            })
            .collect();
        let mut alloc = norm::PacketBuilder::new(partition, first_seq, 128);
        let mut expect = Vec::new();
        for r in &recs {
            if let Some(p) = alloc.push(r) {
                expect.extend_from_slice(&p);
            }
        }
        if let Some(p) = alloc.flush() {
            expect.extend_from_slice(&p);
        }
        let mut writer = norm::PacketBuilder::new(partition, first_seq, 128);
        let mut got = Vec::new();
        for r in &recs {
            writer.push_into(r, &mut got);
        }
        writer.flush_into(&mut got);
        prop_assert_eq!(got, expect);
        prop_assert_eq!(writer.next_seq(), alloc.next_seq());
    }

    /// Whatever the budget, no sealed packet exceeds it, and every
    /// record pushed comes out in exactly one packet.
    #[test]
    fn norm_packets_fit_their_budget(
        max_payload in norm::PACKET_HEADER_LEN + norm::RECORD_LEN..10_000usize,
        n in 1usize..600,
    ) {
        let rec = norm::Record {
            kind: norm::Kind::Trade,
            exchange: 1,
            side: 0,
            flags: 0,
            symbol_id: 7,
            price: 100,
            size: 5,
            aux: 0,
            src_time_ns: 0,
        };
        let mut pb = norm::PacketBuilder::new(3, 0, max_payload);
        let mut packets: Vec<Vec<u8>> = (0..n).filter_map(|_| pb.push(&rec)).collect();
        packets.extend(pb.flush());
        for p in &packets {
            prop_assert!(p.len() <= max_payload, "{} > {}", p.len(), max_payload);
        }
        let bytes: usize = packets.iter().map(Vec::len).sum();
        prop_assert_eq!(bytes, packets.len() * norm::PACKET_HEADER_LEN + n * norm::RECORD_LEN);
    }

    /// The decoders without a never-panics property of their own take
    /// arbitrary bytes without panicking.
    #[test]
    fn decoders_are_total_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        decode_all(&bytes);
    }

    /// ... and every truncation and single-bit flip of a valid frame of
    /// each kind: a normalized packet, an L1-transport frame, an IGMP
    /// message and a TCP frame.
    #[test]
    fn decoders_are_total_on_damaged_frames(
        recs in proptest::collection::vec(arb_norm_record(), 1..6),
        partition in any::<u16>(), seq in any::<u32>(), stream in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        group in 0u32..1_000_000, ack in any::<u32>(),
    ) {
        let mut pb = norm::PacketBuilder::new(partition, seq, 1_400);
        let mut norm_packet = Vec::new();
        for r in &recs {
            prop_assert!(!pb.push_into(r, &mut norm_packet), "a small packet never seals");
        }
        prop_assert!(pb.flush_into(&mut norm_packet));
        let join = igmp::Message {
            kind: igmp::MessageType::Report,
            group: ipv4::Addr::multicast_group(group),
        };
        let tcp_frame = stack::build_tcp(
            eth::MacAddr::host(1), eth::MacAddr::host(2), ipv4::Addr::host(1),
            ipv4::Addr::host(2), 100, 200, seq, ack, tcp::Flags::ACK, &payload,
        );
        for frame in [
            norm_packet,
            l1t::build(stream, seq, &payload),
            join.emit().to_vec(),
            tcp_frame,
        ] {
            decode_damaged(&frame);
        }
    }
}
