//! Gap recovery as simulation nodes.
//!
//! Wraps the [`crate::retrans`] state machines for use in topologies:
//!
//! * [`RecoveryReceiver`] — a feed subscriber that reorders, requests
//!   retransmissions over a unicast channel, and retries with backoff
//!   ([`RecoveryClient`] drives the policy).
//! * [`RetransUnit`] — the exchange-side server: taps the live feed into
//!   a bounded history and answers gap requests under a rate limit.
//!
//! Both speak the same wire idiom as the rest of the stack: feed packets
//! and replays are UDP-framed PITCH, requests are UDP-framed
//! [`GapRequest`]s. Fault injection composes from outside — wrap either
//! node's links in a `FaultLink` and the recovery loop sees exactly the
//! loss, reordering, and outages the spec describes.

use tn_netdev::TxQueue;
use tn_sim::{Context, Frame, MetricsRegistry, Node, NodeId, PortId, SimTime, TimerToken};
use tn_wire::pitch::GapRequest;
use tn_wire::{eth, ipv4, stack};

use crate::retrans::{RecoveryClient, RecoveryConfig, RetransmissionServer};

/// Receiver port carrying the (lossy) multicast feed.
pub const RECV_FEED: PortId = PortId(0);
/// Receiver port for the unicast recovery channel (requests out,
/// replays in).
pub const RECV_RETRANS: PortId = PortId(1);

/// Server port tapping the live feed into history.
pub const UNIT_TAP: PortId = PortId(0);
/// Server port for the recovery channel (requests in, replays out).
pub const UNIT_REQ: PortId = PortId(1);

const POLL_TOKEN: TimerToken = TimerToken(1);
const SVC_TOKEN: u64 = 2;

/// [`RecoveryReceiver`] configuration.
#[derive(Debug, Clone)]
pub struct RecoveryReceiverConfig {
    /// Timeout/backoff policy.
    pub recovery: RecoveryConfig,
    /// Source MAC for emitted requests.
    pub src_mac: eth::MacAddr,
    /// Source IP for emitted requests.
    pub src_ip: ipv4::Addr,
    /// Retransmission server address (requests' destination).
    pub server_ip: ipv4::Addr,
    /// UDP port of the recovery channel.
    pub udp_port: u16,
}

impl RecoveryReceiverConfig {
    /// Defaults for receiver index `i`.
    pub fn new(i: u32) -> RecoveryReceiverConfig {
        RecoveryReceiverConfig {
            recovery: RecoveryConfig::default(),
            src_mac: eth::MacAddr::host(0x5E00 + i),
            src_ip: ipv4::Addr::new(10, 60, 0, (i % 250) as u8 + 1),
            server_ip: ipv4::Addr::new(10, 60, 255, 1),
            udp_port: 32_000,
        }
    }
}

/// Receiver node counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReceiverStats {
    /// Frames received on either port.
    pub frames_in: u64,
    /// Messages released in sequence order.
    pub delivered_messages: u64,
    /// Gap requests sent (first requests and re-requests).
    pub requests_sent: u64,
}

/// Feed subscriber with gap detection, retransmission requests, and
/// timeout/backoff retries.
pub struct RecoveryReceiver {
    cfg: RecoveryReceiverConfig,
    client: RecoveryClient,
    /// Deadline the poll timer is currently armed for, if any.
    armed: Option<SimTime>,
    /// Release timeline: `(when, messages released)` — the report layer
    /// turns this into degraded-window throughput.
    deliveries: Vec<(SimTime, u32)>,
    stats: RecoveryReceiverStats,
}

impl RecoveryReceiver {
    /// Build from config.
    pub fn new(cfg: RecoveryReceiverConfig) -> RecoveryReceiver {
        RecoveryReceiver {
            client: RecoveryClient::new(cfg.recovery),
            cfg,
            armed: None,
            deliveries: Vec::new(),
            stats: RecoveryReceiverStats::default(),
        }
    }

    /// Node counters.
    pub fn stats(&self) -> RecoveryReceiverStats {
        self.stats
    }

    /// The recovery state machine (fill latencies, abandoned gaps).
    pub fn client(&self) -> &RecoveryClient {
        &self.client
    }

    /// Release timeline: `(when, messages released at that instant)`.
    pub fn deliveries(&self) -> &[(SimTime, u32)] {
        &self.deliveries
    }

    /// Takes the two fields it touches rather than `self`, so it can run
    /// while the client is still lending `requests`.
    fn send_requests(
        cfg: &RecoveryReceiverConfig,
        stats: &mut RecoveryReceiverStats,
        ctx: &mut Context<'_>,
        requests: &[GapRequest],
    ) {
        for req in requests {
            // Single-pass emission into the arena buffer: reserve the
            // headers, append the request, fill the headers in place.
            let frame = ctx
                .frame()
                .fill(|b| {
                    let start = stack::reserve_udp(b);
                    req.emit_into(b);
                    stack::finish_udp(
                        &mut b[start..],
                        cfg.src_mac,
                        None,
                        cfg.src_ip,
                        cfg.server_ip,
                        cfg.udp_port,
                        cfg.udp_port,
                    );
                })
                .build();
            ctx.send(RECV_RETRANS, frame);
            // Leave the gap in the flight recorder: a crash dump that
            // ends mid-recovery shows which sequences were outstanding.
            ctx.flight_note(
                tn_sim::FlightKind::RecoveryGap,
                u64::from(req.seq),
                u64::from(req.count),
            );
            stats.requests_sent += 1;
        }
    }

    /// Arm the poll timer for the earliest open deadline, if it moved
    /// ahead of what's already armed. Spurious firings (the deadline was
    /// pushed back by a fill) re-arm themselves in `on_timer`.
    fn rearm(&mut self, ctx: &mut Context<'_>) {
        let Some(deadline) = self.client.next_deadline() else {
            return;
        };
        if self.armed.is_some_and(|at| at <= deadline) {
            return;
        }
        self.armed = Some(deadline);
        ctx.set_timer(deadline.saturating_sub(ctx.now()), POLL_TOKEN);
    }

    fn record_release(&mut self, now: SimTime, n: usize) {
        if n > 0 {
            self.deliveries.push((now, n as u32));
            self.stats.delivered_messages += n as u64;
        }
    }
}

impl Node for RecoveryReceiver {
    fn on_frame(&mut self, ctx: &mut Context<'_>, port: PortId, frame: Frame) {
        self.stats.frames_in += 1;
        match stack::parse_udp(&frame.bytes) {
            Err(_) => {}
            // Live multicast and unicast replays converge on the same
            // reorderer; the ports differ only in what faults their
            // links carry.
            Ok(view) if port == RECV_FEED || port == RECV_RETRANS => {
                if let Ok(out) = self.client.offer(ctx.now(), view.payload) {
                    let released = out.messages.len();
                    Self::send_requests(&self.cfg, &mut self.stats, ctx, &out.requests);
                    self.record_release(ctx.now(), released);
                    self.rearm(ctx);
                }
            }
            // audit:allow(hotpath-unwrap): port fan-in is fixed by connect() wiring at build time; a mismatch is a topology bug where stopping loudly beats simulating garbage
            Ok(_) => panic!("recovery receiver has 2 ports, got {port:?}"),
        }
        // Terminal consumer: the payload has been decoded, copied into the
        // hold or rejected, so the buffer goes back to the arena.
        ctx.recycle(frame);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        debug_assert_eq!(timer, POLL_TOKEN);
        self.armed = None;
        let out = self.client.poll(ctx.now());
        let released = out.messages.len();
        Self::send_requests(&self.cfg, &mut self.stats, ctx, &out.requests);
        self.record_release(ctx.now(), released);
        self.rearm(ctx);
    }

    fn metrics(&self, _me: NodeId, into: &mut MetricsRegistry) {
        self.client.metrics(into);
    }
}

/// [`RetransUnit`] configuration.
#[derive(Debug, Clone)]
pub struct RetransUnitConfig {
    /// Packets of history kept per unit.
    pub history_packets: usize,
    /// Replay rate limit in bytes/second.
    pub rate_bytes_per_sec: u64,
    /// Replay burst allowance in bytes.
    pub burst_bytes: u64,
    /// Lookup-and-replay cost per served request.
    pub per_request_service: SimTime,
    /// Source MAC for replayed frames.
    pub src_mac: eth::MacAddr,
    /// Source IP for replayed frames.
    pub src_ip: ipv4::Addr,
    /// UDP port of the recovery channel.
    pub udp_port: u16,
}

impl Default for RetransUnitConfig {
    fn default() -> RetransUnitConfig {
        RetransUnitConfig {
            history_packets: 4_096,
            rate_bytes_per_sec: 125_000_000, // 1 Gb/s of replay budget
            burst_bytes: 1_500 * 64,
            per_request_service: SimTime::from_us(2),
            src_mac: eth::MacAddr::host(0x6E00),
            src_ip: ipv4::Addr::new(10, 60, 255, 1),
            udp_port: 32_000,
        }
    }
}

/// Server node counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetransUnitStats {
    /// Gap requests received.
    pub requests_in: u64,
    /// Replay packets sent.
    pub replays_out: u64,
    /// Requests refused (aged out or throttled).
    pub refused: u64,
}

/// Exchange-side retransmission server node: live-feed tap in, replays
/// out, with per-request service time.
pub struct RetransUnit {
    cfg: RetransUnitConfig,
    server: RetransmissionServer,
    svc: TxQueue,
    stats: RetransUnitStats,
}

impl RetransUnit {
    /// Build from config.
    pub fn new(cfg: RetransUnitConfig) -> RetransUnit {
        RetransUnit {
            server: RetransmissionServer::new(
                cfg.history_packets,
                cfg.rate_bytes_per_sec,
                cfg.burst_bytes,
            ),
            svc: TxQueue::new(SVC_TOKEN),
            cfg,
            stats: RetransUnitStats::default(),
        }
    }

    /// Node counters.
    pub fn stats(&self) -> RetransUnitStats {
        self.stats
    }

    fn handle_frame(&mut self, ctx: &mut Context<'_>, port: PortId, frame: &Frame) {
        let Ok(view) = stack::parse_udp(&frame.bytes) else {
            return;
        };
        match port {
            // A malformed packet is not kept.
            UNIT_TAP => {
                let _ = self.server.store(view.payload);
            }
            UNIT_REQ => {
                self.stats.requests_in += 1;
                let Ok(req) = GapRequest::parse(view.payload) else {
                    return;
                };
                let requester_ip = view.src_ip;
                let requester_mac = view.src_mac;
                match self.server.serve(ctx.now(), &req) {
                    Ok(replays) => {
                        self.svc.charge(ctx.now(), self.cfg.per_request_service);
                        let (src_mac, src_ip, udp_port) =
                            (self.cfg.src_mac, self.cfg.src_ip, self.cfg.udp_port);
                        for payload in replays {
                            let out = ctx
                                .frame()
                                .fill(|b| {
                                    stack::emit_udp_into(
                                        src_mac,
                                        Some(requester_mac),
                                        src_ip,
                                        requester_ip,
                                        udp_port,
                                        udp_port,
                                        payload,
                                        b,
                                    )
                                })
                                .build();
                            self.stats.replays_out += 1;
                            self.svc.send_after(ctx, SimTime::ZERO, UNIT_REQ, out);
                        }
                    }
                    Err(_) => {
                        self.stats.refused += 1;
                    }
                }
            }
            // audit:allow(hotpath-unwrap): port fan-in is fixed by connect() wiring at build time; a mismatch is a topology bug where stopping loudly beats simulating garbage
            other => panic!("retrans unit has 2 ports, got {other:?}"),
        }
    }
}

impl Node for RetransUnit {
    fn on_frame(&mut self, ctx: &mut Context<'_>, port: PortId, frame: Frame) {
        self.handle_frame(ctx, port, &frame);
        // Terminal consumer: tapped packets are copied into history and
        // requests are fully decoded, so the buffer goes back to the arena.
        ctx.recycle(frame);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        let consumed = self.svc.on_timer(ctx, timer);
        debug_assert!(consumed, "unexpected timer {timer:?}");
    }

    fn metrics(&self, me: NodeId, into: &mut MetricsRegistry) {
        let s = &self.stats;
        for (name, n) in [
            ("retrans_req", s.requests_in),
            ("retrans_replay", s.replays_out),
            ("retrans_refused", s.refused),
        ] {
            into.add("feed", name, Some(me.0), n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_fault::{FaultConnect, LinkSpec};
    use tn_sim::Simulator;
    use tn_wire::pitch;

    fn feed_frame(first_seq: u32, n: u32) -> Vec<u8> {
        let mut pb = pitch::PacketBuilder::new(0, first_seq, 1400);
        for i in 0..n {
            pb.push(&pitch::Message::DeleteOrder {
                offset_ns: i,
                order_id: u64::from(first_seq + i),
            });
        }
        let payload = pb.flush().unwrap();
        let mut frame = Vec::new();
        stack::emit_udp_into(
            eth::MacAddr::host(1),
            None,
            ipv4::Addr::new(10, 200, 1, 1),
            ipv4::Addr::multicast_group(0),
            32_000,
            32_000,
            &payload,
            &mut frame,
        );
        frame
    }

    fn rig(recovery: RecoveryConfig) -> (Simulator, tn_sim::NodeId, tn_sim::NodeId) {
        let mut sim = Simulator::new(4);
        let mut rc = RecoveryReceiverConfig::new(0);
        rc.recovery = recovery;
        let rx = sim.add_node("rx", RecoveryReceiver::new(rc));
        let unit = sim.add_node("unit", RetransUnit::new(RetransUnitConfig::default()));
        sim.connect_spec(
            rx,
            RECV_RETRANS,
            unit,
            UNIT_REQ,
            &LinkSpec::ideal(SimTime::from_us(5)),
        );
        (sim, rx, unit)
    }

    #[test]
    fn lost_packet_is_recovered_via_server() {
        let (mut sim, rx, unit) = rig(RecoveryConfig::default());
        for seq in (1..=9u32).step_by(2) {
            let bytes = feed_frame(seq, 2);
            let t = SimTime::from_us(u64::from(seq) * 10);
            let tap = sim.frame().copy_from(&bytes).build();
            sim.inject_frame(t, unit, UNIT_TAP, tap);
            // The copy starting at seq 5 is lost on the multicast path.
            if seq != 5 {
                let f = sim.frame().copy_from(&bytes).build();
                sim.inject_frame(t, rx, RECV_FEED, f);
            }
        }
        sim.run();
        let rx_node = sim.node::<RecoveryReceiver>(rx).unwrap();
        assert_eq!(rx_node.stats().delivered_messages, 10);
        assert_eq!(rx_node.stats().requests_sent, 1);
        assert_eq!(rx_node.client().fill_latencies_ps().len(), 1);
        // Round trip is two 5 us hops plus the server's 2 us service,
        // counted from when the gap was detected.
        let fill_ps = rx_node.client().fill_latencies_ps()[0];
        assert!(fill_ps >= SimTime::from_us(12).as_ps(), "fill={fill_ps}");
        assert_eq!(rx_node.client().abandoned_gaps(), 0);
        let unit_node = sim.node::<RetransUnit>(unit).unwrap();
        assert_eq!(unit_node.stats().requests_in, 1);
        assert_eq!(unit_node.stats().replays_out, 1);
    }

    #[test]
    fn replay_is_byte_identical_and_unknown_ranges_are_refused() {
        struct Collector(Vec<Vec<u8>>);
        impl Node for Collector {
            fn on_frame(&mut self, _ctx: &mut Context<'_>, _p: PortId, f: Frame) {
                self.0.push(f.bytes);
            }
        }
        let mut sim = Simulator::new(4);
        let unit = sim.add_node("unit", RetransUnit::new(RetransUnitConfig::default()));
        let col = sim.add_node("col", Collector(Vec::new()));
        sim.connect_spec(
            col,
            PortId(0),
            unit,
            UNIT_REQ,
            &LinkSpec::ideal(SimTime::ZERO),
        );
        let live = feed_frame(7, 3);
        let original = stack::parse_udp(&live).unwrap().payload.to_vec();
        let tap = sim.frame().copy_from(&live).build();
        sim.inject_frame(SimTime::ZERO, unit, UNIT_TAP, tap);
        let requester_ip = ipv4::Addr::new(10, 0, 0, 9);
        let ask = |sim: &mut Simulator, req: GapRequest| {
            let mut ask = Vec::new();
            req.emit_into(&mut ask);
            let mut bytes = Vec::new();
            stack::emit_udp_into(
                eth::MacAddr::host(9),
                None,
                requester_ip,
                ipv4::Addr::new(10, 60, 255, 1),
                32_000,
                32_000,
                &ask,
                &mut bytes,
            );
            let f = sim.frame().copy_from(&bytes).build();
            let at = sim.now() + SimTime::from_us(1);
            sim.inject_frame(at, unit, UNIT_REQ, f);
            sim.run();
        };
        ask(
            &mut sim,
            GapRequest {
                unit: 0,
                seq: 7,
                count: 3,
            },
        );
        let replies = &sim.node::<Collector>(col).unwrap().0;
        assert_eq!(replies.len(), 1, "one retransmitted packet");
        let v = stack::parse_udp(&replies[0]).unwrap();
        assert_eq!(v.dst_ip, requester_ip); // unicast to the requester
        assert_eq!(v.payload, &original[..], "replay is byte-identical");
        // A range that never existed is refused, silently.
        ask(
            &mut sim,
            GapRequest {
                unit: 99,
                seq: 1,
                count: 1,
            },
        );
        assert_eq!(sim.node::<Collector>(col).unwrap().0.len(), 1);
        let stats = sim.node::<RetransUnit>(unit).unwrap().stats();
        assert_eq!((stats.replays_out, stats.refused), (1, 1));
    }

    #[test]
    fn unservable_gap_retries_then_abandons() {
        let cfg = RecoveryConfig {
            timeout: SimTime::from_us(50),
            backoff: 2,
            max_retries: 2,
            max_held: 100,
        };
        let (mut sim, rx, unit) = rig(cfg);
        // The server never sees the missing packet (nothing tapped), so
        // every request is refused and the receiver eventually gives up.
        let f = sim.frame().copy_from(&feed_frame(1, 2)).build();
        sim.inject_frame(SimTime::ZERO, rx, RECV_FEED, f);
        let f = sim.frame().copy_from(&feed_frame(5, 2)).build(); // 3..=4 lost forever
        sim.inject_frame(SimTime::from_us(1), rx, RECV_FEED, f);
        sim.run();
        let rx_node = sim.node::<RecoveryReceiver>(rx).unwrap();
        // First request plus two timed-out re-requests, then abandon.
        assert_eq!(rx_node.stats().requests_sent, 3);
        assert_eq!(rx_node.client().abandoned_gaps(), 1);
        assert_eq!(rx_node.stats().delivered_messages, 4); // 1,2 then 5,6
        assert!(rx_node.client().fill_latencies_ps().is_empty());
        let unit_node = sim.node::<RetransUnit>(unit).unwrap();
        assert_eq!(unit_node.stats().requests_in, 3);
        assert_eq!(unit_node.stats().refused, 3);
    }
}
