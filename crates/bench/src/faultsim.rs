//! Shared fault-injection scenarios.
//!
//! The two degraded-mode experiments (`loss-recovery`,
//! `ab-failover`) and tn-audit's fault divergence scenarios run
//! *exactly* this code — one implementation, so the digests the audit
//! pins are the digests the experiments print.
//!
//! Both scenarios follow the paper's reliability story: the fabric is
//! allowed to drop (microwave fade, flapping ports, maintenance), and
//! the *edge* — A/B arbitration, gap requests, retransmission units —
//! papers over it.

use tn_fault::{FaultConnect, FaultSpec, LinkSpec};
use tn_feed::arb::FeedSide;
use tn_feed::nodes::{
    RecoveryReceiver, RecoveryReceiverConfig, RetransUnit, RetransUnitConfig, RECV_FEED,
    RECV_RETRANS, UNIT_REQ, UNIT_TAP,
};
use tn_feed::retrans::RecoveryConfig;
use tn_feed::Arbiter;
use tn_sim::{
    Context, Frame, KernelProfile, MetricsRegistry, Node, NodeId, ObsConfig, PortId, SchedulerKind,
    SimTime, Simulator, TimerToken,
};
use tn_wire::{eth, ipv4, pitch, stack};

// ---------------------------------------------------------------------
// Building blocks
// ---------------------------------------------------------------------

const TICK: TimerToken = TimerToken(1);

/// Timer-driven sequenced-unit publisher: every `interval` it emits one
/// PITCH packet of `msgs_per_packet` messages, identically on each of
/// its first `copies` ports (A/B copies, feed + retrans-server tap).
pub struct PitchSource {
    interval: SimTime,
    packets: u64,
    msgs_per_packet: u32,
    copies: u16,
    sent_packets: u64,
    /// Carries the next sequence number from packet to packet.
    builder: pitch::PacketBuilder,
    payload_scratch: Vec<u8>,
    wire_scratch: Vec<u8>,
}

impl PitchSource {
    /// Publisher of `packets` packets at `interval`, `copies` ports wide.
    pub fn new(interval: SimTime, packets: u64, msgs_per_packet: u32, copies: u16) -> PitchSource {
        PitchSource {
            interval,
            packets,
            msgs_per_packet,
            copies,
            sent_packets: 0,
            builder: pitch::PacketBuilder::new(0, 1, 1_400),
            payload_scratch: Vec::new(),
            wire_scratch: Vec::new(),
        }
    }

    /// Messages published so far.
    pub fn published_messages(&self) -> u64 {
        self.sent_packets * u64::from(self.msgs_per_packet)
    }
}

impl Node for PitchSource {
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _port: PortId, _frame: Frame) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        debug_assert_eq!(timer, TICK);
        if self.sent_packets >= self.packets {
            return;
        }
        self.payload_scratch.clear();
        let first_seq = self.builder.next_seq();
        for i in 0..self.msgs_per_packet {
            self.builder.push_into(
                &pitch::Message::DeleteOrder {
                    offset_ns: i,
                    order_id: u64::from(first_seq.wrapping_add(i)),
                },
                &mut self.payload_scratch,
            );
        }
        if !self.builder.flush_into(&mut self.payload_scratch) && self.payload_scratch.is_empty() {
            return; // msgs_per_packet == 0: nothing to publish
        }
        self.wire_scratch.clear();
        stack::emit_udp_into(
            eth::MacAddr::host(0x0A00),
            None,
            ipv4::Addr::new(10, 200, 1, 1),
            ipv4::Addr::multicast_group(0),
            32_000,
            32_000,
            &self.payload_scratch,
            &mut self.wire_scratch,
        );
        for p in 0..self.copies {
            // Pooled copy: each port's frame reuses a recycled arena
            // buffer instead of allocating per packet on the hot path.
            let frame = ctx.frame().copy_from(&self.wire_scratch).build();
            ctx.send(PortId(p), frame);
        }
        self.sent_packets += 1;
        if self.sent_packets < self.packets {
            ctx.set_timer(self.interval, TICK);
        }
    }
}

/// A-side input of [`AbReceiver`].
pub const AB_A: PortId = PortId(0);
/// B-side input of [`AbReceiver`].
pub const AB_B: PortId = PortId(1);

/// A/B-arbitrating receiver: first copy wins, duplicates absorbed, gaps
/// (both sides lost) skipped forward — [`Arbiter`] as a node, with a
/// release timeline for degraded-window throughput.
pub struct AbReceiver {
    arb: Arbiter,
    delivered: u64,
    deliveries: Vec<(SimTime, u32)>,
}

impl AbReceiver {
    /// Fresh receiver.
    pub fn new() -> AbReceiver {
        AbReceiver {
            arb: Arbiter::new(),
            delivered: 0,
            deliveries: Vec::new(),
        }
    }

    /// The arbiter (per-side win shares, gap counts).
    pub fn arbiter(&self) -> &Arbiter {
        &self.arb
    }

    /// Messages released in order.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Release timeline `(when, messages)`.
    pub fn deliveries(&self) -> &[(SimTime, u32)] {
        &self.deliveries
    }
}

impl Default for AbReceiver {
    fn default() -> AbReceiver {
        AbReceiver::new()
    }
}

impl Node for AbReceiver {
    fn on_frame(&mut self, ctx: &mut Context<'_>, port: PortId, frame: Frame) {
        let side = if port == AB_A {
            FeedSide::A
        } else {
            FeedSide::B
        };
        let offered =
            stack::parse_udp(&frame.bytes).and_then(|v| self.arb.offer_from(side, v.payload));
        if let Ok(Some(msgs)) = offered {
            self.delivered += msgs.len() as u64;
            self.deliveries.push((ctx.now(), msgs.len() as u32));
        }
        // Terminal consumer: decoded or rejected, the buffer goes back to
        // the arena either way.
        ctx.recycle(frame);
    }

    fn metrics(&self, _me: NodeId, into: &mut MetricsRegistry) {
        self.arb.metrics(into);
    }
}

// ---------------------------------------------------------------------
// Scenario 1: loss → gap request → retransmission
// ---------------------------------------------------------------------

/// Workload + fault for the loss-recovery scenario.
#[derive(Debug, Clone)]
pub struct LossRecoveryConfig {
    /// Kernel seed.
    pub seed: u64,
    /// Fault injected on the multicast feed link.
    pub fault: FaultSpec,
    /// Packets to publish.
    pub packets: u64,
    /// Messages per packet.
    pub msgs_per_packet: u32,
    /// Publish interval.
    pub interval: SimTime,
    /// Receiver retry policy.
    pub recovery: RecoveryConfig,
    /// Event scheduler the kernel runs on (digest-neutral).
    pub scheduler: SchedulerKind,
    /// Observability switches (digest-neutral; off by default).
    pub obs: ObsConfig,
}

impl LossRecoveryConfig {
    /// Default workload (4,000 packets / 16,000 messages over 20 ms)
    /// with `fault` on the feed link.
    pub fn new(seed: u64, fault: FaultSpec) -> LossRecoveryConfig {
        LossRecoveryConfig {
            seed,
            fault,
            packets: 4_000,
            msgs_per_packet: 4,
            interval: SimTime::from_us(5),
            recovery: RecoveryConfig {
                timeout: SimTime::from_us(50),
                backoff: 2,
                max_retries: 3,
                max_held: 10_000,
            },
            scheduler: SchedulerKind::BinaryHeap,
            obs: ObsConfig::off(),
        }
    }
}

/// What one loss-recovery run produced.
#[derive(Debug, Clone)]
pub struct LossRecoveryRun {
    /// Messages published.
    pub published_messages: u64,
    /// Messages released in order at the receiver.
    pub delivered_messages: u64,
    /// Distinct gaps detected (first requests).
    pub gaps_seen: u64,
    /// Requests sent, including timed-out re-requests.
    pub retrans_requests: u64,
    /// Messages recovered by retransmission fills.
    pub recovered_messages: u64,
    /// Sequence numbers abandoned as unrecoverable.
    pub abandoned: u64,
    /// Gap-fill latencies (request → in-order release), picoseconds.
    pub fill_latency_ps: Vec<u64>,
    /// Replays the server refused (aged out / throttled).
    pub refused: u64,
    /// Measured wall of the run.
    pub duration: SimTime,
    /// Kernel self-profile (when the profiler was on).
    pub profile: Option<KernelProfile>,
    /// Kernel trace digest.
    pub digest: u64,
    /// Events folded into the digest.
    pub events: u64,
}

impl LossRecoveryRun {
    /// Delivered fraction of the published stream.
    pub fn delivery_rate(&self) -> f64 {
        if self.published_messages == 0 {
            return 1.0;
        }
        self.delivered_messages as f64 / self.published_messages as f64
    }
}

/// Run the loss-recovery scenario: publisher → faulty feed link →
/// reordering receiver, with a clean tap into a retransmission unit and
/// a clean unicast recovery channel.
pub fn run_loss_recovery(cfg: &LossRecoveryConfig) -> LossRecoveryRun {
    loss_recovery_sim(cfg).0
}

/// [`run_loss_recovery`], keeping the finished kernel for inspection.
fn loss_recovery_sim(cfg: &LossRecoveryConfig) -> (LossRecoveryRun, Simulator) {
    let mut sim = Simulator::with_scheduler(cfg.seed, cfg.scheduler);
    sim.set_obs(&cfg.obs);
    let src = sim.add_node(
        "src",
        PitchSource::new(cfg.interval, cfg.packets, cfg.msgs_per_packet, 2),
    );
    let mut rx_cfg = RecoveryReceiverConfig::new(0);
    rx_cfg.recovery = cfg.recovery;
    let rx = sim.add_node("rx", RecoveryReceiver::new(rx_cfg));
    let unit = sim.add_node("unit", RetransUnit::new(RetransUnitConfig::default()));

    let prop = SimTime::from_ns(500);
    // Feed path carries the fault; tap and recovery channel stay clean.
    let feed = LinkSpec::ten_gig(prop).with_fault(cfg.fault.clone());
    sim.connect_directed_spec(src, PortId(0), rx, RECV_FEED, &feed);
    sim.connect_directed_spec(src, PortId(1), unit, UNIT_TAP, &LinkSpec::ten_gig(prop));
    sim.connect_spec(rx, RECV_RETRANS, unit, UNIT_REQ, &LinkSpec::ten_gig(prop));

    sim.schedule_timer(SimTime::from_us(10), src, TICK);
    // Publish window plus a tail for the last retries to resolve.
    let duration = cfg.interval * cfg.packets + SimTime::from_ms(5);
    sim.run_until(duration);

    let published = sim
        .node::<PitchSource>(src)
        .expect("src")
        .published_messages();
    let rx_node = sim.node::<RecoveryReceiver>(rx).expect("rx");
    let reorder = rx_node.client().reorderer().stats();
    let unit_node = sim.node::<RetransUnit>(unit).expect("unit");
    let run = LossRecoveryRun {
        published_messages: published,
        delivered_messages: rx_node.stats().delivered_messages,
        gaps_seen: reorder.requests,
        retrans_requests: rx_node.stats().requests_sent,
        recovered_messages: reorder.recovered_messages,
        abandoned: reorder.abandoned,
        fill_latency_ps: rx_node.client().fill_latencies_ps().to_vec(),
        refused: unit_node.stats().refused,
        duration,
        profile: sim.profile(),
        digest: sim.trace.digest(),
        events: sim.trace.recorded(),
    };
    (run, sim)
}

// ---------------------------------------------------------------------
// Scenario 2: A/B failover through an outage
// ---------------------------------------------------------------------

/// Workload + faults for the A/B-failover scenario.
#[derive(Debug, Clone)]
pub struct AbFailoverConfig {
    /// Kernel seed.
    pub seed: u64,
    /// Fault on the A feed (the primary; normally wins every race).
    pub a_fault: FaultSpec,
    /// Fault on the B feed (`None` keeps it clean).
    pub b_fault: Option<FaultSpec>,
    /// Extra one-way propagation on B — the detour path that only wins
    /// when A is degraded.
    pub b_extra_delay: SimTime,
    /// Packets to publish.
    pub packets: u64,
    /// Messages per packet.
    pub msgs_per_packet: u32,
    /// Publish interval.
    pub interval: SimTime,
    /// Degraded window to measure throughput over (usually the A-side
    /// outage), as `(start, end)`.
    pub window: (SimTime, SimTime),
    /// Event scheduler the kernel runs on (digest-neutral).
    pub scheduler: SchedulerKind,
    /// Observability switches (digest-neutral; off by default).
    pub obs: ObsConfig,
}

impl AbFailoverConfig {
    /// Default workload: 6,000 packets over 30 ms; A suffers a hard
    /// outage for `window`; B is clean but 2 µs longer.
    pub fn new(seed: u64) -> AbFailoverConfig {
        let window = (SimTime::from_ms(10), SimTime::from_ms(20));
        AbFailoverConfig {
            seed,
            a_fault: FaultSpec::new(seed ^ 0xA).with_outage(window.0, window.1),
            b_fault: None,
            b_extra_delay: SimTime::from_us(2),
            packets: 6_000,
            msgs_per_packet: 4,
            interval: SimTime::from_us(5),
            window,
            scheduler: SchedulerKind::BinaryHeap,
            obs: ObsConfig::off(),
        }
    }
}

/// What one A/B-failover run produced.
#[derive(Debug, Clone)]
pub struct AbFailoverRun {
    /// Messages published (per side; the stream is one copy).
    pub published_messages: u64,
    /// Messages released in order.
    pub delivered_messages: u64,
    /// Distinct gap events (lost on both sides).
    pub gap_events: u64,
    /// Sequence numbers lost on both sides.
    pub gap_messages: u64,
    /// Duplicate copies absorbed.
    pub duplicates: u64,
    /// A-side (offered, won).
    pub side_a: (u64, u64),
    /// B-side (offered, won).
    pub side_b: (u64, u64),
    /// Delivered messages/second inside the degraded window.
    pub window_throughput: f64,
    /// Delivered messages/second outside it.
    pub clean_throughput: f64,
    /// Kernel self-profile (when the profiler was on).
    pub profile: Option<KernelProfile>,
    /// Kernel trace digest.
    pub digest: u64,
    /// Events folded into the digest.
    pub events: u64,
}

/// Run the A/B-failover scenario: one publisher, two copies over
/// independently faulted links, arbitration at the receiver.
pub fn run_ab_failover(cfg: &AbFailoverConfig) -> AbFailoverRun {
    ab_failover_sim(cfg).0
}

/// [`run_ab_failover`], keeping the finished kernel for inspection.
fn ab_failover_sim(cfg: &AbFailoverConfig) -> (AbFailoverRun, Simulator) {
    let mut sim = Simulator::with_scheduler(cfg.seed, cfg.scheduler);
    sim.set_obs(&cfg.obs);
    let src = sim.add_node(
        "src",
        PitchSource::new(cfg.interval, cfg.packets, cfg.msgs_per_packet, 2),
    );
    let rx = sim.add_node("rx", AbReceiver::new());

    let prop = SimTime::from_ns(500);
    let a_spec = LinkSpec::ten_gig(prop).with_fault(cfg.a_fault.clone());
    let mut b_spec = LinkSpec::ten_gig(prop + cfg.b_extra_delay);
    if let Some(f) = &cfg.b_fault {
        b_spec = b_spec.with_fault(f.clone());
    }
    sim.connect_directed_spec(src, PortId(0), rx, AB_A, &a_spec);
    sim.connect_directed_spec(src, PortId(1), rx, AB_B, &b_spec);

    sim.schedule_timer(SimTime::from_us(10), src, TICK);
    let duration = cfg.interval * cfg.packets + SimTime::from_ms(1);
    sim.run_until(duration);

    let published = sim
        .node::<PitchSource>(src)
        .expect("src")
        .published_messages();
    let rx_node = sim.node::<AbReceiver>(rx).expect("rx");
    let arb = rx_node.arbiter().stats();
    let (w0, w1) = cfg.window;
    let window_delivered: u64 = rx_node
        .deliveries()
        .iter()
        .filter(|(t, _)| *t >= w0 && *t < w1)
        .map(|(_, n)| u64::from(*n))
        .sum();
    let secs = |t: SimTime| t.as_ps() as f64 / 1e12;
    let window_secs = secs(w1.saturating_sub(w0)).max(1e-12);
    let clean_secs = (secs(duration) - window_secs).max(1e-12);
    let run = AbFailoverRun {
        published_messages: published,
        delivered_messages: rx_node.delivered(),
        gap_events: arb.gap_events,
        gap_messages: arb.gap_messages,
        duplicates: arb.duplicates,
        side_a: (arb.side_a.offered, arb.side_a.won),
        side_b: (arb.side_b.offered, arb.side_b.won),
        window_throughput: window_delivered as f64 / window_secs,
        clean_throughput: (rx_node.delivered() - window_delivered) as f64 / clean_secs,
        profile: sim.profile(),
        digest: sim.trace.digest(),
        events: sim.trace.recorded(),
    };
    (run, sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_core::Telemetry;
    use tn_sim::{fnv1a_fold, Snapshot, SnapshotValue, EMPTY_DIGEST};

    fn small_loss(seed: u64, fault: FaultSpec) -> LossRecoveryConfig {
        let mut c = LossRecoveryConfig::new(seed, fault);
        c.packets = 400;
        c
    }

    #[test]
    fn clean_feed_delivers_everything() {
        let run = run_loss_recovery(&small_loss(1, FaultSpec::new(0)));
        assert_eq!(run.published_messages, 1_600);
        assert_eq!(run.delivered_messages, run.published_messages);
        assert_eq!(run.gaps_seen, 0);
        assert_eq!(run.abandoned, 0);
    }

    #[test]
    fn lossy_feed_recovers_via_retransmission() {
        let fault = FaultSpec::new(77).with_iid_loss(0.02);
        let run = run_loss_recovery(&small_loss(1, fault));
        assert!(run.gaps_seen > 0, "{run:?}");
        assert!(run.recovered_messages > 0, "{run:?}");
        // The recovery loop papers over 2% loss completely.
        assert_eq!(run.delivered_messages, run.published_messages, "{run:?}");
        assert_eq!(run.abandoned, 0, "{run:?}");
        assert_eq!(run.fill_latency_ps.len() as u64, run.gaps_seen);
    }

    #[test]
    fn observability_is_digest_neutral_and_yields_a_profile() {
        let fault = FaultSpec::new(77).with_iid_loss(0.02);
        let off = run_loss_recovery(&small_loss(1, fault.clone()));
        let mut cfg = small_loss(1, fault);
        cfg.obs = ObsConfig::full();
        let (on, sim) = loss_recovery_sim(&cfg);
        assert_eq!(off.digest, on.digest);
        assert_eq!(off.events, on.events);
        assert!(off.profile.is_none());
        let p = on.profile.expect("profiler was on");
        assert!(p.frames > 0 && p.timers > 0, "{p:?}");
        // The profile's content, as computed before the kernel's
        // observation sites were folded into one function.
        let content = fnv1a_fold(EMPTY_DIGEST, format!("{p:?}").as_bytes());
        assert_eq!(content, 0x91d0_d4f8_6ac0_6f2d, "{p:?}");
        // `full()` means provenance too: the kernel counted every
        // delivery and timed every hop.
        let snapshot = sim.metrics_snapshot(0).expect("provenance was on");
        let seen = Telemetry::from_snapshot(&snapshot);
        let total = |name: &str| seen.counter_total("kernel", name);
        assert_eq!(total("deliver"), sim.stats().frames_delivered);
        assert_eq!(total("drop"), sim.stats().frames_dropped);
        assert!(sim.stats().frames_dropped > 0);
        assert!(!seen.hops.is_empty(), "provenance was on");
    }

    #[test]
    fn loss_recovery_is_deterministic() {
        let cfg = small_loss(9, FaultSpec::new(3).with_burst_loss(0.02, 0.3, 0.0, 0.9));
        let a = run_loss_recovery(&cfg);
        let b = run_loss_recovery(&cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.events, b.events);
        assert_eq!(a.delivered_messages, b.delivered_messages);
    }

    #[test]
    fn ab_failover_covers_the_outage() {
        let mut cfg = AbFailoverConfig::new(4);
        cfg.packets = 3_000; // 15 ms of traffic, outage 10–20 ms
        cfg.a_fault = FaultSpec::new(4 ^ 0xA).with_outage(cfg.window.0, cfg.window.1);
        let run = run_ab_failover(&cfg);
        // Nothing lost: B carries the stream through A's outage.
        assert_eq!(run.delivered_messages, run.published_messages, "{run:?}");
        assert_eq!(run.gap_messages, 0, "{run:?}");
        // A wins while up; B wins only inside the outage.
        assert!(run.side_a.1 > 0 && run.side_b.1 > 0, "{run:?}");
        assert!(run.window_throughput > 0.0, "{run:?}");
        // Everything B won it won during the window (A wins otherwise).
        let window_secs = cfg.window.1.saturating_sub(cfg.window.0).as_ps() as f64 / 1e12;
        let window_delivered = (run.window_throughput * window_secs).round() as u64;
        assert_eq!(run.side_b.1, window_delivered / 4, "{run:?}");
    }

    /// Every field of a run as one line, so a pin is one literal.
    fn loss_pin(run: &LossRecoveryRun) -> String {
        let fills = run
            .fill_latency_ps
            .iter()
            .fold(EMPTY_DIGEST, |d, ps| fnv1a_fold(d, &ps.to_le_bytes()));
        format!(
            "published={} delivered={} gaps={} requests={} recovered={} abandoned={} \
             fills={}/{fills:#018x} refused={} duration_ps={} profile={} digest={:#018x} events={}",
            run.published_messages,
            run.delivered_messages,
            run.gaps_seen,
            run.retrans_requests,
            run.recovered_messages,
            run.abandoned,
            run.fill_latency_ps.len(),
            run.refused,
            run.duration.as_ps(),
            run.profile.is_some(),
            run.digest,
            run.events,
        )
    }

    fn ab_pin(run: &AbFailoverRun) -> String {
        format!(
            "published={} delivered={} gap_events={} gap_messages={} duplicates={} a={:?} b={:?} \
             window_tput={} clean_tput={} profile={} digest={:#018x} events={}",
            run.published_messages,
            run.delivered_messages,
            run.gap_events,
            run.gap_messages,
            run.duplicates,
            run.side_a,
            run.side_b,
            run.window_throughput,
            run.clean_throughput,
            run.profile.is_some(),
            run.digest,
            run.events,
        )
    }

    fn iid(seed: u64) -> FaultSpec {
        FaultSpec::new(seed).with_iid_loss(0.01)
    }

    fn gilbert_elliott(seed: u64) -> FaultSpec {
        FaultSpec::new(seed).with_burst_loss(0.02, 0.3, 0.0, 0.9)
    }

    fn outage() -> FaultSpec {
        FaultSpec::new(5).with_outage(SimTime::from_ms(5), SimTime::from_ms(6))
    }

    /// Recorded at the commit before the two sequencing machines became
    /// one merge: every field of the default-size run, per fault model,
    /// plus two rows for the paths those leave cold (reordered arrivals
    /// draining the hold; the hold bound abandoning a gap).
    #[test]
    fn loss_recovery_runs_are_pinned() {
        let run = |fault: FaultSpec, max_held: usize| {
            let mut cfg = LossRecoveryConfig::new(42, fault);
            cfg.recovery.max_held = max_held;
            loss_pin(&run_loss_recovery(&cfg))
        };
        let jittered = iid(77).with_jitter(SimTime::from_us(20));
        assert_eq!(
            run(iid(77), 10_000),
            "published=16000 delivered=16000 gaps=43 requests=43 recovered=344 abandoned=0 \
             fills=43/0x4024c0f3020e3a9d refused=0 duration_ps=25000000000 profile=false \
             digest=0xc30729ca5d12fd76 events=12167"
        );
        assert_eq!(
            run(gilbert_elliott(3), 10_000),
            "published=16000 delivered=16000 gaps=79 requests=79 recovered=1192 abandoned=0 \
             fills=79/0xac56bd21c388dcda refused=0 duration_ps=25000000000 profile=false \
             digest=0xa4a252a23168bb07 events=12576"
        );
        assert_eq!(
            run(outage(), 10_000),
            "published=16000 delivered=16000 gaps=1 requests=1 recovered=820 abandoned=0 \
             fills=1/0x9ddda28c6481e60f refused=0 duration_ps=25000000000 profile=false \
             digest=0x6d9571abc7dc400a events=12402"
        );
        assert_eq!(
            run(jittered, 10_000),
            "published=16000 delivered=16000 gaps=1032 requests=1033 recovered=10040 abandoned=0 \
             fills=1032/0xf74807052bf3bfa3 refused=0 duration_ps=25000000000 profile=false \
             digest=0xc1ef3af104bbdbfb events=16078"
        );
        assert_eq!(
            run(gilbert_elliott(3), 3),
            "published=16000 delivered=15124 gaps=79 requests=79 recovered=0 abandoned=876 \
             fills=0/0xcbf29ce484222325 refused=0 duration_ps=25000000000 profile=false \
             digest=0x3c73c5ed33f899f5 events=12517"
        );
    }

    /// As above for A/B failover: the loss models fault both sides
    /// independently (so both-lost gaps occur); the outage row is the
    /// scenario's own default, A down for 10 ms and B clean.
    #[test]
    fn ab_failover_runs_are_pinned() {
        let run = |faults: Option<(FaultSpec, FaultSpec)>| {
            let mut cfg = AbFailoverConfig::new(42);
            if let Some((a, b)) = faults {
                cfg.a_fault = a;
                cfg.b_fault = Some(b);
            }
            ab_pin(&run_ab_failover(&cfg))
        };
        assert_eq!(
            run(Some((iid(77), iid(78)))),
            "published=24000 delivered=24000 gap_events=0 gap_messages=0 duplicates=5862 \
             a=(5938, 5938) b=(5924, 62) window_tput=800000 \
             clean_tput=761904.761904762 profile=false digest=0x1a550644b613ba58 events=18000"
        );
        assert_eq!(
            run(Some((gilbert_elliott(3), gilbert_elliott(4)))),
            "published=24000 delivered=23968 gap_events=8 gap_messages=32 duplicates=5280 \
             a=(5674, 5674) b=(5598, 318) window_tput=799600 \
             clean_tput=760571.4285714286 profile=false digest=0x3f453dd207c49266 events=18000"
        );
        assert_eq!(
            run(None),
            "published=24000 delivered=24000 gap_events=0 gap_messages=0 duplicates=4000 \
             a=(4000, 4000) b=(6000, 2000) window_tput=800000 \
             clean_tput=761904.761904762 profile=false digest=0x6c754a134077bfbf events=18000"
        );
    }

    /// A finished run's metrics snapshot: every counter and
    /// distribution the kernel and the devices report, in key order.
    fn snapshot(sim: &Simulator) -> Snapshot {
        sim.metrics_snapshot(sim.now().as_ps())
            .expect("provenance was on")
    }

    /// FNV-1a of [`snapshot`], rendered with `Debug`.
    fn snapshot_pin(sim: &Simulator) -> u64 {
        fnv1a_fold(EMPTY_DIGEST, format!("{:?}", snapshot(sim)).as_bytes())
    }

    fn full_loss_run(fault: FaultSpec) -> (LossRecoveryRun, Simulator) {
        let mut cfg = LossRecoveryConfig::new(42, fault);
        cfg.obs = ObsConfig::full();
        loss_recovery_sim(&cfg)
    }

    fn full_ab_run() -> (AbFailoverRun, Simulator) {
        let mut cfg = AbFailoverConfig::new(42);
        cfg.obs = ObsConfig::full();
        ab_failover_sim(&cfg)
    }

    /// The full-observability registry of each faultsim run, as recorded
    /// before device counters became views of the devices' own stats.
    /// The A/B run's pin was `0xd122_535f_8843_1576` then: its arbiter
    /// never reached the registry. The re-pin adds exactly its six
    /// non-zero counters (`feed/{a,b}_{offered,won}`, `arb_accepted`,
    /// `arb_duplicate`) and moves nothing else.
    #[test]
    fn full_obs_snapshots_are_pinned() {
        let pins = [
            snapshot_pin(&full_loss_run(iid(77)).1),
            snapshot_pin(&full_loss_run(gilbert_elliott(3)).1),
            snapshot_pin(&full_ab_run().1),
        ];
        assert_eq!(
            pins,
            [
                0x8101_db17_afde_757b,
                0xcdd5_dd15_39a4_5cbb,
                0x80fd_77c4_eb8b_af48
            ],
            "{pins:#018x?}"
        );
    }

    /// One snapshot counter, 0 when absent.
    fn counter(snap: &Snapshot, scope: &str, name: &str, node: Option<u32>) -> u64 {
        let entry = snap
            .entries
            .iter()
            .find(|e| e.scope == scope && e.name == name && e.node == node);
        match entry.map(|e| &e.value) {
            None => 0,
            Some(SnapshotValue::Counter(n)) => *n,
            Some(other) => panic!("{scope}/{name} is not a counter: {other:?}"),
        }
    }

    /// The one node of type `T` in a finished run, and its id.
    fn find<T: Node + 'static>(sim: &Simulator) -> (NodeId, &T) {
        (0..sim.node_count() as u32)
            .map(NodeId)
            .find_map(|id| sim.node::<T>(id).map(|n| (id, n)))
            .expect("the run has one")
    }

    /// Every device counter in a full-observability snapshot equals the
    /// count the device keeps in its own stats. The fault links' stats
    /// are not reachable from the kernel, so their counters are held to
    /// the kernel's own drop reasons and dispatch counts instead: every
    /// link here is built from a `LinkSpec`, so every frame the kernel
    /// delivered or dropped was offered to one.
    #[test]
    fn device_counters_reconcile_with_device_stats() {
        fn check_fault_links(snap: &Snapshot) {
            let c = |scope, name| counter(snap, scope, name, None);
            let kernel = |name| -> u64 {
                snap.entries
                    .iter()
                    .filter(|e| e.scope == "kernel" && e.name == name)
                    .map(|e| counter(snap, "kernel", name, e.node))
                    .sum()
            };
            assert!(c("fault", "offered") > 0);
            assert_eq!(c("fault", "offered"), kernel("deliver") + kernel("drop"));
            assert_eq!(c("fault", "lost"), c("link_drop", "random_loss"));
            assert_eq!(c("fault", "down_drops"), c("link_drop", "link_down"));
        }
        for fault in [iid(77), gilbert_elliott(3)] {
            let (_, sim) = full_loss_run(fault);
            let snap = snapshot(&sim);
            let c = |name, node| counter(&snap, "feed", name, node);
            let client = find::<RecoveryReceiver>(&sim).1.client();
            assert!(client.reorderer().stats().requests > 0);
            assert_eq!(
                [
                    c("gap_detected", None),
                    c("gap_abandoned", None),
                    c("re_request", None)
                ],
                [
                    client.reorderer().stats().requests,
                    client.abandoned_gaps(),
                    client.re_requests()
                ]
            );
            let fills = client.fill_latencies_ps();
            let fill_ps = snap.entries.iter().find(|e| e.name == "fill_ps");
            let Some(SnapshotValue::Distribution {
                count,
                sum,
                min,
                max,
                ..
            }) = fill_ps.map(|e| &e.value)
            else {
                panic!("feed/fill_ps is a distribution: {fill_ps:?}");
            };
            assert_eq!(
                (*count, *sum, Some(min), Some(max)),
                (
                    fills.len() as u64,
                    fills.iter().map(|&f| u128::from(f)).sum(),
                    fills.iter().min(),
                    fills.iter().max()
                )
            );
            let (id, unit) = find::<RetransUnit>(&sim);
            let s = unit.stats();
            assert_eq!(
                [
                    c("retrans_req", Some(id.0)),
                    c("retrans_replay", Some(id.0)),
                    c("retrans_refused", Some(id.0))
                ],
                [s.requests_in, s.replays_out, s.refused]
            );
            check_fault_links(&snap);
        }
        let (_, sim) = full_ab_run();
        let snap = snapshot(&sim);
        let c = |name| counter(&snap, "feed", name, None);
        let s = find::<AbReceiver>(&sim).1.arbiter().stats();
        assert!(s.accepted > 0 && s.full_duplicates > 0);
        assert_eq!(
            [
                c("arb_accepted"),
                c("arb_duplicate"),
                c("arb_gap"),
                c("arb_gap_msgs"),
                c("a_offered"),
                c("a_won"),
                c("b_offered"),
                c("b_won")
            ],
            [
                s.accepted,
                s.full_duplicates,
                s.gap_events,
                s.gap_messages,
                s.side_a.offered,
                s.side_a.won,
                s.side_b.offered,
                s.side_b.won
            ]
        );
        check_fault_links(&snap);
    }

    #[test]
    fn ab_failover_reuses_frame_buffers_after_warm_up() {
        let mut cfg = AbFailoverConfig::new(4);
        cfg.packets = 1_000;
        cfg.obs = ObsConfig {
            profile: true,
            ..ObsConfig::off()
        };
        let (run, sim) = ab_failover_sim(&cfg);
        assert_eq!(run.delivered_messages, run.published_messages);
        // 2,000 frames built; only the few in flight at once are ever
        // allocated, because the receiver hands every one back.
        let p = sim.profile().expect("profile on");
        assert!(p.arena_allocated <= 8, "{}", p.arena_allocated);
        assert!(p.arena_reused >= 1_900, "{}", p.arena_reused);
    }

    #[test]
    fn ab_failover_is_deterministic() {
        let cfg = AbFailoverConfig::new(8);
        let mut small = cfg.clone();
        small.packets = 1_000;
        let a = run_ab_failover(&small);
        let b = run_ab_failover(&small);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.events, b.events);
    }
}
