//! Shared latency-decomposition scenario.
//!
//! `latency-decomposition` (E21) and tn-audit's
//! `latency-decomposition` divergence scenario run *exactly* this code —
//! one implementation, so the digest the audit pins is the digest the
//! experiment prints.
//!
//! The chain is the paper's §2 measurement setup in miniature: a bursty
//! source, a fast ingress hop into an optical [`Tap`], a slower 1 Gb/s
//! hop into a store-and-forward relay, and a last hop to the consumer.
//! Bursts overrun the slow link and the relay holds every frame for a
//! fixed service time, so every
//! [`SegmentKind`](tn_sim::SegmentKind) shows up in the decomposition —
//! processing at the relay, queueing and serialization on the slow hop,
//! propagation everywhere.

use tn_netdev::{EtherLink, Tap};
use tn_obs::TraceWriter;
use tn_sim::{
    Context, Frame, KernelProfile, Node, ObsConfig, PortId, Provenance, SchedulerKind, SimTime,
    Simulator, Snapshot, TimerToken,
};

const TICK: TimerToken = TimerToken(1);

/// Workload knobs for the decomposition chain.
#[derive(Debug, Clone)]
pub struct DecompositionConfig {
    /// Kernel seed.
    pub seed: u64,
    /// Timer firings at the source.
    pub bursts: u64,
    /// Frames sent back-to-back per firing (overruns the slow egress
    /// link, so queueing time is real, not synthetic).
    pub burst_frames: u32,
    /// Frame payload bytes.
    pub payload: usize,
    /// Gap between bursts.
    pub interval: SimTime,
    /// Per-frame hold time at the relay (its processing service).
    pub relay_service: SimTime,
    /// Event scheduler the kernel runs on (digest-neutral).
    pub scheduler: SchedulerKind,
}

impl DecompositionConfig {
    /// Default workload: 64 bursts of 4×512 B frames every 20 µs — a
    /// burst serializes in ~16 µs on the 1 Gb/s hop, so queues build
    /// within a burst and drain before the next (§4.3's bursty feeds,
    /// not a saturated link).
    pub fn new(seed: u64) -> DecompositionConfig {
        DecompositionConfig {
            seed,
            bursts: 64,
            burst_frames: 4,
            payload: 512,
            interval: SimTime::from_us(20),
            relay_service: SimTime::from_us(1),
            scheduler: SchedulerKind::BinaryHeap,
        }
    }
}

/// Timer-driven burst source: every `interval` it emits `burst_frames`
/// frames back-to-back on port 0.
struct BurstSource {
    interval: SimTime,
    bursts: u64,
    burst_frames: u32,
    payload: usize,
    sent: u64,
    fired: u64,
}

impl Node for BurstSource {
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _port: PortId, _frame: Frame) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        debug_assert_eq!(timer, TICK);
        for _ in 0..self.burst_frames {
            // Pooled zero-fill: the sink recycles every payload buffer, so
            // in steady state no burst allocates.
            let frame = ctx.frame().zeroed(self.payload).build();
            ctx.send(PortId(0), frame);
            self.sent += 1;
        }
        self.fired += 1;
        if self.fired < self.bursts {
            ctx.set_timer(self.interval, TICK);
        }
    }
}

/// Store-and-forward relay: holds each arrival for a fixed service time
/// before forwarding on port 1 — the chain's only *processing* stage, so
/// the `process` segments in the decomposition are its doing.
struct Relay {
    service: SimTime,
    held: std::collections::VecDeque<Frame>,
}

impl Node for Relay {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        self.held.push_back(frame);
        ctx.set_timer(self.service, TICK);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        debug_assert_eq!(timer, TICK);
        if let Some(frame) = self.held.pop_front() {
            ctx.send(PortId(1), frame);
        }
    }
}

/// One frame as it arrived at the sink.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Frame id.
    pub frame: u64,
    /// Birth time at the source, picoseconds.
    pub born_ps: u64,
    /// Arrival time at the sink, picoseconds.
    pub arrived_ps: u64,
    /// The frame's accumulated journey (present when provenance was on).
    pub provenance: Option<Provenance>,
}

impl Delivery {
    /// End-to-end latency measured independently of provenance.
    pub fn latency_ps(&self) -> u64 {
        self.arrived_ps - self.born_ps
    }

    /// `|provenance total − measured latency|`; 0 when provenance is off.
    pub fn residual_ps(&self) -> u64 {
        match &self.provenance {
            Some(p) => p.total_ps().abs_diff(self.latency_ps()),
            None => 0,
        }
    }
}

/// Frame collector harvesting each arrival's provenance.
#[derive(Default)]
struct SinkNode {
    deliveries: Vec<Delivery>,
}

impl Node for SinkNode {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, mut frame: Frame) {
        self.deliveries.push(Delivery {
            frame: frame.id.0,
            born_ps: frame.born.as_ps(),
            arrived_ps: ctx.now().as_ps(),
            provenance: frame.meta.provenance.take().map(|b| *b),
        });
        // Terminal consumer: hand the payload buffer back to the arena so
        // the source's next burst reuses it.
        ctx.recycle(frame);
    }
}

/// What one decomposition run produced.
#[derive(Debug, Clone)]
pub struct DecompositionRun {
    /// Frames the source emitted.
    pub sent_frames: u64,
    /// Arrivals at the sink, in order.
    pub deliveries: Vec<Delivery>,
    /// `(node id, name)` of the chain, source first.
    pub nodes: Vec<(u32, String)>,
    /// Largest `|provenance total − measured latency|` over all
    /// deliveries — the reconciliation error, which must be 0.
    pub max_residual_ps: u64,
    /// Metrics snapshot at the deadline (when provenance was on).
    pub snapshot: Option<Snapshot>,
    /// Kernel self-profile (when the profiler was on).
    pub profile: Option<KernelProfile>,
    /// Kernel trace digest.
    pub digest: u64,
    /// Events folded into the digest.
    pub events: u64,
}

/// Run the chain under the given telemetry switches. The digest must not
/// depend on `obs` — that is the invariant `tn-audit divergence` pins.
pub fn run_decomposition(cfg: &DecompositionConfig, obs: ObsConfig) -> DecompositionRun {
    let mut sim = Simulator::with_scheduler(cfg.seed, cfg.scheduler);
    sim.set_obs(&obs);
    let src = sim.add_node(
        "src",
        BurstSource {
            interval: cfg.interval,
            bursts: cfg.bursts,
            burst_frames: cfg.burst_frames,
            payload: cfg.payload,
            sent: 0,
            fired: 0,
        },
    );
    let tap = sim.add_node("tap", Tap::new());
    let relay = sim.add_node(
        "relay",
        Relay {
            service: cfg.relay_service,
            held: std::collections::VecDeque::new(),
        },
    );
    let sink = sim.add_node("sink", SinkNode::default());
    // Fast ingress into the tap, a 1 Gb/s middle hop with metro-scale
    // propagation (dominates, and queues under bursts), then a clean
    // last hop out of the relay.
    sim.install_link(
        src,
        PortId(0),
        tap,
        PortId(0),
        Box::new(EtherLink::new(10_000_000_000, SimTime::from_ns(500))),
    );
    sim.install_link(
        tap,
        PortId(1),
        relay,
        PortId(0),
        Box::new(EtherLink::new(1_000_000_000, SimTime::from_us(5))),
    );
    sim.install_link(
        relay,
        PortId(1),
        sink,
        PortId(0),
        Box::new(EtherLink::new(10_000_000_000, SimTime::from_ns(500))),
    );
    sim.schedule_timer(SimTime::from_us(10), src, TICK);
    let deadline = cfg.interval * cfg.bursts + SimTime::from_ms(1);
    sim.run_until(deadline);

    let sent_frames = sim.node::<BurstSource>(src).expect("src").sent;
    let deliveries = sim.node::<SinkNode>(sink).expect("sink").deliveries.clone();
    let max_residual_ps = deliveries
        .iter()
        .map(Delivery::residual_ps)
        .max()
        .unwrap_or(0);
    let snapshot = sim.metrics_snapshot(deadline.as_ps());
    DecompositionRun {
        sent_frames,
        deliveries,
        nodes: vec![
            (src.0, "src".into()),
            (tap.0, "tap".into()),
            (relay.0, "relay".into()),
            (sink.0, "sink".into()),
        ],
        max_residual_ps,
        snapshot,
        profile: sim.profile(),
        digest: sim.trace.digest(),
        events: sim.trace.recorded(),
    }
}

/// Render a run as `tn-trace/v1` JSONL: meta, node bindings, one span per
/// provenance segment, one event per arrival, and the metric snapshot.
pub fn trace_jsonl(cfg: &DecompositionConfig, run: &DecompositionRun) -> String {
    let mut w = TraceWriter::new("latency-decomposition", cfg.seed);
    for (id, name) in &run.nodes {
        w.node(*id, name);
    }
    let sink = run.nodes.last().map(|(id, _)| *id).unwrap_or(0);
    for d in &run.deliveries {
        if let Some(p) = &d.provenance {
            w.provenance(d.frame, p);
        }
        w.event(d.arrived_ps, sink, "deliver", d.latency_ps());
    }
    if let Some(snap) = &run.snapshot {
        w.snapshot(snap);
    }
    w.to_jsonl()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_reconciles_and_ignores_obs_for_digest() {
        let cfg = DecompositionConfig::new(11);
        let off = run_decomposition(&cfg, ObsConfig::off());
        let on = run_decomposition(&cfg, ObsConfig::full());
        assert_eq!(off.digest, on.digest);
        assert_eq!(off.events, on.events);
        assert_eq!(on.sent_frames, 256);
        assert_eq!(on.deliveries.len(), 256);
        // Segment sums reconcile exactly against the independent clock.
        assert_eq!(on.max_residual_ps, 0);
        // Bursts overrun the 1 Gb/s hop and the relay holds every frame:
        // all four segment kinds carry real time.
        let total = |kind: tn_sim::SegmentKind| -> u64 {
            on.deliveries
                .iter()
                .flat_map(|d| d.provenance.as_ref().unwrap().segments())
                .filter(|s| s.kind == kind)
                .map(|s| s.duration_ps())
                .sum()
        };
        for kind in tn_sim::SegmentKind::ALL {
            assert!(total(kind) > 0, "{kind:?} never observed");
        }
        assert!(off.deliveries.iter().all(|d| d.provenance.is_none()));
        // Full observability includes the kernel profiler; off means off.
        assert!(on.profile.is_some() && off.profile.is_none());
        assert!(on.profile.as_ref().unwrap().frames > 0);
    }

    /// FNV-1a of E21's full-observability registry snapshot, rendered
    /// with `Debug`, as recorded before device counters became views of
    /// the devices' own stats.
    #[test]
    fn full_obs_snapshot_is_pinned() {
        let run = run_decomposition(&DecompositionConfig::new(42), ObsConfig::full());
        let snap = run.snapshot.expect("registry was on");
        let pin = tn_sim::fnv1a_fold(tn_sim::EMPTY_DIGEST, format!("{snap:?}").as_bytes());
        assert_eq!(pin, 0xcca7_77e9_de0c_3da2, "{pin:#018x}");
    }

    #[test]
    fn trace_round_trips_through_the_parser() {
        let cfg = DecompositionConfig::new(11);
        let run = run_decomposition(&cfg, ObsConfig::full());
        let jsonl = trace_jsonl(&cfg, &run);
        let doc = tn_obs::parse(&jsonl).expect("valid tn-trace/v1");
        assert_eq!(doc.scenario, "latency-decomposition");
        assert_eq!(doc.seed, 11);
        assert!(!doc.spans.is_empty());
        let summary = tn_obs::summarize(&doc);
        assert!(summary.total_ps() > 0);
    }
}
