//! What the trace digest cannot see. The digest pins *which* events ran;
//! it says nothing about whether each one also reached the statistics,
//! the metrics snapshot, the kernel profiler and the flight recorder.
//! These tests pin that: the content of the telemetry a fully-observed
//! quickstart produces, and — on a small plant that exercises every kind
//! of kernel observation — that all the sinks agree with one another and
//! that a sharded run feeds the statistics, the profile and the trace
//! exactly what the serial run does.

use trading_networks::core::{
    ScenarioConfig, Telemetry, TradingNetworkDesign, TraditionalSwitches,
};
use trading_networks::sim::{
    fnv1a_fold, Context, DropReason, FlightKind, Frame, IdealLink, Link, LinkOutcome, Node, NodeId,
    ObsConfig, PortId, ShardPlan, ShardedSimulator, SimStats, SimTime, Simulator, TimerToken,
    TraceKind, EMPTY_DIGEST,
};

fn fnv(text: &str) -> u64 {
    fnv1a_fold(EMPTY_DIGEST, text.as_bytes())
}

/// The trimmed quickstart (`tn-audit divergence`'s golden scenario) with
/// every sink on and a 512-record flight ring.
fn observed_quickstart() -> (u64, u64, u64) {
    let mut sc = ScenarioConfig::small(42);
    sc.duration = SimTime::from_ms(8);
    sc.warmup = SimTime::from_ms(1);
    sc.obs = ObsConfig::full();
    sc.obs.flight_capacity = 512;
    let report = TraditionalSwitches::default().run(&sc);
    let dump = report.flight_dump.as_deref().expect("flight recorder on");
    (report.trace_digest, fnv(&report.to_json()), fnv(dump))
}

#[test]
fn quickstart_telemetry_content_is_pinned() {
    // Computed at the commit before the kernel's observation sites were
    // folded into one function; a sink dropped at any site moves the
    // report (registry counters, kernel profile) or the flight dump.
    // The report pins were re-recorded when the run digest began folding
    // words; the report differs from its earlier self only in
    // `trace_digest`, and the flight dumps did not move.
    assert_eq!(
        observed_quickstart(),
        (
            0xc9ef_3e6d_16da_def0,
            0x7afc_37c0_4406_5b64,
            0x9e00_af87_a021_8269
        )
    );
}

const TICK: TimerToken = TimerToken(1);
const LOSSY: PortId = PortId(1);
const NOWHERE: PortId = PortId(7);

/// Each tick sends one frame down a clean link, one down a lossy link
/// and one out of a port nothing is connected to.
struct Source {
    ticks_left: u32,
}

impl Node for Source {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _: PortId, frame: Frame) {
        ctx.recycle(frame);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        for port in [PortId(0), LOSSY, NOWHERE] {
            let frame = ctx.frame().zeroed(64).build();
            ctx.send(port, frame);
        }
        if self.ticks_left > 0 {
            self.ticks_left -= 1;
            ctx.set_timer(SimTime::from_ns(130), timer);
        }
    }
}

/// Forwards every frame to the sink and hands a copy to a co-resident
/// sidecar without a link.
struct Relay {
    sidecar: NodeId,
}

impl Node for Relay {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _: PortId, frame: Frame) {
        let copy = ctx.clone_frame(&frame);
        ctx.deliver_local(self.sidecar, PortId(0), SimTime::from_ns(80), copy);
        ctx.send(PortId(1), frame);
    }
}

struct Sink;

impl Node for Sink {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _: PortId, frame: Frame) {
        ctx.recycle(frame);
    }
}

/// Drops every third frame on its own count: lossy without the kernel
/// coin, so it may sit on a shard cut.
struct EveryThirdLost {
    offered: u64,
}

impl Link for EveryThirdLost {
    fn transmit(&mut self, now: SimTime, _len: usize, _coin: f64) -> LinkOutcome {
        self.offered += 1;
        if self.offered.is_multiple_of(3) {
            LinkOutcome::Drop(DropReason::RandomLoss)
        } else {
            LinkOutcome::Deliver(now + self.propagation())
        }
    }
    fn propagation(&self) -> SimTime {
        SimTime::from_ns(60)
    }
}

/// source → relay → sink over clean links, source → sink over the lossy
/// one, relay → sidecar by local delivery, with `obs` and trace storage
/// on.
fn plant(obs: ObsConfig) -> Simulator {
    let mut sim = Simulator::new(5);
    sim.set_obs(&obs);
    sim.trace.set_enabled(true);
    let source = sim.add_node("source", Source { ticks_left: 40 });
    let sidecar = NodeId(2);
    let relay = sim.add_node("relay", Relay { sidecar });
    assert_eq!(sim.add_node("sidecar", Sink), sidecar);
    let sink = sim.add_node("sink", Sink);
    let clean = IdealLink::new(SimTime::from_ns(50));
    sim.install_link(source, PortId(0), relay, PortId(0), Box::new(clean.clone()));
    sim.install_link(relay, PortId(1), sink, PortId(0), Box::new(clean));
    let lossy = EveryThirdLost { offered: 0 };
    sim.install_link(source, LOSSY, sink, PortId(1), Box::new(lossy));
    sim.schedule_timer(SimTime::ZERO, source, TICK);
    sim
}

/// What the statistics, the profile and the trace saw: the sinks a
/// sharded run carries, reduced to what it and a serial run must agree
/// on (queue depths and the alloc/reuse split legitimately differ
/// between one arena and several).
#[derive(Debug, PartialEq, Eq)]
struct Counted {
    stats: SimStats,
    /// Profile totals: frames, timers, drops, schedules.
    profile: [u64; 4],
    /// Per node: frames, timers, drops.
    per_node: Vec<(u32, u64, u64, u64)>,
    /// Trace records: total, then deliver / timer / drop.
    trace: [u64; 4],
}

fn counted(sim: &Simulator) -> Counted {
    let profile = sim.profile().expect("profiler");
    Counted {
        stats: sim.stats(),
        profile: [
            profile.frames,
            profile.timers,
            profile.drops,
            profile.schedules,
        ],
        per_node: profile
            .per_node
            .iter()
            .map(|n| (n.node, n.frames, n.timers, n.drops))
            .collect(),
        trace: [
            sim.trace.recorded(),
            sim.trace.count(TraceKind::Deliver) as u64,
            sim.trace.count(TraceKind::Timer) as u64,
            sim.trace.count(TraceKind::Drop) as u64,
        ],
    }
}

/// Registry `kernel/{deliver,timer,unrouted,drop}` and
/// `link_drop/random_loss`, summed over nodes.
fn registry_totals(sim: &Simulator) -> [u64; 5] {
    let snapshot = sim.metrics_snapshot(sim.now().as_ps()).expect("registry");
    let registry = Telemetry::from_snapshot(&snapshot);
    let counter = |scope: &str, name: &str| registry.counter_total(scope, name);
    [
        counter("kernel", "deliver"),
        counter("kernel", "timer"),
        counter("kernel", "unrouted"),
        counter("kernel", "drop"),
        counter("link_drop", "random_loss"),
    ]
}

#[test]
fn provenance_alone_snapshots_what_full_observation_does() {
    let deadline = SimTime::from_us(3);
    let snapshot = |obs| {
        let mut sim = plant(obs);
        sim.run_until(deadline);
        sim.metrics_snapshot(deadline.as_ps())
            .expect("provenance is on")
    };
    let full = snapshot(ObsConfig::full());
    let mut scopes: Vec<&str> = full.entries.iter().map(|e| e.scope.as_str()).collect();
    scopes.dedup();
    assert_eq!(scopes, ["hop", "kernel", "link_drop"]);
    let provenance = ObsConfig {
        provenance: true,
        ..ObsConfig::off()
    };
    assert_eq!(snapshot(provenance), full);
}

/// Flight records: schedule, dispatch, drop, frame builds.
fn flight_totals(sim: &Simulator) -> [u64; 4] {
    let flight = sim.flight();
    assert_eq!(flight.total(), flight.len() as u64, "ring must not wrap");
    let flight_kind =
        |kinds: &[FlightKind]| flight.records().filter(|r| kinds.contains(&r.kind)).count() as u64;
    [
        flight_kind(&[FlightKind::Schedule]),
        flight_kind(&[FlightKind::Dispatch]),
        flight_kind(&[FlightKind::Drop]),
        flight_kind(&[FlightKind::FrameAlloc, FlightKind::FrameReuse]),
    ]
}

#[test]
fn every_sink_agrees_with_the_others_serial_and_sharded() {
    let deadline = SimTime::from_us(3);
    // Every sink on, the ring large enough that nothing scrolls off.
    let mut serial = plant(ObsConfig {
        flight_capacity: 1 << 16,
        ..ObsConfig::full()
    });
    serial.run_until(deadline);
    let want = counted(&serial);

    // The plant exercised every kind of observation…
    let s = want.stats;
    assert_eq!(s.timers_fired, 24, "deadline cuts the 41 ticks short");
    assert_eq!(s.frames_unrouted, 24);
    assert_eq!(s.frames_dropped, 8);
    assert_eq!(s.frames_delivered, 85, "{s:?}");
    // …and each sink counted the same things.
    assert_eq!(
        registry_totals(&serial),
        [
            s.frames_delivered,
            s.timers_fired,
            s.frames_unrouted,
            s.frames_dropped,
            s.frames_dropped
        ]
    );
    let lost = s.frames_dropped + s.frames_unrouted;
    let scheduled = s.events_processed + serial.pending_events() as u64;
    assert_eq!(
        want.profile,
        [s.frames_delivered, s.timers_fired, lost, scheduled]
    );
    let by_node = want
        .per_node
        .iter()
        .fold([0; 3], |sum, n| [sum[0] + n.1, sum[1] + n.2, sum[2] + n.3]);
    assert_eq!(by_node, [s.frames_delivered, s.timers_fired, lost]);
    assert_eq!(
        want.trace,
        [
            s.events_processed + lost,
            s.frames_delivered,
            s.timers_fired,
            lost
        ]
    );
    assert_eq!(
        flight_totals(&serial),
        [scheduled, s.events_processed, lost, 3 * s.timers_fired]
    );

    // A shard carries the profile and the trace, nothing else. k = 2
    // keeps the relay's local delivery on one shard; k = 3 sends it
    // across a cut (80 ns, past the relay shard's 50 ns lookahead). The
    // plant is too small to leave the leader's thread unless forced, so
    // k = 2 runs once more with every window on real threads.
    let profiled = ObsConfig {
        profile: true,
        ..ObsConfig::off()
    };
    for (assignment, threads) in [
        (vec![0, 1, 1, 0], false),
        (vec![0, 1, 2, 0], false),
        (vec![0, 1, 1, 0], true),
    ] {
        let plan = ShardPlan::manual(assignment);
        let mut sharded =
            ShardedSimulator::split(plant(profiled), &plan).expect("every cut has delay");
        if threads {
            sharded.set_parallel_threshold(0);
        }
        sharded.run_until(deadline);
        assert!(sharded.run_stats().cross_shard_frames > 0);
        let merged = sharded.finish();
        assert_eq!(merged.trace.digest(), serial.trace.digest(), "{plan:?}");
        assert_eq!(merged.trace.events(), serial.trace.events(), "{plan:?}");
        assert_eq!(counted(&merged), want, "{plan:?}");
    }
}
