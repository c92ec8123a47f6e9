//! Differential property tests for the pluggable event schedulers: over
//! random fan-out topologies — mixed link speeds, store-and-forward hops,
//! optional fault-degraded links, telemetry on or off — the binary heap
//! and the calendar queue must pop the exact same `(time, seq)` order,
//! observed as bit-identical trace digests, event counts, and per-sink
//! delivery tallies.
//!
//! This is the contract that makes `ScenarioConfig::scheduler` a pure
//! performance knob: no choice of scheduler may ever change a result.
//!
//! A second plant manufactures what the heap's equal-instant runs are
//! built from — same-instant timer bursts, driver injections at that very
//! instant, cross-shard arrivals among a shard's provisional seqs — and
//! compares the stored trace event by event.

use proptest::prelude::*;

use trading_networks::fault::{FaultLink, FaultSpec};
use trading_networks::netdev::{EtherLink, TxQueue};
use trading_networks::sim::{
    Context, Frame, IdealLink, Link, Node, PortId, SchedulerKind, ShardPlan, ShardedSimulator,
    SimTime, Simulator, TimerToken, TraceEvent,
};

const TICK: TimerToken = TimerToken(1);

/// Emits `count` pooled frames, one per timer firing, cycling across
/// `branches` output ports — the fan-out root.
struct FanSource {
    interval: SimTime,
    count: u32,
    payload: usize,
    branches: u32,
    sent: u32,
}

impl Node for FanSource {
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _port: PortId, _frame: Frame) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        debug_assert_eq!(timer, TICK);
        let frame = ctx.frame().zeroed(self.payload).build();
        ctx.send(PortId((self.sent % self.branches) as u16), frame);
        self.sent += 1;
        if self.sent < self.count {
            ctx.set_timer(self.interval, TICK);
        }
    }
}

/// A middle hop: either cut-through (forward immediately) or
/// store-and-forward (hold each frame for a fixed service time).
struct Hop {
    hold: Option<SimTime>,
    held: std::collections::VecDeque<Frame>,
}

impl Node for Hop {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        match self.hold {
            None => ctx.send(PortId(1), frame),
            Some(service) => {
                self.held.push_back(frame);
                ctx.set_timer(service, TICK);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        debug_assert_eq!(timer, TICK);
        if let Some(frame) = self.held.pop_front() {
            ctx.send(PortId(1), frame);
        }
    }
}

/// Counts deliveries and recycles every payload into the frame arena.
#[derive(Default)]
struct Sink {
    delivered: u64,
    bytes: u64,
}

impl Node for Sink {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        self.delivered += 1;
        self.bytes += frame.bytes.len() as u64;
        ctx.recycle(frame);
    }
}

/// One link of a branch, as drawn by proptest.
#[derive(Debug, Clone, Copy)]
struct LinkPlan {
    /// `None` is an ideal link; `Some(bps)` serializes.
    rate_bps: Option<u64>,
    prop_ns: u64,
}

impl LinkPlan {
    /// Build the link, optionally behind a [`FaultLink`] with `loss`
    /// iid drop probability (seeded off this link's position).
    fn build(&self, fault: Option<(u64, f64)>) -> Box<dyn Link> {
        let prop = SimTime::from_ns(self.prop_ns);
        match (self.rate_bps, fault) {
            (None, None) => Box::new(IdealLink::new(prop)),
            (Some(bps), None) => Box::new(EtherLink::new(bps, prop)),
            (None, Some((seed, p))) => Box::new(FaultLink::wrap(
                IdealLink::new(prop),
                FaultSpec::new(seed).with_iid_loss(p),
            )),
            (Some(bps), Some((seed, p))) => Box::new(FaultLink::wrap(
                EtherLink::new(bps, prop),
                FaultSpec::new(seed).with_iid_loss(p),
            )),
        }
    }
}

/// One branch of the fan-out: hold times for its hops, then its links
/// (`hops.len() + 1` of them).
#[derive(Debug, Clone)]
struct BranchPlan {
    hops: Vec<Option<u64>>, // ns; None = cut-through
    links: Vec<LinkPlan>,
}

#[derive(Debug, Clone)]
struct Plan {
    seed: u64,
    branches: Vec<BranchPlan>,
    /// iid loss probability on every link when faults are on.
    loss: f64,
    frames: u32,
    payload: usize,
    interval_ns: u64,
}

fn arb_link() -> impl Strategy<Value = LinkPlan> {
    (
        prop_oneof![
            Just(None),
            Just(Some(1_000_000_000u64)),
            Just(Some(10_000_000_000u64)),
        ],
        0u64..20_000,
    )
        .prop_map(|(rate_bps, prop_ns)| LinkPlan { rate_bps, prop_ns })
}

fn arb_branch() -> impl Strategy<Value = BranchPlan> {
    let hold = prop_oneof![Just(None), (1u64..5_000).prop_map(Some)];
    proptest::collection::vec(hold, 0..3).prop_flat_map(|hops| {
        let links = proptest::collection::vec(arb_link(), hops.len() + 1..hops.len() + 2);
        (Just(hops), links).prop_map(|(hops, links)| BranchPlan { hops, links })
    })
}

fn arb_plan() -> impl Strategy<Value = Plan> {
    (
        proptest::collection::vec(arb_branch(), 1..4),
        any::<u64>(),
        1u32..40,
        1u32..24,
        32usize..512,
        100u64..50_000,
    )
        .prop_map(
            |(branches, seed, loss_pct, frames, payload, interval_ns)| Plan {
                seed,
                branches,
                loss: f64::from(loss_pct) / 100.0,
                frames,
                payload,
                interval_ns,
            },
        )
}

/// What one run distills to: `(digest, events, per-sink (count, bytes))`.
type RunResult = (u64, u64, Vec<(u64, u64)>);

fn run_plan(plan: &Plan, kind: SchedulerKind, faults: bool, telemetry: bool) -> RunResult {
    let mut sim = Simulator::with_scheduler(plan.seed, kind);
    if telemetry {
        sim.set_provenance(true);
    }
    let src = sim.add_node(
        "src",
        FanSource {
            interval: SimTime::from_ns(plan.interval_ns),
            count: plan.frames,
            payload: plan.payload,
            branches: plan.branches.len() as u32,
            sent: 0,
        },
    );
    let mut sinks = Vec::new();
    for (bi, branch) in plan.branches.iter().enumerate() {
        let mut prev = src;
        let mut prev_port = PortId(bi as u16);
        for (hi, hold) in branch.hops.iter().enumerate() {
            let hop = sim.add_node(
                format!("hop{bi}.{hi}"),
                Hop {
                    hold: hold.map(SimTime::from_ns),
                    held: std::collections::VecDeque::new(),
                },
            );
            let fault = faults.then(|| ((bi * 31 + hi) as u64, plan.loss));
            sim.install_link(
                prev,
                prev_port,
                hop,
                PortId(0),
                branch.links[hi].build(fault),
            );
            prev = hop;
            prev_port = PortId(1);
        }
        let sink = sim.add_node(format!("sink{bi}"), Sink::default());
        let fault = faults.then(|| ((bi * 31 + branch.hops.len()) as u64, plan.loss));
        sim.install_link(
            prev,
            prev_port,
            sink,
            PortId(0),
            branch.links[branch.hops.len()].build(fault),
        );
        sinks.push(sink);
    }
    sim.schedule_timer(SimTime::from_ns(10), src, TICK);
    sim.run();
    let tallies = sinks
        .iter()
        .map(|&s| {
            let sink = sim.node::<Sink>(s).expect("sink");
            (sink.delivered, sink.bytes)
        })
        .collect();
    (sim.trace.digest(), sim.trace.recorded(), tallies)
}

proptest! {
    /// For every random fan-out plan, every `{faults} × {telemetry}`
    /// setting runs bit-for-bit identically under both schedulers, and
    /// telemetry never moves a digest.
    #[test]
    fn schedulers_are_equivalent_on_random_topologies(plan in arb_plan()) {
        for faults in [false, true] {
            let mut baseline: Option<RunResult> = None;
            for telemetry in [false, true] {
                let heap = run_plan(&plan, SchedulerKind::BinaryHeap, faults, telemetry);
                for kind in SchedulerKind::ALL {
                    let other = run_plan(&plan, kind, faults, telemetry);
                    prop_assert_eq!(
                        &heap, &other,
                        "{} diverged (faults={}, telemetry={})", kind.name(), faults, telemetry
                    );
                }
                if !faults {
                    // Lossless fan-out must deliver every frame somewhere.
                    let total: u64 = heap.2.iter().map(|(n, _)| n).sum();
                    prop_assert_eq!(total, u64::from(plan.frames));
                }
                match &baseline {
                    None => baseline = Some(heap),
                    Some(b) => prop_assert_eq!(b, &heap, "telemetry moved the digest"),
                }
            }
        }
    }
}

const KICK: TimerToken = TimerToken(1);
const FIRE: TimerToken = TimerToken(2);
const TXQ: u64 = 3;

/// One station of the run plant. A `KICK` sets `burst` timers for one
/// instant (consecutive seqs: a run in the heap); each `FIRE` builds a
/// frame and hands it to the station's [`TxQueue`], whose completion
/// timers — with zero service time — land on the instant being popped and
/// extend the run mid-drain; each completion sends to the next station of
/// the ring, where the arrivals share an instant with that station's own
/// next burst. A frame's tag is the hops it has left.
struct Station {
    txq: TxQueue,
    service: SimTime,
    burst: u32,
    gap: SimTime,
    period: SimTime,
    kicks_left: u32,
    hops: u64,
}

impl Node for Station {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, mut frame: Frame) {
        if frame.meta.tag == 0 {
            ctx.recycle(frame);
        } else {
            frame.meta.tag -= 1;
            self.txq.send_after(ctx, self.service, PortId(0), frame);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        if timer == KICK {
            for _ in 0..self.burst {
                ctx.set_timer(self.gap, FIRE);
            }
            self.kicks_left -= 1;
            if self.kicks_left > 0 {
                ctx.set_timer(self.period, KICK);
            }
        } else if timer == FIRE {
            let frame = ctx.frame().zeroed(64).tag(self.hops).build();
            self.txq.send_after(ctx, self.service, PortId(0), frame);
        } else {
            self.txq.on_timer(ctx, timer);
        }
    }
}

#[derive(Debug, Clone)]
struct RunPlant {
    /// Per-station TxQueue service time, ns; zero keeps every completion
    /// on the instant of the timer that caused it.
    service_ns: Vec<u64>,
    burst: u32,
    gap_ns: u64,
    /// Ring link delay, and the kick period: arrivals meet the next burst.
    link_ns: u64,
    kicks: u32,
    hops: u64,
    /// Timer/frame pairs the driver schedules for the first burst's
    /// instant before the run starts.
    injected: u32,
}

fn arb_run_plant() -> impl Strategy<Value = RunPlant> {
    (
        proptest::collection::vec(prop_oneof![Just(0u64), Just(0u64), 1u64..40], 2..5),
        1u32..24,
        1u64..200,
        50u64..2_000,
        1u32..4,
        0u64..3,
        0u32..12,
    )
        .prop_map(
            |(service_ns, burst, gap_ns, link_ns, kicks, hops, injected)| RunPlant {
                service_ns,
                burst,
                gap_ns,
                link_ns,
                kicks,
                hops,
                injected,
            },
        )
}

/// Build the ring, queue the driver's events and run it to completion,
/// serially or split `shards` ways; the stored trace is the result.
fn run_plant(plant: &RunPlant, kind: SchedulerKind, shards: Option<u16>) -> Vec<TraceEvent> {
    let mut sim = Simulator::with_scheduler(7, kind);
    sim.trace.set_enabled(true);
    let link = SimTime::from_ns(plant.link_ns);
    let stations: Vec<_> = plant
        .service_ns
        .iter()
        .enumerate()
        .map(|(i, &service_ns)| {
            sim.add_node(
                format!("station{i}"),
                Station {
                    txq: TxQueue::new(TXQ),
                    service: SimTime::from_ns(service_ns),
                    burst: plant.burst,
                    gap: SimTime::from_ns(plant.gap_ns),
                    period: link,
                    kicks_left: plant.kicks,
                    hops: plant.hops,
                },
            )
        })
        .collect();
    let n = stations.len();
    for i in 0..n {
        let next = stations[(i + 1) % n];
        let wire = Box::new(IdealLink::new(link));
        sim.install_link(stations[i], PortId(0), next, PortId(1), wire);
    }
    // The driver's own events for the first burst's instant, timers and
    // frames alternating under consecutive seqs, ahead of the kicks that
    // will set that burst.
    let start = SimTime::from_ns(10);
    let first_burst = start + SimTime::from_ns(plant.gap_ns);
    for i in 0..plant.injected as usize {
        sim.schedule_timer(first_burst, stations[i % n], FIRE);
        let frame = sim.frame().zeroed(64).tag(1).build();
        sim.inject_frame(first_burst, stations[(i + 1) % n], PortId(1), frame);
    }
    for &station in &stations {
        sim.schedule_timer(start, station, KICK);
    }
    let drain = SimTime::from_ms(1);
    let sim = match shards {
        None => {
            sim.run_until(drain);
            sim
        }
        Some(k) => {
            let plan = ShardPlan::auto(&sim, k);
            let mut sharded = ShardedSimulator::split(sim, &plan).expect("auto plans validate");
            sharded.run_until(drain);
            sharded.finish()
        }
    };
    assert_eq!(sim.pending_events(), 0, "plant never drained");
    sim.trace.events().to_vec()
}

proptest! {
    /// The run plant's stored trace is the same, event by event, under
    /// every scheduler and split two and three ways.
    #[test]
    fn same_instant_runs_replay_event_by_event(plant in arb_run_plant()) {
        let want = run_plant(&plant, SchedulerKind::CalendarQueue, None);
        let ties = want.windows(2).filter(|w| w[0].at == w[1].at).count();
        prop_assert!(
            ties >= plant.burst as usize - 1,
            "the plant made no same-instant burst: {} ties", ties
        );
        let runs = [
            (SchedulerKind::BinaryHeap, None),
            (SchedulerKind::TimingWheel, None),
            (SchedulerKind::BinaryHeap, Some(2)),
            (SchedulerKind::BinaryHeap, Some(3)),
        ];
        for (kind, shards) in runs {
            let got = run_plant(&plant, kind, shards);
            let first_diff = want.iter().zip(&got).position(|(w, g)| w != g);
            prop_assert_eq!(
                first_diff.map(|i| (i, want[i], got[i])), None,
                "{} shards={:?} diverged", kind.name(), shards
            );
            prop_assert_eq!(want.len(), got.len(), "{} shards={:?}", kind.name(), shards);
        }
    }
}
