//! Differential property tests for sharded execution: over random
//! fan-out topologies — mixed link speeds, store-and-forward hops,
//! optional fault-degraded links — a [`ShardedSimulator`] split into any
//! number of shards, under any scheduler, must reproduce the serial
//! kernel bit-for-bit: identical trace digests, event counts, and
//! per-sink delivery tallies. Random manual assignments must either be
//! rejected up front (zero-delay cut) or reproduce the serial run too.
//!
//! No partition may ever change a result.

use proptest::prelude::*;

use trading_networks::fault::{FaultLink, FaultSpec};
use trading_networks::netdev::{EtherLink, TxQueue};
use trading_networks::sim::{
    Context, Frame, IdealLink, Link, Node, PortId, SchedulerKind, ShardError, ShardPlan,
    ShardedSimulator, SimTime, Simulator, TimerToken,
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

/// Counts deliveries, notes their frame ids, and recycles every payload
/// into the frame arena.
#[derive(Default)]
struct Sink {
    delivered: u64,
    bytes: u64,
    ids: Vec<u64>,
}

impl Node for Sink {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        self.delivered += 1;
        self.bytes += frame.bytes.len() as u64;
        self.ids.push(frame.id.0);
        ctx.recycle(frame);
    }
}

/// Serves every frame through a [`TxQueue`] before sending it out of
/// port 1, so a backlog waits in the queue's completion timers.
struct Station {
    txq: TxQueue,
    service: SimTime,
}

impl Node for Station {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        self.txq.send_after(ctx, self.service, PortId(1), frame);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        let consumed = self.txq.on_timer(ctx, timer);
        debug_assert!(consumed, "unexpected timer {timer:?}");
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
    /// iid drop probability (seeded off this link's position). The
    /// fault layer draws from its own PRNG, never the kernel coin, so
    /// every partition replays the same drop decisions.
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

/// Build the fan-out simulator a plan describes; returns the sim and its
/// sink node ids.
fn build_plan(
    plan: &Plan,
    kind: SchedulerKind,
    faults: bool,
) -> (Simulator, Vec<trading_networks::sim::NodeId>) {
    let mut sim = Simulator::with_scheduler(plan.seed, kind);
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
    (sim, sinks)
}

/// Far beyond the last event any plan can schedule (frames × interval
/// plus path delays tops out well under a millisecond × 24).
const DRAIN: SimTime = SimTime::from_ms(100);

/// What one run distills to: `(digest, events, per-sink (count, bytes))`.
type RunResult = (u64, u64, Vec<(u64, u64)>);

fn harvest(sim: &Simulator, sinks: &[trading_networks::sim::NodeId]) -> RunResult {
    let tallies = sinks
        .iter()
        .map(|&s| {
            let sink = sim.node::<Sink>(s).expect("sink");
            (sink.delivered, sink.bytes)
        })
        .collect();
    (sim.trace.digest(), sim.trace.recorded(), tallies)
}

fn run_serial(plan: &Plan, kind: SchedulerKind, faults: bool) -> RunResult {
    let (mut sim, sinks) = build_plan(plan, kind, faults);
    sim.run_until(DRAIN);
    harvest(&sim, &sinks)
}

/// Run under an auto plan with `k` shards; `threshold` is the
/// parallel-dispatch knob (0 forces scoped OS threads every window).
fn run_auto(plan: &Plan, kind: SchedulerKind, faults: bool, k: u16, threshold: usize) -> RunResult {
    let (sim, sinks) = build_plan(plan, kind, faults);
    let shard_plan = ShardPlan::auto(&sim, k);
    let mut sharded =
        ShardedSimulator::split(sim, &shard_plan).expect("auto plans always validate");
    sharded.set_parallel_threshold(threshold);
    sharded.run_until(DRAIN);
    let sim = sharded.finish();
    harvest(&sim, &sinks)
}

/// Run under a derived pseudo-random manual assignment. Returns `None`
/// when the assignment is (legitimately) rejected — a zero-delay or
/// coin-consuming cut — which the caller counts as vacuous.
fn run_manual(plan: &Plan, faults: bool, assign_seed: u64) -> Option<(Vec<u32>, RunResult)> {
    let (sim, sinks) = build_plan(plan, SchedulerKind::BinaryHeap, faults);
    let shards = 2 + (assign_seed % 3) as u32; // 2..=4
    let mut x = assign_seed | 1;
    let assignment: Vec<u32> = (0..sim.node_count())
        .map(|_| {
            // xorshift: cheap, deterministic, seed-derived spread.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % u64::from(shards)) as u32
        })
        .collect();
    let shard_plan = ShardPlan::manual(assignment.clone());
    match shard_plan.validate(&sim) {
        Err(ShardError::ZeroDelayCut { .. }) | Err(ShardError::CoinLink { .. }) => return None,
        Err(e) => panic!("unexpected rejection of a covering assignment: {e}"),
        Ok(()) => {}
    }
    let mut sharded = ShardedSimulator::split(sim, &shard_plan).expect("validated above");
    sharded.run_until(DRAIN);
    let sim = sharded.finish();
    Some((assignment, harvest(&sim, &sinks)))
}

proptest! {
    /// For every random fan-out plan, every shard count 1..=8 under
    /// every scheduler — faulted or not — reproduces the serial kernel
    /// bit-for-bit, and forcing real OS threads changes nothing.
    #[test]
    fn sharded_runs_match_serial_on_random_topologies(
        plan in arb_plan(),
        k in 1u16..=8,
    ) {
        for faults in [false, true] {
            for kind in SchedulerKind::ALL {
                let serial = run_serial(&plan, kind, faults);
                let sharded = run_auto(&plan, kind, faults, k, usize::MAX);
                prop_assert_eq!(
                    &serial, &sharded,
                    "{} diverged sharded (k={}, faults={})", kind.name(), k, faults
                );
            }
            // One threaded pass per plan: scoped threads every window
            // must execute the identical merge, so the digest holds.
            let serial = run_serial(&plan, SchedulerKind::BinaryHeap, faults);
            let threaded = run_auto(&plan, SchedulerKind::BinaryHeap, faults, k, 0);
            prop_assert_eq!(
                &serial, &threaded,
                "threaded windows diverged (k={}, faults={})", k, faults
            );
        }
    }

    /// Random manual assignments either get rejected at validation (a
    /// zero-delay or coin cut — never silently accepted) or reproduce
    /// the serial run exactly.
    #[test]
    fn random_manual_assignments_match_serial_or_reject(
        plan in arb_plan(),
        assign_seed in any::<u64>(),
    ) {
        for faults in [false, true] {
            if let Some((assignment, sharded)) = run_manual(&plan, faults, assign_seed) {
                let serial = run_serial(&plan, SchedulerKind::BinaryHeap, faults);
                prop_assert_eq!(
                    &serial, &sharded,
                    "manual assignment {:?} diverged (faults={})", assignment, faults
                );
            }
        }
    }
}

/// Regression (folded in from the PR-9 review probe
/// `tmp_coin_probe.rs`): what a kernel-coin (lossy) link does to a
/// sharded run, pinned in all three directions.
///
/// 1. *Cutting* a coin link is refused at validation — the documented
///    `ShardError::CoinLink` contract.
/// 2. An *intra-shard* coin link is accepted, and the sharded run is
///    self-deterministic (two runs agree bit-for-bit).
/// 3. But it still **diverges from the serial run** — per-shard kernel
///    PRNG streams differ from the serial stream, exactly as the
///    `tn_sim::shard` module docs warn. That divergence is the probe's
///    finding and the reason every fault model the designs use
///    (`FaultLink`) owns its *own* seeded PRNG instead of the kernel
///    coin; this test keeps anyone from quietly "fixing" the docs
///    instead of the mechanism.
#[test]
fn intra_shard_kernel_coin_link_diverges_from_serial_by_contract() {
    struct Ticker {
        period: SimTime,
        ticks_left: u32,
    }
    impl Node for Ticker {
        fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
            ctx.recycle(frame);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
            let f = ctx
                .frame()
                .zeroed(64)
                .tag(u64::from(self.ticks_left))
                .build();
            ctx.send(PortId(0), f);
            if self.ticks_left > 0 {
                self.ticks_left -= 1;
                ctx.set_timer(self.period, timer);
            }
        }
    }
    let build = || {
        let mut sim = Simulator::new(42);
        let a = sim.add_node(
            "a",
            Ticker {
                period: SimTime::from_ns(100),
                ticks_left: 200,
            },
        );
        let b = sim.add_node("b", Sink::default());
        let c = sim.add_node("c", Sink::default());
        // Lossy (kernel-coin) link fully inside shard 0.
        let lossy = EtherLink::ten_gig(SimTime::from_ns(5)).with_loss(0.3);
        sim.install_link(a, PortId(0), b, PortId(0), Box::new(lossy));
        // Clean cut link b->c so a 2-shard plan validates.
        sim.install_link(
            b,
            PortId(1),
            c,
            PortId(0),
            Box::new(IdealLink::new(SimTime::from_ns(50))),
        );
        sim.schedule_timer(SimTime::ZERO, a, TimerToken(1));
        sim
    };

    let deadline = SimTime::from_us(50);
    let mut serial = build();
    serial.run_until(deadline);
    let want = (serial.trace.digest(), serial.stats().frames_dropped);
    assert!(want.1 > 0, "the lossy link must actually drop frames");

    // (1) Cutting the coin link (a and b in different shards) is refused.
    let cut = ShardPlan::manual(vec![0, 1, 1]);
    assert!(
        cut.validate(&build()).is_err(),
        "a cross-shard kernel-coin link must be rejected at validation"
    );

    // (2)+(3) Intra-shard placement is accepted, deterministic, and
    // diverges from serial.
    let run_sharded = || {
        let sim = build();
        let plan = ShardPlan::manual(vec![0, 0, 1]);
        plan.validate(&sim)
            .expect("coin link is intra-shard, so validate accepts it");
        let mut sharded = ShardedSimulator::split(sim, &plan).expect("valid");
        sharded.run_until(deadline);
        let merged = sharded.finish();
        (merged.trace.digest(), merged.stats().frames_dropped)
    };
    let got = run_sharded();
    assert_eq!(got, run_sharded(), "sharded coin runs must dual-run equal");
    assert_ne!(
        got, want,
        "an intra-shard kernel-coin link replays a per-shard PRNG stream, \
         not the serial one; if this suddenly matches, the kernel grew a \
         serial-faithful coin and the shard-module docs (and this pin) \
         should both change"
    );
}

/// A deadline that falls while a service queue is backed up leaves its
/// frames riding completion timers in the shard's queue. `finish` must
/// hand them back under the ids the serial run gave them: the source
/// built them inside the same shard, so until then they carry
/// provisional ids. Run on after the merge, every release must match
/// the serial run's digest, event count and frame ids.
#[test]
fn carried_frames_pending_at_finish_keep_their_serial_ids() {
    let build = || {
        let mut sim = Simulator::new(5);
        let src = sim.add_node(
            "src",
            FanSource {
                interval: SimTime::from_ns(100),
                count: 60,
                payload: 64,
                branches: 1,
                sent: 0,
            },
        );
        let station = sim.add_node(
            "station",
            Station {
                txq: TxQueue::new(7),
                service: SimTime::from_us(1),
            },
        );
        let sink = sim.add_node("sink", Sink::default());
        let hop = |ns| Box::new(IdealLink::new(SimTime::from_ns(ns)));
        sim.install_link(src, PortId(0), station, PortId(0), hop(10));
        sim.install_link(station, PortId(1), sink, PortId(0), hop(50));
        sim.schedule_timer(SimTime::from_ns(10), src, TICK);
        (sim, station, sink)
    };
    // By 20 µs all 60 frames have reached the station, which has
    // released about 20 of them.
    let cut = SimTime::from_us(20);
    let drain = |mut sim: Simulator, sink| {
        sim.run_until(DRAIN);
        let ids = sim.node::<Sink>(sink).expect("sink").ids.clone();
        (sim.trace.digest(), sim.trace.recorded(), ids)
    };

    let (mut serial, station, sink) = build();
    serial.run_until(cut);
    let backlog = serial
        .node::<Station>(station)
        .expect("station")
        .txq
        .pending();
    assert!(
        backlog > 30,
        "only {backlog} frames were waiting at the cut"
    );
    let want = drain(serial, sink);
    assert_eq!(want.2.len(), 60);

    let (sim, _, _) = build();
    // The source and the station share shard 0; the sink is across a
    // 50 ns cut.
    let plan = ShardPlan::manual(vec![0, 0, 1]);
    let mut sharded = ShardedSimulator::split(sim, &plan).expect("the cut link has delay");
    sharded.run_until(cut);
    assert_eq!(drain(sharded.finish(), sink), want);
}
