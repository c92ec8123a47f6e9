//! Property tests for per-hop latency provenance: over random chain
//! topologies — mixed link speeds, store-and-forward hops, bursty
//! arrivals — every delivered frame's segment sums must reconcile exactly
//! with its end-to-end latency, and turning telemetry on must never move
//! the trace digest.

use proptest::prelude::*;

use trading_networks::netdev::EtherLink;
use trading_networks::sim::{
    Context, Frame, IdealLink, Link, Node, PortId, Provenance, SegmentKind, SimTime, Simulator,
    TimerToken,
};

const TICK: TimerToken = TimerToken(1);

/// Emits `count` frames of `payload` bytes, one per timer firing.
struct Source {
    interval: SimTime,
    count: u32,
    payload: usize,
    sent: u32,
}

impl Node for Source {
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _port: PortId, _frame: Frame) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        debug_assert_eq!(timer, TICK);
        let frame = ctx.frame().zeroed(self.payload).build();
        ctx.send(PortId(0), frame);
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

/// `(born_ps, arrived_ps, provenance)` per delivered frame.
type Deliveries = Vec<(u64, u64, Option<Provenance>)>;

/// Collects one [`Deliveries`] entry per delivered frame.
#[derive(Default)]
struct Sink {
    deliveries: Deliveries,
}

impl Node for Sink {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        self.deliveries.push((
            frame.born.as_ps(),
            ctx.now().as_ps(),
            frame.meta.provenance.map(|b| *b),
        ));
    }
}

/// One link of the chain, as drawn by proptest.
#[derive(Debug, Clone, Copy)]
struct LinkPlan {
    /// `None` is an ideal link; `Some(bps)` serializes.
    rate_bps: Option<u64>,
    prop_ns: u64,
}

impl LinkPlan {
    fn build(&self) -> Box<dyn Link> {
        let prop = SimTime::from_ns(self.prop_ns);
        match self.rate_bps {
            None => Box::new(IdealLink::new(prop)),
            Some(bps) => Box::new(EtherLink::new(bps, prop)),
        }
    }
}

#[derive(Debug, Clone)]
struct Plan {
    seed: u64,
    /// Hold time per middle hop; `None` forwards cut-through.
    hops: Vec<Option<u64>>, // ns
    /// One link per hop boundary: `hops.len() + 1` entries.
    links: Vec<LinkPlan>,
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

fn arb_plan() -> impl Strategy<Value = Plan> {
    let hold = prop_oneof![Just(None), (1u64..5_000).prop_map(Some)];
    proptest::collection::vec(hold, 0..4).prop_flat_map(|hops| {
        let links = proptest::collection::vec(arb_link(), hops.len() + 1..hops.len() + 2);
        (
            Just(hops),
            links,
            any::<u64>(),
            1u32..24,
            32usize..1024,
            100u64..50_000,
        )
            .prop_map(|(hops, links, seed, frames, payload, interval_ns)| Plan {
                seed,
                hops,
                links,
                frames,
                payload,
                interval_ns,
            })
    })
}

/// Run the chain; returns `(digest, events, deliveries)`.
fn run_plan(plan: &Plan, telemetry: bool) -> (u64, u64, Deliveries) {
    let mut sim = Simulator::new(plan.seed);
    if telemetry {
        sim.set_provenance(true);
    }
    let src = sim.add_node(
        "src",
        Source {
            interval: SimTime::from_ns(plan.interval_ns),
            count: plan.frames,
            payload: plan.payload,
            sent: 0,
        },
    );
    let mut prev = src;
    for (i, hold) in plan.hops.iter().enumerate() {
        let hop = sim.add_node(
            format!("hop{i}"),
            Hop {
                hold: hold.map(SimTime::from_ns),
                held: std::collections::VecDeque::new(),
            },
        );
        let out = if prev == src { PortId(0) } else { PortId(1) };
        sim.install_link(prev, out, hop, PortId(0), plan.links[i].build());
        prev = hop;
    }
    let sink = sim.add_node("sink", Sink::default());
    let out = if prev == src { PortId(0) } else { PortId(1) };
    sim.install_link(
        prev,
        out,
        sink,
        PortId(0),
        plan.links[plan.hops.len()].build(),
    );
    sim.schedule_timer(SimTime::from_ns(10), src, TICK);
    sim.run();
    let deliveries = sim.node::<Sink>(sink).expect("sink").deliveries.clone();
    (sim.trace.digest(), sim.trace.recorded(), deliveries)
}

proptest! {
    /// Segment sums == end-to-end latency, exactly, for every frame of
    /// every random chain; provenance is contiguous (no gaps, no
    /// overlaps); and the digest is identical with telemetry on and off.
    #[test]
    fn provenance_reconciles_on_random_chains(plan in arb_plan()) {
        let (digest_off, events_off, plain) = run_plan(&plan, false);
        let (digest_on, events_on, traced) = run_plan(&plan, true);

        prop_assert_eq!(digest_off, digest_on, "telemetry moved the digest");
        prop_assert_eq!(events_off, events_on);
        prop_assert_eq!(plain.len(), traced.len());
        prop_assert_eq!(traced.len() as u32, plan.frames, "all frames delivered");
        prop_assert!(plain.iter().all(|(_, _, p)| p.is_none()));

        for (born, arrived, prov) in &traced {
            let prov = prov.as_ref().expect("provenance recorded when enabled");
            prop_assert!(prov.is_contiguous());
            prop_assert_eq!(prov.sum_ps(), prov.total_ps());
            prop_assert_eq!(prov.total_ps(), arrived - born, "segment sums must reconcile");
        }

        // Propagation is deterministic per link, so provenance must agree
        // with the plan: every frame crosses every link exactly once.
        let per_frame_prop_ps: u64 = plan
            .links
            .iter()
            .map(|l| SimTime::from_ns(l.prop_ns).as_ps())
            .sum();
        for (_, _, prov) in &traced {
            let seen: u64 = prov
                .as_ref()
                .unwrap()
                .segments()
                .iter()
                .filter(|s| s.kind == SegmentKind::Propagate)
                .map(|s| s.duration_ps())
                .sum();
            prop_assert_eq!(seen, per_frame_prop_ps);
        }
    }
}
