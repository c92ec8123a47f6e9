//! Property tests on the simulation kernel: determinism, causality, and
//! conservation under arbitrary random topologies and traffic, and the
//! run digest's sensitivity to the stream it folds.

use proptest::prelude::*;

use tn_sim::{
    fold_event, Context, Frame, FrameId, IdealLink, Node, NodeId, PortId, SimTime, Simulator,
    TimerToken, TraceEvent, TraceKind, EMPTY_DIGEST,
};

/// Forwards every frame out a fixed port after a per-node delay, up to a
/// TTL carried in the first payload byte (prevents infinite ping-pong).
/// Each hop re-emits through the frame arena and recycles what it
/// received, as fan-out nodes do, so a pooled run reuses buffers mid-run.
struct Hopper {
    out: PortId,
    arrivals: Vec<(SimTime, u64)>,
}

impl Node for Hopper {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        self.arrivals.push((ctx.now(), frame.id.0));
        let next = frame.bytes[0].checked_sub(1).map(|ttl| {
            let hop = ctx.frame().fill(|b| b.resize(8, ttl));
            hop.tag(frame.meta.tag).build()
        });
        ctx.recycle(frame);
        if let Some(next) = next {
            ctx.send(self.out, next);
        }
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _t: TimerToken) {}
}

#[derive(Debug, Clone)]
struct Plan {
    nodes: usize,
    edges: Vec<(usize, usize)>,
    injections: Vec<(usize, u64, u8)>, // (node, time ns, ttl)
}

fn arb_plan() -> impl Strategy<Value = Plan> {
    (2usize..8).prop_flat_map(|nodes| {
        let edges = proptest::collection::vec((0..nodes, 0..nodes), 1..nodes * 2);
        let injections = proptest::collection::vec((0..nodes, 0u64..10_000, 0u8..12), 1..20);
        (Just(nodes), edges, injections).prop_map(|(nodes, edges, injections)| Plan {
            nodes,
            edges,
            injections,
        })
    })
}

type History = (Vec<Vec<(SimTime, u64)>>, tn_sim::SimStats, SimTime, u64);

fn run_plan(plan: &Plan, seed: u64) -> History {
    run_plan_on(Simulator::new(seed), plan)
}

fn run_plan_on(mut sim: Simulator, plan: &Plan) -> History {
    let ids: Vec<NodeId> = (0..plan.nodes)
        .map(|i| {
            sim.add_node(
                format!("n{i}"),
                Hopper {
                    out: PortId(0),
                    arrivals: vec![],
                },
            )
        })
        .collect();
    // Wire each node's port 0 to the first edge target listed for it;
    // extra edges use ascending port numbers (point-to-point constraint).
    let mut next_port = vec![0u16; plan.nodes];
    for &(a, b) in &plan.edges {
        if a == b {
            continue;
        }
        let (pa, pb) = (next_port[a], next_port[b] + 1_000);
        // Skip if port 0 on `a` already used AND we only forward out port
        // 0 — extra links still carry reverse traffic legitimately.
        if sim.is_connected(ids[a], PortId(pa)) || sim.is_connected(ids[b], PortId(pb)) {
            continue;
        }
        let link = IdealLink::new(SimTime::from_ns(7));
        sim.install_link(
            ids[a],
            PortId(pa),
            ids[b],
            PortId(pb),
            Box::new(link.clone()),
        );
        sim.install_link(ids[b], PortId(pb), ids[a], PortId(pa), Box::new(link));
        next_port[a] += 1;
        next_port[b] += 1;
    }
    for &(n, t_ns, ttl) in &plan.injections {
        let mut f = sim.frame().fill(|b| b.resize(8, ttl)).build();
        f.meta.tag = u64::from(ttl);
        sim.inject_frame(SimTime::from_ns(t_ns), ids[n], PortId(0), f);
    }
    sim.run_until(SimTime::from_ms(1));
    let arrivals = ids
        .iter()
        .map(|&id| sim.node::<Hopper>(id).unwrap().arrivals.clone())
        .collect();
    (arrivals, sim.stats(), sim.now(), sim.trace.digest())
}

const KINDS: [TraceKind; 3] = [TraceKind::Deliver, TraceKind::Drop, TraceKind::Timer];

fn arb_event() -> impl Strategy<Value = TraceEvent> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u16>(),
        any::<u64>(),
        0..3usize,
    )
        .prop_map(|(at, node, port, frame, kind)| TraceEvent {
            at: SimTime::from_ps(at),
            node: NodeId(node),
            port: PortId(port),
            frame: FrameId(frame),
            kind: KINDS[kind],
        })
}

fn digest(events: &[TraceEvent]) -> u64 {
    events.iter().fold(EMPTY_DIGEST, fold_event)
}

proptest! {
    /// Changing any one field of any one record changes the digest.
    #[test]
    fn one_changed_field_moves_the_digest(
        events in proptest::collection::vec(arb_event(), 1..40),
        pick in any::<usize>(),
        field in 0..5usize,
        delta in 1..=u16::MAX,
    ) {
        let mut changed = events.clone();
        let ev = &mut changed[pick % events.len()];
        let d = u64::from(delta);
        match field {
            0 => ev.at = SimTime::from_ps(ev.at.as_ps().wrapping_add(d)),
            1 => ev.node = NodeId(ev.node.0.wrapping_add(u32::from(delta))),
            2 => ev.port = PortId(ev.port.0.wrapping_add(delta)),
            3 => ev.frame = FrameId(ev.frame.0.wrapping_add(d)),
            _ => {
                let i = KINDS.iter().position(|&k| k == ev.kind).unwrap();
                ev.kind = KINDS[(i + 1 + usize::from(delta % 2)) % 3];
            }
        }
        prop_assert_ne!(digest(&events), digest(&changed));
    }

    /// Swapping two adjacent, different records changes the digest.
    #[test]
    fn swapping_adjacent_records_moves_the_digest(
        events in proptest::collection::vec(arb_event(), 2..40),
        pick in any::<usize>(),
    ) {
        let i = pick % (events.len() - 1);
        if events[i] == events[i + 1] {
            return Ok(());
        }
        let mut swapped = events.clone();
        swapped.swap(i, i + 1);
        prop_assert_ne!(digest(&events), digest(&swapped));
    }

    /// Identical plans and seeds produce bit-identical histories.
    #[test]
    fn kernel_is_deterministic(plan in arb_plan()) {
        let a = run_plan(&plan, 42);
        let b = run_plan(&plan, 42);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
        prop_assert_eq!(a.3, b.3);
    }

    /// The frame arena is pure side-state: a run that allocates every
    /// payload buffer fresh has the same history and trace digest as one
    /// that recycles them.
    #[test]
    fn frame_pooling_never_moves_the_run(plan in arb_plan()) {
        let mut unpooled = Simulator::new(42);
        unpooled.set_arena_max_free(0);
        prop_assert_eq!(run_plan_on(unpooled, &plan), run_plan(&plan, 42));
    }

    /// Time never goes backwards at any observer, and every delivered
    /// frame was either injected or forwarded (conservation: deliveries
    /// ≤ injections × (ttl + 1)).
    #[test]
    fn causality_and_conservation(plan in arb_plan()) {
        let (arrivals, stats, ..) = run_plan(&plan, 7);
        for node_arrivals in &arrivals {
            for w in node_arrivals.windows(2) {
                prop_assert!(w[0].0 <= w[1].0, "time went backwards at an observer");
            }
        }
        let max_deliveries: u64 = plan
            .injections
            .iter()
            .map(|&(_, _, ttl)| u64::from(ttl) + 1)
            .sum();
        prop_assert!(stats.frames_delivered <= max_deliveries);
        // Nothing vanishes silently: delivered + dropped + unrouted
        // accounts for every transmission attempt.
        prop_assert_eq!(stats.frames_dropped, 0); // ideal links never drop
    }
}
