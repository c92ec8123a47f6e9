//! The agent swarm: a synthetic multi-metro region whose nodes do nothing
//! but keep the scheduler deep.
//!
//! The topology is that of `crates/bench/src/bin/bench_shard.rs`
//! (`metros` exchanges ringed by ~300 µs circuits, `agents_per_metro`
//! timer-driven agents each one sub-microsecond hop from their
//! exchange), rebuilt here so the benchmark owns its inputs: the seed
//! draws every agent's phase, and orders carry their send time so the
//! exchanges can report an order-send → final-arrival latency.
//!
//! With ≥100,000 timers pending and nodes this light, scheduler push/pop
//! and bare kernel dispatch are nearly all the host work; wire, market,
//! feed and trading code never run.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tn_sim::{
    Context, Frame, IdealLink, Node, NodeId, PortId, SchedulerKind, SimTime, Simulator, TimerToken,
};

const EVAL: TimerToken = TimerToken(1);
/// Exchange port 0 is the inter-metro circuit; agents hang off 1...
const CIRCUIT: PortId = PortId(0);

/// Swarm dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwarmScale {
    /// Metro exchanges (one shard each under `ShardPlan::auto(.., metros)`).
    pub metros: usize,
    /// Agents per metro.
    pub agents_per_metro: usize,
    /// Simulated time one pass covers.
    pub duration: SimTime,
}

impl SwarmScale {
    /// 8 × 12,500 agents over 0.75 ms: the ≥100,000-pending-events row.
    /// Long enough for every agent's first orders, forwarded ones
    /// included, to land (≤ 684 µs); short enough that a pass takes
    /// about a second, so a run has enough reps for one of them to fall
    /// between the neighbours' bursts.
    pub const FULL: SwarmScale = SwarmScale {
        metros: 8,
        agents_per_metro: 12_500,
        duration: SimTime::from_us(750),
    };

    /// 4 × 500 agents: same code paths, finishes in milliseconds.
    pub const SMOKE: SwarmScale = SwarmScale {
        metros: 4,
        agents_per_metro: 500,
        duration: SimTime::from_us(750),
    };
}

/// Re-evaluates on its own period; every `ORDER_EVERY`-th evaluation
/// sends a 64-byte order, stamped with its send time, to the exchange.
struct Agent {
    period: SimTime,
    evals: u32,
}

const ORDER_EVERY: u32 = 4;

impl Node for Agent {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        ctx.recycle(frame);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: TimerToken) {
        self.evals += 1;
        if self.evals.is_multiple_of(ORDER_EVERY) {
            let now = ctx.now();
            let order = ctx
                .frame()
                .zeroed(64)
                .tag(u64::from(self.evals))
                .event_time(now)
                .build();
            ctx.send(PortId(0), order);
        }
        ctx.set_timer(self.period, EVAL);
    }
}

/// Absorbs orders; every `FORWARD_EVERY`-th one from a local agent goes
/// round the ring once more (the cross-shard traffic). Whichever
/// exchange absorbs an order records how long ago it was sent.
pub struct MetroExchange {
    orders: u64,
    latency_ps: Vec<u64>,
}

const FORWARD_EVERY: u64 = 40;

impl MetroExchange {
    /// Order-send → final-arrival latencies of the orders absorbed here.
    pub fn latency_ps(&self) -> &[u64] {
        &self.latency_ps
    }
}

impl Node for MetroExchange {
    fn on_frame(&mut self, ctx: &mut Context<'_>, port: PortId, frame: Frame) {
        if port != CIRCUIT {
            self.orders += 1;
            if self.orders.is_multiple_of(FORWARD_EVERY) {
                ctx.send(CIRCUIT, frame);
                return;
            }
        }
        self.latency_ps
            .push((ctx.now() - frame.meta.event_time).as_ps());
        ctx.recycle(frame);
    }
}

/// A built swarm: the simulator plus the exchange ids whose samples
/// [`latencies`] pools.
pub struct Swarm {
    /// The kernel, every timer scheduled, nothing dispatched yet.
    pub sim: Simulator,
    /// Exchange node ids, in metro order.
    pub exchanges: Vec<NodeId>,
}

/// Build the region. Every id and delay is a function of position, and
/// every phase a function of `seed`, so two builds are identical.
pub fn build(scale: SwarmScale, seed: u64, scheduler: SchedulerKind) -> Swarm {
    let mut sim = Simulator::with_scheduler(seed, scheduler);
    let mut phases = SmallRng::seed_from_u64(seed ^ 0x0073_7761_726d);
    let mut exchanges = Vec::with_capacity(scale.metros);
    for m in 0..scale.metros {
        let ex = sim.add_node(
            format!("exch{m}"),
            MetroExchange {
                orders: 0,
                latency_ps: Vec::new(),
            },
        );
        exchanges.push(ex);
        for a in 0..scale.agents_per_metro {
            let agent = sim.add_node(
                format!("agent{m}.{a}"),
                Agent {
                    // Four period classes, so firing order keeps changing.
                    period: SimTime::from_ns(80_000 + 7_000 * (a % 4) as u64),
                    evals: 0,
                },
            );
            // Five intra-metro distances, 300–700 ns.
            let hop = SimTime::from_ns(300 + 100 * (a % 5) as u64);
            sim.install_link(
                agent,
                PortId(0),
                ex,
                PortId((a + 1) as u16),
                Box::new(IdealLink::new(hop)),
            );
            let phase = SimTime::from_ns(phases.gen_range(0..80_000u64));
            sim.schedule_timer(phase, agent, EVAL);
        }
    }
    for m in 0..scale.metros {
        let next = exchanges[(m + 1) % scale.metros];
        sim.install_link(
            exchanges[m],
            CIRCUIT,
            next,
            CIRCUIT,
            Box::new(IdealLink::new(SimTime::from_us(300))),
        );
    }
    Swarm { sim, exchanges }
}

/// Pool the exchanges' latency samples out of a finished kernel (the
/// serial one, or the one `ShardedSimulator::finish` reassembled).
pub fn latencies(sim: &Simulator, exchanges: &[NodeId]) -> Vec<u64> {
    let mut all = Vec::new();
    for &ex in exchanges {
        let node = sim
            .node::<MetroExchange>(ex)
            .expect("exchange ids come from build()");
        all.extend_from_slice(node.latency_ps());
    }
    all
}
