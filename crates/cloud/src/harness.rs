//! The fairness microbench: one feed, `S` subscribers, three fabrics.
//!
//! Charts the spread-vs-added-latency frontier the paper's §4.2 argues
//! about. A timer-driven source publishes `E` events; each fabric fans
//! them out to `S` subscriber sinks; per event we measure the delivery
//! spread (max − min delivery instant across subscribers) and per
//! delivery the born→delivery latency:
//!
//! - **L1 switch** — passive layer-1 replication: every copy leaves the
//!   mux at the same instant, subscribers differ only by a few ns of
//!   static port/fiber skew. The colo gold standard.
//! - **leaf-spine** — store-and-forward switches in a fixed-depth tree:
//!   per-copy serialization gaps skew subscribers by tens of ns,
//!   deterministically.
//! - **cloud** — fan-out-`k` relay VMs over jittery unicast links, with
//!   a [`DelayEqualizer`] gate in front of every subscriber. The gate
//!   ceiling is *calibrated*: a jitter-free, equalizer-transparent run
//!   of the same topology measures the nominal per-path latencies; the
//!   measured run then pads to `nominal_max + hold`. The hold window is
//!   the knob: it buys jitter absorption (spread → residual) and costs
//!   added median latency ≥ hold — the quantitative form of the paper's
//!   cloud verdict.
//!
//! Everything is digest-disciplined: link jitter rides
//! `tn_fault::FaultLink`'s own seeded stream, equalizer residual rides
//! the node-owned stream, and [`run_fairness`] is bit-reproducible for
//! a fixed [`FairnessScenario`].

use tn_fault::{FaultLink, FaultSpec};
use tn_netdev::EtherLink;
use tn_sim::{
    Context, Frame, IdealLink, Link, Node, NodeId, PortId, SchedulerKind, SimTime, Simulator,
    TimerToken,
};
use tn_stats::{FairnessWindow, Summary};

use crate::equalizer::{self, DelayEqualizer, EqualizerConfig};
use crate::overlay::{OverlayTree, OverlayTreeConfig, RELAY_IN};

/// Timer token driving the feed source.
const EMIT: TimerToken = TimerToken(0xFE_ED);

/// L1 mux-to-subscriber base propagation.
const L1_BASE: SimTime = SimTime::from_ns(450);
/// Static per-port skew of the L1 mux (port `s` adds `s ×` this).
const L1_PORT_SKEW: SimTime = SimTime::from_ns(4);
/// Leaf-spine switch fan-out.
const LS_FANOUT: u16 = 4;
/// Leaf-spine per-copy store-and-forward gap.
const LS_COPY_GAP: SimTime = SimTime::from_ns(32);
/// Leaf-spine hop propagation.
const LS_PROP: SimTime = SimTime::from_ns(200);
/// VM-to-VM one-way propagation for overlay hops (raw, unequalized).
const VM_PROP: SimTime = SimTime::from_us(25);
/// Software relay per-copy gap (syscall + copy per child).
const CLOUD_COPY_GAP: SimTime = SimTime::from_ns(250);

/// The common scenario: one source, `subscribers` sinks.
#[derive(Debug, Clone)]
pub struct FairnessScenario {
    /// Subscriber count `S`.
    pub subscribers: usize,
    /// Events the source publishes.
    pub events: u32,
    /// Publish period.
    pub period: SimTime,
    /// Payload bytes per event.
    pub payload: usize,
    /// Seed for the kernel and every derived fault/residual stream.
    pub seed: u64,
    /// Event scheduler the kernel runs on; any kind must reproduce the
    /// same digest (pinned in the divergence registry).
    pub scheduler: SchedulerKind,
}

impl FairnessScenario {
    /// The CI-sized scenario: 8 subscribers, 40 events, 50 µs apart.
    pub fn small(seed: u64) -> FairnessScenario {
        FairnessScenario {
            subscribers: 8,
            events: 40,
            period: SimTime::from_us(50),
            payload: 256,
            seed,
            scheduler: SchedulerKind::BinaryHeap,
        }
    }
}

/// Which fabric fans the feed out.
#[derive(Debug, Clone)]
pub enum DesignKind {
    /// Passive layer-1 replication with static port skew.
    L1Switch,
    /// Fixed-depth store-and-forward switch tree.
    LeafSpine,
    /// Overlay relay VMs + per-subscriber delay equalizers.
    Cloud {
        /// Relay fan-out `k`.
        fanout: u16,
        /// Per-VM-hop jitter bound (uniform, via `FaultLink`).
        jitter: SimTime,
        /// Equalizer hold: the ceiling is calibrated nominal max + hold.
        hold: SimTime,
        /// Equalizer residual pacing error.
        residual: SimTime,
    },
}

impl DesignKind {
    /// Short label for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            DesignKind::L1Switch => "l1",
            DesignKind::LeafSpine => "leaf-spine",
            DesignKind::Cloud { .. } => "cloud",
        }
    }
}

/// One measured frontier point.
#[derive(Debug, Clone)]
pub struct FairnessRun {
    /// Design label (`l1`, `leaf-spine`, `cloud`).
    pub design: &'static str,
    /// Trace digest of the measured run.
    pub digest: u64,
    /// Events the kernel recorded.
    pub events: u64,
    /// Total deliveries across subscribers.
    pub delivered: u64,
    /// Published events every subscriber received.
    pub complete_events: u64,
    /// Deliveries arriving past the equalizer ceiling (cloud only).
    pub late: u64,
    /// Delivery-spread percentiles across subscribers, per event (ps).
    pub spread_p50_ps: u64,
    /// 99th-percentile spread (ps).
    pub spread_p99_ps: u64,
    /// Worst spread (ps).
    pub spread_max_ps: u64,
    /// Median born→delivery latency (ps).
    pub median_delivery_ps: u64,
    /// `median_delivery` minus the median of the jitter-free,
    /// equalizer-transparent baseline: what fairness cost (ps). For
    /// L1/leaf-spine the run is its own baseline.
    pub added_median_ps: u64,
    /// The hold window this point paid for (ps; 0 outside cloud).
    pub hold_ps: u64,
}

/// Run the scenario over one fabric and measure the frontier point.
/// Deterministic: same inputs, same `FairnessRun` (digest included).
pub fn run_fairness(sc: &FairnessScenario, design: &DesignKind) -> FairnessRun {
    match design {
        DesignKind::L1Switch => finish(design.label(), run_l1(sc), None, SimTime::ZERO),
        DesignKind::LeafSpine => finish(design.label(), run_leafspine(sc), None, SimTime::ZERO),
        DesignKind::Cloud {
            fanout,
            jitter,
            hold,
            residual,
        } => {
            // Calibration: same topology, clean links, transparent
            // gates. Its per-delivery max is the nominal worst path.
            let mut base = run_cloud(sc, *fanout, SimTime::ZERO, SimTime::ZERO, SimTime::ZERO);
            let ceiling = SimTime::from_ps(base.delivery.max()) + *hold;
            let run = run_cloud(sc, *fanout, *jitter, ceiling, *residual);
            finish(design.label(), run, Some(base.delivery.median()), *hold)
        }
    }
}

// ---------------------------------------------------------------------
// Nodes
// ---------------------------------------------------------------------

struct FeedSource {
    remaining: u32,
    period: SimTime,
    payload: usize,
    next_tag: u64,
}

impl Node for FeedSource {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        ctx.recycle(frame);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: TimerToken) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let tag = self.next_tag;
        self.next_tag += 1;
        let now = ctx.now();
        let f = ctx
            .frame()
            .zeroed(self.payload)
            .tag(tag)
            .event_time(now)
            .build();
        ctx.send(PortId(0), f);
        if self.remaining > 0 {
            ctx.set_timer(self.period, EMIT);
        }
    }
}

struct SubSink {
    /// `(frame id, delivery ps, born→delivery latency ps)`.
    got: Vec<(u64, u64, u64)>,
}

impl Node for SubSink {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        let now_ps = ctx.now().as_ps();
        let lat = now_ps.saturating_sub(frame.born.as_ps());
        self.got.push((frame.id.0, now_ps, lat));
        ctx.recycle(frame);
    }
}

// ---------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------

struct RawRun {
    digest: u64,
    events: u64,
    delivered: u64,
    late: u64,
    window: FairnessWindow,
    delivery: Summary,
}

fn add_source(sim: &mut Simulator, sc: &FairnessScenario) -> NodeId {
    sim.add_node(
        "feed-src",
        FeedSource {
            remaining: sc.events,
            period: sc.period,
            payload: sc.payload,
            next_tag: 0,
        },
    )
}

fn add_sinks(sim: &mut Simulator, n: usize) -> Vec<NodeId> {
    (0..n)
        .map(|s| sim.add_node(format!("sub{s}"), SubSink { got: Vec::new() }))
        .collect()
}

/// Run `sim` from the source's first emit until it drains, and collect
/// what the `sinks` received and how many frames the equalizer `gates`
/// (none outside the cloud design) released late.
fn drive_and_collect(
    mut sim: Simulator,
    src: NodeId,
    sinks: &[NodeId],
    gates: &[NodeId],
) -> RawRun {
    sim.schedule_timer(SimTime::ZERO, src, EMIT);
    sim.run();
    let mut window = FairnessWindow::new(sinks.len());
    let mut delivery = Summary::new();
    let mut delivered = 0u64;
    for &s in sinks {
        let sink = sim.node::<SubSink>(s).expect("subscriber sink");
        for &(id, at, lat) in &sink.got {
            window.observe(id, at);
            delivery.record(lat);
            delivered += 1;
        }
    }
    let late = gates
        .iter()
        .map(|&g| sim.node::<DelayEqualizer>(g).expect("gate").stats().late)
        .sum();
    RawRun {
        digest: sim.trace.digest(),
        events: sim.trace.recorded(),
        delivered,
        late,
        window,
        delivery,
    }
}

fn run_l1(sc: &FairnessScenario) -> RawRun {
    let mut sim = Simulator::with_scheduler(sc.seed, sc.scheduler);
    let src = add_source(&mut sim, sc);
    let cfg = OverlayTreeConfig {
        fanout: sc.subscribers as u16,
        leaves: sc.subscribers,
        copy_gap: SimTime::ZERO,
    };
    // Depth-1 "tree": the single relay is the passive mux.
    let tree = OverlayTree::build(&mut sim, "l1-mux", &cfg, |_| {
        Box::new(IdealLink::new(SimTime::ZERO))
    });
    sim.install_link(
        src,
        PortId(0),
        tree.root,
        RELAY_IN,
        Box::new(IdealLink::new(SimTime::from_ns(10))),
    );
    let sinks = add_sinks(&mut sim, sc.subscribers);
    for (s, &(relay, port)) in tree.leaf_ports.iter().enumerate() {
        let prop = L1_BASE + SimTime::from_ps(L1_PORT_SKEW.as_ps() * s as u64);
        sim.install_link(
            relay,
            port,
            sinks[s],
            PortId(0),
            Box::new(IdealLink::new(prop)),
        );
    }
    drive_and_collect(sim, src, &sinks, &[])
}

fn run_leafspine(sc: &FairnessScenario) -> RawRun {
    let mut sim = Simulator::with_scheduler(sc.seed, sc.scheduler);
    let src = add_source(&mut sim, sc);
    let cfg = OverlayTreeConfig {
        fanout: LS_FANOUT,
        leaves: sc.subscribers,
        copy_gap: LS_COPY_GAP,
    };
    let link = || EtherLink::twenty_five_gig(LS_PROP);
    let tree = OverlayTree::build(&mut sim, "ls", &cfg, |_| Box::new(link()));
    sim.install_link(src, PortId(0), tree.root, RELAY_IN, Box::new(link()));
    let sinks = add_sinks(&mut sim, sc.subscribers);
    for (s, &(relay, port)) in tree.leaf_ports.iter().enumerate() {
        sim.install_link(relay, port, sinks[s], PortId(0), Box::new(link()));
    }
    drive_and_collect(sim, src, &sinks, &[])
}

/// Derive a per-edge fault seed that never collides across edge roles.
fn edge_seed(base: u64, idx: u64) -> u64 {
    base ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(idx + 1)
}

fn run_cloud(
    sc: &FairnessScenario,
    fanout: u16,
    jitter: SimTime,
    ceiling: SimTime,
    residual: SimTime,
) -> RawRun {
    let mut sim = Simulator::with_scheduler(sc.seed, sc.scheduler);
    let src = add_source(&mut sim, sc);
    let vm_link = |idx: u64| -> Box<dyn Link> {
        let base = EtherLink::ten_gig(VM_PROP);
        if jitter > SimTime::ZERO {
            Box::new(FaultLink::wrap(
                base,
                FaultSpec::new(edge_seed(sc.seed, idx)).with_jitter(jitter),
            ))
        } else {
            Box::new(base)
        }
    };
    let cfg = OverlayTreeConfig {
        fanout,
        leaves: sc.subscribers,
        copy_gap: CLOUD_COPY_GAP,
    };
    let tree = OverlayTree::build(&mut sim, "ov", &cfg, |i| vm_link(i as u64));
    // The publisher's own VM hop into the root relay: edge indices
    // 1_000_000.. keep its jitter stream disjoint from the tree's.
    sim.install_link(src, PortId(0), tree.root, RELAY_IN, vm_link(1_000_000));
    let sinks = add_sinks(&mut sim, sc.subscribers);
    let mut gates = Vec::with_capacity(sc.subscribers);
    for (s, &(relay, port)) in tree.leaf_ports.iter().enumerate() {
        let gate = sim.add_node(
            format!("gate{s}"),
            DelayEqualizer::new(EqualizerConfig {
                ceiling,
                residual,
                seed: edge_seed(sc.seed, 3_000_000 + s as u64),
            }),
        );
        // Leaf VM hop into the gate; the gate fronts its subscriber.
        sim.install_link(
            relay,
            port,
            gate,
            equalizer::IN,
            vm_link(2_000_000 + s as u64),
        );
        sim.install_link(
            gate,
            equalizer::OUT,
            sinks[s],
            PortId(0),
            Box::new(IdealLink::new(SimTime::ZERO)),
        );
        gates.push(gate);
    }
    drive_and_collect(sim, src, &sinks, &gates)
}

fn finish(
    design: &'static str,
    mut raw: RawRun,
    baseline_median_ps: Option<u64>,
    hold: SimTime,
) -> FairnessRun {
    let mut spread = raw.window.spreads();
    let median = raw.delivery.median();
    let baseline = baseline_median_ps.unwrap_or(median);
    FairnessRun {
        design,
        digest: raw.digest,
        events: raw.events,
        delivered: raw.delivered,
        complete_events: raw.window.complete() as u64,
        late: raw.late,
        spread_p50_ps: spread.p50(),
        spread_p99_ps: spread.p99(),
        spread_max_ps: spread.max(),
        median_delivery_ps: median,
        added_median_ps: median.saturating_sub(baseline),
        hold_ps: hold.as_ps(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_spread_is_exactly_the_static_port_skew() {
        let sc = FairnessScenario::small(42);
        let run = run_fairness(&sc, &DesignKind::L1Switch);
        let want = L1_PORT_SKEW.as_ps() * (sc.subscribers as u64 - 1);
        assert_eq!(run.spread_max_ps, want);
        assert_eq!(run.spread_p50_ps, want, "every event sees identical skew");
        assert_eq!(run.complete_events, u64::from(sc.events));
        assert_eq!(run.added_median_ps, 0);
    }

    #[test]
    fn leafspine_spread_is_deterministic_and_above_l1() {
        let sc = FairnessScenario::small(42);
        let l1 = run_fairness(&sc, &DesignKind::L1Switch);
        let ls1 = run_fairness(&sc, &DesignKind::LeafSpine);
        let ls2 = run_fairness(&sc, &DesignKind::LeafSpine);
        assert_eq!(ls1.digest, ls2.digest);
        assert_eq!(ls1.spread_max_ps, ls2.spread_max_ps);
        assert!(ls1.spread_max_ps > l1.spread_max_ps);
        assert_eq!(ls1.complete_events, u64::from(sc.events));
    }

    #[test]
    fn cloud_zero_knobs_has_zero_spread_and_zero_added_latency() {
        let sc = FairnessScenario::small(42);
        let run = run_fairness(
            &sc,
            &DesignKind::Cloud {
                fanout: 4,
                jitter: SimTime::ZERO,
                hold: SimTime::ZERO,
                residual: SimTime::ZERO,
            },
        );
        // Ceiling = calibrated nominal max, all paths deterministic:
        // every subscriber releases at exactly born + ceiling.
        assert_eq!(run.spread_max_ps, 0);
        assert_eq!(run.late, 0);
        assert_eq!(run.complete_events, u64::from(sc.events));
    }

    #[test]
    fn cloud_hold_absorbs_jitter_and_charges_at_least_the_hold() {
        let sc = FairnessScenario::small(42);
        let hold = SimTime::from_us(8);
        let run = run_fairness(
            &sc,
            &DesignKind::Cloud {
                fanout: 4,
                jitter: SimTime::from_us(1),
                hold,
                residual: SimTime::ZERO,
            },
        );
        // Per-hop jitter ≤ 1 µs over a shallow tree stays inside an
        // 8 µs hold: nothing late, spread collapses to zero.
        assert_eq!(run.late, 0);
        assert_eq!(run.spread_max_ps, 0);
        assert!(
            run.added_median_ps >= hold.as_ps(),
            "fairness must cost at least the hold window: added {} < hold {}",
            run.added_median_ps,
            hold.as_ps()
        );
    }

    #[test]
    fn cloud_without_hold_leaks_the_jitter_into_spread() {
        let sc = FairnessScenario::small(42);
        let run = run_fairness(
            &sc,
            &DesignKind::Cloud {
                fanout: 4,
                jitter: SimTime::from_us(4),
                hold: SimTime::ZERO,
                residual: SimTime::ZERO,
            },
        );
        assert!(
            run.late > 0,
            "jitter past the nominal ceiling must count late"
        );
        assert!(
            run.spread_max_ps > SimTime::from_us(1).as_ps(),
            "unheld jitter shows up as delivery spread"
        );
    }

    #[test]
    fn runs_are_bit_reproducible() {
        let sc = FairnessScenario::small(7);
        let d = DesignKind::Cloud {
            fanout: 3,
            jitter: SimTime::from_us(2),
            hold: SimTime::from_us(3),
            residual: SimTime::from_ns(100),
        };
        let a = run_fairness(&sc, &d);
        let b = run_fairness(&sc, &d);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.spread_p99_ps, b.spread_p99_ps);
        assert_eq!(a.added_median_ps, b.added_median_ps);
    }
}
