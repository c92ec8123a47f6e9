//! Property tests for the flight recorder and kernel self-profiler: over
//! random scenario configurations — seeds, schedulers, workload rates,
//! optional feed faults — a run with the flight recorder and profiler
//! fully on must produce a bit-identical trace digest to the same run
//! with them off, and the recorder's ring must never hold more records
//! than its configured capacity no matter how many kernel events flow
//! through it.
//!
//! This is the contract that makes `ObsConfig::flight`/`profile` pure
//! observability knobs: turning them on may never change a result, and
//! their memory use is bounded up front.

use proptest::prelude::*;

use trading_networks::core::{ScenarioConfig, TradingNetworkDesign, TraditionalSwitches};
use trading_networks::fault::FaultSpec;
use trading_networks::sim::{
    Context, FlightKind, FlightRecord, FlightRecorder, Frame, IdealLink, Node, PortId,
    SchedulerKind, SimTime, Simulator, TimerToken,
};

/// One randomized scenario drawing: workload knobs that materially move
/// the event stream, plus the observability capacity under test.
#[derive(Debug, Clone)]
struct Draw {
    seed: u64,
    scheduler: SchedulerKind,
    background_rate: f64,
    subs_per_strategy: usize,
    flight_capacity: u32,
    loss: Option<f64>,
}

fn arb_draw() -> impl Strategy<Value = Draw> {
    (
        any::<u64>(),
        prop_oneof![
            Just(SchedulerKind::BinaryHeap),
            Just(SchedulerKind::CalendarQueue),
            Just(SchedulerKind::TimingWheel),
        ],
        10_000u32..80_000,
        1usize..5,
        1u32..2_048,
        prop_oneof![
            Just(None),
            (1u32..20).prop_map(|p| Some(f64::from(p) / 100.0))
        ],
    )
        .prop_map(
            |(seed, scheduler, rate, subs, flight_capacity, loss)| Draw {
                seed,
                scheduler,
                background_rate: f64::from(rate),
                subs_per_strategy: subs,
                flight_capacity,
                loss,
            },
        )
}

/// Build the scenario for a draw, trimmed short enough that a proptest
/// sweep stays fast while still exercising warmup, faults, and recovery.
fn scenario(draw: &Draw, flight: bool) -> ScenarioConfig {
    let mut sc = ScenarioConfig::small(draw.seed);
    sc.scheduler = draw.scheduler;
    sc.background_rate = draw.background_rate;
    sc.subs_per_strategy = draw.subs_per_strategy;
    sc.duration = SimTime::from_ms(2);
    sc.warmup = SimTime::from_us(500);
    sc.feed_fault = draw
        .loss
        .map(|p| FaultSpec::new(draw.seed ^ 0x9e37).with_iid_loss(p));
    if flight {
        sc.obs.flight_capacity = draw.flight_capacity;
        sc.obs.profile = true;
    }
    sc
}

proptest! {
    /// For every random scenario, the flight recorder and profiler are
    /// digest-neutral: on-vs-off runs agree bit-for-bit on the trace
    /// digest and event count, and the on-run actually collected a
    /// profile (the knob is live, not silently ignored).
    #[test]
    fn flight_and_profiler_never_move_the_digest(draw in arb_draw()) {
        let design = TraditionalSwitches::default();
        let off = design.run(&scenario(&draw, false));
        let on = design.run(&scenario(&draw, true));
        prop_assert_eq!(
            (off.trace_digest, off.events_recorded),
            (on.trace_digest, on.events_recorded),
            "flight recorder/profiler perturbed the run: {:?}", draw
        );
        prop_assert!(on.profile.is_some(), "profiler knob was on but no profile collected");
        prop_assert!(off.profile.is_none(), "profiler knob was off but a profile appeared");
        let dump = on.flight_dump.as_deref().unwrap_or("");
        prop_assert!(dump.starts_with("tn-flight dump @ "), "bad dump header: {dump:.40}");
    }

    /// The ring is hard-bounded: however many records flow through, the
    /// buffer holds at most `capacity` of them — and exactly the newest
    /// ones, oldest-first on read-back.
    #[test]
    fn ring_never_exceeds_capacity(
        capacity in 1usize..128,
        count in 0u64..600,
    ) {
        let mut ring = FlightRecorder::with_capacity(capacity);
        for i in 0..count {
            ring.record(FlightRecord { at_ps: i, kind: FlightKind::Schedule, node: 7, shard: 0, a: i, b: i * 2 });
        }
        prop_assert!(ring.len() <= capacity);
        prop_assert_eq!(ring.len(), count.min(capacity as u64) as usize);
        prop_assert_eq!(ring.total(), count);
        prop_assert_eq!(ring.capacity(), capacity);
        // Read-back is the newest `len()` records, oldest first.
        let first = count.saturating_sub(capacity as u64);
        for (k, rec) in ring.records().enumerate() {
            prop_assert_eq!(rec.a, first + k as u64);
        }
    }

    /// Same bound observed end-to-end through a live kernel: a timer
    /// ping-pong generates far more events than the ring holds, and the
    /// ring never grows past its configured capacity.
    #[test]
    fn kernel_runs_respect_the_ring_bound(
        capacity in 1usize..48,
        bounces in 1u32..400,
    ) {
        let mut sim = Simulator::new(1);
        sim.set_flight_capacity(capacity);
        let ping = sim.add_node("ping", Bouncer { remaining: bounces });
        let pong = sim.add_node("pong", Bouncer { remaining: bounces });
        let hop = || Box::new(IdealLink::new(SimTime::from_ns(50)));
        sim.install_link(ping, PortId(0), pong, PortId(0), hop());
        sim.install_link(pong, PortId(0), ping, PortId(0), hop());
        sim.schedule_timer(SimTime::from_ns(10), ping, TimerToken(1));
        sim.run();
        let ring = sim.flight();
        prop_assert!(ring.is_enabled());
        prop_assert!(ring.len() <= capacity, "len {} > capacity {}", ring.len(), capacity);
        prop_assert!(ring.total() >= ring.len() as u64);
        prop_assert!(ring.total() >= u64::from(bounces), "ping-pong under-recorded");
    }
}

/// Echoes every frame back out and seeds the exchange with one timer
/// frame; `remaining` bounds the volley so runs terminate.
struct Bouncer {
    remaining: u32,
}

impl Node for Bouncer {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        if self.remaining == 0 {
            ctx.recycle(frame);
            return;
        }
        self.remaining -= 1;
        ctx.send(PortId(0), frame);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: TimerToken) {
        let frame = ctx.frame().zeroed(64).build();
        ctx.send(PortId(0), frame);
    }
}
