//! The six workloads: what each one sets up, the one public entry point
//! it times, and what it checks.
//!
//! Every workload is single-threaded and closed-loop: a rep starts only
//! when the previous one has returned. The seed is the only input that
//! varies; sizes are constants of [`Scale`].

use std::sync::Mutex;

use tn_bench::faultsim::{run_loss_recovery, LossRecoveryConfig, LossRecoveryRun};
use tn_core::{
    DesignReport, LayerOneSwitches, ScenarioConfig, TradingNetworkDesign, TraditionalSwitches,
};
use tn_fault::FaultSpec;
use tn_lab::{
    build_config, resolve_design, run_batch, Axis, AxisValues, LabReport, RunExecutor, RunOutcome,
    RunPlan, ScenarioExecutor, SweepSpec,
};
use tn_sim::{
    KernelProfile, NodeId, ObsConfig, SchedulerKind, ShardPlan, ShardRunStats, ShardedSimulator,
    SimTime, Simulator,
};

use crate::measure::{bracket, Cost};
use crate::rigs::{Shape, Values};
use crate::swarm::{self, SwarmScale};
use crate::trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 6] = [
    "design1-paper",
    "design3-paper",
    "swarm-100k",
    "swarm-100k-shard8",
    "feed-recovery",
    "shootout-small",
];

/// Input sizes. `FULL` is what `BENCHMARK.json` gates on; `SMOKE` runs
/// the same code in well under a second per workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Measured simulated interval of `design1-paper`.
    pub design1_duration: SimTime,
    /// Measured simulated interval of `design3-paper`.
    pub design3_duration: SimTime,
    /// Swarm dimensions.
    pub swarm: SwarmScale,
    /// Packets `feed-recovery` publishes.
    pub packets: u64,
    /// Measured simulated interval of each `shootout-small` run, µs.
    pub shootout_duration_us: f64,
}

impl Scale {
    /// The gated sizes.
    pub const FULL: Scale = Scale {
        design1_duration: SimTime::from_ms(26),
        design3_duration: SimTime::from_ms(5),
        swarm: SwarmScale::FULL,
        packets: 200_000,
        shootout_duration_us: 20_000.0,
    };

    /// `--smoke`: 4 ms / 3 ms designs (the shortest intervals in which
    /// the momentum strategies have fired, so the reaction checks have
    /// samples to check), 4 × 500 agents, 2,000 packets.
    pub const SMOKE: Scale = Scale {
        design1_duration: SimTime::from_ms(4),
        design3_duration: SimTime::from_ms(3),
        swarm: SwarmScale::SMOKE,
        packets: 2_000,
        shootout_duration_us: 6_000.0,
    };
}

/// Digest-neutral switches a traced run flips to measure one layer's
/// share: the event scheduler and the observability set. Untraced runs
/// always use [`Knobs::PLAIN`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// Event scheduler.
    pub scheduler: SchedulerKind,
    /// Observability switches.
    pub obs: ObsConfig,
}

impl Knobs {
    /// Reference heap, everything off: what users get by default.
    pub const PLAIN: Knobs = Knobs {
        scheduler: SchedulerKind::BinaryHeap,
        obs: ObsConfig::off(),
    };

    /// Reference heap with only the kernel self-profiler on.
    pub fn profiled() -> Knobs {
        let mut obs = ObsConfig::off();
        obs.profile = true;
        Knobs {
            obs,
            ..Knobs::PLAIN
        }
    }
}

/// Workload-side operation counts a traced run turns into per-layer
/// counts and the `bench.est_share.*` estimate. Zero where a workload
/// never touches the layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ops {
    /// Feed messages the exchange published.
    pub feed_messages: u64,
    /// Records strategies evaluated.
    pub records_evaluated: u64,
    /// Records strategies discarded host-side.
    pub records_discarded: u64,
    /// Orders strategies sent.
    pub orders_sent: u64,
    /// Acks plus fills strategies received.
    pub order_replies: u64,
    /// PITCH packets published by `feed-recovery`'s source.
    pub packets: u64,
    /// Messages in those packets.
    pub recovery_msgs: u64,
    /// Sequence gaps detected.
    pub gaps: u64,
    /// Retransmission requests sent.
    pub retrans_requests: u64,
    /// Messages recovered by retransmission.
    pub recovered_msgs: u64,
    /// Sequence numbers abandoned as unrecoverable.
    pub abandoned: u64,
    /// Frames offered to fault-injecting links.
    pub fault_offered: u64,
    /// Scenario runs folded into this pass (1, or the lab's manifest).
    pub runs: u64,
    /// Packets offered to A/B arbiters (accepted + duplicate), from the
    /// metrics registry when the pass ran with it on.
    pub arb_offers: u64,
}

impl Ops {
    fn absorb_report(&mut self, r: &DesignReport) {
        self.feed_messages += r.feed_messages;
        self.records_evaluated += r.records_evaluated;
        self.records_discarded += r.records_discarded;
        self.orders_sent += r.orders_sent;
        self.order_replies += r.acks + r.fills;
        self.gaps += r.recovery.gaps_seen;
        self.retrans_requests += r.recovery.retrans_requests;
        self.recovered_msgs += r.recovery.records_recovered;
        self.runs += 1;
        if let Some(t) = &r.telemetry {
            self.arb_offers +=
                t.counter_total("feed", "arb_accepted") + t.counter_total("feed", "arb_duplicate");
            self.fault_offered += t.counter_total("fault", "offered");
        }
    }
}

/// One scenario run inside a pass, as the ledger needs it.
#[derive(Debug, Clone)]
pub struct RunInfo {
    /// Lab alias of the design that ran (`traditional`, `cloud`, `l1`,
    /// `fpga`), or `None` outside the design stack.
    pub design: Option<&'static str>,
    /// Host nodes the design added after its fabric (normalizers,
    /// strategies, gateways, the exchange); 0 outside the design stack.
    pub hosts: usize,
    /// Kernel self-profile, when the knobs asked for one.
    pub profile: Option<KernelProfile>,
}

impl RunInfo {
    fn of_design(design: &'static str, sc: &ScenarioConfig, r: &DesignReport) -> RunInfo {
        RunInfo {
            design: Some(design),
            hosts: sc.normalizers + sc.strategies + sc.gateways + 1,
            profile: r.profile.clone(),
        }
    }

    fn bare(profile: Option<KernelProfile>) -> RunInfo {
        RunInfo {
            design: None,
            hosts: 0,
            profile,
        }
    }
}

/// What one call of a workload's entry point produced.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Trace digest (for `shootout-small`: FNV-1a of the report JSON).
    pub digest: u64,
    /// Events the kernel(s) recorded.
    pub events: u64,
    /// The workload's headline simulated latency samples, picoseconds.
    pub latency_ps: Vec<u64>,
    /// Output checks made on this pass.
    pub checks: u64,
    /// Checks that failed, with a line each.
    pub failures: Vec<String>,
    /// One entry per scenario run folded into this pass.
    pub runs: Vec<RunInfo>,
    /// Sharded-execution statistics (`swarm-100k-shard8` only).
    pub shard: Option<ShardRunStats>,
    /// Layer operation counts.
    pub ops: Ops,
}

impl Pass {
    fn new(digest: u64, events: u64, latency_ps: Vec<u64>) -> Pass {
        Pass {
            digest,
            events,
            latency_ps,
            checks: 0,
            failures: Vec::new(),
            runs: Vec::new(),
            shard: None,
            ops: Ops::default(),
        }
    }

    /// Record one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// One benchmark workload.
///
/// [`setup`](Workload::setup) is the work a user pays before the timed
/// region and is what `setup_s` times; [`run`](Workload::run) is the one
/// call `ns_per_event` times. The driver calls `setup` afresh before
/// every `run`.
pub trait Workload {
    /// What `setup` hands to `run`.
    type Input;

    /// Name, as in `BENCHMARK.json`.
    fn name(&self) -> &'static str;

    /// Untimed-region work (see the `setup_s` row of the README).
    fn setup(&self, knobs: Knobs, tr: &Tracer) -> Self::Input;

    /// The timed call, plus (outside the caller's clock, which stops at
    /// the closure boundary inside) the checks on its output.
    fn run(&self, input: Self::Input, knobs: Knobs, tr: &Tracer) -> Timed;

    /// `setup` then `run`, for callers that time neither separately.
    fn pass(&self, knobs: Knobs, tr: &Tracer) -> Timed {
        let input = self.setup(knobs, tr);
        self.run(input, knobs, tr)
    }

    /// Untimed, once per process before the reps: anything a check needs
    /// to compare against.
    fn reference(&mut self) {}

    /// How the traced run shapes its rigs for this workload (`nodes` and
    /// `latency_samples` are filled in from a measured pass).
    fn shape(&self) -> Shape;

    /// Whether the traced run makes a pass with `ObsConfig::full()`
    /// (`obs.full_overhead_ratio` reads 0 where it does not).
    fn full_obs_pass(&self) -> bool {
        true
    }

    /// Traced run only: layer metrics that need extra passes of this
    /// workload in another configuration (threaded, per-run standalone).
    fn extras(&self) -> Values {
        Values::new()
    }
}

/// Shape of a workload whose PITCH traffic (if any) is the market flow.
fn market_shape(seed: u64, scenario: ScenarioConfig) -> Shape {
    Shape {
        seed,
        scenario,
        delete_only: false,
        // The exchange flushes a packet per unit per tick: one or two
        // messages at these rates (Table 1's frame lengths say the same).
        msgs_per_packet: 2,
        nodes: 0,
        latency_samples: 0,
    }
}

/// A pass and what its entry-point call cost the host.
pub struct Timed {
    /// The pass.
    pub pass: Pass,
    /// Host cost of the entry-point call alone.
    pub cost: Cost,
}

// ---------------------------------------------------------------------
// design1-paper / design3-paper
// ---------------------------------------------------------------------

/// One of the paper's designs at §4 scale through
/// `TradingNetworkDesign::run`.
pub struct DesignPaper<D> {
    name: &'static str,
    alias: &'static str,
    design: D,
    seed: u64,
    duration: SimTime,
}

/// `TraditionalSwitches::default().run(&paper_scale)`: every layer of
/// the stack at work behind a mid-depth queue.
pub fn design1_paper(seed: u64, scale: &Scale) -> DesignPaper<TraditionalSwitches> {
    DesignPaper {
        name: "design1-paper",
        alias: "traditional",
        design: TraditionalSwitches::default(),
        seed,
        duration: scale.design1_duration,
    }
}

/// `LayerOneSwitches::default().run(&paper_scale)`: frame fan-out and
/// host-side filtering dominate.
pub fn design3_paper(seed: u64, scale: &Scale) -> DesignPaper<LayerOneSwitches> {
    DesignPaper {
        name: "design3-paper",
        alias: "l1",
        design: LayerOneSwitches::default(),
        seed,
        duration: scale.design3_duration,
    }
}

impl<D> DesignPaper<D> {
    /// The scenario: the paper-scale preset with only the simulated
    /// interval (and the digest-neutral knobs) changed.
    pub fn scenario(&self, knobs: Knobs) -> ScenarioConfig {
        let mut sc = ScenarioConfig::paper_scale(self.seed);
        sc.duration = self.duration;
        sc.warmup = SimTime::from_ms(1);
        sc.scheduler = knobs.scheduler;
        sc.obs = knobs.obs;
        sc
    }
}

/// The checks every `DesignReport` must pass.
fn check_report(pass: &mut Pass, r: &DesignReport) {
    pass.check(r.acks <= r.orders_sent, || {
        format!("{}: acks {} > orders {}", r.design, r.acks, r.orders_sent)
    });
    pass.check(r.frames_dropped == 0, || {
        format!("{}: {} frames dropped", r.design, r.frames_dropped)
    });
    pass.check(!r.reaction_samples.is_empty(), || {
        format!("{}: no reaction samples", r.design)
    });
}

impl<D: TradingNetworkDesign> Workload for DesignPaper<D> {
    type Input = ();

    fn name(&self) -> &'static str {
        self.name
    }

    /// The same `run()` over a 2 µs interval: topology build, logins and
    /// report assembly with next to no traffic.
    fn setup(&self, knobs: Knobs, tr: &Tracer) {
        let mut sc = self.scenario(knobs);
        sc.duration = SimTime::from_us(2);
        sc.warmup = SimTime::from_us(1);
        let _span = tr.span("core.design_setup");
        std::hint::black_box(self.design.run(&sc));
    }

    fn run(&self, (): (), knobs: Knobs, tr: &Tracer) -> Timed {
        let sc = self.scenario(knobs);
        let (report, cost) = bracket(|| {
            let _span = tr.span("core.design_run");
            self.design.run(&sc)
        });
        let mut pass = Pass::new(
            report.trace_digest,
            report.events_recorded,
            report.reaction_samples.clone(),
        );
        check_report(&mut pass, &report);
        pass.ops.absorb_report(&report);
        pass.runs.push(RunInfo::of_design(self.alias, &sc, &report));
        Timed { pass, cost }
    }

    fn shape(&self) -> Shape {
        market_shape(self.seed, self.scenario(Knobs::PLAIN))
    }
}

// ---------------------------------------------------------------------
// swarm-100k / swarm-100k-shard8
// ---------------------------------------------------------------------

/// The agent swarm on the serial kernel: `Simulator::run_until`.
pub struct SwarmSerial {
    seed: u64,
    scale: SwarmScale,
}

/// `swarm-100k`.
pub fn swarm_serial(seed: u64, scale: &Scale) -> SwarmSerial {
    SwarmSerial {
        seed,
        scale: scale.swarm,
    }
}

/// Build the swarm under `knobs`. Of the observability set only the
/// profiler applies: the swarms never take the full-obs pass.
fn build_swarm(scale: SwarmScale, seed: u64, knobs: Knobs) -> swarm::Swarm {
    let mut built = swarm::build(scale, seed, knobs.scheduler);
    built.sim.set_profile(knobs.obs.profile);
    built
}

fn swarm_pass(sim: &Simulator, exchanges: &[NodeId]) -> Pass {
    let mut pass = Pass::new(
        sim.trace.digest(),
        sim.trace.recorded(),
        swarm::latencies(sim, exchanges),
    );
    pass.check(sim.stats().frames_dropped == 0, || {
        format!("swarm dropped {} frames", sim.stats().frames_dropped)
    });
    pass.runs.push(RunInfo::bare(sim.profile()));
    pass.ops.runs = 1;
    pass
}

impl Workload for SwarmSerial {
    type Input = swarm::Swarm;

    fn name(&self) -> &'static str {
        "swarm-100k"
    }

    fn setup(&self, knobs: Knobs, tr: &Tracer) -> swarm::Swarm {
        let _span = tr.span("sim.swarm_build");
        build_swarm(self.scale, self.seed, knobs)
    }

    fn run(&self, mut input: swarm::Swarm, _knobs: Knobs, tr: &Tracer) -> Timed {
        let deadline = self.scale.duration;
        let ((), cost) = bracket(|| {
            let _span = tr.span("sim.run_until");
            input.sim.run_until(deadline);
        });
        Timed {
            pass: swarm_pass(&input.sim, &input.exchanges),
            cost,
        }
    }

    /// No PITCH traffic of its own: rigs fall back to the small preset.
    fn shape(&self) -> Shape {
        market_shape(self.seed, ScenarioConfig::small(self.seed))
    }

    /// Provenance and a 100,000-node registry cost four to six passes'
    /// time, and the swarm has no report to put telemetry in: nobody
    /// runs it that way, so the traced run does not either.
    fn full_obs_pass(&self) -> bool {
        false
    }
}

/// The same swarm through the sharded kernel, windows run inline on the
/// calling thread.
pub struct SwarmSharded {
    serial: SwarmSerial,
    shards: u16,
    /// Inline (`usize::MAX`) or threaded (`0`) windows; the gated
    /// workload is always inline.
    parallel_threshold: usize,
    /// `(digest, events)` of the serial run of the same seed.
    reference: Option<(u64, u64)>,
}

/// `swarm-100k-shard8` (one shard per metro).
pub fn swarm_sharded(seed: u64, scale: &Scale) -> SwarmSharded {
    SwarmSharded {
        serial: swarm_serial(seed, scale),
        shards: scale.swarm.metros as u16,
        parallel_threshold: usize::MAX,
        reference: None,
    }
}

/// A split swarm, ready for `run_until`.
pub struct SplitSwarm {
    sharded: ShardedSimulator,
    exchanges: Vec<NodeId>,
}

impl Workload for SwarmSharded {
    type Input = SplitSwarm;

    fn name(&self) -> &'static str {
        "swarm-100k-shard8"
    }

    fn setup(&self, knobs: Knobs, tr: &Tracer) -> SplitSwarm {
        let built = self.serial.setup(knobs, tr);
        let plan = {
            let _span = tr.span("sim.shard_plan");
            ShardPlan::auto(&built.sim, self.shards)
        };
        let mut sharded = {
            let _span = tr.span("sim.shard_split");
            ShardedSimulator::split(built.sim, &plan).expect("auto plans always validate")
        };
        sharded.set_parallel_threshold(self.parallel_threshold);
        SplitSwarm {
            sharded,
            exchanges: built.exchanges,
        }
    }

    fn run(&self, input: SplitSwarm, _knobs: Knobs, tr: &Tracer) -> Timed {
        let deadline = self.serial.scale.duration;
        let SplitSwarm {
            mut sharded,
            exchanges,
        } = input;
        let ((stats, merged), cost) = bracket(|| {
            {
                let _span = tr.span("sim.shard_run");
                sharded.run_until(deadline);
            }
            let stats = sharded.run_stats();
            let _span = tr.span("sim.shard_finish");
            (stats, sharded.finish())
        });
        let mut pass = swarm_pass(&merged, &exchanges);
        if let Some(serial) = self.reference {
            let sharded = (pass.digest, pass.events);
            pass.check(serial == sharded, || {
                format!(
                    "sharded digest {:016x}/{} != serial {:016x}/{}",
                    sharded.0, sharded.1, serial.0, serial.1
                )
            });
        }
        pass.shard = Some(stats);
        Timed { pass, cost }
    }

    /// One serial pass of the same seed, for the digest comparison.
    fn reference(&mut self) {
        let pass = self.serial.pass(Knobs::PLAIN, &Tracer::off()).pass;
        self.reference = Some((pass.digest, pass.events));
    }

    fn shape(&self) -> Shape {
        self.serial.shape()
    }

    fn full_obs_pass(&self) -> bool {
        self.serial.full_obs_pass()
    }

    /// Inline ÷ threaded wall at k = 2, back to back: ROADMAP item 4's
    /// pay-or-go evidence. Ungated: two busy threads on a two-vCPU box
    /// measure the neighbours as much as the code.
    fn extras(&self) -> Values {
        let off = Tracer::off();
        let wall = |parallel_threshold: usize| {
            let w = SwarmSharded {
                serial: SwarmSerial { ..self.serial },
                shards: 2,
                parallel_threshold,
                reference: self.reference,
            };
            w.pass(Knobs::PLAIN, &off).cost.wall_ns as f64
        };
        let inline = wall(usize::MAX);
        let threaded = wall(0);
        vec![("sim.shard_thread_ratio", inline / threaded.max(1.0))]
    }
}

// ---------------------------------------------------------------------
// feed-recovery
// ---------------------------------------------------------------------

/// PITCH publisher → 1%-lossy `FaultLink` → reorderer / recovery client /
/// retransmission server, through `tn_bench::faultsim::run_loss_recovery`.
pub struct FeedRecovery {
    seed: u64,
    packets: u64,
}

/// `feed-recovery`.
pub fn feed_recovery(seed: u64, scale: &Scale) -> FeedRecovery {
    FeedRecovery {
        seed,
        packets: scale.packets,
    }
}

impl FeedRecovery {
    fn config(&self, packets: u64, knobs: Knobs) -> LossRecoveryConfig {
        let fault = FaultSpec::new(self.seed ^ 11).with_iid_loss(0.01);
        let mut cfg = LossRecoveryConfig::new(self.seed, fault);
        cfg.packets = packets;
        cfg.scheduler = knobs.scheduler;
        cfg.obs = knobs.obs;
        cfg
    }
}

impl Workload for FeedRecovery {
    type Input = ();

    fn name(&self) -> &'static str {
        "feed-recovery"
    }

    /// A 1-packet run: kernel, three nodes, three links.
    fn setup(&self, knobs: Knobs, tr: &Tracer) {
        let cfg = self.config(1, knobs);
        let _span = tr.span("feed.recovery_setup");
        std::hint::black_box(run_loss_recovery(&cfg));
    }

    fn run(&self, (): (), knobs: Knobs, tr: &Tracer) -> Timed {
        let cfg = self.config(self.packets, knobs);
        let (run, cost): (LossRecoveryRun, _) = bracket(|| {
            let _span = tr.span("feed.recovery_run");
            run_loss_recovery(&cfg)
        });
        let mut pass = Pass::new(run.digest, run.events, run.fill_latency_ps.clone());
        pass.check(run.delivered_messages == run.published_messages, || {
            format!(
                "delivered {} of {} published",
                run.delivered_messages, run.published_messages
            )
        });
        pass.check(run.abandoned == 0, || {
            format!("{} sequence numbers abandoned", run.abandoned)
        });
        pass.ops = Ops {
            packets: self.packets,
            recovery_msgs: run.published_messages,
            gaps: run.gaps_seen,
            retrans_requests: run.retrans_requests,
            recovered_msgs: run.recovered_messages,
            abandoned: run.abandoned,
            // Every published packet crosses the faulty feed link once.
            fault_offered: self.packets,
            runs: 1,
            ..Ops::default()
        };
        pass.runs.push(RunInfo::bare(run.profile));
        Timed { pass, cost }
    }

    fn shape(&self) -> Shape {
        Shape {
            delete_only: true,
            msgs_per_packet: self.config(1, Knobs::PLAIN).msgs_per_packet as usize,
            ..market_shape(self.seed, ScenarioConfig::small(self.seed))
        }
    }
}

// ---------------------------------------------------------------------
// shootout-small
// ---------------------------------------------------------------------

/// The three-design comparison (plus the FPGA hybrid) as users run it:
/// a `tn_lab` sweep, expanded, batch-run on one worker, aggregated and
/// serialized.
pub struct Shootout {
    spec: SweepSpec,
    /// Report JSON of one untimed pass; every timed pass must equal it.
    reference: Option<String>,
}

/// `shootout-small`.
pub fn shootout_small(seed: u64, scale: &Scale) -> Shootout {
    Shootout {
        spec: SweepSpec {
            name: "shootout-small".into(),
            base: "small".into(),
            designs: DESIGN_ALIASES.map(String::from).to_vec(),
            overrides: vec![
                ("duration_us".into(), scale.shootout_duration_us),
                ("warmup_us".into(), 1_000.0),
            ],
            axes: vec![Axis {
                param: "strategies".into(),
                values: AxisValues::List(vec![6.0, 8.0, 10.0]),
            }],
            seeds: vec![seed, seed + 1],
        },
        reference: None,
    }
}

/// `ScenarioExecutor` with the traced run's knobs applied, keeping every
/// `DesignReport` so layer counts survive the lab's distillation.
struct KnobExecutor {
    knobs: Knobs,
    reports: Mutex<Vec<(RunInfo, DesignReport)>>,
}

/// The lab's design aliases, as `'static` strings.
const DESIGN_ALIASES: [&str; 4] = ["traditional", "cloud", "l1", "fpga"];

impl RunExecutor for KnobExecutor {
    fn execute(&self, plan: &RunPlan) -> Result<RunOutcome, String> {
        let mut sc = build_config(plan, self.knobs.scheduler)?;
        sc.obs = self.knobs.obs;
        let report = resolve_design(&plan.design)?.run(&sc);
        // Same outcome `ScenarioExecutor` distills, so the report JSON
        // (and with it the byte-identity check) is knob-independent.
        let outcome = RunOutcome {
            digest: report.trace_digest,
            events: report.events_recorded,
            samples_ps: report.reaction_samples.clone(),
            metrics: vec![
                ("feed_messages".into(), report.feed_messages as f64),
                ("orders_sent".into(), report.orders_sent as f64),
                ("frames_dropped".into(), report.frames_dropped as f64),
                ("network_share".into(), report.network_share),
            ],
        };
        let alias = DESIGN_ALIASES
            .into_iter()
            .find(|a| *a == plan.design)
            .ok_or_else(|| format!("no alias for design `{}`", plan.design))?;
        self.reports
            .lock()
            .expect("no executor panicked while holding the lock")
            .push((RunInfo::of_design(alias, &sc, &report), report));
        Ok(outcome)
    }
}

impl Shootout {
    /// The sweep this workload runs.
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// expand → run_batch → build → to_json, one span each.
    fn pipeline(
        &self,
        manifest: &[RunPlan],
        exec: &dyn RunExecutor,
        threads: usize,
        tr: &Tracer,
    ) -> (Vec<RunOutcome>, String) {
        let outcomes = {
            let _span = tr.span("lab.run_batch");
            run_batch(manifest, threads, exec).expect("the sweep's own manifest runs")
        };
        let report = {
            let _span = tr.span("lab.report_build");
            LabReport::build(&self.spec.name, &self.spec.base, manifest, &outcomes)
        };
        let json = {
            let _span = tr.span("lab.report_json");
            report.to_json()
        };
        (outcomes, json)
    }

    /// One pass on `threads` workers (the gated workload uses 1).
    pub fn run_on(&self, manifest: Vec<RunPlan>, threads: usize, tr: &Tracer) -> Timed {
        let ((outcomes, json), cost) =
            bracket(|| self.pipeline(&manifest, &ScenarioExecutor::new(), threads, tr));
        Timed {
            pass: self.pass(&manifest, &outcomes, &json, Vec::new()),
            cost,
        }
    }

    fn pass(
        &self,
        manifest: &[RunPlan],
        outcomes: &[RunOutcome],
        json: &str,
        reports: Vec<(RunInfo, DesignReport)>,
    ) -> Pass {
        // The sweep's headline latency: every reaction sample of the
        // Layer-1 runs, pooled.
        let latency_ps = manifest
            .iter()
            .zip(outcomes)
            .filter(|(plan, _)| plan.design == "l1")
            .flat_map(|(_, out)| out.samples_ps.iter().copied())
            .collect();
        let mut pass = Pass::new(
            tn_sim::fnv1a_fold(tn_sim::EMPTY_DIGEST, json.as_bytes()),
            outcomes.iter().map(|o| o.events).sum(),
            latency_ps,
        );
        if let Some(reference) = &self.reference {
            pass.check(reference == json, || {
                "tn-lab/v1 report differs from the reference pass".into()
            });
        }
        for (plan, out) in manifest.iter().zip(outcomes) {
            pass.check(!out.samples_ps.is_empty(), || {
                format!(
                    "run {} ({}) has no reaction samples",
                    plan.index, plan.design
                )
            });
        }
        if reports.is_empty() {
            pass.ops.runs = manifest.len() as u64;
        }
        for (info, r) in reports {
            check_report(&mut pass, &r);
            pass.ops.absorb_report(&r);
            pass.runs.push(info);
        }
        pass
    }
}

impl Workload for Shootout {
    type Input = Vec<RunPlan>;

    fn name(&self) -> &'static str {
        "shootout-small"
    }

    fn setup(&self, _knobs: Knobs, tr: &Tracer) -> Vec<RunPlan> {
        let _span = tr.span("lab.expand");
        self.spec.expand().expect("the sweep is well-formed")
    }

    fn run(&self, manifest: Vec<RunPlan>, knobs: Knobs, tr: &Tracer) -> Timed {
        if knobs == Knobs::PLAIN {
            return self.run_on(manifest, 1, tr);
        }
        let exec = KnobExecutor {
            knobs,
            reports: Mutex::new(Vec::new()),
        };
        let ((outcomes, json), cost) = bracket(|| self.pipeline(&manifest, &exec, 1, tr));
        let reports = exec
            .reports
            .into_inner()
            .expect("no executor panicked while holding the lock");
        Timed {
            pass: self.pass(&manifest, &outcomes, &json, reports),
            cost,
        }
    }

    fn reference(&mut self) {
        let tr = Tracer::off();
        let manifest = self.setup(Knobs::PLAIN, &tr);
        let (_, json) = self.pipeline(&manifest, &ScenarioExecutor::new(), 1, &tr);
        self.reference = Some(json);
    }

    /// The sweep's largest cell.
    fn shape(&self) -> Shape {
        let seed = self.spec.seeds[0];
        let mut sc = ScenarioConfig::small(seed);
        sc.strategies = 10;
        market_shape(seed, sc)
    }

    /// What the lab adds on top of its runs, and what a second worker
    /// buys (ungated, like every threaded ratio).
    fn extras(&self) -> Values {
        let off = Tracer::off();
        let manifest = self.setup(Knobs::PLAIN, &off);
        let exec = ScenarioExecutor::new();
        let standalone: u64 = manifest
            .iter()
            .map(|plan| bracket(|| exec.execute(plan)).1.wall_ns)
            .sum();
        let one = self.run_on(manifest.clone(), 1, &off).cost.wall_ns as f64;
        let two = self.run_on(manifest, 2, &off).cost.wall_ns as f64;
        vec![
            (
                "lab.overhead_share",
                (one - standalone as f64) / one.max(1.0),
            ),
            ("lab.thread2_ratio", one / two.max(1.0)),
        ]
    }
}
