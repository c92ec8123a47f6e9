//! Dual-run divergence checking.
//!
//! The static lints catch *sources* of nondeterminism; this module checks
//! the *property itself*: every registered scenario is run twice with the
//! same seed, and the kernel trace digests (folded over the full event
//! stream, see `tn_sim::TraceLog`) must match bit-for-bit. Any HashMap
//! iteration order, address-dependent hash, or stray entropy that escapes
//! into event timing or ordering flips the digest.
//!
//! The registry runs every example under `examples/`: the design examples
//! through the designs' own `run`, the others through the scenario code
//! they share with it in `tn_bench` (`feedsim`, `mcastsim`, `metrosim`),
//! with durations trimmed so `tn-audit check` stays fast. No scenario
//! here builds a simulator of its own. The feed-handler example has no
//! simulator, so its signature hashes the published packet bytes instead
//! of a kernel trace.

use tn_core::{
    CloudDesign, FpgaHybrid, LayerOneSwitches, ScenarioConfig, TradingNetworkDesign,
    TraditionalSwitches,
};
use tn_sim::{SchedulerKind, SimTime, EMPTY_DIGEST};
use tn_topo::metro::CircuitKind;

/// What one scenario run distills to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSignature {
    /// Trace digest (or content digest for non-kernel scenarios).
    pub digest: u64,
    /// Events folded into the digest.
    pub events: u64,
}

/// A registered divergence scenario.
pub struct Scenario {
    /// Stable name (names the example or experiment it runs).
    pub name: &'static str,
    /// Execute one run under the given event scheduler and return its
    /// signature. Scenarios with no kernel (feed-handler) ignore the kind.
    pub run: fn(SchedulerKind) -> RunSignature,
}

/// Result of checking one scenario: two reference-scheduler runs (the
/// classic dual-run determinism check) plus one calendar-queue run (the
/// scheduler-equivalence check).
#[derive(Debug, Clone)]
pub struct DivergenceOutcome {
    /// Scenario name.
    pub name: &'static str,
    /// First run (reference binary-heap scheduler).
    pub first: RunSignature,
    /// Second run (reference binary-heap scheduler).
    pub second: RunSignature,
    /// Calendar-queue run; must equal the reference runs bit-for-bit.
    pub calendar: RunSignature,
}

impl RunSignature {
    fn new(digest: u64, events: u64) -> RunSignature {
        RunSignature { digest, events }
    }
}

impl DivergenceOutcome {
    /// Did the dual runs agree with each other *and* with the
    /// calendar-queue run?
    pub fn passed(&self) -> bool {
        self.first == self.second && self.first == self.calendar
    }
}

/// All registered scenarios: one (or more) per example in `examples/`.
pub fn registry() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "quickstart",
            run: run_quickstart,
        },
        Scenario {
            name: "shootout-traditional",
            run: |k| run_design(&TraditionalSwitches::default(), 7, k),
        },
        Scenario {
            name: "shootout-cloud",
            run: |k| run_design(&CloudDesign::default(), 7, k),
        },
        Scenario {
            name: "shootout-l1",
            run: |k| run_design(&LayerOneSwitches::default(), 7, k),
        },
        Scenario {
            name: "shootout-fpga",
            run: |k| run_design(&FpgaHybrid::default(), 7, k),
        },
        Scenario {
            name: "feed-handler",
            run: run_feed_handler,
        },
        Scenario {
            name: "mcast-cliff",
            run: run_mcast_cliff,
        },
        Scenario {
            name: "metro-arbitrage-fiber",
            run: |k| run_metro(CircuitKind::Fiber, k),
        },
        Scenario {
            name: "metro-arbitrage-microwave",
            run: |k| run_metro(CircuitKind::Microwave, k),
        },
        Scenario {
            name: "fault-loss-recovery",
            run: run_fault_loss_recovery,
        },
        Scenario {
            name: "fault-ab-failover",
            run: run_fault_ab_failover,
        },
        Scenario {
            name: "fault-quickstart-degraded",
            run: run_quickstart_degraded,
        },
        Scenario {
            name: "obs-on-vs-off",
            run: run_quickstart_obs_on_vs_off,
        },
        Scenario {
            name: "flight-on-vs-off",
            run: run_quickstart_flight_on_vs_off,
        },
        Scenario {
            name: "latency-decomposition",
            run: run_latency_decomposition,
        },
        Scenario {
            name: "lab-parallel-vs-serial",
            run: run_lab_parallel_vs_serial,
        },
        Scenario {
            name: "lab-run-vs-standalone",
            run: run_lab_run_vs_standalone,
        },
        Scenario {
            name: "cloud-zero-knobs-transparent",
            run: run_cloud_zero_knobs,
        },
        Scenario {
            name: "cloud-fairness-design",
            run: run_cloud_fairness_design,
        },
        Scenario {
            name: "cloud-fairness-frontier",
            run: run_cloud_fairness_frontier,
        },
    ]
}

/// Run each scenario (optionally filtered by substring) twice under the
/// reference scheduler and once under the calendar queue, and collect the
/// outcomes.
pub fn run_all(filter: Option<&str>) -> Vec<DivergenceOutcome> {
    registry()
        .iter()
        .filter(|s| filter.is_none_or(|f| s.name.contains(f)))
        .map(|s| DivergenceOutcome {
            name: s.name,
            first: (s.run)(SchedulerKind::BinaryHeap),
            second: (s.run)(SchedulerKind::BinaryHeap),
            calendar: (s.run)(SchedulerKind::CalendarQueue),
        })
        .collect()
}

/// Divergence scenarios trim the measured interval: digest equality is a
/// property of the machinery, not of how long it runs.
fn trimmed(mut sc: ScenarioConfig) -> ScenarioConfig {
    sc.duration = SimTime::from_ms(8);
    sc.warmup = SimTime::from_ms(1);
    sc
}

fn run_quickstart(kind: SchedulerKind) -> RunSignature {
    // `examples/quickstart.rs`'s design and seed: TraditionalSwitches, 42.
    run_design(&TraditionalSwitches::default(), 42, kind)
}

fn run_design(design: &dyn TradingNetworkDesign, seed: u64, kind: SchedulerKind) -> RunSignature {
    let mut sc = trimmed(ScenarioConfig::small(seed));
    sc.scheduler = kind;
    let report = design.run(&sc);
    RunSignature::new(report.trace_digest, report.events_recorded)
}

/// Runs `examples/feed_handler.rs`'s scenario at 100 batches instead of
/// 500. It has no kernel, so the scheduler cannot matter; the signature
/// hashes the published packets and the normalized records.
fn run_feed_handler(_: SchedulerKind) -> RunSignature {
    let run = tn_bench::feedsim::run_feed(100);
    RunSignature::new(run.digest, run.events)
}

/// Runs `examples/mcast_cliff.rs`'s rig as it stands: 96 IGMP joins
/// against a 64-entry mroute table, then one packet per group; seed 3.
fn run_mcast_cliff(kind: SchedulerKind) -> RunSignature {
    use tn_bench::mcastsim::{run_mroute, MrouteConfig};

    let run = run_mroute(&MrouteConfig::cliff(kind));
    RunSignature::new(run.digest, run.events)
}

/// Runs `examples/metro_arbitrage.rs`'s two-colo plant over one circuit
/// kind, trimmed from 80 ms to 12 ms; seed 11.
fn run_metro(circuit: CircuitKind, kind: SchedulerKind) -> RunSignature {
    let run = tn_bench::metrosim::run_metro(circuit, SimTime::from_ms(12), kind);
    RunSignature::new(run.digest, run.events)
}

/// Runs `tn-exp run loss-recovery`'s scenario (trimmed): lossy feed, gap
/// requests, retransmission fills. The fault layer owns its own PRNG, so
/// two runs must agree even though every drop decision is random-looking.
fn run_fault_loss_recovery(kind: SchedulerKind) -> RunSignature {
    use tn_bench::faultsim::{run_loss_recovery, LossRecoveryConfig};
    use tn_fault::FaultSpec;

    let mut cfg = LossRecoveryConfig::new(1, FaultSpec::new(11).with_iid_loss(0.01));
    cfg.packets = 800;
    cfg.scheduler = kind;
    let run = run_loss_recovery(&cfg);
    RunSignature::new(run.digest, run.events)
}

/// Runs `tn-exp run ab-failover`'s scenario (trimmed): A-side outage,
/// arbitration keeps the stream whole out of B.
fn run_fault_ab_failover(kind: SchedulerKind) -> RunSignature {
    use tn_bench::faultsim::{run_ab_failover, AbFailoverConfig};

    let mut cfg = AbFailoverConfig::new(2);
    cfg.packets = 2_400; // 12 ms: through the outage start
    cfg.scheduler = kind;
    let run = run_ab_failover(&cfg);
    RunSignature::new(run.digest, run.events)
}

/// The quickstart scenario with a burst-degraded feed: the full design-1
/// topology with FaultLink-wrapped publish links must still dual-run to
/// identical digests.
fn run_quickstart_degraded(kind: SchedulerKind) -> RunSignature {
    use tn_fault::FaultSpec;

    let mut sc = trimmed(ScenarioConfig::small(42));
    sc.scheduler = kind;
    sc.feed_fault = Some(FaultSpec::new(13).with_burst_loss(0.01, 0.3, 0.0, 0.9));
    let report = TraditionalSwitches::default().run(&sc);
    RunSignature::new(report.trace_digest, report.events_recorded)
}

/// The quickstart scenario with every telemetry switch on, compared
/// against the same run with telemetry off: provenance accumulation, the
/// metrics registry, and trace export are pure side-state, so the two
/// event streams must be bit-for-bit identical. Returns the telemetry-on
/// signature (pinned against the golden quickstart digest in tests).
fn run_quickstart_obs_on_vs_off(kind: SchedulerKind) -> RunSignature {
    let off = run_quickstart(kind);
    let mut sc = trimmed(ScenarioConfig::small(42));
    sc.scheduler = kind;
    sc.obs = tn_sim::ObsConfig::full();
    let report = TraditionalSwitches::default().run(&sc);
    let on = RunSignature::new(report.trace_digest, report.events_recorded);
    assert_eq!(off, on, "telemetry must not perturb the event stream");
    on
}

/// The quickstart scenario with the tn-flight recorder and kernel
/// profiler on, compared against the same run with both off: recording
/// the last-N ring and bumping profiler counters is pure side-state, so
/// the event streams must be bit-for-bit identical. On mismatch the
/// assert carries the flight dump — the recorder's own post-mortem of
/// the diverged run. Returns the flight-on signature (pinned against
/// the golden quickstart digest in tests).
fn run_quickstart_flight_on_vs_off(kind: SchedulerKind) -> RunSignature {
    let off = run_quickstart(kind);
    let mut sc = trimmed(ScenarioConfig::small(42));
    sc.scheduler = kind;
    sc.obs.flight_capacity = 512;
    sc.obs.profile = true;
    let report = TraditionalSwitches::default().run(&sc);
    let on = RunSignature::new(report.trace_digest, report.events_recorded);
    assert_eq!(
        off,
        on,
        "flight recorder/profiler must not perturb the event stream\n{}",
        report.flight_dump.as_deref().unwrap_or("(no flight dump)")
    );
    assert!(
        report.profile.is_some(),
        "profiler was enabled; the report must carry a KernelProfile"
    );
    on
}

/// Runs `tn-exp run latency-decomposition`'s (E21) scenario: the shared
/// decomposition chain with full telemetry — per-frame provenance through
/// a tap and a store-and-forward relay.
fn run_latency_decomposition(kind: SchedulerKind) -> RunSignature {
    use tn_bench::obssim::{run_decomposition, DecompositionConfig};

    let mut cfg = DecompositionConfig::new(42);
    cfg.scheduler = kind;
    let run = run_decomposition(&cfg, tn_sim::ObsConfig::full());
    assert_eq!(
        run.max_residual_ps, 0,
        "provenance must reconcile against the kernel clock"
    );
    RunSignature::new(run.digest, run.events)
}

/// The tn-lab tentpole invariant: the smoke grid (3 strategies × 3
/// thresholds × 2 tick intervals on design 1) run on 4 workers must
/// render the *byte-identical* `tn-lab/v1` document a 1-worker run
/// renders, and the grid's first cell — the trimmed quickstart — must
/// carry the golden quickstart digest. The signature hashes the merged
/// document with the byte fold, `tn_sim::fnv1a_fold`.
fn run_lab_parallel_vs_serial(kind: SchedulerKind) -> RunSignature {
    use tn_lab::{run_batch, LabReport, ScenarioExecutor, SweepSpec};

    let exec = ScenarioExecutor { scheduler: kind };
    let spec = SweepSpec::smoke();
    let manifest = spec.expand().expect("smoke spec expands");
    let serial = run_batch(&manifest, 1, &exec).expect("serial batch");
    let parallel = run_batch(&manifest, 4, &exec).expect("parallel batch");
    let serial_doc = LabReport::build(&spec.name, &spec.base, &manifest, &serial).to_json();
    let parallel_doc = LabReport::build(&spec.name, &spec.base, &manifest, &parallel).to_json();
    assert_eq!(
        serial_doc, parallel_doc,
        "4-worker tn-lab/v1 output must be byte-identical to 1-worker"
    );
    assert_eq!(
        serial[0].digest, 0xc9ef3e6d16dadef0,
        "the grid's first cell is the trimmed quickstart"
    );
    RunSignature {
        digest: tn_sim::fnv1a_fold(EMPTY_DIGEST, serial_doc.as_bytes()),
        events: serial.iter().map(|o| o.events).sum(),
    }
}

/// A lab-executed cell must match the same config run directly: one
/// single-cell spec (the trimmed quickstart), executed through the lab's
/// expand → batch → aggregate pipeline, compared against a bare
/// `TraditionalSwitches::run` on a hand-built config. Pinned to the
/// golden quickstart digest.
fn run_lab_run_vs_standalone(kind: SchedulerKind) -> RunSignature {
    use tn_lab::{run_batch, ScenarioExecutor, SweepSpec};

    let mut spec = SweepSpec::smoke();
    spec.axes.clear(); // overrides only: exactly the trimmed quickstart
    let manifest = spec.expand().expect("single-cell spec expands");
    assert_eq!(manifest.len(), 1);
    let exec = ScenarioExecutor { scheduler: kind };
    let lab = &run_batch(&manifest, 1, &exec).expect("cell runs")[0];

    let standalone = run_quickstart(kind);
    assert_eq!(
        (lab.digest, lab.events),
        (standalone.digest, standalone.events),
        "lab-executed cell must equal the standalone run"
    );
    RunSignature::new(lab.digest, lab.events)
}

/// The PR-10 transparency invariant: `CloudFairnessSpec` gates the
/// whole mechanism set on `overlay_fanout` alone. With the fan-out
/// zeroed, every other knob may be set and the design must still build
/// the pre-fairness constant-based fabric — consuming no randomness and
/// perturbing no event — so its digest equals the plain default's.
fn run_cloud_zero_knobs(kind: SchedulerKind) -> RunSignature {
    use tn_topo::{CloudConfig, CloudFairnessSpec};

    let baseline = run_design(&CloudDesign::default(), 7, kind);
    let knobs_without_gate = CloudDesign {
        cloud: CloudConfig {
            fairness: CloudFairnessSpec {
                overlay_fanout: 0,
                ..CloudFairnessSpec::demo()
            },
            ..CloudConfig::default()
        },
    };
    let sig = run_design(&knobs_without_gate, 7, kind);
    assert_eq!(
        baseline, sig,
        "a fan-out-0 fairness spec must be bit-transparent"
    );
    sig
}

/// Design 2 with the full demo mechanism set live on the hot path:
/// overlay relay tree on the internal feed, a delay-equalizer gate per
/// strategy, and the hold-and-release sequencer spliced into the order
/// path. The assembly must dual-run and stay scheduler-neutral, and an
/// enabled spec must surface `FairnessStats` in the report.
fn run_cloud_fairness_design(kind: SchedulerKind) -> RunSignature {
    use tn_topo::{CloudConfig, CloudFairnessSpec};

    let mut sc = trimmed(ScenarioConfig::small(7));
    sc.scheduler = kind;
    let design = CloudDesign {
        cloud: CloudConfig {
            fairness: CloudFairnessSpec::demo(),
            ..CloudConfig::default()
        },
    };
    let report = design.run(&sc);
    assert!(
        report.fairness.is_some(),
        "an enabled fairness spec must report FairnessStats"
    );
    RunSignature::new(report.trace_digest, report.events_recorded)
}

/// One cell of E22's frontier (`tn-exp run cloud-fairness`): jitter
/// 2 µs on a fan-out-4 overlay with a 5 µs hold, 20 ns residual and 8
/// subscribers. Jitter rides `FaultLink` streams and the residual rides
/// the node-owned stream, so the whole frontier point must dual-run
/// bit-for-bit.
fn run_cloud_fairness_frontier(kind: SchedulerKind) -> RunSignature {
    use tn_cloud::{run_fairness, DesignKind, FairnessScenario};

    let mut sc = FairnessScenario::small(7);
    sc.scheduler = kind;
    let run = run_fairness(
        &sc,
        &DesignKind::Cloud {
            fanout: 4,
            jitter: SimTime::from_us(2),
            hold: SimTime::from_us(5),
            residual: SimTime::from_ns(20),
        },
    );
    assert!(
        run.added_median_ps >= run.hold_ps,
        "the fairness frontier point must charge at least its hold: {} < {}",
        run.added_median_ps,
        run.hold_ps
    );
    RunSignature::new(run.digest, run.events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_example() {
        // Every `examples/*.rs` is run by a scenario whose name contains
        // the example's last word (`design_shootout` → `shootout-*`), so
        // an example added without one fails here.
        let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        let dir = crate::scan::default_root().join("examples");
        let mut examples = 0;
        for entry in std::fs::read_dir(&dir).expect("examples/ is readable") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
            let word = stem.rsplit('_').next().unwrap();
            assert!(
                names.iter().any(|n| n.contains(word)),
                "no divergence scenario runs examples/{stem}.rs"
            );
            examples += 1;
        }
        assert!(examples >= 5, "read {examples} examples from {dir:?}");
    }

    #[test]
    fn quickstart_digest_is_pinned() {
        // Golden digest from before the fault layer existed: the refactor
        // (LinkSpec, builder, RecoveryStats) must not perturb a single
        // kernel event on the zero-fault path.
        let sig = run_quickstart(SchedulerKind::BinaryHeap);
        assert_eq!(sig.digest, 0xc9ef3e6d16dadef0, "{sig:?}");
        assert_eq!(sig.events, 19_924);
    }

    #[test]
    fn golden_digests_hold_under_the_calendar_queue() {
        // The scheduler swap must be invisible: the calendar queue has to
        // reproduce the pinned binary-heap digests bit for bit, with and
        // without telemetry and under the fault layer.
        let sig = run_quickstart(SchedulerKind::CalendarQueue);
        assert_eq!(sig.digest, 0xc9ef3e6d16dadef0, "{sig:?}");
        assert_eq!(sig.events, 19_924);

        let obs = run_quickstart_obs_on_vs_off(SchedulerKind::CalendarQueue);
        assert_eq!(obs.digest, 0xc9ef3e6d16dadef0, "{obs:?}");

        let decomp = run_latency_decomposition(SchedulerKind::CalendarQueue);
        assert_eq!(decomp.digest, 0xe228160522648904, "{decomp:?}");
        assert_eq!(decomp.events, 1_088);

        for runner in [run_fault_loss_recovery, run_fault_ab_failover] {
            assert_eq!(
                runner(SchedulerKind::BinaryHeap),
                runner(SchedulerKind::CalendarQueue),
                "fault scenarios must agree across schedulers"
            );
        }
    }

    #[test]
    fn golden_digests_hold_under_the_timing_wheel() {
        // Third scheduler, same contract: the hierarchical wheel must
        // reproduce the pinned binary-heap digest bit for bit.
        let sig = run_quickstart(SchedulerKind::TimingWheel);
        assert_eq!(sig.digest, 0xc9ef3e6d16dadef0, "{sig:?}");
        assert_eq!(sig.events, 19_924);

        let decomp = run_latency_decomposition(SchedulerKind::TimingWheel);
        assert_eq!(decomp.digest, 0xe228160522648904, "{decomp:?}");
        assert_eq!(decomp.events, 1_088);
    }

    #[test]
    fn zero_fault_spec_reproduces_quickstart_digest() {
        // A no-op FaultSpec routes the feed through FaultLink wrappers;
        // the wrapping itself must be bit-transparent.
        let baseline = run_quickstart(SchedulerKind::BinaryHeap);
        let mut sc = trimmed(ScenarioConfig::small(42));
        sc.feed_fault = Some(tn_fault::FaultSpec::new(0));
        let report = TraditionalSwitches::default().run(&sc);
        assert_eq!(report.trace_digest, baseline.digest);
        assert_eq!(report.events_recorded, baseline.events);
    }

    #[test]
    fn full_telemetry_reproduces_the_golden_quickstart_digest() {
        // The tentpole invariant of tn-obs: turning everything on leaves
        // the pre-telemetry golden digest untouched.
        let sig = run_quickstart_obs_on_vs_off(SchedulerKind::BinaryHeap);
        assert_eq!(sig.digest, 0xc9ef3e6d16dadef0, "{sig:?}");
        assert_eq!(sig.events, 19_924);
    }

    #[test]
    fn flight_recorder_reproduces_the_golden_quickstart_digest() {
        // The PR-8 tentpole invariant: a fully-on flight recorder and
        // kernel profiler leave the pinned golden digest untouched.
        let sig = run_quickstart_flight_on_vs_off(SchedulerKind::BinaryHeap);
        assert_eq!(sig.digest, 0xc9ef3e6d16dadef0, "{sig:?}");
        assert_eq!(sig.events, 19_924);
    }

    #[test]
    fn latency_decomposition_digest_is_pinned() {
        let sig = run_latency_decomposition(SchedulerKind::BinaryHeap);
        assert_eq!(sig.digest, 0xe228160522648904, "{sig:?}");
        assert_eq!(sig.events, 1_088);
    }

    #[test]
    fn lab_parallel_vs_serial_holds_and_is_pinned() {
        // One full evaluation: 18 cells serial + 18 cells on 4 workers,
        // documents asserted byte-equal inside the runner fn. The event
        // total is pinned: any change to the smoke grid or to a cell's
        // schedule moves it.
        let sig = run_lab_parallel_vs_serial(SchedulerKind::BinaryHeap);
        assert!(sig.events > 18 * 1_000, "{sig:?}");
        let again = run_lab_parallel_vs_serial(SchedulerKind::BinaryHeap);
        assert_eq!(sig, again, "merged document must dual-run identically");
    }

    #[test]
    fn lab_run_vs_standalone_reproduces_the_golden_digest() {
        let sig = run_lab_run_vs_standalone(SchedulerKind::BinaryHeap);
        assert_eq!(sig.digest, 0xc9ef3e6d16dadef0, "{sig:?}");
        assert_eq!(sig.events, 19_924);
        let cal = run_lab_run_vs_standalone(SchedulerKind::CalendarQueue);
        assert_eq!(sig, cal, "lab cell must be scheduler-neutral");
    }

    #[test]
    fn cloud_scenarios_are_deterministic() {
        // Covers shootout-cloud plus the three fairness scenarios: dual
        // run + calendar queue, with the transparency and hold-charge
        // asserts firing inside the runners.
        for o in run_all(Some("cloud")) {
            assert!(o.passed(), "{o:?}");
            assert!(o.first.events > 0, "{:?}", o.name);
        }
    }

    #[test]
    fn cloud_frontier_digest_is_pinned() {
        // E22's jitter-2 µs / hold-5 µs / fan-out-4 / S=8 cell: the
        // digest EXPERIMENTS.md quotes and the one the registry replays
        // must be the same number.
        let sig = run_cloud_fairness_frontier(SchedulerKind::BinaryHeap);
        assert_eq!(sig.digest, 0x4e24e17b841cbf37, "{sig:?}");
        assert_eq!(sig.events, 1_400);
        let wheel = run_cloud_fairness_frontier(SchedulerKind::TimingWheel);
        assert_eq!(sig, wheel, "frontier point must be scheduler-neutral");
    }

    #[test]
    fn fault_scenarios_are_deterministic() {
        for o in run_all(Some("fault")) {
            assert!(o.passed(), "{o:?}");
            assert!(o.first.events > 0, "{:?}", o.name);
        }
    }

    #[test]
    fn mcast_cliff_is_deterministic() {
        let o = run_all(Some("mcast-cliff"));
        assert_eq!(o.len(), 1);
        assert!(o[0].passed(), "{:?}", o[0]);
        assert!(o[0].first.events > 0, "the rig should generate traffic");
    }

    #[test]
    fn feed_handler_is_deterministic() {
        let a = run_feed_handler(SchedulerKind::BinaryHeap);
        let b = run_feed_handler(SchedulerKind::CalendarQueue);
        assert_eq!(a, b);
        assert!(a.events > 0);
    }
}
