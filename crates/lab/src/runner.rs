//! The deterministic parallel batch runner.
//!
//! [`run_batch`] executes a run manifest on a `std::thread` worker pool.
//! Workers claim manifest indices from a shared atomic counter — whatever
//! interleaving the OS produces — but every result lands in the slot of
//! its manifest index, and the merged vector is returned in manifest
//! order. Nothing downstream can observe the thread count: each run is an
//! isolated single-threaded simulation (own kernel, own PRNG, own arena),
//! so `run_batch(m, 1, e)` and `run_batch(m, N, e)` are equal element for
//! element, and the serialized report is byte-identical. `tn-audit
//! divergence` pins exactly that (`lab-parallel-vs-serial`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tn_core::{
    CloudDesign, FpgaHybrid, LayerOneSwitches, ScenarioConfig, TradingNetworkDesign,
    TraditionalSwitches,
};
use tn_fault::FaultSpec;
use tn_sim::{ObsConfig, SchedulerKind, SimTime};

use crate::spec::RunPlan;

/// What one executed run distills to, independent of how it was
/// scheduled onto threads.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Kernel trace digest (or executor-defined content digest).
    pub digest: u64,
    /// Events folded into the digest.
    pub events: u64,
    /// Latency samples in picoseconds, pooled across seeds for the cell
    /// statistics (wire-to-wire reaction for scenario runs).
    pub samples_ps: Vec<u64>,
    /// Free-form named scalars, emitted per run in the report.
    pub metrics: Vec<(String, f64)>,
}

/// Executes one planned run. Implementations must be [`Sync`]: the
/// worker pool shares one executor across threads, so any state it
/// carries must be read-only during the batch.
pub trait RunExecutor: Sync {
    /// Execute `plan` and return its outcome.
    fn execute(&self, plan: &RunPlan) -> Result<RunOutcome, String>;
}

/// The default executor: builds a [`ScenarioConfig`] from the plan's
/// base preset + parameters and runs it over the named design.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScenarioExecutor {
    /// Event scheduler for every run (digest-neutral; defaults to the
    /// reference binary heap).
    pub scheduler: SchedulerKind,
}

impl ScenarioExecutor {
    /// Executor on the reference scheduler.
    pub fn new() -> ScenarioExecutor {
        ScenarioExecutor::default()
    }
}

impl RunExecutor for ScenarioExecutor {
    fn execute(&self, plan: &RunPlan) -> Result<RunOutcome, String> {
        let sc = build_config(plan, self.scheduler)?;
        let design = resolve_design(&plan.design)?;
        let report = design.run(&sc);
        let metrics = vec![
            ("feed_messages".into(), report.feed_messages as f64),
            ("orders_sent".into(), report.orders_sent as f64),
            ("frames_dropped".into(), report.frames_dropped as f64),
            ("network_share".into(), report.network_share),
        ];
        Ok(RunOutcome {
            digest: report.trace_digest,
            events: report.events_recorded,
            samples_ps: report.reaction_samples,
            metrics,
        })
    }
}

/// Resolve a design alias to a design instance.
pub fn resolve_design(alias: &str) -> Result<Box<dyn TradingNetworkDesign>, String> {
    match alias {
        "traditional" => Ok(Box::new(TraditionalSwitches::default())),
        "cloud" => Ok(Box::new(CloudDesign::default())),
        "l1" => Ok(Box::new(LayerOneSwitches::default())),
        "fpga" => Ok(Box::new(FpgaHybrid::default())),
        other => Err(format!(
            "unknown design `{other}` (expected traditional|cloud|l1|fpga)"
        )),
    }
}

/// Build the scenario for one plan: the base preset seeded with the
/// plan's seed, then every parameter applied in order, then validated
/// through the `ScenarioConfig` builder.
pub fn build_config(plan: &RunPlan, scheduler: SchedulerKind) -> Result<ScenarioConfig, String> {
    let mut sc = match plan.base.as_str() {
        "small" => ScenarioConfig::small(plan.seed),
        "paper" => ScenarioConfig::paper_scale(plan.seed),
        other => return Err(format!("unknown base preset `{other}` (small|paper)")),
    };
    sc.scheduler = scheduler;
    for (param, value) in &plan.params {
        apply_param(&mut sc, plan.seed, param, *value)?;
    }
    sc.to_builder().build().map_err(|e| e.to_string())
}

fn apply_param(sc: &mut ScenarioConfig, seed: u64, param: &str, value: f64) -> Result<(), String> {
    let count = || as_count(param, value);
    // A wrapped count (65,537 units becoming 1) would pass validation.
    let count16 = || {
        u16::try_from(count()?)
            .map_err(|_| format!("parameter `{param}` must be at most 65535, got {value}"))
    };
    match param {
        "symbols" => sc.symbols = count()?,
        "normalizers" => sc.normalizers = count()?,
        "strategies" => sc.strategies = count()?,
        "gateways" => sc.gateways = count()?,
        "feed_units" => sc.feed_units = count16()?,
        "internal_partitions" => sc.internal_partitions = count16()?,
        "subs_per_strategy" => sc.subs_per_strategy = count()?,
        "background_rate" => sc.background_rate = value,
        "duration_us" => sc.duration = SimTime::from_us(count()? as u64),
        "warmup_us" => sc.warmup = SimTime::from_us(count()? as u64),
        "tick_interval_us" => sc.tick_interval = SimTime::from_us(count()? as u64),
        "normalizer_service_ns" => sc.normalizer_service = SimTime::from_ns(count()? as u64),
        "decision_service_ns" => sc.decision_service = SimTime::from_ns(count()? as u64),
        "gateway_service_ns" => sc.gateway_service = SimTime::from_ns(count()? as u64),
        "exchange_service_ns" => sc.exchange_service = SimTime::from_ns(count()? as u64),
        "momentum_threshold" => sc.momentum_threshold = count()? as i64,
        // Loss axis: p = 0 means *no* fault spec, keeping zero-loss cells
        // on the clean-path golden digests.
        "iid_loss" => sc.feed_fault = FaultSpec::iid(seed, value),
        // Telemetry axis: 0 = off, anything else = full.
        "obs_full" => sc.obs = ObsConfig::from_full_flag(value != 0.0),
        other => return Err(format!("unknown scenario parameter `{other}`")),
    }
    Ok(())
}

fn as_count(param: &str, value: f64) -> Result<usize, String> {
    if !value.is_finite() || value < 0.0 || value.fract() != 0.0 || value > u64::MAX as f64 {
        return Err(format!(
            "parameter `{param}` needs a non-negative integer, got {value}"
        ));
    }
    Ok(value as usize)
}

/// Execute `manifest` with `threads` workers and return outcomes in
/// manifest order. `threads == 1` (or a single-run manifest) degrades to
/// a plain serial loop; any thread count produces identical output.
pub fn run_batch(
    manifest: &[RunPlan],
    threads: usize,
    exec: &dyn RunExecutor,
) -> Result<Vec<RunOutcome>, String> {
    let threads = threads.max(1).min(manifest.len().max(1));
    if threads <= 1 {
        return manifest.iter().map(|p| exec.execute(p)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<RunOutcome, String>>>> =
        manifest.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= manifest.len() {
                    break;
                }
                let result = exec.execute(&manifest[i]);
                *slots[i].lock().expect("runner slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("runner slot poisoned")
                .expect("every manifest index was claimed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    /// A sim-free executor whose outcome is a pure function of the plan,
    /// with a little busy-work so threads actually interleave.
    struct StubExecutor;

    impl RunExecutor for StubExecutor {
        fn execute(&self, plan: &RunPlan) -> Result<RunOutcome, String> {
            let mut digest = tn_sim::EMPTY_DIGEST;
            digest = tn_sim::fnv1a_fold(digest, plan.design.as_bytes());
            digest = tn_sim::fnv1a_fold(digest, &plan.seed.to_le_bytes());
            for (p, v) in &plan.params {
                digest = tn_sim::fnv1a_fold(digest, p.as_bytes());
                digest = tn_sim::fnv1a_fold(digest, &v.to_bits().to_le_bytes());
            }
            let spin = (digest % 2_000) as usize;
            let samples: Vec<u64> = (0..spin).map(|i| digest.wrapping_add(i as u64)).collect();
            Ok(RunOutcome {
                digest,
                events: plan.index as u64 + 1,
                samples_ps: samples,
                metrics: vec![("spin".into(), spin as f64)],
            })
        }
    }

    #[test]
    fn parallel_output_equals_serial_output() {
        let manifest = SweepSpec::smoke().expand().unwrap();
        let serial = run_batch(&manifest, 1, &StubExecutor).unwrap();
        for threads in [2, 4, 7, 32] {
            let parallel = run_batch(&manifest, threads, &StubExecutor).unwrap();
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn executor_errors_surface() {
        struct Failing;
        impl RunExecutor for Failing {
            fn execute(&self, plan: &RunPlan) -> Result<RunOutcome, String> {
                Err(format!("boom at {}", plan.index))
            }
        }
        let manifest = SweepSpec::smoke().expand().unwrap();
        assert!(run_batch(&manifest, 1, &Failing).is_err());
        assert!(run_batch(&manifest, 4, &Failing).is_err());
    }

    #[test]
    fn build_config_applies_params_and_validates() {
        let plan = RunPlan {
            index: 0,
            base: "small".into(),
            design: "traditional".into(),
            seed: 7,
            params: vec![
                ("strategies".into(), 9.0),
                ("duration_us".into(), 8_000.0),
                ("iid_loss".into(), 0.01),
                ("obs_full".into(), 1.0),
            ],
        };
        let sc = build_config(&plan, SchedulerKind::CalendarQueue).unwrap();
        assert_eq!(sc.seed, 7);
        assert_eq!(sc.strategies, 9);
        assert_eq!(sc.duration, SimTime::from_us(8_000));
        assert!(sc.feed_fault.is_some());
        assert_eq!(sc.obs, ObsConfig::full());
        assert_eq!(sc.scheduler, SchedulerKind::CalendarQueue);

        // Zero loss leaves the fault slot empty.
        let mut clean = plan.clone();
        clean.params = vec![("iid_loss".into(), 0.0)];
        assert!(build_config(&clean, SchedulerKind::BinaryHeap)
            .unwrap()
            .feed_fault
            .is_none());

        // Unknown params and non-integer counts are rejected.
        let mut bad = plan.clone();
        bad.params = vec![("flux_capacitance".into(), 1.21)];
        assert!(build_config(&bad, SchedulerKind::BinaryHeap).is_err());
        bad.params = vec![("strategies".into(), 2.5)];
        assert!(build_config(&bad, SchedulerKind::BinaryHeap).is_err());

        // Builder validation still applies (zero strategies).
        bad.params = vec![("strategies".into(), 0.0)];
        assert!(build_config(&bad, SchedulerKind::BinaryHeap).is_err());

        // 16-bit counts do not wrap: 65,537 feed units is an error, not
        // 1, and 257 still reaches the builder's one-byte-unit-id check.
        for (param, too_many) in [
            ("feed_units", 65_537.0),
            ("internal_partitions", 65_536.0),
            ("feed_units", 257.0),
        ] {
            bad.params = vec![(param.into(), too_many)];
            let err = build_config(&bad, SchedulerKind::BinaryHeap).unwrap_err();
            assert!(err.contains(param), "{err}");
        }
    }

    #[test]
    fn unknown_design_and_base_are_rejected() {
        assert!(resolve_design("traditional").is_ok());
        assert!(resolve_design("abacus").is_err());
        let plan = RunPlan {
            index: 0,
            base: "medium".into(),
            design: "traditional".into(),
            seed: 1,
            params: vec![],
        };
        assert!(build_config(&plan, SchedulerKind::BinaryHeap).is_err());
    }
}
