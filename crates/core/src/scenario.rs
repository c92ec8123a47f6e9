//! The common firm + market scenario all designs run.

use tn_fault::FaultSpec;
use tn_sim::{ObsConfig, SchedulerKind, ShardPlan, SimTime, Simulator};

/// Why a [`ScenarioBuilder`] refused to produce a config.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A host tier (normalizers/strategies/gateways) has zero members.
    ZeroHosts(&'static str),
    /// A structural count (symbols, feed units, partitions, …) is zero.
    ZeroField(&'static str),
    /// More feed units than the one-byte PITCH unit id can name: units
    /// 256 apart would share an id and corrupt each other's sequencing.
    TooManyFeedUnits(u16),
    /// Warm-up must end before the measured interval does.
    WarmupExceedsDuration {
        /// Configured warm-up.
        warmup: SimTime,
        /// Configured measured duration.
        duration: SimTime,
    },
    /// Background event rate must be positive and finite.
    NonPositiveRate(f64),
    /// Strategies cannot subscribe to more partitions than exist.
    SubsExceedPartitions {
        /// Requested subscriptions per strategy.
        subs: usize,
        /// Available internal partitions.
        partitions: u16,
    },
    /// The shard spec is structurally broken, or the topology cannot
    /// honor it (a cut link with zero lookahead, a coin-consuming cut
    /// link, an assignment that does not cover the nodes).
    ShardRejected(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroHosts(tier) => write!(f, "scenario needs at least one {tier}"),
            ConfigError::ZeroField(field) => write!(f, "{field} must be non-zero"),
            ConfigError::TooManyFeedUnits(units) => {
                write!(
                    f,
                    "feed_units {units} exceeds the 256 a PITCH unit id can name"
                )
            }
            ConfigError::WarmupExceedsDuration { warmup, duration } => {
                write!(
                    f,
                    "warmup {warmup} must be shorter than duration {duration}"
                )
            }
            ConfigError::NonPositiveRate(r) => {
                write!(f, "background_rate {r} must be positive and finite")
            }
            ConfigError::SubsExceedPartitions { subs, partitions } => write!(
                f,
                "subs_per_strategy {subs} exceeds internal_partitions {partitions}"
            ),
            ConfigError::ShardRejected(msg) => write!(f, "shard spec rejected: {msg}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// How a design's kernel executes the scenario.
///
/// Every variant produces the *same* trace digest — sharded execution is
/// pinned bit-for-bit against the serial run by `tn-audit divergence`
/// and the shard-equivalence proptest — so this knob trades wall-clock
/// only, like [`ScenarioConfig::scheduler`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ShardSpec {
    /// One kernel, one thread: the reference execution.
    #[default]
    Serial,
    /// Partition into at most this many shards with the cut-minimizing
    /// automatic planner ([`tn_sim::ShardPlan::auto`]), which never cuts
    /// a zero-delay or coin-consuming link.
    Auto(u16),
    /// Explicit node-to-shard assignment (`assignment[node] = shard`).
    /// Rejected — as [`ConfigError::ShardRejected`] — when it does not
    /// cover the topology or cuts a link the protocol cannot cut.
    Manual(Vec<u32>),
}

/// Everything about the workload and the firm that is *not* the network:
/// the same `ScenarioConfig` runs over every design, so differences in
/// the reports are attributable to the fabric alone.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Master seed (drives workload and any model randomness).
    pub seed: u64,
    /// Listed instruments.
    pub symbols: usize,
    /// Normalizer hosts.
    pub normalizers: usize,
    /// Strategy hosts.
    pub strategies: usize,
    /// Gateway hosts.
    pub gateways: usize,
    /// Exchange feed units (native multicast partitions).
    pub feed_units: u16,
    /// Firm-internal partitions after normalization.
    pub internal_partitions: u16,
    /// Partitions each strategy subscribes to.
    pub subs_per_strategy: usize,
    /// Background market events per second.
    pub background_rate: f64,
    /// Measured interval (after warm-up).
    pub duration: SimTime,
    /// Warm-up before measurement starts (logins, joins, tree building).
    pub warmup: SimTime,
    /// Normalizer cost per native message (§3's per-event budget).
    pub normalizer_service: SimTime,
    /// Strategy decision cost per evaluated record (§4 assumes ≈2 µs per
    /// software function).
    pub decision_service: SimTime,
    /// Gateway translation cost per order.
    pub gateway_service: SimTime,
    /// Exchange matching cost per order-entry message.
    pub exchange_service: SimTime,
    /// Momentum threshold (1e-4 dollars) — lower fires more orders.
    pub momentum_threshold: i64,
    /// Exchange background-flow batch interval. Small intervals publish
    /// near-per-event (clean latency paths); larger ones coalesce events
    /// into multi-message packets (realistic bursts).
    pub tick_interval: SimTime,
    /// Fault model for the exchange's feed-publish links. `None` (the
    /// default) is bit-identical to the pre-fault-injection fabric; a
    /// spec degrades the A feed (and, where a design has only one feed
    /// path, the feed) while order entry stays clean.
    pub feed_fault: Option<FaultSpec>,
    /// Telemetry switches (provenance, metrics registry, trace export).
    /// Off by default; turning any of them on never changes a run's
    /// event schedule or trace digest (pinned by `tn-audit divergence`).
    pub obs: ObsConfig,
    /// Event scheduler the kernel runs on. The default stays the
    /// reference [`SchedulerKind::BinaryHeap`]; switching to
    /// [`SchedulerKind::CalendarQueue`] or
    /// [`SchedulerKind::TimingWheel`] changes wall-clock speed only —
    /// all three pop events in identical `(time, seq)` order, so trace
    /// digests are bit-for-bit unchanged (pinned by `tn-audit
    /// divergence` and the scheduler-equivalence proptest).
    pub scheduler: SchedulerKind,
    /// Sharded (parallel) execution of the built topology. The default
    /// [`ShardSpec::Serial`] is the reference single-kernel run; sharded
    /// runs reproduce its trace digest bit-for-bit (pinned by `tn-audit
    /// divergence` and the shard-equivalence proptest).
    pub shards: ShardSpec,
}

impl ScenarioConfig {
    /// Start a validated builder seeded from the [`small`] preset (every
    /// field has a working default; override what the experiment varies,
    /// then [`build`](ScenarioBuilder::build)).
    ///
    /// [`small`]: ScenarioConfig::small
    pub fn builder(seed: u64) -> ScenarioBuilder {
        ScenarioBuilder {
            cfg: ScenarioConfig::small(seed),
        }
    }

    /// Re-open any config (e.g. the [`paper_scale`] preset) as a builder
    /// to adjust and re-validate.
    ///
    /// [`paper_scale`]: ScenarioConfig::paper_scale
    pub fn to_builder(self) -> ScenarioBuilder {
        ScenarioBuilder { cfg: self }
    }

    /// A laptop-fast scenario for tests and the quickstart example.
    pub fn small(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            symbols: 40,
            normalizers: 2,
            strategies: 6,
            gateways: 2,
            feed_units: 4,
            internal_partitions: 8,
            subs_per_strategy: 4,
            background_rate: 50_000.0,
            duration: SimTime::from_ms(40),
            warmup: SimTime::from_ms(2),
            normalizer_service: SimTime::from_ns(650),
            decision_service: SimTime::from_us(2),
            gateway_service: SimTime::from_us(2),
            exchange_service: SimTime::from_us(10),
            momentum_threshold: 100,
            tick_interval: SimTime::from_us(200),
            feed_fault: None,
            obs: ObsConfig::off(),
            scheduler: SchedulerKind::BinaryHeap,
            shards: ShardSpec::Serial,
        }
    }

    /// A scenario at the paper's §4 scale: ~1,000 servers ("a few dozen
    /// each for normalizers and gateways and the rest for strategies").
    pub fn paper_scale(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            symbols: 2_000,
            normalizers: 24,
            strategies: 930,
            gateways: 24,
            feed_units: 24,
            internal_partitions: 128,
            subs_per_strategy: 8,
            background_rate: 200_000.0,
            duration: SimTime::from_ms(50),
            warmup: SimTime::from_ms(2),
            normalizer_service: SimTime::from_ns(650),
            decision_service: SimTime::from_us(2),
            gateway_service: SimTime::from_us(2),
            exchange_service: SimTime::from_us(10),
            momentum_threshold: 100,
            tick_interval: SimTime::from_us(200),
            feed_fault: None,
            obs: ObsConfig::off(),
            scheduler: SchedulerKind::BinaryHeap,
            shards: ShardSpec::Serial,
        }
    }

    /// Total software service on the event→order→exchange path: one
    /// normalizer + one strategy + one gateway hop (§4.1's "3 software
    /// hops"), plus the exchange's own matching time.
    pub fn software_path(&self) -> SimTime {
        self.normalizer_service + self.decision_service + self.gateway_service
    }

    /// Resolve the configured [`ShardSpec`] against a built topology:
    /// `None` for serial execution, a validated [`ShardPlan`] for
    /// sharded. Manual assignments that do not cover the topology, or
    /// cut a link the conservative-lookahead protocol cannot cut
    /// (zero `min_delay`, kernel-coin consumption), come back as
    /// [`ConfigError::ShardRejected`]; automatic plans never cut such
    /// links and therefore always validate.
    pub fn resolve_shard_plan(&self, sim: &Simulator) -> Result<Option<ShardPlan>, ConfigError> {
        let plan = match &self.shards {
            ShardSpec::Serial => return Ok(None),
            ShardSpec::Auto(k) => ShardPlan::auto(sim, *k),
            ShardSpec::Manual(assignment) => ShardPlan::manual(assignment.clone()),
        };
        plan.validate(sim)
            .map_err(|e| ConfigError::ShardRejected(e.to_string()))?;
        Ok(Some(plan))
    }

    /// The partitions strategy `s` subscribes to (deterministic
    /// round-robin, like the L1 fabric's circuit provisioning).
    pub fn subscriptions_for(&self, s: usize) -> Vec<u16> {
        (0..self
            .subs_per_strategy
            .min(self.internal_partitions as usize))
            .map(|k| ((s + k) % self.internal_partitions as usize) as u16)
            .collect()
    }
}

/// Validated construction of a [`ScenarioConfig`].
///
/// Starts from the [`ScenarioConfig::small`] defaults and overrides
/// field by field; [`build`](ScenarioBuilder::build) rejects structurally
/// broken configs (zero hosts, warm-up at least as long as the measured
/// window, …) instead of letting a design panic mid-run.
///
/// ```
/// use tn_core::ScenarioConfig;
/// use tn_sim::SimTime;
///
/// let sc = ScenarioConfig::builder(42)
///     .strategies(12)
///     .duration(SimTime::from_ms(10))
///     .build()
///     .expect("valid scenario");
/// assert_eq!(sc.strategies, 12);
///
/// let err = ScenarioConfig::builder(42).normalizers(0).build();
/// assert!(err.is_err());
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    cfg: ScenarioConfig,
}

macro_rules! setter {
    ($(#[$doc:meta] $name:ident: $ty:ty),* $(,)?) => {
        $(
            #[$doc]
            pub fn $name(mut self, $name: $ty) -> ScenarioBuilder {
                self.cfg.$name = $name;
                self
            }
        )*
    };
}

impl ScenarioBuilder {
    setter! {
        /// Master seed.
        seed: u64,
        /// Listed instruments.
        symbols: usize,
        /// Normalizer hosts.
        normalizers: usize,
        /// Strategy hosts.
        strategies: usize,
        /// Gateway hosts.
        gateways: usize,
        /// Exchange feed units.
        feed_units: u16,
        /// Firm-internal partitions.
        internal_partitions: u16,
        /// Partitions each strategy subscribes to.
        subs_per_strategy: usize,
        /// Background market events per second.
        background_rate: f64,
        /// Measured interval (after warm-up).
        duration: SimTime,
        /// Warm-up before measurement starts.
        warmup: SimTime,
        /// Normalizer cost per native message.
        normalizer_service: SimTime,
        /// Strategy decision cost per evaluated record.
        decision_service: SimTime,
        /// Gateway translation cost per order.
        gateway_service: SimTime,
        /// Exchange matching cost per order-entry message.
        exchange_service: SimTime,
        /// Momentum threshold (lower fires more orders).
        momentum_threshold: i64,
        /// Exchange background-flow batch interval.
        tick_interval: SimTime,
    }

    /// Inject `spec`'s faults on the exchange's feed-publish links.
    pub fn feed_fault(mut self, spec: FaultSpec) -> ScenarioBuilder {
        self.cfg.feed_fault = Some(spec);
        self
    }

    /// Telemetry switches (provenance, metrics registry, trace export).
    pub fn obs(mut self, obs: ObsConfig) -> ScenarioBuilder {
        self.cfg.obs = obs;
        self
    }

    /// Event scheduler the kernel runs on (digest-neutral; see
    /// [`ScenarioConfig::scheduler`]).
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> ScenarioBuilder {
        self.cfg.scheduler = scheduler;
        self
    }

    /// Sharded execution (digest-neutral; see [`ScenarioConfig::shards`]).
    pub fn shards(mut self, shards: ShardSpec) -> ScenarioBuilder {
        self.cfg.shards = shards;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<ScenarioConfig, ConfigError> {
        let c = self.cfg;
        for (n, tier) in [
            (c.normalizers, "normalizer"),
            (c.strategies, "strategy"),
            (c.gateways, "gateway"),
        ] {
            if n == 0 {
                return Err(ConfigError::ZeroHosts(tier));
            }
        }
        for (n, field) in [
            (c.symbols, "symbols"),
            (c.feed_units as usize, "feed_units"),
            (c.internal_partitions as usize, "internal_partitions"),
            (c.subs_per_strategy, "subs_per_strategy"),
            (c.duration.as_ps() as usize, "duration"),
        ] {
            if n == 0 {
                return Err(ConfigError::ZeroField(field));
            }
        }
        if c.feed_units > 256 {
            return Err(ConfigError::TooManyFeedUnits(c.feed_units));
        }
        if c.warmup >= c.duration {
            return Err(ConfigError::WarmupExceedsDuration {
                warmup: c.warmup,
                duration: c.duration,
            });
        }
        if !(c.background_rate.is_finite() && c.background_rate > 0.0) {
            return Err(ConfigError::NonPositiveRate(c.background_rate));
        }
        if c.subs_per_strategy > c.internal_partitions as usize {
            return Err(ConfigError::SubsExceedPartitions {
                subs: c.subs_per_strategy,
                partitions: c.internal_partitions,
            });
        }
        // Topology-dependent shard checks (cut lookahead, coin links)
        // run in `resolve_shard_plan` once a design has built the graph;
        // the structurally-broken specs are caught here.
        match &c.shards {
            ShardSpec::Auto(0) => {
                return Err(ConfigError::ShardRejected(
                    "Auto(0): need at least one shard".into(),
                ));
            }
            ShardSpec::Manual(v) if v.is_empty() => {
                return Err(ConfigError::ShardRejected(
                    "manual assignment is empty".into(),
                ));
            }
            _ => {}
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_small_preset() {
        let built = ScenarioConfig::builder(42).build().unwrap();
        let preset = ScenarioConfig::small(42);
        // The builder is the preset plus validation — field for field.
        assert_eq!(format!("{built:?}"), format!("{preset:?}"));
    }

    #[test]
    fn builder_rejects_broken_configs() {
        assert_eq!(
            ScenarioConfig::builder(1).strategies(0).build(),
            Err(ConfigError::ZeroHosts("strategy"))
        );
        assert_eq!(
            ScenarioConfig::builder(1).feed_units(0).build(),
            Err(ConfigError::ZeroField("feed_units"))
        );
        // PITCH unit ids are one byte: 256 units is the last that fits.
        assert_eq!(
            ScenarioConfig::builder(1).feed_units(257).build(),
            Err(ConfigError::TooManyFeedUnits(257))
        );
        assert!(ScenarioConfig::builder(1).feed_units(256).build().is_ok());
        let err = ScenarioConfig::builder(1)
            .warmup(SimTime::from_ms(40))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::WarmupExceedsDuration { .. }));
        assert!(!err.to_string().is_empty());
        assert!(matches!(
            ScenarioConfig::builder(1).background_rate(f64::NAN).build(),
            Err(ConfigError::NonPositiveRate(_))
        ));
        assert!(matches!(
            ScenarioConfig::builder(1).subs_per_strategy(500).build(),
            Err(ConfigError::SubsExceedPartitions { .. })
        ));
    }

    #[test]
    fn builder_carries_fault_spec() {
        let sc = ScenarioConfig::builder(1)
            .feed_fault(FaultSpec::new(9).with_iid_loss(0.02))
            .build()
            .unwrap();
        assert!(sc.feed_fault.is_some());
        assert!(ScenarioConfig::small(1).feed_fault.is_none());
    }

    #[test]
    fn builder_carries_scheduler_kind() {
        let sc = ScenarioConfig::builder(1)
            .scheduler(SchedulerKind::CalendarQueue)
            .build()
            .unwrap();
        assert_eq!(sc.scheduler, SchedulerKind::CalendarQueue);
        // Presets stay on the reference heap so existing runs never move.
        assert_eq!(
            ScenarioConfig::small(1).scheduler,
            SchedulerKind::BinaryHeap
        );
        assert_eq!(
            ScenarioConfig::paper_scale(1).scheduler,
            SchedulerKind::BinaryHeap
        );
    }

    #[test]
    fn paper_scale_is_about_1000_servers() {
        let c = ScenarioConfig::paper_scale(1);
        let servers = c.normalizers + c.strategies + c.gateways;
        assert!((950..=1050).contains(&servers), "{servers}");
        // "a few dozen each for normalizers and gateways".
        assert!(c.normalizers >= 12 && c.normalizers <= 48);
        assert!(c.gateways >= 12 && c.gateways <= 48);
    }

    #[test]
    fn software_path_is_three_hops() {
        let c = ScenarioConfig::small(1);
        let expected = c.normalizer_service + c.decision_service + c.gateway_service;
        assert_eq!(c.software_path(), expected);
    }

    #[test]
    fn builder_rejects_degenerate_shard_specs() {
        assert!(matches!(
            ScenarioConfig::builder(1)
                .shards(ShardSpec::Auto(0))
                .build(),
            Err(ConfigError::ShardRejected(_))
        ));
        assert!(matches!(
            ScenarioConfig::builder(1)
                .shards(ShardSpec::Manual(Vec::new()))
                .build(),
            Err(ConfigError::ShardRejected(_))
        ));
        let sc = ScenarioConfig::builder(1)
            .shards(ShardSpec::Auto(4))
            .build()
            .unwrap();
        assert_eq!(sc.shards, ShardSpec::Auto(4));
    }

    #[test]
    fn zero_delay_cut_is_rejected_at_plan_resolution() {
        use tn_sim::{Context, Frame, IdealLink, Node, PortId};

        struct Quiet;
        impl Node for Quiet {
            fn on_frame(&mut self, _ctx: &mut Context<'_>, _p: PortId, _f: Frame) {}
        }

        let mut sim = Simulator::new(1);
        let a = sim.add_node("a", Quiet);
        let b = sim.add_node("b", Quiet);
        sim.install_link(
            a,
            PortId(0),
            b,
            PortId(0),
            Box::new(IdealLink::new(SimTime::ZERO)),
        );
        // Manually cutting the zero-delay link collapses the lookahead;
        // the topology-aware validator rejects it with the sim layer's
        // explanation wrapped in a ConfigError.
        let mut sc = ScenarioConfig::small(1);
        sc.shards = ShardSpec::Manual(vec![0, 1]);
        let err = sc.resolve_shard_plan(&sim).unwrap_err();
        match &err {
            ConfigError::ShardRejected(msg) => {
                assert!(msg.contains("zero min_delay"), "{msg}");
            }
            other => panic!("expected ShardRejected, got {other:?}"),
        }
        // Keeping the pair together (or any serial spec) resolves fine.
        sc.shards = ShardSpec::Manual(vec![0, 0]);
        assert!(sc.resolve_shard_plan(&sim).unwrap().is_some());
        sc.shards = ShardSpec::Serial;
        assert!(sc.resolve_shard_plan(&sim).unwrap().is_none());
    }

    #[test]
    fn subscriptions_are_deterministic_and_bounded() {
        let c = ScenarioConfig::small(1);
        let s0 = c.subscriptions_for(0);
        assert_eq!(s0, c.subscriptions_for(0));
        assert_eq!(s0.len(), c.subs_per_strategy);
        assert!(s0.iter().all(|&p| p < c.internal_partitions));
        assert_ne!(s0, c.subscriptions_for(1));
    }
}
