//! The common firm + market scenario all designs run.

use tn_fault::FaultSpec;
use tn_sim::{ObsConfig, SchedulerKind, SimTime};

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
        }
    }
}

impl std::error::Error for ConfigError {}

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
    /// Telemetry switches (provenance with its metrics snapshot, flight
    /// ring, profile, trace storage). Off by default; turning any of them on never changes a run's
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
        }
    }

    /// Total software service on the event→order→exchange path: one
    /// normalizer + one strategy + one gateway hop (§4.1's "3 software
    /// hops"), plus the exchange's own matching time.
    pub fn software_path(&self) -> SimTime {
        self.normalizer_service + self.decision_service + self.gateway_service
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

    /// Telemetry switches (provenance with its metrics snapshot, flight
    /// ring, profile, trace storage).
    pub fn obs(mut self, obs: ObsConfig) -> ScenarioBuilder {
        self.cfg.obs = obs;
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
    fn presets_run_on_the_reference_heap_without_faults() {
        assert!(ScenarioConfig::small(1).feed_fault.is_none());
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
    fn subscriptions_are_deterministic_and_bounded() {
        let c = ScenarioConfig::small(1);
        let s0 = c.subscriptions_for(0);
        assert_eq!(s0, c.subscriptions_for(0));
        assert_eq!(s0.len(), c.subs_per_strategy);
        assert!(s0.iter().all(|&p| p < c.internal_partitions));
        assert_ne!(s0, c.subscriptions_for(1));
    }
}
