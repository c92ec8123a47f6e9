//! The deterministic metrics registry and its shareable handle.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use tn_stats::Histogram;

/// `(scope, name, node)` — the identity of one metric. Scopes and names
/// are `&'static str` so hot-path recording never allocates.
pub type MetricKey = (&'static str, &'static str, Option<u32>);

/// Default histogram shape for [`MetricsRegistry::observe`]: 100 ns bins
/// over `[0, 100 µs)` — wide enough for per-hop latencies at every rate the
/// workspace models; the tails are tracked exactly via min/max/sum.
const DEFAULT_HIST_LO: u64 = 0;
const DEFAULT_HIST_BIN_PS: u64 = 100_000;
const DEFAULT_HIST_BINS: usize = 1_000;

/// A histogram plus the exact moments a fixed-bin histogram alone loses:
/// count, sum, min, max.
#[derive(Debug, Clone)]
pub struct Distribution {
    hist: Histogram,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Distribution {
    fn new(lo: u64, bin_width: u64, bins: usize) -> Distribution {
        Distribution {
            hist: Histogram::new(lo, bin_width, bins),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn observe(&mut self, v: u64) {
        self.hist.record(v);
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Underlying histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Approximate quantile (`q` in percent), resolving histogram
    /// under/overflow to the exact min/max.
    pub fn quantile(&self, q: f64) -> u64 {
        use tn_stats::Percentile;
        match self.hist.percentile(q) {
            Percentile::Empty => 0,
            Percentile::Underflow => self.min(),
            Percentile::Value(v) => v,
            Percentile::Overflow => self.max,
        }
    }
}

/// One metric's current value.
#[derive(Debug, Clone)]
enum Metric {
    Counter(u64),
    Gauge(i64),
    Distribution(Distribution),
}

/// Deterministic metrics store: `BTreeMap`-keyed (stable iteration order),
/// fed only with simulated-time values, snapshotted on demand.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<MetricKey, Metric>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Increment a counter by 1.
    pub fn inc(&mut self, scope: &'static str, name: &'static str, node: Option<u32>) {
        self.add(scope, name, node, 1);
    }

    /// Increment a counter by `delta`.
    pub fn add(&mut self, scope: &'static str, name: &'static str, node: Option<u32>, delta: u64) {
        match self
            .metrics
            .entry((scope, name, node))
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(c) => *c += delta,
            other => debug_assert!(false, "metric kind mismatch for counter: {other:?}"),
        }
    }

    /// Set a gauge to `v`.
    pub fn set_gauge(
        &mut self,
        scope: &'static str,
        name: &'static str,
        node: Option<u32>,
        v: i64,
    ) {
        match self
            .metrics
            .entry((scope, name, node))
            .or_insert(Metric::Gauge(0))
        {
            Metric::Gauge(g) => *g = v,
            other => debug_assert!(false, "metric kind mismatch for gauge: {other:?}"),
        }
    }

    /// Record a sample into a distribution with the default histogram
    /// shape (100 ns bins over `[0, 100 µs)`).
    pub fn observe(&mut self, scope: &'static str, name: &'static str, node: Option<u32>, v: u64) {
        self.observe_with(
            scope,
            name,
            node,
            v,
            DEFAULT_HIST_LO,
            DEFAULT_HIST_BIN_PS,
            DEFAULT_HIST_BINS,
        );
    }

    /// Record a sample, creating the distribution with an explicit
    /// histogram shape if absent (the shape of an existing distribution is
    /// kept).
    #[allow(clippy::too_many_arguments)]
    pub fn observe_with(
        &mut self,
        scope: &'static str,
        name: &'static str,
        node: Option<u32>,
        v: u64,
        lo: u64,
        bin_width: u64,
        bins: usize,
    ) {
        match self
            .metrics
            .entry((scope, name, node))
            .or_insert_with(|| Metric::Distribution(Distribution::new(lo, bin_width, bins)))
        {
            Metric::Distribution(d) => d.observe(v),
            other => debug_assert!(false, "metric kind mismatch for distribution: {other:?}"),
        }
    }

    /// Current counter value (0 if absent or a different kind).
    pub fn counter(&self, scope: &str, name: &str, node: Option<u32>) -> u64 {
        match self.lookup(scope, name, node) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Current gauge value (0 if absent or a different kind).
    pub fn gauge(&self, scope: &str, name: &str, node: Option<u32>) -> i64 {
        match self.lookup(scope, name, node) {
            Some(Metric::Gauge(g)) => *g,
            _ => 0,
        }
    }

    /// Borrow a distribution, if present.
    pub fn distribution(
        &self,
        scope: &str,
        name: &str,
        node: Option<u32>,
    ) -> Option<&Distribution> {
        match self.lookup(scope, name, node) {
            Some(Metric::Distribution(d)) => Some(d),
            _ => None,
        }
    }

    fn lookup(&self, scope: &str, name: &str, node: Option<u32>) -> Option<&Metric> {
        // Keys store &'static str; compare by value so callers can query
        // with any string.
        self.metrics
            .iter()
            .find(|((s, n, nd), _)| *s == scope && *n == name && *nd == node)
            .map(|(_, m)| m)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Cumulative snapshot at simulated time `at_ps`.
    pub fn snapshot(&self, at_ps: u64) -> Snapshot {
        let entries = self
            .metrics
            .iter()
            .map(|(&(scope, name, node), m)| SnapshotEntry {
                scope: scope.to_string(),
                name: name.to_string(),
                node,
                value: match m {
                    Metric::Counter(c) => SnapshotValue::Counter(*c),
                    Metric::Gauge(g) => SnapshotValue::Gauge(*g),
                    Metric::Distribution(d) => SnapshotValue::Distribution {
                        count: d.count(),
                        sum: d.sum(),
                        min: d.min(),
                        max: d.max(),
                        p50: d.quantile(50.0),
                        p99: d.quantile(99.0),
                    },
                },
            })
            .collect();
        Snapshot { at_ps, entries }
    }
}

/// Point-in-time export of a registry, with owned keys (suitable for
/// serialization and for outliving the registry).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Simulated time the snapshot was taken.
    pub at_ps: u64,
    /// All metrics, in key order.
    pub entries: Vec<SnapshotEntry>,
}

/// One metric in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// Subsystem, e.g. `"kernel"`, `"hop"`, `"feed"`.
    pub scope: String,
    /// Metric name within the scope.
    pub name: String,
    /// Node the metric is attributed to, if per-node.
    pub node: Option<u32>,
    /// The value.
    pub value: SnapshotValue,
}

/// Snapshot value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// Monotonic count.
    Counter(u64),
    /// Last-set level.
    Gauge(i64),
    /// Distribution moments and quantiles.
    Distribution {
        /// Samples recorded.
        count: u64,
        /// Exact sum of samples.
        sum: u128,
        /// Smallest sample.
        min: u64,
        /// Largest sample.
        max: u64,
        /// Median estimate.
        p50: u64,
        /// 99th-percentile estimate.
        p99: u64,
    },
}

/// Cheap, cloneable recording handle. Disabled by default: every
/// recording call on a disabled handle is a no-op, so instrumented code
/// records unconditionally and pays nothing when telemetry is off.
///
/// The registry sits behind an `Arc<Mutex<..>>` so sharded runs can share
/// one registry across per-shard kernel threads; every recorded operation
/// is commutative (counter adds, gauge sets, histogram folds), which is
/// what keeps a shared registry deterministic regardless of shard
/// interleaving. The mutex is uncontended in serial runs.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<Mutex<MetricsRegistry>>>,
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Metrics(disabled)"),
            Some(r) => match r.lock() {
                Ok(g) => write!(f, "Metrics({} metrics)", g.len()),
                Err(_) => write!(f, "Metrics(poisoned)"),
            },
        }
    }
}

impl Metrics {
    /// A no-op handle.
    pub fn disabled() -> Metrics {
        Metrics { inner: None }
    }

    /// A live handle backed by a fresh registry; clones share it.
    pub fn enabled() -> Metrics {
        Metrics {
            inner: Some(Arc::new(Mutex::new(MetricsRegistry::new()))),
        }
    }

    /// True when recording goes somewhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Increment a counter by 1.
    #[inline]
    pub fn inc(&self, scope: &'static str, name: &'static str, node: Option<u32>) {
        self.add(scope, name, node, 1);
    }

    /// Increment a counter by `delta`. The disabled test is inlined into
    /// the caller — the kernel asks on every dispatch — and only a live
    /// handle pays the call.
    #[inline]
    pub fn add(&self, scope: &'static str, name: &'static str, node: Option<u32>, delta: u64) {
        if let Some(r) = &self.inner {
            Self::record(r, |g| g.add(scope, name, node, delta));
        }
    }

    /// Set a gauge.
    pub fn set_gauge(&self, scope: &'static str, name: &'static str, node: Option<u32>, v: i64) {
        if let Some(r) = &self.inner {
            if let Ok(mut g) = r.lock() {
                g.set_gauge(scope, name, node, v);
            }
        }
    }

    /// Record a distribution sample (default histogram shape).
    #[inline]
    pub fn observe(&self, scope: &'static str, name: &'static str, node: Option<u32>, v: u64) {
        if let Some(r) = &self.inner {
            Self::record(r, |g| g.observe(scope, name, node, v));
        }
    }

    /// The recording half of [`Metrics::add`] and [`Metrics::observe`],
    /// kept out of line so their inlined halves are one test.
    #[inline(never)]
    fn record(r: &Mutex<MetricsRegistry>, f: impl FnOnce(&mut MetricsRegistry)) {
        if let Ok(mut g) = r.lock() {
            f(&mut g);
        }
    }

    /// Cumulative snapshot, if enabled.
    pub fn snapshot(&self, at_ps: u64) -> Option<Snapshot> {
        self.inner
            .as_ref()
            .and_then(|r| r.lock().ok().map(|g| g.snapshot(at_ps)))
    }

    /// Run `f` against the registry, if enabled.
    pub fn with_registry<R>(&self, f: impl FnOnce(&MetricsRegistry) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .and_then(|r| r.lock().ok().map(|g| f(&g)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_distributions() {
        let mut r = MetricsRegistry::new();
        r.inc("kernel", "deliver", Some(3));
        r.add("kernel", "deliver", Some(3), 4);
        r.set_gauge("link", "backlog", None, -2);
        r.observe("hop", "queue", Some(3), 150_000);
        r.observe("hop", "queue", Some(3), 50_000);
        assert_eq!(r.counter("kernel", "deliver", Some(3)), 5);
        assert_eq!(r.gauge("link", "backlog", None), -2);
        let d = r.distribution("hop", "queue", Some(3)).unwrap();
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 200_000);
        assert_eq!(d.min(), 50_000);
        assert_eq!(d.max(), 150_000);
        assert_eq!(r.len(), 3);
        assert_eq!(r.counter("kernel", "missing", None), 0);
    }

    #[test]
    fn snapshots_are_key_ordered_and_deterministic() {
        let mut r = MetricsRegistry::new();
        r.inc("z", "last", None);
        r.inc("a", "first", None);
        r.inc("a", "first", Some(1));
        let s = r.snapshot(10);
        let keys: Vec<_> = s
            .entries
            .iter()
            .map(|e| (e.scope.clone(), e.name.clone(), e.node))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("a".into(), "first".into(), None),
                ("a".into(), "first".into(), Some(1)),
                ("z".into(), "last".into(), None),
            ]
        );
        assert_eq!(r.snapshot(10), r.snapshot(10));
    }

    #[test]
    fn disabled_handle_is_a_cheap_noop() {
        let m = Metrics::disabled();
        assert!(!m.is_enabled());
        m.inc("kernel", "deliver", None);
        m.observe("hop", "queue", None, 1);
        assert!(m.snapshot(0).is_none());
        assert_eq!(format!("{m:?}"), "Metrics(disabled)");
    }

    #[test]
    fn clones_share_one_registry() {
        let m = Metrics::enabled();
        let m2 = m.clone();
        m.inc("kernel", "deliver", None);
        m2.inc("kernel", "deliver", None);
        let count = m
            .with_registry(|r| r.counter("kernel", "deliver", None))
            .unwrap();
        assert_eq!(count, 2);
        assert!(format!("{m:?}").contains("1 metrics"));
    }

    #[test]
    fn distribution_quantiles_resolve_overflow_to_exact_max() {
        let mut r = MetricsRegistry::new();
        // Default shape tops out at 100 µs; record a 1 ms outlier.
        r.observe("hop", "queue", None, 1_000_000_000);
        r.observe("hop", "queue", None, 1_000);
        let d = r.distribution("hop", "queue", None).unwrap();
        assert_eq!(d.quantile(99.0), 1_000_000_000);
        assert!(d.quantile(50.0) <= 100_000);
        assert!(d.mean() > 0.0);
    }
}
