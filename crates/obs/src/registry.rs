//! The deterministic metrics registry.

use std::collections::BTreeMap;

use tn_stats::Histogram;

/// `(scope, name, node)` — the identity of one metric. Scopes and names
/// are `&'static str` so hot-path recording never allocates.
pub type MetricKey = (&'static str, &'static str, Option<u32>);

/// Histogram shape of every [`Distribution`]: 100 ns bins
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

impl Default for Distribution {
    fn default() -> Distribution {
        Distribution {
            hist: Histogram::new(DEFAULT_HIST_LO, DEFAULT_HIST_BIN_PS, DEFAULT_HIST_BINS),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Distribution {
    /// Record one sample.
    pub fn observe(&mut self, v: u64) {
        self.hist.record(v);
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold `other`'s samples in, as if each had been observed here.
    pub fn merge(&mut self, other: &Distribution) {
        self.hist.merge(&other.hist);
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
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
    Distribution(Distribution),
}

/// Deterministic metrics store: `BTreeMap`-keyed (stable iteration order),
/// fed only with simulated-time values, snapshotted on demand.
///
/// No simulator writes one during a run: a snapshot builds a fresh one
/// from the kernel's plain counts and has every node and link add the
/// counters it keeps itself.
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

    /// Increment a counter by `delta`. A zero `delta` records nothing, so
    /// a device reporting a count it never bumped leaves no key behind.
    pub fn add(&mut self, scope: &'static str, name: &'static str, node: Option<u32>, delta: u64) {
        if delta == 0 {
            return;
        }
        match self
            .metrics
            .entry((scope, name, node))
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(c) => *c += delta,
            other => debug_assert!(false, "metric kind mismatch for counter: {other:?}"),
        }
    }

    /// Record a sample into a distribution (100 ns bins over
    /// `[0, 100 µs)`).
    pub fn observe(&mut self, scope: &'static str, name: &'static str, node: Option<u32>, v: u64) {
        self.with_distribution((scope, name, node), |d| d.observe(v));
    }

    /// Fold a device's own distribution into one. An empty one records
    /// nothing, like a zero [`add`](MetricsRegistry::add).
    pub fn merge(
        &mut self,
        scope: &'static str,
        name: &'static str,
        node: Option<u32>,
        d: &Distribution,
    ) {
        if d.count() > 0 {
            self.with_distribution((scope, name, node), |mine| mine.merge(d));
        }
    }

    fn with_distribution(&mut self, key: MetricKey, f: impl FnOnce(&mut Distribution)) {
        match self
            .metrics
            .entry(key)
            .or_insert_with(|| Metric::Distribution(Distribution::default()))
        {
            Metric::Distribution(d) => f(d),
            other => debug_assert!(false, "metric kind mismatch for distribution: {other:?}"),
        }
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn zero_counts_and_empty_distributions_leave_no_key() {
        let mut r = MetricsRegistry::new();
        r.add("feed", "gap", Some(9), 0);
        r.merge("tap", "age_ps", None, &Distribution::default());
        assert!(r.is_empty());
    }

    #[test]
    fn distribution_quantiles_resolve_overflow_to_exact_max() {
        let mut d = Distribution::default();
        // Default shape tops out at 100 µs; record a 1 ms outlier.
        d.observe(1_000_000_000);
        d.observe(1_000);
        assert_eq!(d.quantile(99.0), 1_000_000_000);
        assert!(d.quantile(50.0) <= 100_000);
        assert!(d.mean() > 0.0);
    }
}
