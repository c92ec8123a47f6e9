//! Exact sample summaries.

/// Collects `u64` samples and reports exact order statistics — the
/// min/avg/median/max columns of Table 1 and every latency table in the
/// experiment harness.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<u64>,
    sorted: bool,
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Summary {
        Summary::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Record many samples.
    pub fn extend(&mut self, vs: impl IntoIterator<Item = u64>) {
        self.samples.extend(vs);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// Smallest sample (0 when empty).
    pub fn min(&mut self) -> u64 {
        self.sort();
        self.samples.first().copied().unwrap_or(0)
    }

    /// Largest sample (0 when empty).
    pub fn max(&mut self) -> u64 {
        self.sort();
        self.samples.last().copied().unwrap_or(0)
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let total: u128 = self.samples.iter().map(|&v| u128::from(v)).sum();
        total as f64 / self.samples.len() as f64
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.samples.iter().map(|&v| u128::from(v)).sum()
    }

    /// Median, i.e. `percentile(50.0)`.
    pub fn median(&mut self) -> u64 {
        self.percentile(50.0)
    }

    /// Exact percentile by the nearest-rank method (0 when empty).
    /// `p` is in percent: `percentile(99.9)` is the 99.9th percentile.
    pub fn percentile(&mut self, p: f64) -> u64 {
        self.sort();
        if self.samples.is_empty() {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.samples.len() as f64).ceil() as usize;
        self.samples[rank.saturating_sub(1).min(self.samples.len() - 1)]
    }

    /// The median, i.e. `percentile(50.0)`.
    pub fn p50(&mut self) -> u64 {
        self.percentile(50.0)
    }

    /// The 99th percentile.
    pub fn p99(&mut self) -> u64 {
        self.percentile(99.0)
    }

    /// The 99.9th percentile, or `None` with fewer than 1,000 samples.
    ///
    /// Below 1,000 samples the nearest-rank 99.9th percentile collapses
    /// onto the maximum — a tail estimate with no tail behind it. Earlier
    /// versions returned that maximum silently; callers that want the
    /// clamped value can still say `percentile(99.9)` explicitly.
    pub fn p999(&mut self) -> Option<u64> {
        if self.samples.len() < 1000 {
            return None;
        }
        Some(self.percentile(99.9))
    }

    /// Max minus min (0 when empty): the cross-sample spread, used by the
    /// experiment lab to report cross-seed variation within a sweep cell.
    pub fn spread(&mut self) -> u64 {
        self.max() - self.min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeroes() {
        let mut s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.median(), 0);
    }

    #[test]
    fn order_statistics() {
        let mut s = Summary::new();
        s.extend([5, 1, 9, 3, 7]);
        assert_eq!(s.count(), 5);
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 9);
        assert_eq!(s.median(), 5);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.sum(), 25);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = Summary::new();
        s.extend(1..=100);
        assert_eq!(s.percentile(50.0), 50);
        assert_eq!(s.percentile(99.0), 99);
        assert_eq!(s.percentile(100.0), 100);
        assert_eq!(s.percentile(0.0), 1);
        assert_eq!(s.percentile(0.5), 1);
        assert_eq!(s.percentile(99.5), 100);
    }

    #[test]
    fn named_percentile_helpers() {
        let mut s = Summary::new();
        s.extend(1..=1000);
        assert_eq!(s.p50(), 500);
        assert_eq!(s.p99(), 990);
        assert_eq!(s.p999(), Some(s.percentile(99.9)));
        assert_eq!(s.p50(), s.percentile(50.0));
    }

    #[test]
    fn p999_needs_a_real_tail() {
        // Regression: with n < 1000 the nearest-rank 99.9th percentile is
        // just the max; p999 must refuse rather than clamp silently.
        let mut s = Summary::new();
        s.extend(1..=999);
        assert_eq!(s.p999(), None);
        assert_eq!(s.percentile(99.9), 999, "explicit clamp still available");
        s.record(1000);
        assert_eq!(s.p999(), Some(1000));
    }

    #[test]
    fn spread_is_max_minus_min() {
        let mut s = Summary::new();
        assert_eq!(s.spread(), 0);
        s.extend([40, 10, 25]);
        assert_eq!(s.spread(), 30);
        s.record(100);
        assert_eq!(s.spread(), 90);
    }

    #[test]
    fn interleaved_record_and_query() {
        let mut s = Summary::new();
        s.record(10);
        assert_eq!(s.max(), 10);
        s.record(20);
        assert_eq!(s.max(), 20); // re-sorts after mutation
        s.record(5);
        assert_eq!(s.min(), 5);
    }

    #[test]
    fn huge_values_do_not_overflow_mean() {
        let mut s = Summary::new();
        s.extend([u64::MAX, u64::MAX]);
        assert!(s.mean() > 1e19);
        assert_eq!(s.sum(), 2 * u128::from(u64::MAX));
    }
}
