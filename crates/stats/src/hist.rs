//! Streaming histogram with fixed-width bins.

/// A bounded, fixed-width-bin histogram for cheap distribution capture on
/// hot paths (frame lengths, queue depths). Values beyond the last bin
/// accumulate in an overflow bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: u64,
    bin_width: u64,
    bins: Vec<u64>,
    overflow: u64,
    underflow: u64,
    count: u64,
}

impl Histogram {
    /// Histogram covering `[lo, lo + bins*bin_width)`.
    pub fn new(lo: u64, bin_width: u64, bins: usize) -> Histogram {
        assert!(bin_width > 0 && bins > 0);
        Histogram {
            lo,
            bin_width,
            // audit:allow(hotpath-alloc): backing store allocated once per metric on first observation; steady-state observe is alloc-free
            bins: vec![0; bins],
            overflow: 0,
            underflow: 0,
            count: 0,
        }
    }

    /// Record a value.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        if v < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((v - self.lo) / self.bin_width) as usize;
        if idx >= self.bins.len() {
            self.overflow += 1;
        } else {
            self.bins[idx] += 1;
        }
    }

    /// Add `other`'s counts to this histogram's. Both must have the same
    /// shape (`lo`, bin width and bin count).
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            (self.lo, self.bin_width, self.bins.len())
                == (other.lo, other.bin_width, other.bins.len()),
            "histogram shapes differ"
        );
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            *mine += theirs;
        }
        self.overflow += other.overflow;
        self.underflow += other.underflow;
        self.count += other.count;
    }

    /// Total values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Inclusive lower edge of bin `idx`.
    pub fn bin_lo(&self, idx: usize) -> u64 {
        self.lo + idx as u64 * self.bin_width
    }

    /// Nearest-rank percentile over *all* recorded values, including
    /// under/overflow. `q` is in percent. Because a fixed-bin histogram
    /// cannot name a value outside its range, ranks that land in the
    /// underflow or overflow buckets are reported as such rather than
    /// guessed; in-range ranks report the inclusive upper edge of the
    /// containing bin (a conservative estimate, exact for bin width 1).
    pub fn percentile(&self, q: f64) -> Percentile {
        if self.count == 0 {
            return Percentile::Empty;
        }
        let q = q.clamp(0.0, 100.0);
        let rank = (((q / 100.0) * self.count as f64).ceil() as u64).max(1);
        if rank <= self.underflow {
            return Percentile::Underflow;
        }
        let mut cum = self.underflow;
        for (idx, &c) in self.bins.iter().enumerate() {
            cum += c;
            if rank <= cum {
                return Percentile::Value(self.bin_lo(idx) + self.bin_width - 1);
            }
        }
        Percentile::Overflow
    }
}

/// Result of [`Histogram::percentile`]: a histogram only knows values
/// inside its range, so out-of-range ranks are reported explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Percentile {
    /// No samples recorded.
    Empty,
    /// The rank falls among samples below the histogram range.
    Underflow,
    /// Inclusive upper edge of the bin containing the rank.
    Value(u64),
    /// The rank falls among samples at or above the top of the range.
    Overflow,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_fall_into_bins() {
        let mut h = Histogram::new(0, 10, 5); // [0,50)
        h.record(0);
        h.record(9);
        h.record(10);
        h.record(49);
        h.record(50); // overflow
        assert_eq!(h.bins, [2, 1, 0, 0, 1]);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.underflow, 0);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut both) = (
            Histogram::new(10, 10, 3),
            Histogram::new(10, 10, 3),
            Histogram::new(10, 10, 3),
        );
        for (i, v) in [5, 10, 25, 39, 40, 12].into_iter().enumerate() {
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(
            (&a.bins, a.underflow, a.overflow, a.count()),
            (&both.bins, both.underflow, both.overflow, both.count())
        );
    }

    #[test]
    fn underflow_counted() {
        let mut h = Histogram::new(100, 10, 2);
        h.record(99);
        h.record(100);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.bins, [1, 0]);
        assert_eq!(h.bin_lo(1), 110);
    }

    #[test]
    fn percentile_in_range() {
        let mut h = Histogram::new(0, 1, 100); // width-1 bins: exact
        for v in 0..100 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), Percentile::Value(49));
        assert_eq!(h.percentile(99.0), Percentile::Value(98));
        assert_eq!(h.percentile(100.0), Percentile::Value(99));
        assert_eq!(h.percentile(0.0), Percentile::Value(0));
    }

    #[test]
    fn percentile_handles_under_and_overflow() {
        let mut h = Histogram::new(100, 10, 2); // [100, 120)
        h.record(5); // underflow
        h.record(105);
        h.record(115);
        h.record(500); // overflow
        assert_eq!(h.percentile(10.0), Percentile::Underflow);
        assert_eq!(h.percentile(50.0), Percentile::Value(109));
        assert_eq!(h.percentile(75.0), Percentile::Value(119));
        assert_eq!(h.percentile(99.0), Percentile::Overflow);
        assert_eq!(Histogram::new(0, 1, 1).percentile(50.0), Percentile::Empty);
    }
}
