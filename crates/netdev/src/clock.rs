//! Host clock models.
//!
//! Capture appliances and strategy hosts timestamp events with their own
//! oscillators, which drift until a sync protocol (PTP, or the datacenter
//! schemes the paper cites) pulls them back. [`DriftClock`] models a
//! clock as `reading = true_time + offset + drift_rate * (t - last_sync)`
//! with bounded sync error, letting experiments quantify how timestamp
//! quality degrades between syncs — the context for §2's sub-100 ps
//! precision requirement.

use tn_sim::SimTime;

/// A drifting clock with periodic resynchronization.
#[derive(Debug, Clone)]
pub struct DriftClock {
    /// Parts-per-billion frequency error (positive = runs fast).
    drift_ppb: i64,
    /// Offset at the last sync, picoseconds (positive = reads ahead).
    offset_ps: i64,
    /// When the clock was last disciplined.
    last_sync: SimTime,
}

impl DriftClock {
    /// A clock with the given frequency error and initial offset.
    pub fn new(drift_ppb: i64, offset_ps: i64) -> DriftClock {
        DriftClock {
            drift_ppb,
            offset_ps,
            last_sync: SimTime::ZERO,
        }
    }

    /// Read the clock at true time `now`, in picoseconds.
    pub fn read(&self, now: SimTime) -> i64 {
        let elapsed = now.saturating_sub(self.last_sync).as_ps() as i128;
        let drift = elapsed * self.drift_ppb as i128 / 1_000_000_000;
        now.as_ps() as i128 as i64 + self.offset_ps + drift as i64
    }

    /// Discipline the clock at `now`: the residual offset after sync is
    /// `residual_ps` (the sync protocol's error bound; ±ns for PTP on
    /// ordinary gear, tens of ps for the white-rabbit-class systems the
    /// capture vendors sell).
    pub fn sync(&mut self, now: SimTime, residual_ps: i64) {
        self.offset_ps = residual_ps;
        self.last_sync = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Error versus true time at `now`, picoseconds.
    fn error_ps(c: &DriftClock, now: SimTime) -> i64 {
        c.read(now) - now.as_ps() as i64
    }

    #[test]
    fn perfect_clock_reads_true_time() {
        let c = DriftClock::new(0, 0);
        let t = SimTime::from_secs(3);
        assert_eq!(c.read(t), t.as_ps() as i64);
        assert_eq!(error_ps(&c, t), 0);
    }

    #[test]
    fn drift_accumulates_linearly() {
        // 10 ppb fast: after 1 s the clock reads 10 ns ahead.
        let c = DriftClock::new(10, 0);
        assert_eq!(error_ps(&c, SimTime::from_secs(1)), 10_000);
        assert_eq!(error_ps(&c, SimTime::from_ms(100)), 1_000);
        // Negative drift runs slow.
        let c = DriftClock::new(-10, 0);
        assert_eq!(error_ps(&c, SimTime::from_secs(1)), -10_000);
    }

    #[test]
    fn sync_bounds_error() {
        let mut c = DriftClock::new(50, 123_456);
        let t1 = SimTime::from_secs(10);
        assert!(error_ps(&c, t1).abs() > 100_000);
        c.sync(t1, 80); // sub-100 ps discipline
        assert_eq!(error_ps(&c, t1), 80);
        // Error regrows from the sync point.
        let t2 = t1 + SimTime::from_secs(1);
        assert_eq!(error_ps(&c, t2), 80 + 50_000);
        assert_eq!(c.drift_ppb, 50);
    }

    #[test]
    fn initial_offset_applies() {
        let c = DriftClock::new(0, -500);
        assert_eq!(error_ps(&c, SimTime::from_secs(5)), -500);
    }
}
