//! Statistical workload models calibrated to the paper's Figure 2.
//!
//! Three models, one per panel:
//!
//! * [`GrowthModel`] — events/day for US options + equities across five
//!   years (Fig 2a): ~500% growth ending around 2×10¹¹ events/day, with
//!   heavy day-to-day variability.
//! * [`IntradayModel`] — per-second BBO event counts for one active
//!   stock's options across one trading day (Fig 2b): zero outside
//!   9:30–16:00, median busy-second > 300k, busiest second ≈ 1.5M.
//! * [`MicroburstModel`] — the busiest second at 100 µs resolution
//!   (Fig 2c): median window ≈ 129 events, busiest ≈ 1066.
//!
//! Each model generates *counts* in closed form (full-day/multi-year
//! figures never need event-level simulation) and can expand any window
//! into event times for event-level network simulation; a test checks the
//! two views agree.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Trading session bounds, seconds since midnight (9:30–16:00 ET).
pub const SESSION_OPEN_SEC: u64 = 34_200;
/// Session close.
pub const SESSION_CLOSE_SEC: u64 = 57_600;

/// Sample a standard normal via Box–Muller (avoids a distribution crate).
fn std_normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Sample Poisson(λ). Exact (Knuth) for small λ, normal approximation for
/// large λ — event counts here reach 10⁶ per window, where the
/// approximation error is far below calibration tolerances.
pub(crate) fn poisson(rng: &mut SmallRng, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 64.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }
    let sample = lambda + lambda.sqrt() * std_normal(rng);
    sample.max(0.0).round() as u64
}

// ---------------------------------------------------------------------
// Fig 2a — multi-year growth
// ---------------------------------------------------------------------

/// One trading day's aggregate event count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayPoint {
    /// Fractional year (2020.0 ..).
    pub year: f64,
    /// Events that day across US options + equities.
    pub events: u64,
}

/// Multi-year growth model for Fig 2a.
#[derive(Debug, Clone, Copy)]
pub struct GrowthModel {
    /// Events/day at the start of the series.
    pub start_events_per_day: f64,
    /// Events/day at the end (paper: ≈2×10¹¹ in 2024, ≈5× the start).
    pub end_events_per_day: f64,
    /// First year (e.g. 2020.0).
    pub start_year: f64,
    /// Number of years.
    pub years: f64,
    /// Day-to-day lognormal sigma (the visible thickness of Fig 2a).
    pub day_sigma: f64,
}

impl Default for GrowthModel {
    fn default() -> GrowthModel {
        GrowthModel {
            start_events_per_day: 4.0e10,
            end_events_per_day: 2.0e11,
            start_year: 2020.0,
            years: 5.0,
            day_sigma: 0.25,
        }
    }
}

impl GrowthModel {
    /// Generate one point per trading day (252/year).
    pub fn series(&self, seed: u64) -> Vec<DayPoint> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let days = (self.years * 252.0) as usize;
        let growth = (self.end_events_per_day / self.start_events_per_day).ln();
        (0..days)
            .map(|d| {
                let frac = d as f64 / (self.years * 252.0);
                let trend = self.start_events_per_day * (growth * frac).exp();
                let noise = (self.day_sigma * std_normal(&mut rng)
                    - self.day_sigma * self.day_sigma / 2.0)
                    .exp();
                DayPoint {
                    year: self.start_year + frac * self.years,
                    events: (trend * noise) as u64,
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Fig 2b — intraday per-second counts
// ---------------------------------------------------------------------

/// Intraday model: U-shaped base intensity with lognormal burst
/// multipliers and a heavy-tailed spike process.
#[derive(Debug, Clone, Copy)]
pub struct IntradayModel {
    /// Mid-session base rate (events/sec).
    pub base_rate: f64,
    /// Extra rate at the open, decaying exponentially.
    pub open_boost: f64,
    /// Open-decay time constant (seconds).
    pub open_tau: f64,
    /// Extra rate at the close, growing exponentially into the bell.
    pub close_boost: f64,
    /// Close-ramp time constant (seconds).
    pub close_tau: f64,
    /// Per-second lognormal sigma.
    pub sigma: f64,
    /// Per-second probability of a spike.
    pub spike_prob: f64,
    /// Spike multiplier Pareto shape (heavier < 2).
    pub spike_alpha: f64,
    /// Hard ceiling on a single second (events/sec; keeps the max within
    /// Fig 2b's ≈1.5M band rather than letting the Pareto tail run away).
    pub cap: f64,
}

impl Default for IntradayModel {
    fn default() -> IntradayModel {
        IntradayModel {
            base_rate: 310_000.0,
            open_boost: 260_000.0,
            open_tau: 1200.0,
            close_boost: 160_000.0,
            close_tau: 900.0,
            sigma: 0.18,
            spike_prob: 0.004,
            spike_alpha: 1.6,
            cap: 1_500_000.0,
        }
    }
}

impl IntradayModel {
    /// Expected rate at `sec` since midnight (0 outside the session).
    pub fn base_at(&self, sec: u64) -> f64 {
        if !(SESSION_OPEN_SEC..SESSION_CLOSE_SEC).contains(&sec) {
            return 0.0;
        }
        let since_open = (sec - SESSION_OPEN_SEC) as f64;
        let to_close = (SESSION_CLOSE_SEC - sec) as f64;
        self.base_rate
            + self.open_boost * (-since_open / self.open_tau).exp()
            + self.close_boost * (-to_close / self.close_tau).exp()
    }

    /// Per-second counts for a whole day (86,400 entries; zero outside
    /// the session).
    pub fn per_second_counts(&self, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..86_400u64)
            .map(|sec| {
                let base = self.base_at(sec);
                if base == 0.0 {
                    return 0;
                }
                let ln_mult =
                    (self.sigma * std_normal(&mut rng) - self.sigma * self.sigma / 2.0).exp();
                let spike = if rng.gen::<f64>() < self.spike_prob {
                    // Pareto(α) with minimum 1.5x.
                    1.5 * rng.gen_range(1e-9f64..1.0).powf(-1.0 / self.spike_alpha)
                } else {
                    1.0
                };
                let lambda = (base * ln_mult * spike).min(self.cap);
                poisson(&mut rng, lambda)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Fig 2c — 100 µs microbursts within one second
// ---------------------------------------------------------------------

/// Microburst model: distributes one second's events over fixed windows
/// with lognormal intensity modulation (self-excitation at the 100 µs
/// scale shows up as a heavy upper tail).
#[derive(Debug, Clone, Copy)]
pub struct MicroburstModel {
    /// Total events in the second.
    pub total_events: u64,
    /// Number of windows (10,000 × 100 µs = 1 s).
    pub windows: usize,
    /// Lognormal sigma of per-window intensity.
    pub sigma: f64,
}

impl Default for MicroburstModel {
    fn default() -> MicroburstModel {
        MicroburstModel {
            total_events: 1_450_000,
            windows: 10_000,
            sigma: 0.56,
        }
    }
}

impl MicroburstModel {
    /// Per-window event counts.
    pub fn window_counts(&self, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mean = self.total_events as f64 / self.windows as f64;
        // Median of a lognormal is exp(mu); keep the *mean* at `mean` by
        // setting mu = ln(mean) - sigma^2/2.
        let mu = mean.ln() - self.sigma * self.sigma / 2.0;
        (0..self.windows)
            .map(|_| {
                let lambda = (mu + self.sigma * std_normal(&mut rng)).exp();
                poisson(&mut rng, lambda)
            })
            .collect()
    }

    /// Expand window counts into event times (picoseconds within the
    /// second), uniformly placed inside each window — the event-level
    /// view used by network simulations.
    pub fn event_times_ps(&self, seed: u64) -> Vec<u64> {
        let counts = self.window_counts(seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        let window_ps = 1_000_000_000_000u64 / self.windows as u64;
        let mut times = Vec::with_capacity(counts.iter().sum::<u64>() as usize);
        for (w, &c) in counts.iter().enumerate() {
            let start = w as u64 * window_ps;
            for _ in 0..c {
                times.push(start + rng.gen_range(0..window_ps));
            }
        }
        times.sort_unstable();
        times
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_stats::Summary;

    #[test]
    fn poisson_small_and_large_lambda() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 10_000;
        let small: u64 = (0..n).map(|_| poisson(&mut rng, 3.0)).sum();
        let small_mean = small as f64 / n as f64;
        assert!((2.9..3.1).contains(&small_mean), "mean {small_mean}");
        let large: u64 = (0..n).map(|_| poisson(&mut rng, 5000.0)).sum();
        let large_mean = large as f64 / n as f64;
        assert!((4990.0..5010.0).contains(&large_mean), "mean {large_mean}");
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn growth_model_hits_anchors() {
        // Fig 2a: ~4x10^10 -> ~2x10^11 events/day over 5 years (≈500%).
        let series = GrowthModel::default().series(42);
        assert_eq!(series.len(), 1260);
        let head: f64 = series[..60].iter().map(|p| p.events as f64).sum::<f64>() / 60.0;
        let tail: f64 = series[series.len() - 60..]
            .iter()
            .map(|p| p.events as f64)
            .sum::<f64>()
            / 60.0;
        assert!((3.0e10..5.5e10).contains(&head), "head {head:e}");
        assert!((1.6e11..2.6e11).contains(&tail), "tail {tail:e}");
        let growth = tail / head;
        assert!((4.0..6.5).contains(&growth), "growth {growth}");
        // Day-to-day variability is visible (max/min over a quarter > 1.5).
        let q: Vec<f64> = series[..63].iter().map(|p| p.events as f64).collect();
        let ratio =
            q.iter().cloned().fold(0.0, f64::max) / q.iter().cloned().fold(f64::MAX, f64::min);
        assert!(ratio > 1.5, "ratio {ratio}");
        assert!((series[0].year - 2020.0).abs() < 0.01);
        assert!(series.last().unwrap().year < 2025.01);
    }

    #[test]
    fn intraday_model_matches_fig2b_statistics() {
        let counts = IntradayModel::default().per_second_counts(7);
        assert_eq!(counts.len(), 86_400);
        // Zero outside the session.
        assert!(counts[..SESSION_OPEN_SEC as usize].iter().all(|&c| c == 0));
        assert!(counts[SESSION_CLOSE_SEC as usize..].iter().all(|&c| c == 0));
        let mut s = Summary::new();
        s.extend(counts.iter().copied().filter(|&c| c > 0));
        let median = s.median();
        let max = s.max();
        // Paper: "The median second has over 300k events, and the busiest
        // second contains 1.5M events."
        assert!(median > 300_000, "median {median}");
        assert!(median < 450_000, "median {median}");
        assert!((1_200_000..=1_550_000).contains(&max), "max {max}");
    }

    #[test]
    fn intraday_shape_is_u_like() {
        let m = IntradayModel::default();
        let open = m.base_at(SESSION_OPEN_SEC);
        let mid = m.base_at((SESSION_OPEN_SEC + SESSION_CLOSE_SEC) / 2);
        let close = m.base_at(SESSION_CLOSE_SEC - 1);
        assert!(open > mid * 1.3, "open {open} vs mid {mid}");
        assert!(close > mid * 1.2, "close {close} vs mid {mid}");
        assert_eq!(m.base_at(0), 0.0);
        assert_eq!(m.base_at(SESSION_CLOSE_SEC), 0.0);
    }

    #[test]
    fn microburst_model_matches_fig2c_statistics() {
        let counts = MicroburstModel::default().window_counts(11);
        assert_eq!(counts.len(), 10_000);
        let mut s = Summary::new();
        s.extend(counts.iter().copied());
        let median = s.median();
        let max = s.max();
        // Paper: "The median 100 microsecond interval contains 129 events,
        // and the busiest interval contains 1066 events."
        assert!((100..=160).contains(&median), "median {median}");
        assert!((700..=1600).contains(&max), "max {max}");
        // Total matches the busiest second's magnitude.
        let total: u64 = s.sum() as u64;
        assert!((1_200_000..=1_700_000).contains(&total), "total {total}");
    }

    #[test]
    fn event_times_agree_with_window_counts() {
        let m = MicroburstModel {
            total_events: 50_000,
            windows: 1000,
            sigma: 0.5,
        };
        let counts = m.window_counts(3);
        let times = m.event_times_ps(3);
        assert_eq!(times.len() as u64, counts.iter().sum::<u64>());
        // Recount the events into windows: must match exactly.
        let window_ps = 1_000_000_000_000u64 / 1000;
        let mut recount = vec![0u64; 1000];
        for &t in &times {
            recount[(t / window_ps) as usize] += 1;
        }
        assert_eq!(recount, counts);
        // Sorted.
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn determinism_per_seed() {
        let m = IntradayModel::default();
        assert_eq!(m.per_second_counts(5), m.per_second_counts(5));
        assert_ne!(m.per_second_counts(5), m.per_second_counts(6));
        let g = GrowthModel::default();
        assert_eq!(g.series(5), g.series(5));
    }
}
