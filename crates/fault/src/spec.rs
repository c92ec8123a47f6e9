//! Declarative fault models.
//!
//! A [`FaultSpec`] describes everything that can go wrong on one link
//! direction (or, by applying it to every link of a device, on a feed
//! unit, switch port, or retransmission server). Specs are plain data:
//! they carry a seed but no generator, so they can be cloned into
//! scenario configs, compared, and rebuilt into identical
//! [`crate::FaultLink`] instances for dual-run digest checks.

use tn_sim::SimTime;

/// Frame-loss process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// No injected loss.
    None,
    /// Independent per-frame loss with probability `p`.
    Iid {
        /// Loss probability in `[0,1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst loss: a Good and a Bad state with
    /// separate loss probabilities, flipping between them per frame. The
    /// classic model for microwave fade and congested-port loss, where
    /// drops cluster instead of arriving i.i.d.
    GilbertElliott {
        /// P(Good → Bad) per offered frame.
        p_good_bad: f64,
        /// P(Bad → Good) per offered frame.
        p_bad_good: f64,
        /// Loss probability while Good (usually ~0).
        loss_good: f64,
        /// Loss probability while Bad (often near 1).
        loss_bad: f64,
    },
}

impl LossModel {
    /// Mean loss rate of the stationary process (for reports/sanity
    /// checks, not simulation).
    // audit:allow(dead): oracle: the loss-rate test in link.rs compares FaultLink's measured drops against it
    pub fn mean_loss(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Iid { p } => p,
            LossModel::GilbertElliott {
                p_good_bad,
                p_bad_good,
                loss_good,
                loss_bad,
            } => {
                // Stationary occupancy of Bad = p_gb / (p_gb + p_bg).
                let denom = p_good_bad + p_bad_good;
                if denom <= 0.0 {
                    return loss_good;
                }
                let pi_bad = p_good_bad / denom;
                loss_good * (1.0 - pi_bad) + loss_bad * pi_bad
            }
        }
    }
}

/// A scheduled hard-down window: `[start, end)` in absolute sim time.
/// Models maintenance windows and the feed-unit / switch-port / retrans
/// -server outages of the degraded-mode experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// First instant the link is down.
    pub start: SimTime,
    /// First instant the link is back up.
    pub end: SimTime,
}

impl Outage {
    /// Is the window active at `now`?
    pub fn covers(&self, now: SimTime) -> bool {
        self.start <= now && now < self.end
    }

    /// Window length.
    pub fn duration(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }
}

/// Everything injectable on one link direction. Construct with
/// [`FaultSpec::new`] and chain `with_*` calls; the default spec is a
/// no-op (and [`crate::FaultLink`] guarantees a no-op spec is
/// bit-transparent).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed of the fault stream. Derive it from the scenario's master
    /// seed (e.g. `master ^ link_index`) so whole runs replay from one
    /// number.
    pub seed: u64,
    /// Loss process.
    pub loss: LossModel,
    /// Maximum extra delivery delay, drawn uniformly per frame. Non-zero
    /// jitter lets frames pass each other in flight — the reordering
    /// that sequenced feeds must tolerate.
    pub jitter: SimTime,
    /// Scheduled hard-down windows.
    pub outages: Vec<Outage>,
}

impl Default for FaultSpec {
    fn default() -> FaultSpec {
        FaultSpec::new(0)
    }
}

impl FaultSpec {
    /// A no-op spec seeded with `seed`; add faults with the `with_*`
    /// builders.
    pub fn new(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            loss: LossModel::None,
            jitter: SimTime::ZERO,
            outages: Vec::new(),
        }
    }

    /// Independent per-frame loss.
    pub fn with_iid_loss(mut self, p: f64) -> FaultSpec {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.loss = LossModel::Iid { p };
        self
    }

    /// A seeded i.i.d.-loss spec, or `None` when `p <= 0`. Sweep axes use
    /// this so a zero-loss cell carries *no* fault spec at all and stays
    /// on the clean-path golden digests (a no-op `FaultLink` would still
    /// reproduce them, but absence is the stronger statement).
    pub fn iid(seed: u64, p: f64) -> Option<FaultSpec> {
        if p <= 0.0 {
            None
        } else {
            Some(FaultSpec::new(seed).with_iid_loss(p))
        }
    }

    /// Gilbert–Elliott burst loss (see [`LossModel::GilbertElliott`]).
    pub fn with_burst_loss(
        mut self,
        p_good_bad: f64,
        p_bad_good: f64,
        loss_good: f64,
        loss_bad: f64,
    ) -> FaultSpec {
        for p in [p_good_bad, p_bad_good, loss_good, loss_bad] {
            assert!((0.0..=1.0).contains(&p), "probability out of range");
        }
        self.loss = LossModel::GilbertElliott {
            p_good_bad,
            p_bad_good,
            loss_good,
            loss_bad,
        };
        self
    }

    /// Uniform reordering jitter in `[0, max_extra]`.
    pub fn with_jitter(mut self, max_extra: SimTime) -> FaultSpec {
        self.jitter = max_extra;
        self
    }

    /// Add a scheduled outage window `[start, end)`.
    pub fn with_outage(mut self, start: SimTime, end: SimTime) -> FaultSpec {
        assert!(start < end, "empty outage window");
        self.outages.push(Outage { start, end });
        self
    }

    /// Is the link down (inside an outage window) at `now`?
    pub fn down_at(&self, now: SimTime) -> bool {
        self.outages.iter().any(|o| o.covers(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_noop() {
        let s = FaultSpec::default();
        assert!(!s.down_at(SimTime::from_ms(5)));
        assert_eq!(s.loss.mean_loss(), 0.0);
    }

    #[test]
    fn iid_axis_helper() {
        assert_eq!(FaultSpec::iid(7, 0.0), None);
        assert_eq!(FaultSpec::iid(7, -1.0), None);
        let s = FaultSpec::iid(7, 0.02).expect("positive p yields a spec");
        assert_eq!(s.seed, 7);
        assert_eq!(s.loss, LossModel::Iid { p: 0.02 });
    }

    #[test]
    fn outage_window_edges() {
        let s = FaultSpec::new(1).with_outage(SimTime::from_ms(10), SimTime::from_ms(20));
        assert!(!s.down_at(SimTime::from_ms(10) - SimTime::from_ps(1)));
        assert!(s.down_at(SimTime::from_ms(10)));
        assert!(s.down_at(SimTime::from_ms(20) - SimTime::from_ps(1)));
        assert!(!s.down_at(SimTime::from_ms(20)));
    }

    #[test]
    fn gilbert_elliott_mean_loss() {
        // Symmetric transitions: half the time Bad at loss 0.5 -> 0.25.
        let m = LossModel::GilbertElliott {
            p_good_bad: 0.1,
            p_bad_good: 0.1,
            loss_good: 0.0,
            loss_bad: 0.5,
        };
        assert!((m.mean_loss() - 0.25).abs() < 1e-12);
        assert_eq!(LossModel::Iid { p: 0.03 }.mean_loss(), 0.03);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn loss_probability_validated() {
        let _ = FaultSpec::new(1).with_iid_loss(1.5);
    }
}
