//! [`FaultLink`]: a fault model in front of any link.
//!
//! The wrapper owns its own PRNG, seeded from the [`FaultSpec`], so fault
//! decisions never consume the kernel's scenario PRNG — wrapping a link
//! with a no-op spec leaves the kernel's random stream, and therefore the
//! whole run's trace digest, untouched. All fault randomness advances
//! only on `transmit` calls, which the deterministic kernel makes in a
//! reproducible order.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tn_sim::{DropReason, Link, LinkOutcome, MetricsRegistry, SimTime};

use crate::spec::{FaultSpec, LossModel};

/// Per-link drop accounting by cause (the kernel only counts totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames offered to this link.
    pub offered: u64,
    /// Dropped by the loss process.
    pub lost: u64,
    /// Dropped because the link was down (an outage window).
    pub down_drops: u64,
    /// Frames whose delivery was jittered.
    pub jittered: u64,
}

/// The base link models [`crate::LinkSpec`] can describe.
#[derive(Debug, Clone)]
pub enum BaseLink {
    /// No serialization, fixed delay.
    Ideal(tn_sim::IdealLink),
    /// Serializing, queue-bounded Ethernet link.
    Ether(tn_netdev::EtherLink),
}

impl Link for BaseLink {
    fn transmit(&mut self, now: SimTime, len: usize, coin: f64) -> LinkOutcome {
        match self {
            BaseLink::Ideal(l) => l.transmit(now, len, coin),
            BaseLink::Ether(l) => l.transmit(now, len, coin),
        }
    }

    fn propagation(&self) -> SimTime {
        match self {
            BaseLink::Ideal(l) => l.propagation(),
            BaseLink::Ether(l) => l.propagation(),
        }
    }

    fn min_delay(&self) -> SimTime {
        match self {
            BaseLink::Ideal(l) => l.min_delay(),
            BaseLink::Ether(l) => l.min_delay(),
        }
    }

    fn uses_kernel_coin(&self) -> bool {
        match self {
            BaseLink::Ideal(l) => l.uses_kernel_coin(),
            BaseLink::Ether(l) => l.uses_kernel_coin(),
        }
    }

    fn rate_bps(&self) -> Option<u64> {
        match self {
            BaseLink::Ideal(l) => l.rate_bps(),
            BaseLink::Ether(l) => l.rate_bps(),
        }
    }
}

/// A [`LinkSpec`](crate::LinkSpec)-built link: base model plus faults.
pub type SpecLink = FaultLink<BaseLink>;

/// Applies a [`FaultSpec`] in front of an inner link.
///
/// Order of checks per offered frame: down (outage) → loss process →
/// inner link (queueing/MTU/serialization) → jitter on the delivery
/// time. The loss-state machine and RNG only advance when the
/// corresponding fault is configured, so enabling one fault never shifts
/// another's random stream.
#[derive(Debug, Clone)]
pub struct FaultLink<L> {
    inner: L,
    spec: FaultSpec,
    rng: SmallRng,
    /// Gilbert–Elliott state: currently in the Bad (bursty) state?
    bad: bool,
    stats: FaultStats,
}

impl<L: Link> FaultLink<L> {
    /// Wrap `inner` with the faults described by `spec`.
    pub fn wrap(inner: L, spec: FaultSpec) -> FaultLink<L> {
        FaultLink {
            inner,
            rng: SmallRng::seed_from_u64(spec.seed),
            spec,
            bad: false,
            stats: FaultStats::default(),
        }
    }

    /// Drop accounting by cause.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// One step of the loss process. Advances the Gilbert–Elliott state
    /// even on frames that survive — burst boundaries are a property of
    /// time-on-link, approximated per offered frame.
    fn loss_step(&mut self) -> bool {
        match self.spec.loss {
            LossModel::None => false,
            LossModel::Iid { p } => p > 0.0 && self.rng.gen::<f64>() < p,
            LossModel::GilbertElliott {
                p_good_bad,
                p_bad_good,
                loss_good,
                loss_bad,
            } => {
                let loss_p = if self.bad { loss_bad } else { loss_good };
                let lost = self.rng.gen::<f64>() < loss_p;
                let flip_p = if self.bad { p_bad_good } else { p_good_bad };
                if self.rng.gen::<f64>() < flip_p {
                    self.bad = !self.bad;
                }
                lost
            }
        }
    }
}

impl<L: Link> Link for FaultLink<L> {
    fn transmit(&mut self, now: SimTime, len: usize, coin: f64) -> LinkOutcome {
        self.stats.offered += 1;
        if self.spec.down_at(now) {
            self.stats.down_drops += 1;
            return LinkOutcome::Drop(DropReason::LinkDown);
        }
        if self.loss_step() {
            self.stats.lost += 1;
            return LinkOutcome::Drop(DropReason::RandomLoss);
        }
        match self.inner.transmit(now, len, coin) {
            LinkOutcome::Deliver(at) => {
                if self.spec.jitter > SimTime::ZERO {
                    self.stats.jittered += 1;
                    let extra = self.rng.gen_range(0..=self.spec.jitter.as_ps());
                    LinkOutcome::Deliver(at + SimTime::from_ps(extra))
                } else {
                    LinkOutcome::Deliver(at)
                }
            }
            drop => drop,
        }
    }

    fn propagation(&self) -> SimTime {
        self.inner.propagation()
    }

    fn min_delay(&self) -> SimTime {
        // Faults only delay (jitter), drop, or pass frames through — they
        // never deliver earlier than the inner link would, so the inner
        // bound stays valid.
        self.inner.min_delay()
    }

    fn uses_kernel_coin(&self) -> bool {
        // The fault machinery draws from its own seeded PRNG, never the
        // kernel coin; only the wrapped link can consume it.
        self.inner.uses_kernel_coin()
    }

    fn rate_bps(&self) -> Option<u64> {
        self.inner.rate_bps()
    }

    fn metrics(&self, into: &mut MetricsRegistry) {
        let s = &self.stats;
        for (name, n) in [
            ("offered", s.offered),
            ("down_drops", s.down_drops),
            ("lost", s.lost),
            ("jittered", s.jittered),
        ] {
            into.add("fault", name, None, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_sim::IdealLink;

    fn ideal() -> IdealLink {
        IdealLink::new(SimTime::from_ns(100))
    }

    #[test]
    fn noop_spec_is_bit_transparent() {
        let mut faulty = FaultLink::wrap(ideal(), FaultSpec::new(99));
        let mut bare = ideal();
        for i in 0..1_000u64 {
            let now = SimTime::from_ns(i * 3);
            assert_eq!(
                faulty.transmit(now, 64 + i as usize % 1400, 0.123),
                bare.transmit(now, 64 + i as usize % 1400, 0.123)
            );
        }
        assert_eq!(faulty.stats().lost, 0);
        assert_eq!(faulty.stats().offered, 1_000);
    }

    #[test]
    fn iid_loss_rate_converges() {
        let mut l = FaultLink::wrap(ideal(), FaultSpec::new(5).with_iid_loss(0.1));
        let n = 20_000;
        let mut drops = 0;
        for i in 0..n {
            if matches!(
                l.transmit(SimTime::from_ns(i), 100, 0.5),
                LinkOutcome::Drop(DropReason::RandomLoss)
            ) {
                drops += 1;
            }
        }
        let rate = drops as f64 / n as f64;
        assert!((0.08..0.12).contains(&rate), "rate={rate}");
        assert_eq!(l.stats().lost, drops as u64);
    }

    #[test]
    fn burst_loss_clusters() {
        // Bad state loses everything; bursts should be much longer than
        // iid at the same mean rate would produce.
        let mut l = FaultLink::wrap(
            ideal(),
            FaultSpec::new(7).with_burst_loss(0.01, 0.2, 0.0, 1.0),
        );
        let mut run = 0u32;
        let mut max_run = 0u32;
        let mut drops = 0u64;
        let n = 50_000;
        for i in 0..n {
            match l.transmit(SimTime::from_ns(i), 100, 0.5) {
                LinkOutcome::Drop(_) => {
                    run += 1;
                    max_run = max_run.max(run);
                    drops += 1;
                }
                LinkOutcome::Deliver(_) => run = 0,
            }
        }
        // Mean burst length = 1/p_bad_good = 5 frames; max run over 50k
        // frames should easily exceed what p=0.048 iid loss produces.
        assert!(max_run >= 8, "max_run={max_run}");
        let mean = LossModel::GilbertElliott {
            p_good_bad: 0.01,
            p_bad_good: 0.2,
            loss_good: 0.0,
            loss_bad: 1.0,
        }
        .mean_loss();
        let rate = drops as f64 / n as f64;
        assert!((rate - mean).abs() < 0.02, "rate={rate} mean={mean}");
    }

    #[test]
    fn outage_drops_as_link_down() {
        let spec = FaultSpec::new(1).with_outage(SimTime::from_us(10), SimTime::from_us(20));
        let mut l = FaultLink::wrap(ideal(), spec);
        assert!(matches!(
            l.transmit(SimTime::from_us(5), 100, 0.5),
            LinkOutcome::Deliver(_)
        ));
        assert_eq!(
            l.transmit(SimTime::from_us(15), 100, 0.5),
            LinkOutcome::Drop(DropReason::LinkDown)
        );
        assert!(matches!(
            l.transmit(SimTime::from_us(25), 100, 0.5),
            LinkOutcome::Deliver(_)
        ));
        assert_eq!(l.stats().down_drops, 1);
    }

    #[test]
    fn jitter_bounds_and_reorders() {
        let spec = FaultSpec::new(13).with_jitter(SimTime::from_us(5));
        let mut l = FaultLink::wrap(ideal(), spec);
        let base = SimTime::from_ns(100); // ideal() propagation
        let mut times = Vec::new();
        for _ in 0..200 {
            match l.transmit(SimTime::ZERO, 100, 0.5) {
                LinkOutcome::Deliver(t) => {
                    assert!(t >= base && t <= base + SimTime::from_us(5));
                    times.push(t);
                }
                other => panic!("{other:?}"),
            }
        }
        // Same offer time, varying delivery: some pair must be inverted
        // relative to offer order.
        assert!(times.windows(2).any(|w| w[1] < w[0]), "no reordering seen");
        assert_eq!(l.stats().jittered, 200);
    }

    #[test]
    fn same_seed_same_decisions() {
        let spec = FaultSpec::new(21)
            .with_burst_loss(0.05, 0.3, 0.001, 0.9)
            .with_jitter(SimTime::from_ns(500));
        let run = |spec: &FaultSpec| {
            let mut l = FaultLink::wrap(ideal(), spec.clone());
            (0..5_000u64)
                .map(|i| l.transmit(SimTime::from_ns(i * 7), 100 + (i % 900) as usize, 0.5))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(&spec), run(&spec));
    }
}
