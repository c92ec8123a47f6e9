//! Link models with serialization, propagation, queueing and loss.

use tn_sim::{DropReason, Link, LinkOutcome, SimTime};

/// Light propagation delay through optical fiber (refractive index ≈ 1.468,
/// so ~204,000 km/s): about 4.9 µs per kilometre.
pub fn fiber_propagation(km: f64) -> SimTime {
    SimTime::from_secs_f64(km / 204_000.0)
}

/// Light propagation delay through air for microwave/millimetre links
/// (~299,700 km/s) — the speed advantage that makes lossy microwave links
/// worth operating between colos (§2).
pub fn microwave_propagation(km: f64) -> SimTime {
    SimTime::from_secs_f64(km / 299_700.0)
}

/// A directional Ethernet-style link.
///
/// Models:
/// * serialization at the line rate,
/// * a byte-bounded egress FIFO (frames that would start transmitting
///   after more than `queue_bytes` of backlog are dropped),
/// * fixed one-way propagation delay,
/// * independent random loss (microwave fade / injected faults),
/// * an MTU (oversized frames are dropped, never fragmented — feeds do
///   not fragment).
#[derive(Debug, Clone)]
pub struct EtherLink {
    rate_bps: u64,
    propagation: SimTime,
    queue_bytes: usize,
    mtu: usize,
    loss: f64,
    /// Absolute time the transmitter becomes idle.
    busy_until: SimTime,
}

impl EtherLink {
    /// A lossless link with effectively unbounded queueing.
    pub fn new(rate_bps: u64, propagation: SimTime) -> EtherLink {
        assert!(rate_bps > 0);
        EtherLink {
            rate_bps,
            propagation,
            queue_bytes: usize::MAX,
            mtu: 9216,
            loss: 0.0,
            busy_until: SimTime::ZERO,
        }
    }

    /// The standard 10 GbE cross-connect/colo link (§2: "usually via
    /// 10 Gbps Ethernet").
    pub fn ten_gig(propagation: SimTime) -> EtherLink {
        EtherLink::new(10_000_000_000, propagation)
    }

    /// 25 GbE, for fabric uplinks.
    pub fn twenty_five_gig(propagation: SimTime) -> EtherLink {
        EtherLink::new(25_000_000_000, propagation)
    }

    /// Bound the egress queue (in bytes of backlog beyond the frame in
    /// flight). Overflow drops the offered frame.
    pub fn with_queue_bytes(mut self, bytes: usize) -> EtherLink {
        self.queue_bytes = bytes;
        self
    }

    /// Set an MTU (whole-frame bytes).
    pub fn with_mtu(mut self, mtu: usize) -> EtherLink {
        self.mtu = mtu;
        self
    }

    /// Add independent per-frame loss probability.
    pub fn with_loss(mut self, loss: f64) -> EtherLink {
        assert!((0.0..=1.0).contains(&loss));
        self.loss = loss;
        self
    }
}

impl Link for EtherLink {
    fn transmit(&mut self, now: SimTime, len: usize, coin: f64) -> LinkOutcome {
        if len > self.mtu {
            return LinkOutcome::Drop(DropReason::Mtu);
        }
        if self.loss > 0.0 && coin < self.loss {
            return LinkOutcome::Drop(DropReason::RandomLoss);
        }
        // Backlog check: convert the queue bound to time at line rate.
        let backlog = self.busy_until.saturating_sub(now);
        if self.queue_bytes != usize::MAX {
            let max_backlog = SimTime::serialization(self.queue_bytes, self.rate_bps);
            if backlog > max_backlog {
                return LinkOutcome::Drop(DropReason::QueueOverflow);
            }
        }
        let start = now.max(self.busy_until);
        let done = start + SimTime::serialization(len, self.rate_bps);
        self.busy_until = done;
        LinkOutcome::Deliver(done + self.propagation)
    }

    fn propagation(&self) -> SimTime {
        self.propagation
    }

    fn uses_kernel_coin(&self) -> bool {
        // The loss check compares the kernel-drawn coin; a lossless link
        // ignores it entirely, so only lossy links pin a run to the
        // serial PRNG stream (and thus refuse to be cut across shards).
        self.loss > 0.0
    }

    fn rate_bps(&self) -> Option<u64> {
        Some(self.rate_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_plus_propagation() {
        let mut l = EtherLink::ten_gig(SimTime::from_ns(100));
        // 1250 bytes at 10 Gbps = 1 us serialization.
        match l.transmit(SimTime::ZERO, 1250, 0.9) {
            LinkOutcome::Deliver(t) => assert_eq!(t, SimTime::from_us(1) + SimTime::from_ns(100)),
            other => panic!("{other:?}"),
        }
        assert_eq!(l.rate_bps(), Some(10_000_000_000));
        assert_eq!(l.propagation(), SimTime::from_ns(100));
    }

    #[test]
    fn back_to_back_frames_queue() {
        let mut l = EtherLink::ten_gig(SimTime::ZERO);
        let first = l.transmit(SimTime::ZERO, 1250, 0.9);
        let second = l.transmit(SimTime::ZERO, 1250, 0.9);
        assert_eq!(first, LinkOutcome::Deliver(SimTime::from_us(1)));
        // Second frame waits for the first to serialize.
        assert_eq!(second, LinkOutcome::Deliver(SimTime::from_us(2)));
        assert_eq!(l.busy_until, SimTime::from_us(2));
        // After the wire drains, no queueing remains.
        let third = l.transmit(SimTime::from_us(10), 1250, 0.9);
        assert_eq!(third, LinkOutcome::Deliver(SimTime::from_us(11)));
    }

    #[test]
    fn bounded_queue_drops_on_overflow() {
        // Queue bound of 2500 bytes = 2 us of backlog at 10G.
        let mut l = EtherLink::ten_gig(SimTime::ZERO).with_queue_bytes(2500);
        let mut delivered = 0;
        let mut dropped = 0;
        for _ in 0..10 {
            match l.transmit(SimTime::ZERO, 1250, 0.9) {
                LinkOutcome::Deliver(_) => delivered += 1,
                LinkOutcome::Drop(DropReason::QueueOverflow) => dropped += 1,
                other => panic!("{other:?}"),
            }
        }
        // 1 in flight + ~2 queued fit; the rest drop.
        assert!((2..=4).contains(&delivered), "delivered={delivered}");
        assert_eq!(delivered + dropped, 10);
    }

    #[test]
    fn a_queue_bound_longer_than_simtime_never_overflows() {
        // 2,305,844 bytes at 1 bps is 2^64 ps and 7.9 s more: a bound that
        // wrapped would be those 7.9 s, and the second one-byte frame
        // (8 s behind the first) would drop.
        let mut l = EtherLink::new(1, SimTime::ZERO).with_queue_bytes(2_305_844);
        for sent in 1..=3 {
            assert_eq!(
                l.transmit(SimTime::ZERO, 1, 0.9),
                LinkOutcome::Deliver(SimTime::from_secs(8 * sent))
            );
        }
    }

    #[test]
    fn mtu_enforced() {
        let mut l = EtherLink::ten_gig(SimTime::ZERO).with_mtu(1514);
        assert_eq!(
            l.transmit(SimTime::ZERO, 1515, 0.9),
            LinkOutcome::Drop(DropReason::Mtu)
        );
        assert!(matches!(
            l.transmit(SimTime::ZERO, 1514, 0.9),
            LinkOutcome::Deliver(_)
        ));
    }

    #[test]
    fn loss_uses_the_coin() {
        let mut l = EtherLink::ten_gig(SimTime::ZERO).with_loss(0.25);
        assert_eq!(
            l.transmit(SimTime::ZERO, 100, 0.1),
            LinkOutcome::Drop(DropReason::RandomLoss)
        );
        assert!(matches!(
            l.transmit(SimTime::ZERO, 100, 0.3),
            LinkOutcome::Deliver(_)
        ));
    }

    #[test]
    fn propagation_profiles_order_correctly() {
        // Microwave beats fiber over the same distance (the reason firms
        // deploy it, §2), by roughly a third.
        let f = fiber_propagation(60.0);
        let m = microwave_propagation(60.0);
        assert!(m < f);
        let ratio = f.as_ps() as f64 / m.as_ps() as f64;
        assert!(ratio > 1.4 && ratio < 1.5, "ratio={ratio}");
        // ~60 km of fiber is ~294 us.
        assert!(f > SimTime::from_us(290) && f < SimTime::from_us(300));
    }
}
