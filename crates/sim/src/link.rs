//! Link models: serialization, propagation, egress queueing, loss.
//!
//! A [`Link`] is directional and owned by the kernel; `connect` installs one
//! in each direction. The kernel asks the link *when* a frame transmitted
//! "now" finishes arriving at the far end (or whether it is dropped); the
//! link tracks its own egress occupancy so back-to-back sends queue behind
//! each other exactly as a FIFO egress port does.

use crate::time::SimTime;

/// Outcome of offering a frame to a link for transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkOutcome {
    /// Frame will be fully delivered to the peer at this absolute time.
    Deliver(SimTime),
    /// Frame was dropped (queue overflow, injected loss, ...). The named
    /// reason is recorded in link statistics and trace logs.
    Drop(DropReason),
}

/// How a link traversal's total latency splits into phases — the per-hop
/// decomposition recorded into [`tn_obs::Provenance`] when provenance
/// tracking is on. Phases always sum to the decomposed total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HopTiming {
    /// Time waiting behind earlier frames at the egress.
    pub queue: SimTime,
    /// Time clocking the frame onto the wire at the link rate.
    pub serialize: SimTime,
    /// Time in flight at propagation speed.
    pub propagate: SimTime,
}

/// Why a link dropped a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Bounded egress queue was full.
    QueueOverflow,
    /// Random loss (microwave fade, injected fault).
    RandomLoss,
    /// Frame exceeded the link MTU.
    Mtu,
    /// The link was down (a scheduled outage) when the frame was offered.
    LinkDown,
}

impl DropReason {
    /// Every reason, in declaration order (`reason as usize` indexes it).
    pub const ALL: [DropReason; 4] = [
        DropReason::QueueOverflow,
        DropReason::RandomLoss,
        DropReason::Mtu,
        DropReason::LinkDown,
    ];

    /// Stable lowercase name, used in metrics keys and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::QueueOverflow => "queue_overflow",
            DropReason::RandomLoss => "random_loss",
            DropReason::Mtu => "mtu",
            DropReason::LinkDown => "link_down",
        }
    }
}

/// A directional point-to-point link.
///
/// Implementations must be deterministic given the same call sequence; any
/// randomness (loss) must come from the `coin` argument, which the kernel
/// draws from the scenario PRNG. `Send` is a supertrait so sharded runs
/// can move links onto per-shard threads.
pub trait Link: Send {
    /// Offer a frame of `len` bytes for transmission at absolute time `now`.
    ///
    /// `coin` is a uniform random value in `[0,1)` drawn by the kernel for
    /// this offer; deterministic links ignore it.
    fn transmit(&mut self, now: SimTime, len: usize, coin: f64) -> LinkOutcome;

    /// One-way propagation delay (for diagnostics / route planning).
    fn propagation(&self) -> SimTime;

    /// A guaranteed lower bound on delivery latency: every
    /// [`Link::transmit`] accepted at `now` delivers no earlier than
    /// `now + min_delay()`. Conservative parallel sharding uses this as
    /// the cross-shard lookahead, so the bound must hold for every frame
    /// the link will ever carry. The default — the advertised propagation
    /// delay — is correct for every model whose queueing, serialization,
    /// and jitter only *add* latency; override only for links that can
    /// deliver faster than their advertised propagation.
    fn min_delay(&self) -> SimTime {
        self.propagation()
    }

    /// True when this link's outcome depends on the kernel-drawn `coin`
    /// (e.g. i.i.d. loss). Sharded runs refuse such links: each shard has
    /// its own PRNG stream, so a coin-consuming link would break the
    /// bit-for-bit equivalence with the serial run. Links that carry
    /// their own seeded PRNG (tn-fault wrappers) return `false`.
    fn uses_kernel_coin(&self) -> bool {
        false
    }

    /// Nominal rate in bits per second, if the link models serialization.
    fn rate_bps(&self) -> Option<u64> {
        None
    }

    /// Report the counters this link keeps — a fault wrapper's drops by
    /// cause, for instance — into a registry snapshot (see
    /// [`crate::Simulator::metrics_snapshot`]). The default reports
    /// nothing; like [`crate::Node::metrics`] it is a read-only view.
    fn metrics(&self, into: &mut tn_obs::MetricsRegistry) {
        let _ = into;
    }

    /// Split a traversal's `total` latency (delivery time minus offer
    /// time, for a frame of `len` bytes) into queue / serialize /
    /// propagate phases using the link's advertised propagation and rate.
    ///
    /// The phases sum to `total` exactly: propagation and serialization
    /// are clamped to what is available and the remainder — including any
    /// delay the advertised figures cannot explain, such as injected
    /// jitter — is attributed to queueing. Links with richer internal
    /// state may override for a sharper split.
    fn decompose(&self, len: usize, total: SimTime) -> HopTiming {
        let propagate = if self.propagation() < total {
            self.propagation()
        } else {
            total
        };
        let remain = total - propagate;
        let serialize = match self.rate_bps() {
            Some(rate) if rate > 0 => SimTime::serialization(len, rate).min(remain),
            _ => SimTime::ZERO,
        };
        HopTiming {
            queue: remain - serialize,
            serialize,
            propagate,
        }
    }
}

/// An infinitely fast link with a fixed one-way delay and no loss.
///
/// Useful for intra-host hops (e.g. strategy core to NIC) and for tests.
#[derive(Debug, Clone)]
pub struct IdealLink {
    delay: SimTime,
}

impl IdealLink {
    /// Create a lossless, zero-serialization link with a one-way `delay`.
    pub fn new(delay: SimTime) -> Self {
        IdealLink { delay }
    }
}

impl Link for IdealLink {
    fn transmit(&mut self, now: SimTime, _len: usize, _coin: f64) -> LinkOutcome {
        LinkOutcome::Deliver(now + self.delay)
    }

    fn propagation(&self) -> SimTime {
        self.delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_link_delivers_after_delay() {
        let mut l = IdealLink::new(SimTime::from_ns(100));
        match l.transmit(SimTime::from_ns(50), 1500, 0.0) {
            LinkOutcome::Deliver(t) => assert_eq!(t, SimTime::from_ns(150)),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(l.propagation(), SimTime::from_ns(100));
        assert_eq!(l.rate_bps(), None);
    }

    #[test]
    fn decompose_phases_sum_to_total() {
        // Rate-less link: everything beyond propagation is queueing.
        let l = IdealLink::new(SimTime::from_ns(100));
        let t = l.decompose(1500, SimTime::from_ns(130));
        assert_eq!(t.propagate, SimTime::from_ns(100));
        assert_eq!(t.serialize, SimTime::ZERO);
        assert_eq!(t.queue, SimTime::from_ns(30));
        assert_eq!(t.queue + t.serialize + t.propagate, SimTime::from_ns(130));
        // Total shorter than propagation clamps instead of underflowing.
        let t = l.decompose(1500, SimTime::from_ns(40));
        assert_eq!(t.propagate, SimTime::from_ns(40));
        assert_eq!(t.queue, SimTime::ZERO);

        struct Rated;
        impl Link for Rated {
            fn transmit(&mut self, now: SimTime, _: usize, _: f64) -> LinkOutcome {
                LinkOutcome::Deliver(now)
            }
            fn propagation(&self) -> SimTime {
                SimTime::from_ns(10)
            }
            fn rate_bps(&self) -> Option<u64> {
                Some(10_000_000_000) // 10G: 0.1 ns per bit
            }
        }
        // 125 bytes = 1000 bits = 100 ns serialization at 10G.
        let t = Rated.decompose(125, SimTime::from_ns(150));
        assert_eq!(t.propagate, SimTime::from_ns(10));
        assert_eq!(t.serialize, SimTime::from_ns(100));
        assert_eq!(t.queue, SimTime::from_ns(40));
    }

    #[test]
    fn ideal_link_has_no_queueing() {
        // Two back-to-back frames arrive at identical offsets: no serialization.
        let mut l = IdealLink::new(SimTime::from_ns(10));
        let a = l.transmit(SimTime::ZERO, 9000, 0.9);
        let b = l.transmit(SimTime::ZERO, 9000, 0.1);
        assert_eq!(a, b);
    }
}
