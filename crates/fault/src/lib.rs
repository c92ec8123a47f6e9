//! # tn-fault — deterministic fault injection
//!
//! The paper's reliability argument (§2, §4) is that trading networks
//! survive loss at the *edges* — A/B feed pairs, gap detection,
//! retransmission units — not by retransmitting inside the fabric. To
//! exercise those claims the simulator needs faults, and the faults must
//! be as deterministic as everything else: two runs with the same master
//! seed and the same fault configuration must produce bit-identical
//! kernel trace digests (`tn-audit divergence` enforces this).
//!
//! Three layers:
//!
//! * [`FaultSpec`] — a declarative fault model for one link direction:
//!   i.i.d. or burst (Gilbert–Elliott) frame loss, reordering jitter, and
//!   scheduled outage windows. All randomness comes from a
//!   [`tn_sim::SmallRng`] seeded from the spec, advanced only by
//!   `transmit` calls — never from wall clocks or global state.
//! * [`FaultLink`] — wraps any [`tn_sim::Link`] and applies a
//!   `FaultSpec` in front of it. A no-op spec is bit-transparent: the
//!   wrapped link sees exactly the calls it would have seen bare.
//! * [`LinkSpec`] + [`FaultConnect`] — the redesigned link-construction
//!   API: one struct carrying latency, rate, queueing, MTU and an
//!   optional fault model, accepted by `connect_spec` /
//!   `connect_directed_spec` on the simulator. This replaces threading
//!   positional `Link` parameters through every call site.
//!
//! ```
//! use tn_fault::{FaultConnect, FaultSpec, LinkSpec};
//! use tn_sim::{Simulator, SimTime, Node, Context, Frame, PortId};
//!
//! struct Sink(u64);
//! impl Node for Sink {
//!     fn on_frame(&mut self, _: &mut Context<'_>, _: PortId, _: Frame) { self.0 += 1; }
//! }
//!
//! let mut sim = Simulator::new(1);
//! let a = sim.add_node("a", Sink(0));
//! let b = sim.add_node("b", Sink(0));
//! let spec = LinkSpec::ten_gig(SimTime::from_ns(25))
//!     .with_fault(FaultSpec::new(7).with_iid_loss(0.05));
//! sim.connect_spec(a, PortId(0), b, PortId(0), &spec);
//! ```

pub mod link;
pub mod spec;

pub use link::FaultLink;
pub use spec::FaultSpec;

use link::{BaseLink, SpecLink};
use tn_sim::{Link, NodeId, PortId, Simulator};

/// A declarative link between two ports: propagation, optional
/// serialization rate, bounded queueing, MTU, and an optional fault
/// model. Already-built `impl Link` instances go through the raw
/// `Simulator::install_link` instead.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// One-way propagation delay.
    pub propagation: tn_sim::SimTime,
    /// Line rate in bits/second; `None` models an infinitely fast hop
    /// (no serialization, no queueing) like [`tn_sim::IdealLink`].
    pub rate_bps: Option<u64>,
    /// Egress queue bound in bytes; `None` is unbounded.
    pub queue_bytes: Option<usize>,
    /// Injected fault model, if any. `None` is a clean link and is
    /// guaranteed bit-transparent: digests match a bare-link build.
    pub fault: Option<FaultSpec>,
}

impl LinkSpec {
    /// An infinitely fast, lossless hop with a fixed one-way delay.
    pub fn ideal(propagation: tn_sim::SimTime) -> LinkSpec {
        LinkSpec {
            propagation,
            rate_bps: None,
            queue_bytes: None,
            fault: None,
        }
    }

    /// A serializing link at `rate_bps`.
    pub fn ether(rate_bps: u64, propagation: tn_sim::SimTime) -> LinkSpec {
        LinkSpec {
            rate_bps: Some(rate_bps),
            ..LinkSpec::ideal(propagation)
        }
    }

    /// The standard 10 GbE colo/cross-connect link.
    pub fn ten_gig(propagation: tn_sim::SimTime) -> LinkSpec {
        LinkSpec::ether(10_000_000_000, propagation)
    }

    /// Bound the egress queue (bytes of backlog beyond the frame in
    /// flight).
    pub fn with_queue_bytes(mut self, bytes: usize) -> LinkSpec {
        self.queue_bytes = Some(bytes);
        self
    }

    /// Attach a fault model.
    pub fn with_fault(mut self, fault: FaultSpec) -> LinkSpec {
        self.fault = Some(fault);
        self
    }

    /// Materialize the link model this spec describes. Each call builds a
    /// fresh instance (fresh fault RNG, idle transmitter), so the two
    /// directions of a bidirectional connect fault independently but
    /// reproducibly.
    pub fn build(&self) -> SpecLink {
        let base = match self.rate_bps {
            None => BaseLink::Ideal(tn_sim::IdealLink::new(self.propagation)),
            Some(rate) => {
                let mut l = tn_netdev::EtherLink::new(rate, self.propagation);
                if let Some(q) = self.queue_bytes {
                    l = l.with_queue_bytes(q);
                }
                BaseLink::Ether(l)
            }
        };
        FaultLink::wrap(base, self.fault.clone().unwrap_or_default())
    }
}

/// Spec-based connection API for [`Simulator`], over its raw
/// `install_link` primitive.
pub trait FaultConnect {
    /// Connect two ports bidirectionally; each direction gets its own
    /// independently built instance of `spec`.
    fn connect_spec(
        &mut self,
        a: NodeId,
        a_port: PortId,
        b: NodeId,
        b_port: PortId,
        spec: &LinkSpec,
    );

    /// Install a directional link described by `spec`.
    fn connect_directed_spec(
        &mut self,
        src: NodeId,
        src_port: PortId,
        dst: NodeId,
        dst_port: PortId,
        spec: &LinkSpec,
    );
}

impl FaultConnect for Simulator {
    fn connect_spec(
        &mut self,
        a: NodeId,
        a_port: PortId,
        b: NodeId,
        b_port: PortId,
        spec: &LinkSpec,
    ) {
        self.connect_directed_spec(a, a_port, b, b_port, spec);
        self.connect_directed_spec(b, b_port, a, a_port, spec);
    }

    fn connect_directed_spec(
        &mut self,
        src: NodeId,
        src_port: PortId,
        dst: NodeId,
        dst_port: PortId,
        spec: &LinkSpec,
    ) {
        let link: Box<dyn Link> = Box::new(spec.build());
        self.install_link(src, src_port, dst, dst_port, link);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_sim::{Context, Frame, LinkOutcome, Node, PortId, SimTime};

    struct Count(u64);
    impl Node for Count {
        fn on_frame(&mut self, _: &mut Context<'_>, _: PortId, _: Frame) {
            self.0 += 1;
        }
    }

    #[test]
    fn ideal_spec_matches_ideal_link() {
        let spec = LinkSpec::ideal(SimTime::from_ns(100));
        let mut built = spec.build();
        let mut bare = tn_sim::IdealLink::new(SimTime::from_ns(100));
        for t in [0u64, 10, 500] {
            assert_eq!(
                built.transmit(SimTime::from_ns(t), 64, 0.5),
                bare.transmit(SimTime::from_ns(t), 64, 0.5)
            );
        }
    }

    #[test]
    fn ether_spec_matches_ether_link() {
        let spec = LinkSpec::ten_gig(SimTime::from_ns(25)).with_queue_bytes(5_000);
        let mut built = spec.build();
        let mut bare = tn_netdev::EtherLink::ten_gig(SimTime::from_ns(25)).with_queue_bytes(5_000);
        for len in [64usize, 9216, 9217, 1250, 1250, 1250, 1250] {
            assert_eq!(
                built.transmit(SimTime::ZERO, len, 0.9),
                bare.transmit(SimTime::ZERO, len, 0.9)
            );
        }
    }

    #[test]
    fn connect_spec_wires_both_directions() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a", Count(0));
        let b = sim.add_node("b", Count(0));
        sim.connect_spec(
            a,
            PortId(0),
            b,
            PortId(0),
            &LinkSpec::ideal(SimTime::from_ns(5)),
        );
        assert!(sim.is_connected(a, PortId(0)));
        assert!(sim.is_connected(b, PortId(0)));
    }

    #[test]
    fn faulty_spec_drops_deterministically() {
        let spec = LinkSpec::ideal(SimTime::ZERO).with_fault(FaultSpec::new(3).with_iid_loss(0.5));
        let outcomes = |spec: &LinkSpec| {
            let mut l = spec.build();
            (0..64)
                .map(|i| l.transmit(SimTime::from_ns(i), 100, 0.5))
                .collect::<Vec<_>>()
        };
        let a = outcomes(&spec);
        let b = outcomes(&spec);
        assert_eq!(a, b);
        assert!(a.iter().any(|o| matches!(o, LinkOutcome::Drop(_))));
        assert!(a.iter().any(|o| matches!(o, LinkOutcome::Deliver(_))));
    }
}
