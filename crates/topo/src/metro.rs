//! The metropolitan region: co-location facilities and inter-colo links.
//!
//! §2 / Figure 1(a): US equities and options trading spans three New
//! Jersey co-location facilities tens of miles apart; firms run private
//! WANs over fiber or microwave between them. This module captures the
//! geometry and produces the link profiles the designs attach to.

use tn_netdev::{fiber_propagation, microwave_propagation, EtherLink};
use tn_sim::SimTime;

/// A co-location facility.
#[derive(Debug, Clone, PartialEq)]
pub struct Colo {
    /// Facility name.
    pub name: &'static str,
    /// Exchanges hosted there (names only; the simulation attaches
    /// `tn_market::Exchange`-like nodes separately).
    pub exchanges: Vec<&'static str>,
    /// Position (km, km) in a local plane, for distance computation.
    pub position: (f64, f64),
}

/// How an inter-colo circuit is carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitKind {
    /// Buried fiber: reliable, ~2/3 c, effectively unlimited bandwidth.
    Fiber,
    /// Microwave: ~c, lossy, low bandwidth (§2's latency-over-reliability
    /// trade).
    Microwave,
}

/// A metropolitan region of colos.
#[derive(Debug, Clone)]
pub struct MetroRegion {
    /// The facilities.
    pub colos: Vec<Colo>,
    /// Fiber route inflation over line-of-sight (fiber never runs
    /// straight; 1.4 is typical for metro routes).
    pub fiber_route_factor: f64,
}

impl MetroRegion {
    /// The New-Jersey-like triangle of Figure 1(a): three facilities
    /// hosting the US equities/options exchanges, tens of km apart.
    pub fn nj_triangle() -> MetroRegion {
        MetroRegion {
            colos: vec![
                Colo {
                    name: "NorthColo", // Mahwah-like
                    exchanges: vec!["EXCH-N1", "EXCH-N2"],
                    position: (0.0, 0.0),
                },
                Colo {
                    name: "MidColo", // Secaucus-like
                    exchanges: vec!["EXCH-M1", "EXCH-M2", "EXCH-M3"],
                    position: (8.0, -35.0),
                },
                Colo {
                    name: "SouthColo", // Carteret-like
                    exchanges: vec!["EXCH-S1"],
                    position: (-2.0, -55.0),
                },
            ],
            fiber_route_factor: 1.4,
        }
    }

    /// Line-of-sight distance between colos `a` and `b`, km.
    pub fn distance_km(&self, a: usize, b: usize) -> f64 {
        let (x1, y1) = self.colos[a].position;
        let (x2, y2) = self.colos[b].position;
        ((x1 - x2).powi(2) + (y1 - y2).powi(2)).sqrt()
    }

    /// One-way propagation delay between colos over the given medium.
    pub fn propagation(&self, a: usize, b: usize, kind: CircuitKind) -> SimTime {
        let d = self.distance_km(a, b);
        match kind {
            CircuitKind::Fiber => fiber_propagation(d * self.fiber_route_factor),
            CircuitKind::Microwave => microwave_propagation(d),
        }
    }

    /// A link profile for the circuit between colos `a` and `b`.
    /// Microwave circuits get realistic loss and constrained bandwidth.
    pub fn circuit(&self, a: usize, b: usize, kind: CircuitKind) -> EtherLink {
        match kind {
            CircuitKind::Fiber => EtherLink::ten_gig(self.propagation(a, b, kind)),
            CircuitKind::Microwave => {
                EtherLink::new(1_000_000_000, self.propagation(a, b, kind)).with_loss(0.0005)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_distances_are_tens_of_km() {
        let m = MetroRegion::nj_triangle();
        assert_eq!(m.colos.len(), 3);
        for a in 0..3 {
            for b in 0..3 {
                if a != b {
                    let d = m.distance_km(a, b);
                    assert!((10.0..80.0).contains(&d), "{a}->{b}: {d} km");
                }
            }
        }
        assert_eq!(m.distance_km(0, 1), m.distance_km(1, 0));
    }

    #[test]
    fn microwave_beats_fiber_meaningfully() {
        // §2: microwave links are worth their unreliability because light
        // in air beats light in (longer, slower) glass by ~30-50%.
        let m = MetroRegion::nj_triangle();
        let fiber = m.propagation(0, 2, CircuitKind::Fiber);
        let adv = fiber - m.propagation(0, 2, CircuitKind::Microwave);
        let ratio = adv.as_ps() as f64 / fiber.as_ps() as f64;
        assert!(ratio > 0.3, "advantage ratio {ratio}");
        // Absolute advantage on the long leg is tens of microseconds.
        assert!(adv > SimTime::from_us(100), "{adv}");
    }

    #[test]
    fn circuit_profiles() {
        let m = MetroRegion::nj_triangle();
        use tn_sim::Link;
        let fiber = m.circuit(0, 1, CircuitKind::Fiber);
        let mw = m.circuit(0, 1, CircuitKind::Microwave);
        assert_eq!(Link::rate_bps(&fiber), Some(10_000_000_000));
        assert_eq!(Link::rate_bps(&mw), Some(1_000_000_000));
        assert!(Link::propagation(&mw) < Link::propagation(&fiber));
    }

    #[test]
    fn fiber_propagation_matches_physics() {
        // ~50 km straight-line -> 70 km routed -> ~343 us in glass.
        let m = MetroRegion::nj_triangle();
        let p = m.propagation(1, 2, CircuitKind::Fiber);
        assert!(
            p > SimTime::from_us(100) && p < SimTime::from_us(300),
            "{p}"
        );
    }
}
