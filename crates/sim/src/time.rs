//! Simulation time in integer picoseconds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulation time (or a duration), counted in picoseconds.
///
/// `SimTime` is used both as an absolute timestamp and as a duration; the
/// arithmetic is the same and trading-network models never need the
/// distinction enforced by types. Picosecond resolution matches the
/// sub-100 ps timestamping precision the paper reports firms wanting for
/// capture appliances (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero / the zero duration.
    pub const ZERO: SimTime = SimTime(0);
    /// Largest representable time (~213 days).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// One second.
    pub const SECOND: SimTime = SimTime(1_000_000_000_000);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000_000)
    }

    /// Construct from fractional seconds (convenience for scenario setup;
    /// not for hot paths).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative SimTime");
        SimTime((s * 1e12).round() as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: `self - other`, or zero if `other` is later.
    #[inline]
    pub const fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Checked addition.
    #[inline]
    pub const fn checked_add(self, other: SimTime) -> Option<SimTime> {
        match self.0.checked_add(other.0) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Time to serialize `bytes` onto a link of `bits_per_sec`, truncated
    /// to whole picoseconds and saturating at [`SimTime::MAX`].
    ///
    /// Used by link and NIC models; exact integer arithmetic (picoseconds
    /// per bit is not integral for common rates). `bytes × 8·10¹²` fits a
    /// `u64` up to 2,305,843 bytes — every frame the simulator carries —
    /// so the per-transmit call is one 64-bit divide; only larger counts
    /// (a bounded link's `queue_bytes`) take the 128-bit one.
    #[inline]
    pub fn serialization(bytes: usize, bits_per_sec: u64) -> SimTime {
        debug_assert!(bits_per_sec > 0);
        const PS_PER_BYTE: u64 = 8 * SimTime::SECOND.0;
        match (bytes as u64).checked_mul(PS_PER_BYTE) {
            Some(ps_at_1bps) => SimTime(ps_at_1bps / bits_per_sec),
            None => {
                let ps = bytes as u128 * u128::from(PS_PER_BYTE) / u128::from(bits_per_sec);
                SimTime(ps.min(u128::from(u64::MAX)) as u64)
            }
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    /// Human-readable rendering with an auto-selected unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0s")
        } else if ps < 1_000 {
            write!(f, "{ps}ps")
        } else if ps < 1_000_000 {
            write!(f, "{:.3}ns", ps as f64 / 1e3)
        } else if ps < 1_000_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1e6)
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9)
        } else {
            write!(f, "{:.6}s", ps as f64 / 1e12)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimTime::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimTime::from_secs(1), SimTime::SECOND);
        assert_eq!(SimTime::from_secs(1).as_ps(), 1_000_000_000_000);
    }

    #[test]
    fn conversions_truncate() {
        let t = SimTime::from_ps(1_999);
        assert_eq!(t.as_ns(), 1);
        assert_eq!(SimTime::from_ns(2_500).as_ns(), 2_500);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(500);
        let b = SimTime::from_ns(250);
        assert_eq!(a + b, SimTime::from_ns(750));
        assert_eq!(a - b, SimTime::from_ns(250));
        assert_eq!(a * 3, SimTime::from_ns(1500));
        assert_eq!(a / 2, SimTime::from_ns(250));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    fn serialization_10g() {
        // 1500 bytes at 10 Gbps = 1.2 us.
        let t = SimTime::serialization(1500, 10_000_000_000);
        assert_eq!(t, SimTime::from_ns(1200));
        // 64 bytes at 10 Gbps = 51.2 ns.
        let t = SimTime::serialization(64, 10_000_000_000);
        assert_eq!(t, SimTime::from_ps(51_200));
    }

    /// The formula in full width: what `serialization` must equal.
    fn serialization_u128(bytes: usize, bits_per_sec: u64) -> u128 {
        bytes as u128 * 8 * 1_000_000_000_000 / u128::from(bits_per_sec)
    }

    #[test]
    fn serialization_switches_width_at_the_u64_boundary_and_saturates() {
        // 2,305,843 bytes is the last count whose picoseconds-at-1-bps
        // fit a u64; both sides of it agree with the wide formula.
        for bytes in [2_305_842usize, 2_305_843, 2_305_844, 2_305_845] {
            for rate in [1, 999_983, 10_000_000_000, u64::MAX] {
                let want = serialization_u128(bytes, rate).min(u128::from(u64::MAX)) as u64;
                assert_eq!(SimTime::serialization(bytes, rate), SimTime(want));
            }
        }
        // A 4 GB queue bound on a 1 kbps link is 3.2e19 ps > 2^64: the
        // bound saturates rather than wrapping to a small backlog.
        assert!(serialization_u128(4_000_000_000, 1_000) > u128::from(u64::MAX));
        assert_eq!(SimTime::serialization(4_000_000_000, 1_000), SimTime::MAX);
        assert_eq!(SimTime::serialization(usize::MAX, 1), SimTime::MAX);
    }

    proptest! {
        /// Bit-identical to the 128-bit formula over every frame size the
        /// simulator can carry and beyond (0–4 MB), at the rates in use
        /// and at odd ones.
        #[test]
        fn serialization_matches_the_u128_reference(
            bytes in 0usize..4_194_304,
            rate in prop_oneof![
                (6u32..12).prop_map(|e| 10u64.pow(e)),
                Just(25_000_000_000u64),
                Just(40_000_000_000u64),
                1u64..200_000_000_000,
            ],
        ) {
            let want = serialization_u128(bytes, rate);
            prop_assert!(want <= u128::from(u64::MAX));
            prop_assert_eq!(SimTime::serialization(bytes, rate), SimTime(want as u64));
        }
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(SimTime::from_ns(500).to_string(), "500.000ns");
        assert_eq!(SimTime::from_us(2).to_string(), "2.000us");
        assert_eq!(SimTime::ZERO.to_string(), "0s");
        assert_eq!(SimTime(999).to_string(), "999ps");
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimTime::from_secs_f64(0.5), SimTime::from_ms(500));
        assert_eq!(SimTime::from_secs_f64(1e-9), SimTime::from_ns(1));
    }

    #[test]
    fn sum_and_minmax() {
        let total: SimTime = [SimTime::from_ns(1), SimTime::from_ns(2)].into_iter().sum();
        assert_eq!(total, SimTime::from_ns(3));
        assert_eq!(
            SimTime::from_ns(1).max(SimTime::from_ns(2)),
            SimTime::from_ns(2)
        );
        assert_eq!(
            SimTime::from_ns(1).min(SimTime::from_ns(2)),
            SimTime::from_ns(1)
        );
    }
}
