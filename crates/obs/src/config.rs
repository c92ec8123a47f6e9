//! Observability configuration.

/// What telemetry the simulator should collect.
///
/// The default is everything off: telemetry is strictly opt-in, and — by
/// the determinism invariant this crate maintains — turning any of it on
/// must not change a run's trace digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Accumulate per-hop [`crate::Provenance`] segments on every frame.
    pub provenance: bool,
    /// Keep a [`crate::MetricsRegistry`]: the kernel records link-drop
    /// reasons and hop distributions into it, and a snapshot adds the
    /// kernel's dispatch counts and every device's own counters.
    pub registry: bool,
    /// Keep a ring of the last `flight_capacity` kernel events in a
    /// [`crate::FlightRecorder`], dumped on panic or on demand; 0 keeps
    /// none. Memory use is `capacity * size_of::<FlightRecord>()`, fixed
    /// at enable time.
    pub flight_capacity: u32,
    /// Produce a deterministic `KernelProfile`: per-node / per-kind
    /// dispatch counts read from the kernel's count rows, the
    /// [`crate::KernelProfiler`]'s queue-depth series, and scheduler and
    /// arena statistics.
    pub profile: bool,
    /// Store every record the run digest folds (`Simulator::trace`),
    /// not just the digest. Memory grows with the run, so no preset turns
    /// it on; tests that re-fold a run's event stream do.
    pub trace: bool,
}

/// Ring capacity used by the presets when the flight recorder is on.
pub const DEFAULT_FLIGHT_CAPACITY: u32 = 1024;

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig::off()
    }
}

impl ObsConfig {
    /// No telemetry (the default).
    pub const fn off() -> ObsConfig {
        ObsConfig {
            provenance: false,
            registry: false,
            flight_capacity: 0,
            profile: false,
            trace: false,
        }
    }

    /// Everything bounded on: provenance, registry, flight recorder, and
    /// kernel profiler. Trace storage, which is not bounded, stays off.
    pub const fn full() -> ObsConfig {
        ObsConfig {
            provenance: true,
            registry: true,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
            profile: true,
            trace: false,
        }
    }

    /// [`ObsConfig::full`] when `on`, [`ObsConfig::off`] otherwise — the
    /// boolean axis sweep specs use (`obs_full = 0 | 1`).
    pub const fn from_full_flag(on: bool) -> ObsConfig {
        if on {
            ObsConfig::full()
        } else {
            ObsConfig::off()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_off() {
        assert_eq!(ObsConfig::default(), ObsConfig::off());
        let flags = |c: ObsConfig| [c.provenance, c.registry, c.profile];
        assert_eq!(flags(ObsConfig::off()), [false; 3]);
        assert_eq!(flags(ObsConfig::full()), [true; 3]);
        assert_eq!(ObsConfig::off().flight_capacity, 0);
        assert_eq!(ObsConfig::full().flight_capacity, DEFAULT_FLIGHT_CAPACITY);
        assert!(!ObsConfig::full().trace, "no preset stores the trace");
    }

    #[test]
    fn full_flag_maps_to_presets() {
        assert_eq!(ObsConfig::from_full_flag(true), ObsConfig::full());
        assert_eq!(ObsConfig::from_full_flag(false), ObsConfig::off());
    }
}
