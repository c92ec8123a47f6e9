//! Deterministic kernel self-profiler.
//!
//! [`KernelProfiler`] is the hot-path half: the schedule stream the
//! simulator feeds on every push (a push count, the deepest queue seen,
//! a bounded queue-depth time series). No dispatch count can derive
//! those, so they are recorded here; the dispatch counts are not, since
//! the kernel already keeps one count row per node while a profile will
//! read it. The profiler reads only simulated time and counts, never
//! wall-clock, so an enabled profiler cannot move a run's trace digest.
//!
//! [`KernelProfile`] is the cold half: a plain-data snapshot combining
//! the schedule stream with the per-node dispatch counts, scheduler
//! statistics (calendar rebuilds, wheel cascades, per-level occupancy)
//! and arena reuse counters, all filled in by the simulator at snapshot
//! time. It lives here, in `tn-obs`, as pure integers so report and CLI
//! layers can consume it without a dependency on the simulator crate.

/// Wheel levels mirrored from the simulator's timing wheel, so the
/// occupancy snapshot can be a fixed-size array.
pub const PROFILE_WHEEL_LEVELS: usize = 9;

/// How many queue-depth samples a profile retains. When the series
/// fills up it is decimated in place (every other sample dropped, the
/// sampling stride doubled), so memory stays bounded for arbitrarily
/// long runs while coverage stays spread over the whole run.
pub const QUEUE_SERIES_CAP: usize = 256;

/// Per-node dispatch counters with simulated-time attribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeProfile {
    /// Node id this row belongs to.
    pub node: u32,
    /// Shard whose kernel dispatched to this node (0 for serial runs).
    /// Additive field: merged multi-shard profiles stay unambiguous.
    pub shard: u16,
    /// Frames dispatched to the node.
    pub frames: u64,
    /// Timers dispatched to the node.
    pub timers: u64,
    /// Frames dropped while addressed to (or emitted by) the node.
    pub drops: u64,
    /// Simulated time of the first dispatch, ps (`u64::MAX` if none).
    pub first_at_ps: u64,
    /// Simulated time of the last dispatch, ps (0 if none).
    pub last_at_ps: u64,
}

impl NodeProfile {
    /// Total dispatches (frames + timers).
    pub fn dispatches(&self) -> u64 {
        self.frames + self.timers
    }
}

/// Hot-path schedule-stream recorder: a disabled profiler costs one
/// predictable branch per push and an enabled one a handful of integer
/// stores — no allocation, no wall-clock, no randomness.
#[derive(Debug, Clone, Default)]
pub struct KernelProfiler {
    enabled: bool,
    schedules: u64,
    /// `(at_ps, queue_depth)` samples, decimated in place when full.
    series: Vec<(u64, u64)>,
    /// Record every `stride`-th schedule into `series`.
    stride: u64,
    /// Pushes to skip before the next sample.
    until_sample: u64,
    max_queue_depth: u64,
}

impl KernelProfiler {
    /// A profiler that records nothing (the default).
    pub fn disabled() -> KernelProfiler {
        KernelProfiler::default()
    }

    /// An enabled profiler; the queue-depth series is reserved up front
    /// so recording never allocates.
    pub fn enabled() -> KernelProfiler {
        KernelProfiler {
            enabled: true,
            schedules: 0,
            series: Vec::with_capacity(QUEUE_SERIES_CAP),
            stride: 1,
            until_sample: 0,
            max_queue_depth: 0,
        }
    }

    /// True when the profiler is collecting.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// An event was pushed into the scheduler; `depth` is the queue
    /// length after the push. Samples the depth time series.
    #[inline]
    pub fn record_schedule(&mut self, at_ps: u64, depth: usize) {
        if !self.enabled {
            return;
        }
        self.schedules += 1;
        let depth = depth as u64;
        if depth > self.max_queue_depth {
            self.max_queue_depth = depth;
        }
        if self.until_sample > 0 {
            self.until_sample -= 1;
            return;
        }
        if self.series.len() == QUEUE_SERIES_CAP {
            // Decimate in place: keep every other sample, double the
            // stride. No allocation, bounded forever.
            for i in 0..QUEUE_SERIES_CAP / 2 {
                self.series[i] = self.series[2 * i];
            }
            self.series.truncate(QUEUE_SERIES_CAP / 2);
            self.stride *= 2;
        }
        self.series.push((at_ps, depth));
        self.until_sample = self.stride - 1;
    }

    /// Freeze the schedule stream into a plain-data [`KernelProfile`].
    /// The dispatch counts, per-node rows, scheduler and arena sections
    /// are left empty for the simulator to fill in; returns `None` when
    /// the profiler is disabled.
    pub fn snapshot(&self, at_ps: u64) -> Option<KernelProfile> {
        if !self.enabled {
            return None;
        }
        Some(KernelProfile {
            at_ps,
            scheduler: String::new(),
            frames: 0,
            timers: 0,
            drops: 0,
            schedules: self.schedules,
            max_queue_depth: self.max_queue_depth,
            queue_depth: self.series.clone(),
            queue_stride: self.stride,
            per_node: Vec::new(),
            sched_rebuilds: 0,
            sched_cascades: 0,
            sched_bucket_count: 0,
            sched_bucket_width_ps: 0,
            wheel_occupancy: [0; PROFILE_WHEEL_LEVELS],
            arena_allocated: 0,
            arena_reused: 0,
            arena_recycled: 0,
        })
    }

    /// Fold another profiler's schedule stream into this one. Used when
    /// a sharded run reassembles per-shard profilers into one unified
    /// profile: push counts are summed, the deepest queue kept, and the
    /// queue-depth series merged in time order and re-decimated to the
    /// bounded cap. Deterministic: absorb shards in ascending shard order.
    pub fn merge_from(&mut self, other: &KernelProfiler) {
        if !self.enabled || !other.enabled {
            return;
        }
        self.schedules += other.schedules;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        // Merge the two time-ordered series, then decimate back under the
        // cap; the merged stride is the coarser of the two, doubled per
        // decimation pass.
        let mut merged = Vec::with_capacity(self.series.len() + other.series.len());
        let (mut i, mut j) = (0, 0);
        while i < self.series.len() && j < other.series.len() {
            if self.series[i].0 <= other.series[j].0 {
                merged.push(self.series[i]);
                i += 1;
            } else {
                merged.push(other.series[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&self.series[i..]);
        merged.extend_from_slice(&other.series[j..]);
        let mut stride = self.stride.max(other.stride);
        while merged.len() > QUEUE_SERIES_CAP {
            let mut k = 0;
            merged.retain(|_| {
                let keep = k % 2 == 0;
                k += 1;
                keep
            });
            stride *= 2;
        }
        self.series.clear();
        self.series.extend_from_slice(&merged);
        self.stride = stride;
        self.until_sample = 0;
    }
}

/// Plain-data snapshot of kernel behavior over a run: the schedule
/// stream from [`KernelProfiler`] plus dispatch counts, scheduler and
/// arena statistics filled in by the simulator at snapshot time.
/// Everything is integers (+ one scheduler-name string), so it
/// serializes and renders without touching simulator types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelProfile {
    /// Simulated time the snapshot was taken, ps.
    pub at_ps: u64,
    /// Active scheduler name (e.g. `binary-heap`).
    pub scheduler: String,
    /// Frames dispatched.
    pub frames: u64,
    /// Timers dispatched.
    pub timers: u64,
    /// Frames dropped (loss, overflow, unrouted).
    pub drops: u64,
    /// Events pushed into the scheduler.
    pub schedules: u64,
    /// Largest queue depth ever observed after a push.
    pub max_queue_depth: u64,
    /// Bounded `(at_ps, depth)` time series of queue depth.
    pub queue_depth: Vec<(u64, u64)>,
    /// Sampling stride of `queue_depth` (every n-th push sampled).
    pub queue_stride: u64,
    /// Per-node rows (only nodes with activity), ascending node id.
    pub per_node: Vec<NodeProfile>,
    /// Calendar-queue bucket-array rebuilds (0 for other schedulers).
    pub sched_rebuilds: u64,
    /// Timing-wheel cascades (0 for other schedulers).
    pub sched_cascades: u64,
    /// Calendar-queue bucket count at snapshot time.
    pub sched_bucket_count: u64,
    /// Calendar-queue bucket width at snapshot time, ps.
    pub sched_bucket_width_ps: u64,
    /// Timing-wheel occupied slots per level at snapshot time.
    pub wheel_occupancy: [u64; PROFILE_WHEEL_LEVELS],
    /// Frame buffers allocated fresh from the heap.
    pub arena_allocated: u64,
    /// Frame buffers reused from the arena free list.
    pub arena_reused: u64,
    /// Frame buffers returned to the arena.
    pub arena_recycled: u64,
}

impl KernelProfile {
    /// Total dispatches (frames + timers).
    pub fn dispatches(&self) -> u64 {
        self.frames + self.timers
    }

    /// Fraction of frame builds served from the arena free list,
    /// in `[0, 1]`. `None` when no frame was ever built.
    pub fn arena_reuse_ratio(&self) -> Option<f64> {
        let total = self.arena_allocated + self.arena_reused;
        if total == 0 {
            None
        } else {
            Some(self.arena_reused as f64 / total as f64)
        }
    }

    /// Busiest nodes by total dispatches, descending; ties break on
    /// ascending node id so the order is deterministic.
    pub fn busiest_nodes(&self, top: usize) -> Vec<NodeProfile> {
        let mut rows = self.per_node.clone();
        rows.sort_by(|a, b| {
            b.dispatches()
                .cmp(&a.dispatches())
                .then(a.node.cmp(&b.node))
        });
        rows.truncate(top);
        rows
    }

    /// Multi-line human-readable rendering, each line prefixed with
    /// `indent`. Used by `DesignReport::summary()` and the experiment
    /// binaries; byte-stable for fixed input.
    pub fn render(&self, indent: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{indent}kernel profile @ {} ps ({})\n",
            self.at_ps, self.scheduler
        ));
        out.push_str(&format!(
            "{indent}  dispatched : {} frames, {} timers, {} drops ({} scheduled)\n",
            self.frames, self.timers, self.drops, self.schedules
        ));
        out.push_str(&format!(
            "{indent}  queue depth: max {} ({} samples, stride {})\n",
            self.max_queue_depth,
            self.queue_depth.len(),
            self.queue_stride
        ));
        match self.arena_reuse_ratio() {
            Some(ratio) => out.push_str(&format!(
                "{indent}  arena      : {} alloc, {} reuse, {} recycled ({:.1}% reuse)\n",
                self.arena_allocated,
                self.arena_reused,
                self.arena_recycled,
                ratio * 100.0
            )),
            None => out.push_str(&format!("{indent}  arena      : no frames built\n")),
        }
        if self.sched_rebuilds > 0 || self.sched_bucket_count > 0 {
            out.push_str(&format!(
                "{indent}  calendar   : {} rebuilds, {} buckets x {} ps\n",
                self.sched_rebuilds, self.sched_bucket_count, self.sched_bucket_width_ps
            ));
        }
        if self.sched_cascades > 0 || self.wheel_occupancy.iter().any(|&o| o > 0) {
            let occ: Vec<String> = self.wheel_occupancy.iter().map(|o| o.to_string()).collect();
            out.push_str(&format!(
                "{indent}  wheel      : {} cascades, occupancy [{}]\n",
                self.sched_cascades,
                occ.join(" ")
            ));
        }
        for row in self.busiest_nodes(5) {
            out.push_str(&format!(
                "{indent}  node {:<5}: {} frames, {} timers, {} drops, active {}..{} ps\n",
                row.node,
                row.frames,
                row.timers,
                row.drops,
                if row.first_at_ps == u64::MAX {
                    0
                } else {
                    row.first_at_ps
                },
                row.last_at_ps
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = KernelProfiler::disabled();
        p.record_schedule(10, 5);
        assert!(p.snapshot(10).is_none());
    }

    #[test]
    fn queue_series_is_bounded_and_decimates() {
        let mut p = KernelProfiler::enabled();
        for i in 0..(QUEUE_SERIES_CAP as u64 * 10) {
            p.record_schedule(i, i as usize % 50);
        }
        let prof = p.snapshot(0).expect("enabled");
        assert!(prof.queue_depth.len() <= QUEUE_SERIES_CAP);
        assert!(prof.queue_stride >= 2, "stride doubled at least once");
        assert_eq!(prof.max_queue_depth, 49);
        assert_eq!(prof.schedules, QUEUE_SERIES_CAP as u64 * 10);
        // Samples stay in time order after decimation.
        for w in prof.queue_depth.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn series_never_grows_beyond_reserved_capacity() {
        let mut p = KernelProfiler::enabled();
        let cap_before = p.series.capacity();
        for i in 0..100_000u64 {
            p.record_schedule(i, 3);
        }
        assert_eq!(
            p.series.capacity(),
            cap_before,
            "series must not reallocate"
        );
    }

    #[test]
    fn merge_from_merges_counters_and_series() {
        let mut a = KernelProfiler::enabled();
        a.record_schedule(100, 4);
        let mut b = KernelProfiler::enabled();
        b.record_schedule(50, 9);
        let mut merged = KernelProfiler::enabled();
        merged.merge_from(&a);
        merged.merge_from(&b);
        let prof = merged.snapshot(1_000).expect("enabled");
        assert_eq!(prof.schedules, 2);
        assert_eq!(prof.max_queue_depth, 9);
        // Series arrives in time order regardless of absorb order.
        assert_eq!(prof.queue_depth, vec![(50, 9), (100, 4)]);
    }

    #[test]
    fn merge_from_keeps_the_series_bounded() {
        let mut a = KernelProfiler::enabled();
        let mut b = KernelProfiler::enabled();
        for i in 0..QUEUE_SERIES_CAP as u64 {
            a.record_schedule(2 * i, 1);
            b.record_schedule(2 * i + 1, 2);
        }
        a.merge_from(&b);
        let prof = a.snapshot(0).expect("enabled");
        assert!(prof.queue_depth.len() <= QUEUE_SERIES_CAP);
        assert!(prof.queue_stride >= 2);
        for w in prof.queue_depth.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn reuse_ratio_handles_empty_and_full() {
        let mut prof = KernelProfiler::enabled().snapshot(0).expect("enabled");
        assert_eq!(prof.arena_reuse_ratio(), None);
        prof.arena_allocated = 25;
        prof.arena_reused = 75;
        assert_eq!(prof.arena_reuse_ratio(), Some(0.75));
    }

    #[test]
    fn render_mentions_scheduler_sections_only_when_active() {
        let mut prof = KernelProfiler::enabled().snapshot(42).expect("enabled");
        prof.scheduler = "timing-wheel".to_string();
        prof.sched_cascades = 7;
        prof.wheel_occupancy[0] = 3;
        let text = prof.render("  ");
        assert!(
            text.contains("kernel profile @ 42 ps (timing-wheel)"),
            "{text}"
        );
        assert!(text.contains("7 cascades"), "{text}");
        assert!(!text.contains("calendar"), "{text}");
    }
}
