//! The untraced run: warm up, repeat the timed call for the asked
//! number of seconds, and distil the eight end-to-end metrics.

use std::time::Instant;

use crate::measure::{peak_rss_mib, percentile_nearest, Quartiles};
use crate::trace::Tracer;
use crate::workloads::{Knobs, Pass, Workload};

/// How long and how often to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Wall-clock budget of the timed reps, seconds.
    pub seconds: f64,
    /// Untimed reps before the first timed one; the first of them is the
    /// canonical-seed pass.
    pub warmups: usize,
    /// Timed reps at least (the budget may allow more).
    pub min_reps: usize,
    /// Timed reps at most.
    pub max_reps: usize,
    /// Set-up samples at least.
    pub min_setups: usize,
}

impl Options {
    /// The gated configuration: 2 warm-ups (the first at the canonical
    /// seed), then reps for `seconds`.
    pub fn full(seconds: f64) -> Options {
        Options {
            seconds,
            warmups: 2,
            min_reps: 3,
            max_reps: usize::MAX,
            min_setups: 10,
        }
    }

    /// `--smoke`: one warm-up, one rep.
    pub fn smoke() -> Options {
        Options {
            seconds: 0.0,
            warmups: 1,
            min_reps: 1,
            max_reps: 1,
            min_setups: 3,
        }
    }
}

/// Output checks across a whole run.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Fold one pass's checks in, plus the determinism check against
    /// the run's first pass.
    pub fn absorb(&mut self, pass: &Pass, first: &Pass) {
        self.attempted += pass.checks + 1;
        self.failures.extend(pass.failures.iter().cloned());
        if (pass.digest, pass.events) != (first.digest, first.events) {
            self.failures.push(format!(
                "digest/events {:016x}/{} differ from the first pass's {:016x}/{}",
                pass.digest, pass.events, first.digest, first.events
            ));
        }
    }

    /// Failed ÷ attempted.
    pub fn failed_share(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }
}

/// One untraced run of one workload.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Trace digest of every pass.
    pub digest: u64,
    /// Events of every pass.
    pub events: u64,
    /// Seconds per set-up call.
    pub setup_s: Vec<f64>,
    /// Wall nanoseconds per event, one per timed rep.
    pub ns_per_event: Vec<f64>,
    /// On-CPU nanoseconds per event, one per timed rep.
    pub cpu_ns_per_event: Vec<f64>,
    /// Allocation calls per 1,000 events over the timed reps.
    pub allocs_per_kevent: f64,
    /// `VmHWM` after the last rep, MiB.
    pub peak_rss_mb: f64,
    /// Simulated-latency sample count of one pass.
    pub latency_samples: usize,
    /// Median simulated latency, ns.
    pub sim_latency_p50_ns: f64,
    /// 99th-percentile simulated latency, ns.
    pub sim_latency_p99_ns: f64,
    /// Output checks.
    pub checks: Checks,
}

/// Median and 99th percentile of picosecond samples, in nanoseconds.
pub fn latency_ns(samples_ps: &[u64]) -> (f64, f64) {
    if samples_ps.is_empty() {
        return (0.0, 0.0);
    }
    let mut v = samples_ps.to_vec();
    let p50 = percentile_nearest(&mut v, 50);
    let p99 = percentile_nearest(&mut v, 99);
    (p50 as f64 / 1e3, p99 as f64 / 1e3)
}

/// Time one `setup` call.
pub fn timed_setup<W: Workload>(w: &W, knobs: Knobs, tr: &Tracer) -> (W::Input, f64) {
    let t0 = Instant::now();
    let input = w.setup(knobs, tr);
    (input, t0.elapsed().as_secs_f64())
}

/// The seed the simulated-latency metrics are always taken at: they are
/// the repeats-exactly gate on what the simulator computes, so they must
/// not move with the seed a run happens to be given.
pub const CANONICAL_SEED: u64 = 42;

/// Run `w` untraced and measure the end-to-end metrics. `canonical` is
/// the same workload built for [`CANONICAL_SEED`]; it runs once, as the
/// first warm-up rep, and supplies the simulated latencies.
pub fn end_to_end<W: Workload>(w: &mut W, canonical: &W, opts: &Options) -> EndToEnd {
    let tr = Tracer::off();
    w.reference();

    let mut setup_s = Vec::new();
    let mut checks = Checks::default();
    let latency_ps = {
        let (input, s) = timed_setup(canonical, Knobs::PLAIN, &tr);
        setup_s.push(s);
        let pass = canonical.run(input, Knobs::PLAIN, &tr).pass;
        checks.absorb(&pass, &pass);
        pass.latency_ps
    };
    let mut first: Option<Pass> = None;
    for _ in 1..opts.warmups {
        let (input, s) = timed_setup(w, Knobs::PLAIN, &tr);
        setup_s.push(s);
        let pass = w.run(input, Knobs::PLAIN, &tr).pass;
        checks.absorb(&pass, first.as_ref().unwrap_or(&pass));
        first.get_or_insert(pass);
    }

    let mut ns_per_event = Vec::new();
    let mut cpu_ns_per_event = Vec::new();
    let (mut allocs, mut events) = (0u64, 0u64);
    let phase = Instant::now();
    while ns_per_event.len() < opts.max_reps
        && (ns_per_event.len() < opts.min_reps || phase.elapsed().as_secs_f64() < opts.seconds)
    {
        let (input, s) = timed_setup(w, Knobs::PLAIN, &tr);
        setup_s.push(s);
        let timed = w.run(input, Knobs::PLAIN, &tr);
        let n = timed.pass.events.max(1) as f64;
        ns_per_event.push(timed.cost.wall_ns as f64 / n);
        cpu_ns_per_event.push(timed.cost.cpu_ns as f64 / n);
        allocs += timed.cost.allocs;
        events += timed.pass.events;
        checks.absorb(&timed.pass, first.as_ref().unwrap_or(&timed.pass));
        first.get_or_insert(timed.pass);
    }
    while setup_s.len() < opts.min_setups {
        let (input, s) = timed_setup(w, Knobs::PLAIN, &tr);
        setup_s.push(s);
        drop(input);
    }

    let first = first.expect("min_reps >= 1");
    let (p50, p99) = latency_ns(&latency_ps);
    checks.attempted += 1;
    if latency_ps.is_empty() {
        checks
            .failures
            .push("no simulated-latency samples".to_string());
    }
    EndToEnd {
        digest: first.digest,
        events: first.events,
        setup_s,
        ns_per_event,
        cpu_ns_per_event,
        allocs_per_kevent: allocs as f64 * 1e3 / events.max(1) as f64,
        peak_rss_mb: peak_rss_mib().unwrap_or(0.0),
        latency_samples: latency_ps.len(),
        sim_latency_p50_ns: p50,
        sim_latency_p99_ns: p99,
        checks,
    }
}

impl EndToEnd {
    /// `(value, quartiles of the samples behind it)` for the eight
    /// end-to-end metrics, in the order of `catalog::END_TO_END`.
    pub fn metrics(&self) -> [(f64, Option<Quartiles>); 8] {
        let setup = Quartiles::of(&self.setup_s);
        let wall = Quartiles::of(&self.ns_per_event);
        let cpu = Quartiles::of(&self.cpu_ns_per_event);
        [
            (setup.median, Some(setup)),
            // The floor, not the median: see README § End-to-end metrics.
            (wall.min, Some(wall)),
            (cpu.min, Some(cpu)),
            (self.allocs_per_kevent, None),
            (self.peak_rss_mb, None),
            (self.sim_latency_p50_ns, None),
            (self.sim_latency_p99_ns, None),
            (self.checks.failed_share(), None),
        ]
    }
}
