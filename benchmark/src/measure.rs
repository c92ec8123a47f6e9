//! Host-side measuring instruments: a counting allocator, the calling
//! thread's on-CPU clock, the process's peak resident set, and the
//! quartile helper every reported timing goes through.
//!
//! Everything here observes the host, never the simulation: none of it is
//! reachable from a node, a link or a scheduler, so it cannot move a
//! digest.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

/// `System` plus a per-thread count of allocation calls.
///
/// Per-thread rather than process-wide because every workload runs on
/// the thread that measures it: the count then repeats exactly, whatever
/// other threads (the test harness, a rig's worker pool) are doing.
pub struct CountingAlloc;

thread_local! {
    // `const` + no destructor: reading it from inside the allocator
    // never allocates and never races thread teardown.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn bump() {
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the only
// addition is a thread-local integer increment, which neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) made by the
/// calling thread since it started.
pub fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

/// Nanoseconds the calling thread has spent on a CPU, from the first
/// field of `/proc/thread-self/schedstat`. The kernel advances it at
/// scheduler ticks and context switches, so two reads bracket an
/// interval to within one tick (4 ms at `CONFIG_HZ=250`); time the
/// thread sat descheduled inside the guest is excluded.
pub fn thread_cpu_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process in MiB (`VmHWM` of
/// `/proc/self/status`).
pub fn peak_rss_mib() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// What one bracketed call cost the host.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    /// Wall-clock nanoseconds.
    pub wall_ns: u64,
    /// On-CPU nanoseconds of the calling thread (0 without procfs).
    pub cpu_ns: u64,
    /// Allocation calls by the calling thread.
    pub allocs: u64,
}

/// Run `f` between two readings of all three host clocks.
pub fn bracket<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    let cpu0 = thread_cpu_ns();
    let allocs0 = alloc_calls();
    let t0 = Instant::now();
    let out = f();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let allocs = alloc_calls() - allocs0;
    let cpu_ns = match (cpu0, thread_cpu_ns()) {
        (Some(a), Some(b)) => b.saturating_sub(a),
        _ => 0,
    };
    (
        out,
        Cost {
            wall_ns,
            cpu_ns,
            allocs,
        },
    )
}

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles of `values` by linear interpolation between closest
    /// ranks (`q` at position `q * (n - 1)` of the sorted samples).
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (v.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        Quartiles {
            n: v.len(),
            min: v[0],
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of integer samples, sorted
/// in place. The simulated-latency metrics use this so they repeat
/// exactly: no interpolation, no floating point until the unit change.
pub fn percentile_nearest(samples: &mut [u64], p: u32) -> u64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    samples.sort_unstable();
    let rank = (samples.len() as u64 * u64::from(p)).div_ceil(100).max(1);
    samples[rank as usize - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn allocation_count_of_a_known_loop_is_exact() {
        let before = alloc_calls();
        let mut keep = Vec::with_capacity(100); // 1 call
        for i in 0..100u64 {
            keep.push(Box::new(i)); // 100 calls, no regrowth
        }
        let after = alloc_calls();
        black_box(&keep);
        assert_eq!(after - before, 101);
        // Frees are not allocation calls.
        drop(keep);
        assert_eq!(alloc_calls(), after);
    }

    #[test]
    fn allocation_count_ignores_other_threads() {
        let before = alloc_calls();
        let theirs = std::thread::spawn(|| {
            let t0 = alloc_calls();
            for _ in 0..1000 {
                black_box(vec![0u8; 64]);
            }
            alloc_calls() - t0
        })
        .join()
        .expect("helper thread");
        assert_eq!(theirs, 1000);
        // Spawning costs this thread a handful of calls (handle, packet,
        // closure); the helper's thousand must not be among them.
        assert!(alloc_calls() - before < 100);
    }

    #[test]
    fn cpu_time_does_not_exceed_wall_time() {
        let ((), cost) = bracket(|| {
            let t0 = Instant::now();
            let mut x = 0u64;
            while t0.elapsed().as_millis() < 60 {
                x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
        });
        assert!(cost.wall_ns >= 60_000_000);
        // The kernel credits CPU time at tick granularity, so allow the
        // reading one 10 ms tick (the coarsest common CONFIG_HZ) of slack.
        assert!(
            cost.cpu_ns <= cost.wall_ns + 10_000_000,
            "cpu {} > wall {}",
            cost.cpu_ns,
            cost.wall_ns
        );
        if thread_cpu_ns().is_some() {
            assert!(cost.cpu_ns > 0, "a 60 ms spin must show on-CPU time");
        }
    }

    #[test]
    fn peak_rss_is_a_high_water_mark() {
        let Some(a) = peak_rss_mib() else { return };
        let big = black_box(vec![1u8; 32 << 20]);
        let b = peak_rss_mib().expect("procfs was readable a moment ago");
        assert!(a > 0.0 && b >= a + 16.0, "{a} -> {b}");
        drop(big);
        // Freed memory stays in the mark. (Not `>= b`: the kernel's
        // resident-set counters are batched per CPU, so two reads of a
        // multi-threaded process agree only to within a few pages.)
        let c = peak_rss_mib().expect("procfs");
        assert!(c >= a + 16.0, "{a} -> {b} -> {c}");
    }

    #[test]
    fn quartiles_of_a_known_vector() {
        let q = Quartiles::of(&[7.0, 1.0, 3.0, 5.0, 9.0]);
        assert_eq!(
            q,
            Quartiles {
                n: 5,
                min: 1.0,
                q1: 3.0,
                median: 5.0,
                q3: 7.0
            }
        );
        assert!((q.spread() - 0.8).abs() < 1e-12);
        // Interpolated ranks.
        let q = Quartiles::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.75, 2.5, 3.25));
        assert_eq!(Quartiles::of(&[4.0]).median, 4.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile_nearest(&mut v, 50), 50);
        assert_eq!(percentile_nearest(&mut v, 99), 99);
        assert_eq!(percentile_nearest(&mut v, 100), 100);
        assert_eq!(percentile_nearest(&mut [42], 99), 42);
    }
}
