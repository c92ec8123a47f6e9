//! Allocation pins: the exact number of allocation calls one `run()` of
//! each design makes on `ScenarioConfig::small(7)`, next to the number of
//! events it dispatched: Designs 1, 2, 3 and 3b, then Design 2 with its
//! fairness machinery on (overlay + sequencer splice).
//!
//! Allocation counts repeat exactly per seed, so they are a cost that can
//! be pinned like a digest. A counting global allocator (per thread, as in
//! the benchmark's `measure.rs`, so the harness's own threads do not leak
//! into the count) brackets each `run()`. Each design runs twice in this
//! one process and both runs must allocate the same: a cache, a static or
//! a lazily built table that survives a run would make the first run
//! allocate more than the second.
//!
//! A change that moves a count updates the literal in the same diff and
//! records the before → after in CHANGES.md; a failing run prints the
//! whole table as it now reads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use trading_networks::core::design::{
    CloudDesign, FpgaHybrid, LayerOneSwitches, TradingNetworkDesign, TraditionalSwitches,
};
use trading_networks::core::ScenarioConfig;
use trading_networks::topo::{CloudConfig, CloudFairnessSpec};

struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the only addition is a thread-local integer increment, which
// neither allocates nor unwinds.
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

fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

/// `(allocation calls, events dispatched)` of one `run()`.
type Pin = (u64, u64);

/// Design 2 with the demo fairness spec.
fn fair_cloud() -> CloudDesign {
    CloudDesign {
        cloud: CloudConfig {
            fairness: CloudFairnessSpec::demo(),
            ..CloudConfig::default()
        },
    }
}

/// The five fabrics with their pins on `ScenarioConfig::small(7)`.
fn designs() -> Vec<(&'static str, Box<dyn TradingNetworkDesign>, Pin)> {
    vec![
        (
            "design1",
            Box::new(TraditionalSwitches::default()),
            (1272, 58981),
        ),
        ("design2", Box::new(CloudDesign::default()), (1083, 27481)),
        (
            "design3",
            Box::new(LayerOneSwitches::default()),
            (1250, 73551),
        ),
        ("design3b", Box::new(FpgaHybrid::default()), (1194, 35093)),
        ("design2-fair", Box::new(fair_cloud()), (3826, 49178)),
    ]
}

fn measure(design: &dyn TradingNetworkDesign, sc: &ScenarioConfig) -> Pin {
    let before = alloc_calls();
    let report = design.run(sc);
    let allocs = alloc_calls() - before;
    (allocs, report.events_recorded)
}

#[test]
fn every_design_allocates_its_pinned_count_and_repeats_it() {
    let sc = ScenarioConfig::small(7);
    let mut table = Vec::new();
    for (name, design, pin) in designs() {
        let first = measure(design.as_ref(), &sc);
        let second = measure(design.as_ref(), &sc);
        assert_eq!(
            first, second,
            "{name}: a second run in one process differs, so state survives a run"
        );
        table.push((name, first, pin));
    }
    let now: Vec<String> = table
        .iter()
        .map(|(name, (allocs, events), _)| format!("{name}: ({allocs}, {events})"))
        .collect();
    assert!(
        table.iter().all(|(_, got, pin)| got == pin),
        "allocation pins moved; they now read\n{}",
        now.join("\n")
    );
}
