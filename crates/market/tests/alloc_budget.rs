//! Allocation budget of the exchange path: once the books, the engine's
//! maps and the publisher's buffers have grown to their working size,
//! one background-flow step published on its own allocates almost never.
//!
//! A counting global allocator (per thread, so the harness's own threads
//! do not leak into the count) brackets the measured steps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tn_market::{
    FeedPublisher, FlowMix, MatchingEngine, OrderFlowGenerator, PartitionScheme, SymbolDirectory,
};

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

const WARMUP_STEPS: u64 = 20_000;
const MEASURED_STEPS: u64 = 20_000;
/// Allocation calls allowed per published step, on average.
const BUDGET_PER_STEP: f64 = 0.25;

#[test]
fn published_flow_steps_stay_within_the_allocation_budget() {
    let dir = SymbolDirectory::synthetic(40);
    let mut engine = MatchingEngine::new(dir.instruments().iter().map(|i| i.symbol));
    let mut flow = OrderFlowGenerator::new(&dir, FlowMix::default());
    let mut publisher = FeedPublisher::new(PartitionScheme::ByHash { units: 4 }, 1_400);
    let mut rng = SmallRng::seed_from_u64(7);
    let mut packets = 0usize;
    let mut step = |i: u64| {
        // 50 µs apart, so the publisher crosses a second every 20,000 steps.
        let time_ns = 34_200_000_000_000 + i * 50_000;
        let msgs = flow.step(
            &dir,
            &mut engine,
            &mut rng,
            (time_ns % 1_000_000_000) as u32,
        );
        packets += publisher.publish(&dir, time_ns, msgs).len();
    };
    for i in 0..WARMUP_STEPS {
        step(i);
    }
    let before = alloc_calls();
    for i in WARMUP_STEPS..WARMUP_STEPS + MEASURED_STEPS {
        step(i);
    }
    let per_step = (alloc_calls() - before) as f64 / MEASURED_STEPS as f64;
    assert!(packets > 0);
    assert!(
        per_step <= BUDGET_PER_STEP,
        "{per_step:.3} allocations per published step (budget {BUDGET_PER_STEP})"
    );
}
