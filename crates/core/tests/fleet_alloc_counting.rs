//! The allocation gate for the fleet body path (ARCHITECTURE.md, "Hot path
//! memory layout"): how many heap allocations one more body costs a fold.
//!
//! A counting [`GlobalAlloc`] wraps the system allocator, as netsim's
//! `tests/alloc_counting.rs` does.  The test folds a `mixed_default` fleet of
//! 500 bodies and one of 1000 bodies at width 1; the fixed costs (link
//! table, aggregator, the fold thread's netsim workspace growing to its
//! high-water mark) are the same in both, so the difference divided by the
//! 500 extra bodies is the per-body cost.  What a body still allocates is
//! its scenario's leaf list, its node configurations with their names, and
//! the merged latency sketch its summary carries.
//!
//! Everything lives in one `#[test]` because the counter is process-global:
//! a second concurrently-running test would perturb the counts.

use hidwa_core::fleet::FleetConfig;
use hidwa_core::population::PopulationModel;
use hidwa_core::sweep::SweepRunner;
use hidwa_units::TimeSpan;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation call (alloc, zeroed, realloc) and delegates to
/// the system allocator.  Deallocations are not counted.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations one serial fold of a `bodies`-body mixed 2 s fleet performs.
fn allocations_for(bodies: usize) -> u64 {
    let fleet = FleetConfig::new(bodies)
        .with_population(PopulationModel::mixed_default())
        .with_horizon(TimeSpan::from_seconds(2.0));
    let runner = SweepRunner::serial();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = fleet.run(&runner);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(report.bodies(), bodies);
    after - before
}

/// Ceiling on allocations per extra body: the leaf list, the node list,
/// one name per node (the mixed population averages about four) and the
/// body sketch, with room for the sketch's occasional regrowth.
const MAX_ALLOCATIONS_PER_BODY: u64 = 8;

#[test]
fn each_fleet_body_allocates_a_bounded_handful() {
    // Warm up lazily-initialized process state.
    let _ = allocations_for(64);

    let short = allocations_for(500);
    let long = allocations_for(1000);
    let per_body = long.saturating_sub(short) as f64 / 500.0;
    assert!(
        long <= short + MAX_ALLOCATIONS_PER_BODY * 500,
        "500 extra bodies cost {} allocations ({per_body:.1} per body; \
         {short} allocations for 500 bodies, {long} for 1000)",
        long.saturating_sub(short)
    );
}
