//! The allocation gate for the fleet body path (ARCHITECTURE.md, "Hot path
//! memory layout"): how many heap allocations one more body costs a fold.
//!
//! A counting [`GlobalAlloc`] wraps the system allocator, as netsim's
//! `tests/alloc_counting.rs` does.  Each case folds a fleet of 500 bodies
//! and one of 1000 bodies at width 1; the fixed costs (link table,
//! aggregator, the fold thread's netsim workspace growing to its high-water
//! mark, the fold's class table filling up) are the same in both, so the
//! difference divided by the 500 extra bodies is the per-body cost.
//!
//! The two cases gate the two paths a body can take.  In a
//! `mixed_default` fleet most bodies repeat a deterministic class the fold
//! has already run, so the fold draws the body's class and counts it: such
//! a body allocates nothing (a repeat that enters the worst-body list
//! copies the stored summary, which is rare).  In a fleet where every
//! body carries an event-driven (bursty) leaf, no body has a class and
//! every body runs the engine: it allocates its leaf list, its node
//! configurations with their names, and the merged latency sketch its
//! summary carries.
//!
//! Everything lives in one `#[test]` because the counter is process-global:
//! a second concurrently-running test would perturb the counts.

use hidwa_core::fleet::FleetConfig;
use hidwa_core::population::PopulationModel;
use hidwa_core::scenario::{self, LeafSpec};
use hidwa_core::sweep::SweepRunner;
use hidwa_netsim::mac::MacPolicy;
use hidwa_netsim::traffic::TrafficPattern;
use hidwa_phy::RadioTechnology;
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

/// Allocations one serial fold of a `bodies`-body 2 s fleet of
/// `population` performs.
fn allocations_for(population: &PopulationModel, bodies: usize) -> u64 {
    let fleet = FleetConfig::new(bodies)
        .with_population(population.clone())
        .with_horizon(TimeSpan::from_seconds(2.0));
    let runner = SweepRunner::serial();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = fleet.run(&runner);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(report.bodies(), bodies);
    after - before
}

/// Checks that the 500 bodies a 1000-body fold of `population` adds over a
/// 500-body one cost at most `ceiling` allocations each.
fn assert_per_body(name: &str, population: &PopulationModel, ceiling: u64) {
    let short = allocations_for(population, 500);
    let long = allocations_for(population, 1000);
    let per_body = long.saturating_sub(short) as f64 / 500.0;
    println!("{name}: {per_body:.2} allocations per body");
    assert!(
        long <= short + ceiling * 500,
        "{name}: 500 extra bodies cost {} allocations ({per_body:.2} per body; \
         {short} allocations for 500 bodies, {long} for 1000)",
        long.saturating_sub(short)
    );
}

/// A two-leaf Wi-R body: the ECG patch and camera glasses capturing on
/// scene changes, so every body carries a bursty leaf.
fn event_driven_leaves() -> Vec<LeafSpec> {
    let mut leaves = scenario::standard_leaf_set();
    let mut camera = leaves.remove(4);
    camera.traffic = TrafficPattern::bursty(TimeSpan::from_millis(50.0), 4096);
    vec![leaves.remove(0), camera]
}

/// Ceiling on allocations per extra `mixed_default` body, nearly all of
/// which are counted repeats that allocate nothing: the share of bursty
/// bodies that run the engine, plus the rare repeat copied into the
/// worst-body list.
const MAX_MIXED_ALLOCATIONS_PER_BODY: u64 = 1;

/// Ceiling on allocations per extra body that runs the engine: the leaf
/// list, the node list, one name per node and the body sketch, with room
/// for the sketch's occasional regrowth.
const MAX_ENGINE_ALLOCATIONS_PER_BODY: u64 = 8;

#[test]
fn each_fleet_body_allocates_a_bounded_handful() {
    let mixed = PopulationModel::mixed_default();
    let event_driven = PopulationModel::uniform(
        RadioTechnology::WiR,
        event_driven_leaves(),
        MacPolicy::Polling,
    );
    // Warm up lazily-initialized process state.
    let _ = allocations_for(&mixed, 64);

    assert_per_body("mixed_default", &mixed, MAX_MIXED_ALLOCATIONS_PER_BODY);
    assert_per_body(
        "every body event-driven",
        &event_driven,
        MAX_ENGINE_ALLOCATIONS_PER_BODY,
    );
}
