//! The allocation gate for the fleet body path (ARCHITECTURE.md, "Hot path
//! memory layout"): how many heap allocations one more body costs a fold.
//!
//! A counting [`GlobalAlloc`] wraps the system allocator, as netsim's
//! `tests/alloc_counting.rs` does.  Each case folds a fleet of 500 bodies
//! and one of 1000 bodies at width 1; the fixed costs (the population's
//! draw table, aggregator, the fold thread's netsim workspace and node list
//! growing to their high-water marks, the fold's class table filling up)
//! are the same in both, so the difference divided by the 500 extra bodies
//! is the per-body cost.
//!
//! The first two cases gate the two paths a churn-free body can take.  In a
//! `mixed_default` fleet most bodies repeat a deterministic class the fold
//! has already run, so the fold draws the body, finds its class and counts
//! it: such a body allocates nothing (a repeat that enters the worst-body
//! list copies the stored summary, which is rare).  In a fleet where every
//! body carries an event-driven (bursty) leaf, no body has a class and
//! every body runs the engine, from nodes its population built once: a body
//! the worst-body list does not keep merges its node sketches straight
//! into the fold and allocates nothing, and a body the list keeps allocates
//! its summary's latency sketch, which is rare too.  The third case gates a
//! churned `mixed_default` body, under a static and a re-planning
//! placement policy: every churned body runs the engine after its
//! placement, and both allocate.
//!
//! A last case folds one config three times.  A population builds its draw
//! table on first use and keeps it, so only the first fold builds it: the
//! second and third allocate the same count, and fewer than the first.
//!
//! Everything lives in one `#[test]` because the counter is process-global:
//! a second concurrently-running test would perturb the counts.

use hidwa_core::flags::Tag;
use hidwa_core::fleet::{ChurnSpec, FleetConfig, PolicyKind};
use hidwa_core::population::{ChurnModel, PopulationModel};
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

/// A `bodies`-body 2 s fleet of `population`.
fn fleet_of(population: &PopulationModel, bodies: usize) -> FleetConfig {
    FleetConfig::new(bodies)
        .with_population(population.clone())
        .with_horizon(TimeSpan::from_seconds(2.0))
}

/// Allocations one serial fold of `fleet` performs.
fn allocations_of(fleet: &FleetConfig) -> u64 {
    let runner = SweepRunner::serial();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = fleet.run(&runner);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(report.bodies(), fleet.bodies());
    after - before
}

/// A `bodies`-body 2 s fleet of `population`, churned at rate 0.3 with
/// links fading by up to 0.8 and placed under `policy`.
fn churned_fleet_of(
    population: &PopulationModel,
    policy: PolicyKind,
    bodies: usize,
) -> FleetConfig {
    let churn = ChurnModel::with_rate(0.3).with_link_fade(0.8);
    fleet_of(population, bodies).with_churn(ChurnSpec::new(churn, policy))
}

/// Checks that the 500 bodies a 1000-body fold of `fleet(1000)` adds over
/// a 500-body one cost at most `ceiling` allocations each.
fn assert_per_body(name: &str, fleet: impl Fn(usize) -> FleetConfig, ceiling: u64) {
    let short = allocations_of(&fleet(500));
    let long = allocations_of(&fleet(1000));
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

/// Ceiling on allocations per extra body that runs the engine, nearly all
/// of which go into the fold without a summary and allocate nothing: the
/// rare body the worst-body list keeps, and the fold sketch's occasional
/// regrowth.
const MAX_ENGINE_ALLOCATIONS_PER_BODY: u64 = 1;

/// Ceiling on allocations per extra churned `mixed_default` body, the
/// measured count rounded up: 14.05 (static at admission) and 14.20
/// (hysteresis) in a debug build, 13.05 and 13.20 in an optimised one,
/// which elides one allocation per body.  Two sources are known: the churn
/// draw's `link_derate` `Vec` (`ChurnModel::sample`), and the base
/// `PartitionContext` that placement builds for every body.  The rest is
/// not yet attributed; lower the ceiling as sources go.
const MAX_CHURNED_ALLOCATIONS_PER_BODY: u64 = 15;

#[test]
fn each_fleet_body_allocates_a_bounded_handful() {
    let mixed = PopulationModel::mixed_default();
    let event_driven = PopulationModel::uniform(
        RadioTechnology::WiR,
        event_driven_leaves(),
        MacPolicy::Polling,
    );
    // Warm up lazily-initialized process state, the model zoo placement
    // reads included.
    let _ = allocations_of(&fleet_of(&mixed, 64));
    let _ = allocations_of(&churned_fleet_of(&mixed, PolicyKind::Hysteresis, 64));

    let one = fleet_of(&mixed, 1);
    let folds = [
        allocations_of(&one),
        allocations_of(&one),
        allocations_of(&one),
    ];
    println!("one 1-body config folded three times: {folds:?} allocations");
    assert!(
        folds[1] == folds[2] && folds[1] < folds[0],
        "a re-fold built the population's tables again: {folds:?} allocations"
    );

    assert_per_body(
        "mixed_default",
        |bodies| fleet_of(&mixed, bodies),
        MAX_MIXED_ALLOCATIONS_PER_BODY,
    );
    assert_per_body(
        "every body event-driven",
        |bodies| fleet_of(&event_driven, bodies),
        MAX_ENGINE_ALLOCATIONS_PER_BODY,
    );
    for policy in [PolicyKind::StaticAtAdmission, PolicyKind::Hysteresis] {
        assert_per_body(
            &format!("mixed_default churned, {}", policy.tag()),
            |bodies| churned_fleet_of(&mixed, policy, bodies),
            MAX_CHURNED_ALLOCATIONS_PER_BODY,
        );
    }
}
