//! Fleet-search demo: the `hidwa_core::search` harness answering the
//! production question — which (MAC × objective × radio × traffic ×
//! policy) config do we ship to the fleet?
//!
//! The walkthrough:
//!
//! 1. build an 8-point objective grid over a churned 24-body mixed fleet
//!    and run it exhaustively — every evaluation an exact fleet fold
//!    through `fleet::driver` — printing the ranked Pareto frontier
//!    (fleet energy vs worst-body p95);
//! 2. "kill" a fresh search after 3 evaluations (`run_with_budget`, the
//!    deterministic SIGKILL stand-in), then resume it from the sealed
//!    `search.ckpt` index and assert the frontier is **identical** while
//!    only the remaining 5 points were folded;
//! 3. run coordinate descent over the finished spool root and assert it
//!    folds **nothing** — every revisit hits the completed-evaluation
//!    index.
//!
//! The example exits non-zero on any divergence (CI runs it).  Run with:
//! ```text
//! cargo run --release --example fleet_search
//! ```
//! The search spool lands in `./search-spool/example` (or
//! `$HIDWA_SEARCH_SPOOL/example`) — inspect `search.ckpt` and the
//! per-evaluation fleet blobs under `<fingerprint>/` afterwards.  Each run
//! removes that `example` directory first and starts from scratch: a
//! finished index left by an earlier run would turn step 2's "fresh"
//! budgeted search into a resume that folds nothing.

use hidwa_core::fleet::driver::{DriverFleetSpec, InProcessExecutor, PopulationSpec};
use hidwa_core::fleet::{ChurnSpec, PolicyKind};
use hidwa_core::partition::Objective;
use hidwa_core::population::ChurnModel;
use hidwa_core::search::{ObjectiveSpace, SearchDriver, SearchSpec, SearchStrategy};
use hidwa_core::sweep::SweepRunner;
use hidwa_netsim::mac::MacPolicy;
use hidwa_phy::RadioTechnology;
use hidwa_units::TimeSpan;
use std::process::ExitCode;

fn fail(message: &str) -> ExitCode {
    eprintln!("FAILED: {message}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let spool = std::path::PathBuf::from(
        std::env::var("HIDWA_SEARCH_SPOOL").unwrap_or_else(|_| "search-spool".to_string()),
    )
    .join("example");
    // Fresh drill every run: remove only this example's own root.
    match std::fs::remove_dir_all(&spool) {
        Ok(()) => {}
        Err(error) if error.kind() == std::io::ErrorKind::NotFound => {}
        Err(error) => return fail(&format!("could not clear {}: {error}", spool.display())),
    }

    // An 8-point grid: MAC × radio × objective, over a churned mixed fleet
    // so the objective axis actually reaches the re-optimiser.
    let base = DriverFleetSpec::new(24)
        .with_base_seed(0xF1EE7)
        .with_horizon(TimeSpan::from_seconds(0.2))
        .with_population(PopulationSpec::Mixed)
        .with_churn(
            ChurnSpec::new(
                ChurnModel::with_rate(0.3).with_link_fade(0.8),
                PolicyKind::StaticAtAdmission,
            )
            .with_hysteresis_threshold(0.1),
        );
    let space = ObjectiveSpace::new()
        .with_mac_axis(&[MacPolicy::Polling, MacPolicy::Tdma])
        .with_radio_axis(&[RadioTechnology::WiR, RadioTechnology::Ble])
        .with_objective_axis(&[Objective::LeafEnergy, Objective::EnergyDelayProduct]);
    let spec = SearchSpec::new(base, space.clone());
    let driver = SearchDriver::new(spec, SearchStrategy::ExhaustiveGrid);
    let runner = SweepRunner::new();
    let executor = InProcessExecutor::serial();

    // 1. Exhaustive search, ranked frontier.
    println!(
        "== 1. exhaustive search over {} grid points ==",
        space.len()
    );
    let root = spool.join("full");
    let full = match driver.run(&runner, &executor, &root) {
        Ok(run) => run,
        Err(error) => return fail(&format!("search failed: {error}")),
    };
    println!(
        "{} evaluations folded; Pareto frontier (energy vs worst-body p95):",
        full.folds()
    );
    for (rank, outcome) in full.frontier().iter().enumerate() {
        println!(
            "  #{rank}  point {:>2}  {:<38} {:>9.4} J {:>8.3} ms",
            outcome.point(),
            space.point(outcome.point()).label(),
            outcome.energy_j(),
            outcome.worst_p95_s() * 1e3,
        );
    }
    if full.frontier().is_empty() {
        return fail("empty frontier");
    }

    // 2. Kill after 3 evaluations, resume, compare.
    println!("\n== 2. kill after 3 evaluations, resume ==");
    let killed_root = spool.join("killed");
    let partial = match driver.run_with_budget(&runner, &executor, &killed_root, Some(3)) {
        Ok(run) => run,
        Err(error) => return fail(&format!("budgeted search failed: {error}")),
    };
    println!(
        "killed run: {} folds, complete = {}",
        partial.folds(),
        partial.complete()
    );
    if partial.complete() || partial.folds() != 3 {
        return fail("budgeted run did not stop after 3 evaluations");
    }
    let resumed = match driver.run(&runner, &executor, &killed_root) {
        Ok(run) => run,
        Err(error) => return fail(&format!("resume failed: {error}")),
    };
    println!(
        "resumed run: {} replayed from the index, {} folded, frontier identical = {}",
        resumed.resumed(),
        resumed.folds(),
        resumed.frontier() == full.frontier()
    );
    if resumed.frontier() != full.frontier() || resumed.evaluations() != full.evaluations() {
        return fail("resumed search diverged from the uninterrupted one");
    }
    if resumed.folds() != full.folds() - 3 || resumed.resumed() != 3 {
        return fail("resume re-folded completed evaluations");
    }

    // 3. Coordinate descent over the finished root: index hits only.
    println!("\n== 3. coordinate descent over the finished spool root ==");
    let descent = SearchDriver::new(
        driver.spec().clone(),
        SearchStrategy::CoordinateDescent { max_rounds: 3 },
    );
    let replay = match descent.run(&runner, &executor, &root) {
        Ok(run) => run,
        Err(error) => return fail(&format!("descent failed: {error}")),
    };
    println!(
        "descent: {} requests, {} cache hits, {} folds",
        replay.requests(),
        replay.cache_hits(),
        replay.folds()
    );
    if replay.folds() != 0 || replay.cache_hits() != replay.requests() {
        return fail("descent re-folded a completed evaluation");
    }
    let best = replay.frontier().first().expect("descent found a frontier");
    println!(
        "\nship it: point {} ({}) — {:.4} J, worst-body p95 {:.3} ms",
        best.point(),
        space.point(best.point()).label(),
        best.energy_j(),
        best.worst_p95_s() * 1e3
    );
    ExitCode::SUCCESS
}
