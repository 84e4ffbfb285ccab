//! Fleet-scale configuration search (ISSUE 10 tentpole figure): the
//! `hidwa_core::search` harness run as a production question — which
//! (MAC × objective × radio × traffic scaling × churn policy) config do we
//! ship to the fleet?
//!
//! For each population archetype the binary walks the 32-point
//! [`ObjectiveSpace::paper_default`] grid exhaustively — every evaluation
//! an exact fleet fold through `fleet::driver` — and reports the ranked
//! Pareto frontier (fleet energy vs worst-body p95).  Three contracts are
//! re-asserted on a reduced grid and gate the exit code:
//!
//! * `identity_ok` — the frontier, every evaluation outcome and the sealed
//!   search checkpoint are byte-identical between in-process execution and
//!   real worker *processes* (the binary re-invokes itself with
//!   `--worker`, two workers per evaluation).
//! * `resume_ok` — a search killed after three evaluations
//!   (`run_with_budget`, the deterministic SIGKILL stand-in) resumes to
//!   the identical frontier, folding only the remainder.
//! * `descent_cache_ok` — coordinate descent over an already-searched
//!   spool root folds **nothing**: every revisit hits the
//!   completed-evaluation index (fold count == 0, cache hits == requests).
//!
//! With `HIDWA_RESULTS_DIR` set, the section is written to
//! `$HIDWA_RESULTS_DIR/fleet_search.json` (the committed copy lives in
//! `results/`).  Search checkpoints and fleet blobs spool under
//! `$HIDWA_SEARCH_SPOOL` (default `search-spool/`), which CI uploads as an
//! artifact.
//!
//! Sizes: `BODIES` (48 bodies per evaluation), `HORIZON` (0.5 s per-body
//! horizon).
//!
//! An operator mode for the `DEPLOYMENT.md` walkthrough runs one search
//! with explicit flags and real worker processes:
//!
//! ```text
//! fleet_search --search --bodies 64 --shards 2 --spool search-spool/demo \
//!              [--budget <k>] [--strategy <exhaustive|descent>]
//! ```
//!
//! A bad invocation exits 2 with the usage before the spool root is
//! created; `--horizon-s` gets the worker's own finite, non-negative check.

use hidwa_core::flags::{usage_error, Flags, Tag};
use hidwa_core::fleet::driver::{
    check_horizon, DriverFleetSpec, InProcessExecutor, PopulationSpec, ProcessExecutor,
    WorkerCommand,
};
use hidwa_core::fleet::{ChurnSpec, PolicyKind};
use hidwa_core::population::ChurnModel;
use hidwa_core::search::{ObjectiveSpace, SearchDriver, SearchRun, SearchSpec, SearchStrategy};
use hidwa_core::sweep::SweepRunner;
use hidwa_units::TimeSpan;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

struct FrontierRow {
    rank: usize,
    point: u64,
    label: String,
    energy_j: f64,
    worst_p95_ms: f64,
    migration_rate: f64,
    state_fp: String,
}

hidwa_bench::json_struct!(FrontierRow {
    rank,
    point,
    label,
    energy_j,
    worst_p95_ms,
    migration_rate,
    state_fp,
});

struct ArchetypeSearch {
    population: String,
    wall_ms: f64,
    folds: usize,
    requests: usize,
    cache_hits: usize,
    frontier: Vec<FrontierRow>,
}

hidwa_bench::json_struct!(ArchetypeSearch {
    population,
    wall_ms,
    folds,
    requests,
    cache_hits,
    frontier,
});

struct SearchSection {
    bodies: usize,
    horizon_s: f64,
    grid_points: u64,
    identity_ok: bool,
    resume_ok: bool,
    descent_cache_ok: bool,
    archetypes: Vec<ArchetypeSearch>,
}

hidwa_bench::json_struct!(SearchSection {
    bodies,
    horizon_s,
    grid_points,
    identity_ok,
    resume_ok,
    descent_cache_ok,
    archetypes,
});

/// The churn template every grid point perturbs: moderate churn with
/// severe epoch fades, so the policy and objective axes have real work.
fn churn_template() -> ChurnSpec {
    ChurnSpec::new(
        ChurnModel::with_rate(0.3).with_link_fade(0.8),
        PolicyKind::StaticAtAdmission,
    )
    .with_hysteresis_threshold(0.1)
}

const BODIES: usize = 48;
const HORIZON: TimeSpan = TimeSpan::from_seconds(0.5);

fn base_spec(bodies: usize, horizon: TimeSpan, population: PopulationSpec) -> DriverFleetSpec {
    DriverFleetSpec::new(bodies)
        .with_base_seed(0x5EA7C4)
        .with_horizon(horizon)
        .with_population(population)
        .with_churn(churn_template())
}

fn frontier_rows(run: &SearchRun, space: &ObjectiveSpace) -> Vec<FrontierRow> {
    run.frontier()
        .iter()
        .enumerate()
        .map(|(rank, outcome)| FrontierRow {
            rank,
            point: outcome.point(),
            label: space.point(outcome.point()).label(),
            energy_j: outcome.energy_j(),
            worst_p95_ms: outcome.worst_p95_s() * 1e3,
            migration_rate: outcome.migration_rate(),
            state_fp: format!("{:016x}", outcome.state_fp()),
        })
        .collect()
}

fn print_frontier(rows: &[FrontierRow]) {
    println!(
        "  {:<4} {:>5} {:<42} {:>11} {:>9} {:>9}",
        "rank", "point", "config", "energy J", "p95 ms", "migr/b-h"
    );
    for row in rows {
        println!(
            "  {:<4} {:>5} {:<42} {:>11.4} {:>9.3} {:>9.2}",
            row.rank, row.point, row.label, row.energy_j, row.worst_p95_ms, row.migration_rate
        );
    }
}

/// The reduced 4-point grid the contract checks run on (2 MACs × 2
/// radios), cheap enough to evaluate three times over.
fn contract_space() -> ObjectiveSpace {
    use hidwa_netsim::mac::MacPolicy;
    use hidwa_phy::RadioTechnology;
    ObjectiveSpace::new()
        .with_mac_axis(&[MacPolicy::Polling, MacPolicy::Tdma])
        .with_radio_axis(&[RadioTechnology::WiR, RadioTechnology::Ble])
}

fn checkpoint_bytes(root: &Path) -> Vec<u8> {
    std::fs::read(SearchDriver::checkpoint_path(root)).expect("search checkpoint exists")
}

/// In-process vs two real worker processes per evaluation: identical
/// frontier, outcomes and checkpoint bytes.
fn check_identity(spec: &SearchSpec, spool: &Path) -> bool {
    let driver = SearchDriver::new(spec.clone().with_shards(2), SearchStrategy::ExhaustiveGrid);
    let runner = SweepRunner::serial();
    let in_process_root = spool.join("contract-inproc");
    let in_process = driver
        .run(&runner, &InProcessExecutor::serial(), &in_process_root)
        .expect("in-process contract search");
    let worker = WorkerCommand::current_exe_worker().expect("current exe");
    let process_root = spool.join("contract-proc");
    let process = driver
        .run(&runner, &ProcessExecutor::new(worker), &process_root)
        .expect("multi-process contract search");
    in_process.evaluations() == process.evaluations()
        && in_process.frontier() == process.frontier()
        && checkpoint_bytes(&in_process_root) == checkpoint_bytes(&process_root)
}

/// Budget-3 kill, then resume: identical frontier, only the remainder
/// folded.
fn check_resume(spec: &SearchSpec, spool: &Path, reference_root: &Path) -> bool {
    let driver = SearchDriver::new(spec.clone().with_shards(2), SearchStrategy::ExhaustiveGrid);
    let runner = SweepRunner::serial();
    let executor = InProcessExecutor::serial();
    let root = spool.join("contract-resume");
    // The kill-and-resume drill needs a fresh root: a spool left by a
    // previous bench run would make the budgeted "killed" search resume
    // to completion immediately instead of stopping after 3 folds.
    let _ = std::fs::remove_dir_all(&root);
    let partial = driver
        .run_with_budget(&runner, &executor, &root, Some(3))
        .expect("budgeted contract search");
    let resumed = driver
        .run(&runner, &executor, &root)
        .expect("resumed search");
    let grid = spec.space().len() as usize;
    !partial.complete()
        && partial.folds() == 3
        && resumed.complete()
        && resumed.resumed() == 3
        && resumed.folds() == grid - 3
        && checkpoint_bytes(&root) == checkpoint_bytes(reference_root)
}

/// Coordinate descent over the already-searched root: pure index replay.
fn check_descent_cache(spec: &SearchSpec, searched_root: &Path) -> bool {
    let driver = SearchDriver::new(
        spec.clone().with_shards(2),
        SearchStrategy::CoordinateDescent { max_rounds: 3 },
    );
    let run = driver
        .run(
            &SweepRunner::serial(),
            &InProcessExecutor::serial(),
            searched_root,
        )
        .expect("descent over searched root");
    run.complete() && run.folds() == 0 && run.cache_hits() == run.requests()
}

const SEARCH_USAGE: &str = "\
usage: fleet_search --search [--bodies <n>] [--shards <k>] [--spool <dir>]
                    [--budget <k>] [--strategy <exhaustive|descent>]
                    [--population <uniform|mixed>] [--horizon-s <f64>]";

const SEARCH_FLAGS: &str =
    "--bodies= --shards= --spool= --budget= --strategy= --population= --horizon-s=";

/// The strategies `--strategy` names.
#[derive(Clone, Copy)]
enum Strategy {
    Exhaustive,
    Descent,
}

impl Tag for Strategy {
    const ALL: &'static [Self] = &[Self::Exhaustive, Self::Descent];

    fn tag(self) -> &'static str {
        match self {
            Self::Exhaustive => "exhaustive",
            Self::Descent => "descent",
        }
    }
}

/// Operator mode for the `DEPLOYMENT.md` walkthrough: one search with
/// explicit flags, evaluations folded by real worker processes.  `Err` is a
/// usage error, raised before the spool root is created.
fn search_cli(args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let flags = Flags::parse(SEARCH_FLAGS, args)?;
    let bodies: usize = flags.value("--bodies")?.unwrap_or(64);
    let shards: usize = flags.value("--shards")?.unwrap_or(2);
    let spool = flags
        .value("--spool")?
        .unwrap_or_else(|| PathBuf::from("search-spool/walkthrough"));
    let budget = flags.value("--budget")?;
    let strategy = match flags.tag("--strategy")?.unwrap_or(Strategy::Exhaustive) {
        Strategy::Exhaustive => SearchStrategy::ExhaustiveGrid,
        Strategy::Descent => SearchStrategy::CoordinateDescent { max_rounds: 4 },
    };
    let population = flags.tag("--population")?.unwrap_or(PopulationSpec::Mixed);
    let horizon_s = check_horizon("--horizon-s", flags.value("--horizon-s")?.unwrap_or(0.25))?;

    let spec = SearchSpec::new(
        base_spec(bodies, TimeSpan::from_seconds(horizon_s), population),
        ObjectiveSpace::paper_default(),
    )
    .with_shards(shards);
    let space = spec.space().clone();
    let driver = SearchDriver::new(spec, strategy);
    let worker = match WorkerCommand::current_exe_worker() {
        Ok(worker) => worker,
        Err(error) => {
            eprintln!("cannot locate own executable: {error}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let executor = ProcessExecutor::new(worker);
    println!(
        "searching {} grid points, {bodies} bodies x {horizon_s} s, {shards} worker(s) per evaluation",
        space.len()
    );
    println!("spool root: {} (checkpoint: search.ckpt)", spool.display());
    let start = Instant::now();
    let run = match driver.run_with_budget(&SweepRunner::new(), &executor, &spool, budget) {
        Ok(run) => run,
        Err(error) => {
            eprintln!("search failed: {error}");
            return Ok(ExitCode::FAILURE);
        }
    };
    println!(
        "{} folds, {} cache hits, {} resumed in {:.1} ms — {}",
        run.folds(),
        run.cache_hits(),
        run.resumed(),
        start.elapsed().as_secs_f64() * 1e3,
        if run.complete() {
            "complete"
        } else {
            "budget exhausted (resume by re-running without --budget)"
        }
    );
    if run.complete() {
        println!("\nPareto frontier (fleet energy vs worst-body p95):");
        print_frontier(&frontier_rows(&run, &space));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("--worker") {
        return hidwa_core::fleet::driver::worker_main(args.skip(1));
    }
    if args.peek().map(String::as_str) == Some("--search") {
        return search_cli(args.skip(1))
            .unwrap_or_else(|message| usage_error(SEARCH_USAGE, &message));
    }

    let spool = PathBuf::from(
        std::env::var("HIDWA_SEARCH_SPOOL").unwrap_or_else(|_| "search-spool".to_string()),
    );
    let runner = SweepRunner::new();
    let space = ObjectiveSpace::paper_default();

    hidwa_bench::header(
        "fleet_search",
        "fleet-scale configuration search: ranked energy vs worst-body-p95 frontier per archetype",
    );
    println!(
        "{} grid points (mac x objective x radio x traffic x policy), {BODIES} bodies, {:.2} s horizon (threads: {})\n",
        space.len(),
        HORIZON.as_seconds(),
        runner.threads()
    );

    let mut archetypes = Vec::new();
    for population in [PopulationSpec::Uniform, PopulationSpec::Mixed] {
        let tag = population.tag().to_string();
        let spec = SearchSpec::new(base_spec(BODIES, HORIZON, population), space.clone());
        let driver = SearchDriver::new(spec, SearchStrategy::ExhaustiveGrid);
        let root = spool.join(&tag);
        let start = Instant::now();
        let run = driver
            .run(&runner, &InProcessExecutor::serial(), &root)
            .expect("exhaustive search");
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let frontier = frontier_rows(&run, &space);
        println!(
            "[{tag}] {} evaluations, {} folds, frontier of {} in {:.1} ms",
            run.evaluations().len(),
            run.folds(),
            frontier.len(),
            wall_ms
        );
        print_frontier(&frontier);
        println!();
        archetypes.push(ArchetypeSearch {
            population: tag,
            wall_ms,
            folds: run.folds(),
            requests: run.requests(),
            cache_hits: run.cache_hits(),
            frontier,
        });
    }

    // Contract checks on the reduced grid (mixed population).
    let contract = SearchSpec::new(
        base_spec(BODIES.min(24), HORIZON, PopulationSpec::Mixed),
        contract_space(),
    );
    let reference_root = spool.join("contract-inproc");
    let identity_ok = check_identity(&contract, &spool);
    let resume_ok = check_resume(&contract, &spool, &reference_root);
    let descent_cache_ok = check_descent_cache(&contract, &reference_root);
    println!(
        "identity(in-process vs worker processes): {}  kill+resume: {}  descent cache: {}",
        if identity_ok { "ok" } else { "DIVERGED" },
        if resume_ok { "ok" } else { "DIVERGED" },
        if descent_cache_ok { "ok" } else { "RE-FOLDED" },
    );

    let frontiers_nonempty = archetypes.iter().all(|a| !a.frontier.is_empty());
    let frontiers_ranked = archetypes.iter().all(|a| {
        a.frontier
            .windows(2)
            .all(|pair| pair[0].energy_j <= pair[1].energy_j)
    });

    let section = SearchSection {
        bodies: BODIES,
        horizon_s: HORIZON.as_seconds(),
        grid_points: space.len(),
        identity_ok,
        resume_ok,
        descent_cache_ok,
        archetypes,
    };
    hidwa_bench::write_json("fleet_search", &section);

    assert!(
        frontiers_nonempty,
        "an archetype produced an empty frontier"
    );
    assert!(
        frontiers_ranked,
        "a frontier is not ranked by ascending energy"
    );
    assert!(
        identity_ok,
        "search diverged between in-process and worker-process execution"
    );
    assert!(
        resume_ok,
        "a killed search did not resume to the identical frontier"
    );
    assert!(
        descent_cache_ok,
        "coordinate descent re-folded a completed evaluation"
    );
    ExitCode::SUCCESS
}
