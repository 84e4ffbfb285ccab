//! Coordinator CLI for distributed fleet runs: spawn shard worker
//! processes, collect their checkpoint blobs from a spool directory, merge
//! through the exact fleet algebra, and report.
//!
//! This is the operator's front door to `hidwa_core::fleet::driver` (the
//! walkthroughs in `DEPLOYMENT.md` are written against this binary and run
//! in CI).  By default it re-invokes **itself** as the worker (`fleet_driver
//! --worker …`), so a single binary is a complete distributed run; point
//! `--worker-bin` at `shard_worker` to spawn the standalone worker instead,
//! exactly as you would on a multi-machine spool.
//!
//! ```text
//! fleet_driver --bodies 1000 --shards 4 --population mixed --spool-root spool
//! ```
//!
//! Fault drills: `--inject-kill <shard>` makes that shard's first worker die
//! mid-fold (the driver detects and re-runs it); deleting or truncating a
//! blob under `spool/<fingerprint>/` before a re-run exercises the same
//! recovery, as the `DEPLOYMENT.md` walkthrough shows.
//! `--verify-single-stream` re-folds the whole fleet in-process and asserts
//! the distributed result is **byte-identical** (exit 1 if not — CI runs
//! this on every push).  `--plan` prints the fingerprint, spool path and the
//! exact per-shard `shard_worker` command lines **without running anything**
//! — the starting point for multi-machine runs.
//!
//! A bad invocation exits 2 before a spool directory or worker exists:
//! `--shards` and `--boundaries` are mutually exclusive, `--churn-fade` and
//! `--churn-policy` need `--churn-rate`, and the spec flags get the
//! worker's own checks (`DriverFleetSpec::from_flags`).

use hidwa_core::flags::{usage_error, Flags};
use hidwa_core::fleet::driver::{DriverFleetSpec, FleetDriver, ProcessExecutor, WorkerCommand};
use hidwa_core::fleet::{ChurnSpec, PolicyKind};
use hidwa_core::population::ChurnModel;
use hidwa_core::sweep::SweepRunner;
use std::process::ExitCode;

const USAGE: &str = "\
usage: fleet_driver --bodies <n> [--shards <k> | --boundaries <a,b,..>]
                    [--base-seed <u64>] [--horizon-s <f64>] [--top-k <n>]
                    [--population <uniform|mixed>] [--spool-root <dir>]
                    [--churn-rate <f64>] [--churn-fade <f64>]
                    [--churn-policy <static-at-admission|reoptimize-on-change|hysteresis>]
                    [--worker-bin <path>] [--worker-threads <n>]
                    [--max-attempts <n>] [--inject-kill <shard>]
                    [--verify-single-stream] [--plan]
       fleet_driver --worker <worker flags...>   (internal worker mode)";

const FLAGS: &str = "--bodies= --shards= --boundaries= --base-seed= --horizon-s= --top-k= \
    --population= --spool-root= --churn-rate= --churn-fade= --churn-policy= --worker-bin= \
    --worker-threads= --max-attempts= --inject-kill= --verify-single-stream --plan";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("--worker") {
        return hidwa_core::fleet::driver::worker_main(args.skip(1));
    }
    drive(args).unwrap_or_else(|message| usage_error(USAGE, &message))
}

/// Runs the coordinator.  `Err` is a usage error; every one is raised
/// before a spool directory is created or a worker spawned.
fn drive(args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let flags = Flags::parse(FLAGS, args)?;
    flags.exclusive("--shards", "--boundaries")?;
    flags.needs("--churn-fade", "--churn-rate")?;
    flags.needs("--churn-policy", "--churn-rate")?;
    let mut spec = DriverFleetSpec::from_flags(&flags)?;
    if let Some(rate) = flags.value("--churn-rate")? {
        let mut churn = ChurnModel::with_rate(rate);
        if let Some(fade) = flags.value("--churn-fade")? {
            churn = churn.with_link_fade(fade);
        }
        let policy = flags.tag("--churn-policy")?;
        spec = spec.with_churn(ChurnSpec::new(
            churn,
            policy.unwrap_or(PolicyKind::ReoptimizeOnChange),
        ));
    }
    let driver = match flags.raw("--boundaries") {
        Some(list) => {
            let boundaries: Vec<usize> = list
                .split(',')
                .filter(|part| !part.is_empty())
                .map(str::parse)
                .collect::<Result<_, _>>()
                .map_err(|_| format!("--boundaries could not parse {list:?}"))?;
            FleetDriver::with_boundaries(spec.clone(), &boundaries)
                .map_err(|error| format!("--boundaries: {error}"))?
        }
        None => FleetDriver::new(spec.clone(), flags.value("--shards")?.unwrap_or(2)),
    }
    .with_max_attempts(
        flags
            .value("--max-attempts")?
            .unwrap_or(FleetDriver::DEFAULT_MAX_ATTEMPTS),
    );
    let worker_threads: usize = flags.value("--worker-threads")?.unwrap_or(1);
    let inject_kill = flags.value("--inject-kill")?;
    let spool_root = flags.raw("--spool-root").unwrap_or("spool");

    if flags.has("--plan") {
        // Dry run: print everything a multi-machine operator needs — the
        // fingerprint, the spool path, and the exact worker command per
        // shard — without folding a single body (see DEPLOYMENT.md
        // walkthrough 3).
        println!("fingerprint : {}", driver.fingerprint());
        println!("spool dir   : {spool_root}/{}", driver.fingerprint());
        println!("worker commands (run anywhere that mounts the spool):");
        for shard in 0..driver.shard_count() {
            let assignment = driver.assignment(shard);
            println!(
                "  shard_worker {} --spool {spool_root}/{}",
                spec.worker_args(&assignment).join(" "),
                driver.fingerprint()
            );
        }
        return Ok(ExitCode::SUCCESS);
    }

    let mut worker = match flags.raw("--worker-bin") {
        Some(path) => WorkerCommand::new(path),
        None => match WorkerCommand::current_exe_worker() {
            Ok(worker) => worker,
            Err(error) => {
                eprintln!("cannot resolve the current executable: {error}");
                return Ok(ExitCode::FAILURE);
            }
        },
    };
    if worker_threads > 1 {
        worker = worker.arg("--threads").arg(worker_threads.to_string());
    }
    let mut executor = ProcessExecutor::new(worker);
    if let Some(shard) = inject_kill {
        executor = executor.with_injected_kill(shard);
    }
    let spool = match driver.spool_in(spool_root) {
        Ok(spool) => spool,
        Err(error) => {
            eprintln!("cannot open spool under {spool_root}: {error}");
            return Ok(ExitCode::FAILURE);
        }
    };

    hidwa_bench::header(
        "fleet_driver",
        "Multi-process fleet run: shard workers + spool-directory checkpoint transport.",
    );
    println!("fingerprint : {}", driver.fingerprint());
    println!("spool dir   : {}", spool.dir().display());
    println!(
        "fleet       : {} bodies, population {}, {} shard(s)",
        spec.bodies(),
        spec.population(),
        driver.shard_count()
    );

    let started = std::time::Instant::now();
    let run = match driver.run(&executor, &spool) {
        Ok(run) => run,
        Err(error) => {
            eprintln!("driver run failed: {error}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    println!(
        "\n{:<7} {:>12} {:>8} {:>9}  recovered faults",
        "shard", "bodies", "reused", "attempts"
    );
    for outcome in run.shards() {
        println!(
            "{:<7} {:>5}..{:<5} {:>8} {:>9}  {}",
            outcome.shard.index,
            outcome.shard.start,
            outcome.shard.end,
            if outcome.reused { "yes" } else { "no" },
            outcome.attempts,
            if outcome.recovered.is_empty() {
                "-".to_string()
            } else {
                outcome.recovered.join("; ")
            }
        );
    }
    let report = run.report();
    println!(
        "\nmerged report: {} bodies, delivery {:.4}, fleet p95 {:.3} ms, energy {:.3} J ({wall_ms:.0} ms wall)",
        report.bodies(),
        report.delivery_ratio(),
        report.fleet_latency().quantile(0.95).as_seconds() * 1e3,
        report.total_energy().as_joules(),
    );
    if spec.churn().is_some() {
        println!(
            "churn        : {} migrations ({:.2}/body-hour), {} re-plans, occupancy {:.3}",
            report.migrations(),
            report.migration_rate(),
            report.replans(),
            report.mean_occupancy(),
        );
    }

    if flags.has("--verify-single-stream") {
        let config = spec.to_config();
        let single = config.run_until(&SweepRunner::new(), spec.bodies());
        let identical_state = run.state_bytes() == single.save().to_vec();
        let identical_report = report == &single.into_parts().0.finish();
        println!(
            "verify vs single stream: state bytes {}, report {}",
            if identical_state {
                "byte-identical"
            } else {
                "MISMATCH"
            },
            if identical_report {
                "identical"
            } else {
                "MISMATCH"
            }
        );
        if !(identical_state && identical_report) {
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}
