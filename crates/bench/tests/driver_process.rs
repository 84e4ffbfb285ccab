//! Multi-**process** driver tests: real `shard_worker` processes spawned,
//! killed, and re-run, asserting the spool protocol's crash-safety and the
//! byte-identity of the recovered result.  The deterministic in-process
//! versions of these faults live in `crates/core/tests/fleet_driver.rs`;
//! here the processes, signals and files are real.

use hidwa_core::fleet::driver::transport::Transport;
use hidwa_core::fleet::driver::{
    DriverError, DriverFleetSpec, FleetDriver, PopulationSpec, ProcessExecutor, WorkerCommand,
    SIMULATED_CRASH_EXIT,
};
use hidwa_core::fleet::{ChurnSpec, FleetAggregator, FleetCheckpoint, PolicyKind};
use hidwa_core::population::ChurnModel;
use hidwa_core::sweep::SweepRunner;
use hidwa_units::TimeSpan;
use std::path::PathBuf;
use std::process::Command;

/// The release-agnostic path of the worker binary under test.
fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_shard_worker")
}

fn spool_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hidwa-procdrv-{tag}-{}", std::process::id()))
}

fn small_spec(bodies: usize, base_seed: u64) -> DriverFleetSpec {
    DriverFleetSpec::new(bodies)
        .with_base_seed(base_seed)
        .with_horizon(TimeSpan::from_seconds(0.4))
        .with_top_k(3)
        .with_population(PopulationSpec::Mixed)
}

fn single_stream_state(spec: &DriverFleetSpec) -> Vec<u8> {
    spec.to_config()
        .run_until(&SweepRunner::serial(), spec.bodies())
        .save()
        .to_vec()
}

fn merged_state(spec: &DriverFleetSpec, transport: &dyn Transport, shards: usize) -> Vec<u8> {
    let config = spec.to_config();
    let mut merged = FleetAggregator::new(config.horizon(), config.top_k());
    for shard in 0..shards {
        let bytes = transport
            .fetch(shard)
            .expect("fetch blob")
            .expect("blob present");
        merged.merge(
            FleetCheckpoint::load(&bytes)
                .expect("published blob loads")
                .into_parts()
                .0,
        );
    }
    FleetCheckpoint::capture(&config, &merged, spec.bodies())
        .save()
        .to_vec()
}

#[test]
fn worker_processes_reproduce_the_single_stream_bytes() {
    let spec = small_spec(10, 42);
    // Ragged on purpose: shard 0 gets 3 bodies, shard 1 gets 7.
    let driver = FleetDriver::with_boundaries(spec.clone(), &[3]).expect("boundaries");
    let dir = spool_dir("happy");
    let spool = driver.spool_in(&dir).expect("spool");
    let executor = ProcessExecutor::new(WorkerCommand::new(worker_bin()));
    let run = driver.run(&executor, &spool).expect("two worker processes");
    assert_eq!(run.total_attempts(), 2);
    assert_eq!(run.report().bodies(), 10);
    assert_eq!(
        merged_state(&spec, &spool, driver.shard_count()),
        single_stream_state(&spec),
        "the process boundary must be invisible in the merged bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_worker_leaves_no_visible_blob_and_is_rerun() {
    let spec = small_spec(8, 7);
    let driver = FleetDriver::with_boundaries(spec.clone(), &[5]).expect("boundaries");
    let dir = spool_dir("killpoint");
    let spool = driver.spool_in(&dir).expect("spool");

    // Deterministic kill point: the worker folds 2 bodies of shard 0, writes
    // the partial temp file a kill-during-write would leave, and dies.
    let shard0 = driver.assignment(0);
    let mut args = spec.worker_args(&shard0);
    args.extend(spool.worker_flags());
    args.extend([
        "--fail-after-bodies".to_string(),
        "2".to_string(),
        "--fail-with-partial".to_string(),
    ]);
    let status = Command::new(worker_bin())
        .args(&args)
        .status()
        .expect("spawn worker");
    assert_eq!(status.code(), Some(i32::from(SIMULATED_CRASH_EXIT)));

    // The crash left a temp file but nothing a reader can see.
    let leftovers: Vec<String> = std::fs::read_dir(spool.dir())
        .expect("spool dir")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    assert!(
        leftovers.iter().any(|name| name.contains(".tmp-")),
        "expected the partial temp file, found {leftovers:?}"
    );
    assert!(
        !spool.blob_path(0).exists(),
        "no published blob may exist after a mid-write kill"
    );
    assert!(spool.fetch(0).expect("fetch").is_none());

    // The coordinator re-runs the dead shard and converges byte-identically.
    let executor = ProcessExecutor::new(WorkerCommand::new(worker_bin()));
    let run = driver.run(&executor, &spool).expect("recovery");
    assert_eq!(run.report().bodies(), 8);
    assert_eq!(
        merged_state(&spec, &spool, driver.shard_count()),
        single_stream_state(&spec)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigkilled_worker_mid_fold_leaves_nothing_visible() {
    // Every churned body runs the engine, so no class table can shorten
    // this fold: it takes about 1.8 s in a release build and 17 s in debug
    // on a 2-vCPU container, so the 150 ms kill lands mid-fold in both.
    let churn = ChurnSpec::new(ChurnModel::with_rate(0.3), PolicyKind::StaticAtAdmission);
    let spec = DriverFleetSpec::new(120_000)
        .with_base_seed(9)
        .with_horizon(TimeSpan::from_seconds(60.0))
        .with_population(PopulationSpec::Mixed)
        .with_churn(churn);
    let driver = FleetDriver::new(spec.clone(), 1);
    let dir = spool_dir("sigkill");
    let spool = driver.spool_in(&dir).expect("spool");
    let shard0 = driver.assignment(0);
    let mut args = spec.worker_args(&shard0);
    args.extend(spool.worker_flags());
    let mut child = Command::new(worker_bin())
        .args(&args)
        .spawn()
        .expect("spawn long worker");
    std::thread::sleep(std::time::Duration::from_millis(150));
    child.kill().expect("kill worker");
    let status = child.wait().expect("reap worker");
    assert!(!status.success());
    assert!(
        spool.fetch(0).expect("fetch").is_none(),
        "a SIGKILLed worker must not leave a visible blob"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_rejects_malformed_invocations_with_usage() {
    let output = Command::new(worker_bin())
        .args(["--bodies", "10"]) // shard + transport flags missing
        .output()
        .expect("spawn worker");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage:"), "stderr was: {stderr}");

    let output = Command::new(worker_bin())
        .args(["--frobnicate"])
        .output()
        .expect("spawn worker");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown flag"), "stderr was: {stderr}");
}

#[test]
fn a_worker_usage_error_reaches_the_driver_error() {
    let spec = small_spec(4, 3);
    let driver = FleetDriver::new(spec, 1);
    let dir = spool_dir("usage");
    let spool = driver.spool_in(&dir).expect("spool");
    let executor = ProcessExecutor::new(WorkerCommand::new(worker_bin()).arg("--frobnicate"));
    let error = driver
        .run(&executor, &spool)
        .expect_err("no worker can start");
    std::fs::remove_dir_all(&dir).ok();
    let DriverError::Exhausted { last, .. } = error else {
        panic!("expected Exhausted, got {error}");
    };
    match *last {
        DriverError::Worker {
            code: Some(2),
            ref stderr,
            ..
        } => assert!(stderr.contains("unknown flag"), "stderr tail: {stderr}"),
        other => panic!("expected a usage exit, got {other}"),
    }
}
