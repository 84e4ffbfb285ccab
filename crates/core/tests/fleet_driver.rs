//! Fault-injection and identity tests for the multi-process fleet driver —
//! the ISSUE 5 tentpole contract, exercised in-process so every fault is
//! deterministic: corrupt, truncated, stale and missing blobs are detected
//! and re-run; a killed fold leaves nothing a reader can see; a crashed
//! coordinator resumes from surviving blobs; and through every recovery the
//! merged result stays **byte-identical** to the single-stream fold.
//!
//! The same contracts are asserted against real killed worker *processes*
//! in `crates/bench/tests/driver_process.rs`.

use hidwa_core::fleet::driver::transport::{SpoolTransport, Transport};
use hidwa_core::fleet::driver::{
    DriverError, DriverFleetSpec, FleetDriver, InProcessExecutor, PopulationSpec, ShardAssignment,
    ShardExecutor,
};
use hidwa_core::fleet::{FleetAggregator, FleetCheckpoint};
use hidwa_core::sweep::SweepRunner;
use hidwa_units::TimeSpan;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh spool directory under the OS temp dir, unique per test.
fn spool_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hidwa-driver-test-{tag}-{}", std::process::id()))
}

fn small_spec(bodies: usize, base_seed: u64) -> DriverFleetSpec {
    DriverFleetSpec::new(bodies)
        .with_base_seed(base_seed)
        .with_horizon(TimeSpan::from_seconds(0.5))
        .with_top_k(4)
        .with_population(PopulationSpec::Mixed)
}

/// The single-stream fold's full aggregator state bytes for `spec`.
fn single_stream_state(spec: &DriverFleetSpec) -> Vec<u8> {
    let config = spec.to_config();
    config
        .run_until(&SweepRunner::serial(), spec.bodies())
        .save()
        .to_vec()
}

/// The driver result's full state bytes: merge the published blobs exactly
/// as a coordinator does and serialize the merged aggregator.
fn merged_state(spec: &DriverFleetSpec, transport: &dyn Transport, shards: usize) -> Vec<u8> {
    let config = spec.to_config();
    let mut merged = FleetAggregator::new(config.horizon(), config.top_k());
    for shard in 0..shards {
        let bytes = transport
            .fetch(shard)
            .expect("fetch blob")
            .expect("blob present after a completed run");
        let checkpoint = FleetCheckpoint::load(&bytes).expect("published blob loads");
        merged.merge(checkpoint.into_parts().0);
    }
    FleetCheckpoint::capture(&config, &merged, spec.bodies())
        .save()
        .to_vec()
}

#[test]
fn partial_spool_writes_are_invisible_to_readers() {
    let dir = spool_dir("atomic");
    let spool = SpoolTransport::create(&dir).expect("create spool");
    // A worker killed mid-write leaves exactly this: a temp file.
    let temp = spool.write_partial(3, b"half a checkpoint").expect("temp");
    assert!(temp.exists());
    assert!(
        spool.fetch(3).expect("fetch").is_none(),
        "a partial write must never be visible as a published blob"
    );
    // The atomic publish replaces nothing-visible with everything-visible.
    spool.publish(3, b"the whole checkpoint").expect("publish");
    assert_eq!(
        spool.fetch(3).expect("fetch").as_deref(),
        Some(&b"the whole checkpoint"[..])
    );
    // Discard is how the coordinator drops a rejected blob.
    spool.discard(3).expect("discard");
    assert!(spool.fetch(3).expect("fetch").is_none());
    spool.discard(3).expect("discarding a missing blob is fine");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_stale_and_foreign_blobs_are_detected_and_rerun() {
    let spec = small_spec(12, 77);
    let driver = FleetDriver::new(spec.clone(), 3);
    let dir = spool_dir("faults");
    let spool = driver.spool_in(&dir).expect("spool");
    let config = spec.to_config();

    // Shard 0: garbage bytes (not a checkpoint at all).
    spool.publish(0, b"definitely not HIDWAFLT").expect("seed");
    // Shard 1: a *valid* checkpoint of an empty fold — wrong body range for
    // the assignment, as a blob from an older layout would be.
    let empty = FleetAggregator::new(config.horizon(), config.top_k());
    let stale = FleetCheckpoint::capture(&config, &empty, driver.assignment(1).end).save();
    spool.publish(1, &stale).expect("seed");
    // Shard 2: a truncated prefix of a real blob.
    let real = FleetCheckpoint::capture(&config, &empty, 0).save();
    spool.publish(2, &real[..real.len() / 2]).expect("seed");

    let run = driver
        .run(&InProcessExecutor::serial(), &spool)
        .expect("driver recovers all three faults");
    assert_eq!(run.reused_shards(), 0, "no seeded blob was reusable");
    assert_eq!(run.total_attempts(), 3);
    assert!(
        run.recovered_faults() >= 3,
        "each bad blob should be recorded: {:?}",
        run.shards()
    );
    assert_eq!(
        merged_state(&spec, &spool, driver.shard_count()),
        single_stream_state(&spec),
        "recovery must not change the result"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// An executor standing in for killed workers: the chosen shard's first
/// attempt fails in the chosen mode, everything else folds normally.
struct FlakyExecutor {
    inner: InProcessExecutor,
    fail_shard: usize,
    /// 0 = worker dies, nothing published; 1 = worker "succeeds" but
    /// publishes nothing; 2 = worker publishes garbage bytes.
    mode: u8,
    executions: AtomicUsize,
}

impl FlakyExecutor {
    fn new(fail_shard: usize, mode: u8) -> Self {
        Self {
            inner: InProcessExecutor::serial(),
            fail_shard,
            mode,
            executions: AtomicUsize::new(0),
        }
    }
}

impl ShardExecutor for FlakyExecutor {
    fn execute(
        &self,
        spec: &DriverFleetSpec,
        shard: &ShardAssignment,
        attempt: usize,
        transport: &dyn Transport,
    ) -> Result<(), DriverError> {
        self.executions.fetch_add(1, Ordering::SeqCst);
        if shard.index == self.fail_shard && attempt == 0 {
            match self.mode {
                0 => {
                    return Err(DriverError::Worker {
                        shard: shard.index,
                        code: None,
                        stderr: "killed (injected)".to_string(),
                    })
                }
                1 => return Ok(()),
                _ => {
                    transport.publish(shard.index, b"garbage after a crash")?;
                    return Ok(());
                }
            }
        }
        self.inner.execute(spec, shard, attempt, transport)
    }
}

#[test]
fn killed_worker_is_detected_and_rerun() {
    for mode in 0u8..3 {
        let spec = small_spec(10, 500 + u64::from(mode));
        let driver = FleetDriver::with_boundaries(spec.clone(), &[2, 7]).expect("boundaries");
        let dir = spool_dir(&format!("kill-{mode}"));
        let spool = driver.spool_in(&dir).expect("spool");
        let executor = FlakyExecutor::new(1, mode);
        let run = driver.run(&executor, &spool).expect("driver recovers");
        assert_eq!(
            run.shards()[1].attempts,
            2,
            "failed shard re-ran (mode {mode})"
        );
        assert!(!run.shards()[1].recovered.is_empty());
        assert_eq!(run.shards()[0].attempts, 1);
        assert_eq!(run.shards()[2].attempts, 1);
        assert_eq!(
            merged_state(&spec, &spool, driver.shard_count()),
            single_stream_state(&spec)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// An executor that must never run — resumes must come from blobs alone.
struct PanicExecutor;

impl ShardExecutor for PanicExecutor {
    fn execute(
        &self,
        _spec: &DriverFleetSpec,
        _shard: &ShardAssignment,
        _attempt: usize,
        _transport: &dyn Transport,
    ) -> Result<(), DriverError> {
        panic!("resume must not re-fold completed shards");
    }
}

#[test]
fn crashed_coordinator_resumes_from_surviving_blobs() {
    let spec = small_spec(14, 900);
    let driver = FleetDriver::new(spec.clone(), 4);
    let dir = spool_dir("resume");
    let spool = driver.spool_in(&dir).expect("spool");

    // First coordinator completes, then "crashes" after the blobs landed.
    let first = driver
        .run(&InProcessExecutor::serial(), &spool)
        .expect("first run");
    assert_eq!(first.reused_shards(), 0);

    // A second coordinator over the same spool needs no folding at all.
    let resumed = driver.run(&PanicExecutor, &spool).expect("pure resume");
    assert_eq!(resumed.reused_shards(), driver.shard_count());
    assert_eq!(resumed.total_attempts(), 0);
    assert_eq!(resumed.report(), first.report());

    // Lose one blob: only that shard is re-folded.
    spool.discard(2).expect("lose shard 2");
    let executor = FlakyExecutor::new(usize::MAX, 0); // counts, never fails
    let partial = driver.run(&executor, &spool).expect("partial resume");
    assert_eq!(executor.executions.load(Ordering::SeqCst), 1);
    assert_eq!(partial.reused_shards(), driver.shard_count() - 1);
    assert_eq!(partial.report(), first.report());
    assert_eq!(
        merged_state(&spec, &spool, driver.shard_count()),
        single_stream_state(&spec)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// An executor that always fails, to exhaust the recovery budget.
struct AlwaysFail;

impl ShardExecutor for AlwaysFail {
    fn execute(
        &self,
        _spec: &DriverFleetSpec,
        shard: &ShardAssignment,
        _attempt: usize,
        _transport: &dyn Transport,
    ) -> Result<(), DriverError> {
        Err(DriverError::Worker {
            shard: shard.index,
            code: Some(1),
            stderr: "always fails".to_string(),
        })
    }
}

#[test]
fn recovery_budget_exhaustion_is_a_typed_error() {
    let spec = small_spec(4, 1);
    let driver = FleetDriver::new(spec, 2).with_max_attempts(2);
    let dir = spool_dir("exhaust");
    let spool = driver.spool_in(&dir).expect("spool");
    let error = driver.run(&AlwaysFail, &spool).expect_err("must give up");
    match error {
        DriverError::Exhausted {
            shard, attempts, ..
        } => {
            assert_eq!(shard, 0);
            assert_eq!(attempts, 2);
        }
        other => panic!("expected Exhausted, got {other}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn churned_driver_runs_are_identical_across_1_2_4_shards() {
    use hidwa_core::fleet::{ChurnSpec, PolicyKind};
    use hidwa_core::population::ChurnModel;

    // ISSUE 9: churn — arrivals, departures, duty cycles and online
    // re-placement — flows through the worker CLI (`--churn`) and stays
    // byte-identical whether the fleet is folded in one stream or split
    // across 1, 2 or 4 driver shards.
    let spec = small_spec(30, 0xC0FFEE).with_churn(ChurnSpec::new(
        ChurnModel::with_rate(0.5).with_link_fade(0.8),
        PolicyKind::Hysteresis,
    ));
    let expected = single_stream_state(&spec);
    for shards in [1usize, 2, 4] {
        let driver = FleetDriver::new(spec.clone(), shards);
        let dir = spool_dir(&format!("churn-{shards}"));
        let spool = driver.spool_in(&dir).expect("spool");
        let run = driver
            .run(&InProcessExecutor::serial(), &spool)
            .expect("churned driver run");
        assert_eq!(run.report().bodies(), spec.bodies());
        assert!(
            run.report().mean_occupancy() < 1.0,
            "churn left every body resident for the whole horizon"
        );
        assert_eq!(
            merged_state(&spec, &spool, shards),
            expected,
            "churned fleet diverged at {shards} shards"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random shard layouts × kill modes × kill shards × resume points: the
    /// driver always converges to the byte-identical single-stream state.
    #[test]
    fn driver_is_identical_under_random_faults_and_resume(
        bodies in 3usize..14,
        shards in 1usize..5,
        fail_shard in 0usize..5,
        mode in 0u8..3,
        lose in 0usize..5,
        base_seed in 0u64..100_000,
    ) {
        let spec = small_spec(bodies, base_seed);
        let driver = FleetDriver::new(spec.clone(), shards);
        let dir = spool_dir(&format!("prop-{bodies}-{shards}-{fail_shard}-{mode}-{lose}-{base_seed}"));
        let spool = driver.spool_in(&dir).expect("spool");
        let expected = single_stream_state(&spec);

        // A worker dies on its first attempt somewhere in the fleet.
        let executor = FlakyExecutor::new(fail_shard % driver.shard_count(), mode);
        let run = driver.run(&executor, &spool).expect("driver converges");
        prop_assert_eq!(run.report().bodies(), bodies);
        prop_assert_eq!(&merged_state(&spec, &spool, driver.shard_count()), &expected);

        // The coordinator "crashes"; one blob is lost; a new coordinator
        // resumes and re-folds only what is missing.
        spool.discard(lose % driver.shard_count()).expect("lose one blob");
        let resumed = driver.run(&InProcessExecutor::serial(), &spool).expect("resume");
        prop_assert!(resumed.reused_shards() >= driver.shard_count() - 1);
        prop_assert_eq!(&merged_state(&spec, &spool, driver.shard_count()), &expected);
        std::fs::remove_dir_all(&dir).ok();
    }
}
