//! Checkpoint round-trip and corruption tests: a fold interrupted at any
//! body boundary resumes byte-identical, and truncated / bit-flipped /
//! version-bumped / mismatched checkpoints come back as typed errors — never
//! a panic, never a silent mis-restore.

mod common;

use common::{reseal, Sweep};
use hidwa_core::fleet::{CheckpointError, ChurnSpec, FleetCheckpoint, FleetConfig, PolicyKind};
use hidwa_core::population::{ChurnModel, PopulationModel};
use hidwa_core::sweep::SweepRunner;
use hidwa_units::TimeSpan;

fn fleet() -> FleetConfig {
    FleetConfig::new(100)
        .with_population(PopulationModel::mixed_default())
        .with_base_seed(424242)
        .with_horizon(TimeSpan::from_seconds(0.5))
        .with_top_k(6)
}

/// The shared envelope sweep over a 100-body fold checkpointed at body
/// `stop`.
fn sweep_at(stop: usize) -> Sweep<FleetCheckpoint, CheckpointError> {
    let blob = fleet().run_until(&SweepRunner::serial(), stop).save();
    Sweep::new(&blob, FleetCheckpoint::load)
}

#[test]
fn resume_from_every_body_boundary_is_byte_identical() {
    let config = fleet();
    let serial = SweepRunner::serial();
    let single = config.run(&serial);
    let final_state = config.run_until(&serial, 100).save().to_vec();
    for stop in 0..=100 {
        let blob = config.run_until(&serial, stop).save();
        let restored = FleetCheckpoint::load(&blob).unwrap_or_else(|e| {
            panic!("checkpoint at body {stop} failed to load: {e}");
        });
        assert_eq!(restored.next_body(), stop);
        assert_eq!(restored.bodies_ingested(), stop);
        // Saving the reloaded checkpoint reproduces the bytes exactly.
        assert_eq!(restored.save().to_vec(), blob.to_vec());
        let resumed = config.resume(&serial, restored).expect("same config");
        assert_eq!(resumed, single, "resume from body {stop} diverged");
    }
    // The final state of an interrupted+resumed fold equals the
    // uninterrupted one at the byte level, not just through PartialEq.
    let half = FleetCheckpoint::load(&config.run_until(&serial, 50).save()).unwrap();
    let resumed_report = config.resume(&serial, half).unwrap();
    assert_eq!(resumed_report, single);
    assert_eq!(config.run_until(&serial, 100).save().to_vec(), final_state);
}

#[test]
fn thousand_body_hetero_fleet_state_bytes_are_width_independent() {
    // Fleet-scale determinism gate for the streaming engine: a 1000-body
    // heterogeneous fleet folded at thread width 1 and width 4 serializes to
    // the **same checkpoint bytes** — every per-body simulation, the ingest
    // order and the exact-sum merge algebra are all width-invariant.
    let config = FleetConfig::new(1000)
        .with_population(PopulationModel::mixed_default())
        .with_base_seed(0xF1EE7)
        .with_horizon(TimeSpan::from_seconds(0.25))
        .with_top_k(8);
    let narrow = config
        .run_until(&SweepRunner::with_threads(1), 1000)
        .save()
        .to_vec();
    let wide = config
        .run_until(&SweepRunner::with_threads(4), 1000)
        .save()
        .to_vec();
    assert_eq!(narrow, wide, "fleet state bytes diverged across widths");
    // The blob is a complete fold: restoring it finishes into the same
    // report a direct run produces at either width.
    let restored = FleetCheckpoint::load(&narrow).expect("valid blob");
    assert_eq!(restored.bodies_ingested(), 1000);
    let resumed = config
        .resume(&SweepRunner::serial(), restored)
        .expect("same config");
    assert_eq!(resumed, config.run(&SweepRunner::with_threads(4)));
}

#[test]
fn truncated_checkpoints_error_at_every_cut() {
    sweep_at(37).prefixes();
}

#[test]
fn every_single_bit_flip_is_rejected() {
    sweep_at(23).bit_flips();
}

#[test]
fn version_and_magic_mismatches_are_typed() {
    let blob = fleet().run_until(&SweepRunner::serial(), 9).save().to_vec();
    let sweep = Sweep::new(&blob, FleetCheckpoint::load);
    sweep.version_bump();
    sweep.foreign_magic();

    // An *old* (version-1, pre-churn) blob is refused too — version 2
    // cannot guess migration or occupancy statistics the old format never
    // measured, so it rejects rather than restoring zeros.
    let mut old = blob.clone();
    old[9] = 1;
    reseal(&mut old);
    assert_eq!(
        FleetCheckpoint::load(&old).unwrap_err(),
        CheckpointError::UnsupportedVersion(1)
    );

    // Arbitrary garbage of plausible length errors instead of panicking.
    let garbage: Vec<u8> = (0..blob.len()).map(|i| (i * 131 + 7) as u8).collect();
    assert!(FleetCheckpoint::load(&garbage).is_err());
}

#[test]
fn resume_under_a_different_config_is_refused() {
    let config = fleet();
    let serial = SweepRunner::serial();
    let blob = config.run_until(&serial, 40).save();
    let load = || FleetCheckpoint::load(&blob).expect("valid blob");

    let other_seed = config.clone().with_base_seed(7);
    assert!(matches!(
        other_seed.resume(&serial, load()),
        Err(CheckpointError::ConfigMismatch(_))
    ));
    let other_bodies = FleetConfig::new(99)
        .with_population(PopulationModel::mixed_default())
        .with_base_seed(424242)
        .with_horizon(TimeSpan::from_seconds(0.5))
        .with_top_k(6);
    assert!(matches!(
        other_bodies.resume(&serial, load()),
        Err(CheckpointError::ConfigMismatch(_))
    ));
    let other_horizon = config.clone().with_horizon(TimeSpan::from_seconds(1.0));
    assert!(matches!(
        other_horizon.resume(&serial, load()),
        Err(CheckpointError::ConfigMismatch(_))
    ));
    let other_top_k = config.clone().with_top_k(2);
    assert!(matches!(
        other_top_k.resume(&serial, load()),
        Err(CheckpointError::ConfigMismatch(_))
    ));
    // The original config still resumes fine.
    assert!(config.resume(&serial, load()).is_ok());
}

fn churned_fleet() -> FleetConfig {
    fleet().with_churn(ChurnSpec::new(
        ChurnModel::with_rate(0.5).with_link_fade(0.8),
        PolicyKind::ReoptimizeOnChange,
    ))
}

#[test]
fn churned_resume_from_every_body_boundary_is_byte_identical() {
    let config = churned_fleet();
    let serial = SweepRunner::serial();
    let single = config.run(&serial);
    assert!(single.replans() > 0, "churned fixture never re-planned");
    for stop in [0, 1, 17, 50, 99, 100] {
        let blob = config.run_until(&serial, stop).save();
        let restored = FleetCheckpoint::load(&blob).unwrap_or_else(|e| {
            panic!("churned checkpoint at body {stop} failed to load: {e}");
        });
        assert_eq!(restored.save().to_vec(), blob.to_vec());
        let resumed = config.resume(&serial, restored).expect("same config");
        assert_eq!(resumed, single, "churned resume from body {stop} diverged");
        assert_eq!(resumed.migrations(), single.migrations());
        assert_eq!(resumed.replans(), single.replans());
    }
}

#[test]
fn churned_checkpoint_corruption_sweep_never_panics() {
    // The whole envelope sweep over a blob whose migration, re-plan,
    // active-span and placement-energy fields are all live.
    let blob = churned_fleet().run_until(&SweepRunner::serial(), 31).save();
    Sweep::new(&blob, FleetCheckpoint::load).all();
}

#[test]
fn resume_under_a_different_churn_spec_is_refused() {
    let config = churned_fleet();
    let serial = SweepRunner::serial();
    let blob = config.run_until(&serial, 30).save();
    let load = || FleetCheckpoint::load(&blob).expect("valid blob");

    // Same fleet, no churn: refused.
    assert!(matches!(
        fleet().resume(&serial, load()),
        Err(CheckpointError::ConfigMismatch(_))
    ));
    // Same churn model, different policy: refused.
    let other_policy = fleet().with_churn(ChurnSpec::new(
        ChurnModel::with_rate(0.5).with_link_fade(0.8),
        PolicyKind::StaticAtAdmission,
    ));
    assert!(matches!(
        other_policy.resume(&serial, load()),
        Err(CheckpointError::ConfigMismatch(_))
    ));
    // Different churn rate: refused.
    let other_rate = fleet().with_churn(ChurnSpec::new(
        ChurnModel::with_rate(0.2).with_link_fade(0.8),
        PolicyKind::ReoptimizeOnChange,
    ));
    assert!(matches!(
        other_rate.resume(&serial, load()),
        Err(CheckpointError::ConfigMismatch(_))
    ));
    // A churned blob under a churn-free config and vice versa both refuse;
    // the original config still resumes.
    assert!(matches!(
        churned_fleet().resume(&serial, {
            let plain = fleet().run_until(&serial, 30).save();
            FleetCheckpoint::load(&plain).expect("valid blob")
        }),
        Err(CheckpointError::ConfigMismatch(_))
    ));
    assert!(config.resume(&serial, load()).is_ok());
}

#[test]
fn checkpoint_errors_render_useful_messages() {
    let rendered = [
        CheckpointError::Truncated.to_string(),
        CheckpointError::BadMagic.to_string(),
        CheckpointError::UnsupportedVersion(9).to_string(),
        CheckpointError::Corrupt("checksum mismatch").to_string(),
        CheckpointError::ConfigMismatch("base seed differs").to_string(),
    ];
    assert!(rendered[0].contains("truncated"));
    assert!(rendered[1].contains("magic"));
    assert!(rendered[2].contains('9'));
    assert!(rendered[3].contains("checksum"));
    assert!(rendered[4].contains("base seed"));
}
