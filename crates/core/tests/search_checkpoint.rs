//! Corruption sweep of the `HIDWASRC` v1 search-checkpoint format: the
//! shared envelope sweep (every-prefix truncation, every-byte bit-flips, a
//! resealed version bump, foreign magics) and the index's structural
//! mutations all decode to typed errors — never a panic — and resuming
//! under a different search identity is refused with a `SpecMismatch`.

mod common;

use common::{reseal, Sweep};
use hidwa_core::fleet::driver::DriverFleetSpec;
use hidwa_core::fleet::placement::{ChurnSpec, PolicyKind};
use hidwa_core::population::ChurnModel;
use hidwa_core::search::{ObjectiveSpace, SearchCheckpoint, SearchCheckpointError, SearchSpec};
use hidwa_core::sweep::SweepRunner;
use hidwa_netsim::mac::MacPolicy;
use hidwa_phy::RadioTechnology;

fn search_spec(seed: u64) -> SearchSpec {
    let base = DriverFleetSpec::new(2)
        .with_base_seed(seed)
        .with_horizon(hidwa_units::TimeSpan::from_seconds(0.02))
        .with_churn(ChurnSpec::new(
            ChurnModel::with_rate(0.3).with_epochs(2),
            PolicyKind::StaticAtAdmission,
        ));
    let space = ObjectiveSpace::new()
        .with_mac_axis(&[MacPolicy::Polling, MacPolicy::Tdma])
        .with_radio_axis(&[RadioTechnology::WiR, RadioTechnology::Ble]);
    SearchSpec::new(base, space)
}

/// A populated checkpoint: every grid point evaluated in-process (no spool
/// needed), recorded into a fresh index.
fn populated() -> (SearchSpec, SearchCheckpoint, Vec<u8>) {
    let spec = search_spec(11);
    let runner = SweepRunner::serial();
    let mut checkpoint = SearchCheckpoint::new(&spec);
    for index in 0..spec.space().len() {
        checkpoint.record(spec.evaluation(index).run(&runner));
    }
    let blob = checkpoint.save();
    (spec, checkpoint, blob)
}

fn sweep() -> Sweep<SearchCheckpoint, SearchCheckpointError> {
    Sweep::new(&populated().2, SearchCheckpoint::load)
}

const HEADER: usize = 8 + 2 + 8 + 8 + 8;
const RECORD: usize = 5 * 8;

#[test]
fn round_trip_is_exact() {
    let (spec, checkpoint, blob) = populated();
    assert_eq!(checkpoint.len(), 4);
    assert_eq!(blob.len(), HEADER + 4 * RECORD + 8);
    let loaded = SearchCheckpoint::load(&blob).expect("intact blob loads");
    assert_eq!(loaded, checkpoint);
    loaded.verify_spec(&spec).expect("same spec verifies");
    assert_eq!(loaded.save(), blob);
}

#[test]
fn every_prefix_truncation_is_a_typed_error() {
    sweep().prefixes();
}

#[test]
fn every_single_bit_flip_is_a_typed_error() {
    sweep().bit_flips();
}

#[test]
fn resealed_version_bump_is_unsupported() {
    sweep().version_bump();
}

#[test]
fn foreign_magic_is_rejected() {
    sweep().foreign_magic();
}

#[test]
fn structural_mutations_are_corrupt_not_panics() {
    let (_, _, blob) = populated();
    let expect_corrupt = |mut mutated: Vec<u8>, label: &str| {
        reseal(&mut mutated);
        let result = SearchCheckpoint::load(&mutated);
        assert!(
            matches!(result, Err(SearchCheckpointError::Corrupt(_))),
            "{label}: expected Corrupt, got {result:?}"
        );
    };

    // Trailing byte between the records and the seal.
    let mut trailing = blob.clone();
    trailing.insert(blob.len() - 8, 0);
    expect_corrupt(trailing, "trailing byte");

    // Records swapped out of ascending-point order.
    let mut swapped = blob.clone();
    let (a, b) = (HEADER, HEADER + RECORD);
    for offset in 0..RECORD {
        swapped.swap(a + offset, b + offset);
    }
    expect_corrupt(swapped, "records out of order");

    // A record's point pushed outside the grid.
    let mut outside = blob.clone();
    outside[HEADER..HEADER + 8].copy_from_slice(&99u64.to_be_bytes());
    expect_corrupt(outside, "point outside the grid");

    // Count larger than the grid.
    let mut overcount = blob.clone();
    overcount[26..34].copy_from_slice(&5u64.to_be_bytes());
    expect_corrupt(overcount, "count exceeds grid");

    // A non-finite metric.
    let mut nan = blob;
    nan[HEADER + 8..HEADER + 16].copy_from_slice(&f64::NAN.to_bits().to_be_bytes());
    expect_corrupt(nan, "non-finite energy");
}

#[test]
fn foreign_search_identity_refuses_to_resume() {
    let (spec, checkpoint, _) = populated();
    // Different base fleet (seed) — same grid shape.
    let reseeded = search_spec(12);
    assert_eq!(
        checkpoint.verify_spec(&reseeded),
        Err(SearchCheckpointError::SpecMismatch(
            "base fleet or grid axes differ"
        ))
    );
    // Different grid length.
    let regridded = SearchSpec::new(spec.base().clone(), ObjectiveSpace::new());
    assert_eq!(
        checkpoint.verify_spec(&regridded),
        Err(SearchCheckpointError::SpecMismatch("grid length differs"))
    );
    // Same axes in a different order: same length, different identity.
    let reordered = SearchSpec::new(
        spec.base().clone(),
        ObjectiveSpace::new()
            .with_mac_axis(&[MacPolicy::Tdma, MacPolicy::Polling])
            .with_radio_axis(&[RadioTechnology::WiR, RadioTechnology::Ble]),
    );
    assert_eq!(
        checkpoint.verify_spec(&reordered),
        Err(SearchCheckpointError::SpecMismatch(
            "base fleet or grid axes differ"
        ))
    );
}

#[test]
fn error_display_names_the_failure() {
    assert_eq!(
        SearchCheckpointError::Truncated.to_string(),
        "search checkpoint truncated"
    );
    assert_eq!(
        SearchCheckpointError::BadMagic.to_string(),
        "not a search checkpoint (bad magic)"
    );
    assert_eq!(
        SearchCheckpointError::UnsupportedVersion(7).to_string(),
        "unsupported search checkpoint version 7"
    );
    assert_eq!(
        SearchCheckpointError::Corrupt("seal mismatch").to_string(),
        "corrupt search checkpoint: seal mismatch"
    );
    assert_eq!(
        SearchCheckpointError::SpecMismatch("grid length differs").to_string(),
        "checkpoint from a different search: grid length differs"
    );
}
