//! Property tests for the sharded fleet merge algebra: any partition of the
//! body range into contiguous shards, folded independently at any thread
//! width, merges — in any grouping — into the byte-identical single-stream
//! fold.

use hidwa_core::fleet::{FleetAggregator, FleetCheckpoint, FleetConfig, ShardError, ShardPlan};
use hidwa_core::population::PopulationModel;
use hidwa_core::sweep::SweepRunner;
use hidwa_units::TimeSpan;
use proptest::prelude::*;

/// Byte-level fingerprint of an aggregator's full state (via the checkpoint
/// codec), so "identical" below means identical limbs, buckets and low bits —
/// not merely `PartialEq` on the finished report.
fn state_bytes(config: &FleetConfig, aggregator: &FleetAggregator) -> Vec<u8> {
    FleetCheckpoint::capture(config, aggregator, config.bodies())
        .save()
        .to_vec()
}

fn small_fleet(bodies: usize, base_seed: u64) -> FleetConfig {
    FleetConfig::new(bodies)
        .with_population(PopulationModel::mixed_default())
        .with_base_seed(base_seed)
        .with_horizon(TimeSpan::from_seconds(0.5))
        .with_top_k(4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random fleets, shard counts and thread widths: the shard-merged
    /// aggregator state is byte-identical to the single-stream fold, and the
    /// finished reports compare equal.
    #[test]
    fn sharded_fold_matches_single_stream(
        bodies in 1usize..40,
        shards in 1usize..7,
        width in 1usize..5,
        base_seed in 0u64..1_000_000,
    ) {
        let config = small_fleet(bodies, base_seed);
        let single = config.run(&SweepRunner::serial());
        let single_state = state_bytes(&config, &ShardPlan::split(config.clone(), 1).fold(&SweepRunner::serial()));
        let plan = ShardPlan::split(config.clone(), shards);
        // Shard ranges partition 0..bodies contiguously.
        let mut cursor = 0;
        for shard in 0..plan.shard_count() {
            let range = plan.range(shard);
            prop_assert_eq!(range.start, cursor);
            cursor = range.end;
        }
        prop_assert_eq!(cursor, bodies);
        let merged = plan.fold(&SweepRunner::with_threads(width));
        prop_assert_eq!(&state_bytes(&config, &merged), &single_state);
        prop_assert_eq!(merged.finish(), single);
    }

    /// Ragged explicit layouts — including empty shards — merge to the same
    /// bytes as the single stream.
    #[test]
    fn ragged_layouts_match_single_stream(
        bodies in 1usize..30,
        cut_seed in 0u64..10_000,
        cuts in prop::collection::vec(0usize..30, 0..4),
    ) {
        let mut boundaries: Vec<usize> = cuts.iter().map(|&c| c % (bodies + 1)).collect();
        boundaries.sort_unstable();
        let config = small_fleet(bodies, cut_seed);
        let plan = ShardPlan::from_boundaries(config.clone(), &boundaries).expect("sorted, in range");
        prop_assert_eq!(plan.shard_count(), boundaries.len() + 1);
        let merged = plan.fold(&SweepRunner::serial());
        let single = ShardPlan::split(config.clone(), 1).fold(&SweepRunner::serial());
        prop_assert_eq!(state_bytes(&config, &merged), state_bytes(&config, &single));
    }

    /// The merge is associative and commutative over ≥3 partial aggregators,
    /// and the empty aggregator is its identity.
    #[test]
    fn merge_is_an_abelian_monoid(
        bodies in 3usize..24,
        cut_a in 1usize..23,
        cut_b in 1usize..23,
        base_seed in 0u64..100_000,
    ) {
        let cut_a = cut_a % bodies;
        let cut_b = cut_b % bodies;
        let (lo, hi) = (cut_a.min(cut_b), cut_a.max(cut_b));
        let config = small_fleet(bodies, base_seed);
        let plan = ShardPlan::from_boundaries(config.clone(), &[lo, hi]).expect("sorted");
        let serial = SweepRunner::serial();
        let p1 = plan.shard(0).fold(&serial);
        let p2 = plan.shard(1).fold(&serial);
        let p3 = plan.shard(2).fold(&serial);

        // (p1 ⊕ p2) ⊕ p3
        let mut left = p1.clone();
        left.merge(p2.clone());
        left.merge(p3.clone());
        // p1 ⊕ (p2 ⊕ p3)
        let mut right_tail = p2.clone();
        right_tail.merge(p3.clone());
        let mut right = p1.clone();
        right.merge(right_tail);
        prop_assert_eq!(state_bytes(&config, &left), state_bytes(&config, &right));

        // Commutativity: p3 ⊕ p1 ⊕ p2 gives the same bytes.
        let mut shuffled = p3;
        shuffled.merge(p1);
        shuffled.merge(p2);
        prop_assert_eq!(state_bytes(&config, &shuffled), state_bytes(&config, &left));

        // Identity: merging the empty aggregator changes nothing.
        let mut with_identity = left.clone();
        with_identity.merge(FleetAggregator::new(config.horizon(), config.top_k()));
        prop_assert_eq!(state_bytes(&config, &with_identity), state_bytes(&config, &left));
    }
}

/// The acceptance-criteria anchor: a 1000-body heterogeneous fleet, three
/// distinct shard layouts plus a mid-stream checkpoint/resume, all
/// byte-identical to the single-stream fold.
#[test]
fn thousand_body_heterogeneous_fleet_is_layout_invariant() {
    let config = FleetConfig::new(1000)
        .with_population(PopulationModel::mixed_default())
        .with_base_seed(0xD15EA5E)
        .with_horizon(TimeSpan::from_seconds(0.5));
    let serial = SweepRunner::serial();
    let single = config.run(&serial);
    let single_state = config.run_until(&serial, 1000).save().to_vec();

    // Three distinct layouts: even 4-way, even 7-way (ragged tail), and an
    // explicit lopsided partition.
    let layouts = [
        ShardPlan::split(config.clone(), 4),
        ShardPlan::split(config.clone(), 7),
        ShardPlan::from_boundaries(config.clone(), &[1, 333, 998]).expect("sorted"),
    ];
    for (index, plan) in layouts.iter().enumerate() {
        let merged = plan.fold(&SweepRunner::with_threads(1 + index));
        let merged_state = FleetCheckpoint::capture(&config, &merged, 1000)
            .save()
            .to_vec();
        assert_eq!(merged_state, single_state, "layout {index} diverged");
        assert_eq!(merged.finish(), single, "layout {index} report diverged");
    }

    // Mid-stream interruption: checkpoint at body 500, serialize, reload,
    // resume — the finished report and final state match both paths above.
    let checkpoint_bytes = config.run_until(&serial, 500).save();
    let restored = FleetCheckpoint::load(&checkpoint_bytes).expect("valid checkpoint");
    assert_eq!(restored.next_body(), 500);
    assert_eq!(restored.bodies_ingested(), 500);
    let resumed = config.resume(&serial, restored).expect("same config");
    assert_eq!(resumed, single);
}

/// Shard runners are pure functions of (config, range): two independently
/// constructed runners for the same shard — as on two different machines —
/// produce byte-identical partial checkpoints, and the coordinator merge of
/// shipped checkpoints equals the single-stream report.
#[test]
fn shard_checkpoints_merge_across_machines() {
    let config = small_fleet(60, 77);
    let serial = SweepRunner::serial();
    let plan = ShardPlan::split(config.clone(), 3);

    // "Machine A" and "machine B" build the same shard independently.
    let a = plan.shard(1).checkpoint(&serial).save().to_vec();
    let b = ShardPlan::split(config.clone(), 3)
        .shard(1)
        .checkpoint(&serial)
        .save()
        .to_vec();
    assert_eq!(a, b);

    // Ship all three partials (as bytes) and merge on the coordinator.
    let parts: Vec<FleetCheckpoint> = (0..3)
        .map(|i| {
            let blob = plan.shard(i).checkpoint(&serial).save();
            FleetCheckpoint::load(&blob).expect("shipped blob loads")
        })
        .collect();
    let merged = plan.merge_checkpoints(parts).expect("full cover");
    assert_eq!(merged, config.run(&serial));

    // A missing shard is caught, not silently under-reported.
    let shard_part = |i: usize| {
        FleetCheckpoint::load(&plan.shard(i).checkpoint(&serial).save()).expect("shard blob loads")
    };
    assert!(plan.merge_checkpoints((0..2).map(shard_part)).is_err());

    // A duplicated shard standing in for a missing one has the right total
    // body count but the wrong coverage — also rejected.
    assert!(plan
        .merge_checkpoints([shard_part(0), shard_part(1), shard_part(1)])
        .is_err());

    // Any order of the correct partials is fine (the merge is commutative).
    let reordered = plan
        .merge_checkpoints([shard_part(2), shard_part(0), shard_part(1)])
        .expect("full cover in any order");
    assert_eq!(reordered, config.run(&serial));

    // A shard partial is not a resumable prefix: resume must refuse it
    // rather than silently skip the bodies the shard never ingested.
    assert_eq!(
        config.resume(&serial, shard_part(1)).unwrap_err(),
        hidwa_core::fleet::CheckpointError::NotResumable
    );
}

/// ISSUE 9 churn determinism anchor: a churned heterogeneous fleet —
/// arrivals, departures, duty cycles and online placement decisions — is
/// byte-identical across thread widths 1, 3 and 4, across shard layouts, and
/// across a mid-stream save/resume.
#[test]
fn churned_fleet_is_width_and_layout_invariant() {
    use hidwa_core::fleet::{ChurnSpec, PolicyKind};
    use hidwa_core::population::ChurnModel;

    for policy in [
        PolicyKind::StaticAtAdmission,
        PolicyKind::ReoptimizeOnChange,
        PolicyKind::Hysteresis,
    ] {
        let config = small_fleet(120, 0xC0FFEE).with_churn(ChurnSpec::new(
            ChurnModel::with_rate(0.4).with_link_fade(0.8),
            policy,
        ));
        let serial = SweepRunner::serial();
        let single = config.run(&serial);
        let single_state = config.run_until(&serial, 120).save().to_vec();

        // Thread width 1 vs 3 and 4: byte-identical state.
        for width in [3, 4] {
            let wide_state = config
                .run_until(&SweepRunner::with_threads(width), 120)
                .save()
                .to_vec();
            assert_eq!(wide_state, single_state, "{policy}: width {width} diverged");
        }

        // Shard layouts: even 3-way and a lopsided explicit partition.
        for (index, plan) in [
            ShardPlan::split(config.clone(), 3),
            ShardPlan::from_boundaries(config.clone(), &[1, 40, 119]).expect("sorted"),
        ]
        .iter()
        .enumerate()
        {
            let merged = plan.fold(&SweepRunner::with_threads(2));
            let merged_state = state_bytes(&config, &merged);
            assert_eq!(
                merged_state, single_state,
                "{policy}: layout {index} diverged"
            );
            assert_eq!(
                merged.finish(),
                single,
                "{policy}: layout {index} report diverged"
            );
        }

        // Mid-stream save/resume reproduces the uninterrupted fold.
        let restored =
            FleetCheckpoint::load(&config.run_until(&serial, 60).save()).expect("valid blob");
        let resumed = config.resume(&serial, restored).expect("same config");
        assert_eq!(resumed, single, "{policy}: mid-stream resume diverged");
        assert_eq!(resumed.migrations(), single.migrations());
    }
}

#[test]
fn invalid_layouts_are_rejected_with_typed_errors() {
    let config = small_fleet(10, 1);
    assert_eq!(
        ShardPlan::from_boundaries(config.clone(), &[7, 3]).unwrap_err(),
        ShardError::UnsortedBoundaries
    );
    assert_eq!(
        ShardPlan::from_boundaries(config.clone(), &[11]).unwrap_err(),
        ShardError::BoundaryOutOfRange {
            boundary: 11,
            bodies: 10
        }
    );
    // Clamps and degenerate splits still partition correctly.
    let plan = ShardPlan::split(config.clone(), 0);
    assert_eq!(plan.shard_count(), 1);
    assert_eq!(plan.range(0), 0..10);
    let wide = ShardPlan::split(config, 25);
    assert_eq!(wide.shard_count(), 25);
    let covered: usize = (0..25).map(|i| wide.range(i).len()).sum();
    assert_eq!(covered, 10);
}
