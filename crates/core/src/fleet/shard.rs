//! Sharded fleet ingestion: contiguous body-index shards folded
//! independently and merged through the aggregator's commutative monoid.
//!
//! A [`ShardPlan`] splits a [`FleetConfig`]'s body range `0..bodies` into
//! contiguous sub-ranges.  Because every body's scenario and seed are pure
//! functions of `(base_seed, body_index)`, a [`ShardRunner`] needs nothing
//! but the config and its range — shard `i` can fold on another process or
//! machine with no coordination, ship its partial state as a
//! [`FleetCheckpoint`] blob, and the coordinator merges the partials in
//! shard order (any grouping works; the merge is associative and
//! commutative) into a [`FleetReport`] byte-identical to the single-stream
//! fold.
//!
//! # Example
//!
//! ```
//! use hidwa_core::fleet::{FleetConfig, ShardPlan};
//! use hidwa_core::sweep::SweepRunner;
//! use hidwa_units::TimeSpan;
//!
//! let fleet = FleetConfig::new(12).with_horizon(TimeSpan::from_seconds(1.0));
//! let single = fleet.run(&SweepRunner::serial());
//! let plan = ShardPlan::split(fleet, 3);
//! let sharded = plan.run(&SweepRunner::serial());
//! assert_eq!(single, sharded); // byte-identical, not just "close"
//! ```

use super::checkpoint::{CheckpointError, FleetCheckpoint};
use super::{FleetAggregator, FleetConfig, FleetReport};
use crate::population::LinkCache;
use crate::sweep::SweepRunner;
use std::ops::Range;

/// Why a shard layout was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// Boundaries must be non-decreasing (each shard a contiguous,
    /// forward-moving range).
    UnsortedBoundaries,
    /// A boundary pointed past the end of the fleet.
    BoundaryOutOfRange {
        /// The offending boundary.
        boundary: usize,
        /// Number of bodies in the fleet.
        bodies: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnsortedBoundaries => write!(f, "shard boundaries must be non-decreasing"),
            Self::BoundaryOutOfRange { boundary, bodies } => {
                write!(
                    f,
                    "shard boundary {boundary} beyond the {bodies}-body fleet"
                )
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// A partition of a fleet's body range into contiguous shards.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    config: FleetConfig,
    /// Exclusive end of each shard, in shard order; shard `i` spans
    /// `ends[i - 1] .. ends[i]` (with `ends[-1] = 0`).
    ends: Vec<usize>,
}

impl ShardPlan {
    /// Splits the fleet into `shards` near-equal contiguous ranges (the
    /// first `bodies % shards` shards take one extra body).  A shard count
    /// of zero is clamped to one; shards beyond the body count come out
    /// empty, which the merge treats as the monoid identity.
    #[must_use]
    pub fn split(config: FleetConfig, shards: usize) -> Self {
        let shards = shards.max(1);
        let bodies = config.bodies();
        let base = bodies / shards;
        let extra = bodies % shards;
        let mut ends = Vec::with_capacity(shards);
        let mut cursor = 0;
        for shard in 0..shards {
            cursor += base + usize::from(shard < extra);
            ends.push(cursor);
        }
        Self { config, ends }
    }

    /// Builds a plan from explicit interior boundaries: `boundaries = [3, 7]`
    /// over a 10-body fleet yields shards `0..3`, `3..7`, `7..10`.  Ragged —
    /// even empty — shards are fine; decreasing or out-of-range boundaries
    /// are not.
    ///
    /// # Errors
    /// [`ShardError::UnsortedBoundaries`] or
    /// [`ShardError::BoundaryOutOfRange`].
    pub fn from_boundaries(config: FleetConfig, boundaries: &[usize]) -> Result<Self, ShardError> {
        let bodies = config.bodies();
        let mut previous = 0;
        for &boundary in boundaries {
            if boundary < previous {
                return Err(ShardError::UnsortedBoundaries);
            }
            if boundary > bodies {
                return Err(ShardError::BoundaryOutOfRange { boundary, bodies });
            }
            previous = boundary;
        }
        let mut ends = boundaries.to_vec();
        ends.push(bodies);
        Ok(Self { config, ends })
    }

    /// The fleet configuration the plan partitions.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Number of shards in the plan.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.ends.len()
    }

    /// Body range of shard `shard`.
    ///
    /// # Panics
    /// Panics if `shard >= shard_count()`.
    #[must_use]
    pub fn range(&self, shard: usize) -> Range<usize> {
        let start = if shard == 0 { 0 } else { self.ends[shard - 1] };
        start..self.ends[shard]
    }

    /// A standalone runner for shard `shard` — self-contained (it owns a
    /// config clone), so it can be constructed identically on any machine
    /// from the same plan parameters.
    ///
    /// # Panics
    /// Panics if `shard >= shard_count()`.
    #[must_use]
    pub fn shard(&self, shard: usize) -> ShardRunner {
        let range = self.range(shard);
        ShardRunner {
            config: self.config.clone(),
            shard_index: shard,
            range,
        }
    }

    /// Folds every shard in-process (sharing one link cache) and merges the
    /// partials in shard order into one aggregator.
    #[must_use]
    pub fn fold(&self, runner: &SweepRunner) -> FleetAggregator {
        let links = LinkCache::for_population(self.config.population());
        let mut merged = FleetAggregator::new(self.config.horizon(), self.config.top_k());
        for shard in 0..self.shard_count() {
            let mut partial = FleetAggregator::new(self.config.horizon(), self.config.top_k());
            self.config
                .fold_range(runner, &links, &mut partial, self.range(shard));
            merged.merge(partial);
        }
        merged
    }

    /// Runs the whole plan and finalises the merged aggregate — byte-
    /// identical to [`FleetConfig::run`] on the same config (property-tested
    /// across layouts and widths in `tests/fleet_shards.rs`).
    #[must_use]
    pub fn run(&self, runner: &SweepRunner) -> FleetReport {
        self.fold(runner).finish()
    }

    /// Merges checkpoints of completed shards — e.g. shipped back from other
    /// machines, in any order — and finalises the fleet report.
    ///
    /// Each checkpoint implies its shard's body range (`next_body -
    /// ingested .. next_body`, which is how [`ShardRunner::checkpoint`]
    /// captures it); the ranges must tile `0..bodies` exactly, so a
    /// missing, duplicated or overlapping shard is rejected rather than
    /// silently under- or double-counted.
    ///
    /// # Errors
    /// [`CheckpointError::ConfigMismatch`] if any checkpoint was captured
    /// under a different fleet configuration or the implied ranges do not
    /// partition the fleet.
    pub fn merge_checkpoints(
        &self,
        parts: impl IntoIterator<Item = FleetCheckpoint>,
    ) -> Result<FleetReport, CheckpointError> {
        Ok(self.merge_partials(parts)?.finish())
    }

    /// The checks and merge behind [`merge_checkpoints`](Self::merge_checkpoints),
    /// stopping before `finish` so a caller can also capture the merged
    /// state.
    pub(crate) fn merge_partials(
        &self,
        parts: impl IntoIterator<Item = FleetCheckpoint>,
    ) -> Result<FleetAggregator, CheckpointError> {
        let mut merged = FleetAggregator::new(self.config.horizon(), self.config.top_k());
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        for part in parts {
            part.verify_config(&self.config)?;
            ranges.push((part.next_body() - part.bodies_ingested(), part.next_body()));
            let (partial, _) = part.into_parts();
            merged.merge(partial);
        }
        ranges.sort_unstable();
        let mut cursor = 0;
        for &(start, end) in &ranges {
            if start == end {
                continue; // an empty shard covers nothing, anywhere
            }
            if start != cursor {
                return Err(CheckpointError::ConfigMismatch(
                    "shard partials overlap or leave a gap",
                ));
            }
            cursor = end;
        }
        if cursor != self.config.bodies() {
            return Err(CheckpointError::ConfigMismatch(
                "merged shard partials do not cover the fleet",
            ));
        }
        Ok(merged)
    }
}

/// One shard of a [`ShardPlan`]: a fleet config plus a contiguous body
/// range.  Everything it folds is a pure function of the config's base seed
/// and the body indices, so equal runners on different machines produce
/// byte-identical partials.
#[derive(Debug, Clone)]
pub struct ShardRunner {
    config: FleetConfig,
    shard_index: usize,
    range: Range<usize>,
}

impl ShardRunner {
    /// Position of this shard in its plan.
    #[must_use]
    pub fn shard_index(&self) -> usize {
        self.shard_index
    }

    /// The body range this shard folds.
    #[must_use]
    pub fn range(&self) -> Range<usize> {
        self.range.clone()
    }

    /// Folds this shard's bodies into a partial aggregator.
    #[must_use]
    pub fn fold(&self, runner: &SweepRunner) -> FleetAggregator {
        let links = LinkCache::for_population(self.config.population());
        let mut partial = FleetAggregator::new(self.config.horizon(), self.config.top_k());
        self.config
            .fold_range(runner, &links, &mut partial, self.range.clone());
        partial
    }

    /// Folds this shard and wraps the partial as a transportable
    /// [`FleetCheckpoint`] (the `next_body` is the shard's range end), ready
    /// to ship to the coordinator for
    /// [`ShardPlan::merge_checkpoints`].
    #[must_use]
    pub fn checkpoint(&self, runner: &SweepRunner) -> FleetCheckpoint {
        FleetCheckpoint::capture(&self.config, &self.fold(runner), self.range.end)
    }
}
