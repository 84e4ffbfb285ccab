//! Versioned, std-only binary checkpoints of a fleet fold.
//!
//! A [`FleetCheckpoint`] snapshots a partial [`FleetAggregator`] — merged
//! latency sketches with their exact fixed-point sums, running totals, the
//! exact top-K worst bodies — plus the index of the next body to fold and a
//! fingerprint of the [`FleetConfig`] it belongs to.  Because scenario
//! sampling is a pure function of `(base_seed, body_index)` and the
//! aggregator is a commutative merge monoid, a checkpoint is all the state a
//! resume (or another machine) needs: [`FleetConfig::resume`] finishes the
//! fold byte-identical to an uninterrupted run, and completed shard
//! checkpoints merge into the same bytes the single stream produces.
//!
//! # Wire format (version 2)
//!
//! A [`sealed`] envelope with magic `b"HIDWAFLT"`; the body is big-endian
//! throughout.  The layout is documented normatively in `ARCHITECTURE.md`;
//! in short:
//!
//! ```text
//! config fingerprint              base_seed u64 · bodies u64 ·
//!                                 horizon f64-bits · top_k u32 ·
//!                                 churn fingerprint u64 (0 = no churn)
//! next_body u64
//! aggregator state                bodies u64 · generated u64 ·
//!                                 delivered u64 · delivered_bytes u64 ·
//!                                 events u64 · min_delivery_ratio f64 ·
//!                                 migrations u64 · replans u64 ·
//!                                 energy ExactSum · active ExactSum ·
//!                                 placement-energy ExactSum ·
//!                                 fleet sketch · body-p95 sketch ·
//!                                 worst list
//! ```
//!
//! Version 2 (PR 9) added the churn fingerprint to the config identity and
//! the migration / re-plan / active-span / placement-energy statistics to
//! the aggregator state and each retained body summary.  Version-1 blobs are
//! rejected with [`CheckpointError::UnsupportedVersion`] — re-fold rather
//! than guess zeroes for fields the old format never measured.
//!
//! Sketches and [`ExactSum`]s use their own codecs in
//! [`hidwa_netsim::sketch`].  [`FleetCheckpoint::load`] **never panics**:
//! truncated, bit-flipped, version-bumped or otherwise malformed bytes come
//! back as a typed [`CheckpointError`], and structural invariants (bucket
//! counts summing to sample counts, a sorted worst list, the per-body-p95
//! count matching the ingested body count) are re-validated so a checkpoint
//! that passes the checksum but violates the algebra is still rejected.

use super::{ranks_before, BodySummary, FleetAggregator, FleetConfig};
use crate::sealed::{self, take_f64, take_string, take_u32, take_u64, SealError};
use bytes::{BufMut, Bytes, BytesMut};
use hidwa_netsim::sketch::{ExactSum, LatencySketch, SketchCodecError};
use hidwa_units::{Energy, TimeSpan};
use std::sync::Arc;

/// Leading magic of every checkpoint blob.
const MAGIC: &[u8; 8] = b"HIDWAFLT";

/// Current checkpoint format version.
const VERSION: u16 = 2;

/// Why checkpoint bytes failed to load, or a loaded checkpoint failed to
/// resume.  Loading never panics and never silently mis-restores: every
/// malformed input maps to one of these variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The input ended before the encoded structure was complete.
    Truncated,
    /// The leading magic is not `b"HIDWAFLT"` — not a fleet checkpoint.
    BadMagic,
    /// The format version is one this build does not understand.
    UnsupportedVersion(u16),
    /// The bytes are structurally complete but fail the checksum or violate
    /// an aggregator invariant.
    Corrupt(&'static str),
    /// The checkpoint belongs to a different [`FleetConfig`] than the one
    /// asked to resume (or merge) it.
    ConfigMismatch(&'static str),
    /// The checkpoint is a shard partial (its ingested body count does not
    /// equal its next-body cursor, so it does not describe a `0..next_body`
    /// prefix) — mergeable via
    /// [`ShardPlan::merge_checkpoints`](super::ShardPlan::merge_checkpoints),
    /// but not resumable.
    NotResumable,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "checkpoint bytes truncated"),
            Self::BadMagic => write!(f, "not a fleet checkpoint (bad magic)"),
            Self::UnsupportedVersion(version) => {
                write!(f, "unsupported checkpoint version {version}")
            }
            Self::Corrupt(what) => write!(f, "checkpoint corrupt: {what}"),
            Self::ConfigMismatch(what) => {
                write!(f, "checkpoint belongs to a different fleet config: {what}")
            }
            Self::NotResumable => write!(
                f,
                "checkpoint is a shard partial, not a resumable 0..n prefix"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<SealError> for CheckpointError {
    fn from(error: SealError) -> Self {
        match error {
            SealError::Truncated => Self::Truncated,
            SealError::BadMagic => Self::BadMagic,
            SealError::UnsupportedVersion(version) => Self::UnsupportedVersion(version),
            SealError::Corrupt(what) => Self::Corrupt(what),
        }
    }
}

impl From<SketchCodecError> for CheckpointError {
    fn from(error: SketchCodecError) -> Self {
        match error {
            SketchCodecError::Truncated => Self::Truncated,
            SketchCodecError::Corrupt(what) => Self::Corrupt(what),
        }
    }
}

/// A resumable snapshot of a fleet fold: the partial aggregator, the next
/// body index, and the fingerprint of the configuration that produced it.
#[derive(Debug, Clone)]
pub struct FleetCheckpoint {
    base_seed: u64,
    bodies: u64,
    horizon: TimeSpan,
    top_k: u32,
    churn_fp: u64,
    next_body: u64,
    aggregator: FleetAggregator,
}

impl FleetCheckpoint {
    /// Captures the state of a fold over `config` with `aggregator` having
    /// ingested bodies up to (exclusive) `next_body`.
    #[must_use]
    pub fn capture(config: &FleetConfig, aggregator: &FleetAggregator, next_body: usize) -> Self {
        Self {
            base_seed: config.base_seed,
            bodies: config.bodies as u64,
            horizon: config.horizon,
            top_k: config.top_k as u32,
            churn_fp: config.churn_fingerprint(),
            next_body: next_body.min(config.bodies) as u64,
            aggregator: aggregator.clone(),
        }
    }

    /// Index of the first body the resumed fold will simulate.
    #[must_use]
    pub fn next_body(&self) -> usize {
        self.next_body as usize
    }

    /// Bodies the captured aggregator has already ingested.
    #[must_use]
    pub fn bodies_ingested(&self) -> usize {
        self.aggregator.bodies()
    }

    /// The captured partial aggregator.
    #[must_use]
    pub fn aggregator(&self) -> &FleetAggregator {
        &self.aggregator
    }

    /// Consumes the checkpoint into `(aggregator, next_body)`.
    #[must_use]
    pub fn into_parts(self) -> (FleetAggregator, usize) {
        (self.aggregator, self.next_body as usize)
    }

    /// Checks that the checkpoint was captured under `config`.
    ///
    /// # Errors
    /// [`CheckpointError::ConfigMismatch`] naming the first disagreeing
    /// field (bodies, base seed, horizon, top-K or churn spec).
    pub fn verify_config(&self, config: &FleetConfig) -> Result<(), CheckpointError> {
        if self.bodies != config.bodies as u64 {
            return Err(CheckpointError::ConfigMismatch("fleet size differs"));
        }
        if self.base_seed != config.base_seed {
            return Err(CheckpointError::ConfigMismatch("base seed differs"));
        }
        if self.horizon.as_seconds().to_bits() != config.horizon.as_seconds().to_bits() {
            return Err(CheckpointError::ConfigMismatch("horizon differs"));
        }
        if self.top_k != config.top_k as u32 {
            return Err(CheckpointError::ConfigMismatch("top-K differs"));
        }
        if self.churn_fp != config.churn_fingerprint() {
            return Err(CheckpointError::ConfigMismatch("churn spec differs"));
        }
        Ok(())
    }

    /// Serializes the checkpoint into a self-validating binary blob (see the
    /// module docs for the layout).
    #[must_use]
    pub fn save(&self) -> Bytes {
        let mut out = sealed::start(MAGIC, VERSION);
        out.put_u64(self.base_seed);
        out.put_u64(self.bodies);
        out.put_f64(self.horizon.as_seconds());
        out.put_u32(self.top_k);
        out.put_u64(self.churn_fp);
        out.put_u64(self.next_body);
        let aggregator = &self.aggregator;
        out.put_u64(aggregator.bodies as u64);
        out.put_u64(aggregator.total_generated as u64);
        out.put_u64(aggregator.total_delivered as u64);
        out.put_u64(aggregator.total_delivered_bytes as u64);
        out.put_u64(aggregator.total_events);
        out.put_f64(aggregator.min_body_delivery_ratio);
        out.put_u64(aggregator.total_migrations);
        out.put_u64(aggregator.total_replans);
        aggregator.total_energy.encode(&mut out);
        aggregator.active_span.encode(&mut out);
        aggregator.placement_energy.encode(&mut out);
        aggregator.fleet_latency.encode(&mut out);
        aggregator.body_p95.encode(&mut out);
        out.put_u32(aggregator.worst.len() as u32);
        for summary in &aggregator.worst {
            encode_summary(summary, &mut out);
        }
        sealed::seal(out)
    }

    /// Decodes and validates a checkpoint previously written by
    /// [`save`](Self::save).
    ///
    /// # Errors
    /// * [`CheckpointError::Truncated`] — the blob ends early,
    /// * [`CheckpointError::BadMagic`] — not a fleet checkpoint,
    /// * [`CheckpointError::UnsupportedVersion`] — written by a different
    ///   format revision,
    /// * [`CheckpointError::Corrupt`] — checksum mismatch, trailing bytes,
    ///   or any violated aggregator invariant (bit flips that survive the
    ///   checksum cannot survive the invariants).
    pub fn load(raw: &[u8]) -> Result<Self, CheckpointError> {
        let mut input = sealed::open(raw, MAGIC, VERSION, 0)?;
        let base_seed = take_u64(&mut input)?;
        let bodies = take_u64(&mut input)?;
        let horizon_seconds = take_f64(&mut input)?;
        if !(horizon_seconds.is_finite() && horizon_seconds >= 0.0) {
            return Err(CheckpointError::Corrupt("horizon not a finite duration"));
        }
        let top_k = take_u32(&mut input)?;
        if top_k == 0 {
            return Err(CheckpointError::Corrupt("top-K of zero"));
        }
        let churn_fp = take_u64(&mut input)?;
        let next_body = take_u64(&mut input)?;
        if next_body > bodies {
            return Err(CheckpointError::Corrupt("next body beyond the fleet"));
        }
        let ingested = take_u64(&mut input)?;
        let total_generated = take_u64(&mut input)?;
        let total_delivered = take_u64(&mut input)?;
        let total_delivered_bytes = take_u64(&mut input)?;
        let total_events = take_u64(&mut input)?;
        let min_body_delivery_ratio = take_f64(&mut input)?;
        if !min_body_delivery_ratio.is_finite() || !(0.0..=1.0).contains(&min_body_delivery_ratio) {
            return Err(CheckpointError::Corrupt("delivery ratio out of range"));
        }
        let total_migrations = take_u64(&mut input)?;
        let total_replans = take_u64(&mut input)?;
        if total_migrations > total_replans {
            return Err(CheckpointError::Corrupt(
                "more migrations than optimiser re-runs",
            ));
        }
        let total_energy = ExactSum::decode(&mut input)?;
        let active_span = ExactSum::decode(&mut input)?;
        let placement_energy = ExactSum::decode(&mut input)?;
        if active_span.to_f64() < 0.0 {
            return Err(CheckpointError::Corrupt("negative active span"));
        }
        if placement_energy.to_f64() < 0.0 {
            return Err(CheckpointError::Corrupt("negative placement energy"));
        }
        let fleet_latency = LatencySketch::decode(&mut input)?;
        let body_p95 = LatencySketch::decode(&mut input)?;
        let worst_len = take_u32(&mut input)? as usize;
        if worst_len > top_k as usize || worst_len as u64 > ingested {
            return Err(CheckpointError::Corrupt("worst list longer than allowed"));
        }
        let mut worst = Vec::with_capacity(worst_len);
        for _ in 0..worst_len {
            worst.push(decode_summary(&mut input)?);
        }
        sealed::finish(&input)?;
        // Cross-field invariants of the fold algebra.
        if body_p95.count() != ingested {
            return Err(CheckpointError::Corrupt(
                "per-body p95 count does not match ingested bodies",
            ));
        }
        if ingested > next_body {
            return Err(CheckpointError::Corrupt("more bodies ingested than folded"));
        }
        for pair in worst.windows(2) {
            if !ranks_before(&pair[0], &pair[1]) {
                return Err(CheckpointError::Corrupt("worst list out of order"));
            }
        }
        for summary in &worst {
            if summary.body_index as u64 >= bodies {
                return Err(CheckpointError::Corrupt("worst body outside the fleet"));
            }
        }
        let mut aggregator =
            FleetAggregator::new(TimeSpan::from_seconds(horizon_seconds), top_k as usize);
        aggregator.bodies = ingested as usize;
        aggregator.total_generated = total_generated as usize;
        aggregator.total_delivered = total_delivered as usize;
        aggregator.total_delivered_bytes = total_delivered_bytes as usize;
        aggregator.total_events = total_events;
        aggregator.min_body_delivery_ratio = min_body_delivery_ratio;
        aggregator.total_migrations = total_migrations;
        aggregator.total_replans = total_replans;
        aggregator.total_energy = total_energy;
        aggregator.active_span = active_span;
        aggregator.placement_energy = placement_energy;
        aggregator.fleet_latency = fleet_latency;
        aggregator.body_p95 = body_p95;
        aggregator.worst = worst;
        Ok(Self {
            base_seed,
            bodies,
            horizon: TimeSpan::from_seconds(horizon_seconds),
            top_k,
            churn_fp,
            next_body,
            aggregator,
        })
    }
}

fn encode_summary(summary: &BodySummary, out: &mut BytesMut) {
    out.put_u64(summary.body_index as u64);
    out.put_u64(summary.seed);
    sealed::put_string(out, &summary.archetype);
    out.put_u64(summary.nodes as u64);
    out.put_u64(summary.generated_frames as u64);
    out.put_u64(summary.delivered_frames as u64);
    out.put_u64(summary.delivered_bytes as u64);
    out.put_u64(summary.events_processed);
    out.put_f64(summary.delivery_ratio);
    out.put_f64(summary.total_energy.as_joules());
    out.put_f64(summary.worst_p95_latency.as_seconds());
    out.put_f64(summary.active_span.as_seconds());
    out.put_u64(summary.migrations);
    out.put_u64(summary.replans);
    out.put_f64(summary.placement_energy.as_joules());
    summary.latency.encode(out);
}

fn decode_summary(input: &mut Bytes) -> Result<BodySummary, CheckpointError> {
    let body_index = take_u64(input)?;
    let seed = take_u64(input)?;
    let label = take_string(input)?;
    let nodes = take_u64(input)?;
    let generated_frames = take_u64(input)?;
    let delivered_frames = take_u64(input)?;
    let delivered_bytes = take_u64(input)?;
    let events_processed = take_u64(input)?;
    let delivery_ratio = take_f64(input)?;
    if !delivery_ratio.is_finite() || !(0.0..=1.0).contains(&delivery_ratio) {
        return Err(CheckpointError::Corrupt("body delivery ratio out of range"));
    }
    let energy_joules = take_f64(input)?;
    if !energy_joules.is_finite() || energy_joules < 0.0 {
        return Err(CheckpointError::Corrupt("body energy not a finite amount"));
    }
    let worst_p95_seconds = take_f64(input)?;
    if !worst_p95_seconds.is_finite() || worst_p95_seconds < 0.0 {
        return Err(CheckpointError::Corrupt("body p95 not a finite latency"));
    }
    let active_seconds = take_f64(input)?;
    if !active_seconds.is_finite() || active_seconds < 0.0 {
        return Err(CheckpointError::Corrupt("body active span not finite"));
    }
    let migrations = take_u64(input)?;
    let replans = take_u64(input)?;
    if migrations > replans {
        return Err(CheckpointError::Corrupt(
            "body migrations exceed optimiser re-runs",
        ));
    }
    let placement_joules = take_f64(input)?;
    if !placement_joules.is_finite() || placement_joules < 0.0 {
        return Err(CheckpointError::Corrupt(
            "body placement energy not a finite amount",
        ));
    }
    let latency = LatencySketch::decode(input)?;
    if latency.count() != delivered_frames {
        return Err(CheckpointError::Corrupt(
            "body sketch count does not match delivered frames",
        ));
    }
    Ok(BodySummary {
        body_index: body_index as usize,
        seed,
        archetype: Arc::from(label.as_str()),
        nodes: nodes as usize,
        generated_frames: generated_frames as usize,
        delivered_frames: delivered_frames as usize,
        delivered_bytes: delivered_bytes as usize,
        events_processed,
        delivery_ratio,
        total_energy: Energy::from_joules(energy_joules),
        worst_p95_latency: TimeSpan::from_seconds(worst_p95_seconds),
        latency,
        active_span: TimeSpan::from_seconds(active_seconds),
        migrations,
        replans,
        placement_energy: Energy::from_joules(placement_joules),
    })
}
