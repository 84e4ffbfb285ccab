//! Fleet-scale configuration search: a resumable experimentation harness
//! over exact fleet folds.
//!
//! PR 4–9 made a fleet fold an *exact, mergeable, checkpointable* value.
//! This module closes the loop (ROADMAP direction 4) and treats each fold
//! as one evaluation of an objective: an [`ObjectiveSpace`] describes a
//! discrete grid over (MAC policy × partition objective × radio class ×
//! traffic scaling × churn policy), an [`Evaluation`] folds one grid point
//! through the existing [`FleetConfig`](crate::fleet::FleetConfig) /
//! [`fleet::driver`](crate::fleet::driver) path and extracts a
//! scalar-vector [`EvaluationOutcome`] (fleet energy, worst-body p95,
//! migration rate), and a [`SearchDriver`] runs an exhaustive-grid or
//! coordinate-descent [`SearchStrategy`] over the
//! [`SweepRunner`].
//!
//! # Determinism and resumability
//!
//! Every evaluation routes through [`FleetDriver`], so a single grid point
//! is already byte-identical across thread widths, shard layouts and
//! process boundaries, and its fleet blobs spool under
//! `<root>/<run_fingerprint>/`.  The search layer adds one more file to
//! that spool root — `search.ckpt`, a versioned, FNV-sealed index of
//! completed evaluations and their fleet-state fingerprints — so a search
//! killed mid-grid resumes by replaying cache hits instead of re-folding
//! fleets, and a coordinate descent that revisits a grid point hits the
//! completed-evaluation index rather than evaluating twice.
//!
//! # Search-checkpoint wire format (`HIDWASRC`, version 1)
//!
//! A [`sealed`] envelope (magic at offset 0, version 1 at offset 8, the
//! seal in the last 8 bytes).  All integers big-endian; every `f64` crosses
//! as raw IEEE-754 bits.  The body:
//!
//! | offset    | size  | field                                             |
//! |-----------|-------|---------------------------------------------------|
//! | 10        | 8     | search-spec fingerprint (`u64`)                   |
//! | 18        | 8     | grid length (`u64`)                               |
//! | 26        | 8     | completed-evaluation count `n` (`u64`)            |
//! | 34        | 40·n  | records, strictly ascending by grid point         |
//!
//! Each 40-byte record is `point u64`, `fleet energy J f64-bits`,
//! `worst-body p95 s f64-bits`, `migration rate f64-bits`,
//! `fleet-state FNV-1a 64` (the digest of the evaluation's merged
//! [`FleetCheckpoint`](crate::fleet::FleetCheckpoint) blob).  The spec
//! fingerprint covers the base fleet spec *and* every grid axis — but not
//! the shard count or thread width, which are execution knobs — so resuming
//! under a different grid or fleet is refused with
//! [`SearchCheckpointError::SpecMismatch`], while resuming under a
//! different parallelism layout replays exactly.
//!
//! [`FleetDriver`]: crate::fleet::driver::FleetDriver

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

use hidwa_netsim::mac::MacPolicy;
use hidwa_phy::RadioTechnology;

use crate::flags::Tag;
use crate::fleet::driver::{
    run_fingerprint, DriverError, DriverFleetSpec, FleetDriver, ShardExecutor,
};
use crate::fleet::placement::{ChurnSpec, PolicyKind};
use crate::fleet::FleetReport;
use crate::partition::Objective;
use crate::sealed::{self, fnv1a64, take_u64, SealError};
use crate::sweep::SweepRunner;
use bytes::{Buf, BufMut};

/// File name of the search checkpoint inside the spool root.
pub const CHECKPOINT_FILE: &str = "search.ckpt";

const MAGIC: &[u8; 8] = b"HIDWASRC";
const VERSION: u16 = 1;
/// Spec fingerprint + grid length + count.
const HEADER: usize = 3 * 8;
/// Point + three f64-bit metrics + fleet-state fingerprint.
const RECORD: usize = 5 * 8;

/// The discrete grid the search walks: one axis per fleet-level knob, the
/// grid being their cartesian product.  Axis values are deduplicated and
/// every axis always holds at least one value, so [`len`](Self::len) is
/// never zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectiveSpace {
    mac: Vec<MacPolicy>,
    objective: Vec<Objective>,
    radio: Vec<RadioTechnology>,
    traffic_scale_bits: Vec<u64>,
    churn_policy: Vec<PolicyKind>,
}

impl ObjectiveSpace {
    /// The single-point space: polling MAC, leaf-energy objective, Wi-R,
    /// unit traffic, static-at-admission placement.
    #[must_use]
    pub fn new() -> Self {
        Self {
            mac: vec![MacPolicy::Polling],
            objective: vec![Objective::LeafEnergy],
            radio: vec![RadioTechnology::WiR],
            traffic_scale_bits: vec![1.0f64.to_bits()],
            churn_policy: vec![PolicyKind::StaticAtAdmission],
        }
    }

    /// The 32-point grid the `fleet_search` bench walks: both MAC policies,
    /// the energy and energy-delay objectives, Wi-R vs BLE, 1× vs 2×
    /// offered load, static vs hysteresis placement.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new()
            .with_mac_axis(&[MacPolicy::Polling, MacPolicy::Tdma])
            .with_objective_axis(&[Objective::LeafEnergy, Objective::EnergyDelayProduct])
            .with_radio_axis(&[RadioTechnology::WiR, RadioTechnology::Ble])
            .with_traffic_scale_axis(&[1.0, 2.0])
            .with_churn_policy_axis(&[PolicyKind::StaticAtAdmission, PolicyKind::Hysteresis])
    }

    /// Replaces the MAC-policy axis.  Duplicates are dropped (first
    /// occurrence wins); an empty slice leaves the axis unchanged.
    #[must_use]
    pub fn with_mac_axis(mut self, values: &[MacPolicy]) -> Self {
        if let Some(axis) = dedup_axis(values) {
            self.mac = axis;
        }
        self
    }

    /// Replaces the partition-objective axis (same slice rules as
    /// [`with_mac_axis`](Self::with_mac_axis)).  The axis only reaches the
    /// fold through the churn re-optimiser, so on a churn-free base spec it
    /// is inert: its points evaluate to identical fleets.
    #[must_use]
    pub fn with_objective_axis(mut self, values: &[Objective]) -> Self {
        if let Some(axis) = dedup_axis(values) {
            self.objective = axis;
        }
        self
    }

    /// Replaces the radio-technology axis (same slice rules as
    /// [`with_mac_axis`](Self::with_mac_axis)).
    #[must_use]
    pub fn with_radio_axis(mut self, values: &[RadioTechnology]) -> Self {
        if let Some(axis) = dedup_axis(values) {
            self.radio = axis;
        }
        self
    }

    /// Replaces the traffic-scaling axis.  Factors that are not finite and
    /// positive are dropped; duplicates (by bit pattern) are dropped; if
    /// nothing survives the axis is unchanged.
    #[must_use]
    pub fn with_traffic_scale_axis(mut self, factors: &[f64]) -> Self {
        let bits: Vec<u64> = factors
            .iter()
            .filter(|f| f.is_finite() && **f > 0.0)
            .map(|f| f.to_bits())
            .collect();
        if let Some(axis) = dedup_axis(&bits) {
            self.traffic_scale_bits = axis;
        }
        self
    }

    /// Replaces the churn-policy axis (same slice rules as
    /// [`with_mac_axis`](Self::with_mac_axis)).  Like the objective axis it
    /// is inert on a churn-free base spec.
    #[must_use]
    pub fn with_churn_policy_axis(mut self, values: &[PolicyKind]) -> Self {
        if let Some(axis) = dedup_axis(values) {
            self.churn_policy = axis;
        }
        self
    }

    /// Number of grid points (product of the axis lengths, never zero).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.dims().iter().map(|&d| d as u64).product()
    }

    /// Whether the space is empty — by construction it never is; provided
    /// because clippy insists every `len` has an `is_empty`.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Axis lengths in decode order (MAC outermost, churn policy
    /// innermost).
    #[must_use]
    pub fn dims(&self) -> [usize; 5] {
        [
            self.mac.len(),
            self.objective.len(),
            self.radio.len(),
            self.traffic_scale_bits.len(),
            self.churn_policy.len(),
        ]
    }

    /// The grid point at `index` (mixed-radix decode; MAC is the outermost
    /// digit, churn policy the innermost).
    ///
    /// # Panics
    /// If `index >= self.len()`.
    #[must_use]
    pub fn point(&self, index: u64) -> GridPoint {
        let coords = self.coords(index);
        GridPoint {
            index,
            mac: self.mac[coords[0]],
            objective: self.objective[coords[1]],
            radio: self.radio[coords[2]],
            traffic_scale_bits: self.traffic_scale_bits[coords[3]],
            churn_policy: self.churn_policy[coords[4]],
        }
    }

    /// The grid index of an axis-coordinate tuple (inverse of the decode in
    /// [`point`](Self::point)).
    ///
    /// # Panics
    /// If any coordinate is outside its axis.
    #[must_use]
    pub fn index_of(&self, coords: [usize; 5]) -> u64 {
        let dims = self.dims();
        let mut index = 0u64;
        for axis in 0..5 {
            assert!(
                coords[axis] < dims[axis],
                "coordinate {} out of range on axis {axis}",
                coords[axis]
            );
            index = index * dims[axis] as u64 + coords[axis] as u64;
        }
        index
    }

    /// The axis coordinates of grid point `index`.
    ///
    /// # Panics
    /// If `index >= self.len()`.
    #[must_use]
    pub fn coords(&self, index: u64) -> [usize; 5] {
        assert!(index < self.len(), "grid index {index} out of range");
        let dims = self.dims();
        let mut rest = index;
        let mut coords = [0usize; 5];
        for axis in (0..5).rev() {
            let radix = dims[axis] as u64;
            coords[axis] = (rest % radix) as usize;
            rest /= radix;
        }
        coords
    }

    /// Canonical byte encoding of the axes, fed into the search-spec
    /// fingerprint.
    fn encode_axes(&self, bytes: &mut Vec<u8>) {
        /// A tagged axis: its length, then each value's tag and a NUL.
        fn put_tags<T: Tag>(bytes: &mut Vec<u8>, axis: &[T]) {
            bytes.extend_from_slice(&(axis.len() as u64).to_be_bytes());
            for value in axis {
                bytes.extend_from_slice(value.tag().as_bytes());
                bytes.push(0);
            }
        }
        put_tags(bytes, &self.mac);
        put_tags(bytes, &self.objective);
        put_tags(bytes, &self.radio);
        bytes.extend_from_slice(&(self.traffic_scale_bits.len() as u64).to_be_bytes());
        for &bits in &self.traffic_scale_bits {
            bytes.extend_from_slice(&bits.to_be_bytes());
        }
        put_tags(bytes, &self.churn_policy);
    }
}

impl Default for ObjectiveSpace {
    fn default() -> Self {
        Self::new()
    }
}

/// Deduplicated copy of an axis slice, or `None` when nothing survives.
fn dedup_axis<T: PartialEq + Copy>(values: &[T]) -> Option<Vec<T>> {
    let mut axis: Vec<T> = Vec::with_capacity(values.len());
    for &value in values {
        if !axis.contains(&value) {
            axis.push(value);
        }
    }
    if axis.is_empty() {
        None
    } else {
        Some(axis)
    }
}

/// One point of an [`ObjectiveSpace`]: its grid index plus the concrete
/// value on every axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridPoint {
    /// Position in the grid's mixed-radix enumeration.
    pub index: u64,
    /// Medium-access policy for every body in the fleet.
    pub mac: MacPolicy,
    /// Partition objective the churn re-optimiser minimises.
    pub objective: Objective,
    /// Leaf radio technology for every body.
    pub radio: RadioTechnology,
    /// Traffic scaling factor as raw `f64` bits (offered-load multiplier).
    pub traffic_scale_bits: u64,
    /// Placement policy under churn.
    pub churn_policy: PolicyKind,
}

impl GridPoint {
    /// The traffic scaling factor as a float.
    #[must_use]
    pub fn traffic_scale(&self) -> f64 {
        f64::from_bits(self.traffic_scale_bits)
    }

    /// A compact human-readable label (`mac/objective/radio/scale/policy`).
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}x/{}",
            self.mac.tag(),
            self.objective.tag(),
            self.radio.tag(),
            self.traffic_scale(),
            self.churn_policy.tag()
        )
    }
}

/// A search problem: the base fleet every grid point perturbs, the grid
/// itself, and the shard count each evaluation's [`FleetDriver`] uses.
///
/// The base spec's own MAC/radio/traffic-scale overrides are *replaced* by
/// the grid point's values; its churn spec (if any) is the template whose
/// policy and objective the grid perturbs.  A churn-free base makes the
/// policy and objective axes inert (documented on the axis builders).
#[derive(Debug, Clone)]
pub struct SearchSpec {
    base: DriverFleetSpec,
    space: ObjectiveSpace,
    shards: usize,
}

impl SearchSpec {
    /// A search over `space` rooted at `base`, one shard per evaluation.
    #[must_use]
    pub fn new(base: DriverFleetSpec, space: ObjectiveSpace) -> Self {
        Self {
            base,
            space,
            shards: 1,
        }
    }

    /// Sets the shard count each evaluation's fleet driver splits into
    /// (clamped to at least 1).  An execution knob: not part of the search
    /// fingerprint, invisible in every outcome.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// The base fleet spec.
    #[must_use]
    pub fn base(&self) -> &DriverFleetSpec {
        &self.base
    }

    /// The grid.
    #[must_use]
    pub fn space(&self) -> &ObjectiveSpace {
        &self.space
    }

    /// Shard count per evaluation.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Materializes grid point `index` as a runnable [`Evaluation`].
    ///
    /// # Panics
    /// If `index >= self.space().len()`.
    #[must_use]
    pub fn evaluation(&self, index: u64) -> Evaluation {
        let point = self.space.point(index);
        let mut spec = self
            .base
            .clone()
            .with_mac(point.mac)
            .with_radio(point.radio)
            .with_traffic_scale(point.traffic_scale());
        if let Some(template) = self.base.churn() {
            let churn = ChurnSpec::new(template.churn().clone(), point.churn_policy)
                .with_objective(point.objective)
                .with_hysteresis_threshold(template.hysteresis_threshold())
                .with_migration_cost(template.migration_cost());
            spec = spec.with_churn(churn);
        }
        Evaluation { point, spec }
    }

    /// FNV-1a 64 fingerprint of the search identity: the base fleet spec
    /// (via [`run_fingerprint`] with no boundaries) plus every grid axis.
    /// Shard counts and thread widths are excluded — they are execution
    /// knobs, and a checkpoint must resume across them.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(128);
        bytes.extend_from_slice(run_fingerprint(&self.base, &[]).as_bytes());
        bytes.push(0);
        self.space.encode_axes(&mut bytes);
        fnv1a64(&bytes)
    }
}

/// One grid point bound to the concrete [`DriverFleetSpec`] it folds.
#[derive(Debug, Clone)]
pub struct Evaluation {
    point: GridPoint,
    spec: DriverFleetSpec,
}

impl Evaluation {
    /// The grid point this evaluation realises.
    #[must_use]
    pub fn point(&self) -> GridPoint {
        self.point
    }

    /// The concrete fleet spec (base spec with the point's overrides
    /// applied).
    #[must_use]
    pub fn spec(&self) -> &DriverFleetSpec {
        &self.spec
    }

    /// Folds the fleet in-process on `runner` — the single-stream reference
    /// path the identity tests compare the driver path against.
    #[must_use]
    pub fn run(&self, runner: &SweepRunner) -> EvaluationOutcome {
        let config = self.spec.to_config();
        let checkpoint = config.run_until(runner, config.bodies());
        let state_fp = sealed::digest(&checkpoint.save());
        let (aggregator, _) = checkpoint.into_parts();
        EvaluationOutcome::from_report(self.point.index, &aggregator.finish(), state_fp)
    }

    /// Folds the fleet through a [`FleetDriver`] split into `shards`,
    /// spooling blobs under `<spool_root>/<run_fingerprint>/` — the path
    /// every [`SearchDriver`] evaluation takes, so a search inherits the
    /// driver's fault recovery and blob reuse.
    ///
    /// # Errors
    /// [`SearchError::Spool`] when the spool directory cannot be created;
    /// [`SearchError::Driver`] when the fleet driver exhausts its recovery
    /// budget or hits a non-recoverable fault.
    pub fn run_with_driver(
        &self,
        shards: usize,
        executor: &dyn ShardExecutor,
        spool_root: &Path,
    ) -> Result<EvaluationOutcome, SearchError> {
        let driver = FleetDriver::new(self.spec.clone(), shards);
        let transport = driver.spool_in(spool_root)?;
        let run = driver.run(executor, &transport)?;
        let state_fp = sealed::digest(&run.merged_state().save());
        Ok(EvaluationOutcome::from_report(
            self.point.index,
            run.report(),
            state_fp,
        ))
    }
}

/// The scalar-vector outcome of one evaluation, with every float held as
/// raw bits so outcomes compare, order and serialize bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvaluationOutcome {
    point: u64,
    energy_j_bits: u64,
    worst_p95_s_bits: u64,
    migration_rate_bits: u64,
    state_fp: u64,
}

impl EvaluationOutcome {
    /// Extracts the outcome vector from a finished fleet report.
    #[must_use]
    pub fn from_report(point: u64, report: &FleetReport, state_fp: u64) -> Self {
        Self {
            point,
            energy_j_bits: report.total_energy().as_joules().to_bits(),
            worst_p95_s_bits: report.body_worst_p95_quantile(1.0).as_seconds().to_bits(),
            migration_rate_bits: report.migration_rate().to_bits(),
            state_fp,
        }
    }

    /// Grid index of the evaluated point.
    #[must_use]
    pub fn point(&self) -> u64 {
        self.point
    }

    /// Total fleet energy over the horizon, joules.
    #[must_use]
    pub fn energy_j(&self) -> f64 {
        f64::from_bits(self.energy_j_bits)
    }

    /// The worst body's p95 delivery latency, seconds.
    #[must_use]
    pub fn worst_p95_s(&self) -> f64 {
        f64::from_bits(self.worst_p95_s_bits)
    }

    /// Fleet-wide migrations per optimiser re-run.
    #[must_use]
    pub fn migration_rate(&self) -> f64 {
        f64::from_bits(self.migration_rate_bits)
    }

    /// FNV-1a 64 digest of the evaluation's merged fleet-checkpoint blob —
    /// the byte-identity witness the determinism tests compare across
    /// widths, shards and processes.
    #[must_use]
    pub fn state_fp(&self) -> u64 {
        self.state_fp
    }

    /// Pareto dominance on (energy, worst-body p95): no worse on both axes
    /// and strictly better on at least one.
    #[must_use]
    pub fn dominates(&self, other: &Self) -> bool {
        let e = (self.energy_j(), other.energy_j());
        let p = (self.worst_p95_s(), other.worst_p95_s());
        e.0 <= e.1 && p.0 <= p.1 && (e.0 < e.1 || p.0 < p.1)
    }
}

/// Total order coordinate descent uses to pick the best point along an
/// axis: scalarised energy·(p95 + ε), ties broken by energy, then p95,
/// then grid index — all via `total_cmp`, so the order is deterministic
/// for every float pattern.
fn descent_cmp(a: &EvaluationOutcome, b: &EvaluationOutcome) -> std::cmp::Ordering {
    let scalar = |o: &EvaluationOutcome| o.energy_j() * (o.worst_p95_s() + 1e-9);
    scalar(a)
        .total_cmp(&scalar(b))
        .then(a.energy_j().total_cmp(&b.energy_j()))
        .then(a.worst_p95_s().total_cmp(&b.worst_p95_s()))
        .then(a.point.cmp(&b.point))
}

/// The ranked Pareto frontier of `outcomes` on (energy, worst-body p95):
/// non-dominated points, sorted by energy ascending, ties by p95 then grid
/// index.
#[must_use]
pub fn pareto_frontier(outcomes: &[EvaluationOutcome]) -> Vec<EvaluationOutcome> {
    let mut frontier: Vec<EvaluationOutcome> = outcomes
        .iter()
        .filter(|candidate| !outcomes.iter().any(|other| other.dominates(candidate)))
        .copied()
        .collect();
    frontier.sort_by(|a, b| {
        a.energy_j()
            .total_cmp(&b.energy_j())
            .then(a.worst_p95_s().total_cmp(&b.worst_p95_s()))
            .then(a.point.cmp(&b.point))
    });
    frontier
}

/// Typed failures of the search-checkpoint codec, mirroring
/// [`CheckpointError`](crate::fleet::CheckpointError) for the fleet format:
/// corruption decodes to an error, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchCheckpointError {
    /// The blob ends before the envelope or a declared record.
    Truncated,
    /// The first eight bytes are not `"HIDWASRC"`.
    BadMagic,
    /// Written by a different format revision.
    UnsupportedVersion(u16),
    /// The seal or a structural invariant failed.
    Corrupt(&'static str),
    /// The checkpoint belongs to a different search (base fleet or grid).
    SpecMismatch(&'static str),
}

impl fmt::Display for SearchCheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "search checkpoint truncated"),
            Self::BadMagic => write!(f, "not a search checkpoint (bad magic)"),
            Self::UnsupportedVersion(version) => {
                write!(f, "unsupported search checkpoint version {version}")
            }
            Self::Corrupt(reason) => write!(f, "corrupt search checkpoint: {reason}"),
            Self::SpecMismatch(reason) => {
                write!(f, "checkpoint from a different search: {reason}")
            }
        }
    }
}

impl std::error::Error for SearchCheckpointError {}

impl From<SealError> for SearchCheckpointError {
    fn from(error: SealError) -> Self {
        match error {
            SealError::Truncated => Self::Truncated,
            SealError::BadMagic => Self::BadMagic,
            SealError::UnsupportedVersion(version) => Self::UnsupportedVersion(version),
            SealError::Corrupt(what) => Self::Corrupt(what),
        }
    }
}

/// The versioned, FNV-sealed index of completed evaluations — the search
/// layer's unit of resumability (see the module docs for the wire format).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchCheckpoint {
    spec_fp: u64,
    grid_len: u64,
    completed: BTreeMap<u64, EvaluationOutcome>,
}

impl SearchCheckpoint {
    /// An empty index bound to `spec`'s fingerprint and grid length.
    #[must_use]
    pub fn new(spec: &SearchSpec) -> Self {
        Self {
            spec_fp: spec.fingerprint(),
            grid_len: spec.space().len(),
            completed: BTreeMap::new(),
        }
    }

    /// The search-spec fingerprint this index was captured under.
    #[must_use]
    pub fn spec_fp(&self) -> u64 {
        self.spec_fp
    }

    /// The grid length this index was captured under.
    #[must_use]
    pub fn grid_len(&self) -> u64 {
        self.grid_len
    }

    /// Number of completed evaluations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.completed.len()
    }

    /// Whether no evaluation has completed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty()
    }

    /// The completed outcome at grid `point`, if any.
    #[must_use]
    pub fn get(&self, point: u64) -> Option<&EvaluationOutcome> {
        self.completed.get(&point)
    }

    /// All completed evaluations, keyed and ordered by grid point.
    #[must_use]
    pub fn completed(&self) -> &BTreeMap<u64, EvaluationOutcome> {
        &self.completed
    }

    /// Records a completed evaluation (idempotent for identical outcomes).
    ///
    /// # Panics
    /// If the outcome's point lies outside the grid.
    pub fn record(&mut self, outcome: EvaluationOutcome) {
        assert!(
            outcome.point < self.grid_len,
            "outcome for point {} outside the {}-point grid",
            outcome.point,
            self.grid_len
        );
        self.completed.insert(outcome.point, outcome);
    }

    /// Refuses a checkpoint captured under a different search identity.
    ///
    /// # Errors
    /// [`SearchCheckpointError::SpecMismatch`] naming the differing field.
    pub fn verify_spec(&self, spec: &SearchSpec) -> Result<(), SearchCheckpointError> {
        if self.grid_len != spec.space().len() {
            return Err(SearchCheckpointError::SpecMismatch("grid length differs"));
        }
        if self.spec_fp != spec.fingerprint() {
            return Err(SearchCheckpointError::SpecMismatch(
                "base fleet or grid axes differ",
            ));
        }
        Ok(())
    }

    /// Serializes the index into a self-validating blob (module docs hold
    /// the layout).
    #[must_use]
    pub fn save(&self) -> Vec<u8> {
        let mut out = sealed::start(MAGIC, VERSION);
        out.put_u64(self.spec_fp);
        out.put_u64(self.grid_len);
        out.put_u64(self.completed.len() as u64);
        for outcome in self.completed.values() {
            out.put_u64(outcome.point);
            out.put_u64(outcome.energy_j_bits);
            out.put_u64(outcome.worst_p95_s_bits);
            out.put_u64(outcome.migration_rate_bits);
            out.put_u64(outcome.state_fp);
        }
        sealed::seal(out).to_vec()
    }

    /// Decodes and validates a blob previously written by
    /// [`save`](Self::save).
    ///
    /// # Errors
    /// * [`SearchCheckpointError::Truncated`] — the blob ends early,
    /// * [`SearchCheckpointError::BadMagic`] — not a search checkpoint,
    /// * [`SearchCheckpointError::UnsupportedVersion`] — a different
    ///   format revision,
    /// * [`SearchCheckpointError::Corrupt`] — seal mismatch, trailing
    ///   bytes, or any violated index invariant (records out of order,
    ///   points outside the grid, non-finite metrics).
    pub fn load(raw: &[u8]) -> Result<Self, SearchCheckpointError> {
        let mut body = sealed::open(raw, MAGIC, VERSION, HEADER)?;
        let spec_fp = take_u64(&mut body)?;
        let grid_len = take_u64(&mut body)?;
        let count = take_u64(&mut body)?;
        if count > grid_len {
            return Err(SearchCheckpointError::Corrupt(
                "more evaluations than grid points",
            ));
        }
        let records = usize::try_from(count)
            .ok()
            .and_then(|count| count.checked_mul(RECORD))
            .ok_or(SearchCheckpointError::Corrupt("record count overflows"))?;
        if body.remaining() < records {
            return Err(SearchCheckpointError::Truncated);
        }
        let mut completed = BTreeMap::new();
        let mut previous: Option<u64> = None;
        for _ in 0..count {
            let point = take_u64(&mut body)?;
            if point >= grid_len {
                return Err(SearchCheckpointError::Corrupt("point outside the grid"));
            }
            if previous.is_some_and(|previous| point <= previous) {
                return Err(SearchCheckpointError::Corrupt("records out of order"));
            }
            previous = Some(point);
            let outcome = EvaluationOutcome {
                point,
                energy_j_bits: take_u64(&mut body)?,
                worst_p95_s_bits: take_u64(&mut body)?,
                migration_rate_bits: take_u64(&mut body)?,
                state_fp: take_u64(&mut body)?,
            };
            for (value, reason) in [
                (outcome.energy_j(), "energy not finite and non-negative"),
                (outcome.worst_p95_s(), "p95 not finite and non-negative"),
                (
                    outcome.migration_rate(),
                    "migration rate not finite and non-negative",
                ),
            ] {
                if !(value.is_finite() && value >= 0.0) {
                    return Err(SearchCheckpointError::Corrupt(reason));
                }
            }
            completed.insert(point, outcome);
        }
        sealed::finish(&body)?;
        Ok(Self {
            spec_fp,
            grid_len,
            completed,
        })
    }
}

/// How the driver walks the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Every grid point, in index order.
    ExhaustiveGrid,
    /// Greedy coordinate descent from the grid origin: scan one axis at a
    /// time (all values, other coordinates fixed), move to the best point
    /// under the scalarised rank, and stop after a full round without a
    /// move or after `max_rounds` rounds.  Revisited points — the current
    /// point appears in every scan of every axis — hit the
    /// completed-evaluation index instead of re-folding.
    CoordinateDescent {
        /// Upper bound on full axis-sweep rounds.
        max_rounds: usize,
    },
}

/// Failures of a search run.
#[derive(Debug)]
pub enum SearchError {
    /// Spool-root or checkpoint-file I/O failed.
    Spool(std::io::Error),
    /// An evaluation's fleet driver failed past its recovery budget.
    Driver(DriverError),
    /// The on-disk search checkpoint is invalid or from a different search.
    Checkpoint(SearchCheckpointError),
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Spool(error) => write!(f, "search spool I/O failed: {error}"),
            Self::Driver(error) => write!(f, "evaluation failed: {error}"),
            Self::Checkpoint(error) => write!(f, "search checkpoint rejected: {error}"),
        }
    }
}

impl std::error::Error for SearchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Spool(error) => Some(error),
            Self::Driver(error) => Some(error),
            Self::Checkpoint(error) => Some(error),
        }
    }
}

impl From<std::io::Error> for SearchError {
    fn from(error: std::io::Error) -> Self {
        Self::Spool(error)
    }
}

impl From<DriverError> for SearchError {
    fn from(error: DriverError) -> Self {
        Self::Driver(error)
    }
}

impl From<SearchCheckpointError> for SearchError {
    fn from(error: SearchCheckpointError) -> Self {
        Self::Checkpoint(error)
    }
}

/// The result of one [`SearchDriver::run`]: the outcomes the strategy
/// requested, their Pareto frontier, and the replay-exact evaluation
/// accounting the cache tests assert on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchRun {
    evaluations: Vec<EvaluationOutcome>,
    frontier: Vec<EvaluationOutcome>,
    requests: usize,
    folds: usize,
    cache_hits: usize,
    resumed: usize,
    complete: bool,
}

impl SearchRun {
    /// Every outcome the strategy requested and the index holds, in grid
    /// order.
    #[must_use]
    pub fn evaluations(&self) -> &[EvaluationOutcome] {
        &self.evaluations
    }

    /// The ranked Pareto frontier (energy ascending) over
    /// [`evaluations`](Self::evaluations).
    #[must_use]
    pub fn frontier(&self) -> &[EvaluationOutcome] {
        &self.frontier
    }

    /// Grid-point requests the strategy issued (revisits included).
    #[must_use]
    pub fn requests(&self) -> usize {
        self.requests
    }

    /// Fleet folds this run actually executed.
    #[must_use]
    pub fn folds(&self) -> usize {
        self.folds
    }

    /// Requests satisfied by the completed-evaluation index without a fold
    /// (revisits within this run plus replays of resumed evaluations).
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// Requested evaluations that were already complete when the run
    /// started (the resume case).
    #[must_use]
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// Whether the strategy ran to its natural end (false when an
    /// evaluation budget exhausted first).
    #[must_use]
    pub fn complete(&self) -> bool {
        self.complete
    }
}

/// Orchestrates a [`SearchStrategy`] over a [`SearchSpec`]: batches of
/// evaluations fan out over the [`SweepRunner`], every fold goes through a
/// [`FleetDriver`], and the sealed index under
/// `<root>/`[`CHECKPOINT_FILE`] advances after every batch, so killing the
/// coordinator at any point loses at most one in-flight batch.
#[derive(Debug, Clone)]
pub struct SearchDriver {
    spec: SearchSpec,
    strategy: SearchStrategy,
}

impl SearchDriver {
    /// A driver running `strategy` over `spec`.
    #[must_use]
    pub fn new(spec: SearchSpec, strategy: SearchStrategy) -> Self {
        Self { spec, strategy }
    }

    /// The search spec.
    #[must_use]
    pub fn spec(&self) -> &SearchSpec {
        &self.spec
    }

    /// The strategy.
    #[must_use]
    pub fn strategy(&self) -> SearchStrategy {
        self.strategy
    }

    /// Where the search checkpoint lives under `root`.
    #[must_use]
    pub fn checkpoint_path(root: &Path) -> PathBuf {
        root.join(CHECKPOINT_FILE)
    }

    /// Runs the strategy to completion, resuming from `<root>/search.ckpt`
    /// when present.
    ///
    /// # Errors
    /// See [`run_with_budget`](Self::run_with_budget).
    pub fn run(
        &self,
        runner: &SweepRunner,
        executor: &dyn ShardExecutor,
        root: &Path,
    ) -> Result<SearchRun, SearchError> {
        self.run_with_budget(runner, executor, root, None)
    }

    /// Runs the strategy, executing at most `budget` *new* fleet folds
    /// (cache hits are free).  A `Some(k)` budget is the deterministic
    /// stand-in for a coordinator killed after `k` evaluations: the run
    /// returns partial (`complete() == false`) once the budget is spent,
    /// and a later unbudgeted run on the same root resumes from the index
    /// and finishes the identical search.
    ///
    /// # Errors
    /// [`SearchError::Spool`] for root/checkpoint I/O;
    /// [`SearchError::Checkpoint`] for an invalid or foreign on-disk index;
    /// [`SearchError::Driver`] when an evaluation fails past the fleet
    /// driver's recovery budget.
    pub fn run_with_budget(
        &self,
        runner: &SweepRunner,
        executor: &dyn ShardExecutor,
        root: &Path,
        budget: Option<usize>,
    ) -> Result<SearchRun, SearchError> {
        std::fs::create_dir_all(root)?;
        let path = Self::checkpoint_path(root);
        let checkpoint = if path.exists() {
            let raw = std::fs::read(&path)?;
            let checkpoint = SearchCheckpoint::load(&raw)?;
            checkpoint.verify_spec(&self.spec)?;
            checkpoint
        } else {
            SearchCheckpoint::new(&self.spec)
        };
        let mut state = RunState {
            spec: &self.spec,
            runner,
            executor,
            root,
            path,
            resumed_points: checkpoint.completed.keys().copied().collect(),
            checkpoint,
            requested: BTreeSet::new(),
            requests: 0,
            folds: 0,
            cache_hits: 0,
            budget_left: budget,
            exhausted: false,
        };
        match self.strategy {
            SearchStrategy::ExhaustiveGrid => {
                let len = self.spec.space().len();
                let wave = runner.threads().max(1) as u64;
                let mut start = 0u64;
                while start < len && !state.exhausted {
                    let end = (start + wave).min(len);
                    state.wave((start..end).collect())?;
                    start = end;
                }
            }
            SearchStrategy::CoordinateDescent { max_rounds } => {
                let space = self.spec.space();
                let dims = space.dims();
                let mut coords = [0usize; 5];
                state.wave(vec![space.index_of(coords)])?;
                'rounds: for _ in 0..max_rounds {
                    if state.exhausted {
                        break;
                    }
                    let mut moved = false;
                    for axis in 0..5 {
                        let scan: Vec<u64> = (0..dims[axis])
                            .map(|value| {
                                let mut candidate = coords;
                                candidate[axis] = value;
                                space.index_of(candidate)
                            })
                            .collect();
                        state.wave(scan.clone())?;
                        if state.exhausted {
                            break 'rounds;
                        }
                        let best = scan
                            .iter()
                            .filter_map(|&point| state.checkpoint.get(point))
                            .min_by(|a, b| descent_cmp(a, b))
                            .map(EvaluationOutcome::point)
                            .expect("axis scan evaluated at least one point");
                        if best != space.index_of(coords) {
                            coords = space.coords(best);
                            moved = true;
                        }
                    }
                    if !moved {
                        break;
                    }
                }
            }
        }
        let evaluations: Vec<EvaluationOutcome> = state
            .requested
            .iter()
            .filter_map(|&point| state.checkpoint.get(point))
            .copied()
            .collect();
        let frontier = pareto_frontier(&evaluations);
        let resumed = state
            .requested
            .iter()
            .filter(|point| state.resumed_points.contains(point))
            .count();
        Ok(SearchRun {
            evaluations,
            frontier,
            requests: state.requests,
            folds: state.folds,
            cache_hits: state.cache_hits,
            resumed,
            complete: !state.exhausted,
        })
    }
}

/// Mutable bookkeeping of one `run_with_budget` invocation.
struct RunState<'a> {
    spec: &'a SearchSpec,
    runner: &'a SweepRunner,
    executor: &'a dyn ShardExecutor,
    root: &'a Path,
    path: PathBuf,
    checkpoint: SearchCheckpoint,
    resumed_points: BTreeSet<u64>,
    requested: BTreeSet<u64>,
    requests: usize,
    folds: usize,
    cache_hits: usize,
    budget_left: Option<usize>,
    exhausted: bool,
}

impl RunState<'_> {
    /// Requests a batch of grid points: index hits are counted as cache
    /// hits, the rest fold concurrently on the runner (bounded by the
    /// remaining budget), and the advanced index is re-sealed to disk
    /// before returning.
    fn wave(&mut self, points: Vec<u64>) -> Result<(), SearchError> {
        let mut pending: Vec<u64> = Vec::new();
        for point in points {
            if self.checkpoint.get(point).is_some() || pending.contains(&point) {
                self.requests += 1;
                self.cache_hits += 1;
                self.requested.insert(point);
                continue;
            }
            if self.budget_left == Some(0) {
                self.exhausted = true;
                break;
            }
            self.requests += 1;
            self.requested.insert(point);
            pending.push(point);
            if let Some(left) = &mut self.budget_left {
                *left -= 1;
            }
        }
        if pending.is_empty() {
            return Ok(());
        }
        let evaluations: Vec<Evaluation> = pending
            .iter()
            .map(|&point| self.spec.evaluation(point))
            .collect();
        let shards = self.spec.shards();
        let executor = self.executor;
        let root = self.root;
        let results = self.runner.map(&evaluations, |evaluation: &Evaluation| {
            evaluation.run_with_driver(shards, executor, root)
        });
        for result in results {
            let outcome = result?;
            self.checkpoint.record(outcome);
            self.folds += 1;
        }
        let blob = self.checkpoint.save();
        let tmp = self.path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, &blob)?;
        std::fs::rename(&tmp, &self.path)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_2x3() -> ObjectiveSpace {
        ObjectiveSpace::new()
            .with_mac_axis(&[MacPolicy::Polling, MacPolicy::Tdma])
            .with_radio_axis(&[
                RadioTechnology::WiR,
                RadioTechnology::Ble,
                RadioTechnology::WiFi,
            ])
    }

    #[test]
    fn grid_indexing_round_trips() {
        let space = space_2x3();
        assert_eq!(space.len(), 6);
        for index in 0..space.len() {
            let coords = space.coords(index);
            assert_eq!(space.index_of(coords), index);
            assert_eq!(space.point(index).index, index);
        }
        // The innermost axis (here radio, policy axes being singletons)
        // varies fastest.
        assert_eq!(space.point(0).radio, RadioTechnology::WiR);
        assert_eq!(space.point(1).radio, RadioTechnology::Ble);
        assert_eq!(space.point(0).mac, MacPolicy::Polling);
        assert_eq!(space.point(3).mac, MacPolicy::Tdma);
    }

    #[test]
    fn axis_builders_dedup_and_ignore_empty_or_invalid() {
        let space = ObjectiveSpace::new()
            .with_mac_axis(&[MacPolicy::Tdma, MacPolicy::Tdma])
            .with_radio_axis(&[])
            .with_traffic_scale_axis(&[f64::NAN, 0.0, -1.0]);
        assert_eq!(space.dims(), [1, 1, 1, 1, 1]);
        assert_eq!(space.point(0).mac, MacPolicy::Tdma);
        assert_eq!(space.point(0).traffic_scale(), 1.0);
        assert_eq!(ObjectiveSpace::paper_default().len(), 32);
    }

    #[test]
    fn spec_fingerprint_tracks_identity_not_execution() {
        let base = DriverFleetSpec::new(8);
        let spec = SearchSpec::new(base.clone(), space_2x3());
        let fp = spec.fingerprint();
        // Shard count is an execution knob.
        assert_eq!(fp, spec.clone().with_shards(4).fingerprint());
        // Grid and base fleet are identity.
        assert_ne!(
            fp,
            SearchSpec::new(base.clone(), ObjectiveSpace::new()).fingerprint()
        );
        assert_ne!(
            fp,
            SearchSpec::new(base.with_base_seed(9), space_2x3()).fingerprint()
        );
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let spec = SearchSpec::new(DriverFleetSpec::new(4), space_2x3());
        let checkpoint = SearchCheckpoint::new(&spec);
        let blob = checkpoint.save();
        assert_eq!(blob.len(), 8 + 2 + HEADER + 8);
        let loaded = SearchCheckpoint::load(&blob).expect("empty index loads");
        assert_eq!(loaded, checkpoint);
        assert!(loaded.verify_spec(&spec).is_ok());
    }

    #[test]
    fn frontier_is_non_dominated_and_ranked() {
        let outcome = |point: u64, energy: f64, p95: f64| EvaluationOutcome {
            point,
            energy_j_bits: energy.to_bits(),
            worst_p95_s_bits: p95.to_bits(),
            migration_rate_bits: 0.0f64.to_bits(),
            state_fp: 0,
        };
        let outcomes = [
            outcome(0, 2.0, 1.0),
            outcome(1, 1.0, 2.0),
            outcome(2, 2.0, 2.0), // dominated by both
            outcome(3, 1.0, 2.0), // duplicate of 1: both survive
        ];
        let frontier = pareto_frontier(&outcomes);
        let points: Vec<u64> = frontier.iter().map(EvaluationOutcome::point).collect();
        assert_eq!(points, vec![1, 3, 0]);
    }
}
