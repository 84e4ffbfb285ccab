//! Multi-process fleet driver: a coordinator that spawns shard **worker
//! processes**, ships their partial folds back as checkpoint blobs, and
//! merges them through the exact fleet algebra.
//!
//! [`FleetAggregator`](super::FleetAggregator) is a commutative merge monoid
//! and shard partials have a self-validating wire format
//! ([`FleetCheckpoint`]); this module is the runtime that actually crosses
//! the process boundary with them:
//!
//! * [`DriverFleetSpec`] — the subset of a [`FleetConfig`] that can cross a
//!   process boundary as CLI flags (bodies, base seed, horizon *bits*,
//!   top-K, a named population).  Both sides of the protocol rebuild the
//!   exact same config from it, which is what makes a multi-process run
//!   byte-identical to the in-process fold.
//! * [`WorkerRequest`] — the normative worker CLI protocol: parse flags,
//!   fold the assigned contiguous body range, publish the checkpoint blob
//!   through a [`Transport`].  [`worker_main`] wraps it into a ready-made
//!   binary entry point (`shard_worker` in the bench crate, and the
//!   `--worker` modes of `fleet_driver`, `bench_netsim` and the
//!   `distributed_fleet` example all delegate here).
//! * [`FleetDriver`] — the coordinator: holds the [`ShardPlan`] it assigns
//!   contiguous ranges from, runs shards through a [`ShardExecutor`]
//!   ([`ProcessExecutor`] spawns worker processes via
//!   [`std::process::Command`]; [`InProcessExecutor`] folds in the calling
//!   process, for tests and as the bench baseline), validates every
//!   returned blob (checksum, config fingerprint, range) against the plan,
//!   re-runs missing / corrupt / killed shards, and merges the survivors
//!   with the plan's [`ShardPlan::merge_checkpoints`] checks.
//!
//! # Fault tolerance and resume
//!
//! The driver treats the transport as the source of truth: before running
//! anything it fetches whatever blobs already exist, keeps the valid ones
//! and re-runs the rest.  Consequently a coordinator that crashes and is
//! re-run over the same spool directory resumes from the surviving blobs —
//! and a worker killed at *any* point leaves either nothing (publication is
//! atomic) or a complete valid blob, never a partial one.  Every recovered
//! fault is recorded in the [`DriverRun`]'s per-shard outcomes; a shard that
//! stays broken after [`max_attempts`](FleetDriver::with_max_attempts)
//! executions fails the run with a typed [`DriverError`].
//!
//! Determinism: which process folded a shard, how often it was re-run, and
//! which executor ran it are all invisible in the result — the
//! merged report is byte-identical to [`FleetConfig::run`] on the same
//! spec (property-tested in `crates/core/tests/fleet_driver.rs` across
//! random shard layouts × kill points × resumes, and asserted against real
//! killed processes in `crates/bench/tests/driver_process.rs`).
//!
//! # Example
//!
//! ```
//! use hidwa_core::fleet::driver::{DriverFleetSpec, FleetDriver, InProcessExecutor};
//! use hidwa_core::sweep::SweepRunner;
//! use hidwa_units::TimeSpan;
//!
//! let spec = DriverFleetSpec::new(6).with_horizon(TimeSpan::from_seconds(0.5));
//! let driver = FleetDriver::new(spec.clone(), 2);
//! let root = std::env::temp_dir().join(format!("hidwa-driver-doc-{}", std::process::id()));
//! let spool = driver.spool_in(&root).unwrap();
//!
//! let run = driver.run(&InProcessExecutor::serial(), &spool).unwrap();
//! assert_eq!(run.report().bodies(), 6);
//! // Byte-identical to the plain single-stream fold of the same spec.
//! assert_eq!(run.report(), &spec.to_config().run(&SweepRunner::serial()));
//! // A second coordinator over the same spool resumes: all blobs reused.
//! let resumed = driver.run(&InProcessExecutor::serial(), &spool).unwrap();
//! assert_eq!(resumed.reused_shards(), 2);
//! std::fs::remove_dir_all(&root).ok();
//! ```

use super::checkpoint::{CheckpointError, FleetCheckpoint};
use super::placement::ChurnSpec;
use super::shard::ShardPlan;
use super::{FleetConfig, FleetReport};
use crate::flags::{Flags, Tag};
use crate::population::PopulationModel;
use crate::sealed::fnv1a64;
use crate::sweep::SweepRunner;
use bytes::Bytes;
use hidwa_netsim::mac::MacPolicy;
use hidwa_phy::RadioTechnology;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::Command;

pub mod transport;

pub use transport::{SpoolTransport, Transport, TransportError};

/// Exit code a worker process uses for an **injected** crash
/// (`--fail-after-bodies`), distinct from real failures so tests can tell
/// "simulated kill" from "bug".
pub const SIMULATED_CRASH_EXIT: u8 = 13;

/// Usage text for the normative worker CLI (printed by worker binaries on
/// argument errors; the flag reference lives in `DEPLOYMENT.md`).
pub const WORKER_USAGE: &str = "\
usage: shard_worker --bodies <n> --shard-index <i> --shard-start <a> --shard-end <b>
                    --spool <dir>
                    [--base-seed <u64>] [--horizon-s <f64> | --horizon-bits <u64>]
                    [--top-k <n>] [--population <uniform|mixed>] [--threads <n>]
                    [--mac <tdma|polling>] [--radio <wi-r|ble|nfmi|wifi>]
                    [--traffic-scale <f64> | --traffic-scale-bits <u64>]
                    [--churn <rate:dmin:dmax:epochs:fade:policy:thresh:objective:cost>]
                    [--fail-after-bodies <n> [--fail-with-partial]]";

/// `--mac` names a [`MacPolicy`] by its tag (the search layer's MAC axis
/// crosses the process boundary with these).
impl Tag for MacPolicy {
    const ALL: &'static [Self] = &[Self::Tdma, Self::Polling];

    fn tag(self) -> &'static str {
        match self {
            Self::Tdma => "tdma",
            Self::Polling => "polling",
        }
    }
}

/// `--radio` names a [`RadioTechnology`] by its tag; a plan query's
/// site-resolved link carries its position in `ALL`.
impl Tag for RadioTechnology {
    const ALL: &'static [Self] = &[Self::WiR, Self::Ble, Self::Nfmi, Self::WiFi];

    fn tag(self) -> &'static str {
        match self {
            Self::WiR => "wi-r",
            Self::Ble => "ble",
            Self::Nfmi => "nfmi",
            Self::WiFi => "wifi",
        }
    }
}

/// The check every CLI applies to a horizon flag (`--horizon-s`, and the
/// worker's `--horizon-bits`): a finite, non-negative number of seconds.
///
/// # Errors
/// `<flag> must be a finite non-negative duration`.
pub fn check_horizon(flag: &str, seconds: f64) -> Result<f64, String> {
    (seconds.is_finite() && seconds >= 0.0)
        .then_some(seconds)
        .ok_or_else(|| format!("{flag} must be a finite non-negative duration"))
}

/// Why a driver run (or a worker invocation) failed.
///
/// Blob-level problems ([`Blob`](Self::Blob), [`Missing`](Self::Missing))
/// and worker-level problems ([`Spawn`](Self::Spawn),
/// [`Worker`](Self::Worker)) are *recoverable*: the driver records them and
/// re-runs the shard.  Only [`Exhausted`](Self::Exhausted) (recovery budget
/// spent), [`Transport`](Self::Transport) (the transport itself broke),
/// [`Merge`](Self::Merge) (validated blobs that still do not tile the
/// fleet) and [`Usage`](Self::Usage) (malformed CLI) abort a run.
#[derive(Debug)]
pub enum DriverError {
    /// The worker CLI arguments were malformed (see [`WORKER_USAGE`]).
    Usage(String),
    /// The spool failed mechanically (filesystem I/O).
    Transport(TransportError),
    /// A worker process could not be spawned at all.
    Spawn {
        /// Shard whose worker failed to spawn.
        shard: usize,
        /// Operating-system error message.
        message: String,
    },
    /// A worker process exited unsuccessfully (killed, crashed, or failed).
    Worker {
        /// Shard the worker was folding.
        shard: usize,
        /// Exit code, if the process exited (rather than being signalled).
        code: Option<i32>,
        /// Trailing stderr of the worker, for the operator.
        stderr: String,
    },
    /// A published blob failed validation (checksum, config fingerprint, or
    /// an implied body range that does not match the shard's assignment).
    Blob {
        /// Shard whose blob was rejected.
        shard: usize,
        /// The underlying checkpoint rejection.
        source: CheckpointError,
    },
    /// A worker reported success but no blob became visible.
    Missing {
        /// Shard whose blob never appeared.
        shard: usize,
    },
    /// A shard still had no valid blob after the recovery budget.
    Exhausted {
        /// The failing shard.
        shard: usize,
        /// Worker executions attempted for it this run.
        attempts: usize,
        /// The last recorded failure.
        last: Box<DriverError>,
    },
    /// Validated blobs that nevertheless do not merge into the fleet (e.g.
    /// ranges that no longer tile `0..bodies` after a plan change).
    /// [`FleetDriver::run`] checks every blob against its own shard's range
    /// of the plan before it merges, and a plan's ranges tile the fleet, so
    /// `run` cannot return this today; the merge keeps its own check as the
    /// last guard.
    Merge(CheckpointError),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Usage(what) => write!(f, "invalid worker arguments: {what}"),
            Self::Transport(error) => write!(f, "{error}"),
            Self::Spawn { shard, message } => {
                write!(f, "shard {shard}: failed to spawn worker: {message}")
            }
            Self::Worker {
                shard,
                code,
                stderr,
            } => {
                write!(f, "shard {shard}: worker ")?;
                match code {
                    Some(code) => write!(f, "exited with code {code}")?,
                    None => write!(f, "was terminated by a signal")?,
                }
                if stderr.is_empty() {
                    Ok(())
                } else {
                    write!(f, " (stderr: {})", stderr.trim_end())
                }
            }
            Self::Blob { shard, source } => {
                write!(f, "shard {shard}: published blob rejected: {source}")
            }
            Self::Missing { shard } => {
                write!(f, "shard {shard}: worker succeeded but published no blob")
            }
            Self::Exhausted {
                shard,
                attempts,
                last,
            } => write!(
                f,
                "shard {shard}: no valid blob after {attempts} worker attempt(s); last error: {last}"
            ),
            Self::Merge(error) => write!(f, "merging shard blobs failed: {error}"),
        }
    }
}

impl std::error::Error for DriverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Transport(error) => Some(error),
            Self::Blob { source, .. } | Self::Merge(source) => Some(source),
            Self::Exhausted { last, .. } => Some(last),
            _ => None,
        }
    }
}

impl From<TransportError> for DriverError {
    fn from(error: TransportError) -> Self {
        Self::Transport(error)
    }
}

/// The populations a [`DriverFleetSpec`] can name across a process boundary.
///
/// A [`PopulationModel`] is arbitrary data and cannot ride on CLI flags, so
/// the worker protocol restricts itself to named populations both sides can
/// rebuild bit-identically.  Custom populations still shard fine — within
/// one process via [`ShardPlan`], or by extending this enum alongside the
/// worker flag table in `DEPLOYMENT.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopulationSpec {
    /// The homogeneous default: every body the standard five-leaf Wi-R
    /// polling network ([`FleetConfig::new`]'s population).
    Uniform,
    /// [`PopulationModel::mixed_default`]: health-patch / AR-assistant /
    /// BLE-minimal archetypes.
    Mixed,
}

/// `--population <tag>` names a [`PopulationSpec`].
impl Tag for PopulationSpec {
    const ALL: &'static [Self] = &[Self::Uniform, Self::Mixed];

    fn tag(self) -> &'static str {
        match self {
            Self::Uniform => "uniform",
            Self::Mixed => "mixed",
        }
    }
}

impl std::fmt::Display for PopulationSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// The process-boundary-safe description of a fleet: everything a worker
/// needs to rebuild the coordinator's exact [`FleetConfig`] from CLI flags.
///
/// The horizon crosses the boundary as raw `f64` **bits**, so the rebuilt
/// config is bit-identical even for horizons with no short decimal form —
/// the checkpoint fingerprint compares horizon bits, so anything less would
/// make workers' blobs unmergeable.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverFleetSpec {
    bodies: usize,
    base_seed: u64,
    horizon_bits: u64,
    top_k: usize,
    population: PopulationSpec,
    /// Overrides the named population's MAC policy on every archetype
    /// (`--mac`); `None` keeps the population's own policies.
    mac: Option<MacPolicy>,
    /// Overrides the radio technology on every archetype (`--radio`).
    radio: Option<RadioTechnology>,
    /// Traffic-scale factor as raw `f64` bits (`--traffic-scale-bits`);
    /// `1.0` is the identity.  Bits, not decimals, for the same reason the
    /// horizon crosses as bits: both sides must rebuild the exact config.
    traffic_scale_bits: u64,
    churn: Option<ChurnSpec>,
}

// Every float a `ChurnSpec` carries is validated finite at construction and
// at `--churn` parse time, so `PartialEq` is total here.
impl Eq for DriverFleetSpec {}

impl DriverFleetSpec {
    /// A spec with [`FleetConfig::new`]'s defaults: uniform population,
    /// base seed `0xF1EE7`, 60 s horizon, top-K of 8.
    #[must_use]
    pub fn new(bodies: usize) -> Self {
        let defaults = FleetConfig::new(bodies);
        Self {
            bodies,
            base_seed: defaults.base_seed(),
            horizon_bits: defaults.horizon().as_seconds().to_bits(),
            top_k: defaults.top_k(),
            population: PopulationSpec::Uniform,
            mac: None,
            radio: None,
            traffic_scale_bits: 1.0f64.to_bits(),
            churn: None,
        }
    }

    /// Sets the base seed per-body scenarios derive from.
    #[must_use]
    pub fn with_base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Sets the simulated horizon per body.
    #[must_use]
    pub fn with_horizon(mut self, horizon: hidwa_units::TimeSpan) -> Self {
        self.horizon_bits = horizon.as_seconds().to_bits();
        self
    }

    /// Sets how many worst bodies the aggregator keeps exactly.
    #[must_use]
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        self.top_k = top_k.max(1);
        self
    }

    /// Selects the named population bodies are drawn from.
    #[must_use]
    pub fn with_population(mut self, population: PopulationSpec) -> Self {
        self.population = population;
        self
    }

    /// Overrides the MAC policy on every archetype of the named population
    /// (the search layer's MAC axis; crosses the boundary as `--mac`).
    #[must_use]
    pub fn with_mac(mut self, mac: MacPolicy) -> Self {
        self.mac = Some(mac);
        self
    }

    /// Overrides the radio technology on every archetype (`--radio`).
    #[must_use]
    pub fn with_radio(mut self, radio: RadioTechnology) -> Self {
        self.radio = Some(radio);
        self
    }

    /// Scales every leaf's offered traffic load by `factor`
    /// ([`PopulationModel::with_traffic_scale`]); non-finite or non-positive
    /// factors reset to the identity.  Crosses the boundary as
    /// `--traffic-scale-bits`, bit-exactly.
    #[must_use]
    pub fn with_traffic_scale(mut self, factor: f64) -> Self {
        self.traffic_scale_bits = if factor.is_finite() && factor > 0.0 {
            factor.to_bits()
        } else {
            1.0f64.to_bits()
        };
        self
    }

    /// The MAC-policy override, if one is set.
    #[must_use]
    pub fn mac(&self) -> Option<MacPolicy> {
        self.mac
    }

    /// The radio-technology override, if one is set.
    #[must_use]
    pub fn radio(&self) -> Option<RadioTechnology> {
        self.radio
    }

    /// The traffic-scale factor (1.0 = identity).
    #[must_use]
    pub fn traffic_scale(&self) -> f64 {
        f64::from_bits(self.traffic_scale_bits)
    }

    /// The traffic-scale factor as raw bits (what crosses the boundary).
    #[must_use]
    pub fn traffic_scale_bits(&self) -> u64 {
        self.traffic_scale_bits
    }

    /// The base seed per-body scenarios derive from.
    #[must_use]
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The per-body horizon as raw `f64` seconds bits.
    #[must_use]
    pub fn horizon_bits(&self) -> u64 {
        self.horizon_bits
    }

    /// How many worst bodies the aggregator keeps exactly.
    #[must_use]
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// Attaches a churn-and-placement spec; it crosses the process boundary
    /// as the bit-exact `--churn` flag, so workers rebuild the exact same
    /// churned [`FleetConfig`].
    #[must_use]
    pub fn with_churn(mut self, churn: ChurnSpec) -> Self {
        self.churn = Some(churn);
        self
    }

    /// The churn-and-placement spec, if the fleet is churned.
    #[must_use]
    pub fn churn(&self) -> Option<&ChurnSpec> {
        self.churn.as_ref()
    }

    /// Number of bodies in the fleet.
    #[must_use]
    pub fn bodies(&self) -> usize {
        self.bodies
    }

    /// The named population bodies are drawn from.
    #[must_use]
    pub fn population(&self) -> PopulationSpec {
        self.population
    }

    /// Builds the [`FleetConfig`] this spec describes — the same one on
    /// every machine that evaluates it.
    #[must_use]
    pub fn to_config(&self) -> FleetConfig {
        let config = FleetConfig::new(self.bodies)
            .with_base_seed(self.base_seed)
            .with_horizon(hidwa_units::TimeSpan::from_seconds(f64::from_bits(
                self.horizon_bits,
            )))
            .with_top_k(self.top_k);
        let mut config = match self.population {
            PopulationSpec::Uniform => config,
            PopulationSpec::Mixed => config.with_population(PopulationModel::mixed_default()),
        };
        if let Some(mac) = self.mac {
            config = config.with_policy(mac);
        }
        if let Some(radio) = self.radio {
            config = config.with_technology(radio);
        }
        if self.traffic_scale_bits != 1.0f64.to_bits() {
            let scaled = config
                .population()
                .clone()
                .with_traffic_scale(f64::from_bits(self.traffic_scale_bits));
            config = config.with_population(scaled);
        }
        match &self.churn {
            None => config,
            Some(churn) => config.with_churn(churn.clone()),
        }
    }

    /// Reads the spec from the worker's spec flags; a CLI whose table lists
    /// only some of them (`fleet_driver`) gets the defaults for the rest.
    ///
    /// # Errors
    /// The usage error of a malformed or conflicting flag.
    pub fn from_flags(flags: &Flags) -> Result<Self, String> {
        flags.exclusive("--horizon-s", "--horizon-bits")?;
        flags.exclusive("--traffic-scale", "--traffic-scale-bits")?;
        let mut spec = Self::new(flags.required("--bodies")?);
        if let Some(base_seed) = flags.value("--base-seed")? {
            spec.base_seed = base_seed;
        }
        if let Some(seconds) = flags.value("--horizon-s")? {
            spec.horizon_bits = check_horizon("--horizon-s", seconds)?.to_bits();
        }
        if let Some(bits) = flags.value("--horizon-bits")? {
            spec.horizon_bits = check_horizon("--horizon-bits", f64::from_bits(bits))?.to_bits();
        }
        if let Some(top_k) = flags.value("--top-k")? {
            spec = spec.with_top_k(top_k);
        }
        spec.population = flags.tag("--population")?.unwrap_or(spec.population);
        spec.mac = flags.tag("--mac")?;
        spec.radio = flags.tag("--radio")?;
        let positive = |flag: &str, factor: f64| {
            (factor.is_finite() && factor > 0.0)
                .then_some(factor.to_bits())
                .ok_or_else(|| format!("{flag} must be a finite positive factor"))
        };
        if let Some(factor) = flags.value("--traffic-scale")? {
            spec.traffic_scale_bits = positive("--traffic-scale", factor)?;
        }
        if let Some(bits) = flags.value("--traffic-scale-bits")? {
            spec.traffic_scale_bits = positive("--traffic-scale-bits", f64::from_bits(bits))?;
        }
        spec.churn = flags
            .raw("--churn")
            .map(ChurnSpec::parse_flag)
            .transpose()?;
        Ok(spec)
    }

    /// The standard worker CLI flags for folding `shard` of this fleet —
    /// transport flags (see [`Transport::worker_flags`]) come on top.
    #[must_use]
    pub fn worker_args(&self, shard: &ShardAssignment) -> Vec<String> {
        let mut args = vec![
            "--base-seed".into(),
            self.base_seed.to_string(),
            "--bodies".into(),
            self.bodies.to_string(),
            "--horizon-bits".into(),
            self.horizon_bits.to_string(),
            "--top-k".into(),
            self.top_k.to_string(),
            "--population".into(),
            self.population.tag().into(),
        ];
        if let Some(mac) = self.mac {
            args.push("--mac".into());
            args.push(mac.tag().into());
        }
        if let Some(radio) = self.radio {
            args.push("--radio".into());
            args.push(radio.tag().into());
        }
        if self.traffic_scale_bits != 1.0f64.to_bits() {
            args.push("--traffic-scale-bits".into());
            args.push(self.traffic_scale_bits.to_string());
        }
        if let Some(churn) = &self.churn {
            args.push("--churn".into());
            args.push(churn.flag_value());
        }
        args.extend([
            "--shard-index".into(),
            shard.index.to_string(),
            "--shard-start".into(),
            shard.start.to_string(),
            "--shard-end".into(),
            shard.end.to_string(),
        ]);
        args
    }
}

/// One contiguous body range assigned to a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAssignment {
    /// Position of the shard in the plan (names the blob: `shard-<index>`).
    pub index: usize,
    /// First body (inclusive) the worker folds.
    pub start: usize,
    /// End body (exclusive) the worker folds.
    pub end: usize,
}

impl ShardAssignment {
    /// The assignment's body range.
    #[must_use]
    pub fn range(&self) -> Range<usize> {
        self.start..self.end
    }
}

/// What a worker invocation did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerOutcome {
    /// The shard folded and its blob was durably published.
    Completed {
        /// Bodies the shard folded.
        bodies: usize,
        /// Size of the published checkpoint blob.
        blob_bytes: usize,
    },
    /// Fault injection (`--fail-after-bodies`) stopped the worker before it
    /// published anything; the binary exits with [`SIMULATED_CRASH_EXIT`].
    SimulatedCrash,
}

/// A parsed worker invocation: the normative CLI protocol of the
/// coordinator/worker boundary (flag reference in `DEPLOYMENT.md`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerRequest {
    /// The fleet the shard belongs to.
    pub spec: DriverFleetSpec,
    /// The shard this worker folds.
    pub shard: ShardAssignment,
    /// The spool directory the checkpoint blob is published into.
    pub spool: PathBuf,
    /// Thread width of the worker's internal [`SweepRunner`] (default 1:
    /// parallelism normally comes from running many workers).
    pub threads: usize,
    /// Fault injection: fold only this many bodies, then exit without
    /// publishing — a deterministic stand-in for `kill -9`.
    pub fail_after: Option<usize>,
    /// Fault injection: additionally leave a partial temp blob in the
    /// spool, as a worker killed mid-write would (only with `fail_after`).
    pub fail_with_partial: bool,
}

/// The worker CLI's flag table (reference in `DEPLOYMENT.md`).
const WORKER_FLAGS: &str = "--bodies= --base-seed= --horizon-s= --horizon-bits= --top-k= \
    --population= --mac= --radio= --traffic-scale= --traffic-scale-bits= --churn= \
    --shard-index= --shard-start= --shard-end= --spool= --threads= \
    --fail-after-bodies= --fail-with-partial";

impl WorkerRequest {
    /// Parses the worker CLI flags (everything after the program name /
    /// `--worker` subcommand).
    ///
    /// # Errors
    /// [`DriverError::Usage`] describing a malformed, missing, unknown or
    /// conflicting flag.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, DriverError> {
        let flags = Flags::parse(WORKER_FLAGS, args).map_err(DriverError::Usage)?;
        Self::from_flags(&flags).map_err(DriverError::Usage)
    }

    fn from_flags(flags: &Flags) -> Result<Self, String> {
        flags.needs("--fail-with-partial", "--fail-after-bodies")?;
        let spec = DriverFleetSpec::from_flags(flags)?;
        let shard = ShardAssignment {
            index: flags.required("--shard-index")?,
            start: flags.required("--shard-start")?,
            end: flags.required("--shard-end")?,
        };
        if shard.start > shard.end || shard.end > spec.bodies {
            return Err(format!(
                "shard range {}..{} does not fit the {}-body fleet",
                shard.start, shard.end, spec.bodies
            ));
        }
        Ok(Self {
            spec,
            shard,
            spool: flags.required("--spool")?,
            threads: flags.value("--threads")?.unwrap_or(1usize).max(1),
            fail_after: flags.value("--fail-after-bodies")?,
            fail_with_partial: flags.has("--fail-with-partial"),
        })
    }

    /// Folds the assigned range and publishes the checkpoint blob.
    ///
    /// # Errors
    /// [`DriverError`] when the spool cannot be created or the publish
    /// fails.
    pub fn run(&self) -> Result<WorkerOutcome, DriverError> {
        if let Some(fail_after) = self.fail_after {
            // Deterministic stand-in for a mid-shard kill: fold a prefix,
            // publish nothing complete, die with the simulated-crash code.
            let stop = (self.shard.start + fail_after).min(self.shard.end);
            let blob = fold(&self.spec, self.shard.start..stop, self.threads);
            if self.fail_with_partial {
                SpoolTransport::create(&self.spool)
                    .and_then(|spool| spool.write_partial(self.shard.index, &blob))
                    .map_err(TransportError::Io)?;
            }
            return Ok(WorkerOutcome::SimulatedCrash);
        }
        let spool = SpoolTransport::create(&self.spool).map_err(TransportError::Io)?;
        Ok(WorkerOutcome::Completed {
            bodies: self.shard.end - self.shard.start,
            blob_bytes: fold_and_publish(&self.spec, &self.shard, self.threads, &spool)?,
        })
    }
}

/// Folds `range` of `spec`'s fleet on a `threads`-wide runner and seals the
/// partial as a checkpoint blob.
fn fold(spec: &DriverFleetSpec, range: Range<usize>, threads: usize) -> Bytes {
    let config = spec.to_config();
    let end = range.end;
    let partial = config.fold_range(&SweepRunner::with_threads(threads), range);
    FleetCheckpoint::capture(&config, &partial, end).save()
}

/// The one fold-and-publish path of every worker, in-process or not: folds
/// `shard` and publishes its blob on `transport`.  Returns the blob size.
fn fold_and_publish(
    spec: &DriverFleetSpec,
    shard: &ShardAssignment,
    threads: usize,
    transport: &dyn Transport,
) -> Result<usize, DriverError> {
    let blob = fold(spec, shard.range(), threads);
    transport.publish(shard.index, &blob)?;
    Ok(blob.len())
}

/// Ready-made `main` body for worker binaries: parse, run, map outcomes to
/// exit codes (0 success, [`SIMULATED_CRASH_EXIT`] for an injected crash, 2
/// for usage errors, 1 for runtime failures).
///
/// ```no_run
/// fn main() -> std::process::ExitCode {
///     hidwa_core::fleet::driver::worker_main(std::env::args().skip(1))
/// }
/// ```
pub fn worker_main(args: impl IntoIterator<Item = String>) -> std::process::ExitCode {
    let request = match WorkerRequest::parse(args) {
        Ok(request) => request,
        Err(error) => return crate::flags::usage_error(WORKER_USAGE, &error.to_string()),
    };
    match request.run() {
        Ok(WorkerOutcome::Completed { bodies, blob_bytes }) => {
            println!(
                "shard {}: folded {bodies} bodies ({}..{}), published {blob_bytes}-byte checkpoint",
                request.shard.index, request.shard.start, request.shard.end
            );
            std::process::ExitCode::SUCCESS
        }
        Ok(WorkerOutcome::SimulatedCrash) => {
            eprintln!(
                "shard {}: simulated crash after {} bodies (fault injection)",
                request.shard.index,
                request.fail_after.unwrap_or(0)
            );
            std::process::ExitCode::from(SIMULATED_CRASH_EXIT)
        }
        Err(error) => {
            eprintln!("{error}");
            std::process::ExitCode::FAILURE
        }
    }
}

/// How the coordinator runs one shard to (attempted) completion.
///
/// The driver calls [`execute`](Self::execute) and then looks for the blob
/// on the transport — an executor's only obligation is to *try* to make the
/// shard's blob appear.  `attempt` counts prior executions of this shard in
/// this run, so executors can vary behaviour across retries (the
/// fault-injecting executors in the tests, [`ProcessExecutor`]'s
/// `--fail-after` injection for recovery demos).
///
/// The driver executes a round's pending shards on concurrent coordinator
/// threads (so worker processes overlap), hence the `Sync` bound —
/// `execute` may be called for *different* shards at the same time.
pub trait ShardExecutor: Sync {
    /// Attempts to fold `shard` of `spec` and publish its blob on
    /// `transport`.
    ///
    /// # Errors
    /// Any [`DriverError`]; the driver records it and may retry.
    fn execute(
        &self,
        spec: &DriverFleetSpec,
        shard: &ShardAssignment,
        attempt: usize,
        transport: &dyn Transport,
    ) -> Result<(), DriverError>;
}

/// Folds shards inside the coordinator process — the baseline the
/// multi-process path is benchmarked against, and the executor the
/// in-process fault tests drive.
#[derive(Debug, Clone)]
pub struct InProcessExecutor {
    threads: usize,
}

impl InProcessExecutor {
    /// Serial in-process execution.
    #[must_use]
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// In-process execution with a `threads`-wide [`SweepRunner`] per shard.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }
}

impl ShardExecutor for InProcessExecutor {
    fn execute(
        &self,
        spec: &DriverFleetSpec,
        shard: &ShardAssignment,
        _attempt: usize,
        transport: &dyn Transport,
    ) -> Result<(), DriverError> {
        fold_and_publish(spec, shard, self.threads, transport).map(drop)
    }
}

/// The worker command a [`ProcessExecutor`] spawns: a program plus leading
/// arguments (e.g. a `--worker` subcommand for self-re-invoking binaries);
/// the executor appends the standard per-shard and transport flags.
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    program: PathBuf,
    args: Vec<String>,
}

impl WorkerCommand {
    /// A worker launched as `program` (the bench crate's `shard_worker`
    /// binary, typically).
    #[must_use]
    pub fn new(program: impl Into<PathBuf>) -> Self {
        Self {
            program: program.into(),
            args: Vec::new(),
        }
    }

    /// The current executable re-invoked with a leading `--worker` flag —
    /// the self-contained pattern `fleet_driver`, `bench_netsim` and the
    /// `distributed_fleet` example use.
    ///
    /// # Errors
    /// [`std::io::Error`] when the current executable path is unavailable.
    pub fn current_exe_worker() -> std::io::Result<Self> {
        Ok(Self::new(std::env::current_exe()?).arg("--worker"))
    }

    /// Appends a fixed leading argument.
    #[must_use]
    pub fn arg(mut self, arg: impl Into<String>) -> Self {
        self.args.push(arg.into());
        self
    }

    /// The program this command spawns.
    #[must_use]
    pub fn program(&self) -> &Path {
        &self.program
    }
}

/// Spawns one OS process per shard attempt via [`std::process::Command`].
///
/// Worker stdout/stderr are captured; a failing worker's trailing stderr is
/// surfaced in the [`DriverError::Worker`] record so the operator sees why.
#[derive(Debug, Clone)]
pub struct ProcessExecutor {
    worker: WorkerCommand,
    inject_kill: Option<usize>,
}

impl ProcessExecutor {
    /// An executor spawning `worker` for every shard attempt.
    #[must_use]
    pub fn new(worker: WorkerCommand) -> Self {
        Self {
            worker,
            inject_kill: None,
        }
    }

    /// Fault injection for recovery demos: the **first** attempt of `shard`
    /// gets `--fail-after-bodies 1`, so its worker dies mid-shard without
    /// publishing and the driver must detect and re-run it.
    #[must_use]
    pub fn with_injected_kill(mut self, shard: usize) -> Self {
        self.inject_kill = Some(shard);
        self
    }
}

impl ShardExecutor for ProcessExecutor {
    fn execute(
        &self,
        spec: &DriverFleetSpec,
        shard: &ShardAssignment,
        attempt: usize,
        transport: &dyn Transport,
    ) -> Result<(), DriverError> {
        let mut command = Command::new(&self.worker.program);
        command
            .args(&self.worker.args)
            .args(spec.worker_args(shard))
            .args(transport.worker_flags());
        if self.inject_kill == Some(shard.index) && attempt == 0 {
            command.args(["--fail-after-bodies", "1"]);
        }
        let output = command.output().map_err(|error| DriverError::Spawn {
            shard: shard.index,
            message: error.to_string(),
        })?;
        if !output.status.success() {
            let stderr = String::from_utf8_lossy(&output.stderr);
            let tail: String = stderr
                .lines()
                .rev()
                .take(3)
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect::<Vec<_>>()
                .join(" | ");
            return Err(DriverError::Worker {
                shard: shard.index,
                code: output.status.code(),
                stderr: tail,
            });
        }
        Ok(())
    }
}

/// What happened to one shard over a driver run.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The shard's position and body range.
    pub shard: ShardAssignment,
    /// A valid blob already existed on the transport before any execution
    /// this run (i.e. the shard was *resumed*, not re-folded).
    pub reused: bool,
    /// Worker executions attempted for this shard this run.
    pub attempts: usize,
    /// Human-readable records of every fault recovered along the way.
    pub recovered: Vec<String>,
}

/// The result of a completed driver run: the merged fleet report, the
/// merged aggregator state, and the per-shard fault/reuse accounting.
#[derive(Debug, Clone)]
pub struct DriverRun {
    report: FleetReport,
    merged_state: FleetCheckpoint,
    fingerprint: String,
    shards: Vec<ShardOutcome>,
}

impl DriverRun {
    /// The merged fleet report — byte-identical to the single-stream fold.
    #[must_use]
    pub fn report(&self) -> &FleetReport {
        &self.report
    }

    /// The merged aggregator state serialized — equal, byte for byte, to
    /// `spec.to_config().run_until(runner, bodies).save()` of the same
    /// fleet (asserted by `fleet_driver --verify-single-stream`, the
    /// `distributed_fleet` example and `bench_netsim`'s `driver_fleet`
    /// rows).
    #[must_use]
    pub fn state_bytes(&self) -> Vec<u8> {
        self.merged_state.save().to_vec()
    }

    /// The merged aggregator state, unserialized.
    pub(crate) fn merged_state(&self) -> &FleetCheckpoint {
        &self.merged_state
    }

    /// The run fingerprint (names the spool subdirectory).
    #[must_use]
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Per-shard outcomes, in shard order.
    #[must_use]
    pub fn shards(&self) -> &[ShardOutcome] {
        &self.shards
    }

    /// Shards whose existing blob was reused (resume, not re-fold).
    #[must_use]
    pub fn reused_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.reused).count()
    }

    /// Total worker executions across all shards this run.
    #[must_use]
    pub fn total_attempts(&self) -> usize {
        self.shards.iter().map(|s| s.attempts).sum()
    }

    /// Total recovered faults (corrupt blobs discarded, failed workers
    /// retried) across all shards this run.
    #[must_use]
    pub fn recovered_faults(&self) -> usize {
        self.shards.iter().map(|s| s.recovered.len()).sum()
    }
}

/// The run fingerprint: a 16-hex-digit FNV-1a 64 digest of the spec and the
/// shard layout.  Runs that differ in *any* input that could change blob
/// contents (bodies, seed, horizon bits, top-K, population, boundaries) get
/// different fingerprints, so spooling them under
/// `<spool_root>/<fingerprint>/` keeps incompatible blobs apart by
/// construction.
#[must_use]
pub fn run_fingerprint(spec: &DriverFleetSpec, interior_boundaries: &[usize]) -> String {
    let mut bytes = Vec::with_capacity(64);
    bytes.extend_from_slice(&(spec.bodies as u64).to_be_bytes());
    bytes.extend_from_slice(&spec.base_seed.to_be_bytes());
    bytes.extend_from_slice(&spec.horizon_bits.to_be_bytes());
    bytes.extend_from_slice(&(spec.top_k as u64).to_be_bytes());
    bytes.extend_from_slice(spec.population.tag().as_bytes());
    bytes.push(0);
    if let Some(mac) = spec.mac {
        bytes.extend_from_slice(mac.tag().as_bytes());
    }
    bytes.push(0);
    if let Some(radio) = spec.radio {
        bytes.extend_from_slice(radio.tag().as_bytes());
    }
    bytes.push(0);
    bytes.extend_from_slice(&spec.traffic_scale_bits.to_be_bytes());
    if let Some(churn) = &spec.churn {
        bytes.extend_from_slice(churn.flag_value().as_bytes());
    }
    bytes.push(0);
    bytes.extend_from_slice(&(interior_boundaries.len() as u64).to_be_bytes());
    for &boundary in interior_boundaries {
        bytes.extend_from_slice(&(boundary as u64).to_be_bytes());
    }
    format!("{:016x}", fnv1a64(&bytes))
}

/// The coordinator: assigns contiguous shards of a [`DriverFleetSpec`],
/// drives them through an executor/transport pair, recovers faults, and
/// merges the blobs into a [`FleetReport`].
#[derive(Debug, Clone)]
pub struct FleetDriver {
    spec: DriverFleetSpec,
    /// The shard layout over `spec`'s fleet; blobs are validated against
    /// and merged under its config.
    plan: ShardPlan,
    max_attempts: usize,
}

impl FleetDriver {
    /// Default worker executions per shard before the run gives up.
    pub const DEFAULT_MAX_ATTEMPTS: usize = 3;

    /// A driver splitting the fleet into `shards` near-equal contiguous
    /// ranges ([`ShardPlan::split`] semantics).
    #[must_use]
    pub fn new(spec: DriverFleetSpec, shards: usize) -> Self {
        Self {
            plan: ShardPlan::split(spec.to_config(), shards),
            spec,
            max_attempts: Self::DEFAULT_MAX_ATTEMPTS,
        }
    }

    /// A driver over explicit interior boundaries (ragged shards fine).
    ///
    /// # Errors
    /// [`super::ShardError`] for unsorted or out-of-range boundaries.
    pub fn with_boundaries(
        spec: DriverFleetSpec,
        boundaries: &[usize],
    ) -> Result<Self, super::ShardError> {
        Ok(Self {
            plan: ShardPlan::from_boundaries(spec.to_config(), boundaries)?,
            spec,
            max_attempts: Self::DEFAULT_MAX_ATTEMPTS,
        })
    }

    /// Sets the per-shard recovery budget (minimum 1).
    #[must_use]
    pub fn with_max_attempts(mut self, max_attempts: usize) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// The fleet spec this driver coordinates.
    #[must_use]
    pub fn spec(&self) -> &DriverFleetSpec {
        &self.spec
    }

    /// Number of shards in the plan.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.plan.shard_count()
    }

    /// The assignment of shard `shard`.
    ///
    /// # Panics
    /// Panics if `shard >= shard_count()`.
    #[must_use]
    pub fn assignment(&self, shard: usize) -> ShardAssignment {
        let range = self.plan.range(shard);
        ShardAssignment {
            index: shard,
            start: range.start,
            end: range.end,
        }
    }

    /// This run's fingerprint (see [`run_fingerprint`]).
    #[must_use]
    pub fn fingerprint(&self) -> String {
        run_fingerprint(&self.spec, self.plan.boundaries())
    }

    /// Opens the conventional spool transport for this run:
    /// `<root>/<fingerprint>/`.
    ///
    /// # Errors
    /// [`std::io::Error`] when the directory cannot be created.
    pub fn spool_in(&self, root: impl AsRef<Path>) -> std::io::Result<SpoolTransport> {
        SpoolTransport::create(root.as_ref().join(self.fingerprint()))
    }

    /// Validates a fetched blob for `shard`: self-validating load, config
    /// fingerprint, and the implied body range against the assignment (so a
    /// blob from an older layout or foreign run is rejected, not merged).
    fn validate_blob(
        &self,
        shard: &ShardAssignment,
        bytes: &[u8],
    ) -> Result<FleetCheckpoint, CheckpointError> {
        let checkpoint = FleetCheckpoint::load(bytes)?;
        checkpoint.verify_config(self.plan.config())?;
        if checkpoint.next_body() != shard.end
            || checkpoint.bodies_ingested() != shard.end - shard.start
        {
            return Err(CheckpointError::ConfigMismatch(
                "blob's body range does not match the shard assignment",
            ));
        }
        Ok(checkpoint)
    }

    /// Fetches `progress`'s shard blob from `transport` and validates it:
    /// a valid blob is kept, a rejected one is recorded and discarded.
    /// Returns whether the transport held a blob at all.
    fn fetch_blob(
        &self,
        transport: &dyn Transport,
        progress: &mut ShardProgress,
    ) -> Result<bool, DriverError> {
        let shard = progress.outcome.shard.index;
        let Some(bytes) = transport.fetch(shard)? else {
            return Ok(false);
        };
        match self.validate_blob(&progress.outcome.shard, &bytes) {
            Ok(checkpoint) => progress.blob = Some(checkpoint),
            Err(source) => {
                progress.record(DriverError::Blob { shard, source });
                transport.discard(shard)?;
            }
        }
        Ok(true)
    }

    /// Runs the fleet to completion: reuse valid blobs already on the
    /// transport, execute missing shards, validate and re-run on any fault,
    /// merge.  See the module docs for the recovery model.
    ///
    /// Within each recovery round the pending shards execute
    /// **concurrently** (one coordinator thread per shard, so worker
    /// processes actually overlap); validation and merging stay in shard
    /// order, so concurrency is invisible in the result like every other
    /// execution axis.
    ///
    /// # Errors
    /// [`DriverError::Exhausted`] when a shard stays invalid past the
    /// recovery budget; [`DriverError::Transport`] when the transport fails
    /// ([`DriverError::Merge`] is the merge's last guard, see its doc).
    pub fn run(
        &self,
        executor: &dyn ShardExecutor,
        transport: &dyn Transport,
    ) -> Result<DriverRun, DriverError> {
        let mut shards: Vec<ShardProgress> = (0..self.shard_count())
            .map(|shard| ShardProgress {
                outcome: ShardOutcome {
                    shard: self.assignment(shard),
                    reused: false,
                    attempts: 0,
                    recovered: Vec::new(),
                },
                blob: None,
                last_fault: None,
            })
            .collect();
        for _ in 0..self.max_attempts {
            // 1. Reuse whatever the transport already holds, if valid.  (No
            //    blob at all needs no record — a prior failed attempt
            //    already recorded why it is missing.)
            for progress in shards.iter_mut().filter(|p| p.blob.is_none()) {
                self.fetch_blob(transport, progress)?;
                if progress.blob.is_some() && progress.outcome.attempts == 0 {
                    progress.outcome.reused = true;
                }
            }
            let pending: Vec<&mut ShardProgress> =
                shards.iter_mut().filter(|p| p.blob.is_none()).collect();
            if pending.is_empty() {
                break;
            }
            // 2. Execute every still-missing shard, concurrently.
            let spec = &self.spec;
            let results: Vec<Result<(), DriverError>> = std::thread::scope(|scope| {
                let handles: Vec<_> = pending
                    .iter()
                    .map(|progress| {
                        let (shard, attempt) = (&progress.outcome.shard, progress.outcome.attempts);
                        scope.spawn(move || executor.execute(spec, shard, attempt, transport))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("shard execution thread panicked"))
                    .collect()
            });
            // 3. Validate what the attempts published, in shard order.
            for (progress, result) in pending.into_iter().zip(results) {
                progress.outcome.attempts += 1;
                match result {
                    Ok(()) => {
                        if !self.fetch_blob(transport, progress)? {
                            let shard = progress.outcome.shard.index;
                            progress.record(DriverError::Missing { shard });
                        }
                    }
                    Err(fault) => progress.record(fault),
                }
            }
        }
        let mut blobs = Vec::with_capacity(shards.len());
        let mut outcomes = Vec::with_capacity(shards.len());
        for (shard, progress) in shards.into_iter().enumerate() {
            let Some(blob) = progress.blob else {
                return Err(DriverError::Exhausted {
                    shard,
                    attempts: progress.outcome.attempts,
                    last: Box::new(
                        progress
                            .last_fault
                            .unwrap_or(DriverError::Missing { shard }),
                    ),
                });
            };
            blobs.push(blob);
            outcomes.push(progress.outcome);
        }
        // Every recovered fault in `outcomes[_].recovered` was followed by a
        // successful re-run; the merge below is over validated blobs only.
        let merged = self
            .plan
            .merge_partials(blobs)
            .map_err(DriverError::Merge)?;
        // Keep the merged state around so callers can check byte-identity
        // without re-fetching and re-merging the blobs themselves.
        let merged_state = FleetCheckpoint::capture(self.plan.config(), &merged, self.spec.bodies);
        Ok(DriverRun {
            report: merged.finish(),
            merged_state,
            fingerprint: self.fingerprint(),
            shards: outcomes,
        })
    }
}

/// One shard's progress through a [`FleetDriver::run`]: its outcome so far,
/// its validated blob once it has one, and the last fault recorded for it.
struct ShardProgress {
    outcome: ShardOutcome,
    blob: Option<FleetCheckpoint>,
    last_fault: Option<DriverError>,
}

impl ShardProgress {
    /// Records a recovered fault: its message in the outcome, the error
    /// itself as the one an exhausted run reports.
    fn record(&mut self, fault: DriverError) {
        self.outcome.recovered.push(fault.to_string());
        self.last_fault = Some(fault);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_args_round_trip_through_the_parser() {
        let spec = DriverFleetSpec::new(100)
            .with_base_seed(42)
            .with_horizon(hidwa_units::TimeSpan::from_seconds(1.25))
            .with_top_k(3)
            .with_population(PopulationSpec::Mixed);
        let shard = ShardAssignment {
            index: 2,
            start: 50,
            end: 75,
        };
        let mut args = spec.worker_args(&shard);
        args.extend(["--spool".to_string(), "/tmp/somewhere".to_string()]);
        let request = WorkerRequest::parse(args).expect("canonical args parse");
        assert_eq!(request.spec, spec);
        assert_eq!(request.shard, shard);
        assert_eq!(request.spool, PathBuf::from("/tmp/somewhere"));
        assert_eq!(request.threads, 1);
        assert_eq!(request.fail_after, None);
    }

    #[test]
    fn parser_rejects_malformed_invocations() {
        let usage = |args: &[&str]| {
            let parsed = WorkerRequest::parse(args.iter().map(ToString::to_string));
            match parsed {
                Err(DriverError::Usage(message)) => message,
                other => panic!("expected usage error for {args:?}, got {other:?}"),
            }
        };
        usage(&[]); // --bodies missing
        usage(&["--bodies", "10"]); // shard flags missing
        let missing = usage(&[
            "--bodies",
            "10",
            "--shard-index",
            "0",
            "--shard-start",
            "0",
            "--shard-end",
            "5",
        ]);
        assert_eq!(missing, "--spool is required");
        usage(&[
            "--bodies",
            "10",
            "--shard-index",
            "0",
            "--shard-start",
            "6",
            "--shard-end",
            "5",
            "--spool",
            "/tmp/x",
        ]); // inverted range
        usage(&[
            "--bodies",
            "10",
            "--shard-index",
            "0",
            "--shard-start",
            "0",
            "--shard-end",
            "11",
            "--spool",
            "/tmp/x",
        ]); // range past the fleet
        usage(&["--frobnicate"]); // unknown flag
        usage(&["--bodies", "ten"]); // unparsable value
        let retired = usage(&[
            "--bodies",
            "10",
            "--shard-index",
            "0",
            "--shard-start",
            "0",
            "--shard-end",
            "5",
            "--spool",
            "/tmp/x",
            "--connect",
            "127.0.0.1:1",
        ]);
        assert_eq!(retired, r#"unknown flag "--connect""#);
        let shard = "--bodies 10 --shard-index 0 --shard-start 0 --shard-end 5 --spool /tmp/x";
        // A partial blob is left only by an injected crash.
        let args = format!("{shard} --fail-with-partial");
        let alone = usage(&args.split(' ').collect::<Vec<_>>());
        assert_eq!(alone, "--fail-with-partial needs --fail-after-bodies");
        // Two spellings of one value conflict; the later one does not win.
        let pairs = [
            ["--horizon-s", "--horizon-bits"],
            ["--traffic-scale", "--traffic-scale-bits"],
        ];
        for [a, b] in pairs {
            let args = format!("{shard} {a} 1 {b} {}", 1.0f64.to_bits());
            match WorkerRequest::parse(args.split(' ').map(String::from)) {
                Err(DriverError::Usage(message)) => {
                    assert!(message.contains(a) && message.contains(b), "{message}");
                }
                other => panic!("expected a conflict for {args}, got {other:?}"),
            }
        }
    }

    #[test]
    fn churn_flag_round_trips_through_the_parser() {
        use super::super::placement::PolicyKind;
        use crate::population::ChurnModel;
        let spec = DriverFleetSpec::new(40)
            .with_population(PopulationSpec::Mixed)
            .with_churn(
                ChurnSpec::new(
                    ChurnModel::with_rate(0.42).with_epochs(5),
                    PolicyKind::Hysteresis,
                )
                .with_hysteresis_threshold(0.2),
            );
        let shard = ShardAssignment {
            index: 0,
            start: 0,
            end: 40,
        };
        let mut args = spec.worker_args(&shard);
        args.extend(["--spool".to_string(), "/tmp/somewhere".to_string()]);
        let request = WorkerRequest::parse(args).expect("churn args parse");
        assert_eq!(request.spec, spec);
        assert_eq!(
            request.spec.churn().unwrap().fingerprint(),
            spec.churn().unwrap().fingerprint()
        );
        // A malformed churn value is a usage error, not a panic.
        let bad = WorkerRequest::parse(
            ["--bodies", "4", "--churn", "garbage"]
                .iter()
                .map(ToString::to_string),
        );
        assert!(matches!(bad, Err(DriverError::Usage(_))));
    }

    #[test]
    fn grid_overrides_round_trip_through_the_parser() {
        let spec = DriverFleetSpec::new(24)
            .with_mac(MacPolicy::Tdma)
            .with_radio(RadioTechnology::Ble)
            .with_traffic_scale(1.75);
        let shard = ShardAssignment {
            index: 0,
            start: 0,
            end: 24,
        };
        let mut args = spec.worker_args(&shard);
        args.extend(["--spool".to_string(), "/tmp/somewhere".to_string()]);
        let request = WorkerRequest::parse(args).expect("override args parse");
        assert_eq!(request.spec, spec);
        assert_eq!(request.spec.mac(), Some(MacPolicy::Tdma));
        assert_eq!(request.spec.radio(), Some(RadioTechnology::Ble));
        assert_eq!(request.spec.traffic_scale(), 1.75);
        // The convenience flag lands on the identical bit pattern.
        let convenient = WorkerRequest::parse(
            [
                "--bodies",
                "24",
                "--traffic-scale",
                "1.75",
                "--shard-index",
                "0",
                "--shard-start",
                "0",
                "--shard-end",
                "24",
                "--spool",
                "/tmp/x",
            ]
            .iter()
            .map(ToString::to_string),
        )
        .expect("convenience flag parses");
        assert_eq!(
            convenient.spec.traffic_scale_bits(),
            spec.traffic_scale_bits()
        );
        // Malformed values are usage errors, never panics.
        let nan_bits = f64::NAN.to_bits().to_string();
        for bad in [
            vec!["--bodies", "4", "--mac", "csma"],
            vec!["--bodies", "4", "--radio", "zigbee"],
            vec!["--bodies", "4", "--traffic-scale", "0"],
            vec!["--bodies", "4", "--traffic-scale", "inf"],
            vec!["--bodies", "4", "--traffic-scale-bits", nan_bits.as_str()],
        ] {
            let parsed = WorkerRequest::parse(bad.iter().map(ToString::to_string));
            assert!(
                matches!(parsed, Err(DriverError::Usage(_))),
                "expected usage error for {bad:?}, got {parsed:?}"
            );
        }
    }

    #[test]
    fn fingerprints_separate_incompatible_runs() {
        let spec = DriverFleetSpec::new(64);
        let base = run_fingerprint(&spec, &[32]);
        assert_eq!(base.len(), 16);
        assert_ne!(base, run_fingerprint(&spec, &[31]));
        assert_ne!(
            base,
            run_fingerprint(&spec.clone().with_base_seed(1), &[32])
        );
        assert_ne!(base, run_fingerprint(&spec.clone().with_top_k(2), &[32]));
        assert_ne!(
            base,
            run_fingerprint(&spec.clone().with_population(PopulationSpec::Mixed), &[32])
        );
        assert_ne!(base, run_fingerprint(&DriverFleetSpec::new(65), &[32]));
        // Grid overrides each move the fingerprint.
        assert_ne!(
            base,
            run_fingerprint(&spec.clone().with_mac(MacPolicy::Tdma), &[32])
        );
        assert_ne!(
            base,
            run_fingerprint(&spec.clone().with_radio(RadioTechnology::WiFi), &[32])
        );
        assert_ne!(
            base,
            run_fingerprint(&spec.clone().with_traffic_scale(2.0), &[32])
        );
        // Churned and churn-free runs of the same fleet never share a spool.
        let churned = spec.clone().with_churn(ChurnSpec::new(
            crate::population::ChurnModel::with_rate(0.3),
            super::super::placement::PolicyKind::StaticAtAdmission,
        ));
        assert_ne!(base, run_fingerprint(&churned, &[32]));
        // Same inputs, same fingerprint — resumability depends on it.
        assert_eq!(base, run_fingerprint(&DriverFleetSpec::new(64), &[32]));
    }

    #[test]
    fn driver_assignments_tile_the_fleet() {
        let spec = DriverFleetSpec::new(10);
        let driver = FleetDriver::new(spec.clone(), 3);
        assert_eq!(driver.shard_count(), 3);
        let mut cursor = 0;
        for shard in 0..driver.shard_count() {
            let assignment = driver.assignment(shard);
            assert_eq!(assignment.start, cursor);
            cursor = assignment.end;
        }
        assert_eq!(cursor, 10);
        // Ragged with empty shards is accepted, bad boundaries are not.
        assert!(FleetDriver::with_boundaries(spec.clone(), &[0, 4, 4, 10]).is_ok());
        assert!(FleetDriver::with_boundaries(spec.clone(), &[7, 3]).is_err());
        assert!(FleetDriver::with_boundaries(spec, &[11]).is_err());
    }

    /// Scripts each shard's first attempt: shard 0 publishes its blob and
    /// then fails, shard 1 succeeds without publishing, the rest fold.
    struct Scripted;

    impl ShardExecutor for Scripted {
        fn execute(
            &self,
            spec: &DriverFleetSpec,
            shard: &ShardAssignment,
            attempt: usize,
            transport: &dyn Transport,
        ) -> Result<(), DriverError> {
            match (shard.index, attempt) {
                (1, 0) => Ok(()),
                (0, 0) => {
                    fold_and_publish(spec, shard, 1, transport)?;
                    Err(DriverError::Worker {
                        shard: 0,
                        code: Some(1),
                        stderr: String::new(),
                    })
                }
                _ => fold_and_publish(spec, shard, 1, transport).map(drop),
            }
        }
    }

    #[test]
    fn run_records_what_happened_to_each_shard() {
        let spec = DriverFleetSpec::new(8).with_horizon(hidwa_units::TimeSpan::from_seconds(0.25));
        let driver = FleetDriver::new(spec, 4);
        let root = std::env::temp_dir().join(format!("hidwa-outcomes-{}", std::process::id()));
        // A failed execution is not fetched in its round, even though it
        // published a valid blob: with one attempt, shard 0 is exhausted.
        let once = driver.clone().with_max_attempts(1);
        let spool = once.spool_in(root.join("once")).expect("spool");
        match once.run(&Scripted, &spool) {
            Err(DriverError::Exhausted { shard: 0, last, .. }) => {
                assert!(matches!(*last, DriverError::Worker { .. }), "{last}");
            }
            other => panic!("expected shard 0 exhausted, got {other:?}"),
        }
        // Shard 2's valid blob is already there, shard 3's is garbage.
        let spool = driver.spool_in(root.join("seeded")).expect("spool");
        fold_and_publish(driver.spec(), &driver.assignment(2), 1, &spool).expect("seed");
        spool.publish(3, b"torn").expect("seed");
        let run = driver.run(&Scripted, &spool).expect("every shard recovers");
        std::fs::remove_dir_all(&root).ok();
        let outcomes: Vec<_> = run
            .shards()
            .iter()
            .map(|s| (s.reused, s.attempts, s.recovered.join("; ")))
            .collect();
        // Only a blob found before any attempt counts as reused: shard 0's
        // is picked up by the second round's reuse pass.
        assert_eq!(
            outcomes[..3],
            [
                (false, 1, "shard 0: worker exited with code 1".to_string()),
                (false, 2, DriverError::Missing { shard: 1 }.to_string()),
                (true, 0, String::new()),
            ]
        );
        let (reused, attempts, recovered) = &outcomes[3];
        assert!(!reused && *attempts == 1, "{:?}", outcomes[3]);
        assert!(recovered.starts_with("shard 3: published blob rejected"));
    }

    /// Publishes a blob no checkpoint loader accepts.
    struct Garbage;

    impl ShardExecutor for Garbage {
        fn execute(
            &self,
            _spec: &DriverFleetSpec,
            shard: &ShardAssignment,
            _attempt: usize,
            transport: &dyn Transport,
        ) -> Result<(), DriverError> {
            Ok(transport.publish(shard.index, b"garbage")?)
        }
    }

    /// A transport whose every fetch fails with an I/O error.
    struct Unplugged;

    impl Transport for Unplugged {
        fn publish(&self, _shard: usize, _blob: &[u8]) -> Result<(), TransportError> {
            Ok(())
        }

        fn fetch(&self, _shard: usize) -> Result<Option<Vec<u8>>, TransportError> {
            Err(TransportError::Io(std::io::Error::other("unplugged")))
        }

        fn discard(&self, _shard: usize) -> Result<(), TransportError> {
            Ok(())
        }

        fn worker_flags(&self) -> Vec<String> {
            Vec::new()
        }
    }

    /// A one-shard driver with a single attempt, and a scratch directory
    /// named after `case` for its spool.
    fn one_attempt(case: &str) -> (FleetDriver, PathBuf) {
        let spec = DriverFleetSpec::new(4).with_horizon(hidwa_units::TimeSpan::from_seconds(0.25));
        let root = std::env::temp_dir().join(format!("hidwa-{case}-{}", std::process::id()));
        (FleetDriver::new(spec, 1).with_max_attempts(1), root)
    }

    #[test]
    fn a_worker_that_cannot_spawn_exhausts_its_shard() {
        let (driver, root) = one_attempt("spawn");
        let missing = ProcessExecutor::new(WorkerCommand::new(root.join("no-such-worker")));
        let spool = driver.spool_in(&root).expect("spool");
        let run = driver.run(&missing, &spool);
        std::fs::remove_dir_all(&root).ok();
        match run {
            Err(DriverError::Exhausted { shard: 0, last, .. }) => {
                assert!(
                    matches!(*last, DriverError::Spawn { shard: 0, .. }),
                    "{last}"
                );
            }
            other => panic!("expected a spawn failure, got {other:?}"),
        }
    }

    #[test]
    fn a_blob_that_does_not_load_exhausts_its_shard() {
        let (driver, root) = one_attempt("blob");
        let spool = driver.spool_in(&root).expect("spool");
        let run = driver.run(&Garbage, &spool);
        std::fs::remove_dir_all(&root).ok();
        match run {
            Err(DriverError::Exhausted { shard: 0, last, .. }) => {
                assert!(
                    matches!(*last, DriverError::Blob { shard: 0, .. }),
                    "{last}"
                );
            }
            other => panic!("expected a rejected blob, got {other:?}"),
        }
    }

    #[test]
    fn a_failing_transport_aborts_the_run() {
        let (driver, _) = one_attempt("transport");
        let run = driver.run(&InProcessExecutor::serial(), &Unplugged);
        assert!(
            matches!(run, Err(DriverError::Transport(TransportError::Io(_)))),
            "expected a transport failure, got {run:?}"
        );
    }
}
