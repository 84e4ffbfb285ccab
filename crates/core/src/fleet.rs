//! Streaming fleet simulation: populations of independent body networks
//! ingested through a bounded-memory aggregator.
//!
//! The paper's north star is serving millions of users, and each user is one
//! star-topology body network — fully independent of every other body, which
//! makes fleet simulation embarrassingly parallel.  [`FleetConfig`] is a thin
//! wrapper over a [`PopulationModel`]: each body's scenario (leaf set,
//! traffic mix, radio, MAC policy) is drawn deterministically from
//! `(base_seed, body_index)`, simulated on the streaming netsim engine, and
//! folded on the thread that simulated it, reduced to a compact
//! [`BodySummary`] where the fold keeps one.
//!
//! # Bounded-memory aggregation
//!
//! Summaries are **not** materialised per body.  [`FleetConfig::run`] folds
//! the fleet over a [`SweepRunner`] ([`SweepRunner::fold`]): every thread
//! ingests the bodies it simulates into a
//! [`FleetAggregator`] of its own — merged latency sketches, running
//! counters, and a top-K list of the worst bodies by p95 latency — and the
//! per-thread partials merge once, after the fold's helpers have left it.
//! No summary waits to be folded, and aggregation state is
//! `O(K + sketch buckets)` per partial — independent of fleet size — so a
//! 10k-body (or 10M-body) fold runs in `O(threads × (K + sketch))` memory.
//! Each thread also owns one netsim [`Workspace`] for the whole fold: every
//! body it simulates runs in that workspace, reset in place
//! ([`Workspace::run`]), from node configurations its population builds
//! once, on first use, so no per-body scenario, engine, node list or report
//! is built.  A body the thread's worst-body list will not keep
//! (`FleetAggregator::keeps`) goes straight into the thread's partial: its
//! node sketches merge into the partial's fleet sketch
//! ([`Workspace::merge_latency`]) and its scalars into the totals, so it
//! builds no [`BodySummary`] either.  Only a body the list keeps, or the
//! first body of a class (below), is reduced to its summary.  Every fold —
//! [`run`](FleetConfig::run), [`run_until`](FleetConfig::run_until),
//! [`resume`](FleetConfig::resume), a [`ShardPlan`]'s shards and a driver
//! worker's range — enters through one private body-range fold, which
//! builds the fold's partials itself.  The population draws each body once,
//! through one table it builds on first use (the draw's thresholds and
//! every leaf slot's nodes), so a fold that re-runs a population builds
//! nothing of it.
//!
//! # The body-class table
//!
//! Most leaves sense on a fixed cadence, so most bodies of a fleet repeat a
//! few scenarios exactly.  A churn-free fold runs the engine about once per
//! distinct deterministic body, whatever its width; a repeat's summary
//! equals the first body's but for its index and seed, because:
//!
//! * a streaming run reads its seed only through
//!   [`TrafficPattern::next_interval`](hidwa_netsim::traffic::TrafficPattern::next_interval),
//!   and only bursty sources draw from it (the MAC arbiters draw nothing);
//! * within one fold the population, its draw table (links and nodes
//!   included), each archetype's policy and the horizon are fixed;
//! * so a body with no bursty leaf is a pure function of what its sampler
//!   drew — its [class](crate::population::BodyScenario::class) — and of
//!   its active span, which is the horizon in a churn-free fleet.
//!
//! Such a fold builds one class table, shared by all of its threads and
//! dropped with it; no stored run outlives a fold.  Each body is drawn once,
//! through its population's draw table, into its archetype, its class and
//! its thread's node list, and its class is looked up among the class
//! table's 64 slots, each a write-once class key and a write-once
//! [`BodySummary`].  The first thread to claim a class's slot runs the
//! class's body and stores its summary there; a thread that finds the slot
//! claimed but not yet stored runs its own copy rather than wait, and a
//! body whose class finds no slot just runs.  A repeat that
//! would enter its thread's worst-body list (`FleetAggregator::keeps`) is
//! ingested as a copy of the stored summary under its own index and seed.
//! Any other repeat is one [`ingest`](FleetAggregator::ingest) would return
//! from before touching the list, so its thread only counts it, per slot.
//! The counts are summed over the partials and go into the merged aggregate
//! once, after the merge, with one scaled update per class
//! (`FleetAggregator::ingest_repeats`): every piece of state it touches is
//! an integer, an [`ExactSum`], a sketch or a min, and each scaled operation
//! equals that many repetitions.  That one late flush is exact because a
//! count taken on a thread stays one the list would not keep: the merged
//! worst list holds the thread's own list's bodies or better ones, so its
//! last entry ranks at or above the thread's.  A body with a bursty leaf has
//! no class and always runs, and a churned fleet keeps no class table, so
//! its bodies' classes go unused: a churned span is the body's own
//! continuous draw, which no other body repeats.
//!
//! A churned fold builds a table of another kind in its place: one
//! [`placement`] cut table per archetype of its population, shared by its
//! threads and dropped with it.  Each body's churn is drawn into its fold
//! thread's buffer, and its placement replays its epochs from its
//! archetype's table, so a churned body builds no context or plan and
//! allocates no more than a churn-free body that runs the engine.
//!
//! # Determinism and the merge algebra
//!
//! Scenario sampling is a pure per-body function, each partial ingests its
//! bodies in increasing index order, and the partials merge through a
//! commutative monoid, so the final [`FleetReport`] is byte-identical at any
//! thread width (asserted by the tests below, by `tests/fleet_checkpoint.rs`
//! and, at ≥1000 heterogeneous bodies, by `bench_netsim`).
//!
//! The determinism contract's second axis is the **shard layout**.
//! [`FleetAggregator`] is a commutative monoid under
//! [`FleetAggregator::merge`] — every non-associative piece of state (the
//! f64 running sums) is kept in an [`ExactSum`] fixed-point accumulator, the
//! sketches merge bucket-wise, and the exact top-K worst list merges
//! union-then-truncate under the total order (p95 desc, body index asc).
//! Consequently any partition of `0..bodies` — contiguous shards (see
//! [`ShardPlan`]) or the interleaved claims of the fold's threads — whose
//! parts are each folded in index order, independently on other threads,
//! processes or machines, and merged in any grouping, finishes
//! byte-identical to the single-stream fold.  [`FleetCheckpoint`] serializes
//! a partial fold so an interrupted ingestion resumes mid-stream
//! ([`FleetConfig::run_until`] / [`FleetConfig::resume`]) with the same
//! guarantee.
//!
//! The third axis is the **process boundary**.  [`driver`] is a
//! coordinator/worker runtime that spawns a worker *process* per shard of a
//! [`ShardPlan`], ships their partials as checkpoint blobs through a spool
//! directory, re-runs killed or corrupted shards, and merges — byte-identical
//! to the single-stream fold through every recovery path.
//!
//! [`FleetConfig::with_churn`] makes the fleet *live*: it attaches a
//! [`ChurnSpec`] — a per-body arrival/departure/duty-cycle model
//! ([`ChurnModel`](crate::population::ChurnModel)) plus an online
//! [`placement`] policy ([`PolicyKind`]) that re-plans each body's partition
//! point as its link context shifts.  Churn draws are a pure function of
//! `(base_seed, body_index)` under their own seed domain, so churned fleets
//! keep every determinism axis above; migration and occupancy statistics
//! flow through the same commutative merge monoid and the (version-bumped)
//! checkpoint format.
//!
//! # Example
//!
//! ```
//! use hidwa_core::fleet::FleetConfig;
//! use hidwa_core::sweep::SweepRunner;
//! use hidwa_units::TimeSpan;
//!
//! let fleet = FleetConfig::new(8).with_horizon(TimeSpan::from_seconds(2.0));
//! let report = fleet.run(&SweepRunner::serial());
//! assert_eq!(report.bodies(), 8);
//! assert!(report.delivery_ratio() > 0.9);
//! assert!(report.fleet_latency().quantile(0.95) > TimeSpan::ZERO);
//! ```

use crate::partition::CutTable;
use crate::population::{BodyScenario, ChurnSample, PopulationModel};
use crate::scenario;
use crate::sweep::SweepRunner;
use hidwa_netsim::mac::MacPolicy;
use hidwa_netsim::node::NodeConfig;
use hidwa_netsim::sim::{RunScalars, Workspace};
use hidwa_netsim::sketch::{self, ExactSum, LatencySketch};
use hidwa_phy::RadioTechnology;
use hidwa_units::{DataRate, DataVolume, Energy, TimeSpan};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

pub mod checkpoint;
pub mod driver;
pub mod placement;
pub mod shard;

pub use crate::population::body_seed;
pub use checkpoint::{CheckpointError, FleetCheckpoint};
pub use driver::{DriverError, DriverFleetSpec, FleetDriver};
pub use placement::{ChurnSpec, PolicyKind};
pub use shard::{ShardError, ShardPlan};

/// A fleet of body networks drawn from a population model.
///
/// [`FleetConfig::new`] starts homogeneous (every body the standard five-leaf
/// Wi-R network — a [`PopulationModel::uniform`]); [`FleetConfig::with_population`]
/// swaps in a heterogeneous population.  The legacy homogeneous knobs
/// ([`with_technology`](FleetConfig::with_technology),
/// [`with_policy`](FleetConfig::with_policy),
/// [`with_leaves`](FleetConfig::with_leaves)) apply across every archetype.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    bodies: usize,
    base_seed: u64,
    horizon: TimeSpan,
    population: PopulationModel,
    top_k: usize,
    churn: Option<ChurnSpec>,
}

impl FleetConfig {
    /// Default number of worst bodies retained exactly by the aggregator.
    pub const DEFAULT_TOP_K: usize = 8;

    /// A fleet of `bodies` copies of the standard five-leaf body network
    /// (Wi-R, polling MAC, 60 s horizon).
    #[must_use]
    pub fn new(bodies: usize) -> Self {
        Self {
            bodies,
            base_seed: 0xF1EE7,
            horizon: TimeSpan::from_seconds(60.0),
            population: PopulationModel::uniform(
                RadioTechnology::WiR,
                scenario::standard_leaf_set(),
                MacPolicy::Polling,
            ),
            top_k: Self::DEFAULT_TOP_K,
            churn: None,
        }
    }

    /// Sets the base seed; per-body seeds are derived from it via SplitMix64.
    #[must_use]
    pub fn with_base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Sets the simulated horizon per body.
    #[must_use]
    pub fn with_horizon(mut self, horizon: TimeSpan) -> Self {
        self.horizon = horizon;
        self
    }

    /// Replaces the population the fleet draws bodies from.
    #[must_use]
    pub fn with_population(mut self, population: PopulationModel) -> Self {
        self.population = population;
        self
    }

    /// Sets the radio technology on every archetype of the population.
    #[must_use]
    pub fn with_technology(mut self, technology: RadioTechnology) -> Self {
        self.population = self.population.with_technology(technology);
        self
    }

    /// Sets the MAC policy on every archetype of the population.
    #[must_use]
    pub fn with_policy(mut self, policy: MacPolicy) -> Self {
        self.population = self.population.with_policy(policy);
        self
    }

    /// Replaces every archetype's leaf set with the given fixed leaves.
    #[must_use]
    pub fn with_leaves(mut self, leaves: Vec<scenario::LeafSpec>) -> Self {
        self.population = self.population.with_leaves(leaves);
        self
    }

    /// Sets how many worst bodies (by p95 latency) the aggregator keeps
    /// exactly (minimum 1).
    #[must_use]
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        self.top_k = top_k.max(1);
        self
    }

    /// Attaches a churn-and-placement layer: bodies arrive, depart and duty
    /// cycle per the spec's [`ChurnModel`](crate::population::ChurnModel)
    /// (each body simulates only its active span), and the spec's
    /// [`PolicyKind`] re-plans partition points as link context shifts,
    /// charging migrations into the per-body summaries.
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

    /// Fingerprint of the churn spec (0 for a churn-free fleet) — part of
    /// the checkpoint config identity, so partials folded under different
    /// churn configurations never merge or resume into each other.
    #[must_use]
    pub fn churn_fingerprint(&self) -> u64 {
        self.churn.as_ref().map_or(0, ChurnSpec::fingerprint)
    }

    /// Number of bodies in the fleet.
    #[must_use]
    pub fn bodies(&self) -> usize {
        self.bodies
    }

    /// Base seed per-body seeds and scenarios derive from.
    #[must_use]
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// How many worst bodies the aggregator keeps exactly.
    #[must_use]
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// Simulated horizon per body.
    #[must_use]
    pub fn horizon(&self) -> TimeSpan {
        self.horizon
    }

    /// The population bodies are drawn from.
    #[must_use]
    pub fn population(&self) -> &PopulationModel {
        &self.population
    }

    /// The seed the simulation of `body_index` runs under.
    #[must_use]
    pub fn seed_for_body(&self, body_index: usize) -> u64 {
        body_seed(self.base_seed, body_index as u64)
    }

    /// The scenario body `body_index` would run — a pure function of
    /// `(base_seed, body_index)`, derivable without running anything.
    #[must_use]
    pub fn scenario_for_body(&self, body_index: usize) -> BodyScenario {
        self.population.sample(self.base_seed, body_index as u64)
    }

    /// Runs body `body_index`, of the population's archetype `archetype` and
    /// the leaf `nodes` its draw put in its node list, in `workspace`: over
    /// the horizon, or in a churned fold over the body's active span after
    /// its placement, its churn drawn into `churn` and placed from the
    /// archetype's cut table in `table`.  Returns the body's totals; its
    /// node sketches stay in `workspace` ([`Workspace::merge_latency`]).
    fn run_body(
        &self,
        body_index: usize,
        archetype: usize,
        nodes: &[&NodeConfig],
        table: &FoldTable<'_>,
        churn: &mut ChurnSample,
        workspace: &mut Workspace,
    ) -> BodyTotals {
        let (active_span, migrations, replans, placement_energy) = match table {
            FoldTable::Classes(_) => (self.horizon, 0, 0, Energy::ZERO),
            FoldTable::Cuts(spec, cuts) => {
                spec.churn()
                    .sample_into(self.base_seed, body_index as u64, self.horizon, churn);
                let outcome = placement::place(spec, &cuts[archetype], churn);
                (
                    churn.active(),
                    outcome.migrations,
                    outcome.replans,
                    outcome.energy,
                )
            }
        };
        let seed = self.seed_for_body(body_index);
        let policy = self.population.archetypes()[archetype].policy();
        let run = workspace.run(nodes, policy, seed, active_span);
        BodyTotals {
            run,
            delivery_ratio: run.delivery_ratio(),
            active_span,
            migrations,
            replans,
            placement_energy,
        }
    }

    /// The summary of body `body_index`, of the population's archetype
    /// `archetype` and `nodes` leaves, whose run left `totals` and, in
    /// `workspace`, its node sketches.
    fn summarise(
        &self,
        body_index: usize,
        archetype: usize,
        nodes: usize,
        totals: BodyTotals,
        workspace: &Workspace,
    ) -> BodySummary {
        let mut latency = LatencySketch::new();
        workspace.merge_latency(&mut latency);
        let run = totals.run;
        BodySummary {
            body_index,
            seed: self.seed_for_body(body_index),
            archetype: Arc::clone(self.population.archetypes()[archetype].label()),
            nodes,
            generated_frames: run.generated_frames,
            delivered_frames: run.delivered_frames,
            delivered_bytes: run.delivered_bytes,
            events_processed: run.events_processed,
            delivery_ratio: totals.delivery_ratio,
            total_energy: run.total_energy,
            worst_p95_latency: run.worst_p95_latency,
            latency,
            active_span: totals.active_span,
            migrations: totals.migrations,
            replans: totals.replans,
            placement_energy: totals.placement_energy,
        }
    }

    /// Folds the whole fleet over `runner` into per-thread
    /// [`FleetAggregator`]s and merges them into one bounded report.
    ///
    /// The expensive channel-model link derivation runs once per distinct
    /// `(technology, site)` pair of the population; each body is folded on
    /// the thread that simulated it, so peak memory is
    /// `O(threads × (K + sketch))` — independent of `bodies`.  Each partial
    /// ingests its bodies in index order and sampling is per-body pure, so
    /// the report is byte-identical at any thread width.
    #[must_use]
    pub fn run(&self, runner: &SweepRunner) -> FleetReport {
        self.fold_range(runner, 0..self.bodies).finish()
    }

    /// Folds bodies `range` into a fresh aggregator — the one fold behind
    /// [`run`](Self::run), [`run_until`](Self::run_until),
    /// [`resume`](Self::resume), [`ShardPlan`] and the driver's worker.  It
    /// builds the fold's [`FoldTable`]; the draw table is the population's,
    /// built once.  Then every thread, the calling one
    /// included, ingests its bodies into a partial of its own, and the
    /// partials merge once the helpers have left the fold.  Every partial
    /// ingests in increasing body index, so the resulting state depends only
    /// on which bodies were folded, never on which thread simulated them (see
    /// [`FleetAggregator::merge`]).  Each thread keeps its partial in a
    /// [`FoldThread`], with the netsim [`Workspace`] all of its bodies run
    /// in and a count per table slot of the repeats it did not ingest; the
    /// counts are summed as the partials merge and go into the merged
    /// aggregate at the end.
    fn fold_range(&self, runner: &SweepRunner, range: Range<usize>) -> FleetAggregator {
        let table = self.fold_table();
        let fresh = || FoldThread::new(self);
        let mut calling = fresh();
        runner.fold(
            range,
            &mut calling,
            fresh,
            |thread, body_index| self.fold_body(body_index, &table, thread),
            |merged, thread| {
                merged.partial.merge(thread.partial);
                for (sum, count) in merged.repeats.iter_mut().zip(thread.repeats) {
                    *sum += count;
                }
            },
        );
        let mut folded = calling.partial;
        if let FoldTable::Classes(table) = &table {
            table.flush(&calling.repeats, &mut folded);
        }
        folded
    }

    /// The table one fold of this fleet builds: a class table for a
    /// churn-free fleet, and for a churned one, whose bodies never repeat
    /// (see the module docs), the cut table of each of its population's
    /// archetypes.
    fn fold_table(&self) -> FoldTable<'_> {
        match &self.churn {
            None => FoldTable::Classes(Box::new(ClassTable::new())),
            Some(spec) => FoldTable::Cuts(
                spec,
                self.population
                    .archetypes()
                    .iter()
                    .map(|archetype| placement::cut_table(archetype.name(), archetype.technology()))
                    .collect(),
            ),
        }
    }

    /// Folds body `body_index` into `thread`'s partial, the next body in its
    /// index order.  The body is drawn once, into its archetype, its class
    /// and the thread's node list.  In a churn-free fold a body whose class
    /// `table` holds a run of is a repeat (see the module docs): the partial
    /// ingests a copy of the stored summary if the body would enter its
    /// worst list, and otherwise the slot's entry of the thread's `repeats`
    /// counts it.  Any other body runs in the thread's workspace.  If the
    /// thread claimed the body's class slot, or the worst list keeps the
    /// body, the partial ingests the body's summary, which a claimed slot
    /// stores; any other body goes into the partial without one.  `table`
    /// must be this fleet's, and `repeats` must count only bodies this
    /// thread's aggregator would not keep.
    fn fold_body<'p>(
        &'p self,
        body_index: usize,
        table: &FoldTable<'_>,
        thread: &mut FoldThread<'p>,
    ) {
        let (archetype, class) =
            self.population
                .nodes_of(self.base_seed, body_index as u64, &mut thread.nodes);
        let lookup = match table {
            FoldTable::Classes(classes) => classes.find(class),
            FoldTable::Cuts(..) => Lookup::Run,
        };
        let partial = &mut thread.partial;
        let first = match lookup {
            Lookup::Repeat(slot, first) => {
                if partial.keeps(first.worst_p95_latency) {
                    partial.ingest(BodySummary {
                        body_index,
                        seed: self.seed_for_body(body_index),
                        ..first.clone()
                    });
                } else {
                    thread.repeats[slot] += 1;
                }
                return;
            }
            Lookup::First(first) => Some(first),
            Lookup::Run => None,
        };
        let workspace = &mut thread.workspace;
        let nodes = &thread.nodes;
        let totals = self.run_body(
            body_index,
            archetype,
            nodes,
            table,
            &mut thread.churn,
            workspace,
        );
        let kept = partial.keeps(totals.run.worst_p95_latency);
        if first.is_none() && !kept {
            partial.add_run(&totals, workspace);
            return;
        }
        let summary = self.summarise(body_index, archetype, thread.nodes.len(), totals, workspace);
        let Some(first) = first else {
            return partial.ingest(summary);
        };
        if kept {
            partial.ingest(summary.clone());
        } else {
            partial.add_summary(&summary, 1);
        }
        first
            .set(summary)
            .expect("only the thread that claimed a slot stores into it");
    }

    /// Runs the fold for bodies `0..stop` (clamped to the fleet size) and
    /// captures the partial state as a resumable [`FleetCheckpoint`] — the
    /// "interrupted mid-stream" half of fault-tolerant ingestion.
    #[must_use]
    pub fn run_until(&self, runner: &SweepRunner, stop: usize) -> FleetCheckpoint {
        let stop = stop.min(self.bodies);
        FleetCheckpoint::capture(self, &self.fold_range(runner, 0..stop), stop)
    }

    /// Resumes an interrupted fold from `checkpoint` and finishes the fleet:
    /// the result is byte-identical to an uninterrupted [`run`](Self::run)
    /// (property-tested at every body boundary in
    /// `tests/fleet_checkpoint.rs`).
    ///
    /// # Errors
    /// [`CheckpointError::ConfigMismatch`] if the checkpoint was captured
    /// under a different fleet configuration (bodies, base seed, horizon or
    /// top-K); [`CheckpointError::NotResumable`] if it is a shard partial
    /// (its aggregator did not ingest the full `0..next_body` prefix — such
    /// partials merge via [`ShardPlan::merge_checkpoints`], they do not
    /// resume).
    pub fn resume(
        &self,
        runner: &SweepRunner,
        checkpoint: FleetCheckpoint,
    ) -> Result<FleetReport, CheckpointError> {
        checkpoint.verify_config(self)?;
        if checkpoint.bodies_ingested() != checkpoint.next_body() {
            return Err(CheckpointError::NotResumable);
        }
        let (mut aggregator, next_body) = checkpoint.into_parts();
        aggregator.merge(self.fold_range(runner, next_body..self.bodies));
        Ok(aggregator.finish())
    }
}

/// One fold thread's state: its partial, the netsim workspace all of its
/// bodies run in, the node list and churn draw of the body it drew last,
/// and a count per [`ClassTable`] slot of the repeats it did not ingest.
struct FoldThread<'p> {
    partial: FleetAggregator,
    workspace: Workspace,
    nodes: Vec<&'p NodeConfig>,
    churn: ChurnSample,
    repeats: [u64; ClassTable::SLOTS],
}

impl FoldThread<'_> {
    fn new(config: &FleetConfig) -> Self {
        Self {
            partial: FleetAggregator::new(config.horizon, config.top_k),
            workspace: Workspace::new(),
            nodes: Vec::new(),
            churn: ChurnSample::default(),
            repeats: [0; ClassTable::SLOTS],
        }
    }
}

/// What one fold builds when it starts, shares among its threads and drops
/// when it ends: a churn-free fold's [`ClassTable`], or a churned fold's
/// spec and its population's archetypes' cut tables, in archetype order.
enum FoldTable<'c> {
    Classes(Box<ClassTable>),
    Cuts(&'c ChurnSpec, Box<[CutTable]>),
}

/// What one body adds to a fold but its latency samples and its place in
/// the worst list: the fields `FleetAggregator::add_totals` lists once,
/// read off a body's run or out of a [`BodySummary`].
#[derive(Debug, Clone, Copy)]
struct BodyTotals {
    run: RunScalars,
    delivery_ratio: f64,
    active_span: TimeSpan,
    migrations: u64,
    replans: u64,
    placement_energy: Energy,
}

/// One churn-free fold's table of its deterministic body classes, shared by
/// all of the fold's threads (see the module docs).
///
/// Slot `i` holds a class key, written once by the thread that claims the
/// slot, and the summary of that class's first body, written once by the
/// same thread after it ran the body.  Classes claim slots in the order the
/// threads first meet them, and a class never holds two slots.  The keys sit
/// in their own array, apart from the summaries, so a lookup scans only the
/// 512 bytes of keys.  The summaries (about 30 KiB) live on the heap, and a
/// fold keeps the whole table in a box ([`FoldTable`]), so its stack frame
/// stays small whichever table it builds.
struct ClassTable {
    keys: [AtomicU64; ClassTable::SLOTS],
    firsts: Box<[OnceLock<BodySummary>]>,
}

/// What a body's class finds in the [`ClassTable`].
enum Lookup<'a> {
    /// The class's first body is stored, in this slot: the body is a repeat.
    Repeat(usize, &'a BodySummary),
    /// This thread claimed a slot for the class: the body runs, and its
    /// summary goes here.
    First(&'a OnceLock<BodySummary>),
    /// The body runs: it has no class, its class's first body is still
    /// running on another thread, or every slot holds another class.
    Run,
}

impl ClassTable {
    const SLOTS: usize = 64;

    /// The key of a slot no class has claimed.  No class is looked up
    /// under it: a body of class `FREE` runs without the table.
    const FREE: u64 = u64::MAX;

    fn new() -> Self {
        Self {
            keys: std::array::from_fn(|_| AtomicU64::new(Self::FREE)),
            firsts: (0..Self::SLOTS).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Looks `class` up, claiming the first free slot for it if no slot
    /// holds it.
    fn find(&self, class: Option<u64>) -> Lookup<'_> {
        let Some(class) = class.filter(|&class| class != Self::FREE) else {
            return Lookup::Run;
        };
        for (slot, key) in self.keys.iter().enumerate() {
            // A key is only a name for its slot; the summary is published
            // through the slot's `OnceLock`, so relaxed accesses suffice.
            let mut held = key.load(Ordering::Relaxed);
            if held == Self::FREE {
                match key.compare_exchange(Self::FREE, class, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => return Lookup::First(&self.firsts[slot]),
                    Err(claimed) => held = claimed,
                }
            }
            if held == class {
                return self.firsts[slot]
                    .get()
                    .map_or(Lookup::Run, |first| Lookup::Repeat(slot, first));
            }
        }
        Lookup::Run
    }

    /// Ingests every counted repeat, `repeats[i]` of slot `i`'s class, into
    /// `merged`: the merge of every partial whose repeats were counted.
    fn flush(&self, repeats: &[u64; Self::SLOTS], merged: &mut FleetAggregator) {
        for (first, &count) in self.firsts.iter().zip(repeats) {
            if let Some(first) = first.get() {
                merged.ingest_repeats(first, count);
            }
        }
    }
}

/// The bounded-size reduction of one body's simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BodySummary {
    /// Position of the body in the fleet (aggregation order).
    pub body_index: usize,
    /// Seed the body's traffic sources ran under.
    pub seed: u64,
    /// Name of the population archetype the body was drawn from (interned).
    pub archetype: Arc<str>,
    /// Number of leaf nodes the body carried.
    pub nodes: usize,
    /// Frames generated across the body's nodes.
    pub generated_frames: usize,
    /// Frames delivered to the body's hub.
    pub delivered_frames: usize,
    /// Application bytes delivered to the body's hub.
    pub delivered_bytes: usize,
    /// Discrete events the body's simulation processed.
    pub events_processed: u64,
    /// Delivered / generated frames for this body.
    pub delivery_ratio: f64,
    /// Radio + baseline energy across the body's nodes.
    pub total_energy: Energy,
    /// Worst per-node p95 delivery latency on this body.
    pub worst_p95_latency: TimeSpan,
    /// Merged latency sketch over every node of this body.
    pub latency: LatencySketch,
    /// Span the body actually simulated: the full horizon for a static
    /// fleet, the duty-weighted residency for a churned one.
    pub active_span: TimeSpan,
    /// Placement migrations adopted over the body's residency.
    pub migrations: u64,
    /// Optimiser re-runs after admission (a superset of migrations).
    pub replans: u64,
    /// Inference + migration energy charged by the placement layer
    /// ([`Energy::ZERO`] for a churn-free fleet).
    pub placement_energy: Energy,
}

impl BodySummary {
    /// The summary's [`BodyTotals`].
    fn totals(&self) -> BodyTotals {
        BodyTotals {
            run: RunScalars {
                generated_frames: self.generated_frames,
                delivered_frames: self.delivered_frames,
                delivered_bytes: self.delivered_bytes,
                events_processed: self.events_processed,
                total_energy: self.total_energy,
                worst_p95_latency: self.worst_p95_latency,
            },
            delivery_ratio: self.delivery_ratio,
            active_span: self.active_span,
            migrations: self.migrations,
            replans: self.replans,
            placement_energy: self.placement_energy,
        }
    }
}

/// Bounded-memory, body-order fold of a fleet stream.
///
/// State per aggregator, independent of how many bodies are ingested:
///
/// * one fleet-wide merged [`LatencySketch`] (every delivered frame),
/// * one [`LatencySketch`] over per-body worst-p95 values (the cross-body
///   SLO distribution, queryable to the sketch's documented 1/64 bound,
///   with exact min/max),
/// * running scalar totals (energy, frames, bytes, events, delivery),
/// * the top-K worst bodies by p95, kept exactly (worst first, ties broken
///   toward the earlier body).
///
/// How the bodies are split across aggregators is **not** load-bearing, as
/// long as each ingests its own in increasing index order: every piece of
/// state merges through an associative, commutative operation (integer adds,
/// [`ExactSum`] fixed-point sums, bucket-wise sketch merges, min/max
/// lattices, and a top-K union ordered by `(p95 desc, body index asc)`), so
/// the aggregator is a commutative monoid under [`merge`](Self::merge) with
/// [`FleetAggregator::new`] as the identity.  Fold any partition of the
/// fleet into index-ordered subsets independently, merge the partials in
/// any grouping, and the state is byte-identical to the single-stream
/// body-order fold — the contract the thread, shard and checkpoint layers
/// are built on (property-tested in `tests/fleet_shards.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAggregator {
    horizon: TimeSpan,
    top_k: usize,
    bodies: usize,
    fleet_latency: LatencySketch,
    body_p95: LatencySketch,
    /// Fleet-wide energy in joules, accumulated exactly so merging partial
    /// folds reproduces the single-stream low bits.
    total_energy: ExactSum,
    total_generated: usize,
    total_delivered: usize,
    total_delivered_bytes: usize,
    total_events: u64,
    min_body_delivery_ratio: f64,
    /// Placement migrations adopted across the fleet (0 without churn).
    total_migrations: u64,
    /// Optimiser re-runs across the fleet (0 without churn).
    total_replans: u64,
    /// Sum of per-body active spans in seconds, accumulated exactly.
    active_span: ExactSum,
    /// Placement-layer energy in joules, accumulated exactly.
    placement_energy: ExactSum,
    worst: Vec<BodySummary>,
}

impl FleetAggregator {
    /// Creates an empty aggregator keeping the `top_k` worst bodies exactly.
    #[must_use]
    pub fn new(horizon: TimeSpan, top_k: usize) -> Self {
        Self {
            horizon,
            top_k: top_k.max(1),
            bodies: 0,
            fleet_latency: LatencySketch::new(),
            body_p95: LatencySketch::new(),
            total_energy: ExactSum::new(),
            total_generated: 0,
            total_delivered: 0,
            total_delivered_bytes: 0,
            total_events: 0,
            min_body_delivery_ratio: 1.0,
            total_migrations: 0,
            total_replans: 0,
            active_span: ExactSum::new(),
            placement_energy: ExactSum::new(),
            worst: Vec::new(),
        }
    }

    /// Number of bodies ingested so far.
    #[must_use]
    pub fn bodies(&self) -> usize {
        self.bodies
    }

    /// Folds one body into the aggregate.
    ///
    /// Each aggregator must ingest its bodies in increasing index order: the
    /// top-K list breaks p95 ties toward the body ingested first.  Partials
    /// that each did so then merge in any grouping (see
    /// [`merge`](Self::merge)).
    pub fn ingest(&mut self, summary: BodySummary) {
        self.add_summary(&summary, 1);
        if !self.keeps(summary.worst_p95_latency) {
            return;
        }
        // Keep `worst` sorted worst-first (p95 descending, earlier body
        // first on ties): find the first slot whose p95 is strictly smaller
        // and insert there, so in-order ingestion is fully deterministic.
        let position = self
            .worst
            .iter()
            .position(|s| s.worst_p95_latency < summary.worst_p95_latency)
            .unwrap_or(self.worst.len());
        self.worst.insert(position, summary);
        self.worst.truncate(self.top_k);
    }

    /// Whether the next body ingested, of worst p95 `p95`, would enter the
    /// worst list: the list has room, or the body beats its last entry.  A
    /// later body loses every p95 tie, so a tie with the last entry is not
    /// kept.  Once false for a `p95`, it stays false: the list only fills,
    /// and the p95 of its last entry only rises, through ingestion and
    /// [`merge`](Self::merge) alike.
    fn keeps(&self, p95: TimeSpan) -> bool {
        let last = self
            .worst
            .last()
            .map_or(TimeSpan::ZERO, |s| s.worst_p95_latency);
        !(self.worst.len() == self.top_k && p95 <= last)
    }

    /// Ingests `count` bodies equal to `summary` but for their indices and
    /// seeds, none of which the worst list keeps — bit-identical to `count`
    /// [`ingest`](Self::ingest) calls, which would each return before the
    /// list.
    fn ingest_repeats(&mut self, summary: &BodySummary, count: u64) {
        if count == 0 {
            return;
        }
        debug_assert!(!self.keeps(summary.worst_p95_latency));
        self.add_summary(summary, count);
    }

    /// Ingests one body the worst list does not keep, straight off its
    /// run: `totals` and the node sketches `workspace` holds.  Bit-identical
    /// to ingesting the body's summary, which would merge those sketches
    /// into its own first.
    fn add_run(&mut self, totals: &BodyTotals, workspace: &Workspace) {
        debug_assert!(!self.keeps(totals.run.worst_p95_latency));
        workspace.merge_latency(&mut self.fleet_latency);
        self.add_totals(totals, 1);
    }

    /// Adds `count` bodies equal to `summary` to every total but the worst
    /// list, for [`ingest`](Self::ingest) and `ingest_repeats`.
    #[inline(always)]
    fn add_summary(&mut self, summary: &BodySummary, count: u64) {
        self.fleet_latency.merge_scaled(&summary.latency, count);
        self.add_totals(&summary.totals(), count);
    }

    /// Adds `count` bodies of equal `totals` to every total but the fleet
    /// sketch and the worst list — the one place that lists the fields a
    /// body updates, for summaries and runs alike.  Each total takes one
    /// scaled update, equal to `count` unscaled ones because every piece of
    /// state it touches is an integer, an [`ExactSum`], a sketch or a min.
    /// Always inlined, so `count = 1` compiles to the unscaled updates.
    #[inline(always)]
    fn add_totals(&mut self, totals: &BodyTotals, count: u64) {
        let bodies = count as usize;
        let run = &totals.run;
        self.bodies += bodies;
        self.body_p95.record_run(run.worst_p95_latency, count);
        self.total_energy
            .add_scaled(run.total_energy.as_joules(), count);
        self.total_generated += run.generated_frames * bodies;
        self.total_delivered += run.delivered_frames * bodies;
        self.total_delivered_bytes += run.delivered_bytes * bodies;
        self.total_events += run.events_processed * count;
        self.min_body_delivery_ratio = self.min_body_delivery_ratio.min(totals.delivery_ratio);
        self.total_migrations += totals.migrations * count;
        self.total_replans += totals.replans * count;
        self.active_span
            .add_scaled(totals.active_span.as_seconds(), count);
        self.placement_energy
            .add_scaled(totals.placement_energy.as_joules(), count);
    }

    /// Memory-footprint proxy of the aggregation state: live sketch buckets
    /// (fleet + body-p95 + the top-K bodies' sketches) plus retained
    /// summaries.  Bounded by value ranges and K — **not** by body count —
    /// which `bench_netsim` asserts across a 10× fleet-size spread.
    #[must_use]
    pub fn state_buckets(&self) -> usize {
        self.fleet_latency.bucket_count()
            + self.body_p95.bucket_count()
            + self
                .worst
                .iter()
                .map(|s| s.latency.bucket_count() + 1)
                .sum::<usize>()
    }

    /// Merges another partial fold into this one — the commutative-monoid
    /// operation of the fleet algebra.
    ///
    /// Every field combines through an associative, commutative operation:
    /// counts and totals are integer additions, the latency and per-body-p95
    /// sketches merge bucket-wise with [`ExactSum`] sums, the minimum
    /// delivery ratio is a lattice meet, and the exact worst-body lists
    /// merge union-then-truncate under the total order `(p95 descending,
    /// body index ascending)` — the same order single-stream ingestion
    /// maintains, and a total order because body indices are unique.  Hence
    /// for any partition of the fleet into subsets, folding each subset
    /// independently in increasing body index and merging the partials (in
    /// **any** grouping or order) is byte-identical to the single-stream
    /// fold.
    ///
    /// Truncation loses nothing: a body in the merged top-K is in the top-K
    /// of whichever partial ingested it, so per-shard truncation before the
    /// merge preserves the global top-K — which is what makes the operation
    /// associative despite the bound.
    ///
    /// # Panics
    /// Panics if the two partials disagree on the horizon or top-K — merging
    /// folds of different fleet configurations is a programming error.
    pub fn merge(&mut self, other: FleetAggregator) {
        assert_eq!(
            self.horizon.as_seconds().to_bits(),
            other.horizon.as_seconds().to_bits(),
            "merging fleet partials with different horizons"
        );
        assert_eq!(
            self.top_k, other.top_k,
            "merging fleet partials with different top-K"
        );
        self.bodies += other.bodies;
        self.fleet_latency.merge(&other.fleet_latency);
        self.body_p95.merge(&other.body_p95);
        self.total_energy.add_sum(&other.total_energy);
        self.total_generated += other.total_generated;
        self.total_delivered += other.total_delivered;
        self.total_delivered_bytes += other.total_delivered_bytes;
        self.total_events += other.total_events;
        self.min_body_delivery_ratio = self
            .min_body_delivery_ratio
            .min(other.min_body_delivery_ratio);
        self.total_migrations += other.total_migrations;
        self.total_replans += other.total_replans;
        self.active_span.add_sum(&other.active_span);
        self.placement_energy.add_sum(&other.placement_energy);
        let mut left = std::mem::take(&mut self.worst).into_iter().peekable();
        let mut right = other.worst.into_iter().peekable();
        let mut merged = Vec::with_capacity(self.top_k.min(left.len() + right.len()));
        while merged.len() < self.top_k {
            let take_left = match (left.peek(), right.peek()) {
                (Some(a), Some(b)) => ranks_before(a, b),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let next = if take_left { left.next() } else { right.next() };
            merged.extend(next);
        }
        self.worst = merged;
    }

    /// Finalises the fold into a [`FleetReport`].
    #[must_use]
    pub fn finish(self) -> FleetReport {
        FleetReport { fold: self }
    }
}

/// The total order the worst-body lists are kept and merged in: p95 latency
/// descending, ties broken toward the earlier body index.  Body indices are
/// unique across a fleet, so this is a strict total order — which is what
/// makes the top-K union in [`FleetAggregator::merge`] order-insensitive.
fn ranks_before(a: &BodySummary, b: &BodySummary) -> bool {
    a.worst_p95_latency > b.worst_p95_latency
        || (a.worst_p95_latency == b.worst_p95_latency && a.body_index < b.body_index)
}

/// Deterministic aggregate of a fleet stream — everything the old
/// materialised report answered, from `O(K + sketch)` state: the finished
/// fold itself, read through accessors that round its exact sums.  Two
/// reports are equal when their folds' states are.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    fold: FleetAggregator,
}

impl FleetReport {
    /// Number of bodies aggregated.
    #[must_use]
    pub fn bodies(&self) -> usize {
        self.fold.bodies
    }

    /// Simulated horizon per body.
    #[must_use]
    pub fn horizon(&self) -> TimeSpan {
        self.fold.horizon
    }

    /// The worst bodies by p95 latency (worst first), kept exactly — at most
    /// the configured top-K, fewer when the fleet is smaller.
    #[must_use]
    pub fn worst_bodies(&self) -> &[BodySummary] {
        &self.fold.worst
    }

    /// Fleet-wide delivery-latency distribution (every delivered frame on
    /// every body), queryable to the sketch's documented error bound.
    #[must_use]
    pub fn fleet_latency(&self) -> &LatencySketch {
        &self.fold.fleet_latency
    }

    /// Distribution of per-body worst p95 latency across the fleet (exact
    /// count/min/max, quantiles within the sketch bound).
    #[must_use]
    pub fn body_p95_distribution(&self) -> &LatencySketch {
        &self.fold.body_p95
    }

    /// Total discrete events processed across the fleet.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.fold.total_events
    }

    /// Total application bytes delivered across the fleet.
    #[must_use]
    pub fn delivered_bytes(&self) -> usize {
        self.fold.total_delivered_bytes
    }

    /// Fleet-wide delivered / generated frame ratio.
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.fold.total_generated == 0 {
            return 1.0;
        }
        self.fold.total_delivered as f64 / self.fold.total_generated as f64
    }

    /// Total (radio + baseline) energy across the fleet.
    #[must_use]
    pub fn total_energy(&self) -> Energy {
        Energy::from_joules(self.fold.total_energy.to_f64())
    }

    /// Aggregate delivered throughput across the fleet.
    #[must_use]
    pub fn aggregate_throughput(&self) -> DataRate {
        if self.fold.horizon.as_seconds() <= 0.0 {
            return DataRate::ZERO;
        }
        DataVolume::from_bytes(self.fold.total_delivered_bytes as f64) / self.fold.horizon
    }

    /// Memory-footprint proxy of the retained aggregation state (see
    /// [`FleetAggregator::state_buckets`]).
    #[must_use]
    pub fn aggregation_state_buckets(&self) -> usize {
        self.fold.state_buckets()
    }

    /// The `q`-quantile (nearest-rank, `q` clamped to `[0, 1]`) across bodies
    /// of the per-body worst p95 latency — the "how bad is the unluckiest
    /// body" fleet SLO curve.
    ///
    /// Exactness follows the bounded aggregation state: ranks that land in
    /// the retained top-K tail (always including `q = 1.0`) and `q = 0.0`
    /// (the sketch's exact minimum) are **exact**; interior quantiles come
    /// from the per-body p95 sketch and may over-report by at most
    /// [`hidwa_netsim::sketch::RELATIVE_ERROR_BOUND`], never under-report.
    /// The curve is monotone in `q`: interior results are capped by the
    /// smallest retained tail value (a valid upper bound for every interior
    /// rank), so the sketch's overshoot can never lift an interior point
    /// above the exact tail that follows it.
    #[must_use]
    pub fn body_worst_p95_quantile(&self, q: f64) -> TimeSpan {
        if self.fold.bodies == 0 {
            return TimeSpan::ZERO;
        }
        // Rank in the ascending per-body ordering.
        let index = sketch::nearest_rank_index(self.fold.bodies, q);
        if index == 0 {
            return self.fold.body_p95.min();
        }
        // `worst` holds the top `worst.len()` ascending positions
        // `bodies - worst.len() ..= bodies - 1`, worst first.
        if index >= self.fold.bodies - self.fold.worst.len() {
            return self.fold.worst[self.fold.bodies - 1 - index].worst_p95_latency;
        }
        let interior = self.fold.body_p95.quantile(q);
        self.fold
            .worst
            .last()
            .map_or(interior, |tail| interior.min(tail.worst_p95_latency))
    }

    /// Smallest per-body delivery ratio in the fleet (1.0 for an empty
    /// fleet).
    #[must_use]
    pub fn min_body_delivery_ratio(&self) -> f64 {
        self.fold.min_body_delivery_ratio
    }

    /// Placement migrations adopted across the fleet (0 without churn).
    #[must_use]
    pub fn migrations(&self) -> u64 {
        self.fold.total_migrations
    }

    /// Optimiser re-runs across the fleet after admission (0 without churn).
    #[must_use]
    pub fn replans(&self) -> u64 {
        self.fold.total_replans
    }

    /// Total active (duty-weighted resident) simulated time across bodies.
    #[must_use]
    pub fn active_span(&self) -> TimeSpan {
        TimeSpan::from_seconds(self.fold.active_span.to_f64())
    }

    /// Inference + migration energy charged by the placement layer
    /// ([`Energy::ZERO`] without churn).
    #[must_use]
    pub fn placement_energy(&self) -> Energy {
        Energy::from_joules(self.fold.placement_energy.to_f64())
    }

    /// Migrations per active body-hour — the headline policy-comparison
    /// metric (ccicconetti/stateful-faas-sim's `migration_rate` at fleet
    /// scale).  Zero when no body was ever active.
    #[must_use]
    pub fn migration_rate(&self) -> f64 {
        let hours = self.active_span().as_seconds() / 3600.0;
        if hours <= 0.0 {
            return 0.0;
        }
        self.fold.total_migrations as f64 / hours
    }

    /// Mean fraction of the horizon bodies spent active — 1.0 for a static
    /// fleet, lower under churn (arrival/departure clipping × duty cycle).
    /// Zero for an empty fleet.
    #[must_use]
    pub fn mean_occupancy(&self) -> f64 {
        let denominator = self.fold.bodies as f64 * self.fold.horizon.as_seconds();
        if denominator <= 0.0 {
            return 0.0;
        }
        self.active_span().as_seconds() / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::LinkCache;

    #[test]
    fn per_body_seeds_are_decorrelated() {
        let fleet = FleetConfig::new(4);
        let seeds: Vec<u64> = (0..4).map(|i| fleet.seed_for_body(i)).collect();
        for (i, &a) in seeds.iter().enumerate() {
            for &b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Derivation is pure: same index, same seed.
        assert_eq!(fleet.seed_for_body(2), fleet.seed_for_body(2));
        // And the scenario layer agrees with the fleet layer.
        assert_eq!(fleet.scenario_for_body(2).seed(), fleet.seed_for_body(2));
    }

    #[test]
    fn fleet_aggregates_are_identical_across_thread_widths_and_chunks() {
        let fleet = FleetConfig::new(32)
            .with_base_seed(99)
            .with_horizon(TimeSpan::from_seconds(2.0));
        let serial = fleet.run(&SweepRunner::serial());
        let wide = fleet.run(&SweepRunner::with_threads(4));
        assert_eq!(serial, wide);
        assert_eq!(serial.bodies(), 32);
        // An odd width splits the bodies unevenly across the partials.
        let odd = fleet.run(&SweepRunner::with_threads(3));
        assert_eq!(serial, odd);
    }

    #[test]
    fn heterogeneous_fleet_is_deterministic_and_bounded() {
        let fleet = FleetConfig::new(48)
            .with_population(PopulationModel::mixed_default())
            .with_base_seed(2024)
            .with_horizon(TimeSpan::from_seconds(1.0))
            .with_top_k(4);
        let serial = fleet.run(&SweepRunner::serial());
        for width in [3, 4] {
            assert_eq!(serial, fleet.run(&SweepRunner::with_threads(width)));
        }
        assert_eq!(serial.bodies(), 48);
        assert_eq!(serial.worst_bodies().len(), 4);
        // Worst-first ordering with deterministic tie-breaks.
        for pair in serial.worst_bodies().windows(2) {
            assert!(pair[0].worst_p95_latency >= pair[1].worst_p95_latency);
        }
        // Multiple archetypes actually showed up in the stream.
        let sampled: Vec<&str> = (0..48)
            .map(|i| fleet.scenario_for_body(i))
            .map(|s| {
                if s.archetype() == "health-patch" {
                    "h"
                } else {
                    "o"
                }
            })
            .collect();
        assert!(sampled.contains(&"h") && sampled.contains(&"o"));
    }

    #[test]
    fn fleet_totals_match_a_manual_fold() {
        let fleet = FleetConfig::new(5).with_horizon(TimeSpan::from_seconds(3.0));
        let report = fleet.run(&SweepRunner::serial());
        // Re-derive the same totals by folding the five bodies by hand.
        let mut aggregator = FleetAggregator::new(fleet.horizon(), FleetConfig::DEFAULT_TOP_K);
        for i in 0..5 {
            aggregator.ingest(report_summary(&fleet, i));
        }
        let manual = aggregator.finish();
        assert_eq!(report, manual);
        assert!(report.delivery_ratio() > 0.9);
        assert!(report.total_energy() > Energy::ZERO);
        assert!(report.aggregate_throughput() > DataRate::ZERO);
        // With K ≥ bodies, every body is retained and the sketch merged all
        // delivered frames.
        assert_eq!(report.worst_bodies().len(), 5);
        let delivered: u64 = report
            .worst_bodies()
            .iter()
            .map(|s| s.delivered_frames as u64)
            .sum();
        assert_eq!(report.fleet_latency().count(), delivered);
        assert_eq!(report.body_p95_distribution().count(), 5);
    }

    /// The oracle for the workspace readout: body `body_index` run on a
    /// freshly built engine, its full report reduced across the nodes.
    fn report_summary(config: &FleetConfig, body_index: usize) -> BodySummary {
        let scenario = config.scenario_for_body(body_index);
        let (active_span, migrations, replans, placement_energy) = match config.churn() {
            None => (config.horizon(), 0, 0, Energy::ZERO),
            Some(spec) => {
                let sample =
                    spec.churn()
                        .sample(config.base_seed(), body_index as u64, config.horizon());
                let outcome = placement::simulate_placement(spec, &scenario, &sample);
                (
                    sample.active(),
                    outcome.migrations,
                    outcome.replans,
                    outcome.energy,
                )
            }
        };
        let report = scenario
            .build_simulation(&LinkCache::for_population(config.population()))
            .run(active_span);
        let mut latency = LatencySketch::new();
        let mut worst_p95 = TimeSpan::ZERO;
        for (stats, sketch) in report.node_stats().iter().zip(report.latency_sketches()) {
            latency.merge(sketch);
            worst_p95 = worst_p95.max(stats.p95_latency);
        }
        BodySummary {
            body_index,
            seed: scenario.seed(),
            archetype: Arc::clone(scenario.archetype_label()),
            nodes: scenario.leaves().len(),
            generated_frames: report.node_stats().iter().map(|s| s.generated_frames).sum(),
            delivered_frames: report.node_stats().iter().map(|s| s.delivered_frames).sum(),
            delivered_bytes: report.node_stats().iter().map(|s| s.delivered_bytes).sum(),
            events_processed: report.events_processed(),
            delivery_ratio: report.delivery_ratio(),
            total_energy: report.total_energy(),
            worst_p95_latency: worst_p95,
            latency,
            active_span,
            migrations,
            replans,
            placement_energy,
        }
    }

    impl FleetConfig {
        /// Body `body_index`'s summary off the fold's engine path, run in
        /// `workspace` in a fold whose table is `table`.
        fn simulate_body(
            &self,
            body_index: usize,
            table: &FoldTable<'_>,
            workspace: &mut Workspace,
        ) -> BodySummary {
            let mut nodes = Vec::new();
            let (archetype, _) =
                self.population
                    .nodes_of(self.base_seed, body_index as u64, &mut nodes);
            let mut churn = ChurnSample::default();
            let totals = self.run_body(body_index, archetype, &nodes, table, &mut churn, workspace);
            self.summarise(body_index, archetype, nodes.len(), totals, workspace)
        }
    }

    impl FoldTable<'_> {
        /// The class table of a churn-free fold.
        fn classes(&self) -> Option<&ClassTable> {
            match self {
                Self::Classes(table) => Some(table),
                Self::Cuts(..) => None,
            }
        }
    }

    #[test]
    fn workspace_readout_matches_the_report_reduction() {
        use crate::population::{BodyArchetype, ChurnModel, LeafArchetype};
        use hidwa_energy::sensing::SensorModality;
        use hidwa_eqs::body::BodySite;
        use hidwa_netsim::traffic::{TrafficMix, TrafficPattern};
        use hidwa_units::Power;
        let mixed = FleetConfig::new(3000)
            .with_population(PopulationModel::mixed_default())
            .with_base_seed(5)
            .with_horizon(TimeSpan::from_seconds(2.0));
        // Zero-rate churn at full duty: every span equals the horizon, yet a
        // churned fleet keeps no class table.
        let calm = mixed.clone().with_base_seed(31).with_churn(ChurnSpec::new(
            ChurnModel::with_rate(0.0).with_duty_cycle(1.0, 1.0),
            PolicyKind::StaticAtAdmission,
        ));
        let churned = FleetConfig::new(240)
            .with_population(PopulationModel::mixed_default())
            .with_base_seed(77)
            .with_horizon(TimeSpan::from_seconds(2.0))
            .with_churn(ChurnSpec::new(
                ChurnModel::with_rate(0.5).with_link_fade(0.8),
                PolicyKind::ReoptimizeOnChange,
            ));
        // 72 bursty-or-periodic slots, each worn with probability 0.9, so
        // body sizes fall on both sides of the 64-node single-word mask.
        let sites = [BodySite::Wrist, BodySite::Chest, BodySite::Ear];
        let slots = (0..72)
            .map(|i| {
                let spec = scenario::LeafSpec {
                    name: "burst",
                    site: sites[i % sites.len()],
                    modality: SensorModality::Inertial,
                    traffic: TrafficPattern::Silent,
                    compute_power: Power::from_micro_watts(3.0),
                };
                let traffic = TrafficMix::new(vec![
                    (
                        2.0,
                        TrafficPattern::bursty(TimeSpan::from_millis(60.0), 128),
                    ),
                    (
                        1.0,
                        TrafficPattern::periodic(TimeSpan::from_millis(90.0), 64),
                    ),
                ]);
                LeafArchetype::new(spec, 0.9, traffic)
            })
            .collect();
        let wide = FleetConfig::new(24)
            .with_population(PopulationModel::new(vec![BodyArchetype::new(
                "wide",
                1.0,
                RadioTechnology::WiR,
                MacPolicy::Polling,
                slots,
            )]))
            .with_horizon(TimeSpan::from_seconds(1.0));
        let fleets = [mixed, calm, churned, wide];
        // One workspace runs every body back to back, so each body starts
        // from whatever the previous (often larger) one left behind.  Each
        // fleet also has a counted fold of its own (a fold thread and the
        // fleet's class table) and a plain fold of the report reductions.
        let mut workspace = Workspace::new();
        let mut folds: Vec<_> = fleets
            .iter()
            .map(|config| {
                let plain = FleetAggregator::new(config.horizon(), config.top_k());
                (FoldThread::new(config), config.fold_table(), plain)
            })
            .collect();
        let mut sizes = Vec::new();
        for body_index in 0..3000 {
            for (k, config) in fleets.iter().enumerate() {
                if body_index >= config.bodies() {
                    continue;
                }
                let want = report_summary(config, body_index);
                let got = config.simulate_body(body_index, &folds[k].1, &mut workspace);
                let context = format!("body {body_index} of {}, fleet {k}", want.archetype);
                assert_eq!(
                    got.total_energy.as_joules().to_bits(),
                    want.total_energy.as_joules().to_bits(),
                    "{context}"
                );
                assert_eq!(
                    got.worst_p95_latency.as_seconds().to_bits(),
                    want.worst_p95_latency.as_seconds().to_bits(),
                    "{context}"
                );
                assert!(got.latency == want.latency, "{context}");
                assert_eq!(got, want, "{context}");
                sizes.push(got.nodes);
                let (thread, table, plain) = &mut folds[k];
                config.fold_body(body_index, table, thread);
                plain.ingest(want);
            }
        }
        // Every deterministic `mixed_default` class was stored and repeated;
        // a churned fleet, even one whose spans all equal the horizon, keeps
        // no table.
        let (thread, table, _) = &folds[0];
        let stored = table.classes().expect("a churn-free table").stored();
        assert_eq!(stored.len(), 26);
        assert!(stored.iter().all(|&slot| thread.repeats[slot] > 0));
        assert!(folds[1].1.classes().is_none() && folds[2].1.classes().is_none());
        // Each counted fold, its repeats flushed, equals the plain fold.
        for (config, (thread, table, plain)) in fleets.iter().zip(folds) {
            let mut partial = thread.partial;
            if let Some(table) = table.classes() {
                table.flush(&thread.repeats, &mut partial);
            }
            assert!(
                checkpoint_bytes(config, &partial) == checkpoint_bytes(config, &plain),
                "{} bodies",
                config.bodies()
            );
        }
        // The engine really shrank and grew across the mask boundary.
        assert!(sizes.windows(2).any(|pair| pair[0] > 64 && pair[1] <= 64));
        assert!(sizes.windows(2).any(|pair| pair[0] <= 64 && pair[1] > 64));
        assert!(sizes.iter().any(|&nodes| nodes > 64 && nodes < 72));
    }

    /// The checkpoint bytes of `aggregator`, a fold of all of `config`'s
    /// bodies.
    fn checkpoint_bytes(config: &FleetConfig, aggregator: &FleetAggregator) -> Vec<u8> {
        FleetCheckpoint::capture(config, aggregator, config.bodies())
            .save()
            .to_vec()
    }

    /// The oracle for a counted fold: every body's report reduction
    /// ingested, in index order.
    fn plain_fold(config: &FleetConfig) -> FleetAggregator {
        let mut aggregator = FleetAggregator::new(config.horizon(), config.top_k());
        for body_index in 0..config.bodies() {
            aggregator.ingest(report_summary(config, body_index));
        }
        aggregator
    }

    impl ClassTable {
        /// The slots whose class's first body is stored.
        fn stored(&self) -> Vec<usize> {
            (0..Self::SLOTS)
                .filter(|&slot| self.firsts[slot].get().is_some())
                .collect()
        }
    }

    #[test]
    fn counted_fold_matches_the_plain_fold() {
        let mixed = FleetConfig::new(500)
            .with_population(PopulationModel::mixed_default())
            .with_base_seed(26)
            .with_horizon(TimeSpan::from_seconds(2.0));
        // Every uniform body ties on p95, so the index tie-break picks the
        // top-K.
        let uniform = FleetConfig::new(64).with_horizon(TimeSpan::from_seconds(2.0));
        let deep = FleetConfig::new(300)
            .with_population(PopulationModel::mixed_default())
            .with_base_seed(50)
            .with_horizon(TimeSpan::from_seconds(1.0))
            .with_top_k(50);
        let single = FleetConfig::new(1).with_horizon(TimeSpan::from_seconds(2.0));
        for config in [&mixed, &uniform, &deep, &single] {
            let want = checkpoint_bytes(config, &plain_fold(config));
            for width in 1..=4 {
                let got = config
                    .run_until(&SweepRunner::with_threads(width), config.bodies())
                    .save()
                    .to_vec();
                assert!(
                    got == want,
                    "{} bodies, top-K {}, width {width}",
                    config.bodies(),
                    config.top_k()
                );
            }
        }

        // Past the first K uniform bodies, each repeat ties the full worst
        // list, so the fold counts it rather than the partial ingesting it.
        let mut thread = FoldThread::new(&uniform);
        let fold_table = uniform.fold_table();
        let table = fold_table.classes().expect("a churn-free table");
        for body_index in 0..uniform.bodies() {
            uniform.fold_body(body_index, &fold_table, &mut thread);
        }
        assert_eq!(thread.partial.bodies(), FleetConfig::DEFAULT_TOP_K);
        assert_eq!(table.stored(), [0]);
        assert_eq!(thread.repeats[0], 64 - FleetConfig::DEFAULT_TOP_K as u64);
        assert!(thread.repeats[1..].iter().all(|&count| count == 0));

        // `ingest_repeats` equals as many `ingest`s on its own, too: here
        // into a partial that never ingested the repeated body, whose
        // delivery ratio is below every other and so the partial's minimum.
        let one = mixed.clone().with_top_k(1);
        let top = plain_fold(&one).worst.remove(0);
        let mut repeat = (0..one.bodies())
            .map(|i| report_summary(&one, i))
            .find(|s| s.worst_p95_latency < top.worst_p95_latency)
            .expect("a body better than the worst");
        repeat.delivery_ratio = top.delivery_ratio / 2.0;
        let mut counted = FleetAggregator::new(one.horizon(), one.top_k());
        let mut ingested = counted.clone();
        counted.ingest(top.clone());
        counted.ingest_repeats(&repeat, 5);
        ingested.ingest(top);
        for body_index in 0..5 {
            ingested.ingest(BodySummary {
                body_index,
                ..repeat.clone()
            });
        }
        assert!(checkpoint_bytes(&one, &counted) == checkpoint_bytes(&one, &ingested));
        let min_ratio = counted.finish().min_body_delivery_ratio();
        assert_eq!(min_ratio.to_bits(), repeat.delivery_ratio.to_bits());
    }

    #[test]
    fn engine_bodies_fold_like_the_report_oracle() {
        use crate::population::ChurnModel;
        use hidwa_netsim::traffic::TrafficPattern;
        let mixed = FleetConfig::new(400)
            .with_population(PopulationModel::mixed_default())
            .with_base_seed(33)
            .with_horizon(TimeSpan::from_seconds(1.0));
        // The ECG patch beside camera glasses that capture on scene
        // changes: every body is bursty, so every body runs the engine.
        let mut leaves = scenario::standard_leaf_set();
        let mut camera = leaves.remove(4);
        camera.traffic = TrafficPattern::bursty(TimeSpan::from_millis(50.0), 4096);
        let bursty = FleetConfig::new(160)
            .with_leaves(vec![leaves.remove(0), camera])
            .with_base_seed(8)
            .with_horizon(TimeSpan::from_seconds(1.0));
        let churned = mixed.clone().with_base_seed(61).with_churn(ChurnSpec::new(
            ChurnModel::with_rate(0.3).with_link_fade(0.8),
            PolicyKind::Hysteresis,
        ));
        for config in [mixed, bursty, churned] {
            let summaries: Vec<BodySummary> = (0..config.bodies())
                .map(|i| report_summary(&config, i))
                .collect();
            // Top-K 1 keeps almost no body and 50 keeps many, and the mixed
            // fleet's repeated classes tie on p95 at every K.
            for top_k in [1, 8, 50] {
                let config = config.clone().with_top_k(top_k);
                let mut plain = FleetAggregator::new(config.horizon(), top_k);
                for summary in &summaries {
                    plain.ingest(summary.clone());
                }
                let want = checkpoint_bytes(&config, &plain);
                for width in 1..=4 {
                    let got = config
                        .run_until(&SweepRunner::with_threads(width), config.bodies())
                        .save()
                        .to_vec();
                    assert!(
                        got == want,
                        "{} bodies, churned {}, top-K {top_k}, width {width}",
                        config.bodies(),
                        config.churn().is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn class_table_claims_each_class_once() {
        let config = FleetConfig::new(1).with_horizon(TimeSpan::from_seconds(2.0));
        let summary = report_summary(&config, 0);
        let table = ClassTable::new();
        // The first lookup of a class claims a slot; until its summary is
        // stored there, every other lookup of the class runs the body.
        let Lookup::First(first) = table.find(Some(7)) else {
            panic!("class 7 claimed no slot");
        };
        assert!(matches!(table.find(Some(7)), Lookup::Run));
        assert!(matches!(table.find(Some(9)), Lookup::First(_)));
        first.set(summary.clone()).expect("one store per slot");
        assert!(matches!(table.find(Some(7)), Lookup::Repeat(0, s) if *s == summary));
        // Neither a classless body nor the free-slot marker touches a slot.
        assert!(matches!(table.find(None), Lookup::Run));
        assert!(matches!(table.find(Some(ClassTable::FREE)), Lookup::Run));
        // Once every slot is claimed, a new class runs without one.
        for class in 100..100 + ClassTable::SLOTS as u64 - 2 {
            assert!(matches!(table.find(Some(class)), Lookup::First(_)));
        }
        assert!(matches!(table.find(Some(5)), Lookup::Run));
        assert_eq!(table.stored(), [0]);
    }

    #[test]
    fn class_table_races_keep_every_fold_exact() {
        // Every uniform body has the one class, so all threads race for one
        // slot; the mixed fleet's threads race over 26 classes.
        let uniform = FleetConfig::new(64).with_horizon(TimeSpan::from_seconds(2.0));
        let mixed = FleetConfig::new(1000)
            .with_population(PopulationModel::mixed_default())
            .with_base_seed(30)
            .with_horizon(TimeSpan::from_seconds(2.0));
        for config in [&uniform, &mixed] {
            let want = checkpoint_bytes(config, &plain_fold(config));
            for width in 2..=4 {
                // One long-lived runner, so folds meet its parked helpers.
                let runner = SweepRunner::with_threads(width);
                for round in 0..100 {
                    let got = config.run_until(&runner, config.bodies()).save().to_vec();
                    assert!(
                        got == want,
                        "{} bodies, width {width}, round {round}",
                        config.bodies()
                    );
                }
            }
        }
    }

    #[test]
    fn interleaved_partitions_merge_to_the_serial_fold() {
        use crate::population::ChurnModel;
        let uniform = FleetConfig::new(64).with_horizon(TimeSpan::from_seconds(2.0));
        // Every uniform body ties on p95, so only the body-index tie-break
        // orders its top-K.
        let report = uniform.run(&SweepRunner::serial());
        let p95 = report.worst_bodies()[0].worst_p95_latency;
        assert!(report
            .worst_bodies()
            .iter()
            .all(|body| body.worst_p95_latency == p95));
        let churned = FleetConfig::new(64)
            .with_population(PopulationModel::mixed_default())
            .with_base_seed(77)
            .with_horizon(TimeSpan::from_seconds(1.0))
            .with_top_k(4)
            .with_churn(ChurnSpec::new(
                ChurnModel::with_rate(0.5).with_link_fade(0.8),
                PolicyKind::ReoptimizeOnChange,
            ));
        for config in [uniform, churned] {
            let summaries: Vec<BodySummary> = (0..config.bodies())
                .map(|i| report_summary(&config, i))
                .collect();
            // Ingests the bodies `keep` selects, in index order.
            let fold = |keep: &dyn Fn(usize) -> bool| {
                let mut aggregator = FleetAggregator::new(config.horizon(), config.top_k());
                for summary in summaries.iter().filter(|s| keep(s.body_index)) {
                    aggregator.ingest(summary.clone());
                }
                aggregator
            };
            let bytes = |aggregator: &FleetAggregator| {
                FleetCheckpoint::capture(&config, aggregator, config.bodies())
                    .save()
                    .to_vec()
            };
            let serial = bytes(&fold(&|_| true));
            for modulus in [2, 3] {
                let parts: Vec<FleetAggregator> = (0..modulus)
                    .map(|residue| fold(&|i| i % modulus == residue))
                    .collect();
                for reversed in [false, true] {
                    let mut order = parts.clone();
                    if reversed {
                        order.reverse();
                    }
                    let mut merged = FleetAggregator::new(config.horizon(), config.top_k());
                    for part in order {
                        merged.merge(part);
                    }
                    assert_eq!(
                        bytes(&merged),
                        serial,
                        "residues mod {modulus}, reversed {reversed}"
                    );
                }
            }
        }
    }

    #[test]
    fn slo_quantiles_are_monotone_and_bounded_by_the_worst_body() {
        let fleet = FleetConfig::new(9).with_horizon(TimeSpan::from_seconds(2.0));
        let report = fleet.run(&SweepRunner::serial());
        let p50 = report.body_worst_p95_quantile(0.5);
        let p95 = report.body_worst_p95_quantile(0.95);
        let worst = report.body_worst_p95_quantile(1.0);
        assert!(p50 <= p95 && p95 <= worst);
        assert!(worst > TimeSpan::ZERO);
        // q = 1.0 is exact: it is the retained worst body.
        assert_eq!(worst, report.worst_bodies()[0].worst_p95_latency);
        assert!(report.min_body_delivery_ratio() > 0.5);
    }

    #[test]
    fn zero_body_fleet_reports_identities() {
        let report = FleetConfig::new(0).run(&SweepRunner::serial());
        assert_eq!(report.bodies(), 0);
        assert!(report.worst_bodies().is_empty());
        assert_eq!(report.events_processed(), 0);
        assert_eq!(report.delivered_bytes(), 0);
        assert_eq!(report.delivery_ratio(), 1.0);
        assert_eq!(report.total_energy(), Energy::ZERO);
        assert_eq!(report.aggregate_throughput(), DataRate::ZERO);
        assert_eq!(report.min_body_delivery_ratio(), 1.0);
        assert_eq!(report.body_worst_p95_quantile(0.0), TimeSpan::ZERO);
        assert_eq!(report.body_worst_p95_quantile(0.5), TimeSpan::ZERO);
        assert_eq!(report.body_worst_p95_quantile(1.0), TimeSpan::ZERO);
        assert_eq!(report.fleet_latency().count(), 0);
    }

    #[test]
    fn single_body_fleet_is_its_own_quantile() {
        let fleet = FleetConfig::new(1).with_horizon(TimeSpan::from_seconds(2.0));
        let report = fleet.run(&SweepRunner::serial());
        assert_eq!(report.bodies(), 1);
        assert_eq!(report.worst_bodies().len(), 1);
        let only = report.worst_bodies()[0].worst_p95_latency;
        // With one body every quantile is that body — and exact, because the
        // single ascending position is inside the retained tail.
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(report.body_worst_p95_quantile(q), only);
        }
        assert!(only > TimeSpan::ZERO);
    }

    #[test]
    fn boundary_quantiles_are_exact_even_beyond_top_k() {
        // 12 bodies, top-K of 2: interior quantiles go through the sketch,
        // but q = 0.0 (exact min) and q = 1.0 (retained worst) stay exact.
        let fleet = FleetConfig::new(12)
            .with_population(PopulationModel::mixed_default())
            .with_horizon(TimeSpan::from_seconds(1.0))
            .with_top_k(2);
        let report = fleet.run(&SweepRunner::serial());
        assert_eq!(report.worst_bodies().len(), 2);
        // Exact per-body p95 values, recomputed independently.
        let mut p95s: Vec<TimeSpan> = (0..12)
            .map(|i| report_summary(&fleet, i).worst_p95_latency)
            .collect();
        p95s.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));
        assert_eq!(report.body_worst_p95_quantile(0.0), p95s[0]);
        assert_eq!(report.body_worst_p95_quantile(1.0), p95s[11]);
        // The second-worst is also in the retained tail, hence exact.
        let q_second = 10.0 / 11.0;
        assert_eq!(report.body_worst_p95_quantile(q_second), p95s[10]);
        // Interior quantiles respect the sketch bound relative to exact.
        for q in [0.25, 0.5, 0.75] {
            let exact = p95s[sketch::nearest_rank_index(12, q)];
            let got = report.body_worst_p95_quantile(q);
            assert!(got >= exact);
            assert!(
                got.as_seconds()
                    <= exact.as_seconds() * (1.0 + sketch::RELATIVE_ERROR_BOUND) + 1e-15
            );
        }
        // The SLO curve is monotone in q — including across the
        // sketch-interior → exact-tail boundary, where the interior result
        // is capped by the smallest retained tail value.
        let curve: Vec<TimeSpan> = (0..=100)
            .map(|i| report.body_worst_p95_quantile(i as f64 / 100.0))
            .collect();
        for pair in curve.windows(2) {
            assert!(pair[0] <= pair[1], "SLO curve dipped: {pair:?}");
        }
    }

    #[test]
    fn churned_fleet_reports_migrations_and_occupancy() {
        use crate::population::ChurnModel;
        let base = FleetConfig::new(24)
            .with_population(PopulationModel::mixed_default())
            .with_base_seed(77)
            .with_horizon(TimeSpan::from_seconds(1.5));
        let static_report = base.clone().run(&SweepRunner::serial());
        assert_eq!(static_report.migrations(), 0);
        assert_eq!(static_report.replans(), 0);
        assert_eq!(static_report.placement_energy(), Energy::ZERO);
        assert!((static_report.mean_occupancy() - 1.0).abs() < 1e-12);

        let spec = ChurnSpec::new(
            ChurnModel::with_rate(0.5).with_link_fade(0.9),
            PolicyKind::ReoptimizeOnChange,
        );
        let churned = base.clone().with_churn(spec.clone());
        let report = churned.run(&SweepRunner::serial());
        // Churn shrinks occupancy below the static fleet's.
        assert!(report.mean_occupancy() < 1.0);
        assert!(report.mean_occupancy() > 0.0);
        assert!(report.active_span() > TimeSpan::ZERO);
        // The eager policy re-plans every context epoch of every body.
        let epochs = u64::from(spec.churn().epochs());
        assert_eq!(report.replans(), 24 * (epochs - 1));
        assert!(report.placement_energy() > Energy::ZERO);
        assert!(report.migration_rate() >= 0.0);

        // Determinism: thread width still invisible.
        let serial = churned.run(&SweepRunner::serial());
        for width in [3, 4] {
            assert_eq!(serial, churned.run(&SweepRunner::with_threads(width)));
        }
        assert_eq!(serial, report);
    }

    #[test]
    fn enabling_churn_does_not_change_scenario_sampling() {
        use crate::population::ChurnModel;
        let base = FleetConfig::new(8).with_population(PopulationModel::mixed_default());
        let churned = base.clone().with_churn(ChurnSpec::new(
            ChurnModel::with_rate(0.8),
            PolicyKind::Hysteresis,
        ));
        for i in 0..8 {
            let a = base.scenario_for_body(i);
            let b = churned.scenario_for_body(i);
            assert_eq!(a.seed(), b.seed());
            assert_eq!(a.archetype(), b.archetype());
            assert_eq!(a.leaves().len(), b.leaves().len());
        }
        assert_eq!(base.churn_fingerprint(), 0);
        assert_ne!(churned.churn_fingerprint(), 0);
    }

    #[test]
    fn aggregator_state_is_independent_of_body_count() {
        let run = |bodies: usize| {
            FleetConfig::new(bodies)
                .with_population(PopulationModel::mixed_default())
                .with_horizon(TimeSpan::from_seconds(1.0))
                .run(&SweepRunner::serial())
        };
        let small = run(20);
        let large = run(200);
        // 10× the bodies must not grow retained state 10×: the sketch window
        // may widen a little as rarer latencies appear, but stays in the
        // same O(K + buckets) class.
        assert!(
            large.aggregation_state_buckets() <= small.aggregation_state_buckets() * 2 + 64,
            "state grew with fleet size: {} -> {}",
            small.aggregation_state_buckets(),
            large.aggregation_state_buckets()
        );
        assert_eq!(large.worst_bodies().len(), FleetConfig::DEFAULT_TOP_K);
    }
}
