//! The discrete-event simulator and its per-node statistics.
//!
//! # Engines
//!
//! [`Simulation::run`] executes on one of two engines:
//!
//! * **Streaming** (default) — a struct-of-arrays, allocation-free core
//!   (a [`Workspace`]): per-node generation *slots* merged against a FIFO
//!   of pending transmission completions, flat per-node counter arrays,
//!   incremental ready-bitmask arbitration ([`Arbiter::grant_masked`] /
//!   [`Arbiter::grant_words`]) and run-length-batched O(1)-memory
//!   [`LatencySketch`] percentile tracking.  This is the fleet-scale hot
//!   path: per-event cost is constant, no heap allocation survives into the
//!   steady-state loop (enforced by the counting-allocator test in
//!   `tests/alloc_counting.rs`), and memory is independent of the horizon.
//! * **Reference** ([`Simulation::with_reference_engine`]) — the **seed
//!   repository's original engine** (pre-PR-1): binary-heap queue, a freshly
//!   allocated readiness vector per arbitration (an allocation PR 1 had
//!   already replaced with a reused scratch buffer) and an unbounded latency
//!   `Vec` sorted at the end.  Kept as the exact baseline for
//!   `bench_netsim`'s old-vs-new comparison — speedups it reports are
//!   **vs the seed engine**, not vs the immediately preceding commit — and
//!   for the engine-equivalence tests.
//!
//! Both engines process the identical event sequence (one shared
//! `(time, sequence)` order and the same RNG draws), so counts, delivered
//! bytes and energy match bit-for-bit; only the latency percentiles differ,
//! by at most the sketch's documented bound
//! ([`crate::sketch::RELATIVE_ERROR_BOUND`], 1/64).
//!
//! # Why generation *slots* replace a general event queue
//!
//! The simulator's event population has a rigid shape the streaming engine
//! exploits (ARCHITECTURE.md, "Hot path memory layout"):
//!
//! * Every node holds **at most one** pending `FrameGenerated` event — it is
//!   seeded once per traffic source and only ever rescheduled by that node's
//!   own handler.  A per-node `(time, sequence)` slot pair plus a small
//!   index min-heap over the nodes therefore carries all generation traffic;
//!   a reschedule is a write to two flat arrays and one sift-down from the
//!   root, and nothing is ever allocated or freed.
//! * `medium_busy_until` only moves forward, so transmission completions are
//!   scheduled at non-decreasing times and form a FIFO: a fixed-capacity
//!   `VecDeque` replaces the other half of all queue traffic.
//!
//! One shared sequence counter spans both lanes, so the merged pop order is
//! **identical** to pushing every event through one binary heap — the
//! engine-equivalence tests assert this end to end across traffic shapes.
//!
//! # Reusing one workspace across runs
//!
//! A [`Workspace`] holds every array the streaming engine touches and is
//! reset in place at the start of each run: the per-node arrays are cleared
//! and refilled, while node queues, per-node sketches and the completion
//! spill keep the capacity earlier runs gave them.  It has two readouts.
//! [`Simulation::run`] runs in a fresh workspace and reads a full
//! [`SimulationReport`] out of it (per-node [`NodeStats`] with their names,
//! one sketch per node).  [`Simulation::run_totals`] runs in a caller-owned
//! workspace and reduces it straight into [`RunTotals`]: body-wide frame,
//! byte and event totals, the energy sum in node order, the worst per-node
//! p95 and the node sketches merged into one — exactly the values the
//! report would reduce to, without its per-node names or sketches.  A fleet
//! fold keeps one workspace per thread; once its buffers reach their
//! high-water marks, a run of at most 64 nodes allocates nothing but the
//! merged sketch it returns.  The fleet still builds the scenario leaves
//! and the node configurations (with their names) of each body it runs.
//! A fold thread runs each distinct deterministic body once and only
//! counts its repeats, which go into the fold with one scaled update each
//! ([`LatencySketch::merge_scaled`], [`ExactSum::add_sum_scaled`]).
//! `hidwa-core`'s `tests/fleet_alloc_counting.rs` gates the allocations
//! per fleet body.

use crate::event::{BinaryHeapQueue, Event};
use crate::mac::{Arbiter, MacPolicy};
use crate::node::{NodeConfig, NodeRole};
use crate::sketch::{ExactSum, LatencySketch};
use crate::traffic::TrafficPattern;
use crate::NetsimError;
use hidwa_units::{DataRate, DataVolume, Energy, Power, TimeSpan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Per-node results of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeStats {
    /// Node name (from its configuration).
    pub name: String,
    /// Node role.
    pub role: NodeRole,
    /// Frames generated by the node's traffic source.
    pub generated_frames: usize,
    /// Frames delivered to the hub.
    pub delivered_frames: usize,
    /// Application bytes delivered to the hub.
    pub delivered_bytes: usize,
    /// Frames still queued (or in flight) when the run ended.
    pub backlog_frames: usize,
    /// Mean delivery latency (exact in both engines).
    pub mean_latency: TimeSpan,
    /// 95th-percentile delivery latency (exact on the reference engine;
    /// within [`crate::sketch::RELATIVE_ERROR_BOUND`] above it on the
    /// streaming engine).
    pub p95_latency: TimeSpan,
    /// Worst-case delivery latency (exact in both engines).
    pub max_latency: TimeSpan,
    /// Radio (transmit) energy spent.
    pub radio_energy: Energy,
    /// Baseline (sensing + compute + idle) energy spent.
    pub baseline_energy: Energy,
    /// Average total power over the run.
    pub average_power: Power,
    /// Achieved uplink throughput.
    pub throughput: DataRate,
}

/// Aggregate results of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    duration: TimeSpan,
    policy: MacPolicy,
    node_stats: Vec<NodeStats>,
    medium_busy: TimeSpan,
    events_processed: u64,
    latency_sketches: Vec<LatencySketch>,
}

impl SimulationReport {
    /// Per-node statistics, in the order nodes were added.
    #[must_use]
    pub fn node_stats(&self) -> &[NodeStats] {
        &self.node_stats
    }

    /// Simulated duration.
    #[must_use]
    pub fn duration(&self) -> TimeSpan {
        self.duration
    }

    /// MAC policy used.
    #[must_use]
    pub fn policy(&self) -> MacPolicy {
        self.policy
    }

    /// Number of discrete events the engine processed within the horizon.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Per-node streaming latency sketches, in node order.  Mergeable across
    /// nodes and across independent simulations for fleet-wide latency
    /// distributions (see `hidwa_core::fleet`).  Populated by the streaming
    /// engine; on the reference engine the sketches are empty (it keeps the
    /// pre-refactor exact path free of sketch-building work).
    #[must_use]
    pub fn latency_sketches(&self) -> &[LatencySketch] {
        &self.latency_sketches
    }

    /// Fraction of time the shared medium was carrying a frame.
    #[must_use]
    pub fn medium_utilization(&self) -> f64 {
        if self.duration.as_seconds() <= 0.0 {
            return 0.0;
        }
        (self.medium_busy / self.duration).clamp(0.0, 1.0)
    }

    /// Total application throughput delivered to the hub.
    #[must_use]
    pub fn aggregate_throughput(&self) -> DataRate {
        let bytes: usize = self.node_stats.iter().map(|s| s.delivered_bytes).sum();
        if self.duration.as_seconds() <= 0.0 {
            return DataRate::ZERO;
        }
        DataVolume::from_bytes(bytes as f64) / self.duration
    }

    /// Total energy (radio + baseline) across all nodes.
    #[must_use]
    pub fn total_energy(&self) -> Energy {
        self.node_stats
            .iter()
            .map(|s| s.radio_energy + s.baseline_energy)
            .sum()
    }

    /// Fraction of generated frames that were delivered.
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        let generated: usize = self.node_stats.iter().map(|s| s.generated_frames).sum();
        if generated == 0 {
            return 1.0;
        }
        let delivered: usize = self.node_stats.iter().map(|s| s.delivered_frames).sum();
        delivered as f64 / generated as f64
    }
}

/// A run reduced across its nodes ([`Simulation::run_totals`]): every field
/// equals, bit for bit, the same reduction of the run's
/// [`SimulationReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunTotals {
    /// Frames generated across all nodes.
    pub generated_frames: usize,
    /// Frames delivered to the hub across all nodes.
    pub delivered_frames: usize,
    /// Application bytes delivered to the hub across all nodes.
    pub delivered_bytes: usize,
    /// Discrete events processed within the horizon.
    pub events_processed: u64,
    /// Radio + baseline energy, summed in node order
    /// ([`SimulationReport::total_energy`]).
    pub total_energy: Energy,
    /// Largest per-node p95 delivery latency.
    pub worst_p95_latency: TimeSpan,
    /// Every node's latency sketch merged in node order.
    pub latency: LatencySketch,
}

impl RunTotals {
    /// Fraction of generated frames that were delivered (1.0 when nothing
    /// was generated), as [`SimulationReport::delivery_ratio`].
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.generated_frames == 0 {
            return 1.0;
        }
        self.delivered_frames as f64 / self.generated_frames as f64
    }
}

/// A star-topology IoB network simulation.
#[derive(Debug)]
pub struct Simulation {
    policy: MacPolicy,
    nodes: Vec<NodeConfig>,
    seed: u64,
    reference_engine: bool,
}

/// Per-node latency accounting at the end of a run: the streaming engine
/// reads its sketch; the reference engine computes the exact statistics the
/// pre-refactor code did (sort + nearest-rank percentiles) and does **not**
/// build a sketch, so benchmarking the reference path times exactly the
/// pre-refactor work.  Both engines derive the mean through the same
/// [`ExactSum`] fixed-point accumulator, so their means are bit-identical by
/// construction (asserted in the engine-equivalence tests) — and identical
/// to any sharded re-grouping of the same samples.  Returns
/// `(mean, p95, max, sketch)`.
fn finalize_latencies(
    sketch: LatencySketch,
    mut exact_samples: Vec<TimeSpan>,
) -> (TimeSpan, TimeSpan, TimeSpan, LatencySketch) {
    if exact_samples.is_empty() {
        return (sketch.mean(), sketch.quantile(0.95), sketch.max(), sketch);
    }
    let mut sum = ExactSum::new();
    for sample in &exact_samples {
        sum.add(sample.as_seconds());
    }
    let mean = TimeSpan::from_seconds(sum.to_f64() / exact_samples.len() as f64);
    exact_samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));
    let p95 = percentile(&exact_samples, 0.95);
    let max = exact_samples.last().copied().unwrap_or(TimeSpan::ZERO);
    (mean, p95, max, sketch)
}

/// Per-node mutable state of the **reference** engine, kept in the seed
/// repository's fat-struct layout on purpose: `bench_netsim`'s old-vs-new
/// comparison times the original shape, pointer-striding included.
struct NodeRuntime {
    queue: VecDeque<(TimeSpan, usize)>,
    generated: usize,
    in_flight: usize,
    delivered: usize,
    delivered_bytes: usize,
    /// The pre-refactor unbounded sample `Vec`, sorted at the end for exact
    /// percentiles.
    exact_samples: Vec<TimeSpan>,
    radio_energy: Energy,
}

/// Where a node's next-frame interval comes from on the streaming hot path.
#[derive(Clone, Copy)]
enum HotInterval {
    /// Deterministic pattern: the interval never changes (periodic and
    /// streaming traffic), so the per-event pattern match and rate division
    /// are paid once.
    Fixed(TimeSpan),
    /// Stochastic pattern (bursty): every frame draws from the RNG.
    Random,
    /// No traffic.
    Silent,
}

/// Per-node constants the streaming engine hoists out of the event loop.
///
/// Every value is computed **once** with exactly the expression the
/// per-event path uses (same operands, same operation order), so the
/// streaming engine is bit-identical to the reference engine on every exact
/// statistic — the engine-equivalence tests assert this.
#[derive(Clone, Copy)]
struct NodeHot {
    interval: HotInterval,
    frame_bytes: usize,
    /// `wakeup + grant_overhead + airtime(frame_bytes)` for this node.
    frame_occupancy: TimeSpan,
    /// `energy_per_bit × frame_bytes` for this node.
    frame_energy: Energy,
}

impl NodeHot {
    fn build(node: &NodeConfig, policy: MacPolicy) -> Self {
        let interval = match *node.traffic() {
            TrafficPattern::Periodic { period, .. } => HotInterval::Fixed(period),
            TrafficPattern::Streaming { rate, frame_bytes } => {
                if rate.as_bps() <= 0.0 {
                    HotInterval::Silent
                } else {
                    HotInterval::Fixed(DataVolume::from_bytes(frame_bytes as f64) / rate)
                }
            }
            TrafficPattern::Bursty { .. } => HotInterval::Random,
            TrafficPattern::Silent => HotInterval::Silent,
        };
        let frame_bytes = node.traffic().frame_bytes();
        let link = node.link();
        let airtime = if link.goodput().as_bps() > 0.0 {
            DataVolume::from_bytes(frame_bytes as f64) / link.goodput()
        } else {
            TimeSpan::from_seconds(f64::INFINITY)
        };
        Self {
            interval,
            frame_bytes,
            frame_occupancy: link.wakeup() + policy.grant_overhead() + airtime,
            frame_energy: link.energy_per_bit() * DataVolume::from_bytes(frame_bytes as f64),
        }
    }
}

/// A pending transmission completion in the streaming engine's FIFO lane —
/// the fields of [`Event::TransmissionComplete`] (frame bytes are the
/// per-node constant) plus the global tiebreak sequence.
struct PendingCompletion {
    time: f64,
    sequence: u64,
    node: u32,
    generated_at: f64,
}

/// Ways in the per-node latency-run cache.  Latencies in a simulation take
/// few distinct `f64` values at a time (zero-wait deliveries repeat the
/// occupancy-rounded double; contended ones cycle through a handful of wait
/// residues), so four ways absorb almost every sample without a flush.
const RUN_WAYS: usize = 4;

/// One pending `FrameGenerated` event: a node's generation *slot*.  The
/// `(time, sequence)` pop key is carried inline so heap comparisons touch
/// only the heap array itself — no indirection back into per-node state.
#[derive(Clone, Copy)]
struct GenSlot {
    time: f64,
    sequence: u64,
    node: u32,
}

impl GenSlot {
    /// The global `(time, sequence)` pop order — the same lexicographic key
    /// the binary-heap reference queue sorts by.
    /// Spelled out rather than tuple-compared: `time` is never NaN (asserted
    /// at schedule time by construction), so two plain f64 branches beat the
    /// generic `partial_cmp` chain the tuple `PartialOrd` lowers to.
    #[inline]
    fn precedes(&self, other: &GenSlot) -> bool {
        self.time < other.time || (self.time == other.time && self.sequence < other.sequence)
    }
}

/// Incrementally maintained readiness bits: bit `i` set iff node `i` has
/// queued data.  One word covers networks of up to 64 nodes; larger networks
/// use a word array with [`Arbiter::grant_words`] — either way arbitration
/// never rebuilds readiness by scanning the queues.
enum ReadyBits {
    /// Single-word fast path (≤ 64 nodes).
    Mask(u64),
    /// Multi-word path (> 64 nodes); allocated once at setup.
    Words(Vec<u64>),
}

impl ReadyBits {
    #[inline]
    fn set(&mut self, node: usize) {
        match self {
            ReadyBits::Mask(mask) => *mask |= 1 << node,
            ReadyBits::Words(words) => words[node / 64] |= 1 << (node % 64),
        }
    }

    #[inline]
    fn clear(&mut self, node: usize) {
        match self {
            ReadyBits::Mask(mask) => *mask &= !(1 << node),
            ReadyBits::Words(words) => words[node / 64] &= !(1 << (node % 64)),
        }
    }
}

/// Struct-of-arrays state of the streaming engine, reusable across runs.
///
/// Every quantity the inner loop touches lives in a flat array indexed by
/// node, sized once before the loop: the drain walks parallel arrays instead
/// of striding across fat per-node structs, and nothing on the steady-state
/// path allocates (`tests/alloc_counting.rs` enforces this with a counting
/// global allocator).  Times are raw `f64` seconds — [`TimeSpan`] is a plain
/// `f64` newtype, so the arithmetic is bit-identical to the newtype path the
/// reference engine takes.
///
/// Each run resets the workspace in place for its own node set (see the
/// [module docs](self)), so nothing a previous run left behind is read;
/// keep one per thread and pass it to [`Simulation::run_totals`].
pub struct Workspace {
    // --- per-node constants (hoisted once, split per use site so each
    //     handler streams through exactly the array it needs) ---
    /// Next-frame interval source (generation handler).
    intervals: Vec<HotInterval>,
    /// `frame_occupancy` in seconds (transmit path).
    occupancy_seconds: Vec<f64>,
    /// Constant frame payload (completion handler).
    frame_bytes: Vec<usize>,
    /// Constant per-frame radio energy (completion handler).
    frame_energy: Vec<Energy>,
    /// Traffic patterns, consulted only by stochastic sources.
    traffic: Vec<TrafficPattern>,
    // --- generation slots: the at-most-one pending FrameGenerated per node ---
    /// Generation slots arranged as a binary min-heap on their inline
    /// `(time, sequence)` keys.  A reschedule overwrites the root and sinks
    /// it — one O(log nodes) pass over a flat array, no queue surgery, no
    /// allocation.  Nodes whose sources stop (silent / exhausted) are
    /// retired from the heap.
    gen_heap: Vec<GenSlot>,
    // --- per-node frame queues ---
    /// Generation timestamps of queued frames.  Frame bytes are **not**
    /// stored per entry: they are the per-node constant
    /// `hot[i].frame_bytes`, which halves the queue traffic.  Like
    /// `sketches`, it may hold more entries than the current run has
    /// nodes: a reset clears only the first `nodes.len()`, which are the
    /// only ones the run reads, and keeps every buffer.
    queues: Vec<VecDeque<f64>>,
    // --- flat per-node counters ---
    generated: Vec<usize>,
    in_flight: Vec<usize>,
    delivered: Vec<usize>,
    delivered_bytes: Vec<usize>,
    radio_energy: Vec<Energy>,
    // --- multiset latency batcher ---
    /// Per-node associative cache of uncommitted latency runs: way `k` holds
    /// `run_count[node][k]` samples equal to `run_latency[node][k]`.  Empty
    /// ways hold NaN, which compares equal to nothing.  Every sketch update
    /// (integer count/bucket adds, the [`ExactSum`] fixed-point sum, min/max
    /// lattice ops) is a grouping- and order-independent function of the
    /// sample **multiset**, so batching does not require *consecutive* equal
    /// samples — interleaved contended/uncontended deliveries accumulate in
    /// separate ways and flush ([`LatencySketch::record_run`]) only on
    /// eviction or at end of run, landing on the bit-identical sketch.
    run_latency: Vec<[f64; RUN_WAYS]>,
    run_count: Vec<[u64; RUN_WAYS]>,
    /// Round-robin eviction cursor per node.
    run_evict: Vec<u8>,
    sketches: Vec<LatencySketch>,
    // --- medium + arbitration ---
    /// The earliest pending transmission completion.  Completions are
    /// scheduled at non-decreasing times (the `medium_busy_until`
    /// monotonicity invariant) and there is almost always exactly one in
    /// flight, so the FIFO's head lives inline and peeking it costs one
    /// `Option` discriminant check, not a deque access.
    completion_head: Option<PendingCompletion>,
    /// Later pending completions, in order.  Occupied only in the rare case
    /// where a frame generated at exactly `medium_busy_until` (with an
    /// earlier sequence) wins the medium before the in-flight completion
    /// pops; its capacity is never outgrown in practice.
    completion_spill: VecDeque<PendingCompletion>,
    ready: ReadyBits,
    arbiter: Arbiter,
    medium_busy_until: f64,
    medium_busy_total: f64,
    next_sequence: u64,
    events_processed: u64,
}

/// Empties `slots` and refills it with `count` copies of `value`, keeping
/// its buffer.
fn refill<T: Clone>(slots: &mut Vec<T>, count: usize, value: T) {
    slots.clear();
    slots.resize(count, value);
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Workspace {
    /// An empty workspace; its arrays grow to the first run's node count.
    #[must_use]
    pub fn new() -> Self {
        Self {
            intervals: Vec::new(),
            occupancy_seconds: Vec::new(),
            frame_bytes: Vec::new(),
            frame_energy: Vec::new(),
            traffic: Vec::new(),
            gen_heap: Vec::new(),
            queues: Vec::new(),
            generated: Vec::new(),
            in_flight: Vec::new(),
            delivered: Vec::new(),
            delivered_bytes: Vec::new(),
            radio_energy: Vec::new(),
            run_latency: Vec::new(),
            run_count: Vec::new(),
            run_evict: Vec::new(),
            sketches: Vec::new(),
            completion_head: None,
            completion_spill: VecDeque::new(),
            ready: ReadyBits::Mask(0),
            arbiter: Arbiter::new(MacPolicy::Polling, 0),
            medium_busy_until: 0.0,
            medium_busy_total: 0.0,
            next_sequence: 0,
            events_processed: 0,
        }
    }

    /// Resets the workspace for a run of `nodes` under `policy` and seeds
    /// every traffic source — the state a freshly built engine would start
    /// from, in buffers earlier runs already grew.
    fn reset(&mut self, nodes: &[NodeConfig], policy: MacPolicy, rng: &mut StdRng) {
        let count = nodes.len();
        self.intervals.clear();
        self.occupancy_seconds.clear();
        self.frame_bytes.clear();
        self.frame_energy.clear();
        self.traffic.clear();
        for node in nodes {
            let hot = NodeHot::build(node, policy);
            self.intervals.push(hot.interval);
            self.occupancy_seconds
                .push(hot.frame_occupancy.as_seconds());
            self.frame_bytes.push(hot.frame_bytes);
            self.frame_energy.push(hot.frame_energy);
            self.traffic.push(node.traffic().clone());
        }
        if self.queues.len() < count {
            self.queues.resize_with(count, VecDeque::new);
            self.sketches.resize_with(count, LatencySketch::new);
        }
        self.queues[..count].iter_mut().for_each(VecDeque::clear);
        self.sketches[..count]
            .iter_mut()
            .for_each(LatencySketch::clear);
        refill(&mut self.generated, count, 0);
        refill(&mut self.in_flight, count, 0);
        refill(&mut self.delivered, count, 0);
        refill(&mut self.delivered_bytes, count, 0);
        refill(&mut self.radio_energy, count, Energy::ZERO);
        refill(&mut self.run_latency, count, [f64::NAN; RUN_WAYS]);
        refill(&mut self.run_count, count, [0; RUN_WAYS]);
        refill(&mut self.run_evict, count, 0);
        self.completion_head = None;
        self.completion_spill.clear();
        self.completion_spill.reserve(8);
        self.ready = if count <= 64 {
            ReadyBits::Mask(0)
        } else {
            ReadyBits::Words(vec![0; count.div_ceil(64)])
        };
        self.arbiter = Arbiter::new(policy, count);
        self.medium_busy_until = 0.0;
        self.medium_busy_total = 0.0;
        self.next_sequence = 0;
        self.events_processed = 0;
        // Seed the first frame of every traffic source, consuming sequences
        // (and RNG draws) in node order exactly as the reference engine's
        // seeding loop does.
        self.gen_heap.clear();
        for (i, node) in nodes.iter().enumerate() {
            if let Some(interval) = node.traffic().next_interval(rng) {
                let sequence = self.next_sequence;
                self.next_sequence += 1;
                self.gen_heap.push(GenSlot {
                    time: interval.as_seconds(),
                    sequence,
                    node: i as u32,
                });
            }
        }
        self.heap_build();
    }

    /// Resets for `nodes` and drains the event stream up to `duration`.
    fn execute(&mut self, nodes: &[NodeConfig], policy: MacPolicy, seed: u64, duration: TimeSpan) {
        let mut rng = StdRng::seed_from_u64(seed);
        self.reset(nodes, policy, &mut rng);
        self.drain(duration.as_seconds(), &mut rng);
    }

    /// Reads the finished run of `nodes` out as a full report, moving the
    /// node sketches into it.
    fn report(
        &mut self,
        nodes: &[NodeConfig],
        policy: MacPolicy,
        duration: TimeSpan,
    ) -> SimulationReport {
        let mut latency_sketches = Vec::with_capacity(nodes.len());
        let node_stats = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                self.flush_pending(i);
                let sketch = std::mem::take(&mut self.sketches[i]);
                let (mean, p95, max, sketch) = finalize_latencies(sketch, Vec::new());
                latency_sketches.push(sketch);
                let radio_energy = self.radio_energy[i];
                let baseline_energy = node.baseline_power() * duration;
                let total_energy = radio_energy + baseline_energy;
                NodeStats {
                    name: node.name().to_string(),
                    role: node.role(),
                    generated_frames: self.generated[i],
                    delivered_frames: self.delivered[i],
                    delivered_bytes: self.delivered_bytes[i],
                    backlog_frames: self.queues[i].len() + self.in_flight[i],
                    mean_latency: mean,
                    p95_latency: p95,
                    max_latency: max,
                    radio_energy,
                    baseline_energy,
                    average_power: if duration.as_seconds() > 0.0 {
                        total_energy / duration
                    } else {
                        Power::ZERO
                    },
                    throughput: if duration.as_seconds() > 0.0 {
                        DataVolume::from_bytes(self.delivered_bytes[i] as f64) / duration
                    } else {
                        DataRate::ZERO
                    },
                }
            })
            .collect();

        SimulationReport {
            duration,
            policy,
            node_stats,
            medium_busy: TimeSpan::from_seconds(self.medium_busy_total).min(duration),
            events_processed: self.events_processed,
            latency_sketches,
        }
    }

    /// Reduces the finished run of `nodes` across its nodes, with the same
    /// operations in the same order as reducing [`report`](Self::report)'s
    /// output would take.
    fn totals(&mut self, nodes: &[NodeConfig], duration: TimeSpan) -> RunTotals {
        let mut latency = LatencySketch::new();
        let mut worst_p95_latency = TimeSpan::ZERO;
        for i in 0..nodes.len() {
            self.flush_pending(i);
            worst_p95_latency = worst_p95_latency.max(self.sketches[i].quantile(0.95));
            latency.merge(&self.sketches[i]);
        }
        RunTotals {
            generated_frames: self.generated.iter().sum(),
            delivered_frames: self.delivered.iter().sum(),
            delivered_bytes: self.delivered_bytes.iter().sum(),
            events_processed: self.events_processed,
            total_energy: nodes
                .iter()
                .zip(&self.radio_energy)
                .map(|(node, &radio_energy)| radio_energy + node.baseline_power() * duration)
                .sum(),
            worst_p95_latency,
            latency,
        }
    }

    #[inline(always)]
    fn heap_sift_down(&mut self, mut at: usize) {
        let heap = &mut self.gen_heap;
        loop {
            let left = 2 * at + 1;
            if left >= heap.len() {
                return;
            }
            let right = left + 1;
            let child = if right < heap.len() && heap[right].precedes(&heap[left]) {
                right
            } else {
                left
            };
            if heap[child].precedes(&heap[at]) {
                heap.swap(at, child);
                at = child;
            } else {
                return;
            }
        }
    }

    /// Floyd heap construction over the seeded slots.
    fn heap_build(&mut self) {
        for at in (0..self.gen_heap.len() / 2).rev() {
            self.heap_sift_down(at);
        }
    }

    /// Commits every open latency run of a node into its sketch.  The ways
    /// flush in slot order, which is immaterial: the sketch state depends on
    /// the sample multiset alone.
    fn flush_pending(&mut self, node: usize) {
        for way in 0..RUN_WAYS {
            let count = self.run_count[node][way];
            if count > 0 {
                self.sketches[node]
                    .record_run(TimeSpan::from_seconds(self.run_latency[node][way]), count);
                self.run_count[node][way] = 0;
                self.run_latency[node][way] = f64::NAN;
            }
        }
    }

    /// Handles the generation slot at the heap root: enqueue the frame,
    /// reschedule (or retire) the source, then offer the medium.  Mirrors
    /// the reference engine's `FrameGenerated` arm statement for statement —
    /// including the order sequences and RNG draws are consumed in.
    #[inline(always)]
    fn on_generation(&mut self, slot: GenSlot, duration_seconds: f64, rng: &mut StdRng) {
        let node = slot.node as usize;
        let time = slot.time;
        self.generated[node] += 1;
        // Reschedule (or retire) the source before offering the medium:
        // sequences and RNG draws are consumed in exactly the reference
        // engine's order (next generation first, then the completion).
        let next = match self.intervals[node] {
            HotInterval::Fixed(interval) => Some(interval.as_seconds()),
            HotInterval::Random => self.traffic[node]
                .next_interval(rng)
                .map(TimeSpan::as_seconds),
            HotInterval::Silent => None,
        };
        if let Some(interval) = next {
            // Replace-top: the root slot gets its next (time, sequence) key
            // and sinks back down — one O(log nodes) pass, no queue surgery.
            let sequence = self.next_sequence;
            self.next_sequence += 1;
            self.gen_heap[0] = GenSlot {
                time: time + interval,
                sequence,
                node: slot.node,
            };
            self.heap_sift_down(0);
        } else {
            // The source stopped: retire the slot.
            let last = self.gen_heap.len() - 1;
            self.gen_heap.swap(0, last);
            self.gen_heap.pop();
            self.heap_sift_down(0);
        }
        // Fast path for the underloaded steady state: the medium is free
        // and no node anywhere has queued data, so this frame wins
        // arbitration unopposed — it goes straight onto the medium without
        // ever touching its node queue or the readiness bits.  The one-bit
        // grant keeps the arbiter cursor bit-identical to the queued path
        // (the mask after `set` would have been exactly this bit).
        if time >= self.medium_busy_until && matches!(self.ready, ReadyBits::Mask(0)) {
            let granted = self.arbiter.grant_masked(1u64 << node);
            debug_assert_eq!(granted, Some(node));
            let occupancy = self.occupancy_seconds[node];
            let completed = time + occupancy;
            self.medium_busy_until = completed;
            self.medium_busy_total += occupancy;
            let sequence = self.next_sequence;
            self.next_sequence += 1;
            // Fused completion: when this transmission's completion is the
            // next event overall — no pending completion ahead of it, every
            // generation slot strictly later (on a time tie the older
            // sequence, always a generation, wins), and it lands inside the
            // horizon — apply it here instead of round-tripping through the
            // event loop.  The elisions are exact no-ops: `in_flight`
            // +1/−1 cancels, and the post-completion medium offer would
            // grant an empty mask (`None`, cursor untouched).
            if self.completion_head.is_none()
                && completed <= duration_seconds
                && self
                    .gen_heap
                    .first()
                    .is_none_or(|root| completed < root.time)
            {
                self.events_processed += 1;
                self.delivered[node] += 1;
                self.delivered_bytes[node] += self.frame_bytes[node];
                self.batch_latency(node, completed - time);
                self.radio_energy[node] += self.frame_energy[node];
            } else {
                self.in_flight[node] += 1;
                debug_assert!(
                    self.completion_spill
                        .back()
                        .or(self.completion_head.as_ref())
                        .is_none_or(|last| completed >= last.time),
                    "completions must be scheduled in non-decreasing time order"
                );
                let pending = PendingCompletion {
                    time: completed,
                    sequence,
                    node: slot.node,
                    generated_at: time,
                };
                if self.completion_head.is_none() {
                    self.completion_head = Some(pending);
                } else {
                    self.completion_spill.push_back(pending);
                }
            }
        } else {
            self.queues[node].push_back(time);
            self.ready.set(node);
            self.try_transmit(time);
        }
    }

    /// Handles a completion taken from the head of the FIFO lane: account
    /// the delivery, fold the latency into the node's run-length batch, then
    /// offer the now-free medium.
    #[inline(always)]
    fn on_completion(&mut self, completion: PendingCompletion) {
        let node = completion.node as usize;
        self.in_flight[node] = self.in_flight[node].saturating_sub(1);
        self.delivered[node] += 1;
        self.delivered_bytes[node] += self.frame_bytes[node];
        self.batch_latency(node, completion.time - completion.generated_at);
        self.radio_energy[node] += self.frame_energy[node];
        self.try_transmit(completion.time);
    }

    /// Folds one delivery latency into the node's multiset batcher.
    ///
    /// Applies the same sample hygiene as [`LatencySketch::record`] first:
    /// clamped samples coalesce on the literal `0.0` and no NaN survives, so
    /// equal inputs always compare equal and the cache accumulates exactly
    /// the values `record()` would.
    #[inline(always)]
    fn batch_latency(&mut self, node: usize, raw_latency: f64) {
        let mut latency = raw_latency;
        if !latency.is_finite() || latency < 0.0 {
            latency = 0.0;
        }
        // Branch-free probe: empty ways hold NaN and match nothing.
        let lat = &mut self.run_latency[node];
        let mut way = RUN_WAYS;
        for (k, &stored) in lat.iter().enumerate() {
            if stored == latency {
                way = k;
            }
        }
        if way < RUN_WAYS {
            self.run_count[node][way] += 1;
        } else {
            // Miss: evict the cursor's way (flushing its run, if any) and
            // open a fresh run there.
            let way = self.run_evict[node] as usize;
            self.run_evict[node] = ((way + 1) % RUN_WAYS) as u8;
            let count = self.run_count[node][way];
            if count > 0 {
                self.sketches[node]
                    .record_run(TimeSpan::from_seconds(self.run_latency[node][way]), count);
            }
            self.run_latency[node][way] = latency;
            self.run_count[node][way] = 1;
        }
    }

    /// Offers the medium to the round-robin winner among ready nodes, if the
    /// medium is free.  Readiness bits are maintained incrementally by the
    /// event handlers, so arbitration is O(1) per event (O(words) beyond 64
    /// nodes) with no readiness rebuild.
    #[inline(always)]
    fn try_transmit(&mut self, now: f64) {
        if now < self.medium_busy_until {
            return;
        }
        let winner = match &self.ready {
            ReadyBits::Mask(mask) => self.arbiter.grant_masked(*mask),
            ReadyBits::Words(words) => self.arbiter.grant_words(words),
        };
        let Some(winner) = winner else {
            return;
        };
        let Some(generated_at) = self.queues[winner].pop_front() else {
            return;
        };
        if self.queues[winner].is_empty() {
            self.ready.clear(winner);
        }
        self.transmit_frame(winner, now, generated_at);
    }

    /// Puts `winner`'s frame on the medium at `now` and schedules its
    /// completion — the shared tail of the queued path and the direct
    /// fast path in [`on_generation`](Self::on_generation).
    #[inline(always)]
    fn transmit_frame(&mut self, winner: usize, now: f64, generated_at: f64) {
        self.in_flight[winner] += 1;
        let occupancy = self.occupancy_seconds[winner];
        self.medium_busy_until = now + occupancy;
        self.medium_busy_total += occupancy;
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        debug_assert!(
            self.completion_spill
                .back()
                .or(self.completion_head.as_ref())
                .is_none_or(|last| self.medium_busy_until >= last.time),
            "completions must be scheduled in non-decreasing time order"
        );
        let pending = PendingCompletion {
            time: self.medium_busy_until,
            sequence,
            node: winner as u32,
            generated_at,
        };
        if self.completion_head.is_none() {
            self.completion_head = Some(pending);
        } else {
            self.completion_spill.push_back(pending);
        }
    }

    /// Drains the merged event stream up to `duration_seconds`: each
    /// iteration compares the two stream heads — the generation slot at the
    /// heap root and the head pending completion — on their
    /// `(time, sequence)` key and applies the earlier one, exactly the order
    /// one global heap would pop.
    fn drain(&mut self, duration_seconds: f64, rng: &mut StdRng) {
        loop {
            let take_generation = match (self.gen_heap.first(), self.completion_head.as_ref()) {
                (None, None) => return,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(slot), Some(completion)) => {
                    slot.time < completion.time
                        || (slot.time == completion.time && slot.sequence < completion.sequence)
                }
            };
            if take_generation {
                let slot = self.gen_heap[0];
                if slot.time > duration_seconds {
                    return;
                }
                self.events_processed += 1;
                self.on_generation(slot, duration_seconds, rng);
            } else {
                let completion = self.completion_head.take().expect("completion head");
                if completion.time > duration_seconds {
                    return;
                }
                self.events_processed += 1;
                self.completion_head = self.completion_spill.pop_front();
                self.on_completion(completion);
            }
        }
    }
}

impl Simulation {
    /// Creates an empty simulation with the given MAC policy.
    #[must_use]
    pub fn new(policy: MacPolicy) -> Self {
        Self {
            policy,
            nodes: Vec::new(),
            seed: 0xB0D7,
            reference_engine: false,
        }
    }

    /// Creates a simulation over a pre-built node set — the bulk-construction
    /// hook the population/fleet layer uses: a per-body scenario materialises
    /// its `Vec<NodeConfig>` once and hands it over without `add_node`
    /// re-pushing (and re-growing) node by node.
    #[must_use]
    pub fn with_nodes(policy: MacPolicy, nodes: Vec<NodeConfig>) -> Self {
        Self {
            policy,
            nodes,
            seed: 0xB0D7,
            reference_engine: false,
        }
    }

    /// Sets the random seed used by stochastic traffic sources.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the reference engine: the seed repository's original
    /// (pre-PR-1) shape — binary-heap queue, exact `Vec`-based latency
    /// percentiles, and a per-arbitration allocation (which PR 1 had already
    /// replaced with a reused scratch buffer on the live path).
    ///
    /// The reference engine processes the identical event sequence as the
    /// default streaming engine — same frames, bytes, energy and event count
    /// — but keeps every latency sample, so its memory grows with the
    /// horizon.  It exists for equivalence testing and for `bench_netsim`'s
    /// old-vs-new perf trajectory.
    #[must_use]
    pub fn with_reference_engine(mut self, reference: bool) -> Self {
        self.reference_engine = reference;
        self
    }

    /// Adds a node and returns its index.
    pub fn add_node(&mut self, node: NodeConfig) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// The configured nodes.
    #[must_use]
    pub fn nodes(&self) -> &[NodeConfig] {
        &self.nodes
    }

    /// Checks the configuration and returns the offered load as a fraction of
    /// the slowest leaf uplink's goodput.
    ///
    /// # Errors
    /// Returns [`NetsimError`] if any leaf has zero-goodput uplink while
    /// generating traffic.
    pub fn offered_load(&self) -> Result<f64, NetsimError> {
        let mut load = 0.0;
        for node in &self.nodes {
            let rate = node.traffic().average_rate();
            if rate.as_bps() > 0.0 && node.link().goodput().as_bps() <= 0.0 {
                return Err(NetsimError::invalid(
                    "link.goodput",
                    format!(
                        "node {} generates traffic over a zero-rate link",
                        node.name()
                    ),
                ));
            }
            if node.link().goodput().as_bps() > 0.0 {
                load += rate.as_bps() / node.link().goodput().as_bps();
            }
        }
        Ok(load)
    }

    /// Runs the simulation for `duration` of simulated time.  The streaming
    /// engine runs in a fresh [`Workspace`] and reads the report out of it.
    #[must_use]
    pub fn run(&mut self, duration: TimeSpan) -> SimulationReport {
        if self.reference_engine {
            return self.run_reference(duration);
        }
        let mut workspace = Workspace::new();
        workspace.execute(&self.nodes, self.policy, self.seed, duration);
        workspace.report(&self.nodes, self.policy, duration)
    }

    /// Runs the streaming engine for `duration` in `workspace`, reset in
    /// place, and reduces the run straight into [`RunTotals`] — equal, bit
    /// for bit, to reducing [`run`](Self::run)'s report across its nodes,
    /// without building that report.
    ///
    /// # Panics
    /// Panics if the reference engine is selected: it has no workspace.
    #[must_use]
    pub fn run_totals(&self, workspace: &mut Workspace, duration: TimeSpan) -> RunTotals {
        assert!(
            !self.reference_engine,
            "the reference engine does not run in a workspace"
        );
        workspace.execute(&self.nodes, self.policy, self.seed, duration);
        workspace.totals(&self.nodes, duration)
    }

    /// The reference engine, faithful to the seed repository's original
    /// shape: one binary heap for every event, a fresh readiness `Vec` per
    /// arbitration, per-event pattern matching on the traffic source and an
    /// unbounded exact-sample `Vec` per node.
    fn run_reference(&mut self, duration: TimeSpan) -> SimulationReport {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut queue = BinaryHeapQueue::new();
        let mut runtimes: Vec<NodeRuntime> = self
            .nodes
            .iter()
            .map(|_| NodeRuntime {
                queue: VecDeque::new(),
                generated: 0,
                in_flight: 0,
                delivered: 0,
                delivered_bytes: 0,
                exact_samples: Vec::new(),
                radio_energy: Energy::ZERO,
            })
            .collect();
        let mut arbiter = Arbiter::new(self.policy, self.nodes.len());
        let mut medium_busy_until = TimeSpan::ZERO;
        let mut medium_busy_total = TimeSpan::ZERO;
        let mut events_processed: u64 = 0;

        // Seed the first frame of every traffic source.
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(interval) = node.traffic().next_interval(&mut rng) {
                queue.schedule(
                    interval,
                    Event::FrameGenerated {
                        node: i,
                        bytes: node.traffic().frame_bytes(),
                    },
                );
            }
        }

        while let Some((time, event)) = queue.pop() {
            if time > duration {
                break;
            }
            events_processed += 1;
            match event {
                Event::FrameGenerated { node, bytes } => {
                    runtimes[node].generated += 1;
                    runtimes[node].queue.push_back((time, bytes));
                    if let Some(interval) = self.nodes[node].traffic().next_interval(&mut rng) {
                        queue.schedule(time + interval, Event::FrameGenerated { node, bytes });
                    }
                    Self::try_transmit_reference(
                        &self.nodes,
                        &mut runtimes,
                        &mut arbiter,
                        &mut medium_busy_until,
                        &mut medium_busy_total,
                        &mut queue,
                        time,
                        self.policy,
                    );
                }
                Event::TransmissionComplete {
                    node,
                    bytes,
                    generated_at,
                } => {
                    let rt = &mut runtimes[node];
                    rt.in_flight = rt.in_flight.saturating_sub(1);
                    rt.delivered += 1;
                    rt.delivered_bytes += bytes;
                    rt.exact_samples.push(time - generated_at);
                    rt.radio_energy += self.nodes[node].link().energy_per_bit()
                        * DataVolume::from_bytes(bytes as f64);
                    Self::try_transmit_reference(
                        &self.nodes,
                        &mut runtimes,
                        &mut arbiter,
                        &mut medium_busy_until,
                        &mut medium_busy_total,
                        &mut queue,
                        time,
                        self.policy,
                    );
                }
                Event::Tick => {}
            }
        }

        let mut latency_sketches = Vec::with_capacity(self.nodes.len());
        let node_stats = self
            .nodes
            .iter()
            .zip(runtimes)
            .map(|(node, rt)| {
                let (mean, p95, max, sketch) =
                    finalize_latencies(LatencySketch::new(), rt.exact_samples);
                latency_sketches.push(sketch);
                let baseline_energy = node.baseline_power() * duration;
                let total_energy = rt.radio_energy + baseline_energy;
                NodeStats {
                    name: node.name().to_string(),
                    role: node.role(),
                    generated_frames: rt.generated,
                    delivered_frames: rt.delivered,
                    delivered_bytes: rt.delivered_bytes,
                    backlog_frames: rt.queue.len() + rt.in_flight,
                    mean_latency: mean,
                    p95_latency: p95,
                    max_latency: max,
                    radio_energy: rt.radio_energy,
                    baseline_energy,
                    average_power: if duration.as_seconds() > 0.0 {
                        total_energy / duration
                    } else {
                        Power::ZERO
                    },
                    throughput: if duration.as_seconds() > 0.0 {
                        DataVolume::from_bytes(rt.delivered_bytes as f64) / duration
                    } else {
                        DataRate::ZERO
                    },
                }
            })
            .collect();

        SimulationReport {
            duration,
            policy: self.policy,
            node_stats,
            medium_busy: medium_busy_total.min(duration),
            events_processed,
            latency_sketches,
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn try_transmit_reference(
        nodes: &[NodeConfig],
        runtimes: &mut [NodeRuntime],
        arbiter: &mut Arbiter,
        medium_busy_until: &mut TimeSpan,
        medium_busy_total: &mut TimeSpan,
        queue: &mut BinaryHeapQueue,
        now: TimeSpan,
        policy: MacPolicy,
    ) {
        if now < *medium_busy_until {
            return;
        }
        // Faithful to the seed's original try_transmit: a collect per
        // arbitration (PR 1 replaced this with a reused scratch buffer; the
        // reference engine reproduces the seed shape).
        let has_data: Vec<bool> = runtimes.iter().map(|rt| !rt.queue.is_empty()).collect();
        let Some(winner) = arbiter.grant(&has_data) else {
            return;
        };
        let winner_rt = &mut runtimes[winner];
        let Some((generated_at, bytes)) = winner_rt.queue.pop_front() else {
            return;
        };
        winner_rt.in_flight += 1;
        let link = nodes[winner].link();
        let airtime = if link.goodput().as_bps() > 0.0 {
            DataVolume::from_bytes(bytes as f64) / link.goodput()
        } else {
            TimeSpan::from_seconds(f64::INFINITY)
        };
        let occupancy = link.wakeup() + policy.grant_overhead() + airtime;
        *medium_busy_until = now + occupancy;
        *medium_busy_total += occupancy;
        queue.schedule(
            *medium_busy_until,
            Event::TransmissionComplete {
                node: winner,
                bytes,
                generated_at,
            },
        );
    }
}

fn percentile(sorted: &[TimeSpan], q: f64) -> TimeSpan {
    if sorted.is_empty() {
        return TimeSpan::ZERO;
    }
    sorted[crate::sketch::nearest_rank_index(sorted.len(), q)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::LinkParams;
    use crate::traffic::TrafficPattern;
    use hidwa_eqs::body::BodySite;
    use hidwa_units::EnergyPerBit;

    fn wir_link() -> LinkParams {
        LinkParams::new(
            DataRate::from_mbps(4.0),
            EnergyPerBit::from_pico_joules(100.0),
            TimeSpan::from_micros(100.0),
        )
    }

    fn ecg_node(name: &str) -> NodeConfig {
        NodeConfig::leaf(name, BodySite::Chest, wir_link())
            .with_sensing_power(Power::from_micro_watts(2.0))
            .with_traffic(TrafficPattern::periodic(TimeSpan::from_seconds(1.0), 512))
    }

    #[test]
    fn single_node_delivers_all_frames() {
        let mut sim = Simulation::new(MacPolicy::Tdma);
        sim.add_node(ecg_node("ecg"));
        let report = sim.run(TimeSpan::from_seconds(100.0));
        let stats = &report.node_stats()[0];
        assert!(stats.generated_frames >= 99);
        assert_eq!(
            stats.generated_frames,
            stats.delivered_frames + stats.backlog_frames
        );
        assert!(stats.backlog_frames <= 1);
        assert!(report.delivery_ratio() > 0.98);
        // Latency is dominated by the ~1 ms airtime + overheads.
        assert!(stats.mean_latency.as_millis() < 10.0);
        assert!(stats.p95_latency >= stats.mean_latency);
        assert!(stats.max_latency >= stats.p95_latency);
        assert!(report.events_processed() > 0);
    }

    #[test]
    fn radio_energy_matches_delivered_volume() {
        let mut sim = Simulation::new(MacPolicy::Tdma);
        sim.add_node(ecg_node("ecg"));
        let report = sim.run(TimeSpan::from_seconds(50.0));
        let stats = &report.node_stats()[0];
        let expected = EnergyPerBit::from_pico_joules(100.0)
            * DataVolume::from_bytes(stats.delivered_bytes as f64);
        assert!((stats.radio_energy.as_joules() - expected.as_joules()).abs() < 1e-12);
        // Baseline dominates for this ULP node: 2 µW × 50 s = 100 µJ.
        assert!(stats.baseline_energy > stats.radio_energy);
        assert!(stats.average_power.as_micro_watts() < 10.0);
    }

    #[test]
    fn many_nodes_share_the_medium_fairly() {
        let mut sim = Simulation::new(MacPolicy::Polling);
        for i in 0..8 {
            sim.add_node(
                NodeConfig::leaf(format!("imu-{i}"), BodySite::Wrist, wir_link())
                    .with_traffic(TrafficPattern::streaming(DataRate::from_kbps(100.0), 1024)),
            );
        }
        let report = sim.run(TimeSpan::from_seconds(20.0));
        assert!(
            report.delivery_ratio() > 0.95,
            "{}",
            report.delivery_ratio()
        );
        let throughputs: Vec<f64> = report
            .node_stats()
            .iter()
            .map(|s| s.throughput.as_kbps())
            .collect();
        let min = throughputs.iter().fold(f64::MAX, |a, &b| a.min(b));
        let max = throughputs.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(min > 90.0 && max < 110.0, "unfair split {throughputs:?}");
        // 8 × 100 kbps over a 4 Mbps medium ≈ 20 % utilisation plus overheads.
        assert!(report.medium_utilization() > 0.15 && report.medium_utilization() < 0.5);
        assert_eq!(report.policy(), MacPolicy::Polling);
    }

    #[test]
    fn overload_builds_backlog_instead_of_panicking() {
        let mut sim = Simulation::new(MacPolicy::Tdma);
        // 3 nodes × 2 Mbps offered over a 4 Mbps medium with overheads: >100 %.
        for i in 0..3 {
            sim.add_node(
                NodeConfig::leaf(format!("cam-{i}"), BodySite::Face, wir_link())
                    .with_traffic(TrafficPattern::streaming(DataRate::from_mbps(2.0), 4096)),
            );
        }
        assert!(sim.offered_load().unwrap() > 1.0);
        let report = sim.run(TimeSpan::from_seconds(5.0));
        assert!(report.delivery_ratio() < 1.0);
        let backlog: usize = report.node_stats().iter().map(|s| s.backlog_frames).sum();
        assert!(backlog > 0);
        assert!(report.medium_utilization() > 0.9);
    }

    #[test]
    fn bursty_traffic_is_reproducible_with_seed() {
        let build = || {
            let mut sim = Simulation::new(MacPolicy::Polling).with_seed(7);
            sim.add_node(
                NodeConfig::leaf("event", BodySite::Wrist, wir_link())
                    .with_traffic(TrafficPattern::bursty(TimeSpan::from_seconds(0.5), 256)),
            );
            sim.run(TimeSpan::from_seconds(30.0))
        };
        let a = build();
        let b = build();
        assert_eq!(
            a.node_stats()[0].generated_frames,
            b.node_stats()[0].generated_frames
        );
        assert_eq!(
            a.node_stats()[0].delivered_bytes,
            b.node_stats()[0].delivered_bytes
        );
    }

    #[test]
    fn silent_network_reports_zeroes() {
        let mut sim = Simulation::new(MacPolicy::Tdma);
        sim.add_node(NodeConfig::leaf("actuator", BodySite::Ear, wir_link()));
        let report = sim.run(TimeSpan::from_seconds(10.0));
        let stats = &report.node_stats()[0];
        assert_eq!(stats.generated_frames, 0);
        assert_eq!(stats.delivered_frames, 0);
        assert_eq!(stats.radio_energy, Energy::ZERO);
        assert_eq!(report.aggregate_throughput(), DataRate::ZERO);
        assert_eq!(report.medium_utilization(), 0.0);
        assert_eq!(report.delivery_ratio(), 1.0);
        assert_eq!(report.duration(), TimeSpan::from_seconds(10.0));
        assert!(report.total_energy() > Energy::ZERO);
        assert_eq!(report.events_processed(), 0);
        assert_eq!(report.latency_sketches()[0].count(), 0);
    }

    #[test]
    fn offered_load_rejects_zero_rate_link() {
        let mut sim = Simulation::new(MacPolicy::Tdma);
        sim.add_node(
            NodeConfig::leaf(
                "broken",
                BodySite::Chest,
                LinkParams::new(DataRate::ZERO, EnergyPerBit::ZERO, TimeSpan::ZERO),
            )
            .with_traffic(TrafficPattern::periodic(TimeSpan::from_seconds(1.0), 100)),
        );
        assert!(sim.offered_load().is_err());
        assert_eq!(sim.nodes().len(), 1);
    }

    #[test]
    fn reference_and_streaming_engines_agree() {
        let build = |reference: bool| {
            let mut sim = Simulation::new(MacPolicy::Polling)
                .with_seed(42)
                .with_reference_engine(reference);
            sim.add_node(ecg_node("ecg"));
            sim.add_node(
                NodeConfig::leaf("imu", BodySite::Wrist, wir_link())
                    .with_traffic(TrafficPattern::streaming(DataRate::from_kbps(64.0), 512)),
            );
            sim.add_node(
                NodeConfig::leaf("burst", BodySite::Finger, wir_link())
                    .with_traffic(TrafficPattern::bursty(TimeSpan::from_millis(80.0), 256)),
            );
            sim.run(TimeSpan::from_seconds(30.0))
        };
        let reference = build(true);
        let streaming = build(false);
        assert_eq!(reference.events_processed(), streaming.events_processed());
        // The reference engine keeps the exact path sketch-free.
        assert!(reference.latency_sketches().iter().all(|s| s.count() == 0));
        for (r, s) in reference.node_stats().iter().zip(streaming.node_stats()) {
            assert_eq!(r.generated_frames, s.generated_frames);
            assert_eq!(r.delivered_frames, s.delivered_frames);
            assert_eq!(r.delivered_bytes, s.delivered_bytes);
            assert_eq!(r.backlog_frames, s.backlog_frames);
            assert_eq!(r.radio_energy, s.radio_energy);
            assert_eq!(r.mean_latency, s.mean_latency);
            assert_eq!(r.max_latency, s.max_latency);
            // Percentiles: streaming is never below exact, at most 1/64 above.
            assert!(s.p95_latency >= r.p95_latency);
            assert!(
                s.p95_latency.as_seconds()
                    <= r.p95_latency.as_seconds() * (1.0 + crate::sketch::RELATIVE_ERROR_BOUND)
                        + 1e-15
            );
        }
    }

    #[test]
    fn networks_beyond_mask_width_still_simulate() {
        // 70 nodes exceeds the 64-bit readiness mask; the multi-word path
        // must carry the simulation with the same fairness guarantees.
        let mut sim = Simulation::new(MacPolicy::Polling);
        for i in 0..70 {
            sim.add_node(
                NodeConfig::leaf(format!("n{i}"), BodySite::Wrist, wir_link())
                    .with_traffic(TrafficPattern::periodic(TimeSpan::from_millis(500.0), 64)),
            );
        }
        // Horizon lands between generation instants so the final batch's
        // delivery chain (~20 ms for 70 frames) completes before the cut.
        let report = sim.run(TimeSpan::from_seconds(5.1));
        assert!(
            report.delivery_ratio() > 0.95,
            "{}",
            report.delivery_ratio()
        );
        assert!(report.node_stats().iter().all(|s| s.delivered_frames > 0));
    }

    #[test]
    fn engines_agree_beyond_mask_width() {
        // The > 64-node word path must stay bit-identical to the reference
        // engine too (it shares nothing with the single-word mask path).
        let build = |reference: bool| {
            let mut sim = Simulation::new(MacPolicy::Polling)
                .with_seed(9)
                .with_reference_engine(reference);
            for i in 0..70 {
                let traffic = if i % 3 == 0 {
                    TrafficPattern::bursty(TimeSpan::from_millis(400.0), 128)
                } else {
                    TrafficPattern::periodic(TimeSpan::from_millis(350.0), 64)
                };
                sim.add_node(
                    NodeConfig::leaf(format!("n{i}"), BodySite::Wrist, wir_link())
                        .with_traffic(traffic),
                );
            }
            sim.run(TimeSpan::from_seconds(8.0))
        };
        let reference = build(true);
        let streaming = build(false);
        assert_eq!(reference.events_processed(), streaming.events_processed());
        for (r, s) in reference.node_stats().iter().zip(streaming.node_stats()) {
            assert_eq!(r.generated_frames, s.generated_frames);
            assert_eq!(r.delivered_frames, s.delivered_frames);
            assert_eq!(r.delivered_bytes, s.delivered_bytes);
            assert_eq!(r.backlog_frames, s.backlog_frames);
            assert_eq!(r.radio_energy, s.radio_energy);
            assert_eq!(r.mean_latency, s.mean_latency);
            assert_eq!(r.max_latency, s.max_latency);
        }
    }

    #[test]
    fn exhausted_sources_retire_their_generation_slot() {
        // A zero-rate streaming source never seeds; mixing it with live
        // nodes exercises the heap over a sparse slot set.
        let mut sim = Simulation::new(MacPolicy::Polling);
        sim.add_node(
            NodeConfig::leaf("dead", BodySite::Ear, wir_link())
                .with_traffic(TrafficPattern::streaming(DataRate::ZERO, 256)),
        );
        sim.add_node(ecg_node("live"));
        let report = sim.run(TimeSpan::from_seconds(10.0));
        assert_eq!(report.node_stats()[0].generated_frames, 0);
        assert!(report.node_stats()[1].delivered_frames >= 9);
    }
}
