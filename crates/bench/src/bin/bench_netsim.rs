//! Perf-trajectory runner for the netsim hot path and the fleet layer.
//!
//! Two sections, written to `BENCH_netsim.json` (in `$HIDWA_BENCH_OUT` or the
//! current directory) so successive PRs can track the trajectory alongside
//! `BENCH_partition.json`:
//!
//! * `engine` — a 10-node body network simulated over a long horizon on the
//!   **reference** path (the seed repository's original engine: binary-heap
//!   event queue, per-arbitration allocation, unbounded latency `Vec` sorted
//!   at the end) versus the **streaming** path (generation-slot heap plus
//!   completion FIFO, ready-bitmask arbitration, O(1)-memory latency
//!   sketches), reporting
//!   events/sec and simulated bytes/sec plus the speedup.  The speedup is
//!   **vs the seed engine** — PR 1 had already removed the per-arbitration
//!   allocation on the live path, so read the trajectory as cumulative since
//!   the seed, not per-PR.
//! * `fleet` — [`FleetConfig`] batches of independent bodies over the
//!   [`SweepRunner`], showing how throughput scales with fleet size, plus a
//!   determinism check that a ≥1000-body fleet aggregates byte-identically at
//!   thread widths 1 and 4.  Two populations: `uniform`, the standard
//!   five-leaf body (one class, so a fold runs the engine once per thread
//!   and times the counted-repeat path), and `event-driven`, the same body
//!   with its camera capturing on scene changes (bursty, so every body runs
//!   the engine and bodies/s is engine-bound).
//! * `hetero_fleet` — heterogeneous population streams
//!   ([`PopulationModel::mixed_default`]: health-patch / AR-assistant /
//!   BLE-minimal archetypes) ingested through the bounded-memory
//!   [`FleetAggregator`](hidwa_core::fleet::FleetAggregator), up to a
//!   10k-body stream.  Each row records `state_buckets`, the aggregation
//!   state's memory proxy; the run asserts it stays flat across a 10×
//!   fleet-size spread (no materialised per-body vector anywhere), and that
//!   a ≥1000-body heterogeneous fleet aggregates byte-identically at thread
//!   widths 1 and 4.
//! * `width_scaling` — the 1000-body and the largest heterogeneous fold
//!   timed at [`SweepRunner::with_threads`] 1 and 2 (interleaved, median of
//!   `HIDWA_BENCH_SAMPLES`: a best-of would pick the rare moments a lone
//!   thread has the host to itself; one runner per width serves every
//!   sample, so its helper starts once, as in a long-lived caller), with the
//!   width-2/width-1 throughput ratio and a flag that every fold's
//!   checkpoint bytes equal the first width-1 fold's.  The ratio is
//!   recorded, not gated: a shared host makes it noisy.
//! * `shard_fleet` — the same 1000-body heterogeneous stream folded under
//!   several [`ShardPlan`] layouts (even and ragged), each row asserting the
//!   merged partials are **byte-identical** to the single-stream fold (via
//!   the checkpoint codec, so identical means identical limbs and buckets,
//!   not merely equal reports), plus a mid-stream checkpoint/save/load/
//!   resume identity check.
//! * `driver_fleet` — the multi-process driver
//!   ([`hidwa_core::fleet::driver`]): the same heterogeneous stream run by
//!   the [`FleetDriver`] coordinator with **worker processes** (this binary
//!   re-invoked as `bench_netsim --worker …`) shipping checkpoint blobs
//!   over a spool directory, versus the in-process executor and the plain
//!   single-stream fold.  Every driver sample publishes into an empty spool,
//!   so it times a full fold, never a resume.  Every row asserts the merged
//!   state bytes are identical to the single stream — the process boundary
//!   must be invisible in the result.
//!
//! Every `fleet`, `hetero_fleet` and `width_scaling` row records
//! `engine_runs`, the bodies a fold runs on the engine at any width: bodies
//! with a bursty leaf, plus one per distinct deterministic class (a fold
//! at width > 1 adds the rare extra run when two threads meet a new class
//! at once).  The rest are repeats of a class the fold's shared class
//! table holds: each draws its class and is counted (or, if it would enter
//! the worst-body list, ingested as a copy of the stored summary), and the
//! counts go into the fold with one scaled update per class.  So these
//! rows' `events` count events the engine ran once per class, not once per
//! body.
//!
//! The file opens with the run's provenance (cores, rustc, git revision,
//! profile).  Exits non-zero if the two engine paths disagree on any exact
//! statistic or if any determinism / memory-bound / width / shard-identity
//! check fails.
//!
//! Knobs: `HIDWA_BENCH_SAMPLES` (default 5 timing samples per row: the
//! best is taken for the engines, the median for the `fleet`,
//! `hetero_fleet`, `width_scaling`, `shard_fleet` and `driver_fleet` rows),
//! `HIDWA_BENCH_HORIZON_S` (default 3600 s engine horizon — an hour
//! of body time, where the reference path's unbounded sample vectors start
//! paying reallocation and sort costs), `HIDWA_BENCH_FLEET_HORIZON_S`
//! (default 5 s per-body horizon), `HIDWA_BENCH_STREAM_BODIES` (default
//! 10000 bodies in the largest heterogeneous stream),
//! `HIDWA_BENCH_STREAM_HORIZON_S` (default 2 s per-body horizon for the
//! heterogeneous rows), `HIDWA_BENCH_SHARD_BODIES` (default 1000 bodies in
//! the shard-identity section), `HIDWA_BENCH_DRIVER_BODIES` (default 400
//! bodies in the multi-process driver section).

use hidwa_bench::env_f64;
use hidwa_bench::json;
use hidwa_core::fleet::driver::{
    DriverFleetSpec, FleetDriver, InProcessExecutor, PopulationSpec, ProcessExecutor,
    ShardExecutor, WorkerCommand,
};
use hidwa_core::fleet::{FleetCheckpoint, FleetConfig, ShardPlan};
use hidwa_core::population::PopulationModel;
use hidwa_core::scenario::{self, LeafSpec};
use hidwa_core::sweep::SweepRunner;
use hidwa_eqs::body::BodySite;
use hidwa_netsim::mac::MacPolicy;
use hidwa_netsim::node::{LinkParams, NodeConfig};
use hidwa_netsim::sim::{Simulation, SimulationReport};
use hidwa_netsim::traffic::TrafficPattern;
use hidwa_units::{DataRate, EnergyPerBit, TimeSpan};
use std::time::Instant;

struct EngineRow {
    path: String,
    horizon_s: f64,
    events: u64,
    delivered_bytes: u64,
    wall_ms: f64,
    events_per_sec: f64,
    bytes_per_sec: f64,
    speedup_vs_reference: f64,
}

hidwa_bench::json_struct!(EngineRow {
    path,
    horizon_s,
    events,
    delivered_bytes,
    wall_ms,
    events_per_sec,
    bytes_per_sec,
    speedup_vs_reference,
});

struct FleetRow {
    population: String,
    bodies: usize,
    horizon_s: f64,
    events: u64,
    engine_runs: usize,
    wall_ms: f64,
    bodies_per_sec: f64,
    events_per_sec: f64,
}

hidwa_bench::json_struct!(FleetRow {
    population,
    bodies,
    horizon_s,
    events,
    engine_runs,
    wall_ms,
    bodies_per_sec,
    events_per_sec,
});

struct HeteroRow {
    bodies: usize,
    horizon_s: f64,
    events: u64,
    engine_runs: usize,
    wall_ms: f64,
    bodies_per_sec: f64,
    events_per_sec: f64,
    /// Aggregation-state memory proxy: live sketch buckets + retained top-K
    /// summaries.  Must stay flat as `bodies` grows.
    state_buckets: usize,
    worst_p95_ms: f64,
    delivery_ratio: f64,
}

hidwa_bench::json_struct!(HeteroRow {
    bodies,
    horizon_s,
    events,
    engine_runs,
    wall_ms,
    bodies_per_sec,
    events_per_sec,
    state_buckets,
    worst_p95_ms,
    delivery_ratio,
});

struct WidthRow {
    bodies: usize,
    horizon_s: f64,
    engine_runs: usize,
    width1_bodies_per_sec: f64,
    width2_bodies_per_sec: f64,
    width2_over_width1: f64,
    /// Every fold, at either width, checkpointed the same bytes.
    identical: bool,
}

hidwa_bench::json_struct!(WidthRow {
    bodies,
    horizon_s,
    engine_runs,
    width1_bodies_per_sec,
    width2_bodies_per_sec,
    width2_over_width1,
    identical,
});

struct ShardRow {
    layout: String,
    shards: usize,
    bodies: usize,
    horizon_s: f64,
    wall_ms: f64,
    bodies_per_sec: f64,
    /// Merged-partial state bytes equal the single-stream fold's bytes.
    identical_to_single_stream: bool,
}

hidwa_bench::json_struct!(ShardRow {
    layout,
    shards,
    bodies,
    horizon_s,
    wall_ms,
    bodies_per_sec,
    identical_to_single_stream,
});

struct DriverRow {
    mode: String,
    workers: usize,
    bodies: usize,
    horizon_s: f64,
    wall_ms: f64,
    bodies_per_sec: f64,
    /// Blobs reused from a previous run over the same spool (resume).
    reused_shards: usize,
    /// Worker executions (processes spawned / in-process folds) this run.
    worker_attempts: usize,
    /// Merged blob state bytes equal the single-stream fold's bytes.
    identical_to_single_stream: bool,
}

hidwa_bench::json_struct!(DriverRow {
    mode,
    workers,
    bodies,
    horizon_s,
    wall_ms,
    bodies_per_sec,
    reused_shards,
    worker_attempts,
    identical_to_single_stream,
});

struct BenchNetsim {
    engine: Vec<EngineRow>,
    fleet: Vec<FleetRow>,
    fleet_determinism_bodies: usize,
    fleet_determinism_ok: bool,
    hetero_fleet: Vec<HeteroRow>,
    hetero_memory_bounded: bool,
    hetero_determinism_bodies: usize,
    hetero_determinism_ok: bool,
    width_scaling: Vec<WidthRow>,
    width_identity_ok: bool,
    shard_fleet: Vec<ShardRow>,
    shard_identity_ok: bool,
    checkpoint_resume_ok: bool,
    driver_fleet: Vec<DriverRow>,
    driver_identity_ok: bool,
}

hidwa_bench::json_struct!(BenchNetsim {
    engine,
    fleet,
    fleet_determinism_bodies,
    fleet_determinism_ok,
    hetero_fleet,
    hetero_memory_bounded,
    hetero_determinism_bodies,
    hetero_determinism_ok,
    width_scaling,
    width_identity_ok,
    shard_fleet,
    shard_identity_ok,
    checkpoint_resume_ok,
    driver_fleet,
    driver_identity_ok,
});

/// The 10-node body the engine comparison runs: two periodic vitals patches
/// plus eight streaming sensors, all on Wi-R-class links — busy enough that
/// the event queue and latency accounting dominate.
fn ten_node_body(reference: bool) -> Simulation {
    let link = LinkParams::new(
        DataRate::from_mbps(4.0),
        EnergyPerBit::from_pico_joules(100.0),
        TimeSpan::from_micros(100.0),
    );
    let mut sim = Simulation::new(MacPolicy::Polling)
        .with_seed(0xB0D7)
        .with_reference_engine(reference);
    for i in 0..2 {
        sim.add_node(
            NodeConfig::leaf(format!("vitals-{i}"), BodySite::Chest, link)
                .with_traffic(TrafficPattern::periodic(TimeSpan::from_millis(250.0), 512)),
        );
    }
    for i in 0..8 {
        let kbps = 64.0 + 32.0 * i as f64;
        sim.add_node(
            NodeConfig::leaf(format!("stream-{i}"), BodySite::Wrist, link)
                .with_traffic(TrafficPattern::streaming(DataRate::from_kbps(kbps), 512)),
        );
    }
    sim
}

/// Bodies a fold of `config` runs on the engine at any width: every body
/// with no class, plus one per distinct class (the fleets here are
/// churn-free and have far fewer classes than the class table holds),
/// races between fold threads aside.  The rest are counted repeats.
fn engine_runs(config: &FleetConfig) -> usize {
    let mut classes = Vec::new();
    let mut unclassed = 0;
    for body in 0..config.bodies() {
        match config.scenario_for_body(body).class() {
            Some(class) if !classes.contains(&class) => classes.push(class),
            Some(_) => {}
            None => unclassed += 1,
        }
    }
    unclassed + classes.len()
}

/// The standard five-leaf body with its camera capturing on scene changes
/// (bursty) instead of streaming: no body of it has a class.
fn event_driven_leaves() -> Vec<LeafSpec> {
    let mut leaves = scenario::standard_leaf_set();
    for leaf in &mut leaves {
        if leaf.name == "camera-glasses" {
            leaf.traffic = TrafficPattern::bursty(TimeSpan::from_millis(50.0), 4096);
        }
    }
    leaves
}

fn delivered_bytes(report: &SimulationReport) -> u64 {
    report
        .node_stats()
        .iter()
        .map(|s| s.delivered_bytes as u64)
        .sum()
}

fn time_one(reference: bool, horizon: TimeSpan) -> (f64, SimulationReport) {
    let mut sim = ten_node_body(reference);
    let start = Instant::now();
    let report = sim.run(horizon);
    (start.elapsed().as_secs_f64() * 1e3, report)
}

/// Best-of-`samples` wall time for both engine paths, sampled *interleaved*
/// (reference, streaming, reference, …) so machine-load noise hits both
/// paths alike instead of biasing whichever ran during a quiet window.
/// Returns `((reference_ms, reference_report), (streaming_ms, report))`.
#[allow(clippy::type_complexity)]
fn time_engines(
    horizon: TimeSpan,
    samples: usize,
) -> ((f64, SimulationReport), (f64, SimulationReport)) {
    let mut best = [f64::INFINITY; 2];
    let mut reports = [None, None];
    for _ in 0..samples {
        for (slot, reference) in [(0, true), (1, false)] {
            let (ms, report) = time_one(reference, horizon);
            best[slot] = best[slot].min(ms);
            reports[slot] = Some(report);
        }
    }
    let [reference, streaming] = reports;
    (
        (best[0], reference.expect("samples >= 1")),
        (best[1], streaming.expect("samples >= 1")),
    )
}

/// The median of `walls`, which must not be empty.
fn median(mut walls: Vec<f64>) -> f64 {
    walls.sort_by(f64::total_cmp);
    walls[walls.len() / 2]
}

/// Median wall time in ms of `samples` calls of `fold`, and the last call's
/// result.  A single timing of a 0.1–25 ms fold moves with whatever else
/// the host runs at that moment; the median of several does not.
fn median_ms<T>(samples: usize, mut fold: impl FnMut() -> T) -> (f64, T) {
    let mut walls = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        let start = Instant::now();
        let result = fold();
        walls.push(start.elapsed().as_secs_f64() * 1e3);
        last = Some(result);
    }
    (median(walls), last.expect("samples >= 1"))
}

fn main() -> std::process::ExitCode {
    // Worker mode: the driver_fleet section spawns this binary per shard.
    let mut argv = std::env::args().skip(1);
    if argv.next().as_deref() == Some("--worker") {
        return hidwa_core::fleet::driver::worker_main(argv);
    }

    let samples = (env_f64("HIDWA_BENCH_SAMPLES", 5.0) as usize).max(1);
    let horizon = TimeSpan::from_seconds(env_f64("HIDWA_BENCH_HORIZON_S", 3600.0).max(1.0));
    let fleet_horizon =
        TimeSpan::from_seconds(env_f64("HIDWA_BENCH_FLEET_HORIZON_S", 5.0).max(0.5));

    hidwa_bench::header(
        "bench_netsim",
        "netsim hot path (reference vs streaming engine) and fleet scaling",
    );

    // --- Engine comparison -------------------------------------------------
    let ((reference_ms, reference_report), (streaming_ms, streaming_report)) =
        time_engines(horizon, samples);

    let mut disagreements = 0;
    if reference_report.events_processed() != streaming_report.events_processed() {
        eprintln!(
            "DISAGREEMENT: events {} vs {}",
            reference_report.events_processed(),
            streaming_report.events_processed()
        );
        disagreements += 1;
    }
    if delivered_bytes(&reference_report) != delivered_bytes(&streaming_report) {
        eprintln!("DISAGREEMENT: delivered bytes differ between engines");
        disagreements += 1;
    }
    for (r, s) in reference_report
        .node_stats()
        .iter()
        .zip(streaming_report.node_stats())
    {
        if r.delivered_frames != s.delivered_frames || r.radio_energy != s.radio_energy {
            eprintln!("DISAGREEMENT on node {}: {r:?} vs {s:?}", r.name);
            disagreements += 1;
        }
    }

    let speedup = reference_ms / streaming_ms;
    let make_row = |path: &str, wall_ms: f64, report: &SimulationReport, speedup: f64| EngineRow {
        path: path.to_string(),
        horizon_s: horizon.as_seconds(),
        events: report.events_processed(),
        delivered_bytes: delivered_bytes(report),
        wall_ms,
        events_per_sec: report.events_processed() as f64 / (wall_ms / 1e3),
        bytes_per_sec: delivered_bytes(report) as f64 / (wall_ms / 1e3),
        speedup_vs_reference: speedup,
    };
    let engine = vec![
        make_row("reference", reference_ms, &reference_report, 1.0),
        make_row("streaming", streaming_ms, &streaming_report, speedup),
    ];
    println!(
        "{:<11} {:>10} {:>10} {:>14} {:>14} {:>8}",
        "path", "events", "wall ms", "events/s", "bytes/s", "speedup"
    );
    for row in &engine {
        println!(
            "{:<11} {:>10} {:>10.1} {:>14.0} {:>14.0} {:>7.2}x",
            row.path,
            row.events,
            row.wall_ms,
            row.events_per_sec,
            row.bytes_per_sec,
            row.speedup_vs_reference
        );
    }

    // --- Fleet scaling ------------------------------------------------------
    let runner = SweepRunner::new();
    println!(
        "\n{:<13} {:>8} {:>10} {:>8} {:>10} {:>12} {:>14}  (threads: {})",
        "population",
        "bodies",
        "events",
        "engine",
        "wall ms",
        "bodies/s",
        "events/s",
        runner.threads()
    );
    let mut fleet_rows = Vec::new();
    for (population, leaves) in [
        ("uniform", scenario::standard_leaf_set()),
        ("event-driven", event_driven_leaves()),
    ] {
        for &bodies in &[1usize, 10, 100, 1000] {
            let config = FleetConfig::new(bodies)
                .with_leaves(leaves.clone())
                .with_horizon(fleet_horizon);
            let (wall_ms, report) = median_ms(samples, || config.run(&runner));
            let row = FleetRow {
                population: population.to_string(),
                bodies,
                horizon_s: fleet_horizon.as_seconds(),
                events: report.events_processed(),
                engine_runs: engine_runs(&config),
                wall_ms,
                bodies_per_sec: bodies as f64 / (wall_ms / 1e3),
                events_per_sec: report.events_processed() as f64 / (wall_ms / 1e3),
            };
            println!(
                "{:<13} {:>8} {:>10} {:>8} {:>10.1} {:>12.1} {:>14.0}",
                row.population,
                row.bodies,
                row.events,
                row.engine_runs,
                row.wall_ms,
                row.bodies_per_sec,
                row.events_per_sec
            );
            fleet_rows.push(row);
        }
    }

    // --- Fleet determinism across thread widths -----------------------------
    let determinism_bodies = 1000;
    let config = FleetConfig::new(determinism_bodies)
        .with_base_seed(7)
        .with_horizon(TimeSpan::from_seconds(2.0));
    let serial = config.run(&SweepRunner::with_threads(1));
    let wide = config.run(&SweepRunner::with_threads(4));
    // Byte-identical: the full reports (every retained summary, every merged
    // sketch bucket, every f64 aggregate) compare equal.
    let deterministic = serial == wide;
    println!(
        "\nfleet determinism ({determinism_bodies} bodies, width 1 vs 4): {}",
        if deterministic {
            "byte-identical"
        } else {
            "MISMATCH"
        }
    );

    // --- Heterogeneous population streams -----------------------------------
    let stream_bodies = (env_f64("HIDWA_BENCH_STREAM_BODIES", 10_000.0) as usize).max(100);
    let stream_horizon =
        TimeSpan::from_seconds(env_f64("HIDWA_BENCH_STREAM_HORIZON_S", 2.0).max(0.5));
    println!(
        "\nheterogeneous stream (mixed population: health-patch / ar-assistant / ble-minimal)"
    );
    println!(
        "{:<8} {:>10} {:>8} {:>10} {:>12} {:>14} {:>14} {:>10}",
        "bodies", "events", "engine", "wall ms", "bodies/s", "events/s", "state bkts", "delivery"
    );
    let mut hetero_rows = Vec::new();
    for &bodies in &[stream_bodies / 10, stream_bodies] {
        let config = FleetConfig::new(bodies)
            .with_population(PopulationModel::mixed_default())
            .with_base_seed(0xD15EA5E)
            .with_horizon(stream_horizon);
        let (wall_ms, report) = median_ms(samples, || config.run(&runner));
        let row = HeteroRow {
            bodies,
            horizon_s: stream_horizon.as_seconds(),
            events: report.events_processed(),
            engine_runs: engine_runs(&config),
            wall_ms,
            bodies_per_sec: bodies as f64 / (wall_ms / 1e3),
            events_per_sec: report.events_processed() as f64 / (wall_ms / 1e3),
            state_buckets: report.aggregation_state_buckets(),
            worst_p95_ms: report.body_worst_p95_quantile(1.0).as_millis(),
            delivery_ratio: report.delivery_ratio(),
        };
        println!(
            "{:<8} {:>10} {:>8} {:>10.1} {:>12.1} {:>14.0} {:>14} {:>10.3}",
            row.bodies,
            row.events,
            row.engine_runs,
            row.wall_ms,
            row.bodies_per_sec,
            row.events_per_sec,
            row.state_buckets,
            row.delivery_ratio
        );
        hetero_rows.push(row);
    }
    // Bounded memory: a 10× larger stream may widen the sketch windows a
    // little (rarer latencies appear) but must not scale with body count.
    let (state_small, state_large) = (hetero_rows[0].state_buckets, hetero_rows[1].state_buckets);
    let memory_bounded = state_large <= state_small * 2 + 64;
    println!(
        "aggregator state: {state_small} -> {state_large} buckets across a 10x body spread ({})",
        if memory_bounded {
            "bounded"
        } else {
            "GROWS WITH FLEET"
        }
    );

    // --- Heterogeneous determinism across thread widths ---------------------
    let hetero_determinism_bodies = 1000;
    let hetero_config = FleetConfig::new(hetero_determinism_bodies)
        .with_population(PopulationModel::mixed_default())
        .with_base_seed(11)
        .with_horizon(TimeSpan::from_seconds(2.0));
    let hetero_serial = hetero_config.run(&SweepRunner::with_threads(1));
    let hetero_wide = hetero_config.run(&SweepRunner::with_threads(4));
    let hetero_deterministic = hetero_serial == hetero_wide;
    println!(
        "heterogeneous fleet determinism ({hetero_determinism_bodies} bodies, width 1 vs 4): {}",
        if hetero_deterministic {
            "byte-identical"
        } else {
            "MISMATCH"
        }
    );

    // --- Width scaling: the same fold at width 1 and width 2 ----------------
    println!("\nwidth scaling (mixed population, interleaved, median of {samples})");
    println!(
        "{:<8} {:>8} {:>14} {:>14} {:>8} {:>10}",
        "bodies", "engine", "w1 bodies/s", "w2 bodies/s", "w2/w1", "identical"
    );
    let mut width_rows = Vec::new();
    // One runner per width for every sample, so no sample but the first
    // width-2 fold's pays for starting the helper thread.
    let width_runners = [SweepRunner::with_threads(1), SweepRunner::with_threads(2)];
    for bodies in [1000, stream_bodies] {
        let config = FleetConfig::new(bodies)
            .with_population(PopulationModel::mixed_default())
            .with_base_seed(0xD15EA5E)
            .with_horizon(stream_horizon);
        let mut wall_s = [Vec::new(), Vec::new()];
        let mut reference: Option<Vec<u8>> = None;
        let mut identical = true;
        for _ in 0..samples {
            for (slot, runner) in width_runners.iter().enumerate() {
                let start = Instant::now();
                let checkpoint = config.run_until(runner, bodies);
                wall_s[slot].push(start.elapsed().as_secs_f64());
                let state = checkpoint.save().to_vec();
                identical &= *reference.get_or_insert_with(|| state.clone()) == state;
            }
        }
        let [width1_s, width2_s] = wall_s.map(median);
        let row = WidthRow {
            bodies,
            horizon_s: stream_horizon.as_seconds(),
            engine_runs: engine_runs(&config),
            width1_bodies_per_sec: bodies as f64 / width1_s,
            width2_bodies_per_sec: bodies as f64 / width2_s,
            width2_over_width1: width1_s / width2_s,
            identical,
        };
        println!(
            "{:<8} {:>8} {:>14.0} {:>14.0} {:>7.2}x {:>10}",
            row.bodies,
            row.engine_runs,
            row.width1_bodies_per_sec,
            row.width2_bodies_per_sec,
            row.width2_over_width1,
            if identical { "yes" } else { "NO" }
        );
        width_rows.push(row);
    }
    let width_identity_ok = width_rows.iter().all(|row| row.identical);

    // --- Sharded ingestion: merged partials vs the single stream ------------
    let shard_bodies = (env_f64("HIDWA_BENCH_SHARD_BODIES", 1000.0) as usize).max(100);
    let shard_config = FleetConfig::new(shard_bodies)
        .with_population(PopulationModel::mixed_default())
        .with_base_seed(0x5AAD)
        .with_horizon(stream_horizon);
    println!("\nsharded ingestion ({shard_bodies} heterogeneous bodies, merged vs single stream)");
    println!(
        "{:<22} {:>7} {:>10} {:>12} {:>10}",
        "layout", "shards", "wall ms", "bodies/s", "identical"
    );
    let (single_wall_ms, single_checkpoint) =
        median_ms(samples, || shard_config.run_until(&runner, shard_bodies));
    let single_state = single_checkpoint.save().to_vec();
    let mut shard_rows = vec![ShardRow {
        layout: "single-stream".to_string(),
        shards: 1,
        bodies: shard_bodies,
        horizon_s: stream_horizon.as_seconds(),
        wall_ms: single_wall_ms,
        bodies_per_sec: shard_bodies as f64 / (single_wall_ms / 1e3),
        identical_to_single_stream: true,
    }];
    println!(
        "{:<22} {:>7} {:>10.1} {:>12.1} {:>10}",
        "single-stream", 1, single_wall_ms, shard_rows[0].bodies_per_sec, "-"
    );
    let ragged = [1, shard_bodies / 3, shard_bodies - 2];
    let layouts: Vec<(String, ShardPlan)> = [2usize, 4, 8]
        .iter()
        .map(|&n| {
            (
                format!("split-{n}"),
                ShardPlan::split(shard_config.clone(), n),
            )
        })
        .chain(std::iter::once((
            "ragged-boundaries".to_string(),
            ShardPlan::from_boundaries(shard_config.clone(), &ragged)
                .expect("sorted, in-range boundaries"),
        )))
        .collect();
    let mut shard_identity_ok = true;
    for (layout, plan) in layouts {
        let (wall_ms, merged) = median_ms(samples, || plan.fold(&runner));
        let merged_state = FleetCheckpoint::capture(&shard_config, &merged, shard_bodies)
            .save()
            .to_vec();
        let identical = merged_state == single_state;
        shard_identity_ok &= identical;
        let row = ShardRow {
            layout,
            shards: plan.shard_count(),
            bodies: shard_bodies,
            horizon_s: stream_horizon.as_seconds(),
            wall_ms,
            bodies_per_sec: shard_bodies as f64 / (wall_ms / 1e3),
            identical_to_single_stream: identical,
        };
        println!(
            "{:<22} {:>7} {:>10.1} {:>12.1} {:>10}",
            row.layout,
            row.shards,
            row.wall_ms,
            row.bodies_per_sec,
            if row.identical_to_single_stream {
                "yes"
            } else {
                "NO"
            }
        );
        shard_rows.push(row);
    }

    // Mid-stream interruption: checkpoint at the halfway body, serialize,
    // reload, resume — byte-identical to the uninterrupted fold.
    let half = shard_config.run_until(&runner, shard_bodies / 2).save();
    let checkpoint_resume_ok = match FleetCheckpoint::load(&half) {
        Ok(restored) => match shard_config.resume(&runner, restored) {
            Ok(resumed) => resumed == single_checkpoint.into_parts().0.finish(),
            Err(_) => false,
        },
        Err(_) => false,
    };
    println!(
        "checkpoint at body {} -> save ({} bytes) -> load -> resume: {}",
        shard_bodies / 2,
        half.len(),
        if checkpoint_resume_ok {
            "byte-identical"
        } else {
            "MISMATCH"
        }
    );

    // --- Multi-process driver: shard workers + spool checkpoint transport --
    let driver_bodies = (env_f64("HIDWA_BENCH_DRIVER_BODIES", 400.0) as usize).max(50);
    let driver_spec = DriverFleetSpec::new(driver_bodies)
        .with_population(PopulationSpec::Mixed)
        .with_base_seed(0xD21)
        .with_horizon(stream_horizon);
    let driver_config = driver_spec.to_config();
    println!("\nmulti-process driver ({driver_bodies} heterogeneous bodies, spool transport)");
    println!(
        "{:<16} {:>8} {:>10} {:>12} {:>7} {:>9} {:>10}",
        "mode", "workers", "wall ms", "bodies/s", "reused", "attempts", "identical"
    );
    let (driver_single_ms, driver_single) =
        median_ms(samples, || driver_config.run_until(&runner, driver_bodies));
    let driver_single_state = driver_single.save().to_vec();
    let driver_single_report = driver_single.aggregator().clone().finish();
    let mut driver_rows = vec![DriverRow {
        mode: "single-stream".to_string(),
        workers: 1,
        bodies: driver_bodies,
        horizon_s: stream_horizon.as_seconds(),
        wall_ms: driver_single_ms,
        bodies_per_sec: driver_bodies as f64 / (driver_single_ms / 1e3),
        reused_shards: 0,
        worker_attempts: 0,
        identical_to_single_stream: true,
    }];
    println!(
        "{:<16} {:>8} {:>10.1} {:>12.1} {:>7} {:>9} {:>10}",
        "single-stream", 1, driver_single_ms, driver_rows[0].bodies_per_sec, "-", "-", "-"
    );
    let spool_root =
        std::env::temp_dir().join(format!("hidwa-bench-driver-{}", std::process::id()));
    let in_process = InProcessExecutor::serial();
    let worker = WorkerCommand::current_exe_worker().expect("current exe");
    let processes = ProcessExecutor::new(worker);
    let mut driver_identity_ok = true;
    for (mode, workers, executor) in [
        ("in-process", 2usize, &in_process as &dyn ShardExecutor),
        ("multi-process", 2, &processes),
        ("multi-process", 4, &processes),
    ] {
        let driver = FleetDriver::new(driver_spec.clone(), workers);
        // Equal layouts share a fingerprint, so every sample publishes into
        // an empty spool of its own, made before its timing starts: each
        // sample times a full fold, not a resume.
        let spools: Vec<_> = (0..samples)
            .map(|sample| driver.spool_in(spool_root.join(format!("{mode}-{workers}-{sample}"))))
            .collect::<Result<_, _>>()
            .expect("create spool dirs");
        let mut spools = spools.iter();
        let (wall_ms, run) = median_ms(samples, || {
            let spool = spools.next().expect("one spool per sample");
            driver.run(executor, spool).expect("driver run")
        });
        // Byte-level identity: the merged blob state (limbs, buckets, low
        // bits) must equal the single stream's.
        let identical =
            run.state_bytes() == driver_single_state && run.report() == &driver_single_report;
        driver_identity_ok &= identical;
        let row = DriverRow {
            mode: mode.to_string(),
            workers,
            bodies: driver_bodies,
            horizon_s: stream_horizon.as_seconds(),
            wall_ms,
            bodies_per_sec: driver_bodies as f64 / (wall_ms / 1e3),
            reused_shards: run.reused_shards(),
            worker_attempts: run.total_attempts(),
            identical_to_single_stream: identical,
        };
        println!(
            "{:<16} {:>8} {:>10.1} {:>12.1} {:>7} {:>9} {:>10}",
            row.mode,
            row.workers,
            row.wall_ms,
            row.bodies_per_sec,
            row.reused_shards,
            row.worker_attempts,
            if row.identical_to_single_stream {
                "yes"
            } else {
                "NO"
            }
        );
        driver_rows.push(row);
    }
    std::fs::remove_dir_all(&spool_root).ok();

    let results = BenchNetsim {
        engine,
        fleet: fleet_rows,
        fleet_determinism_bodies: determinism_bodies,
        fleet_determinism_ok: deterministic,
        hetero_fleet: hetero_rows,
        hetero_memory_bounded: memory_bounded,
        hetero_determinism_bodies,
        hetero_determinism_ok: hetero_deterministic,
        width_scaling: width_rows,
        width_identity_ok,
        shard_fleet: shard_rows,
        shard_identity_ok,
        checkpoint_resume_ok,
        driver_fleet: driver_rows,
        driver_identity_ok,
    };
    json::write_bench("BENCH_netsim.json", &results);

    assert_eq!(disagreements, 0, "engines disagreed on exact statistics");
    assert!(deterministic, "fleet aggregation depends on thread width");
    assert!(
        hetero_deterministic,
        "heterogeneous fleet aggregation depends on thread width"
    );
    assert!(
        memory_bounded,
        "aggregation state grew with fleet size: {state_small} -> {state_large} buckets"
    );
    assert!(
        width_identity_ok,
        "a width-2 fold's state bytes diverged from the width-1 fold's"
    );
    assert!(
        shard_identity_ok,
        "a shard layout diverged from the single-stream fold"
    );
    assert!(
        checkpoint_resume_ok,
        "checkpoint/resume diverged from the uninterrupted fold"
    );
    assert!(
        driver_identity_ok,
        "a multi-process driver run diverged from the single-stream fold"
    );

    // Perf-trajectory guard: since the struct-of-arrays rework the tracked
    // target is >=2.4x over the exact reference (see ARCHITECTURE.md, "Hot
    // path memory layout"); the enforced floor is lower so shared-runner
    // timing noise cannot flake CI, overridable via HIDWA_BENCH_MIN_SPEEDUP.
    let floor = env_f64("HIDWA_BENCH_MIN_SPEEDUP", 2.0);
    if speedup < 2.4 {
        eprintln!("WARNING: streaming speedup {speedup:.2}x below the 2.4x trajectory target");
    }
    assert!(
        speedup >= floor,
        "streaming engine regressed: {speedup:.2}x < {floor}x floor"
    );
    std::process::ExitCode::SUCCESS
}
