//! Perf-trajectory runner for the plan-serving front-end.
//!
//! Boots in-process [`PlanServer`]s on ephemeral loopback ports, replays a
//! deterministic mixed query log (every zoo model over Wi-R, BLE and a
//! site-resolved link, all three objectives, plus Fig. 3 projections) from
//! concurrent pipelined TCP clients, and reports end-to-end round-trip
//! performance:
//!
//! * `rps` — aggregate served requests per second;
//! * `p50_us` / `p99_us` — submit-to-reply latency quantiles, recorded
//!   through the same [`LatencySketch`] the simulator uses (for pipeline
//!   depth > 1 this includes queueing behind earlier in-flight frames);
//! * `hit_rate` — plan-cache hit rate for the scenario;
//! * `mode` / `pipeline` — thread model (`reactor` / `legacy`) and client
//!   pipeline depth;
//! * `ratio_vs_legacy` — reactor rps over the matching legacy scenario's
//!   rps (0 where no legacy twin exists).
//!
//! Three row families: the four historical cache×batch scenarios in
//! **legacy** mode (comparable to earlier PRs), the same four under the
//! **reactor**, and reactor connection-scaling rows (4/16/64/256
//! connections × pipeline depth 1/8).  Writes `BENCH_serving.json` (to
//! `$HIDWA_BENCH_OUT` or the current directory) so successive PRs can
//! track the trajectory.
//!
//! Knobs: `HIDWA_BENCH_CLIENTS` (default 4) for the paired scenarios,
//! `HIDWA_BENCH_REQUESTS` frames per client (default 1500),
//! `HIDWA_BENCH_SCALE_QUERIES` total queries per scaling row (default
//! 24000), `HIDWA_BENCH_MIN_RPS` floor (default 1000).

use hidwa_bench::json;
use hidwa_core::partition::Objective;
use hidwa_core::serve::codec::{
    ModelId, PlanRequest, ProjectionRequest, Request, WireContext, WireLink,
};
use hidwa_core::serve::{PlanClient, PlanServer, PlanService, ServeConfig, ThreadModel};
use hidwa_eqs::body::BodySite;
use hidwa_netsim::sketch::LatencySketch;
use hidwa_phy::RadioTechnology;
use hidwa_units::TimeSpan;
use std::collections::VecDeque;
use std::time::Instant;

struct ScenarioResult {
    scenario: String,
    mode: String,
    clients: usize,
    batch: usize,
    pipeline: usize,
    requests: u64,
    elapsed_s: f64,
    rps: f64,
    p50_us: f64,
    p99_us: f64,
    hit_rate: f64,
    ratio_vs_legacy: f64,
}

hidwa_bench::json_struct!(ScenarioResult {
    scenario,
    mode,
    clients,
    batch,
    pipeline,
    requests,
    elapsed_s,
    rps,
    p50_us,
    p99_us,
    hit_rate,
    ratio_vs_legacy,
});

/// The replayed log: 5 models × 3 links × 3 objectives plus projections —
/// 50 distinct queries, so the cached scenarios converge to a high hit rate
/// while still exercising every evaluation path (including infeasible
/// video-over-BLE answers).
fn query_log() -> Vec<Request> {
    let links = [
        WireLink::WiR,
        WireLink::Ble,
        WireLink::Site(RadioTechnology::WiR, BodySite::Wrist),
    ];
    let objectives = [
        Objective::LeafEnergy,
        Objective::Latency,
        Objective::EnergyDelayProduct,
    ];
    let mut log = Vec::new();
    for model in ModelId::ALL {
        for (j, link) in links.into_iter().enumerate() {
            log.push(Request::Plan(PlanRequest {
                model,
                context: WireContext::of(link),
                objective: objectives[j],
            }));
        }
        log.push(Request::Projection(ProjectionRequest {
            rate_bps: 1000.0 * (model.index() + 1) as f64,
        }));
    }
    log
}

/// One pipelined connection's load-generation state.
struct Lane {
    client: PlanClient,
    window: VecDeque<(u64, Instant)>,
    cursor: usize,
}

/// Pops the lane's oldest in-flight frame and records its latency.
fn drain_one(lane: &mut Lane, sketch: &mut LatencySketch, served: &mut u64) {
    let (tag, sent) = lane.window.pop_front().expect("non-empty window");
    let answers = lane.client.take(tag).expect("served answers");
    sketch.record(TimeSpan::from_seconds(sent.elapsed().as_secs_f64()));
    *served += answers.len() as u64;
}

/// One scenario: `clients` concurrent connections, driven from a small
/// fixed pool of generator threads (a load generator needs many sockets,
/// not many OS threads), each pumping `frames` frames of `batch` queries
/// through a window of `pipeline` in-flight tags against a fresh server in
/// `mode`; returns the merged submit-to-reply sketch and the server's
/// final stats.
fn run_scenario(
    mode: ThreadModel,
    cache: bool,
    clients: usize,
    frames: usize,
    batch: usize,
    pipeline: usize,
) -> (LatencySketch, hidwa_core::serve::ServeStats, f64, u64) {
    let config = ServeConfig {
        threads: mode,
        ..ServeConfig::default()
    };
    let server = PlanServer::bind_with("127.0.0.1:0", PlanService::new().with_cache(cache), config)
        .expect("bind loopback");
    let addr = server.addr();
    let log = query_log();
    let generators = clients.min(hidwa_bench::env_usize("HIDWA_BENCH_GEN_THREADS", 8));

    // Connection setup happens before the clock starts (a connect storm
    // against a fresh listener can hit SYN retransmits; that is bring-up
    // cost, not serving throughput): every generator connects its lanes,
    // then all of them cross the barrier together with the timer.
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(generators + 1));
    let workers: Vec<_> = (0..generators)
        .map(|generator| {
            let log = log.clone();
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                // This generator owns every `generators`-th connection.
                let mut lanes: Vec<Lane> = (generator..clients)
                    .step_by(generators)
                    .map(|lane| Lane {
                        client: PlanClient::connect(addr)
                            .expect("connect")
                            .with_pipeline(pipeline),
                        window: VecDeque::new(),
                        cursor: lane, // stagger starting offsets
                    })
                    .collect();
                barrier.wait();
                let mut sketch = LatencySketch::new();
                let mut served = 0u64;
                // Burst-fill every lane's pipeline, then drain them all:
                // submissions leave as one coalesced write per connection
                // and the buffered reader picks each lane's replies up in
                // (typically) one read, so syscall and wakeup costs are
                // amortised across the whole window.
                let mut remaining = frames;
                while remaining > 0 {
                    let burst = pipeline.min(remaining);
                    for lane in &mut lanes {
                        for _ in 0..burst {
                            let frame: Vec<Request> = (0..batch)
                                .map(|i| log[(lane.cursor + i) % log.len()])
                                .collect();
                            lane.cursor = (lane.cursor + batch) % log.len();
                            let sent = Instant::now();
                            let tag = lane.client.submit(&frame).expect("submit");
                            lane.window.push_back((tag, sent));
                        }
                        lane.client.flush().expect("flush");
                    }
                    for lane in &mut lanes {
                        while !lane.window.is_empty() {
                            drain_one(lane, &mut sketch, &mut served);
                        }
                    }
                    remaining -= burst;
                }
                (sketch, served)
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();

    let mut sketch = LatencySketch::new();
    let mut served = 0u64;
    for worker in workers {
        let (worker_sketch, worker_served) = worker.join().expect("client thread");
        sketch.merge(&worker_sketch);
        served += worker_served;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = server.service().stats();
    (sketch, stats, elapsed, served)
}

fn mode_label(mode: ThreadModel) -> &'static str {
    match mode {
        ThreadModel::Reactor { .. } => "reactor",
        ThreadModel::Legacy => "legacy",
    }
}

/// Runs a scenario `HIDWA_BENCH_PASSES` times (default 3) and reports the
/// best pass by rps: on a shared host, throughput is a property of the
/// code, noise is a property of the neighbours, and max-of-N strips most
/// of the latter out of the tracked trajectory.
#[allow(clippy::too_many_arguments)]
fn measure(
    name: &str,
    mode: ThreadModel,
    cache: bool,
    clients: usize,
    frames: usize,
    batch: usize,
    pipeline: usize,
) -> ScenarioResult {
    let passes = hidwa_bench::env_usize("HIDWA_BENCH_PASSES", 3).max(1);
    let mut best = None;
    for _ in 0..passes {
        let pass = run_scenario(mode, cache, clients, frames, batch, pipeline);
        assert_eq!(
            pass.3, pass.1.requests,
            "served answers must match counters"
        );
        best = match best {
            None => Some(pass),
            Some(incumbent) => {
                let pass_rps = pass.3 as f64 / pass.2;
                let incumbent_rps = incumbent.3 as f64 / incumbent.2;
                Some(if pass_rps > incumbent_rps {
                    pass
                } else {
                    incumbent
                })
            }
        };
    }
    let (sketch, stats, elapsed_s, served) = best.expect("at least one pass");
    let rps = served as f64 / elapsed_s;
    let p50_us = sketch.quantile(0.5).as_seconds() * 1e6;
    let p99_us = sketch.quantile(0.99).as_seconds() * 1e6;
    let hit_rate = stats.hit_rate();
    println!(
        "{name:<16} {:<8} {clients:>7} {batch:>5} {pipeline:>4} {served:>9} {rps:>10.0} {p50_us:>7.0} µs {p99_us:>7.0} µs {:>8.1}%",
        mode_label(mode),
        hit_rate * 100.0
    );
    ScenarioResult {
        scenario: name.to_string(),
        mode: mode_label(mode).to_string(),
        clients,
        batch,
        pipeline,
        requests: served,
        elapsed_s,
        rps,
        p50_us,
        p99_us,
        hit_rate,
        ratio_vs_legacy: 0.0,
    }
}

fn main() {
    let clients = hidwa_bench::env_usize("HIDWA_BENCH_CLIENTS", 4);
    let rounds = hidwa_bench::env_usize("HIDWA_BENCH_REQUESTS", 1500);
    let scale_queries = hidwa_bench::env_usize("HIDWA_BENCH_SCALE_QUERIES", 24_000);

    hidwa_bench::header(
        "bench_serving",
        "end-to-end plan-server round trips: rps, latency quantiles, cache hit rate",
    );

    let paired: [(&str, bool, usize); 4] = [
        ("single_cached", true, 1),
        ("single_uncached", false, 1),
        ("batch16_cached", true, 16),
        ("batch16_uncached", false, 16),
    ];

    println!(
        "{:<16} {:<8} {:>7} {:>5} {:>4} {:>9} {:>10} {:>10} {:>10} {:>9}",
        "scenario", "mode", "clients", "batch", "pipe", "requests", "rps", "p50", "p99", "hit rate"
    );
    let mut results = Vec::new();

    // Row family 1+2: the historical cache×batch grid, legacy and reactor
    // side by side.  Batched scenarios answer `batch` queries per frame:
    // scale the frame count down so every scenario serves comparable totals.
    for mode in [ThreadModel::Legacy, ThreadModel::default_for_platform()] {
        for (name, cache, batch) in paired {
            let frames = (rounds / batch).max(1);
            results.push(measure(name, mode, cache, clients, frames, batch, 1));
        }
    }

    // Row family 3: reactor connection scaling, single cached queries.
    let reactor = ThreadModel::default_for_platform();
    if matches!(reactor, ThreadModel::Reactor { .. }) {
        for conns in [4usize, 16, 64, 256] {
            for depth in [1usize, 8] {
                let frames = (scale_queries / conns).max(1);
                let name = format!("scale_{conns}x{depth}");
                results.push(measure(&name, reactor, true, conns, frames, 1, depth));
            }
        }
    }

    // The reactor-vs-legacy trajectory: same scenario, rps ratio.
    for index in 0..results.len() {
        if results[index].mode == "legacy" {
            continue;
        }
        let twin = results
            .iter()
            .position(|row| row.mode == "legacy" && row.scenario == results[index].scenario);
        if let Some(twin) = twin {
            results[index].ratio_vs_legacy = results[index].rps / results[twin].rps;
        }
    }
    for row in &results {
        if row.ratio_vs_legacy > 0.0 {
            println!(
                "reactor vs legacy ({}): {:.2}×",
                row.scenario, row.ratio_vs_legacy
            );
        }
    }

    json::write_bench("BENCH_serving.json", &results);

    // Sanity floor rather than a flaky perf wall: a warm cached server on
    // loopback must comfortably clear 1k requests/sec in either mode.
    let floor = hidwa_bench::env_f64("HIDWA_BENCH_MIN_RPS", 1000.0);
    for row in &results {
        if row.scenario == "single_cached" {
            assert!(
                row.rps >= floor,
                "{} cached single-query serving fell below {floor} rps: {:.0}",
                row.mode,
                row.rps
            );
        }
    }
}
