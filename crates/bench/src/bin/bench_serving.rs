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
//! * `pipeline` — client pipeline depth.
//!
//! Every server runs the default [`ServeConfig`](hidwa_core::serve::ServeConfig)
//! (one epoll event loop per core, capped at 4).  Two row families: the four
//! cache×batch scenarios, and connection-scaling rows (4/16/64/256
//! connections × pipeline depth 1/8).  Writes `BENCH_serving.json` (to
//! `$HIDWA_BENCH_OUT` or the current directory) so successive changes can
//! track the trajectory.
//!
//! Sizes: `CLIENTS` (4 connections in the cache×batch scenarios),
//! `REQUESTS` (1500 queries per client in those scenarios), `SCALE_QUERIES`
//! (24000 queries per scaling row), `GEN_THREADS` (at most 8 load-generator
//! threads), `PASSES` (each row is the best of 3 passes) and `MIN_RPS` (the
//! 1000 rps floor of the `single_cached` row).

use hidwa_bench::json;
use hidwa_bench::sampler::self_timed;
use hidwa_core::partition::Objective;
use hidwa_core::serve::codec::{
    ModelId, PlanRequest, ProjectionRequest, Request, WireContext, WireLink,
};
use hidwa_core::serve::{PlanClient, PlanServer, PlanService, ServeStats};
use hidwa_eqs::body::BodySite;
use hidwa_netsim::sketch::LatencySketch;
use hidwa_phy::RadioTechnology;
use hidwa_units::TimeSpan;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

const CLIENTS: usize = 4;
const REQUESTS: usize = 1500;
const SCALE_QUERIES: usize = 24_000;
const GEN_THREADS: usize = 8;
const PASSES: usize = 3;
const MIN_RPS: f64 = 1000.0;

struct ScenarioResult {
    scenario: String,
    clients: usize,
    batch: usize,
    pipeline: usize,
    requests: u64,
    elapsed_s: f64,
    rps: f64,
    p50_us: f64,
    p99_us: f64,
    hit_rate: f64,
}

hidwa_bench::json_struct!(ScenarioResult {
    scenario,
    clients,
    batch,
    pipeline,
    requests,
    elapsed_s,
    rps,
    p50_us,
    p99_us,
    hit_rate,
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
/// through a window of `pipeline` in-flight tags against a fresh server;
/// returns the wall time from the start barrier to the last reply, the
/// merged submit-to-reply sketch, the server's final stats and the answers.
fn run_scenario(
    cache: bool,
    clients: usize,
    frames: usize,
    batch: usize,
    pipeline: usize,
) -> (Duration, (LatencySketch, ServeStats, u64)) {
    let server = PlanServer::bind(PlanService::new().with_cache(cache)).expect("bind loopback");
    let addr = server.addr();
    let log = query_log();
    let generators = clients.min(GEN_THREADS);

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
    let elapsed = start.elapsed();
    let stats = server.service().stats();
    (elapsed, (sketch, stats, served))
}

/// Runs a scenario `PASSES` times and reports the best pass by rps: on a
/// shared host, throughput is a property of the code, noise is a property
/// of the neighbours, and max-of-N strips most of the latter out of the
/// tracked trajectory.  Every pass serves the same number of answers, so
/// the fastest pass is the one with the best rps.
fn measure(
    name: &str,
    cache: bool,
    clients: usize,
    frames: usize,
    batch: usize,
    pipeline: usize,
) -> ScenarioResult {
    let passes = self_timed(PASSES, || {
        let pass = run_scenario(cache, clients, frames, batch, pipeline);
        let (_, (_, stats, served)) = &pass;
        assert_eq!(
            *served, stats.requests,
            "served answers must match counters"
        );
        pass
    });
    let (elapsed, (sketch, stats, served)) = passes.best();
    let (elapsed_s, served) = (elapsed.as_secs_f64(), *served);
    let rps = served as f64 / elapsed_s;
    let p50_us = sketch.quantile(0.5).as_seconds() * 1e6;
    let p99_us = sketch.quantile(0.99).as_seconds() * 1e6;
    let hit_rate = stats.hit_rate();
    println!(
        "{name:<16} {clients:>7} {batch:>5} {pipeline:>4} {served:>9} {rps:>10.0} {p50_us:>7.0} µs {p99_us:>7.0} µs {:>8.1}%",
        hit_rate * 100.0
    );
    ScenarioResult {
        scenario: name.to_string(),
        clients,
        batch,
        pipeline,
        requests: served,
        elapsed_s,
        rps,
        p50_us,
        p99_us,
        hit_rate,
    }
}

fn main() {
    hidwa_bench::header(
        "bench_serving",
        "end-to-end plan-server round trips: rps, latency quantiles, cache hit rate",
    );

    let grid: [(&str, bool, usize); 4] = [
        ("single_cached", true, 1),
        ("single_uncached", false, 1),
        ("batch16_cached", true, 16),
        ("batch16_uncached", false, 16),
    ];

    println!(
        "{:<16} {:>7} {:>5} {:>4} {:>9} {:>10} {:>10} {:>10} {:>9}",
        "scenario", "clients", "batch", "pipe", "requests", "rps", "p50", "p99", "hit rate"
    );
    let mut results = Vec::new();

    // Row family 1: the cache×batch grid.  Batched scenarios answer `batch`
    // queries per frame: scale the frame count down so every scenario
    // serves comparable totals.
    for (name, cache, batch) in grid {
        results.push(measure(name, cache, CLIENTS, REQUESTS / batch, batch, 1));
    }

    // Row family 2: connection scaling, single cached queries.
    for conns in [4usize, 16, 64, 256] {
        for depth in [1usize, 8] {
            let name = format!("scale_{conns}x{depth}");
            results.push(measure(&name, true, conns, SCALE_QUERIES / conns, 1, depth));
        }
    }

    json::write_bench("BENCH_serving.json", &results);

    // Sanity floor rather than a flaky perf wall: a warm cached server on
    // loopback must comfortably clear 1k requests/sec.
    for row in &results {
        if row.scenario == "single_cached" {
            assert!(
                row.rps >= MIN_RPS,
                "cached single-query serving fell below {MIN_RPS} rps: {:.0}",
                row.rps
            );
        }
    }
}
