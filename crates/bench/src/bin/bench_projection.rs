//! Perf-trajectory runner for the Fig. 3 projection path (the ROADMAP
//! "add an equivalent runner for `projection_sweep`" item).
//!
//! Writes `BENCH_projection.json` (to `$HIDWA_BENCH_OUT` or the current
//! directory) so successive PRs can track the trajectory alongside
//! `BENCH_partition.json` and `BENCH_netsim.json`.  Four stages are timed
//! (median ns per call over repeated samples, one stage after another):
//!
//! * `single_rate` — one [`Fig3Projector::project_rate`] call (the unit of
//!   every sweep);
//! * `full_sweep` — the Fig. 3 x-axis: 10 bps → 10 Mbps at 10 points per
//!   decade (also reported as points/sec);
//! * `perpetual_edge` — the bisection for the perpetual-region boundary;
//! * `device_catalog` — Fig. 2 battery-life derivation across the catalogue.
//!
//! The binary is also a correctness gate: it exits non-zero if the sweep is
//! not monotone (battery life must fall as rate rises), if any paper device
//! marker misses its claimed operating band, or if the perpetual edge leaves
//! the (tracker, audio) rate interval the paper draws it in.
//!
//! Sizes: `SAMPLES` (15 timing samples per stage, median taken), `ITERS`
//! (200 calls per sample for the cheap stages, a twentieth as many for the
//! sweep and the edge), each stage after up to 16 untimed warm-up calls.

use hidwa_bench::json;
use hidwa_bench::sampler::median_ns_per_call;
use hidwa_core::devices;
use hidwa_core::projection::Fig3Projector;
use hidwa_units::DataRate;

const SAMPLES: usize = 15;
const ITERS: usize = 200;

struct StageResult {
    stage: &'static str,
    iterations: usize,
    median_ns: f64,
    per_sec: f64,
}

hidwa_bench::json_struct!(StageResult {
    stage,
    iterations,
    median_ns,
    per_sec,
});

struct BenchProjection {
    stages: Vec<StageResult>,
    sweep_points: usize,
    sweep_points_per_sec: f64,
    monotone_ok: bool,
    markers_ok: bool,
    edge_ok: bool,
}

hidwa_bench::json_struct!(BenchProjection {
    stages,
    sweep_points,
    sweep_points_per_sec,
    monotone_ok,
    markers_ok,
    edge_ok,
});

/// Median ns per call of `f` over `iters` calls per sample.
fn median_ns(iters: usize, f: impl FnMut()) -> f64 {
    median_ns_per_call(SAMPLES, iters, iters.min(16), f)
}

fn main() {
    hidwa_bench::header(
        "bench_projection",
        "Fig. 3 projection path: single-rate, full sweep, perpetual edge, device catalogue",
    );

    let projector = Fig3Projector::paper_defaults();

    // --- Correctness gates --------------------------------------------------
    let sweep = projector.sweep(DataRate::from_bps(10.0), DataRate::from_mbps(10.0), 10);
    let monotone_ok = sweep
        .windows(2)
        .all(|w| w[0].battery_life >= w[1].battery_life && w[0].rate <= w[1].rate);
    let markers_ok = Fig3Projector::device_markers()
        .iter()
        .all(|marker| projector.project_rate(marker.rate).band >= marker.paper_band);
    let edge = projector.perpetual_region_edge();
    let edge_ok = edge.as_kbps() > 13.0 && edge.as_kbps() < 256.0;

    // --- Timing -------------------------------------------------------------
    let single_rate_ns = median_ns(ITERS, || {
        std::hint::black_box(
            projector.project_rate(std::hint::black_box(DataRate::from_kbps(256.0))),
        );
    });
    let sweep_iters = ITERS.div_ceil(20);
    // The inputs are boxed too: with constant ones the reading followed the
    // harness's inlining rather than the sweep.
    let full_sweep_ns = median_ns(sweep_iters, || {
        std::hint::black_box(projector.sweep(
            std::hint::black_box(DataRate::from_bps(10.0)),
            std::hint::black_box(DataRate::from_mbps(10.0)),
            std::hint::black_box(10),
        ));
    });
    let edge_iters = ITERS.div_ceil(20);
    let perpetual_edge_ns = median_ns(edge_iters, || {
        std::hint::black_box(projector.perpetual_region_edge());
    });
    let catalog_ns = median_ns(ITERS, || {
        for profile in devices::catalog() {
            std::hint::black_box(profile.derived_battery_life());
        }
    });

    let stage = |stage: &'static str, iterations: usize, median_ns: f64| StageResult {
        stage,
        iterations,
        median_ns,
        per_sec: 1e9 / median_ns,
    };
    let stages = vec![
        stage("single_rate", ITERS, single_rate_ns),
        stage("full_sweep", sweep_iters, full_sweep_ns),
        stage("perpetual_edge", edge_iters, perpetual_edge_ns),
        stage("device_catalog", ITERS, catalog_ns),
    ];

    println!("{:<16} {:>12} {:>14}", "stage", "median", "calls/s");
    for row in &stages {
        println!(
            "{:<16} {:>9.0} ns {:>14.0}",
            row.stage, row.median_ns, row.per_sec
        );
    }
    let sweep_points_per_sec = sweep.len() as f64 * 1e9 / full_sweep_ns;
    println!(
        "\nfull sweep: {} points, {:.0} points/s",
        sweep.len(),
        sweep_points_per_sec
    );
    println!(
        "gates: monotone {monotone_ok}, markers {markers_ok}, perpetual edge {:.0} kbps in (13, 256) {edge_ok}",
        edge.as_kbps()
    );

    let results = BenchProjection {
        stages,
        sweep_points: sweep.len(),
        sweep_points_per_sec,
        monotone_ok,
        markers_ok,
        edge_ok,
    };
    json::write_bench("BENCH_projection.json", &results);

    assert!(monotone_ok, "projection sweep is not monotone in rate");
    assert!(markers_ok, "a paper device marker missed its claimed band");
    assert!(
        edge_ok,
        "perpetual edge at {edge} is outside the paper interval"
    );
}
