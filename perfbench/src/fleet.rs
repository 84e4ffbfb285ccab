//! `fleet_stream`: one operation folds a fleet of mixed-population bodies
//! with `FleetConfig::run` at width `nproc`, one operation in flight.
//!
//! A run cycles through [`FLEETS`] fleets whose base seeds derive from the
//! workload seed, so one seed's archetype mix does not set the figures, and
//! stops only after whole cycles, so per-operation counts repeat exactly.

use crate::body;
use crate::hist::Histogram;
use crate::trace::{Layer, SpanList, Totals, NO_PARENT};
use crate::{
    metric, mix, per_layer, percentiles, phases, timed_setups, Counts, Outcome, Params, Scale,
};
use hidwa_core::fleet::{FleetAggregator, FleetCheckpoint, FleetConfig, FleetReport};
use hidwa_core::population::{LinkCache, PopulationModel};
use hidwa_core::sweep::SweepRunner;
use hidwa_units::TimeSpan;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Fleets one cycle folds, each once.
const FLEETS: usize = 16;

struct Fleet {
    config: FleetConfig,
    /// The width-1 reference fold's report and checkpoint bytes.
    report: FleetReport,
    checkpoint: Vec<u8>,
}

fn fleets(params: &Params) -> Vec<Fleet> {
    let (count, bodies) = match params.scale {
        Scale::Full => (FLEETS, 1000),
        Scale::Small => (2, 64),
    };
    let serial = SweepRunner::serial();
    (0..count as u64)
        .map(|k| {
            let config = FleetConfig::new(bodies)
                .with_population(PopulationModel::mixed_default())
                .with_base_seed(mix(mix(params.seed) ^ k))
                .with_horizon(TimeSpan::from_seconds(2.0));
            let checkpoint = config.run_until(&serial, config.bodies());
            let bytes = checkpoint.save().to_vec();
            let report = checkpoint.into_parts().0.finish();
            Fleet {
                config,
                report,
                checkpoint: bytes,
            }
        })
        .collect()
}

/// Folds fleets in whole cycles until `budget` has passed, recording each
/// fold's wall time.  Returns (ops, failed, busy time).
fn untraced(
    fleets: &[Fleet],
    runner: &SweepRunner,
    budget: Duration,
    hist: &mut Histogram,
) -> (u64, u64, Duration) {
    let start = Instant::now();
    let (mut ops, mut failed, mut busy) = (0, 0, Duration::ZERO);
    loop {
        for fleet in fleets {
            let began = Instant::now();
            let report = fleet.config.run(runner);
            let elapsed = began.elapsed();
            hist.record(elapsed);
            busy += elapsed;
            ops += 1;
            if report != fleet.report {
                failed += 1;
            }
        }
        if start.elapsed() >= budget {
            return (ops, failed, busy);
        }
    }
}

/// The traced copy of `FleetConfig::run`: the same link table, body-order
/// chunks of the same size over `runner`, and the same ingestion order.
fn traced_fold(
    config: &FleetConfig,
    runner: &SweepRunner,
    spans: &mut SpanList,
) -> FleetAggregator {
    let root = spans.open(Layer::Op, NO_PARENT);
    let span = spans.open(Layer::PopLinks, root);
    let links = LinkCache::for_population(config.population());
    spans.close(span);
    let mut aggregator = FleetAggregator::new(config.horizon(), config.top_k());
    let chunk_size = (runner.threads() * 4).max(64);
    let mut chunk: Vec<usize> = Vec::with_capacity(chunk_size);
    let mut start = 0;
    while start < config.bodies() {
        let end = (start + chunk_size).min(config.bodies());
        chunk.clear();
        chunk.extend(start..end);
        let map = spans.open(Layer::SweepMap, root);
        let results = runner.map(&chunk, |&body_index| {
            let mut list = SpanList::here(body::SPANS_PER_BODY + 1);
            let item = list.open(Layer::SweepItem, NO_PARENT);
            let summary = body::simulate(config, &links, body_index, &mut list, item);
            list.close(item);
            (summary, list.spans)
        });
        spans.close(map);
        for (_, body_spans) in &results {
            spans.graft(body_spans, map);
        }
        let span = spans.open(Layer::FleetIngest, root);
        for (summary, _) in results {
            aggregator.ingest(summary);
        }
        spans.close(span);
        start = end;
    }
    spans.close(root);
    aggregator
}

pub fn run(params: &Params) -> Outcome {
    let mut outcome = Outcome::default();
    let runner = SweepRunner::with_threads(params.nproc);
    // Set-up takes ~150 ms, so seven of them keep its median steady.
    let (fleets, setup_s) = timed_setups(7, || {
        let fleets = fleets(params);
        for fleet in &fleets {
            black_box(fleet.config.run(&runner));
        }
        fleets
    });
    let bodies = fleets[0].config.bodies() as f64;
    let (untraced_budget, traced_budget) = phases(params);

    let mut hist = Histogram::new();
    let (ops, failed, busy) = untraced(&fleets, &runner, untraced_budget, &mut hist);
    outcome.attempted += ops;
    outcome.failed += failed;
    let throughput = ops as f64 * bodies / busy.as_secs_f64();

    if !params.trace {
        outcome.metrics.push(setup_s);
        let mut m = metric("throughput", throughput, "1/s");
        m.note = format!("bodies folded per second over {ops} folds");
        outcome.metrics.push(m);
        // The fold's p99 moves by about a fifth from run to run (thread
        // spawn hiccups at width nproc); the p90 stands in.
        outcome.metrics.extend(percentiles(&hist, 0.9));
        return outcome;
    }

    let mut totals = Totals::default();
    let mut counts = Counts::default();
    let mut spans = SpanList::here(fleets[0].config.bodies() * (body::SPANS_PER_BODY + 1) + 64);
    let start = Instant::now();
    let mut traced_ops = 0u64;
    loop {
        for fleet in &fleets {
            spans.clear();
            let aggregator = traced_fold(&fleet.config, &runner, &mut spans);
            totals.fold_op(traced_ops, &spans.spans, params.nproc);
            traced_ops += 1;
            counts.state_buckets += aggregator.state_buckets() as u64;
            let bytes =
                FleetCheckpoint::capture(&fleet.config, &aggregator, fleet.config.bodies()).save();
            let report = aggregator.finish();
            counts.events += report.events_processed();
            if bytes[..] != fleet.checkpoint[..] || report != fleet.report {
                outcome.failed += 1;
                outcome.problem("traced fold's checkpoint differs from FleetConfig::run_until's");
            }
        }
        if start.elapsed() >= traced_budget {
            break;
        }
    }
    outcome.attempted += traced_ops;
    crate::check_accounting(&mut outcome, &totals);
    let traced_throughput = traced_ops as f64 * bodies / (totals.wall_ns as f64 / 1e9);
    outcome.metrics = per_layer(
        &totals,
        &counts,
        params.nproc,
        traced_throughput,
        throughput,
    );
    let path = params
        .out_dir
        .join(format!("trace-fleet_stream-{}.jsonl", params.seed));
    if let Err(error) = totals.write(&path) {
        outcome.problem(format!("cannot write {}: {error}", path.display()));
    }
    outcome
}
