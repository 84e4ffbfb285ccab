//! `search_grid`: one operation is one exhaustive `SearchDriver::run` over
//! the 32-point paper grid, on a fresh spool root, one operation in flight.
//! Each evaluation splits into `nproc` shards folded by
//! `InProcessExecutor::serial()`; waves run on `SweepRunner::serial()`.
//!
//! A run cycles through [`SPECS`] base fleets whose seeds derive from the
//! workload seed, and stops only after whole cycles.

use crate::body;
use crate::hist::Histogram;
use crate::trace::{Layer, Span, SpanList, Totals, NO_PARENT};
use crate::{
    metric, mix, per_layer, percentiles, phases, timed_setups, Counts, Outcome, Params, Scale,
};
use hidwa_core::fleet::driver::{
    DriverFleetSpec, InProcessExecutor, PopulationSpec, ShardAssignment, ShardExecutor, Transport,
};
use hidwa_core::fleet::{ChurnSpec, DriverError, FleetAggregator, FleetCheckpoint, PolicyKind};
use hidwa_core::population::{ChurnModel, LinkCache};
use hidwa_core::search::{
    pareto_frontier, EvaluationOutcome, ObjectiveSpace, SearchCheckpoint, SearchDriver, SearchSpec,
    SearchStrategy,
};
use hidwa_core::sweep::SweepRunner;
use hidwa_units::TimeSpan;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Base fleets one cycle searches from, each once.
const SPECS: usize = 4;

struct Search {
    spec: SearchSpec,
    driver: SearchDriver,
    /// The reference search's `search.ckpt` bytes and frontier.
    index: Vec<u8>,
    frontier: Vec<EvaluationOutcome>,
}

/// A directory that is removed with everything in it when dropped.
struct Spool(PathBuf);

impl Drop for Spool {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The `fleet_search` bench's mixed spec with churn, from base seed `seed`,
/// at ten times its 48 bodies: at 48 (and still at 144), fsync latency on a
/// shared, burst-limited disk set the pace of a search and moved its run
/// medians by a fifth to two fifths.
fn spec(params: &Params, seed: u64) -> SearchSpec {
    let (bodies, horizon) = match params.scale {
        Scale::Full => (480, 0.5),
        Scale::Small => (8, 0.2),
    };
    let churn = ChurnSpec::new(
        ChurnModel::with_rate(0.3).with_link_fade(0.8),
        PolicyKind::StaticAtAdmission,
    )
    .with_hysteresis_threshold(0.1);
    let base = DriverFleetSpec::new(bodies)
        .with_base_seed(seed)
        .with_horizon(TimeSpan::from_seconds(horizon))
        .with_population(PopulationSpec::Mixed)
        .with_churn(churn);
    SearchSpec::new(base, ObjectiveSpace::paper_default()).with_shards(params.nproc)
}

/// Removes a finished operation's root and commits the removal to disk, so
/// the next operation's first fsync does not pay for this one's clean-up.
fn clear(root: &Path) {
    let _ = std::fs::remove_dir_all(root);
    if let Some(parent) = root.parent() {
        let _ = std::fs::File::open(parent).and_then(|dir| dir.sync_all());
    }
}

/// One `SearchDriver::run` on a fresh root; the root is removed afterwards.
/// Returns the wall time and whether the output matched the reference.
fn search_once(search: &Search, root: &Path) -> (Duration, Result<(), String>) {
    let began = Instant::now();
    let result = search
        .driver
        .run(&SweepRunner::serial(), &InProcessExecutor::serial(), root);
    let elapsed = began.elapsed();
    let checked = match result {
        Err(error) => Err(format!("search failed: {error}")),
        Ok(run) if run.folds() != 32 || run.cache_hits() != 0 => Err(format!(
            "search folded {} points with {} index hits",
            run.folds(),
            run.cache_hits()
        )),
        Ok(run) if run.frontier() != search.frontier => Err("frontier differs".into()),
        Ok(_) => match std::fs::read(SearchDriver::checkpoint_path(root)) {
            Ok(bytes) if bytes == search.index => Ok(()),
            Ok(_) => Err("search.ckpt differs".into()),
            Err(error) => Err(format!("search.ckpt unreadable: {error}")),
        },
    };
    clear(root);
    (elapsed, checked)
}

fn setup(params: &Params, spool: &Path) -> Result<(Spool, Vec<Search>), String> {
    std::fs::create_dir_all(spool)
        .map_err(|e| format!("cannot create {}: {e}", spool.display()))?;
    let spool = Spool(spool.to_path_buf());
    let count = match params.scale {
        Scale::Full => SPECS,
        Scale::Small => 2,
    };
    let mut searches = Vec::with_capacity(count);
    for k in 0..count as u64 {
        let spec = spec(params, mix(mix(params.seed) ^ k));
        let driver = SearchDriver::new(spec.clone(), SearchStrategy::ExhaustiveGrid);
        let root = spool.0.join(format!("reference-{k}"));
        let run = driver
            .run(&SweepRunner::serial(), &InProcessExecutor::serial(), &root)
            .map_err(|e| format!("reference search failed: {e}"))?;
        let index = std::fs::read(SearchDriver::checkpoint_path(&root))
            .map_err(|e| format!("reference search.ckpt unreadable: {e}"))?;
        clear(&root);
        searches.push(Search {
            spec,
            driver,
            index,
            frontier: run.frontier().to_vec(),
        });
    }
    // Warm-up: one more search from the first spec, checked like any other.
    let (_, checked) = search_once(&searches[0], &spool.0.join("warm-up"));
    checked?;
    Ok((spool, searches))
}

/// What one shard execution left behind for the traced search.
struct ShardRecord {
    spans: Vec<Span>,
    spec: DriverFleetSpec,
    blob: Vec<u8>,
    events: u64,
    replans: u64,
    migrations: u64,
    failed: bool,
}

/// A `ShardExecutor` that folds its shard with the traced per-body code,
/// then captures, saves and publishes the partial, as the in-process
/// executor does.
#[derive(Default)]
struct TimedExecutor {
    records: Mutex<Vec<ShardRecord>>,
}

impl ShardExecutor for TimedExecutor {
    fn execute(
        &self,
        spec: &DriverFleetSpec,
        shard: &ShardAssignment,
        _attempt: usize,
        transport: &dyn Transport,
    ) -> Result<(), DriverError> {
        let range = shard.range();
        let mut spans = SpanList::here(range.len() * (body::SPANS_PER_BODY + 1) + 8);
        let root = spans.open(Layer::DriverExecute, NO_PARENT);
        let config = spec.to_config();
        let span = spans.open(Layer::PopLinks, root);
        let links = LinkCache::for_population(config.population());
        spans.close(span);
        let summaries: Vec<_> = range
            .map(|body_index| body::simulate(&config, &links, body_index, &mut spans, root))
            .collect();
        let (mut events, mut replans, mut migrations) = (0, 0, 0);
        let span = spans.open(Layer::FleetIngest, root);
        let mut partial = FleetAggregator::new(config.horizon(), config.top_k());
        for summary in summaries {
            events += summary.events_processed;
            replans += summary.replans;
            migrations += summary.migrations;
            partial.ingest(summary);
        }
        spans.close(span);
        let span = spans.open(Layer::CkptEncode, root);
        let blob = FleetCheckpoint::capture(&config, &partial, shard.end).save();
        spans.close(span);
        let span = spans.open(Layer::DriverPublish, root);
        let published = transport.publish(shard.index, &blob);
        spans.close(span);
        spans.close(root);
        self.records
            .lock()
            .expect("no executor thread panicked")
            .push(ShardRecord {
                spans: spans.spans,
                spec: spec.clone(),
                blob: blob.to_vec(),
                events,
                replans,
                migrations,
                failed: published.is_err(),
            });
        published.map_err(DriverError::from)
    }
}

/// The traced copy of an exhaustive `SearchDriver::run` at wave width 1:
/// evaluate each point through the driver, record it in the index, and
/// reseal the index to disk.  Returns the final index bytes and frontier.
fn traced_search(
    search: &Search,
    root: &Path,
    executor: &TimedExecutor,
    spans: &mut SpanList,
    shard_blobs: &mut Vec<(DriverFleetSpec, Vec<u8>)>,
    counts: &mut Counts,
) -> Result<(Vec<u8>, Vec<EvaluationOutcome>), String> {
    let op = spans.open(Layer::Op, NO_PARENT);
    std::fs::create_dir_all(root).map_err(|e| format!("cannot create spool root: {e}"))?;
    let mut index = SearchCheckpoint::new(&search.spec);
    let path = SearchDriver::checkpoint_path(root);
    for point in 0..search.spec.space().len() {
        if index.get(point).is_some() {
            counts.index_hits += 1;
            continue;
        }
        let evaluation = search.spec.evaluation(point);
        let run = spans.open(Layer::DriverRun, op);
        let outcome = evaluation.run_with_driver(search.spec.shards(), executor, root);
        spans.close(run);
        for record in executor
            .records
            .lock()
            .expect("no executor thread panicked")
            .drain(..)
        {
            spans.graft(&record.spans, run);
            counts.attempts += 1;
            counts.driver_failed += u64::from(record.failed);
            counts.events += record.events;
            counts.replans += record.replans;
            counts.migrations += record.migrations;
            counts.checkpoint_bytes += record.blob.len() as u64;
            shard_blobs.push((record.spec, record.blob));
        }
        let outcome = outcome.map_err(|e| format!("evaluation {point} failed: {e}"))?;
        let span = spans.open(Layer::SearchIndex, op);
        index.record(outcome);
        let blob = index.save();
        let tmp = path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, &blob)
            .and_then(|()| std::fs::rename(&tmp, &path))
            .map_err(|e| format!("cannot write the search index: {e}"))?;
        spans.close(span);
        counts.folds += 1;
    }
    spans.close(op);
    let evaluations: Vec<EvaluationOutcome> = index.completed().values().copied().collect();
    Ok((index.save(), pareto_frontier(&evaluations)))
}

pub fn run(params: &Params) -> Outcome {
    let mut outcome = Outcome::default();
    let spool_path = params
        .out_dir
        .join(format!("spool-search_grid-{}", std::process::id()));
    let (prepared, setup_s) = timed_setups(3, || setup(params, &spool_path));
    let (spool, searches) = match prepared {
        Ok(prepared) => prepared,
        Err(error) => {
            outcome.problem(error);
            return outcome;
        }
    };
    outcome
        .provenance
        .push(("spool_filesystem", crate::filesystem_of(&spool.0)));
    let points = searches[0].spec.space().len() as f64;
    let (untraced_budget, traced_budget) = phases(params);

    let mut hist = Histogram::new();
    let start = Instant::now();
    let (mut ops, mut busy) = (0u64, Duration::ZERO);
    loop {
        for search in &searches {
            let (elapsed, checked) = search_once(search, &spool.0.join(format!("op-{ops}")));
            hist.record(elapsed);
            busy += elapsed;
            ops += 1;
            if let Err(error) = checked {
                outcome.failed += 1;
                outcome.problem(error);
            }
        }
        if start.elapsed() >= untraced_budget {
            break;
        }
    }
    outcome.attempted += ops;
    let throughput = ops as f64 * points / busy.as_secs_f64();

    if !params.trace {
        outcome.metrics.push(setup_s);
        let mut m = metric("throughput", throughput, "1/s");
        m.note = format!("grid evaluations per second over {ops} searches");
        outcome.metrics.push(m);
        // About sixty searches fit in a run, too few for ten beyond the
        // p90, and each waits on 64 fsyncs, whose tail follows the shared
        // disk: the median stands in for both tail metrics.
        outcome.metrics.extend(percentiles(&hist, 0.5));
        return outcome;
    }

    let executor = TimedExecutor::default();
    let mut totals = Totals::default();
    let mut counts = Counts::default();
    let mut spans = SpanList::here(16 * 1024);
    let mut shard_blobs = Vec::new();
    let start = Instant::now();
    let mut traced_ops = 0u64;
    loop {
        for search in &searches {
            spans.clear();
            shard_blobs.clear();
            let root = spool.0.join(format!("traced-{traced_ops}"));
            let result = traced_search(
                search,
                &root,
                &executor,
                &mut spans,
                &mut shard_blobs,
                &mut counts,
            );
            clear(&root);
            traced_ops += 1;
            match result {
                Ok((index, frontier)) if index == search.index && frontier == search.frontier => {
                    totals.fold_op(traced_ops, &spans.spans, params.nproc);
                }
                Ok(_) => {
                    outcome.failed += 1;
                    outcome.problem("traced search's index differs from SearchDriver::run's");
                }
                Err(error) => {
                    outcome.failed += 1;
                    outcome.problem(error);
                }
            }
            // The coordinator's validation of each published blob, replayed.
            for (spec, blob) in &shard_blobs {
                let config = spec.to_config();
                let began = crate::trace::now_ns();
                let valid = FleetCheckpoint::load(blob).and_then(|c| c.verify_config(&config));
                totals.add_detached(Layer::CkptDecode, began, crate::trace::now_ns());
                if valid.is_err() {
                    outcome.problem("a published blob failed validation");
                }
            }
        }
        if start.elapsed() >= traced_budget {
            break;
        }
    }
    outcome.attempted += traced_ops;
    crate::check_accounting(&mut outcome, &totals);
    let traced_throughput = totals.ops as f64 * points / (totals.wall_ns as f64 / 1e9);
    outcome.metrics = per_layer(
        &totals,
        &counts,
        params.nproc,
        traced_throughput,
        throughput,
    );
    let path = params
        .out_dir
        .join(format!("trace-search_grid-{}.jsonl", params.seed));
    if let Err(error) = totals.write(&path) {
        outcome.problem(format!("cannot write {}: {error}", path.display()));
    }
    outcome
}
