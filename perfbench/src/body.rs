//! The benchmark's traced copy of one fleet body's simulation: the calls
//! `FleetConfig`'s private per-body step makes, each inside its own span.
//! The traced workloads compare the checkpoint bytes this path folds to
//! against the program's own fold, so any drift between the two fails the
//! run.

use crate::trace::{Layer, SpanList};
use hidwa_core::fleet::placement;
use hidwa_core::fleet::{BodySummary, FleetConfig};
use hidwa_core::population::LinkCache;
use hidwa_netsim::sketch::LatencySketch;
use hidwa_units::{Energy, TimeSpan};
use std::sync::Arc;

/// Spans one body records: its scenario and churn draws, placement, build,
/// run and sketch reduction.
pub const SPANS_PER_BODY: usize = 6;

/// Samples, simulates and reduces body `body_index` of `config`, recording
/// each step as a child of `parent` in `spans`.
pub fn simulate(
    config: &FleetConfig,
    links: &LinkCache,
    body_index: usize,
    spans: &mut SpanList,
    parent: u32,
) -> BodySummary {
    let span = spans.open(Layer::PopSample, parent);
    let scenario = config.scenario_for_body(body_index);
    spans.close(span);
    let (active_span, migrations, replans, placement_energy) = match config.churn() {
        None => (config.horizon(), 0, 0, Energy::ZERO),
        Some(spec) => {
            let span = spans.open(Layer::PopSample, parent);
            let sample =
                spec.churn()
                    .sample(config.base_seed(), body_index as u64, config.horizon());
            spans.close(span);
            let span = spans.open(Layer::Placement, parent);
            let outcome = placement::simulate_placement(spec, &scenario, &sample);
            spans.close(span);
            (
                sample.active(),
                outcome.migrations,
                outcome.replans,
                outcome.energy,
            )
        }
    };
    let span = spans.open(Layer::NetBuild, parent);
    let mut sim = scenario.build_simulation(links);
    spans.close(span);
    let span = spans.open(Layer::NetRun, parent);
    let report = sim.run(active_span);
    spans.close(span);
    let span = spans.open(Layer::NetSketch, parent);
    let mut latency = LatencySketch::new();
    let mut worst_p95 = TimeSpan::ZERO;
    for (stats, sketch) in report.node_stats().iter().zip(report.latency_sketches()) {
        latency.merge(sketch);
        worst_p95 = worst_p95.max(stats.p95_latency);
    }
    let summary = BodySummary {
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
    };
    spans.close(span);
    summary
}
