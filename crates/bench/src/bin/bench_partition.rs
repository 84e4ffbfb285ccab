//! Perf-trajectory runner for the partition optimiser hot path.
//!
//! Measures, for every zoo model under the Wi-R context:
//!
//! * `optimize_ns` — median ns per streaming
//!   [`PartitionOptimizer::optimize`] call (cached cut points, no
//!   intermediate plan vector);
//! * `naive_ns` — median ns for the pre-refactor shape of the same query:
//!   re-enumerating cut points through the network (fresh shape propagation),
//!   materialising every [`PartitionPlan`](hidwa_core::partition::PartitionPlan),
//!   then `filter` + `min_by`.
//!
//! Writes `BENCH_partition.json` (to `$HIDWA_BENCH_OUT` or the current
//! directory) so successive PRs can track the trajectory, and exits non-zero
//! if the two paths ever disagree on the chosen cut.
//!
//! Sizes: each figure is the median of `SAMPLES` (30) samples of `ITERS`
//! (2000) optimiser calls, or a tenth as many naive ones, after as many
//! untimed warm-up calls as one sample makes.

use hidwa_bench::json;
use hidwa_bench::reference::naive_optimize_leaf_energy;
use hidwa_bench::sampler::median_ns_per_call;
use hidwa_core::partition::{Objective, PartitionContext, PartitionOptimizer};
use hidwa_isa::models;

const SAMPLES: usize = 30;
const ITERS: usize = 2000;

struct ModelResult {
    model: String,
    cuts: usize,
    optimize_ns: f64,
    naive_ns: f64,
    speedup: f64,
}

hidwa_bench::json_struct!(ModelResult {
    model,
    cuts,
    optimize_ns,
    naive_ns,
    speedup,
});

fn main() {
    let optimizer = PartitionOptimizer::new(PartitionContext::wir_default());
    let mut results = Vec::new();
    let mut disagreements = 0;

    println!(
        "{:<44} {:>6} {:>14} {:>14} {:>9}",
        "model", "cuts", "optimize", "naive", "speedup"
    );
    for model in models::all_models() {
        let fast = optimizer.optimize(&model, Objective::LeafEnergy).ok();
        let naive = naive_optimize_leaf_energy(&optimizer, &model);
        if fast.as_ref().map(|p| p.cut_index) != naive.as_ref().map(|p| p.cut_index) {
            eprintln!("DISAGREEMENT on {}: {fast:?} vs {naive:?}", model.name());
            disagreements += 1;
        }

        let optimize_ns = median_ns_per_call(SAMPLES, ITERS, ITERS, || {
            std::hint::black_box(
                optimizer.optimize(std::hint::black_box(&model), Objective::LeafEnergy),
            )
            .ok();
        });
        let naive_iters = ITERS.div_ceil(10);
        let naive_ns = median_ns_per_call(SAMPLES, naive_iters, naive_iters, || {
            std::hint::black_box(naive_optimize_leaf_energy(
                &optimizer,
                std::hint::black_box(&model),
            ));
        });
        let speedup = naive_ns / optimize_ns;
        println!(
            "{:<44} {:>6} {:>11.0} ns {:>11.0} ns {:>8.1}x",
            model.name(),
            model.cut_points().len(),
            optimize_ns,
            naive_ns,
            speedup
        );
        results.push(ModelResult {
            model: model.name().to_string(),
            cuts: model.cut_points().len(),
            optimize_ns,
            naive_ns,
            speedup,
        });
    }

    json::write_bench("BENCH_partition.json", &results);

    assert_eq!(disagreements, 0, "fast and naive optimisers disagreed");

    // Perf-trajectory guard: the tracked target is >=10x on every model
    // (see ARCHITECTURE.md); the enforced floor is lower so shared-runner
    // timing noise cannot flake CI, overridable via HIDWA_BENCH_MIN_SPEEDUP.
    let floor = hidwa_bench::env_f64("HIDWA_BENCH_MIN_SPEEDUP", 5.0);
    let min_speedup = results
        .iter()
        .map(|r| r.speedup)
        .fold(f64::INFINITY, f64::min);
    if min_speedup < 10.0 {
        eprintln!("WARNING: min speedup {min_speedup:.2}x below the 10x trajectory target");
    }
    assert!(
        min_speedup >= floor,
        "partition speedup regressed: {min_speedup:.2}x < {floor}x floor"
    );
}
