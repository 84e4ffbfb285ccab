//! Naive reference implementations the perf-trajectory runners compare
//! against: `bench_partition` times the partition optimiser against
//! [`naive_optimize_leaf_energy`] and checks that both pick the same cut.

use hidwa_core::partition::{PartitionOptimizer, PartitionPlan};
use hidwa_isa::models::WearableModel;

/// The pre-refactor shape of a leaf-energy partition query: re-enumerate cut
/// points through the network (fresh shape propagation), materialise every
/// [`PartitionPlan`], then filter + `min_by`.
///
/// # Panics
/// Panics if the model's input shape is incompatible with its network (never
/// the case for the built-in zoo).
#[must_use]
pub fn naive_optimize_leaf_energy(
    optimizer: &PartitionOptimizer,
    model: &WearableModel,
) -> Option<PartitionPlan> {
    let cuts = model
        .network()
        .cut_points(model.input_shape())
        .expect("zoo models are well-formed");
    let plans: Vec<PartitionPlan> = cuts.iter().map(|c| optimizer.evaluate(model, c)).collect();
    plans.into_iter().filter(|p| p.feasible).min_by(|a, b| {
        a.leaf_energy
            .partial_cmp(&b.leaf_energy)
            .unwrap_or(std::cmp::Ordering::Equal)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidwa_core::partition::{Objective, PartitionContext};
    use hidwa_isa::models;

    #[test]
    fn naive_reference_agrees_with_streaming_optimizer() {
        let optimizer = PartitionOptimizer::new(PartitionContext::wir_default());
        for model in models::all_models() {
            let naive = naive_optimize_leaf_energy(&optimizer, &model);
            let fast = optimizer.optimize(&model, Objective::LeafEnergy).ok();
            assert_eq!(
                naive.map(|p| p.cut_index),
                fast.map(|p| p.cut_index),
                "{}",
                model.name()
            );
        }
    }
}
