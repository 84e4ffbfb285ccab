//! Equivalence tests for the allocation-free partition fast paths.
//!
//! The streaming [`PartitionOptimizer::optimize`] and the one-cut
//! `all_on_leaf` / `all_on_hub` shortcuts must agree *exactly* (same cut,
//! bit-identical energies) with the naive reference — `evaluate_all`
//! followed by a feasibility filter and `min_by` — for every model, context
//! and objective, and the construction-time model caches must match freshly
//! computed profiles.

use hidwa_core::flags::Tag;
use hidwa_core::partition::{Objective, PartitionContext, PartitionOptimizer, PartitionPlan};
use hidwa_core::CoreError;
use hidwa_isa::models;

fn contexts() -> Vec<PartitionContext> {
    vec![
        PartitionContext::wir_default(),
        PartitionContext::ble_default(),
        PartitionContext::wir_default().without_quantization(),
        PartitionContext::ble_default().without_quantization(),
    ]
}

/// The naive reference the streaming pass must reproduce: materialise every
/// plan, filter to feasible, take the first minimum.
fn reference_optimum(
    optimizer: &PartitionOptimizer,
    model: &models::WearableModel,
    objective: Objective,
) -> Option<PartitionPlan> {
    let key = |plan: &PartitionPlan| match objective {
        Objective::LeafEnergy => plan.leaf_energy.as_joules(),
        Objective::Latency => plan.latency.as_seconds(),
        Objective::EnergyDelayProduct => plan.energy_delay_product(),
    };
    optimizer
        .evaluate_all(model)
        .unwrap()
        .into_iter()
        .filter(|p| p.feasible)
        .min_by(|a, b| {
            key(a)
                .partial_cmp(&key(b))
                .unwrap_or(core::cmp::Ordering::Equal)
        })
}

fn assert_plans_identical(fast: &PartitionPlan, reference: &PartitionPlan, what: &str) {
    assert_eq!(fast.cut_index, reference.cut_index, "{what}: cut index");
    assert_eq!(fast.leaf_macs, reference.leaf_macs, "{what}: leaf MACs");
    assert_eq!(fast.hub_macs, reference.hub_macs, "{what}: hub MACs");
    assert!(
        fast.transfer_bytes.to_bits() == reference.transfer_bytes.to_bits(),
        "{what}: transfer bytes"
    );
    assert!(
        fast.leaf_energy.as_joules().to_bits() == reference.leaf_energy.as_joules().to_bits(),
        "{what}: leaf energy"
    );
    assert!(
        fast.hub_energy.as_joules().to_bits() == reference.hub_energy.as_joules().to_bits(),
        "{what}: hub energy"
    );
    assert!(
        fast.latency.as_seconds().to_bits() == reference.latency.as_seconds().to_bits(),
        "{what}: latency"
    );
    assert_eq!(fast.feasible, reference.feasible, "{what}: feasibility");
    assert_eq!(fast.context, reference.context, "{what}: context label");
    assert_eq!(fast.model, reference.model, "{what}: model label");
}

#[test]
fn streaming_optimize_matches_naive_reference_everywhere() {
    let mut checked = 0;
    for model in models::all_models() {
        for context in contexts() {
            let optimizer = PartitionOptimizer::new(context);
            for &objective in Objective::ALL {
                let reference = reference_optimum(&optimizer, &model, objective);
                match (optimizer.optimize(&model, objective), reference) {
                    (Ok(fast), Some(reference)) => {
                        let what = format!(
                            "{} / {} / {}",
                            model.name(),
                            optimizer.context().label(),
                            objective.name()
                        );
                        assert_plans_identical(&fast, &reference, &what);
                        checked += 1;
                    }
                    (Err(CoreError::WorkloadInfeasible { .. }), None) => {
                        checked += 1;
                    }
                    (fast, reference) => panic!(
                        "{} / {}: fast={fast:?} reference={reference:?} disagree on feasibility",
                        model.name(),
                        objective.name()
                    ),
                }
            }
        }
    }
    // 5 models × 4 contexts × 3 objectives.
    assert_eq!(checked, 60);
}

#[test]
fn extreme_shortcuts_match_evaluate_all_endpoints() {
    // Regression for the old O(layers) behaviour: all_on_leaf/all_on_hub used
    // to materialise every plan and take last/first; they now evaluate one
    // cut, and must return exactly those endpoint plans.
    for model in models::all_models() {
        for context in contexts() {
            let optimizer = PartitionOptimizer::new(context);
            let all = optimizer.evaluate_all(&model).unwrap();
            assert_eq!(all.len(), model.network().len() + 1);
            let leaf = optimizer.all_on_leaf(&model).unwrap();
            let hub = optimizer.all_on_hub(&model).unwrap();
            assert_plans_identical(&leaf, all.last().unwrap(), "all_on_leaf");
            assert_plans_identical(&hub, &all[0], "all_on_hub");
            assert_eq!(leaf.cut_index, model.network().len());
            assert_eq!(hub.cut_index, 0);
        }
    }
}

#[test]
fn model_caches_match_fresh_computation() {
    for model in models::all_models() {
        let fresh_profiles = model.network().profile(model.input_shape()).unwrap();
        assert_eq!(
            model.profiles(),
            fresh_profiles.as_slice(),
            "{}",
            model.name()
        );

        let fresh_cuts = model.network().cut_points(model.input_shape()).unwrap();
        assert_eq!(
            model.cut_points(),
            fresh_cuts.as_slice(),
            "{}",
            model.name()
        );

        assert_eq!(
            model.macs_per_inference(),
            model.network().total_macs(model.input_shape()),
            "{}",
            model.name()
        );
        assert_eq!(
            model.output_shape(),
            model
                .network()
                .output_shape(model.input_shape())
                .unwrap()
                .as_slice(),
            "{}",
            model.name()
        );
        assert_eq!(&**model.interned_name(), model.name());
    }
}
