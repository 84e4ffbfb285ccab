//! DNN partitioning across the body-area network: how much of a wearable AI
//! model runs on the leaf node versus the on-body hub.
//!
//! This is the quantitative core of the paper's distributed-intelligence
//! vision.  For every *cut point* of a model (leaf runs the first `k` layers,
//! ships the activation, hub runs the rest) the optimiser computes the leaf
//! energy per inference, the end-to-end latency and the sustained leaf power,
//! and picks the cut that minimises the chosen objective.  Comparing the
//! optimum under a Wi-R link against a BLE link (and against running
//! everything on the node) reproduces the architectural claim: with a
//! ~100 pJ/bit link the optimal cut moves towards "ship early, compute on the
//! hub", which is exactly the human-inspired architecture.
//!
//! # Performance model
//!
//! This module sits on the hottest path of the repo — the figure sweeps call
//! [`PartitionOptimizer::optimize`] for every (model × context × objective)
//! cell — so the evaluation pipeline is built to do no per-call allocation:
//!
//! * cut points come from the [`WearableModel`]'s construction-time cache
//!   ([`WearableModel::cut_points`]), never from re-profiling the network;
//! * [`PartitionOptimizer::optimize`] is a single streaming pass over that
//!   cached slice, tracking the best cut by scalar objective key and
//!   materialising exactly one winning [`PartitionPlan`] at the end — no
//!   intermediate `Vec<PartitionPlan>`;
//! * [`PartitionOptimizer::all_on_leaf`] / [`PartitionOptimizer::all_on_hub`]
//!   evaluate exactly one cut each;
//! * context and model labels are interned `Arc<str>`s, so labelling a plan
//!   is a reference-count bump rather than a `String` clone.
//!
//! [`PartitionOptimizer::evaluate_all`] remains available as the naive
//! reference (and for table-style figure output); the workspace equivalence
//! tests assert the streaming pass matches it exactly.

use crate::flags::Tag;
use crate::CoreError;
use hidwa_energy::compute::{ComputeClass, ComputeEngine};
use hidwa_isa::models::WearableModel;
use hidwa_isa::network::CutPoint;
use hidwa_phy::ble::BleTransceiver;
use hidwa_phy::wir::WiRTransceiver;
use hidwa_phy::Transceiver;
use hidwa_units::{DataRate, DataVolume, Energy, EnergyPerBit, Power, TimeSpan};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// What the optimiser minimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Objective {
    /// Minimise leaf-node energy per inference (battery life of the leaf).
    LeafEnergy,
    /// Minimise end-to-end latency per inference.
    Latency,
    /// Minimise the product of leaf energy and latency.
    EnergyDelayProduct,
}

impl Objective {
    /// Human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Objective::LeafEnergy => "leaf energy",
            Objective::Latency => "latency",
            Objective::EnergyDelayProduct => "energy-delay product",
        }
    }

    /// The scalar this objective minimises for a cut of `leaf_energy` and
    /// `latency`: the one key the optimiser, the partition grid and the
    /// placement policies rank cuts by.
    pub(crate) fn key(self, leaf_energy: Energy, latency: TimeSpan) -> f64 {
        match self {
            Objective::LeafEnergy => leaf_energy.as_joules(),
            Objective::Latency => latency.as_seconds(),
            Objective::EnergyDelayProduct => leaf_energy.as_joules() * latency.as_seconds(),
        }
    }
}

/// An objective's tag names it in the `--churn` encoding, bench rows and
/// the search fingerprint; a plan query or answer carries its position in
/// `ALL`.
impl Tag for Objective {
    const ALL: &'static [Self] = &[Self::LeafEnergy, Self::Latency, Self::EnergyDelayProduct];

    fn tag(self) -> &'static str {
        match self {
            Self::LeafEnergy => "leaf-energy",
            Self::Latency => "latency",
            Self::EnergyDelayProduct => "edp",
        }
    }
}

/// The execution environment a partition is evaluated in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionContext {
    /// Compute engine available on the leaf node.
    leaf_engine: ComputeEngine,
    /// Compute engine available on the hub.
    hub_engine: ComputeEngine,
    /// Delivered energy per application bit on the leaf→hub link.
    link_energy_per_bit: EnergyPerBit,
    /// Delivered goodput of the leaf→hub link.
    link_goodput: DataRate,
    /// Whether activations are quantized to int8 before transmission.
    quantize_activations: bool,
    /// Descriptive label ("Wi-R", "BLE"), interned for cheap plan labelling.
    label: Arc<str>,
}

impl PartitionContext {
    /// Creates a context from explicit components.
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        leaf_engine: ComputeEngine,
        hub_engine: ComputeEngine,
        link_energy_per_bit: EnergyPerBit,
        link_goodput: DataRate,
    ) -> Self {
        Self {
            leaf_engine,
            hub_engine,
            link_energy_per_bit,
            link_goodput,
            quantize_activations: true,
            label: Arc::from(label.into()),
        }
    }

    /// The human-inspired context: ISA accelerator on the leaf, edge NPU on
    /// the hub, Wi-R link at its commercial operating point.
    #[must_use]
    pub fn wir_default() -> Self {
        let wir = WiRTransceiver::ixana_class();
        let rate = wir.max_data_rate();
        Self::new(
            "Wi-R",
            ComputeEngine::of_class(ComputeClass::IsaAccelerator),
            ComputeEngine::of_class(ComputeClass::EdgeNpu),
            wir.energy_per_bit(rate),
            rate,
        )
    }

    /// The conventional-radio context: same compute engines, BLE 1M link.
    #[must_use]
    pub fn ble_default() -> Self {
        let ble = BleTransceiver::phy_1m();
        let rate = ble.max_data_rate();
        Self::new(
            "BLE",
            ComputeEngine::of_class(ComputeClass::IsaAccelerator),
            ComputeEngine::of_class(ComputeClass::EdgeNpu),
            ble.energy_per_bit(rate),
            rate,
        )
    }

    /// Disables int8 quantization of transmitted activations.
    #[must_use]
    pub fn without_quantization(mut self) -> Self {
        self.quantize_activations = false;
        self
    }

    /// Derates the leaf→hub link to `factor` of its nominal operating point
    /// (clamped to `[0.001, 1]`): goodput scales down by `factor` and energy
    /// per delivered bit scales up by `1 / factor`, modelling a faded channel
    /// that needs more retransmissions per application bit.  The label is
    /// kept, so derated plans still report their base context.
    ///
    /// This is the knob the churn layer turns per context epoch: a derated
    /// link shifts both the feasibility frontier and the optimal cut, which
    /// is what makes online re-planning (and hence placement policies) a
    /// meaningful axis.
    #[must_use]
    pub fn with_link_derating(mut self, factor: f64) -> Self {
        let factor = if factor.is_finite() {
            factor.clamp(1e-3, 1.0)
        } else {
            1.0
        };
        self.link_goodput = DataRate::from_bps(self.link_goodput.as_bps() * factor);
        self.link_energy_per_bit =
            EnergyPerBit::from_pico_joules(self.link_energy_per_bit.as_pico_joules() / factor);
        self
    }

    /// Context label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Context label as a shared, cheaply-cloneable `Arc<str>`.
    #[must_use]
    pub fn interned_label(&self) -> &Arc<str> {
        &self.label
    }

    /// Bytes actually transmitted for a cut (after optional quantization).
    #[must_use]
    fn wire_bytes(&self, cut: &CutPoint) -> f64 {
        if self.quantize_activations {
            // f32 → int8 plus a 5-byte scale header.
            cut.transfer_bytes as f64 / 4.0 + 5.0
        } else {
            cut.transfer_bytes as f64
        }
    }
}

/// A fully evaluated partition of one model in one context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionPlan {
    /// Context label ("Wi-R", "BLE", …), shared with the originating
    /// [`PartitionContext`].
    pub context: Arc<str>,
    /// Model name, shared with the originating
    /// [`WearableModel`].
    pub model: Arc<str>,
    /// Number of layers executed on the leaf.
    pub cut_index: usize,
    /// MACs executed on the leaf per inference.
    pub leaf_macs: u64,
    /// MACs executed on the hub per inference.
    pub hub_macs: u64,
    /// Bytes transmitted per inference (after quantization, with framing
    /// ignored — framing is accounted in the link model when simulated).
    pub transfer_bytes: f64,
    /// Leaf energy per inference (compute + transmit).
    pub leaf_energy: Energy,
    /// Hub energy per inference (receive side compute only).
    pub hub_energy: Energy,
    /// End-to-end latency per inference.
    pub latency: TimeSpan,
    /// Sustained leaf power at the model's inference rate.
    pub leaf_power: Power,
    /// Whether the leaf engine can sustain this cut at the model's rate.
    pub feasible: bool,
}

impl PartitionPlan {
    /// Energy-delay product (J·s), the [`Objective::EnergyDelayProduct`]
    /// key.
    #[must_use]
    pub fn energy_delay_product(&self) -> f64 {
        self.leaf_energy.as_joules() * self.latency.as_seconds()
    }
}

/// Evaluates and optimises partitions of wearable models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionOptimizer {
    context: PartitionContext,
}

impl PartitionOptimizer {
    /// Creates an optimiser for a context.
    #[must_use]
    pub fn new(context: PartitionContext) -> Self {
        Self { context }
    }

    /// The context being optimised for.
    #[must_use]
    pub fn context(&self) -> &PartitionContext {
        &self.context
    }

    /// Evaluates every cut point of a model (the naive reference path).
    ///
    /// The streaming [`PartitionOptimizer::optimize`] does not call this; it
    /// exists for table-style output and as the ground truth the equivalence
    /// tests compare the fast paths against.
    ///
    /// # Errors
    /// Kept for API stability; cut points come from the model's
    /// construction-time cache, so this cannot currently fail.
    pub fn evaluate_all(&self, model: &WearableModel) -> Result<Vec<PartitionPlan>, CoreError> {
        Ok(model
            .cut_points()
            .iter()
            .map(|cut| self.evaluate(model, cut))
            .collect())
    }

    /// Scalar costs of one cut, computed without building a plan.
    fn cut_metrics(&self, model: &WearableModel, cut: &CutPoint) -> CutMetrics {
        let ctx = &self.context;
        let wire_bytes = ctx.wire_bytes(cut);
        let wire_volume = DataVolume::from_bytes(wire_bytes);

        let leaf_compute_energy = ctx.leaf_engine.energy_for_ops(cut.leaf_macs as f64);
        let tx_energy = ctx.link_energy_per_bit * wire_volume;
        let leaf_energy = leaf_compute_energy + tx_energy;
        let hub_energy = ctx.hub_engine.energy_for_ops(cut.hub_macs as f64);

        let leaf_latency = ctx.leaf_engine.latency_for_ops(cut.leaf_macs as f64);
        let transfer_latency = if ctx.link_goodput.as_bps() > 0.0 {
            wire_volume / ctx.link_goodput
        } else {
            TimeSpan::from_seconds(f64::INFINITY)
        };
        let hub_latency = ctx.hub_engine.latency_for_ops(cut.hub_macs as f64);
        let latency = leaf_latency + transfer_latency + hub_latency;

        let rate = model.inferences_per_second();
        let leaf_power = Power::from_watts(leaf_energy.as_joules() * rate);
        let feasible = ctx.leaf_engine.can_sustain(cut.leaf_macs as f64 * rate)
            && ctx.link_goodput.as_bps() >= wire_bytes * 8.0 * rate;

        CutMetrics {
            wire_bytes,
            leaf_energy,
            hub_energy,
            latency,
            leaf_power,
            feasible,
        }
    }

    /// Evaluates one cut point.
    #[must_use]
    pub fn evaluate(&self, model: &WearableModel, cut: &CutPoint) -> PartitionPlan {
        let metrics = self.cut_metrics(model, cut);
        PartitionPlan {
            context: Arc::clone(&self.context.label),
            model: Arc::clone(model.interned_name()),
            cut_index: cut.index,
            leaf_macs: cut.leaf_macs,
            hub_macs: cut.hub_macs,
            transfer_bytes: metrics.wire_bytes,
            leaf_energy: metrics.leaf_energy,
            hub_energy: metrics.hub_energy,
            latency: metrics.latency,
            leaf_power: metrics.leaf_power,
            feasible: metrics.feasible,
        }
    }

    /// Finds the feasible cut that minimises the objective.
    ///
    /// Single streaming pass over the model's cached cut points: each cut is
    /// reduced to its scalar objective key, the arg-min index is tracked, and
    /// exactly one [`PartitionPlan`] (the winner) is materialised.  Ties keep
    /// the earliest cut, matching the naive `evaluate_all` + `min_by`
    /// reference.
    ///
    /// # Errors
    /// Returns [`CoreError::WorkloadInfeasible`] if no cut is feasible (the
    /// model cannot run at its required rate in this context at all).
    pub fn optimize(
        &self,
        model: &WearableModel,
        objective: Objective,
    ) -> Result<PartitionPlan, CoreError> {
        let cuts = model.cut_points();
        let mut best: Option<(usize, f64)> = None;
        for (index, cut) in cuts.iter().enumerate() {
            let metrics = self.cut_metrics(model, cut);
            if !metrics.feasible {
                continue;
            }
            let key = objective.key(metrics.leaf_energy, metrics.latency);
            let better = match best {
                None => true,
                // Strict `<` keeps the earliest minimum; incomparable (NaN)
                // keys never displace the incumbent — both exactly as the
                // reference `min_by` behaves.
                Some((_, best_key)) => {
                    key.partial_cmp(&best_key) == Some(core::cmp::Ordering::Less)
                }
            };
            if better {
                best = Some((index, key));
            }
        }
        best.map(|(index, _)| self.evaluate(model, &cuts[index]))
            .ok_or_else(|| CoreError::WorkloadInfeasible {
                reason: format!(
                    "no feasible cut for {} over {} at {:.1} inferences/s",
                    model.name(),
                    self.context.label,
                    model.inferences_per_second()
                ),
            })
    }

    /// Convenience: the "everything on the leaf" plan (the conventional
    /// wearable), regardless of feasibility on the ISA engine.
    ///
    /// Evaluates exactly the final cut of the cached table.
    ///
    /// # Errors
    /// Returns [`CoreError`] if the model has no cut points (requires a
    /// pathological zero-layer model with an empty cache).
    pub fn all_on_leaf(&self, model: &WearableModel) -> Result<PartitionPlan, CoreError> {
        model
            .cut_points()
            .last()
            .map(|cut| self.evaluate(model, cut))
            .ok_or_else(|| CoreError::invalid("model", "model has no cut points"))
    }

    /// Convenience: the "raw offload" plan (leaf ships the raw input).
    ///
    /// Evaluates exactly the first cut of the cached table.
    ///
    /// # Errors
    /// Returns [`CoreError`] if the model has no cut points (requires a
    /// pathological zero-layer model with an empty cache).
    pub fn all_on_hub(&self, model: &WearableModel) -> Result<PartitionPlan, CoreError> {
        model
            .cut_points()
            .first()
            .map(|cut| self.evaluate(model, cut))
            .ok_or_else(|| CoreError::invalid("model", "model has no cut points"))
    }
}

/// Scalar per-cut costs used by the streaming optimiser; building one of
/// these allocates nothing.
#[derive(Debug, Clone, Copy)]
struct CutMetrics {
    wire_bytes: f64,
    leaf_energy: Energy,
    hub_energy: Energy,
    latency: TimeSpan,
    leaf_power: Power,
    feasible: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidwa_isa::models;

    #[test]
    fn wir_optimum_is_no_worse_than_either_feasible_extreme() {
        let optimizer = PartitionOptimizer::new(PartitionContext::wir_default());
        for model in models::all_models() {
            let best = optimizer.optimize(&model, Objective::LeafEnergy).unwrap();
            assert!(best.feasible, "{}", model.name());
            let all_leaf = optimizer.all_on_leaf(&model).unwrap();
            let all_hub = optimizer.all_on_hub(&model).unwrap();
            for extreme in [all_leaf, all_hub] {
                if extreme.feasible {
                    assert!(
                        best.leaf_energy <= extreme.leaf_energy + Energy::from_pico_joules(1.0),
                        "{}: optimum {} > extreme {}",
                        model.name(),
                        best.leaf_energy,
                        extreme.leaf_energy
                    );
                }
            }
        }
    }

    #[test]
    fn optimum_matches_brute_force() {
        let optimizer = PartitionOptimizer::new(PartitionContext::wir_default());
        let model = models::ecg_arrhythmia_cnn();
        let plans = optimizer.evaluate_all(&model).unwrap();
        let brute = plans
            .iter()
            .filter(|p| p.feasible)
            .min_by(|a, b| a.leaf_energy.partial_cmp(&b.leaf_energy).unwrap())
            .unwrap();
        let best = optimizer.optimize(&model, Objective::LeafEnergy).unwrap();
        assert_eq!(best.cut_index, brute.cut_index);
    }

    #[test]
    fn wir_leaf_energy_beats_ble_for_every_model() {
        // The architectural claim: with Wi-R the leaf spends less energy per
        // inference than with BLE at each link's own optimal cut, and the gap
        // approaches the ~100× per-bit gap when the strategy is pure offload
        // (which is what the human-inspired architecture does).
        let wir = PartitionOptimizer::new(PartitionContext::wir_default());
        let ble = PartitionOptimizer::new(PartitionContext::ble_default());
        for model in models::all_models() {
            let wir_best = wir.optimize(&model, Objective::LeafEnergy).unwrap();
            match ble.optimize(&model, Objective::LeafEnergy) {
                Ok(ble_best) => {
                    let ratio = ble_best.leaf_energy.as_joules() / wir_best.leaf_energy.as_joules();
                    assert!(
                        ratio > 1.5,
                        "{}: BLE/Wi-R leaf energy ratio {ratio:.1}",
                        model.name()
                    );
                }
                // The strongest form of the claim: some workloads (15 fps
                // video) cannot run over BLE with an ISA-class leaf at all,
                // while Wi-R supports them.
                Err(CoreError::WorkloadInfeasible { .. }) => {
                    assert!(wir_best.feasible, "{}", model.name());
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
            let wir_offload = wir.all_on_hub(&model).unwrap();
            let ble_offload = ble.all_on_hub(&model).unwrap();
            let offload_ratio =
                ble_offload.leaf_energy.as_joules() / wir_offload.leaf_energy.as_joules();
            assert!(
                offload_ratio > 50.0,
                "{}: raw-offload BLE/Wi-R energy ratio {offload_ratio:.1}",
                model.name()
            );
        }
    }

    #[test]
    fn cheap_link_pushes_cut_towards_hub() {
        // With a ~100 pJ/bit link, early offload is optimal (small cut index);
        // with a nJ/bit link the optimiser keeps more layers on the leaf to
        // shrink the transfer (cut index never decreases).
        for model in [models::ecg_arrhythmia_cnn(), models::keyword_spotting_cnn()] {
            let wir_cut = PartitionOptimizer::new(PartitionContext::wir_default())
                .optimize(&model, Objective::LeafEnergy)
                .unwrap()
                .cut_index;
            let ble_cut = PartitionOptimizer::new(PartitionContext::ble_default())
                .optimize(&model, Objective::LeafEnergy)
                .unwrap()
                .cut_index;
            assert!(
                ble_cut >= wir_cut,
                "{}: BLE cut {ble_cut} < Wi-R cut {wir_cut}",
                model.name()
            );
        }
    }

    #[test]
    fn latency_objective_prefers_faster_plans() {
        let optimizer = PartitionOptimizer::new(PartitionContext::wir_default());
        let model = models::keyword_spotting_cnn();
        let fastest = optimizer.optimize(&model, Objective::Latency).unwrap();
        let lowest_energy = optimizer.optimize(&model, Objective::LeafEnergy).unwrap();
        assert!(fastest.latency <= lowest_energy.latency);
        let edp = optimizer
            .optimize(&model, Objective::EnergyDelayProduct)
            .unwrap();
        assert!(edp.energy_delay_product() <= fastest.energy_delay_product() + 1e-18);
        assert_eq!(Objective::LeafEnergy.name(), "leaf energy");
    }

    #[test]
    fn quantization_reduces_transfer_and_energy() {
        let model = models::ecg_arrhythmia_cnn();
        let with_quant = PartitionOptimizer::new(PartitionContext::wir_default())
            .all_on_hub(&model)
            .unwrap();
        let without =
            PartitionOptimizer::new(PartitionContext::wir_default().without_quantization())
                .all_on_hub(&model)
                .unwrap();
        assert!(with_quant.transfer_bytes < without.transfer_bytes);
        assert!(with_quant.leaf_energy < without.leaf_energy);
    }

    #[test]
    fn video_model_is_infeasible_fully_on_the_isa_leaf() {
        // 15 fps feature extraction exceeds a 50 MMAC/s ISA accelerator: the
        // all-on-leaf plan must be flagged infeasible, while the optimiser
        // still finds a feasible (offload-heavy) plan.
        let optimizer = PartitionOptimizer::new(PartitionContext::wir_default());
        let model = models::video_feature_extractor();
        let all_leaf = optimizer.all_on_leaf(&model).unwrap();
        assert!(!all_leaf.feasible);
        let best = optimizer.optimize(&model, Objective::LeafEnergy).unwrap();
        assert!(best.feasible);
        assert!(best.cut_index < model.network().len());
    }

    #[test]
    fn link_derating_raises_cost_and_can_move_the_cut() {
        let model = models::keyword_spotting_cnn();
        let nominal = PartitionOptimizer::new(PartitionContext::wir_default());
        let faded =
            PartitionOptimizer::new(PartitionContext::wir_default().with_link_derating(0.5));
        // A fixed offload-heavy cut gets strictly slower and more expensive
        // on a derated link.
        let cut = &model.cut_points()[0];
        let before = nominal.evaluate(&model, cut);
        let after = faded.evaluate(&model, cut);
        assert!(after.latency > before.latency);
        assert!(after.leaf_energy > before.leaf_energy);
        // Factor 1.0 is the identity.
        let identity =
            PartitionOptimizer::new(PartitionContext::wir_default().with_link_derating(1.0));
        assert_eq!(identity.evaluate(&model, cut), before);
        // A severe fade pushes the energy-optimal cut at least as far toward
        // the leaf as the nominal link (the BLE-vs-Wi-R monotonicity, local).
        let severe =
            PartitionOptimizer::new(PartitionContext::wir_default().with_link_derating(0.001));
        let nominal_cut = nominal.optimize(&model, Objective::LeafEnergy).unwrap();
        if let Ok(faded_best) = severe.optimize(&model, Objective::LeafEnergy) {
            assert!(faded_best.cut_index >= nominal_cut.cut_index);
        }
    }

    #[test]
    fn plan_fields_are_consistent() {
        let optimizer = PartitionOptimizer::new(PartitionContext::wir_default());
        let model = models::imu_gesture_cnn();
        for plan in optimizer.evaluate_all(&model).unwrap() {
            assert_eq!(plan.leaf_macs + plan.hub_macs, model.macs_per_inference());
            assert!(plan.leaf_energy >= Energy::ZERO);
            assert!(plan.latency > TimeSpan::ZERO);
            assert_eq!(&*plan.context, "Wi-R");
            assert_eq!(&*plan.model, model.name());
            assert!(plan.leaf_power >= Power::ZERO);
        }
        assert_eq!(optimizer.context().label(), "Wi-R");
    }
}
