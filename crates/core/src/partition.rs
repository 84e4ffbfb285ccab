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
//! A cut's costs split in two, and the cut arithmetic exists once: a
//! `CutRow` holds the part no link changes (wire bytes and volume, leaf
//! compute and hub energy, leaf and hub latency, whether the leaf engine
//! sustains the cut at the model's rate), and `CutRow::cost` adds a link's
//! part (transmit energy, transfer latency, the link's feasibility).  Every
//! plan the optimiser builds goes through that pair.  Online placement
//! ([`crate::fleet::placement`]) re-plans a body every context epoch over a
//! derated link, so a churned fold builds each archetype's rows once, in a
//! `CutTable`, and ranks them over each epoch's link with the optimiser's
//! own arg-min; it builds no context, optimiser or plan per body.
//!
//! [`PartitionOptimizer::evaluate_all`] remains available as the naive
//! reference (and for table-style figure output); the workspace equivalence
//! tests assert the streaming pass matches it exactly, and a unit test below
//! asserts a cut table ranks like the optimiser at every derating.

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
    /// The leaf→hub link.
    link: Link,
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
            link: Link {
                goodput: link_goodput,
                energy_per_bit: link_energy_per_bit,
            },
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
        self.link = self.link.derated(factor);
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

    /// The link-independent costs of `cut` of `model` in this context.
    fn row(&self, model: &WearableModel, cut: &CutPoint) -> CutRow {
        CutRow::new(&self.context, model.inferences_per_second(), cut)
    }

    /// Evaluates one cut point.
    #[must_use]
    pub fn evaluate(&self, model: &WearableModel, cut: &CutPoint) -> PartitionPlan {
        let row = self.row(model, cut);
        let cost = row.cost(self.context.link);
        PartitionPlan {
            context: Arc::clone(&self.context.label),
            model: Arc::clone(model.interned_name()),
            cut_index: cut.index,
            leaf_macs: cut.leaf_macs,
            hub_macs: cut.hub_macs,
            transfer_bytes: row.wire_bytes,
            leaf_energy: cost.leaf_energy,
            hub_energy: row.hub_energy,
            latency: cost.latency,
            leaf_power: Power::from_watts(cost.leaf_energy.as_joules() * row.rate),
            feasible: cost.feasible,
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
        let link = self.context.link;
        let costs = cuts.iter().map(|cut| self.row(model, cut).cost(link));
        best_cut(costs, objective)
            .map(|(index, _)| self.evaluate(model, &cuts[index]))
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

/// A leaf→hub link as the cut arithmetic sees it: delivered goodput and
/// energy per delivered bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Link {
    goodput: DataRate,
    energy_per_bit: EnergyPerBit,
}

impl Link {
    /// The link at `factor` of its nominal operating point, clamped to
    /// `[0.001, 1]` (a non-finite factor is 1): the one derating behind
    /// [`PartitionContext::with_link_derating`] and placement's epochs.
    pub(crate) fn derated(self, factor: f64) -> Self {
        let factor = if factor.is_finite() {
            factor.clamp(1e-3, 1.0)
        } else {
            1.0
        };
        Self {
            goodput: DataRate::from_bps(self.goodput.as_bps() * factor),
            energy_per_bit: EnergyPerBit::from_pico_joules(
                self.energy_per_bit.as_pico_joules() / factor,
            ),
        }
    }
}

/// The part of one cut's costs no link changes, computed once per cut:
/// [`cost`](Self::cost) adds a link's part.  Every plan and every placement
/// decision goes through this pair, so the cut arithmetic exists once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CutRow {
    /// Layers the leaf runs ([`CutPoint::index`]).
    index: usize,
    /// Bytes shipped per inference, after optional quantization.
    wire_bytes: f64,
    wire_volume: DataVolume,
    leaf_compute_energy: Energy,
    hub_energy: Energy,
    leaf_latency: TimeSpan,
    hub_latency: TimeSpan,
    /// The model's inferences per second.
    rate: f64,
    /// Whether the leaf engine sustains the cut at `rate`.
    leaf_sustains: bool,
}

/// What one cut costs over one link.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CutCost {
    pub(crate) leaf_energy: Energy,
    pub(crate) latency: TimeSpan,
    pub(crate) feasible: bool,
}

impl CutCost {
    /// The scalar `objective` ranks this cost by.
    pub(crate) fn key(&self, objective: Objective) -> f64 {
        objective.key(self.leaf_energy, self.latency)
    }
}

impl CutRow {
    /// The row of `cut` in `context`, for a model run `rate` times a second.
    fn new(context: &PartitionContext, rate: f64, cut: &CutPoint) -> Self {
        let wire_bytes = context.wire_bytes(cut);
        let (leaf_macs, hub_macs) = (cut.leaf_macs as f64, cut.hub_macs as f64);
        Self {
            index: cut.index,
            wire_bytes,
            wire_volume: DataVolume::from_bytes(wire_bytes),
            leaf_compute_energy: context.leaf_engine.energy_for_ops(leaf_macs),
            hub_energy: context.hub_engine.energy_for_ops(hub_macs),
            leaf_latency: context.leaf_engine.latency_for_ops(leaf_macs),
            hub_latency: context.hub_engine.latency_for_ops(hub_macs),
            rate,
            leaf_sustains: context.leaf_engine.can_sustain(leaf_macs * rate),
        }
    }

    /// Layers the leaf runs at this cut.
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// The cut's cost over `link`.
    pub(crate) fn cost(&self, link: Link) -> CutCost {
        let tx_energy = link.energy_per_bit * self.wire_volume;
        let leaf_energy = self.leaf_compute_energy + tx_energy;
        let transfer_latency = if link.goodput.as_bps() > 0.0 {
            self.wire_volume / link.goodput
        } else {
            TimeSpan::from_seconds(f64::INFINITY)
        };
        let latency = self.leaf_latency + transfer_latency + self.hub_latency;
        let feasible =
            self.leaf_sustains && link.goodput.as_bps() >= self.wire_bytes * 8.0 * self.rate;
        CutCost {
            leaf_energy,
            latency,
            feasible,
        }
    }
}

/// The position and cost of the feasible cost among `costs` that minimises
/// `objective`, in one streaming pass.  Strict `<` keeps the earliest
/// minimum, and an incomparable (NaN) key never displaces the incumbent:
/// both exactly as a `min_by` over the feasible plans behaves.
fn best_cut(
    costs: impl Iterator<Item = CutCost>,
    objective: Objective,
) -> Option<(usize, CutCost)> {
    let mut best: Option<(usize, CutCost, f64)> = None;
    for (index, cost) in costs.enumerate() {
        if !cost.feasible {
            continue;
        }
        let key = cost.key(objective);
        let better = match best {
            None => true,
            Some((_, _, best_key)) => key.partial_cmp(&best_key) == Some(core::cmp::Ordering::Less),
        };
        if better {
            best = Some((index, cost, key));
        }
    }
    best.map(|(index, cost, _)| (index, cost))
}

/// One model's [`CutRow`]s in one context, built once and ranked over any
/// derating of the context's link: what placement replays a body's epochs
/// from, without building a context, an optimiser or a plan.
#[derive(Debug)]
pub(crate) struct CutTable {
    rows: Box<[CutRow]>,
    link: Link,
    rate: f64,
}

impl CutTable {
    /// The rows of every cut of `model` in `context`.
    pub(crate) fn new(context: &PartitionContext, model: &WearableModel) -> Self {
        let rate = model.inferences_per_second();
        Self {
            rows: model
                .cut_points()
                .iter()
                .map(|cut| CutRow::new(context, rate, cut))
                .collect(),
            link: context.link,
            rate,
        }
    }

    /// The rows, in cut order.
    pub(crate) fn rows(&self) -> &[CutRow] {
        &self.rows
    }

    /// The context's link at its nominal operating point.
    pub(crate) fn link(&self) -> Link {
        self.link
    }

    /// The model's inferences per second.
    pub(crate) fn rate(&self) -> f64 {
        self.rate
    }

    /// The position and cost of the feasible row that minimises `objective`
    /// over `link`: the cut [`PartitionOptimizer::optimize`] picks in the
    /// table's context with its link swapped for `link`.
    pub(crate) fn optimum(&self, link: Link, objective: Objective) -> Option<(usize, CutCost)> {
        best_cut(self.rows.iter().map(|row| row.cost(link)), objective)
    }
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

    /// Whether `cost` carries `plan`'s leaf energy and latency bits and
    /// its feasibility.
    fn costs_like(cost: CutCost, plan: &PartitionPlan) -> bool {
        let bits = |energy: Energy, latency: TimeSpan| {
            (energy.as_joules().to_bits(), latency.as_seconds().to_bits())
        };
        (bits(cost.leaf_energy, cost.latency), cost.feasible)
            == (bits(plan.leaf_energy, plan.latency), plan.feasible)
    }

    #[test]
    fn cut_tables_rank_like_the_optimiser_at_every_derating() {
        use crate::serve::codec::ModelId;
        // Inside the clamp, at both of its ends and past them, and the
        // non-finite factors that fall back to the nominal link.
        let deratings = [
            1.0,
            0.999,
            0.5,
            0.2,
            1e-3,
            1e-4,
            0.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
        ];
        for id in ModelId::ALL {
            let model = id.model();
            for context in [
                PartitionContext::wir_default(),
                PartitionContext::ble_default(),
            ] {
                let table = CutTable::new(&context, model);
                let nominal = table.link();
                assert_eq!(nominal.derated(1e-4), nominal.derated(1e-3));
                assert_eq!(nominal.derated(-1.0), nominal.derated(1e-3));
                assert_eq!(nominal.derated(f64::NAN), nominal.derated(1.0));
                assert_eq!(nominal.derated(f64::INFINITY), nominal.derated(1.0));
                assert_eq!(table.rows().len(), model.cut_points().len());
                for derating in deratings {
                    let label = format!("{} over {} at {derating}", model.name(), context.label());
                    let link = nominal.derated(derating);
                    let derated = context.clone().with_link_derating(derating);
                    let optimizer = PartitionOptimizer::new(derated);
                    for (row, cut) in table.rows().iter().zip(model.cut_points()) {
                        let plan = optimizer.evaluate(model, cut);
                        assert_eq!(row.index(), plan.cut_index, "{label}");
                        assert!(
                            costs_like(row.cost(link), &plan),
                            "{label}, cut {}",
                            cut.index
                        );
                    }
                    for &objective in Objective::ALL {
                        let label = format!("{label}, {}", objective.tag());
                        match (
                            table.optimum(link, objective),
                            optimizer.optimize(model, objective),
                        ) {
                            (Some((row, cost)), Ok(plan)) => {
                                assert_eq!(table.rows()[row].index(), plan.cut_index, "{label}");
                                assert!(costs_like(cost, &plan), "{label}");
                            }
                            (None, Err(CoreError::WorkloadInfeasible { .. })) => {}
                            (table, optimizer) => {
                                panic!("{label}: table {table:?}, optimiser {optimizer:?}")
                            }
                        }
                    }
                }
            }
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
