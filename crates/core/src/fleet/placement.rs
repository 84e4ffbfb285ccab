//! Online placement policies for a fleet under churn.
//!
//! A static fleet decides each body's partition point once, offline.  A
//! *living* fleet cannot: bodies arrive and depart
//! ([`ChurnModel`]), and a body's link fades
//! and recovers across context epochs, so the cut that was optimal at
//! admission drifts off-optimum over the residency.  This module is the
//! decision layer that reacts: a policy ([`PolicyKind`]) watches each
//! context epoch and chooses between *keeping* the current cut and
//! *migrating* to a freshly optimised one, with every adopted change
//! counted as a migration carrying an explicit energy cost (state transfer,
//! model reload, dropped in-flight activations).
//!
//! The shape mirrors ccicconetti/stateful-faas-sim (SNIPPETS.md): competing
//! policies replayed over the same deterministic event stream, compared by a
//! reported migration rate.  Here the "event stream" is the per-body churn
//! sample — a pure function of `(base_seed, body_index)` — so policy A vs
//! policy B at 10k bodies is an exactly reproducible experiment at any
//! thread width, shard layout or process boundary.
//!
//! Three policies span the design space:
//!
//! * [`PolicyKind::StaticAtAdmission`] — plan once when the body arrives,
//!   never touch it again (the do-nothing baseline: zero migrations,
//!   maximum drift);
//! * [`PolicyKind::ReoptimizeOnChange`] — re-run the optimiser every context
//!   epoch and always adopt the winner (the oracle baseline: minimum drift,
//!   maximum migration churn);
//! * [`PolicyKind::Hysteresis`] — re-run the optimiser but migrate only when
//!   the improvement beats a relative threshold, trading a bounded drift for
//!   a bounded migration rate.
//!
//! [`simulate_placement`] makes each epoch's decision with one `match` on
//! the policy, whose tag also names it in CLI flags and bench rows;
//! [`ChurnSpec`] bundles churn model + policy + objective + migration cost
//! into the one value a [`FleetConfig`](super::FleetConfig) (and the
//! process-boundary [`DriverFleetSpec`](super::DriverFleetSpec)) carries.

use crate::flags::Tag;
use crate::partition::{Objective, PartitionContext, PartitionOptimizer};
use crate::population::{BodyScenario, ChurnModel, ChurnSample};
use crate::serve::codec::ModelId;
use hidwa_isa::models::WearableModel;
use hidwa_phy::RadioTechnology;
use hidwa_units::Energy;

/// An online placement policy: how a body's cut reacts to each new context
/// epoch (see [`simulate_placement`]), named by its tag across CLI flags,
/// bench rows and the driver's process boundary.
///
/// Every policy is a pure function of the epoch's context — placement runs
/// inside the fleet's deterministic per-body fold, so any hidden state or
/// entropy would break byte-identity across thread widths and shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Plan once at admission, never re-plan.  Zero migrations by
    /// construction; the retained cut silently degrades (or goes
    /// infeasible) as the link fades.
    StaticAtAdmission,
    /// Re-run the optimiser every context epoch and always adopt its winner.
    ReoptimizeOnChange,
    /// Re-run the optimiser every epoch but migrate only when the candidate
    /// improves the objective by more than [`ChurnSpec`]'s relative
    /// threshold, or the retained cut has gone infeasible.  A threshold of 0
    /// degenerates to [`ReoptimizeOnChange`](Self::ReoptimizeOnChange);
    /// `threshold → ∞` to [`StaticAtAdmission`](Self::StaticAtAdmission)
    /// (with re-planning cost but no migrations).
    Hysteresis,
}

/// The flag/row tag naming a [`PolicyKind`].
impl Tag for PolicyKind {
    const ALL: &'static [Self] = &[
        Self::StaticAtAdmission,
        Self::ReoptimizeOnChange,
        Self::Hysteresis,
    ];

    fn tag(self) -> &'static str {
        match self {
            Self::StaticAtAdmission => "static-at-admission",
            Self::ReoptimizeOnChange => "reoptimize-on-change",
            Self::Hysteresis => "hysteresis",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Everything the churn-and-placement layer needs, bundled: the churn model
/// bodies are sampled under, the policy that reacts, the objective it
/// optimises, the relative hysteresis threshold (used only by
/// [`PolicyKind::Hysteresis`]) and the energy charged per adopted migration.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSpec {
    churn: ChurnModel,
    policy: PolicyKind,
    objective: Objective,
    hysteresis_threshold: f64,
    migration_cost: Energy,
}

impl ChurnSpec {
    /// Default energy charged per adopted migration: ~10 mJ, the order of
    /// re-shipping a small model partition and its state over a body link.
    pub const DEFAULT_MIGRATION_COST_J: f64 = 0.01;

    /// A spec over `churn` driven by `policy`, with the energy-delay-product
    /// objective, a 10 % hysteresis threshold and the default migration cost.
    #[must_use]
    pub fn new(churn: ChurnModel, policy: PolicyKind) -> Self {
        Self {
            churn,
            policy,
            objective: Objective::EnergyDelayProduct,
            hysteresis_threshold: 0.1,
            migration_cost: Energy::from_joules(Self::DEFAULT_MIGRATION_COST_J),
        }
    }

    /// Sets the objective online re-planning minimises.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the relative improvement [`PolicyKind::Hysteresis`] requires
    /// before migrating (clamped to `[0, ∞)`; non-finite values become 0).
    #[must_use]
    pub fn with_hysteresis_threshold(mut self, threshold: f64) -> Self {
        self.hysteresis_threshold = if threshold.is_finite() {
            threshold.max(0.0)
        } else {
            0.0
        };
        self
    }

    /// Sets the energy charged per adopted migration.
    #[must_use]
    pub fn with_migration_cost(mut self, cost: Energy) -> Self {
        self.migration_cost = cost.max(Energy::ZERO);
        self
    }

    /// The churn model bodies are sampled under.
    #[must_use]
    pub fn churn(&self) -> &ChurnModel {
        &self.churn
    }

    /// The policy driving online decisions.
    #[must_use]
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// The objective online re-planning minimises.
    #[must_use]
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The hysteresis threshold (meaningful under [`PolicyKind::Hysteresis`]).
    #[must_use]
    pub fn hysteresis_threshold(&self) -> f64 {
        self.hysteresis_threshold
    }

    /// The energy charged per adopted migration.
    #[must_use]
    pub fn migration_cost(&self) -> Energy {
        self.migration_cost
    }

    /// The canonical, bit-exact flag encoding
    /// (`--churn <value>` on the worker CLI): every `f64` crosses as raw
    /// bits, so a parsed spec reproduces this one exactly — the property the
    /// multi-process identity tests rely on.
    #[must_use]
    pub fn flag_value(&self) -> String {
        let (duty_min, duty_max) = self.churn.duty_cycle();
        format!(
            "{}:{}:{}:{}:{}:{}:{}:{}:{}",
            self.churn.rate().to_bits(),
            duty_min.to_bits(),
            duty_max.to_bits(),
            self.churn.epochs(),
            self.churn.link_fade().to_bits(),
            self.policy.tag(),
            self.hysteresis_threshold.to_bits(),
            self.objective.tag(),
            self.migration_cost.as_joules().to_bits(),
        )
    }

    /// Parses a [`flag_value`](Self::flag_value) encoding.
    ///
    /// # Errors
    /// A human-readable message naming the malformed field.
    pub fn parse_flag(value: &str) -> Result<Self, String> {
        let parts: Vec<&str> = value.split(':').collect();
        if parts.len() != 9 {
            return Err(format!(
                "--churn expects 9 colon-separated fields, got {}",
                parts.len()
            ));
        }
        let bits = |field: &str, name: &str| -> Result<f64, String> {
            let raw: u64 = field
                .parse()
                .map_err(|_| format!("churn field {name} is not a u64 bit pattern"))?;
            let value = f64::from_bits(raw);
            if value.is_finite() {
                Ok(value)
            } else {
                Err(format!("churn field {name} does not encode a finite value"))
            }
        };
        let rate = bits(parts[0], "rate")?;
        let duty_min = bits(parts[1], "duty-min")?;
        let duty_max = bits(parts[2], "duty-max")?;
        let epochs: u32 = parts[3]
            .parse()
            .map_err(|_| "churn field epochs is not a u32".to_string())?;
        let fade = bits(parts[4], "link-fade")?;
        let policy = PolicyKind::parse("churn policy", parts[5])?;
        let threshold = bits(parts[6], "hysteresis-threshold")?;
        let objective = Objective::parse("churn objective", parts[7])?;
        let migration_cost = bits(parts[8], "migration-cost")?;
        if migration_cost < 0.0 {
            return Err("churn field migration-cost is negative".to_string());
        }
        let churn = ChurnModel::with_rate(rate)
            .with_duty_cycle(duty_min, duty_max)
            .with_epochs(epochs)
            .with_link_fade(fade);
        Ok(Self::new(churn, policy)
            .with_objective(objective)
            .with_hysteresis_threshold(threshold)
            .with_migration_cost(Energy::from_joules(migration_cost)))
    }

    /// 64-bit fingerprint of the spec (FNV-1a over the canonical flag
    /// encoding) — what the checkpoint format stores so blobs folded under
    /// different churn/policy configurations never merge.  By convention a
    /// churn-free fleet fingerprints as 0.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        crate::sealed::fnv1a64(self.flag_value().as_bytes())
    }
}

/// The wearable model a body's archetype runs — the workload the placement
/// layer partitions — borrowed from the process's shared zoo
/// ([`ModelId::model`]), the same models the plan server answers from.
/// Archetype names come from
/// [`PopulationModel`](crate::population::PopulationModel) sampling; unknown
/// archetypes (including `"uniform"`) default to the keyword-spotting CNN.
#[must_use]
pub fn model_for_archetype(name: &str) -> &'static WearableModel {
    match name {
        "health-patch" => ModelId::EcgArrhythmia,
        "ar-assistant" => ModelId::VideoFeature,
        "ble-minimal" => ModelId::ImuGesture,
        _ => ModelId::KeywordSpotting,
    }
    .model()
}

/// What one body's residency cost under a policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementOutcome {
    /// Times the optimiser was re-run after admission.
    pub replans: u64,
    /// Times the adopted cut actually changed (each charged
    /// [`ChurnSpec::migration_cost`]).
    pub migrations: u64,
    /// Inference energy over the residency plus migration costs.
    pub energy: Energy,
    /// The cut the body ran in its final epoch.
    pub final_cut: usize,
}

/// Replays one body's residency through the spec's policy: admission plan in
/// epoch 0, then one policy decision per subsequent context epoch,
/// accumulating inference energy (plan leaf energy × inferences in the
/// epoch) and migration costs.
///
/// Pure: the outcome is a function of `(spec, scenario, sample)` only, so it
/// inherits the churn sample's determinism across threads, shards and
/// processes.
#[must_use]
pub fn simulate_placement(
    spec: &ChurnSpec,
    scenario: &BodyScenario,
    sample: &ChurnSample,
) -> PlacementOutcome {
    place(spec, scenario.archetype(), scenario.technology(), sample)
}

/// [`simulate_placement`] for a body of the archetype named `archetype`
/// over `technology`: all that placement reads of a scenario.
pub(crate) fn place(
    spec: &ChurnSpec,
    archetype: &str,
    technology: RadioTechnology,
    sample: &ChurnSample,
) -> PlacementOutcome {
    let model = model_for_archetype(archetype);
    let objective = spec.objective();
    let base_context = match technology {
        RadioTechnology::Ble => PartitionContext::ble_default(),
        _ => PartitionContext::wir_default(),
    };
    let epochs = sample.link_derate.len().max(1);
    let epoch_seconds = sample.active().as_seconds() / epochs as f64;
    let inference_rate = model.inferences_per_second();

    let epoch_optimizer = |epoch: usize| {
        let derate = sample.link_derate.get(epoch).copied().unwrap_or(1.0);
        PartitionOptimizer::new(base_context.clone().with_link_derating(derate))
    };

    // Admission: optimise in the arrival epoch's context; a workload with no
    // feasible cut at all is admitted on the raw-offload plan (every model
    // in the zoo has a first cut), flagged infeasible in its metrics.
    let admission = epoch_optimizer(0);
    let mut current = admission
        .optimize(model, objective)
        .or_else(|_| admission.all_on_hub(model))
        .expect("wearable models always expose cut points");

    let mut replans = 0u64;
    let mut migrations = 0u64;
    let mut energy_joules = current.leaf_energy.as_joules() * inference_rate * epoch_seconds;

    for epoch in 1..epochs {
        let optimizer = epoch_optimizer(epoch);
        // Re-cost the deployed cut under the new context so the policy sees
        // its true current cost (and feasibility).
        let retained = model
            .cut_points()
            .iter()
            .find(|cut| cut.index == current.cut_index)
            .map_or_else(|| current.clone(), |cut| optimizer.evaluate(model, cut));
        // Each optimiser run is a re-plan, whether or not it moves the cut;
        // an epoch with no feasible cut keeps the retained one.
        let plan = match spec.policy() {
            PolicyKind::StaticAtAdmission => retained,
            PolicyKind::ReoptimizeOnChange => {
                replans += 1;
                optimizer.optimize(model, objective).unwrap_or(retained)
            }
            PolicyKind::Hysteresis => {
                replans += 1;
                let retained_key = objective.key(retained.leaf_energy, retained.latency);
                let bar = retained_key * (1.0 - spec.hysteresis_threshold());
                match optimizer.optimize(model, objective) {
                    Ok(candidate)
                        if !retained.feasible
                            || objective.key(candidate.leaf_energy, candidate.latency) < bar =>
                    {
                        candidate
                    }
                    _ => retained,
                }
            }
        };
        if plan.cut_index != current.cut_index {
            migrations += 1;
            energy_joules += spec.migration_cost().as_joules();
        }
        current = plan;
        energy_joules += current.leaf_energy.as_joules() * inference_rate * epoch_seconds;
    }

    PlacementOutcome {
        replans,
        migrations,
        energy: Energy::from_joules(energy_joules),
        final_cut: current.cut_index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationModel;
    use hidwa_units::TimeSpan;

    fn sample_with_derates(derates: &[f64]) -> ChurnSample {
        ChurnSample {
            arrival: TimeSpan::ZERO,
            departure: TimeSpan::from_seconds(10.0),
            duty: 1.0,
            link_derate: derates.to_vec(),
        }
    }

    fn spec(policy: PolicyKind) -> ChurnSpec {
        ChurnSpec::new(ChurnModel::with_rate(0.5), policy)
    }

    fn scenario_of(archetype: &str) -> BodyScenario {
        let population = PopulationModel::mixed_default();
        (0..512u64)
            .map(|i| population.sample(5, i))
            .find(|s| s.archetype() == archetype)
            .unwrap_or_else(|| panic!("mixed population samples {archetype}"))
    }

    #[test]
    fn static_policy_never_migrates() {
        let scenario = scenario_of("health-patch");
        let sample = sample_with_derates(&[1.0, 0.2, 1.0, 0.2]);
        let outcome = simulate_placement(&spec(PolicyKind::StaticAtAdmission), &scenario, &sample);
        assert_eq!(outcome.migrations, 0);
        assert_eq!(outcome.replans, 0);
        assert!(outcome.energy > Energy::ZERO);
    }

    #[test]
    fn reoptimize_replans_every_epoch_and_migrates_on_fades() {
        let scenario = scenario_of("health-patch");
        // Alternating hard fades move the ECG model's EDP optimum between
        // raw offload (cut 0, healthy link) and compute-on-leaf (faded).
        let sample = sample_with_derates(&[1.0, 0.2, 1.0, 0.2, 1.0, 0.2]);
        let outcome = simulate_placement(&spec(PolicyKind::ReoptimizeOnChange), &scenario, &sample);
        assert_eq!(outcome.replans, 5);
        assert!(
            outcome.migrations > 0,
            "severe link fades never moved the cut"
        );
    }

    #[test]
    fn hysteresis_migrates_no_more_than_reoptimize() {
        let scenario = scenario_of("health-patch");
        let sample = sample_with_derates(&[1.0, 0.2, 0.9, 0.25, 1.0, 0.5]);
        let eager = simulate_placement(&spec(PolicyKind::ReoptimizeOnChange), &scenario, &sample);
        let cautious = simulate_placement(
            &spec(PolicyKind::Hysteresis).with_hysteresis_threshold(10.0),
            &scenario,
            &sample,
        );
        assert!(cautious.migrations <= eager.migrations);
        // An effectively infinite threshold only migrates to escape
        // infeasibility, and it still pays the re-planning work.
        assert_eq!(cautious.replans, 5);
    }

    #[test]
    fn placement_is_pure() {
        let scenario = scenario_of("ar-assistant");
        let sample = ChurnModel::with_rate(0.6).sample(42, 3, TimeSpan::from_seconds(8.0));
        let spec = spec(PolicyKind::Hysteresis);
        let a = simulate_placement(&spec, &scenario, &sample);
        let b = simulate_placement(&spec, &scenario, &sample);
        assert_eq!(a, b);
    }

    #[test]
    fn churn_spec_flag_round_trips_bit_exactly() {
        let spec = ChurnSpec::new(
            ChurnModel::with_rate(0.37)
                .with_duty_cycle(0.6, 0.8)
                .with_epochs(6)
                .with_link_fade(0.45),
            PolicyKind::Hysteresis,
        )
        .with_objective(Objective::Latency)
        .with_hysteresis_threshold(0.25)
        .with_migration_cost(Energy::from_milli_joules(3.0));
        let parsed = ChurnSpec::parse_flag(&spec.flag_value()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.fingerprint(), spec.fingerprint());
        assert_eq!(parsed.flag_value(), spec.flag_value());
    }

    #[test]
    fn malformed_churn_flags_are_rejected() {
        for bad in [
            "",
            "1:2:3",
            "x:0:0:4:0:hysteresis:0:edp:0",
            "0:0:0:4:0:warp:0:edp:0",
            "0:0:0:4:0:static:0:edp:0",
            "0:0:0:4:0:hysteresis:0:speed:0",
            "0:0:0:nope:0:hysteresis:0:edp:0",
        ] {
            assert!(ChurnSpec::parse_flag(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn policy_tags_round_trip() {
        let parse = |tag| PolicyKind::parse("policy", tag);
        for &kind in PolicyKind::ALL {
            assert_eq!(parse(kind.tag()), Ok(kind));
            assert_eq!(kind.to_string(), kind.tag());
        }
        for retired in ["best-fit", "static", "reoptimize"] {
            assert!(parse(retired).is_err(), "accepted {retired:?}");
        }
    }

    #[test]
    fn archetype_models_cover_the_population() {
        for (name, id) in [
            ("health-patch", ModelId::EcgArrhythmia),
            ("ar-assistant", ModelId::VideoFeature),
            ("ble-minimal", ModelId::ImuGesture),
            ("uniform", ModelId::KeywordSpotting),
            ("no-such-archetype", ModelId::KeywordSpotting),
        ] {
            let model = model_for_archetype(name);
            assert_eq!(model.name(), id.model().name(), "{name}");
            assert!(!model.cut_points().is_empty(), "{name}");
        }
    }
}
