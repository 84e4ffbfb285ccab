//! The placement pin: every online placement decision folded into one FNV
//! digest.
//!
//! `simulate_placement` replays one body's residency through a policy, and
//! its outcome (re-plans, migrations, final cut and the energy's bits)
//! enters every churned fleet's checkpoint.  This test replays a grid of
//! churn samples through every policy, objective, archetype model and radio,
//! and pins the digest of all their outcomes, so a change to the cut
//! arithmetic, the link derating or a policy's decision that moves any
//! outcome by one bit fails here by name.
//!
//! The path is `+ − × ÷`, comparisons and the churn draw's uniform floats:
//! no `ln`, `log10`, `exp` or `powf` (the link contexts come from fixed
//! transceiver parameters, not the channel model), so the digest is the
//! same on any IEEE-754 host.

use hidwa_core::flags::Tag;
use hidwa_core::fleet::placement::simulate_placement;
use hidwa_core::fleet::{ChurnSpec, PolicyKind};
use hidwa_core::partition::Objective;
use hidwa_core::population::{
    BodyArchetype, BodyScenario, ChurnModel, ChurnSample, LeafArchetype, PopulationModel,
};
use hidwa_core::scenario;
use hidwa_core::sealed::fnv1a64;
use hidwa_netsim::mac::MacPolicy;
use hidwa_phy::RadioTechnology;
use hidwa_units::TimeSpan;

/// The archetype names placement maps to a model: the three of
/// `mixed_default` and the fallback every other name takes.
const ARCHETYPES: [&str; 4] = ["health-patch", "ar-assistant", "ble-minimal", "uniform"];

/// The two radios placement builds a base context for.
const RADIOS: [RadioTechnology; 2] = [RadioTechnology::WiR, RadioTechnology::Ble];

/// Hysteresis thresholds: always migrate on any gain, the default, and
/// migrate only to escape infeasibility.
const THRESHOLDS: [f64; 3] = [0.0, 0.1, 2.0];

/// Bodies sampled per churn model.
const BODIES: u64 = 170;

/// The pinned digest of every outcome, and how many outcomes it covers.
const PINNED_DIGEST: u64 = 0x37c1_b1cb_68a7_3f68;
const PINNED_OUTCOMES: usize = 244_800;

/// A body of the single-archetype population named `name` over `technology`.
fn scenario_of(name: &str, technology: RadioTechnology) -> BodyScenario {
    let leaves = scenario::standard_leaf_set()
        .into_iter()
        .map(LeafArchetype::fixed)
        .collect();
    let archetype = BodyArchetype::new(name, 1.0, technology, MacPolicy::Polling, leaves);
    PopulationModel::new(vec![archetype]).sample(0x91AC3, 0)
}

/// About 2000 churn samples: four fades × three epoch counts × `BODIES`.
fn churn_samples() -> Vec<ChurnSample> {
    let horizon = TimeSpan::from_seconds(60.0);
    let mut samples = Vec::new();
    for fade in [0.0, 0.3, 0.6, 0.95] {
        for epochs in [1, 4, 9] {
            let churn = ChurnModel::with_rate(0.4)
                .with_epochs(epochs)
                .with_link_fade(fade);
            samples.extend((0..BODIES).map(|body| churn.sample(0xC0FFEE, body, horizon)));
        }
    }
    samples
}

/// Every spec the grid replays: each policy under each objective, and
/// hysteresis at each of `THRESHOLDS`.
fn specs() -> Vec<ChurnSpec> {
    let churn = ChurnModel::with_rate(0.4);
    let mut specs = Vec::new();
    for &objective in Objective::ALL {
        for &policy in PolicyKind::ALL {
            let spec = ChurnSpec::new(churn.clone(), policy).with_objective(objective);
            if policy == PolicyKind::Hysteresis {
                specs.extend(
                    THRESHOLDS
                        .iter()
                        .map(|&threshold| spec.clone().with_hysteresis_threshold(threshold)),
                );
            } else {
                specs.push(spec);
            }
        }
    }
    specs
}

#[test]
fn placement_outcomes_match_the_pinned_digest() {
    let samples = churn_samples();
    let specs = specs();
    let mut bytes = Vec::new();
    let (mut outcomes, mut replans, mut migrations) = (0usize, 0u64, 0u64);
    for name in ARCHETYPES {
        for technology in RADIOS {
            let scenario = scenario_of(name, technology);
            for spec in &specs {
                for sample in &samples {
                    let outcome = simulate_placement(spec, &scenario, sample);
                    bytes.extend_from_slice(&outcome.replans.to_be_bytes());
                    bytes.extend_from_slice(&outcome.migrations.to_be_bytes());
                    bytes.extend_from_slice(&(outcome.final_cut as u64).to_be_bytes());
                    bytes.extend_from_slice(&outcome.energy.as_joules().to_bits().to_be_bytes());
                    outcomes += 1;
                    replans += outcome.replans;
                    migrations += outcome.migrations;
                }
            }
        }
    }
    // The grid exercises every decision, not just the do-nothing one.
    assert!(
        replans > 0 && migrations > 0,
        "{replans} replans, {migrations} migrations"
    );
    assert_eq!(
        (outcomes, format!("{:016x}", fnv1a64(&bytes))),
        (PINNED_OUTCOMES, format!("{PINNED_DIGEST:016x}")),
        "placement outcomes moved ({replans} replans, {migrations} migrations)"
    );
}
