//! Population models: deterministic sampling of heterogeneous per-body
//! scenarios.
//!
//! The paper's vision is a planet-scale population of body networks, and real
//! populations are not clones: different wearers carry different sensor
//! suites, run different traffic mixes and connect over different radios.  A
//! [`PopulationModel`] captures that spread as weighted [`BodyArchetype`]s
//! (each a distribution over leaf sets, per-leaf [`TrafficMix`]es, radio
//! technology and MAC policy), and [`PopulationModel::sample`] draws one
//! concrete [`BodyScenario`] per body.
//!
//! # Determinism model
//!
//! Body `i`'s scenario is a **pure function of `(base_seed, i)`**: sampling
//! seeds a fresh SplitMix64-backed RNG from the per-body seed (the same
//! [`body_seed`] finaliser the fleet layer uses for simulation seeds, domain-
//! separated by a constant), draws the archetype, per-leaf presence and
//! per-leaf traffic in a fixed order, and reads nothing but the population
//! (its draw table, see below, is a function of the population alone).
//! Two consequences the fleet layer builds on:
//!
//! * a body's scenario is byte-identical no matter which thread **or
//!   machine** materialises it, at any
//!   [`SweepRunner`](crate::sweep::SweepRunner) width — the property the
//!   fleet layer's shard runners ([`ShardPlan`](crate::fleet::ShardPlan))
//!   and checkpoint resume rely on to re-derive any body without
//!   coordination, and
//! * scenarios never need to be stored — any body can be re-derived on
//!   demand, which is what lets a 10k-body stream run with O(1) scenario
//!   memory.
//!
//! # Draws
//!
//! Every draw a body makes takes one 64-bit word `w` from its RNG and reads
//! the 53-bit integer `k = w >> 11` as the uniform `k · 2⁻⁵³`, and each
//! draw's outcome is monotone in `k`: a presence draw is "worn" exactly below
//! some `k`, and a weighted choice (the archetype, a leaf's traffic entry)
//! picks an index that never falls as `k` grows — the scaled target only
//! grows, so its running remainder goes negative no later.  So each outcome
//! is a count of integer thresholds at or below `k`, one per index a choice
//! can pass (and one per presence draw), found by a binary search over the
//! float draw itself.  A population builds one draw table, on first use, in
//! one walk over its archetypes and their leaf slots: the archetype
//! thresholds and, per slot, its presence and traffic-entry thresholds,
//! which entries are bursty, and the node configuration of the slot's leaf
//! with each traffic entry it can draw, over the link the channel model
//! derives for it.  The thresholds are the population's one draw:
//! [`PopulationModel::sample`] and a fleet fold's body draw walk the same
//! loop of integer compares and adds.  `sample` builds each present leaf's
//! spec; the fold's draw puts a reference to each present leaf's node into
//! the body's node list and returns the body's archetype and
//! [class](BodyScenario::class), so a fold runs a body, or finds that it
//! repeats one already run, without building its scenario, its nodes or
//! their names.  The float draw loop the thresholds stand for is kept only
//! as the tests' reference.
//!
//! Two further guarantees are load-bearing for the fleet algebra (and
//! regression-tested in `tests/population_edges.rs`): an archetype with zero
//! (or clamped-to-zero) weight is **never** sampled while any positive
//! weight exists (the degenerate all-zero population falls back to its first
//! archetype), and a single-archetype population reproduces
//! [`PopulationModel::uniform`]'s output exactly, whatever its weight.
//!
//! # Example
//!
//! ```
//! use hidwa_core::population::PopulationModel;
//!
//! let population = PopulationModel::mixed_default();
//! let a = population.sample(42, 7);
//! let b = population.sample(42, 7);
//! assert_eq!(a.leaves().len(), b.leaves().len());
//! assert_eq!(a.archetype(), b.archetype());
//! // Different bodies draw (statistically) different scenarios.
//! assert!((0..64).any(|i| population.sample(42, i).archetype() != a.archetype()));
//! ```

use crate::scenario::{self, LeafSpec};
use hidwa_eqs::body::BodySite;
use hidwa_netsim::mac::MacPolicy;
use hidwa_netsim::node::{LinkParams, NodeConfig};
use hidwa_netsim::sim::Simulation;
use hidwa_netsim::traffic::{self, TrafficMix, TrafficPattern};
use hidwa_phy::RadioTechnology;
use hidwa_units::{DataRate, Power, TimeSpan};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// SplitMix64 finaliser decorrelating per-body seeds: adjacent body indices
/// map to statistically independent streams even for `base_seed = 0`.  The
/// fleet layer feeds the result to each body's simulation; scenario sampling
/// re-finalises it under a domain-separation constant so the two streams
/// never alias.
#[must_use]
pub fn body_seed(base_seed: u64, body_index: u64) -> u64 {
    let mut z =
        base_seed.wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(body_index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Domain-separation constant between a body's simulation RNG stream and its
/// scenario-sampling RNG stream.
const SCENARIO_DOMAIN: u64 = 0x5CE7_A810_D0AB_1E55;

/// Domain-separation constant for a body's churn draws (arrival, dwell, duty
/// cycle, per-epoch link derating).  Distinct from [`SCENARIO_DOMAIN`] so
/// enabling churn never perturbs the scenario stream: a body's leaf set and
/// traffic mix are identical with churn on or off.
const CHURN_DOMAIN: u64 = 0x7D1A_C0DE_5EA5_0A11;

/// One leaf slot of an archetype: the base [`LeafSpec`], how likely the leaf
/// is to be worn at all, and the [`TrafficMix`] its traffic pattern is drawn
/// from.
#[derive(Debug, Clone)]
pub struct LeafArchetype {
    spec: LeafSpec,
    presence: f64,
    traffic: TrafficMix,
}

impl LeafArchetype {
    /// A leaf present on every body of the archetype, always running the
    /// spec's own traffic pattern — the homogeneous building block
    /// [`PopulationModel::uniform`] is made of.
    #[must_use]
    pub fn fixed(spec: LeafSpec) -> Self {
        let traffic = TrafficMix::fixed(spec.traffic.clone());
        Self {
            spec,
            presence: 1.0,
            traffic,
        }
    }

    /// A leaf worn with probability `presence` (clamped to `[0, 1]`; NaN
    /// means never) whose traffic pattern is drawn from `traffic` per body.
    #[must_use]
    pub fn new(spec: LeafSpec, presence: f64, traffic: TrafficMix) -> Self {
        Self {
            spec,
            presence: if presence.is_nan() {
                0.0
            } else {
                presence.clamp(0.0, 1.0)
            },
            traffic,
        }
    }

    /// The base leaf specification (site, modality, compute power).
    #[must_use]
    pub fn spec(&self) -> &LeafSpec {
        &self.spec
    }

    /// Probability the leaf is present on a sampled body.
    #[must_use]
    pub fn presence(&self) -> f64 {
        self.presence
    }

    /// The traffic mix the leaf's pattern is drawn from.
    #[must_use]
    pub fn traffic(&self) -> &TrafficMix {
        &self.traffic
    }

    /// The leaf a body carries when its traffic draw picked entry `entry`
    /// of the mix; one past the last entry is an all-zero mix's `Silent`.
    fn with_entry(&self, entry: usize) -> LeafSpec {
        let traffic = self.traffic.entries().get(entry);
        LeafSpec {
            traffic: traffic.map_or(TrafficPattern::Silent, |(_, t)| t.clone()),
            ..self.spec.clone()
        }
    }
}

/// A weighted class of wearers: which leaves they carry (each with a presence
/// probability and a traffic mix), over which radio, under which MAC policy.
#[derive(Debug, Clone)]
pub struct BodyArchetype {
    name: Arc<str>,
    weight: f64,
    technology: RadioTechnology,
    policy: MacPolicy,
    leaves: Vec<LeafArchetype>,
}

impl BodyArchetype {
    /// Creates an archetype.  Non-finite or negative weights are clamped to
    /// zero (a zero-weight archetype is never sampled unless every weight is
    /// zero, in which case the first archetype wins).
    #[must_use]
    pub fn new(
        name: impl AsRef<str>,
        weight: f64,
        technology: RadioTechnology,
        policy: MacPolicy,
        leaves: Vec<LeafArchetype>,
    ) -> Self {
        Self {
            name: Arc::from(name.as_ref()),
            weight: if weight.is_finite() && weight > 0.0 {
                weight
            } else {
                0.0
            },
            technology,
            policy,
            leaves,
        }
    }

    /// Archetype label (interned; shared by every scenario drawn from it).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The interned label itself, for summaries that carry it.
    pub(crate) fn label(&self) -> &Arc<str> {
        &self.name
    }

    /// Relative weight of the archetype in the population.
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Radio technology connecting this archetype's leaves to the hub.
    #[must_use]
    pub fn technology(&self) -> RadioTechnology {
        self.technology
    }

    /// MAC policy on this archetype's shared medium.
    #[must_use]
    pub fn policy(&self) -> MacPolicy {
        self.policy
    }

    /// The leaf slots bodies of this archetype draw from.
    #[must_use]
    pub fn leaves(&self) -> &[LeafArchetype] {
        &self.leaves
    }
}

/// A distribution over body networks: weighted archetypes, sampled per body.
#[derive(Debug, Clone)]
pub struct PopulationModel {
    archetypes: Vec<BodyArchetype>,
    /// The draw table, a pure function of `archetypes` built on first use.
    /// Only [`new`](Self::new) makes a population, so a builder's result
    /// starts with it empty.
    table: OnceLock<DrawTable>,
}

impl PopulationModel {
    /// Creates a population from explicit archetypes.
    ///
    /// # Panics
    /// Panics if `archetypes` is empty — a population must describe at least
    /// one body class.
    #[must_use]
    pub fn new(archetypes: Vec<BodyArchetype>) -> Self {
        assert!(
            !archetypes.is_empty(),
            "PopulationModel needs at least one archetype"
        );
        Self {
            archetypes,
            table: OnceLock::new(),
        }
    }

    /// The homogeneous population: every body carries exactly `leaves` with
    /// their own traffic patterns over one radio and MAC policy.  This is the
    /// old `FleetConfig` behaviour expressed as a (degenerate) population —
    /// sampling it yields the identical scenario for every body.
    #[must_use]
    pub fn uniform(technology: RadioTechnology, leaves: Vec<LeafSpec>, policy: MacPolicy) -> Self {
        Self::new(vec![BodyArchetype::new(
            "uniform",
            1.0,
            technology,
            policy,
            leaves.into_iter().map(LeafArchetype::fixed).collect(),
        )])
    }

    /// A paper-flavoured heterogeneous default: health-patch wearers
    /// (ECG-centric, Wi-R), AR-assistant wearers (audio + vision heavy,
    /// Wi-R) and a legacy BLE minimal-tracker class.  Used by the
    /// heterogeneous-fleet benches and `examples/fleet.rs`.
    #[must_use]
    pub fn mixed_default() -> Self {
        use hidwa_energy::sensing::SensorModality;
        let leaf = |name: &'static str,
                    site: BodySite,
                    modality: SensorModality,
                    traffic: TrafficPattern,
                    compute_uw: f64| LeafSpec {
            name,
            site,
            modality,
            traffic,
            compute_power: Power::from_micro_watts(compute_uw),
        };
        let health_patch = BodyArchetype::new(
            "health-patch",
            0.5,
            RadioTechnology::WiR,
            MacPolicy::Polling,
            vec![
                LeafArchetype::new(
                    leaf(
                        "ecg-patch",
                        BodySite::Chest,
                        SensorModality::Biopotential,
                        TrafficPattern::periodic(TimeSpan::from_seconds(1.0), 512),
                        5.0,
                    ),
                    1.0,
                    TrafficMix::new(vec![
                        // Routine monitoring vs a high-rate capture mode.
                        (
                            0.7,
                            TrafficPattern::periodic(TimeSpan::from_seconds(1.0), 512),
                        ),
                        (
                            0.3,
                            TrafficPattern::periodic(TimeSpan::from_millis(250.0), 512),
                        ),
                    ]),
                ),
                LeafArchetype::new(
                    leaf(
                        "smart-ring",
                        BodySite::Finger,
                        SensorModality::Environmental,
                        TrafficPattern::periodic(TimeSpan::from_seconds(10.0), 128),
                        1.0,
                    ),
                    0.8,
                    TrafficMix::fixed(TrafficPattern::periodic(TimeSpan::from_seconds(10.0), 128)),
                ),
                LeafArchetype::new(
                    leaf(
                        "imu-wristband",
                        BodySite::Wrist,
                        SensorModality::Inertial,
                        TrafficPattern::streaming(DataRate::from_kbps(13.0), 512),
                        5.0,
                    ),
                    0.9,
                    TrafficMix::new(vec![
                        (
                            0.6,
                            TrafficPattern::streaming(DataRate::from_kbps(13.0), 512),
                        ),
                        (
                            0.4,
                            TrafficPattern::periodic(TimeSpan::from_seconds(1.0), 256),
                        ),
                    ]),
                ),
            ],
        );
        let ar_assistant = BodyArchetype::new(
            "ar-assistant",
            0.3,
            RadioTechnology::WiR,
            MacPolicy::Polling,
            vec![
                LeafArchetype::new(
                    leaf(
                        "earbuds-audio",
                        BodySite::Ear,
                        SensorModality::Audio,
                        TrafficPattern::streaming(DataRate::from_kbps(256.0), 1024),
                        50.0,
                    ),
                    1.0,
                    TrafficMix::new(vec![
                        (
                            0.7,
                            TrafficPattern::streaming(DataRate::from_kbps(256.0), 1024),
                        ),
                        (
                            0.3,
                            TrafficPattern::streaming(DataRate::from_kbps(128.0), 1024),
                        ),
                    ]),
                ),
                LeafArchetype::new(
                    leaf(
                        "camera-glasses",
                        BodySite::Face,
                        SensorModality::Vision,
                        TrafficPattern::streaming(DataRate::from_mbps(2.0), 4096),
                        500.0,
                    ),
                    1.0,
                    TrafficMix::new(vec![
                        (
                            0.5,
                            TrafficPattern::streaming(DataRate::from_mbps(2.0), 4096),
                        ),
                        (
                            0.3,
                            TrafficPattern::streaming(DataRate::from_mbps(1.0), 4096),
                        ),
                        // Event-driven capture (scene changes).
                        (
                            0.2,
                            TrafficPattern::bursty(TimeSpan::from_millis(50.0), 4096),
                        ),
                    ]),
                ),
                LeafArchetype::new(
                    leaf(
                        "imu-wristband",
                        BodySite::Wrist,
                        SensorModality::Inertial,
                        TrafficPattern::streaming(DataRate::from_kbps(13.0), 512),
                        5.0,
                    ),
                    0.7,
                    TrafficMix::fixed(TrafficPattern::streaming(DataRate::from_kbps(13.0), 512)),
                ),
            ],
        );
        let ble_minimal = BodyArchetype::new(
            "ble-minimal",
            0.2,
            RadioTechnology::Ble,
            MacPolicy::Tdma,
            vec![
                LeafArchetype::new(
                    leaf(
                        "smart-ring",
                        BodySite::Finger,
                        SensorModality::Environmental,
                        TrafficPattern::periodic(TimeSpan::from_seconds(10.0), 128),
                        1.0,
                    ),
                    1.0,
                    TrafficMix::new(vec![
                        (
                            0.8,
                            TrafficPattern::periodic(TimeSpan::from_seconds(10.0), 128),
                        ),
                        (
                            0.2,
                            TrafficPattern::periodic(TimeSpan::from_seconds(2.0), 128),
                        ),
                    ]),
                ),
                LeafArchetype::new(
                    leaf(
                        "fitness-band",
                        BodySite::Wrist,
                        SensorModality::Inertial,
                        TrafficPattern::periodic(TimeSpan::from_seconds(1.0), 256),
                        2.0,
                    ),
                    0.9,
                    TrafficMix::new(vec![
                        (
                            0.6,
                            TrafficPattern::periodic(TimeSpan::from_seconds(1.0), 256),
                        ),
                        (
                            0.4,
                            TrafficPattern::streaming(DataRate::from_kbps(13.0), 512),
                        ),
                    ]),
                ),
            ],
        );
        Self::new(vec![health_patch, ar_assistant, ble_minimal])
    }

    /// The archetypes of the population.
    #[must_use]
    pub fn archetypes(&self) -> &[BodyArchetype] {
        &self.archetypes
    }

    /// Sets the radio technology on **every** archetype — the homogeneous
    /// `FleetConfig::with_technology` knob expressed against a population.
    #[must_use]
    pub fn with_technology(mut self, technology: RadioTechnology) -> Self {
        for archetype in &mut self.archetypes {
            archetype.technology = technology;
        }
        Self::new(self.archetypes)
    }

    /// Sets the MAC policy on **every** archetype.
    #[must_use]
    pub fn with_policy(mut self, policy: MacPolicy) -> Self {
        for archetype in &mut self.archetypes {
            archetype.policy = policy;
        }
        Self::new(self.archetypes)
    }

    /// Replaces **every** archetype's leaf set with the given always-present,
    /// fixed-traffic leaves — the homogeneous `FleetConfig::with_leaves` knob.
    #[must_use]
    pub fn with_leaves(mut self, leaves: Vec<LeafSpec>) -> Self {
        for archetype in &mut self.archetypes {
            archetype.leaves = leaves.iter().cloned().map(LeafArchetype::fixed).collect();
        }
        Self::new(self.archetypes)
    }

    /// Scales the offered load of **every** leaf's traffic — both the base
    /// spec pattern and every entry of the per-body [`TrafficMix`] — by
    /// `factor` (see [`TrafficPattern::scaled`]).  This is the search layer's
    /// traffic-scaling axis: weights and draw order are untouched, so a
    /// scaled population samples the scaled counterpart of exactly the
    /// scenario the unscaled population would have produced, body for body.
    /// Non-finite or non-positive factors are ignored.
    #[must_use]
    pub fn with_traffic_scale(mut self, factor: f64) -> Self {
        for archetype in &mut self.archetypes {
            for slot in &mut archetype.leaves {
                slot.spec.traffic = slot.spec.traffic.scaled(factor);
                slot.traffic = slot.traffic.scaled(factor);
            }
        }
        Self::new(self.archetypes)
    }

    /// Samples body `body_index`'s scenario — a pure function of
    /// `(base_seed, body_index)` (see the module docs), so the result is
    /// byte-identical wherever and whenever it is materialised.
    ///
    /// The scenario also records its [class](BodyScenario::class): which
    /// archetype was drawn and, per leaf slot, whether the leaf is absent
    /// or which [`TrafficMix`] entry it drew (an absent leaf's traffic draw
    /// is not part of it).  The class is packed exactly as a mixed-radix
    /// `u64` — each slot a digit of radix `entries + 2` (absent, each entry,
    /// and the `Silent` of an all-zero mix), the archetype index the least
    /// significant digit — so two bodies of one population share a class
    /// only if they carry the same leaves with the same traffic over the
    /// same radio and MAC policy.  A body whose present leaf drew
    /// [`TrafficPattern::Bursty`] has no class (its run depends on its
    /// seed), nor does one whose digits do not fit in 64 bits.
    #[must_use]
    pub fn sample(&self, base_seed: u64, body_index: u64) -> BodyScenario {
        let sim_seed = body_seed(base_seed, body_index);
        let mut leaves = Vec::new();
        let (archetype, class) = self.draw(sim_seed, |_, leaf, entry| {
            leaves.push(leaf.with_entry(entry))
        });
        let archetype = &self.archetypes[archetype];
        BodyScenario {
            body_index,
            seed: sim_seed,
            archetype: Arc::clone(&archetype.name),
            technology: archetype.technology,
            policy: archetype.policy,
            leaves,
            class,
        }
    }

    /// Body `body_index`'s archetype, as its position in
    /// [`archetypes`](Self::archetypes), and its
    /// [class](BodyScenario::class), with the node of each of its present
    /// leaves pushed onto `nodes` (emptied first) from the population's draw
    /// table: the archetype and class of `sample(base_seed, body_index)`,
    /// and the nodes its [`build_simulation`](BodyScenario::build_simulation)
    /// runs, without building the scenario or any node.
    pub(crate) fn nodes_of<'p>(
        &'p self,
        base_seed: u64,
        body_index: u64,
        nodes: &mut Vec<&'p NodeConfig>,
    ) -> (usize, Option<u64>) {
        nodes.clear();
        let sim_seed = body_seed(base_seed, body_index);
        self.draw(sim_seed, |slot, _, entry| nodes.push(&slot.nodes[entry]))
    }

    /// The draw sequence behind [`sample`](Self::sample) and
    /// [`nodes_of`](Self::nodes_of), through the population's draw table
    /// (see the module docs): the index of the archetype drawn for the body
    /// whose simulation seed is `sim_seed`, and the body's class.  Each
    /// present leaf goes to `on_leaf`, with its slot of the table and the
    /// traffic entry it drew (one past the last is an all-zero mix's
    /// `Silent`).
    #[inline(always)]
    fn draw<'p>(
        &'p self,
        sim_seed: u64,
        mut on_leaf: impl FnMut(&'p DrawSlot, &'p LeafArchetype, usize),
    ) -> (usize, Option<u64>) {
        let table = self.table.get_or_init(|| self.draw_table());
        let mut rng = StdRng::seed_from_u64(sim_seed ^ SCENARIO_DOMAIN);
        let mut draw = || rng.next_u64() >> 11;
        let archetype = at_or_below(&table.archetype, draw());
        let slots = &table.slots[table.spans[archetype].clone()];
        // Per-leaf draws, in leaf order: presence, then traffic.  Every leaf
        // consumes exactly two draws whether or not it is present, so
        // scenarios stay stable under presence-probability tweaks.
        let mut class = Some(0u64);
        let mut bursty = false;
        for (slot, leaf) in slots.iter().zip(&self.archetypes[archetype].leaves) {
            let present = draw() < slot.absent_from;
            let drawn = at_or_below(&slot.entries, draw());
            bursty |= present & slot.bursty[drawn];
            if present {
                on_leaf(slot, leaf, drawn);
            }
            // Digit 0 is absent, 1 + i entry i.
            let radix = slot.entries.len() as u64 + 2;
            let digit = u64::from(present) * (1 + drawn as u64);
            class = class.and_then(|c| c.checked_mul(radix)?.checked_add(digit));
        }
        let archetypes = self.archetypes.len() as u64;
        let class = class.and_then(|c| c.checked_mul(archetypes)?.checked_add(archetype as u64));
        (archetype, class.filter(|_| !bursty))
    }

    /// The table that [`draw`](Self::draw) walks: thresholds searched out of
    /// the float draws (see the module docs), and each slot's nodes resolved
    /// through a link table that lives only while the table is built.
    fn draw_table(&self) -> DrawTable {
        // The least draw `k` for which `above(k)` holds (2^53 if none), for
        // an `above` that never turns false again as `k` grows.  Many never
        // turn true (a leaf always worn, a mix's last entry), so the search
        // tries the last draw first.
        let threshold = |above: &dyn Fn(&mut FixedDraw) -> bool| {
            let (mut low, mut high) = (0, 1u64 << 53);
            if !above(&mut FixedDraw((high - 1) << 11)) {
                return high;
            }
            while low < high {
                let mid = low + (high - low) / 2;
                if above(&mut FixedDraw(mid << 11)) {
                    high = mid;
                } else {
                    low = mid + 1;
                }
            }
            low
        };
        let archetype = (0..self.archetypes.len() - 1)
            .map(|index| threshold(&|draw| self.draw_archetype(draw) > index))
            .collect();
        let links = LinkCache::for_population(self);
        let mut spans = Vec::with_capacity(self.archetypes.len());
        let mut slots = Vec::new();
        for archetype in &self.archetypes {
            let start = slots.len();
            for leaf in &archetype.leaves {
                let entries = leaf.traffic.entries().len();
                // A degenerate mix draws `None`, digit `entries`: each of its
                // thresholds is 0.
                let drawn = |draw: &mut FixedDraw| leaf.traffic.sample(draw).0.unwrap_or(entries);
                let link = links.get(archetype.technology, leaf.spec.site);
                let (bursty, nodes) = (0..=entries)
                    .map(|entry| {
                        let leaf = leaf.with_entry(entry);
                        let bursty = matches!(leaf.traffic, TrafficPattern::Bursty { .. });
                        (bursty, scenario::leaf_node(&leaf, link))
                    })
                    .unzip();
                slots.push(DrawSlot {
                    absent_from: threshold(&|draw| !draw.gen_bool(leaf.presence)),
                    entries: (0..entries)
                        .map(|index| threshold(&|draw| drawn(draw) > index))
                        .collect(),
                    bursty,
                    nodes,
                });
            }
            spans.push(start..slots.len());
        }
        DrawTable {
            archetype,
            spans,
            slots,
        }
    }

    /// The archetype draw: one uniform over cumulative weights (the shared
    /// `weighted_index` helper, so mix and archetype draws stay in sync).
    /// A degenerate all-zero-weight population still consumes its draw and
    /// falls back to the first archetype.
    fn draw_archetype(&self, rng: &mut impl RngCore) -> usize {
        traffic::weighted_index(rng, self.archetypes.len(), |i| self.archetypes[i].weight)
            .unwrap_or(0)
    }

    /// The distinct `(technology, body site)` pairs any scenario sampled from
    /// this population can require — the domain a [`LinkCache`] precomputes.
    #[must_use]
    pub fn link_domain(&self) -> Vec<(RadioTechnology, BodySite)> {
        let mut pairs: Vec<(RadioTechnology, BodySite)> = Vec::new();
        for archetype in &self.archetypes {
            for slot in &archetype.leaves {
                let pair = (archetype.technology, slot.spec.site);
                if !pairs.contains(&pair) {
                    pairs.push(pair);
                }
            }
        }
        pairs
    }
}

/// A population's draws as integer thresholds (see the module docs): the
/// archetype, and per leaf slot its presence and traffic entry, with the
/// nodes each slot can draw.
#[derive(Debug, Clone)]
struct DrawTable {
    /// The archetype drawn is the number of these at or below its draw.
    archetype: Vec<u64>,
    /// Per archetype, its leaf slots' range in `slots`.
    spans: Vec<Range<usize>>,
    slots: Vec<DrawSlot>,
}

/// One leaf slot's two draws as thresholds, and what each traffic entry it
/// can draw runs as.
#[derive(Debug, Clone)]
struct DrawSlot {
    /// The leaf is worn exactly when its presence draw is below this.
    absent_from: u64,
    /// The traffic entry drawn is the number of these at or below its draw;
    /// one past the last entry is an all-zero mix's `Silent`.
    entries: Vec<u64>,
    /// Per entry drawn, one past the last included, whether it is bursty.
    bursty: Vec<bool>,
    /// Per entry drawn, one past the last included, the node
    /// [`scenario::leaf_node`] builds for the leaf with that traffic over
    /// the population's link.
    nodes: Vec<NodeConfig>,
}

/// How many of `thresholds` are at or below the 53-bit draw `k`: the index
/// a threshold draw picks.
#[inline(always)]
fn at_or_below(thresholds: &[u64], k: u64) -> usize {
    thresholds.iter().filter(|&&t| t <= k).count()
}

/// An RNG whose every word is the one given: the fixed draw a
/// [`DrawTable`] search evaluates the reference at.
struct FixedDraw(u64);

impl RngCore for FixedDraw {
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// One concrete body drawn from a population: the leaf set (with sampled
/// traffic patterns), radio, MAC policy and the seed its simulation runs
/// under.
#[derive(Debug, Clone)]
pub struct BodyScenario {
    body_index: u64,
    seed: u64,
    archetype: Arc<str>,
    technology: RadioTechnology,
    policy: MacPolicy,
    leaves: Vec<LeafSpec>,
    class: Option<u64>,
}

impl BodyScenario {
    /// Position of the body in the fleet.
    #[must_use]
    pub fn body_index(&self) -> u64 {
        self.body_index
    }

    /// Seed the body's simulation runs under.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Name of the archetype the body was drawn from.
    #[must_use]
    pub fn archetype(&self) -> &str {
        &self.archetype
    }

    /// Interned archetype label (cheap to propagate into summaries).
    #[must_use]
    pub fn archetype_label(&self) -> &Arc<str> {
        &self.archetype
    }

    /// Radio technology of the body's star network.
    #[must_use]
    pub fn technology(&self) -> RadioTechnology {
        self.technology
    }

    /// MAC policy of the body's shared medium.
    #[must_use]
    pub fn policy(&self) -> MacPolicy {
        self.policy
    }

    /// The body's sampled leaves (traffic patterns already drawn).
    #[must_use]
    pub fn leaves(&self) -> &[LeafSpec] {
        &self.leaves
    }

    /// The body's class within its population (see
    /// [`PopulationModel::sample`]), or `None` if a present leaf is bursty
    /// or the class does not fit in 64 bits.  Bodies of one population
    /// with equal classes build identical simulations except for the seed,
    /// which only bursty sources read, so they run identically over equal
    /// spans.
    #[must_use]
    pub fn class(&self) -> Option<u64> {
        self.class
    }

    /// Materialises the scenario as a ready-to-run [`Simulation`], resolving
    /// each leaf's link through `links` (so the expensive channel-model
    /// derivation is shared across every body of the fleet).
    #[must_use]
    pub fn build_simulation(&self, links: &LinkCache) -> Simulation {
        let nodes: Vec<NodeConfig> = self
            .leaves
            .iter()
            .map(|leaf| scenario::leaf_node(leaf, links.get(self.technology, leaf.site)))
            .collect();
        Simulation::with_nodes(self.policy, nodes).with_seed(self.seed)
    }
}

/// Memoised channel-model link derivation per `(technology, body site)`.
///
/// Deriving [`LinkParams`] walks the EQS channel/capacity stack — by far the
/// most expensive part of constructing a body.  A population's draw table
/// derives each distinct pair the population can sample **once**, through
/// a cache that lives only while the table is built, and resolves every
/// leaf slot with a (tiny) linear lookup, so heterogeneous fleets pay the
/// channel model O(distinct pairs), not O(bodies × leaves) or O(folds).
/// A scenario built outside a fold resolves its leaves through a cache its
/// caller holds ([`BodyScenario::build_simulation`]).
#[derive(Debug, Clone)]
pub struct LinkCache {
    entries: Vec<((RadioTechnology, BodySite), LinkParams)>,
}

impl LinkCache {
    /// Precomputes the cache for every pair `population` can sample.
    #[must_use]
    pub fn for_population(population: &PopulationModel) -> Self {
        Self::derive(population.link_domain())
    }

    /// Precomputes the cache for every (supported technology × body site)
    /// pair — the warm link table the [`serve`](crate::serve) front-end
    /// holds so site-resolved plan queries never walk the EQS channel stack
    /// at request time.  ([`RadioTechnology::Nfmi`] / [`RadioTechnology::WiFi`]
    /// fall back to BLE-class parameters inside the channel model, so Wi-R
    /// and BLE cover the distinct derivations.)
    #[must_use]
    pub fn warm() -> Self {
        Self::derive(
            [RadioTechnology::WiR, RadioTechnology::Ble]
                .into_iter()
                .flat_map(|technology| BodySite::ALL.map(|site| (technology, site))),
        )
    }

    /// Derives the link of every `(technology, site)` pair in `pairs`.
    fn derive(pairs: impl IntoIterator<Item = (RadioTechnology, BodySite)>) -> Self {
        let entries = pairs
            .into_iter()
            .map(|(technology, site)| {
                let link = scenario::link_params_for(technology, site);
                ((technology, site), link)
            })
            .collect();
        Self { entries }
    }

    /// Link parameters for a leaf at `site` over `technology`; pairs outside
    /// the precomputed domain are derived on the fly (correct, just not
    /// cached).
    #[must_use]
    pub fn get(&self, technology: RadioTechnology, site: BodySite) -> LinkParams {
        self.entries
            .iter()
            .find(|((t, s), _)| *t == technology && *s == site)
            .map_or_else(
                || scenario::link_params_for(technology, site),
                |(_, link)| *link,
            )
    }
}

/// When bodies come and go: per-body arrival/departure times and diurnal
/// duty cycles over the fleet horizon, plus per-epoch link fading.
///
/// The paper's fleet is *alive* — wearers put devices on in the morning,
/// take them off at night, and walk through changing RF environments.  A
/// `ChurnModel` captures that as four knobs:
///
/// * **rate** `r ∈ [0, 1]` — the fraction of the horizon churned away: a
///   body arrives uniformly inside the first `r·H` seconds and dwells for
///   `(1-r)·H + U(0,1)·r·H`, so `r = 0` reproduces the always-present fleet
///   exactly and larger `r` shortens and staggers residencies;
/// * **duty cycle** `u ∈ [duty_min, duty_max]` — the diurnal on-fraction of
///   the residency actually spent generating traffic (screen-on time, worn
///   time);
/// * **epochs** — how many context windows the residency is divided into
///   (each a candidate migration point for a placement policy);
/// * **link fade** — the per-epoch link derating draw: each epoch's
///   leaf→hub link runs at `1 - U(0, fade)` of nominal goodput (and
///   correspondingly worse energy per bit), which is what makes online
///   re-planning worthwhile.
///
/// # Determinism
///
/// [`ChurnModel::sample`] is a **pure function of
/// `(base_seed, body_index, horizon)`**, like every other per-body draw: it
/// seeds a fresh RNG from [`body_seed`] under its own domain constant
/// (distinct from the scenario stream, so enabling churn never changes which
/// leaves a body carries) and consumes a fixed number of draws per body.
/// Arrivals, departures, duty cycles and epoch deratings are therefore
/// byte-identical at any thread width, shard layout or process
/// boundary — the property the fleet identity tests extend to churn.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnModel {
    rate: f64,
    duty_min: f64,
    duty_max: f64,
    epochs: u32,
    link_fade: f64,
}

impl ChurnModel {
    /// A churn model at `rate` with the default diurnal duty cycle
    /// (`0.55..=0.95`), 4 context epochs and 60 % maximum link fade.
    #[must_use]
    pub fn with_rate(rate: f64) -> Self {
        Self {
            rate: if rate.is_finite() {
                rate.clamp(0.0, 1.0)
            } else {
                0.0
            },
            duty_min: 0.55,
            duty_max: 0.95,
            epochs: 4,
            link_fade: 0.6,
        }
    }

    /// Sets the diurnal duty-cycle range (both clamped to `(0, 1]`, kept
    /// ordered).
    #[must_use]
    pub fn with_duty_cycle(mut self, min: f64, max: f64) -> Self {
        let clamp = |v: f64| {
            if v.is_finite() {
                v.clamp(1e-3, 1.0)
            } else {
                1.0
            }
        };
        let (min, max) = (clamp(min), clamp(max));
        self.duty_min = min.min(max);
        self.duty_max = min.max(max);
        self
    }

    /// Sets how many context epochs a residency is divided into (minimum 1).
    #[must_use]
    pub fn with_epochs(mut self, epochs: u32) -> Self {
        self.epochs = epochs.max(1);
        self
    }

    /// Sets the maximum per-epoch link derating (clamped to `[0, 0.95]`).
    #[must_use]
    pub fn with_link_fade(mut self, fade: f64) -> Self {
        self.link_fade = if fade.is_finite() {
            fade.clamp(0.0, 0.95)
        } else {
            0.0
        };
        self
    }

    /// Fraction of the horizon churned away.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Diurnal duty-cycle range `(min, max)`.
    #[must_use]
    pub fn duty_cycle(&self) -> (f64, f64) {
        (self.duty_min, self.duty_max)
    }

    /// Context epochs per residency.
    #[must_use]
    pub fn epochs(&self) -> u32 {
        self.epochs
    }

    /// Maximum per-epoch link derating.
    #[must_use]
    pub fn link_fade(&self) -> f64 {
        self.link_fade
    }

    /// Samples body `body_index`'s churn — a pure function of
    /// `(base_seed, body_index, horizon)` (see the type docs).  Draw order
    /// (arrival, dwell, duty, then one derating per epoch) is fixed, so every
    /// body consumes exactly `3 + epochs` draws.
    #[must_use]
    pub fn sample(&self, base_seed: u64, body_index: u64, horizon: TimeSpan) -> ChurnSample {
        let mut sample = ChurnSample {
            link_derate: Vec::with_capacity(self.epochs as usize),
            ..ChurnSample::default()
        };
        self.sample_into(base_seed, body_index, horizon, &mut sample);
        sample
    }

    /// [`sample`](Self::sample) into `sample`, whose derating buffer is
    /// reused: the one churn draw, which a fold thread makes into a buffer
    /// it keeps for all of its bodies.
    pub(crate) fn sample_into(
        &self,
        base_seed: u64,
        body_index: u64,
        horizon: TimeSpan,
        sample: &mut ChurnSample,
    ) {
        let mut rng = StdRng::seed_from_u64(body_seed(base_seed, body_index) ^ CHURN_DOMAIN);
        let arrival_frac: f64 = rng.gen_range(0.0..=1.0);
        let dwell_frac: f64 = rng.gen_range(0.0..=1.0);
        let duty: f64 = rng.gen_range(self.duty_min..=self.duty_max);
        sample.link_derate.clear();
        for _ in 0..self.epochs {
            let fade: f64 = rng.gen_range(0.0..=self.link_fade.max(0.0));
            sample.link_derate.push(1.0 - fade);
        }
        let h = horizon.as_seconds();
        let arrival = arrival_frac * self.rate * h;
        let dwell = (1.0 - self.rate) * h + dwell_frac * self.rate * h;
        let departure = (arrival + dwell).min(h);
        sample.arrival = TimeSpan::from_seconds(arrival);
        sample.departure = TimeSpan::from_seconds(departure);
        sample.duty = duty;
    }
}

/// One body's sampled churn: when it is present, how hard it runs while
/// present, and how its link fades across context epochs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnSample {
    /// When the body joins the fleet (seconds into the horizon).
    pub arrival: TimeSpan,
    /// When the body leaves again (`arrival <= departure <= horizon`).
    pub departure: TimeSpan,
    /// Diurnal duty cycle: the on-fraction of the residency.
    pub duty: f64,
    /// Per-epoch link goodput factors in `(0, 1]`, one per context epoch —
    /// the signal placement policies react to.
    pub link_derate: Vec<f64>,
}

impl ChurnSample {
    /// Wall-clock residency span (departure − arrival).
    #[must_use]
    pub fn residency(&self) -> TimeSpan {
        TimeSpan::from_seconds(self.departure.as_seconds() - self.arrival.as_seconds())
    }

    /// Duty-weighted active span — the simulated horizon of the body and
    /// the occupancy the fleet aggregator accounts.
    #[must_use]
    pub fn active(&self) -> TimeSpan {
        TimeSpan::from_seconds(self.residency().as_seconds() * self.duty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_population_reproduces_the_homogeneous_scenario() {
        let leaves = scenario::standard_leaf_set();
        let population =
            PopulationModel::uniform(RadioTechnology::WiR, leaves.clone(), MacPolicy::Polling);
        for body in [0u64, 1, 1000] {
            let scenario = population.sample(0xF1EE7, body);
            assert_eq!(scenario.archetype(), "uniform");
            assert_eq!(scenario.technology(), RadioTechnology::WiR);
            assert_eq!(scenario.policy(), MacPolicy::Polling);
            assert_eq!(scenario.leaves().len(), leaves.len());
            for (sampled, original) in scenario.leaves().iter().zip(&leaves) {
                assert_eq!(sampled.name, original.name);
                assert_eq!(sampled.traffic, original.traffic);
            }
            // The simulation seed matches the fleet layer's per-body seed.
            assert_eq!(scenario.seed(), body_seed(0xF1EE7, body));
        }
    }

    #[test]
    fn sampling_is_a_pure_function_of_seed_and_index() {
        let population = PopulationModel::mixed_default();
        for body in 0..32u64 {
            let a = population.sample(99, body);
            let b = population.sample(99, body);
            assert_eq!(a.archetype(), b.archetype());
            assert_eq!(a.seed(), b.seed());
            assert_eq!(a.technology(), b.technology());
            assert_eq!(a.policy(), b.policy());
            assert_eq!(a.leaves().len(), b.leaves().len());
            for (x, y) in a.leaves().iter().zip(b.leaves()) {
                assert_eq!(x.name, y.name);
                assert_eq!(x.site, y.site);
                assert_eq!(x.traffic, y.traffic);
            }
        }
    }

    #[test]
    fn mixed_population_actually_mixes() {
        let population = PopulationModel::mixed_default();
        let mut archetype_names = Vec::new();
        let mut node_counts = Vec::new();
        for body in 0..256u64 {
            let s = population.sample(7, body);
            if !archetype_names.contains(&s.archetype().to_string()) {
                archetype_names.push(s.archetype().to_string());
            }
            if !node_counts.contains(&s.leaves().len()) {
                node_counts.push(s.leaves().len());
            }
            assert!(!s.leaves().is_empty(), "body {body} sampled zero leaves");
        }
        assert_eq!(archetype_names.len(), 3, "saw {archetype_names:?}");
        assert!(node_counts.len() >= 2, "node counts never varied");
        // Archetype frequencies roughly track the 0.5 / 0.3 / 0.2 weights.
        let health = (0..2000u64)
            .filter(|&i| population.sample(7, i).archetype() == "health-patch")
            .count();
        let fraction = health as f64 / 2000.0;
        assert!((fraction - 0.5).abs() < 0.05, "health fraction {fraction}");
    }

    #[test]
    fn a_class_names_exactly_one_deterministic_scenario() {
        let population = PopulationModel::mixed_default();
        // Each class seen, with the archetype and leaves it stands for.
        let mut classes: Vec<(u64, String)> = Vec::new();
        let mut unclassed = 0;
        for body in 0..4000u64 {
            let scenario = population.sample(0xC1A55, body);
            let bursty = scenario
                .leaves()
                .iter()
                .any(|leaf| matches!(leaf.traffic, TrafficPattern::Bursty { .. }));
            assert_eq!(scenario.class().is_none(), bursty, "body {body}");
            let Some(class) = scenario.class() else {
                unclassed += 1;
                continue;
            };
            let leaves: Vec<_> = scenario
                .leaves()
                .iter()
                .map(|leaf| (leaf.name, &leaf.traffic))
                .collect();
            let shape = format!("{} {leaves:?}", scenario.archetype());
            match classes.iter().find(|(seen, _)| *seen == class) {
                Some((_, seen)) => assert_eq!(*seen, shape, "class {class}"),
                None => {
                    assert!(
                        classes.iter().all(|(_, seen)| *seen != shape),
                        "two classes for {shape}"
                    );
                    classes.push((class, shape));
                }
            }
        }
        // 12 health-patch, 8 non-bursty ar-assistant and 6 ble-minimal
        // leaf-and-traffic combinations.
        assert_eq!(classes.len(), 26);
        assert!(unclassed > 100, "{unclassed} bursty bodies");

        // A fixed population is one class; too many slots overflow.
        let uniform = PopulationModel::uniform(
            RadioTechnology::WiR,
            scenario::standard_leaf_set(),
            MacPolicy::Polling,
        );
        assert!(uniform.sample(1, 0).class().is_some());
        assert_eq!(uniform.sample(1, 0).class(), uniform.sample(2, 9).class());
        let periodic = |ms| TrafficPattern::periodic(TimeSpan::from_millis(ms), 64);
        let slots = |count| {
            let spec = scenario::standard_leaf_set().remove(0);
            let traffic = TrafficMix::new(vec![(1.0, periodic(100.0)), (1.0, periodic(50.0))]);
            vec![LeafArchetype::new(spec, 1.0, traffic); count]
        };
        let of = |count| {
            PopulationModel::new(vec![BodyArchetype::new(
                "many",
                1.0,
                RadioTechnology::WiR,
                MacPolicy::Polling,
                slots(count),
            )])
            .sample(3, 0)
            .class()
        };
        // Each slot is a radix-4 digit: 31 fit in 64 bits, 33 do not.
        assert!(of(31).is_some());
        assert_eq!(of(33), None);
    }

    /// The float draw loop the thresholds stand for: body `body_index`'s
    /// scenario, each draw made through its float sampler.
    fn reference_sample(
        population: &PopulationModel,
        base_seed: u64,
        body_index: u64,
    ) -> BodyScenario {
        let seed = body_seed(base_seed, body_index);
        let mut rng = StdRng::seed_from_u64(seed ^ SCENARIO_DOMAIN);
        let archetype_index = population.draw_archetype(&mut rng);
        let archetype = &population.archetypes[archetype_index];
        let mut leaves = Vec::new();
        let mut class = Some(0u64);
        for slot in &archetype.leaves {
            let present = rng.gen_bool(slot.presence);
            let (drawn, traffic) = slot.traffic.sample(&mut rng);
            // Digit 0 is absent, 1 + i entry i, 1 + entries an all-zero
            // mix's `Silent`.
            let entries = slot.traffic.entries().len() as u64;
            let mut digit = 0;
            if present {
                if matches!(traffic, TrafficPattern::Bursty { .. }) {
                    class = None;
                }
                let mut spec = slot.spec.clone();
                spec.traffic = traffic.clone();
                leaves.push(spec);
                digit = 1 + drawn.map_or(entries, |i| i as u64);
            }
            class = class.and_then(|c| c.checked_mul(entries + 2)?.checked_add(digit));
        }
        let class = class.and_then(|c| {
            c.checked_mul(population.archetypes.len() as u64)?
                .checked_add(archetype_index as u64)
        });
        BodyScenario {
            body_index,
            seed,
            archetype: Arc::clone(&archetype.name),
            technology: archetype.technology,
            policy: archetype.policy,
            leaves,
            class,
        }
    }

    /// Every field of `scenario`, in a form that compares.
    fn fields(scenario: &BodyScenario) -> impl PartialEq + std::fmt::Debug + '_ {
        let leaves: Vec<_> = scenario
            .leaves
            .iter()
            .map(|leaf| {
                let LeafSpec {
                    name,
                    site,
                    modality,
                    traffic,
                    compute_power,
                } = leaf;
                (name, site, modality, traffic, compute_power)
            })
            .collect();
        let BodyScenario {
            body_index,
            seed,
            archetype,
            technology,
            policy,
            leaves: _,
            class,
        } = scenario;
        (
            body_index, seed, archetype, technology, policy, leaves, class,
        )
    }

    /// Checks every field of `sample`, and the class `nodes_of` draws,
    /// against the reference loop for bodies `0..bodies`; returns how many
    /// have a class.
    fn assert_draws_match_the_reference(population: &PopulationModel, bodies: u64) -> usize {
        let mut classed = 0;
        let mut nodes = Vec::new();
        for body in 0..bodies {
            let want = reference_sample(population, 0xC1A55, body);
            let got = population.sample(0xC1A55, body);
            assert_eq!(fields(&got), fields(&want), "body {body}");
            let (_, class) = population.nodes_of(0xC1A55, body, &mut nodes);
            assert_eq!(class, want.class, "body {body}");
            classed += usize::from(want.class.is_some());
        }
        classed
    }

    /// Populations at the draw's edges: `mixed_default`, a uniform one,
    /// 72 bursty-or-periodic slots (no body has a class), 33 periodic slots
    /// (every class overflows 64 bits), and three weighted copies of an
    /// all-zero mix beside a leaf worn half the time.
    fn edge_populations() -> [PopulationModel; 5] {
        use hidwa_energy::sensing::SensorModality;
        let uniform = PopulationModel::uniform(
            RadioTechnology::WiR,
            scenario::standard_leaf_set(),
            MacPolicy::Polling,
        );
        // 72 bursty-or-periodic slots, each worn with probability 0.9.
        let sites = [BodySite::Wrist, BodySite::Chest, BodySite::Ear];
        let wide_slots = (0..72)
            .map(|i| {
                let spec = LeafSpec {
                    name: "burst",
                    site: sites[i % sites.len()],
                    modality: SensorModality::Inertial,
                    traffic: TrafficPattern::Silent,
                    compute_power: Power::from_micro_watts(3.0),
                };
                let traffic = TrafficMix::new(vec![
                    (
                        2.0,
                        TrafficPattern::bursty(TimeSpan::from_millis(60.0), 128),
                    ),
                    (
                        1.0,
                        TrafficPattern::periodic(TimeSpan::from_millis(90.0), 64),
                    ),
                ]);
                LeafArchetype::new(spec, 0.9, traffic)
            })
            .collect();
        // 33 periodic radix-4 slots: every class overflows 64 bits.
        let periodic = |ms| TrafficPattern::periodic(TimeSpan::from_millis(ms), 64);
        let traffic = TrafficMix::new(vec![(1.0, periodic(100.0)), (1.0, periodic(50.0))]);
        let overflow_slots =
            vec![LeafArchetype::new(scenario::standard_leaf_set().remove(0), 1.0, traffic); 33];
        let weighted = |name, weight, slots| {
            BodyArchetype::new(
                name,
                weight,
                RadioTechnology::WiR,
                MacPolicy::Polling,
                slots,
            )
        };
        let archetype = |name, slots| weighted(name, 1.0, slots);
        // A zero-weight archetype, a leaf worn half the time and an all-zero
        // mix, which always draws `Silent`.
        let odd_slots = vec![
            LeafArchetype::new(
                scenario::standard_leaf_set().remove(1),
                0.5,
                TrafficMix::new(vec![(2.0, periodic(20.0)), (1.0, periodic(40.0))]),
            ),
            LeafArchetype::new(
                scenario::standard_leaf_set().remove(2),
                1.0,
                TrafficMix::new(vec![(0.0, periodic(10.0))]),
            ),
        ];
        [
            PopulationModel::mixed_default(),
            uniform,
            PopulationModel::new(vec![archetype("wide", wide_slots)]),
            PopulationModel::new(vec![archetype("many", overflow_slots)]),
            PopulationModel::new(vec![
                weighted("never", 0.0, odd_slots.clone()),
                weighted("light", 1.0, odd_slots.clone()),
                weighted("heavy", 3.0, odd_slots),
            ]),
        ]
    }

    #[test]
    fn nodes_of_draws_the_sampled_class() {
        for (k, population) in edge_populations().iter().enumerate() {
            let classed = assert_draws_match_the_reference(population, 10_000);
            // The wide and the overflowing population have no classes.
            assert_eq!(classed > 0, k != 2 && k != 3, "population {k}");
            let table = population.table.get().expect("built by the draws");
            // Random bodies almost never draw a threshold itself, so check
            // each draw's outcome on both sides of every threshold against
            // the reference draw.
            let draws = |thresholds: &[u64]| {
                let edges = thresholds.iter().flat_map(|&t| [t.saturating_sub(1), t]);
                edges.filter(|&k| k < 1 << 53).collect::<Vec<u64>>()
            };
            let at = |k: u64| FixedDraw(k << 11);
            for k in draws(&table.archetype) {
                let want = population.draw_archetype(&mut at(k));
                assert_eq!(at_or_below(&table.archetype, k), want, "draw {k}");
            }
            let leaves = population
                .archetypes()
                .iter()
                .flat_map(BodyArchetype::leaves);
            for (slot, leaf) in table.slots.iter().zip(leaves) {
                for k in draws(&[slot.absent_from]) {
                    assert_eq!(k < slot.absent_from, at(k).gen_bool(leaf.presence()));
                }
                let entries = leaf.traffic().entries().len();
                for k in draws(&slot.entries) {
                    let want = leaf.traffic().sample(&mut at(k)).0.unwrap_or(entries);
                    assert_eq!(at_or_below(&slot.entries, k), want, "draw {k}");
                }
            }
        }
    }

    /// Checks every slot's node row in the population's draw table against
    /// [`scenario::leaf_node`] of its leaf and traffic over a link derived
    /// on the spot, and the nodes [`PopulationModel::nodes_of`] draws for
    /// bodies `0..bodies` against the nodes of the leaves `sample` draws.
    fn assert_nodes_match_the_sampled_leaves(population: &PopulationModel, bodies: u64) {
        let links = LinkCache::for_population(population);
        let mut nodes = Vec::new();
        for body in 0..bodies {
            let scenario = population.sample(0xC1A55, body);
            let (archetype, _) = population.nodes_of(0xC1A55, body, &mut nodes);
            let archetype = &population.archetypes()[archetype];
            assert_eq!(archetype.name(), scenario.archetype(), "body {body}");
            assert_eq!(archetype.technology(), scenario.technology());
            assert_eq!(archetype.policy(), scenario.policy());
            let technology = scenario.technology();
            let want = scenario
                .leaves()
                .iter()
                .map(|leaf| scenario::leaf_node(leaf, links.get(technology, leaf.site)));
            assert!(want.eq(nodes.iter().copied().cloned()), "body {body}");
        }
        let table = population.table.get().expect("built by the draws");
        let slots = population.archetypes.iter().flat_map(|archetype| {
            let technology = archetype.technology;
            archetype.leaves.iter().map(move |slot| (technology, slot))
        });
        assert_eq!(table.slots.len(), slots.clone().count());
        for ((technology, slot), drawn) in slots.zip(&table.slots) {
            let link = scenario::link_params_for(technology, slot.spec.site);
            let traffic = slot.traffic.entries().iter().map(|(_, t)| t.clone());
            let want: Vec<NodeConfig> = traffic
                .chain([TrafficPattern::Silent])
                .map(|traffic| {
                    let leaf = LeafSpec {
                        traffic,
                        ..slot.spec.clone()
                    };
                    scenario::leaf_node(&leaf, link)
                })
                .collect();
            assert_eq!(drawn.nodes, want);
        }
    }

    #[test]
    fn node_table_holds_the_nodes_of_the_sampled_leaves() {
        for population in &edge_populations() {
            assert_nodes_match_the_sampled_leaves(population, 2_000);
        }
    }

    #[test]
    fn builders_never_leave_a_stale_table() {
        // A population that has drawn, so its table exists.
        let drawn = || {
            let population = PopulationModel::mixed_default();
            let _ = population.sample(1, 0);
            assert!(population.table.get().is_some());
            population
        };
        let built = [
            drawn().with_technology(RadioTechnology::Ble),
            drawn().with_policy(MacPolicy::Tdma),
            drawn().with_leaves(scenario::standard_leaf_set()),
            drawn().with_traffic_scale(2.0),
        ];
        for population in &built {
            assert!(population.table.get().is_none());
            assert_draws_match_the_reference(population, 2_000);
            assert_nodes_match_the_sampled_leaves(population, 2_000);
        }
    }

    #[test]
    fn presence_is_clamped_and_nan_is_never_worn() {
        let leaf = |presence| {
            let spec = scenario::standard_leaf_set().remove(0);
            let traffic = TrafficMix::fixed(spec.traffic.clone());
            LeafArchetype::new(spec, presence, traffic)
        };
        for (given, want) in [
            (f64::NAN, 0.0),
            (f64::INFINITY, 1.0),
            (f64::NEG_INFINITY, 0.0),
            (-0.5, 0.0),
            (1.5, 1.0),
            (0.25, 0.25),
        ] {
            assert_eq!(leaf(given).presence(), want, "presence {given}");
        }
        let never = PopulationModel::new(vec![BodyArchetype::new(
            "never",
            1.0,
            RadioTechnology::WiR,
            MacPolicy::Polling,
            vec![leaf(f64::NAN)],
        )]);
        assert!((0..100).all(|body| never.sample(4, body).leaves().is_empty()));
    }

    #[test]
    fn scenarios_build_runnable_simulations() {
        let population = PopulationModel::mixed_default();
        let links = LinkCache::for_population(&population);
        for body in 0..8u64 {
            let scenario = population.sample(3, body);
            let mut sim = scenario.build_simulation(&links);
            assert_eq!(sim.nodes().len(), scenario.leaves().len());
            let report = sim.run(TimeSpan::from_seconds(1.0));
            assert!(report.delivery_ratio() > 0.5);
        }
    }

    #[test]
    fn link_cache_matches_direct_derivation() {
        let population = PopulationModel::mixed_default();
        let links = LinkCache::for_population(&population);
        for (technology, site) in population.link_domain() {
            let direct = scenario::link_params_for(technology, site);
            assert_eq!(links.get(technology, site), direct);
        }
        // Out-of-domain pairs fall back to on-the-fly derivation.
        let fallback = links.get(RadioTechnology::WiR, BodySite::Ankle);
        assert_eq!(
            fallback,
            scenario::link_params_for(RadioTechnology::WiR, BodySite::Ankle)
        );
    }

    #[test]
    fn churn_sampling_is_pure_and_bounded() {
        let churn = ChurnModel::with_rate(0.4);
        let horizon = TimeSpan::from_seconds(10.0);
        for body in 0..64u64 {
            let a = churn.sample(2024, body, horizon);
            let b = churn.sample(2024, body, horizon);
            assert_eq!(a, b, "churn draw not pure for body {body}");
            assert!(a.arrival >= TimeSpan::ZERO);
            assert!(a.arrival <= a.departure);
            assert!(a.departure <= horizon);
            assert!((0.55..=0.95).contains(&a.duty), "duty {}", a.duty);
            assert_eq!(a.link_derate.len(), 4);
            for &derate in &a.link_derate {
                assert!((0.4 - 1e-12..=1.0).contains(&derate), "derate {derate}");
            }
            assert!(a.active() <= a.residency());
        }
    }

    #[test]
    fn zero_churn_rate_keeps_every_body_for_the_whole_horizon() {
        let churn = ChurnModel::with_rate(0.0).with_duty_cycle(1.0, 1.0);
        let horizon = TimeSpan::from_seconds(5.0);
        for body in 0..16u64 {
            let sample = churn.sample(7, body, horizon);
            assert_eq!(sample.arrival, TimeSpan::ZERO);
            assert_eq!(sample.departure, horizon);
            assert_eq!(sample.active(), horizon);
        }
    }

    #[test]
    fn churn_draws_do_not_perturb_scenario_draws() {
        // Enabling churn must never change which leaves a body carries: the
        // two streams are domain-separated.
        let population = PopulationModel::mixed_default();
        let before: Vec<String> = (0..32)
            .map(|i| population.sample(11, i).archetype().to_string())
            .collect();
        let churn = ChurnModel::with_rate(0.8);
        let _samples: Vec<ChurnSample> = (0..32)
            .map(|i| churn.sample(11, i, TimeSpan::from_seconds(3.0)))
            .collect();
        let after: Vec<String> = (0..32)
            .map(|i| population.sample(11, i).archetype().to_string())
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn higher_churn_rates_shorten_residencies_on_average() {
        let horizon = TimeSpan::from_seconds(10.0);
        let mean_residency = |rate: f64| {
            let churn = ChurnModel::with_rate(rate);
            (0..256u64)
                .map(|i| churn.sample(3, i, horizon).residency().as_seconds())
                .sum::<f64>()
                / 256.0
        };
        let calm = mean_residency(0.1);
        let stormy = mean_residency(0.8);
        assert!(
            stormy < calm,
            "residency did not shrink with churn: {calm} -> {stormy}"
        );
    }

    #[test]
    fn population_knobs_apply_to_every_archetype() {
        let population = PopulationModel::mixed_default()
            .with_technology(RadioTechnology::WiR)
            .with_policy(MacPolicy::Tdma);
        for archetype in population.archetypes() {
            assert_eq!(archetype.technology(), RadioTechnology::WiR);
            assert_eq!(archetype.policy(), MacPolicy::Tdma);
        }
        let releaved = population.with_leaves(scenario::standard_leaf_set());
        for archetype in releaved.archetypes() {
            assert_eq!(archetype.leaves().len(), 5);
            assert!(archetype
                .leaves()
                .iter()
                .all(|l| (l.presence() - 1.0).abs() < 1e-12));
        }
    }
}
