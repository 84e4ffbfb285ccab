//! Plan serving: the partition optimiser as a warm, cacheable TCP service.
//!
//! Everything before this module *folds* — figures, fleets, checkpoints.
//! This is the first piece of the system that *serves traffic*: the paper's
//! per-wearer compute/communication partition decision, answered over a
//! socket instead of a crate link, with all the expensive state held warm
//! across requests:
//!
//! * [`PlanService`] — the I/O-free core.  Answers from the
//!   [`WearableModel`](hidwa_isa::models::WearableModel) zoo that each
//!   process builds once and shares with churn placement
//!   ([`ModelId::model`]; per-model layer profiles and cut points are
//!   construction-time caches), and holds a warm [`LinkCache`] (every
//!   supported technology × body-site channel derivation precomputed), the
//!   Fig. 3 projector, and an interned-key plan cache memoizing
//!   `(model, context-quantized, objective)` with replay-exact hit/miss
//!   counters.  Batches evaluate through the
//!   [`SweepRunner`].
//! * [`codec`] — the versioned, FNV-sealed binary request/response format
//!   ([`PlanRequest`] / [`Response`]); decoding never panics.
//! * [`server`] — the std-only TCP front-end ([`PlanServer`]) over the
//!   shared [`wire`](crate::wire) framing, plus the matching pipelined
//!   [`PlanClient`].  The server drives every connection from the epoll
//!   [`reactor`], a small fixed pool of event-loop threads, so serving is
//!   Linux-only.
//!
//! # Determinism contract
//!
//! A served answer is a **pure function of the canonical query**: the
//! service resolves link defaults, quantizes continuous context fields
//! ([`codec::quantize_f64`]) and only then consults cache or optimiser — so
//! cached answers are byte-identical to uncached recomputation, and N
//! clients hammering one server receive byte-identical responses to the
//! same requests issued serially against a fresh linked-in optimiser.  The
//! serving tests in `crates/core/tests/serve_*.rs` assert all of this at
//! the encoded-bytes level.
//!
//! # Example
//!
//! ```
//! use hidwa_core::serve::codec::{ModelId, PlanRequest, Request, Response, WireContext, WireLink};
//! use hidwa_core::partition::Objective;
//! use hidwa_core::serve::PlanService;
//!
//! let service = PlanService::new();
//! let query = Request::Plan(PlanRequest {
//!     model: ModelId::EcgArrhythmia,
//!     context: WireContext::of(WireLink::WiR),
//!     objective: Objective::LeafEnergy,
//! });
//! let answers = service.answer_batch(&[query, query]);
//! assert_eq!(answers[0], answers[1]);
//! assert!(matches!(answers[0], Response::Plan(_)));
//! let stats = service.stats();
//! assert_eq!((stats.cache_misses, stats.cache_hits), (1, 1));
//! ```

pub mod cache;
pub mod codec;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod server;
#[cfg(target_os = "linux")]
pub mod sys;

pub use cache::{PlanCache, PlanKey};
pub use codec::{
    PlanRequest, ProjectionRequest, Request, RequestEnvelope, Response, ResponseEnvelope,
    WireCodecError, WireContext, WireLink, WirePlan, WireProjection,
};
pub use server::{ClientError, PlanClient, PlanServer, ServeConfig, ThreadModel};

use crate::flags::Tag;
use crate::partition::{Objective, PartitionContext, PartitionOptimizer};
use crate::population::LinkCache;
use crate::projection::Fig3Projector;
use crate::sweep::SweepRunner;
use codec::{quantize_f64, ModelId};
use hidwa_energy::compute::{ComputeClass, ComputeEngine};
use hidwa_phy::ble::BleTransceiver;
use hidwa_phy::wir::WiRTransceiver;
use hidwa_phy::Transceiver;
use hidwa_units::{DataRate, EnergyPerBit};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A snapshot of the service's traffic and cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Queries answered (plan + projection), across all batches.
    pub requests: u64,
    /// Plan queries among them.
    pub plan_queries: u64,
    /// Projection queries among them.
    pub projection_queries: u64,
    /// Plan queries answered from the memo (serial-replay semantics).
    pub cache_hits: u64,
    /// Plan queries that required a fresh optimisation.
    pub cache_misses: u64,
    /// Memoized plans displaced by CLOCK eviction.
    pub cache_evictions: u64,
    /// Distinct plan keys currently memoized.
    pub cached_plans: u64,
}

impl ServeStats {
    /// Cache hit rate over all plan queries (`0.0` when none were served).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// A plan query after admission: link defaults resolved through the warm
/// tables and continuous fields quantized.  This — not the raw wire form —
/// is what the cache keys on and the optimiser evaluates.
#[derive(Debug, Clone, Copy)]
struct CanonicalPlan {
    model: ModelId,
    objective: Objective,
    label: LinkLabel,
    energy_per_bit_pj: f64,
    goodput_bps: f64,
    quantize_activations: bool,
}

/// Which human-readable label the evaluated context carries (shows up only
/// in infeasibility diagnostics, but must be deterministic).
#[derive(Debug, Clone, Copy)]
enum LinkLabel {
    WiR,
    Ble,
    Site(hidwa_phy::RadioTechnology, hidwa_eqs::body::BodySite),
}

impl LinkLabel {
    fn to_label(self) -> String {
        match self {
            Self::WiR => "Wi-R".to_string(),
            Self::Ble => "BLE".to_string(),
            Self::Site(technology, site) => format!("{}@{site:?}", technology.name()),
        }
    }
}

/// The warm, I/O-free serving core: link tables, projector, plan cache and
/// the sweep runner batches evaluate through, over the shared model zoo
/// ([`ModelId::model`]).
#[derive(Debug)]
pub struct PlanService {
    links: LinkCache,
    projector: Fig3Projector,
    runner: SweepRunner,
    /// `None` when memoization is disabled.
    cache: Option<Mutex<PlanCache>>,
    /// Default (energy-per-bit pJ, goodput bit/s) of the Wi-R / BLE links,
    /// resolved once at construction.
    wir_default: (f64, f64),
    ble_default: (f64, f64),
    requests: AtomicU64,
    plan_queries: AtomicU64,
    projection_queries: AtomicU64,
}

impl Default for PlanService {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanService {
    /// A service with a cache of [`PlanCache::DEFAULT_CAPACITY`] plans and a
    /// default-width runner.
    ///
    /// Construction is where all the warmth comes from: the full
    /// technology × site link table and the projector are built here, and
    /// the shared zoo's per-model profile/cut-point caches are built by the
    /// first service or placement in the process, so no request ever
    /// re-derives them.
    #[must_use]
    pub fn new() -> Self {
        let wir = WiRTransceiver::ixana_class();
        let wir_rate = wir.max_data_rate();
        let ble = BleTransceiver::phy_1m();
        let ble_rate = ble.max_data_rate();
        // The first call in the process builds the whole shared zoo.
        let _ = ModelId::EcgArrhythmia.model();
        Self {
            links: LinkCache::warm(),
            projector: Fig3Projector::paper_defaults(),
            runner: SweepRunner::new(),
            cache: Some(Mutex::new(PlanCache::new())),
            wir_default: (
                wir.energy_per_bit(wir_rate).as_pico_joules(),
                wir_rate.as_bps(),
            ),
            ble_default: (
                ble.energy_per_bit(ble_rate).as_pico_joules(),
                ble_rate.as_bps(),
            ),
            requests: AtomicU64::new(0),
            plan_queries: AtomicU64::new(0),
            projection_queries: AtomicU64::new(0),
        }
    }

    /// Enables (at the default capacity) or disables plan memoization (on by
    /// default).  Disabling never changes answers — only whether they are
    /// recomputed.
    #[must_use]
    pub fn with_cache(mut self, enabled: bool) -> Self {
        self.cache = enabled.then(|| Mutex::new(PlanCache::new()));
        self
    }

    /// Bounds the plan cache to `capacity` resident entries, evicting by
    /// deterministic CLOCK beyond that (see [`PlanCache::bounded`]).
    /// Eviction never changes answers — an evicted key re-optimises to the
    /// same bytes — only the hit rate.
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = Some(Mutex::new(PlanCache::bounded(capacity)));
        self
    }

    /// Replaces the sweep runner batches evaluate through.
    #[must_use]
    pub fn with_runner(mut self, runner: SweepRunner) -> Self {
        self.runner = runner;
        self
    }

    /// Whether plan memoization is enabled.
    #[must_use]
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// A counter snapshot.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        let (cache_hits, cache_misses, cache_evictions, cached_plans) = match &self.cache {
            Some(cache) => {
                let cache = cache.lock().expect("plan cache poisoned");
                (
                    cache.hits(),
                    cache.misses(),
                    cache.evictions(),
                    cache.len() as u64,
                )
            }
            None => (0, 0, 0, 0),
        };
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            plan_queries: self.plan_queries.load(Ordering::Relaxed),
            projection_queries: self.projection_queries.load(Ordering::Relaxed),
            cache_hits,
            cache_misses,
            cache_evictions,
            cached_plans,
        }
    }

    /// Admission: resolves link defaults and quantizes the continuous
    /// fields.  Everything downstream (cache key, optimiser) sees only this
    /// canonical form.
    fn canonicalize(&self, request: &PlanRequest) -> CanonicalPlan {
        let (label, (default_pj, default_bps)) = match request.context.link {
            WireLink::WiR => (LinkLabel::WiR, self.wir_default),
            WireLink::Ble => (LinkLabel::Ble, self.ble_default),
            WireLink::Site(technology, site) => {
                let params = self.links.get(technology, site);
                (
                    LinkLabel::Site(technology, site),
                    (
                        params.energy_per_bit().as_pico_joules(),
                        params.goodput().as_bps(),
                    ),
                )
            }
        };
        let pick = |override_value: f64, default: f64| {
            if override_value > 0.0 {
                override_value
            } else {
                default
            }
        };
        CanonicalPlan {
            model: request.model,
            objective: request.objective,
            label,
            energy_per_bit_pj: quantize_f64(pick(request.context.energy_per_bit_pj, default_pj)),
            goodput_bps: quantize_f64(pick(request.context.goodput_bps, default_bps)),
            quantize_activations: request.context.quantize_activations,
        }
    }

    fn plan_key(canonical: &CanonicalPlan) -> PlanKey {
        PlanKey {
            model: canonical.model as u8,
            objective: codec::code_of(Objective::ALL, canonical.objective),
            energy_per_bit_bits: canonical.energy_per_bit_pj.to_bits(),
            goodput_bits: canonical.goodput_bps.to_bits(),
            quantize_activations: canonical.quantize_activations,
        }
    }

    /// One fresh optimisation of a canonical query (the cache-miss path).
    fn evaluate_plan(&self, canonical: &CanonicalPlan) -> Response {
        let model = canonical.model.model();
        let mut context = PartitionContext::new(
            canonical.label.to_label(),
            ComputeEngine::of_class(ComputeClass::IsaAccelerator),
            ComputeEngine::of_class(ComputeClass::EdgeNpu),
            EnergyPerBit::from_pico_joules(canonical.energy_per_bit_pj),
            DataRate::from_kbps(canonical.goodput_bps / 1000.0),
        );
        if !canonical.quantize_activations {
            context = context.without_quantization();
        }
        match PartitionOptimizer::new(context).optimize(model, canonical.objective) {
            Ok(plan) => Response::Plan(WirePlan {
                model: canonical.model,
                objective: canonical.objective,
                cut_index: plan.cut_index as u32,
                leaf_macs: plan.leaf_macs,
                hub_macs: plan.hub_macs,
                transfer_bytes: plan.transfer_bytes,
                leaf_energy_j: plan.leaf_energy.as_joules(),
                hub_energy_j: plan.hub_energy.as_joules(),
                latency_s: plan.latency.as_seconds(),
                leaf_power_w: plan.leaf_power.as_watts(),
            }),
            Err(error) => Response::Infeasible(error.to_string()),
        }
    }

    fn evaluate_projection(&self, request: &ProjectionRequest) -> Response {
        let point = self
            .projector
            .project_rate(DataRate::from_kbps(request.rate_bps / 1000.0));
        Response::Projection(WireProjection {
            rate_bps: request.rate_bps,
            total_power_w: point.total_power.as_watts(),
            battery_life_s: point.battery_life.as_seconds(),
        })
    }

    /// Answers one query (a batch of one).
    #[must_use]
    pub fn answer(&self, request: &Request) -> Response {
        self.answer_batch(std::slice::from_ref(request))
            .pop()
            .expect("one answer per query")
    }

    /// Answers a batch of queries, positionally.
    ///
    /// Compatible queued plan queries are evaluated together through the
    /// sweep runner: with the cache on, the batch's *distinct uncached*
    /// keys are optimised in one parallel map under the cache lock (so the
    /// hit/miss counters keep exact serial-replay semantics no matter how
    /// many connections are served concurrently); with the cache off, every
    /// plan query goes through the runner.  Projections are closed-form and
    /// evaluated inline.
    #[must_use]
    pub fn answer_batch(&self, requests: &[Request]) -> Vec<Response> {
        self.requests
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        let mut answers: Vec<Option<Response>> = vec![None; requests.len()];

        // Projections and canonicalization first; plan slots collect for
        // batched evaluation.
        let mut plans: Vec<(usize, CanonicalPlan)> = Vec::new();
        for (slot, request) in requests.iter().enumerate() {
            match request {
                Request::Plan(plan) => {
                    self.plan_queries.fetch_add(1, Ordering::Relaxed);
                    plans.push((slot, self.canonicalize(plan)));
                }
                Request::Projection(projection) => {
                    self.projection_queries.fetch_add(1, Ordering::Relaxed);
                    answers[slot] = Some(self.evaluate_projection(projection));
                }
            }
        }

        match &self.cache {
            Some(cache) => {
                let mut cache = cache.lock().expect("plan cache poisoned");
                // Scan: satisfy hits, dedup the misses.
                let mut pending: Vec<(PlanKey, CanonicalPlan)> = Vec::new();
                let mut pending_index: HashMap<PlanKey, Vec<usize>> = HashMap::new();
                for (slot, canonical) in &plans {
                    let key = Self::plan_key(canonical);
                    if let Some(waiting) = pending_index.get_mut(&key) {
                        // Duplicate of an in-batch miss: a serial replay
                        // would have memoized it by now — count a hit.
                        cache.record_hit();
                        waiting.push(*slot);
                        continue;
                    }
                    match cache.lookup(key) {
                        Some(answer) => answers[*slot] = Some(answer),
                        None => {
                            pending.push((key, *canonical));
                            pending_index.insert(key, vec![*slot]);
                        }
                    }
                }
                // Evaluate the distinct misses in one parallel map.
                let fresh = self
                    .runner
                    .map(&pending, |(_, canonical)| self.evaluate_plan(canonical));
                for ((key, _), answer) in pending.iter().zip(fresh) {
                    for &slot in &pending_index[key] {
                        answers[slot] = Some(answer.clone());
                    }
                    cache.insert(*key, answer);
                }
            }
            None => {
                let fresh = self
                    .runner
                    .map(&plans, |(_, canonical)| self.evaluate_plan(canonical));
                for ((slot, _), answer) in plans.iter().zip(fresh) {
                    answers[*slot] = Some(answer);
                }
            }
        }

        answers
            .into_iter()
            .map(|answer| answer.expect("every slot answered"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Objective;
    use codec::{PlanRequest, Request};
    use hidwa_eqs::body::BodySite;
    use hidwa_phy::RadioTechnology;

    fn plan(model: ModelId, link: WireLink, objective: Objective) -> Request {
        Request::Plan(PlanRequest {
            model,
            context: WireContext::of(link),
            objective,
        })
    }

    #[test]
    fn default_links_match_the_linked_in_optimizer() {
        let service = PlanService::new();
        let answer = service.answer(&plan(
            ModelId::EcgArrhythmia,
            WireLink::WiR,
            Objective::LeafEnergy,
        ));
        let direct = PartitionOptimizer::new(PartitionContext::wir_default())
            .optimize(ModelId::EcgArrhythmia.model(), Objective::LeafEnergy)
            .unwrap();
        match answer {
            Response::Plan(wire) => {
                assert_eq!(wire.cut_index as usize, direct.cut_index);
                assert_eq!(
                    wire.leaf_energy_j.to_bits(),
                    direct.leaf_energy.as_joules().to_bits()
                );
            }
            other => panic!("expected a plan, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_queries_come_back_typed_not_panicking() {
        let service = PlanService::new();
        // 15 fps video over BLE with an ISA leaf cannot run at all.
        let answer = service.answer(&plan(
            ModelId::VideoFeature,
            WireLink::Ble,
            Objective::LeafEnergy,
        ));
        assert!(matches!(answer, Response::Infeasible(_)), "{answer:?}");
    }

    #[test]
    fn site_links_resolve_through_the_warm_cache() {
        let service = PlanService::new();
        let wrist = service.answer(&plan(
            ModelId::KeywordSpotting,
            WireLink::Site(RadioTechnology::WiR, BodySite::Wrist),
            Objective::LeafEnergy,
        ));
        assert!(matches!(wrist, Response::Plan(_)), "{wrist:?}");
    }

    #[test]
    fn batch_answers_match_singles_and_count_replay_exact() {
        let service = PlanService::new();
        let a = plan(ModelId::ImuGesture, WireLink::WiR, Objective::Latency);
        let b = plan(ModelId::ImuGesture, WireLink::Ble, Objective::Latency);
        let batch = service.answer_batch(&[a, b, a, a]);
        assert_eq!(batch[0], batch[2]);
        assert_eq!(batch[0], batch[3]);
        assert_ne!(batch[0], batch[1]);
        let stats = service.stats();
        // Two distinct keys, four plan queries: 2 misses, 2 hits.
        assert_eq!((stats.cache_misses, stats.cache_hits), (2, 2));
        assert_eq!(stats.plan_queries, 4);
        assert_eq!(stats.cached_plans, 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);

        // The same queries against an uncached service are byte-identical.
        let uncached = PlanService::new().with_cache(false);
        assert!(!uncached.cache_enabled());
        assert_eq!(uncached.answer_batch(&[a, b, a, a]), batch);
        assert_eq!(uncached.stats().hit_rate(), 0.0);
    }

    #[test]
    fn projections_are_served_and_counted() {
        let service = PlanService::new();
        let answer = service.answer(&Request::Projection(ProjectionRequest { rate_bps: 4000.0 }));
        match answer {
            Response::Projection(projection) => {
                assert!(projection.battery_life_s > 365.0 * 24.0 * 3600.0);
            }
            other => panic!("expected a projection, got {other:?}"),
        }
        assert_eq!(service.stats().projection_queries, 1);
    }
}
