//! Cache-equivalence battery: across a grid of (model × context ×
//! objective), cached answers are **byte-identical** (through the response
//! codec) to uncached recomputation, and the hit counter matches the
//! analytic count for a replayed request log.

use hidwa_core::flags::Tag;
use hidwa_core::partition::Objective;
use hidwa_core::serve::codec::{
    self, ModelId, PlanRequest, ProjectionRequest, Request, WireContext, WireLink,
};
use hidwa_core::serve::PlanService;
use hidwa_core::sweep::SweepRunner;
use hidwa_eqs::body::BodySite;
use hidwa_phy::RadioTechnology;

/// The context axis of the grid.  Entries are chosen so that no two
/// canonicalize to the same cache key (distinct links or distinct override
/// quanta), which makes the analytic hit/miss count exact.
fn context_grid() -> Vec<WireContext> {
    vec![
        WireContext::of(WireLink::WiR),
        WireContext::of(WireLink::WiR).without_quantization(),
        WireContext::of(WireLink::Ble),
        WireContext::of(WireLink::Site(RadioTechnology::WiR, BodySite::Wrist)),
        WireContext::of(WireLink::Site(RadioTechnology::Ble, BodySite::Ankle)),
        WireContext::of(WireLink::WiR)
            .with_energy_per_bit_pj(100.0)
            .with_goodput_bps(2.0e6),
        WireContext::of(WireLink::WiR)
            .with_energy_per_bit_pj(200.0)
            .with_goodput_bps(2.0e6),
    ]
}

fn plan_grid() -> Vec<Request> {
    let mut grid = Vec::new();
    for model in ModelId::ALL {
        for context in context_grid() {
            for &objective in Objective::ALL {
                grid.push(Request::Plan(PlanRequest {
                    model,
                    context,
                    objective,
                }));
            }
        }
    }
    grid
}

#[test]
fn cached_answers_are_byte_identical_to_uncached_across_the_grid() {
    let grid = plan_grid();
    let cached = PlanService::new();
    let uncached = PlanService::new().with_cache(false);

    // First pass populates the cache; second pass answers from it.
    let first = cached.answer_batch(&grid);
    let second = cached.answer_batch(&grid);
    let reference = uncached.answer_batch(&grid);

    // Byte-identical through the wire codec, not merely PartialEq.
    let bytes = |answers: &[_]| codec::encode_responses(answers).to_vec();
    assert_eq!(bytes(&first), bytes(&reference));
    assert_eq!(bytes(&second), bytes(&reference));

    let stats = cached.stats();
    assert_eq!(
        stats.cache_misses,
        grid.len() as u64,
        "every grid point distinct"
    );
    assert_eq!(stats.cache_hits, grid.len() as u64, "second pass all hits");
    assert_eq!(stats.cached_plans, grid.len() as u64);
    assert_eq!(
        uncached.stats().cache_hits + uncached.stats().cache_misses,
        0
    );
}

#[test]
fn hit_counter_matches_analytic_count_for_a_replayed_log() {
    // A deterministic request log with known duplication structure: each
    // grid point appears REPEATS times, interleaved (not back-to-back), plus
    // projections which never touch the plan cache.
    const REPEATS: usize = 3;
    let grid = plan_grid();
    let mut log = Vec::new();
    for round in 0..REPEATS {
        for (i, request) in grid.iter().enumerate() {
            log.push(*request);
            if (i + round) % 5 == 0 {
                log.push(Request::Projection(ProjectionRequest {
                    rate_bps: 1000.0 + i as f64,
                }));
            }
        }
    }

    let service = PlanService::new();
    // Replay in odd-sized batches so batches straddle duplicates.
    for chunk in log.chunks(7) {
        let _ = service.answer_batch(chunk);
    }

    let stats = service.stats();
    let plan_queries = (grid.len() * REPEATS) as u64;
    assert_eq!(stats.plan_queries, plan_queries);
    assert_eq!(
        stats.cache_misses,
        grid.len() as u64,
        "misses = distinct keys"
    );
    assert_eq!(
        stats.cache_hits,
        plan_queries - grid.len() as u64,
        "hits = replayed duplicates"
    );
    assert_eq!(stats.cache_hits + stats.cache_misses, plan_queries);
    let expected_rate = (plan_queries - grid.len() as u64) as f64 / plan_queries as f64;
    assert!((stats.hit_rate() - expected_rate).abs() < 1e-12);
}

#[test]
fn overrides_within_one_quantum_share_a_cache_entry() {
    // Admission quantization collapses near-identical continuous overrides
    // onto one canonical key: the second query is a hit and the answers are
    // byte-identical — the cache is exact, not approximate.
    let service = PlanService::new();
    let base = 1.0e6f64;
    let nudged = base * (1.0 + 1e-12); // same 2⁻²¹ quantum
    let ask = |goodput: f64| {
        Request::Plan(PlanRequest {
            model: ModelId::ImuGesture,
            context: WireContext::of(WireLink::WiR).with_goodput_bps(goodput),
            objective: Objective::LeafEnergy,
        })
    };
    let a = service.answer(&ask(base));
    let b = service.answer(&ask(nudged));
    assert_eq!(
        codec::encode_responses(&[a]).to_vec(),
        codec::encode_responses(&[b]).to_vec()
    );
    let stats = service.stats();
    assert_eq!((stats.cache_misses, stats.cache_hits), (1, 1));

    // A genuinely different operating point is a different key.
    let c = service.answer(&ask(base * 2.0));
    assert_eq!(service.stats().cache_misses, 2);
    assert!(matches!(c, codec::Response::Plan(_)));
}

/// The first `n` plan-grid requests, each canonicalizing to a distinct key.
fn distinct_plans(n: usize) -> Vec<Request> {
    let grid = plan_grid();
    assert!(n <= grid.len());
    grid.into_iter().take(n).collect()
}

#[test]
fn bounded_cache_replays_a_cyclic_scan_with_analytic_counters() {
    // A cyclic scan over N keys through a capacity-C cache with N > C is
    // the analytic worst case for any recency-family policy (CLOCK
    // included): the resident set is always the C most recently inserted
    // keys, and the next key in the cycle is N−C insertions old — never
    // resident.  Every access misses; every miss past the first C evicts.
    const N: usize = 12;
    const C: usize = 8;
    const CYCLES: usize = 3;
    let keys = distinct_plans(N);
    let service = PlanService::new().with_cache_capacity(C);
    let reference = PlanService::new().with_cache(false);
    for cycle in 0..CYCLES {
        for request in &keys {
            let answer = service.answer(request);
            assert_eq!(
                codec::encode_responses(&[answer]).to_vec(),
                codec::encode_responses(&[reference.answer(request)]).to_vec(),
                "cycle {cycle} diverged from uncached recomputation"
            );
        }
    }
    let stats = service.stats();
    let accesses = (N * CYCLES) as u64;
    assert_eq!(
        stats.cache_misses, accesses,
        "cyclic scan: every access misses"
    );
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_evictions, accesses - C as u64);
    assert_eq!(
        stats.cached_plans, C as u64,
        "resident set pinned at capacity"
    );
    assert_eq!(stats.hit_rate(), 0.0);
}

#[test]
fn working_set_within_capacity_never_evicts() {
    const N: usize = 6;
    let keys = distinct_plans(N);
    let service = PlanService::new().with_cache_capacity(8);
    let first: Vec<_> = keys.iter().map(|request| service.answer(request)).collect();
    let second: Vec<_> = keys.iter().map(|request| service.answer(request)).collect();
    assert_eq!(
        codec::encode_responses(&first).to_vec(),
        codec::encode_responses(&second).to_vec()
    );
    let stats = service.stats();
    assert_eq!(stats.cache_misses, N as u64);
    assert_eq!(stats.cache_hits, N as u64);
    assert_eq!(stats.cache_evictions, 0, "working set fits: no eviction");
    assert_eq!(stats.cached_plans, N as u64);
}

#[test]
fn a_default_service_holds_at_most_4096_plans() {
    // One distinct override quantum per query: the first 4096 fill the
    // default cache, and the 4097th evicts one of them.
    let service = PlanService::new();
    for pj in 1..=4097u32 {
        let _ = service.answer(&Request::Plan(PlanRequest {
            model: ModelId::ImuGesture,
            context: WireContext::of(WireLink::WiR).with_energy_per_bit_pj(f64::from(pj)),
            objective: Objective::LeafEnergy,
        }));
    }
    let stats = service.stats();
    assert_eq!(stats.cache_misses, 4097);
    assert_eq!(stats.cached_plans, 4096, "the default cache is bounded");
    assert_eq!(stats.cache_evictions, 1);
}

#[test]
fn evicted_then_refetched_keys_answer_byte_identical() {
    // Capacity 1: two alternating keys evict each other on every access.
    // Eviction must only ever cost recomputation, never change bytes.
    let keys = distinct_plans(2);
    let service = PlanService::new().with_cache_capacity(1);
    let reference = PlanService::new().with_cache(false);
    let reference_bytes: Vec<_> = keys
        .iter()
        .map(|request| codec::encode_responses(&[reference.answer(request)]).to_vec())
        .collect();
    for round in 0..2 {
        for (request, expected) in keys.iter().zip(&reference_bytes) {
            let answer = service.answer(request);
            assert_eq!(
                &codec::encode_responses(&[answer]).to_vec(),
                expected,
                "round {round}: evicted-then-refetched key changed bytes"
            );
        }
    }
    let stats = service.stats();
    assert_eq!(
        stats.cache_misses, 4,
        "every access re-misses at capacity 1"
    );
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(
        stats.cache_evictions, 3,
        "every insert past the first evicts"
    );
    assert_eq!(stats.cached_plans, 1);
}

#[test]
fn cache_equivalence_holds_across_runner_widths() {
    // The batch path evaluates misses through the sweep runner; answers and
    // counters must not depend on its width.
    let grid = plan_grid();
    let serial = PlanService::new().with_runner(SweepRunner::serial());
    let wide = PlanService::new().with_runner(SweepRunner::with_threads(4));
    let a = serial.answer_batch(&grid);
    let b = wide.answer_batch(&grid);
    assert_eq!(
        codec::encode_responses(&a).to_vec(),
        codec::encode_responses(&b).to_vec()
    );
    assert_eq!(serial.stats(), wide.stats());
}
