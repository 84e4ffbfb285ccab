//! `serve_plans`: a closed loop of `nproc` clients, each one `PlanClient`
//! connection at pipeline depth 1, against an in-process `PlanServer` with
//! one reactor event loop over a plan cache of [`CAPACITY`] entries.
//!
//! Traffic is single-query frames.  Fifteen requests in sixteen cycle a hot
//! set (5 models × {Wi-R, BLE, Wi-R at the wrist} × 3 objectives, plus 5
//! projections); the sixteenth carries an energy-per-bit override no request
//! carried before, so the cache inserts and evicts beside its hits.  Clients
//! stop only at a whole [`BLOCK`] of requests, which holds exactly three hot
//! cycles, so the per-request cache counts repeat exactly.

use crate::hist::Histogram;
use crate::trace::{Layer, SpanList, Totals, NO_PARENT};
use crate::{metric, mix, per_layer, percentiles, phases, timed_setups, Counts, Outcome, Params};
use hidwa_core::partition::Objective;
use hidwa_core::serve::codec::{
    self, ModelId, PlanRequest, ProjectionRequest, WireContext, WireLink,
};
use hidwa_core::serve::{
    ClientError, PlanClient, PlanServer, PlanService, Request, RequestEnvelope, Response,
    ServeConfig, ServeStats, ThreadModel,
};
use hidwa_core::sweep::SweepRunner;
use hidwa_core::wire;
use hidwa_eqs::body::BodySite;
use hidwa_phy::RadioTechnology;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Plan-cache capacity, as the CI smoke test deploys the server.
const CAPACITY: usize = 4096;
/// Requests a client sends between deadline checks: ten groups of sixteen.
const BLOCK: u64 = 160;
/// Hot-set size: 45 plans and 5 projections; a block's 150 hot requests
/// are exactly three cycles.
const HOT: usize = 50;
/// Client socket deadline: a stalled server fails operations, never hangs.
const TIMEOUT: Duration = Duration::from_secs(5);
/// Blocks each client sends during set-up, after the cache has filled.
const WARM_UP_BLOCKS: u64 = 10;

/// The request stream, a pure function of the seed, client and index.
struct Traffic {
    hot: Vec<Request>,
    /// Where this seed's never-seen energy overrides start.
    offset: u64,
    clients: u64,
}

/// The `index`-th distinct energy-per-bit override in `[base, 2 × base)`
/// pJ/bit: consecutive overrides differ above the bits `quantize_f64`
/// clears, so each is its own cache key.
fn override_pj(base: f64, index: u64) -> f64 {
    f64::from_bits(base.to_bits() + (index << 31))
}

fn plan(model: ModelId, link: WireLink, objective: Objective) -> Request {
    Request::Plan(PlanRequest {
        model,
        context: WireContext::of(link),
        objective,
    })
}

const OBJECTIVES: [Objective; 3] = [
    Objective::LeafEnergy,
    Objective::Latency,
    Objective::EnergyDelayProduct,
];

impl Traffic {
    fn new(seed: u64, clients: usize) -> Self {
        let mut hot = Vec::with_capacity(HOT);
        for model in ModelId::ALL {
            for link in [
                WireLink::WiR,
                WireLink::Ble,
                WireLink::Site(RadioTechnology::WiR, BodySite::Wrist),
            ] {
                for objective in OBJECTIVES {
                    hot.push(plan(model, link, objective));
                }
            }
        }
        let mut state = mix(seed);
        for _ in 0..5 {
            state = mix(state);
            // 1 kbit/s to 1 Mbit/s, log-uniform.
            let exponent = 3.0 + 3.0 * (state >> 11) as f64 / (1u64 << 53) as f64;
            hot.push(Request::Projection(ProjectionRequest {
                rate_bps: 10f64.powf(exponent),
            }));
        }
        for i in (1..hot.len()).rev() {
            state = mix(state);
            hot.swap(i, (state % (i as u64 + 1)) as usize);
        }
        Self {
            hot,
            offset: mix(state) >> 45,
            clients: clients as u64,
        }
    }

    /// Request `index` of client `client`, with its hot-set position (`None`
    /// for a never-seen context).
    fn request(&self, client: u64, index: u64) -> (Request, Option<usize>) {
        let group = index / 16;
        if index % 16 == 15 {
            let key = group * self.clients + client;
            let model = ModelId::ALL[(key % 5) as usize];
            let objective = OBJECTIVES[((key / 5) % 3) as usize];
            let context = WireContext::of(WireLink::WiR)
                .with_energy_per_bit_pj(override_pj(64.0, self.offset + key));
            (
                Request::Plan(PlanRequest {
                    model,
                    context,
                    objective,
                }),
                None,
            )
        } else {
            let slot = ((client * 17 + group * 15 + index % 16) % HOT as u64) as usize;
            (self.hot[slot], Some(slot))
        }
    }

    /// The `j`-th set-up request that fills the cache, in a range of
    /// overrides the measured stream never uses.
    fn filler(&self, j: u64) -> Request {
        let context = WireContext::of(WireLink::Ble)
            .with_energy_per_bit_pj(override_pj(32.0, self.offset + j));
        Request::Plan(PlanRequest {
            model: ModelId::ALL[(j % 5) as usize],
            context,
            objective: OBJECTIVES[((j / 5) % 3) as usize],
        })
    }
}

/// Fills `answer`'s cache: the hot set, then distinct fillers until the
/// cache evicts, then the hot set again so every hot key is resident.
fn fill(
    traffic: &Traffic,
    mut answer: impl FnMut(&[Request]) -> Result<Vec<Response>, String>,
    evicted: impl Fn() -> bool,
) -> Result<(), String> {
    answer(&traffic.hot)?;
    let mut next = 0u64;
    while !evicted() {
        let batch: Vec<Request> = (next..next + 256).map(|j| traffic.filler(j)).collect();
        answer(&batch)?;
        next += 256;
    }
    answer(&traffic.hot)?;
    Ok(())
}

fn connect(addr: SocketAddr) -> Result<PlanClient, String> {
    PlanClient::connect(addr)
        .and_then(|client| client.with_pipeline(1).with_timeout(TIMEOUT))
        .map_err(|e| format!("cannot connect: {e}"))
}

/// A bound server, its connected clients and the references replies are
/// checked against.
struct Rig {
    server: PlanServer,
    clients: Vec<PlanClient>,
    /// Each client's next request index.
    next: Vec<u64>,
    /// The uncached linked-in optimiser never-seen contexts are checked
    /// against, and its answers to the hot set.
    reference: PlanService,
    hot_answers: Vec<Response>,
}

fn service() -> PlanService {
    PlanService::new()
        .with_cache_capacity(CAPACITY)
        .with_runner(SweepRunner::serial())
}

fn setup(params: &Params, traffic: &Traffic) -> Result<Rig, String> {
    let config = ServeConfig {
        threads: ThreadModel::Reactor { event_loops: 1 },
        ..ServeConfig::default()
    };
    let server = PlanServer::bind_with("127.0.0.1:0", service(), config)
        .map_err(|e| format!("cannot bind: {e}"))?;
    let clients = (0..params.nproc)
        .map(|_| connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let reference = PlanService::new()
        .with_cache(false)
        .with_runner(SweepRunner::serial());
    let hot_answers = reference.answer_batch(&traffic.hot);
    let mut rig = Rig {
        server,
        next: vec![0; clients.len()],
        clients,
        reference,
        hot_answers,
    };
    let Rig {
        server, clients, ..
    } = &mut rig;
    fill(
        traffic,
        |batch| {
            clients[0]
                .query(batch)
                .map_err(|e| format!("set-up query failed: {e}"))
        },
        || server.service().stats().cache_evictions > 0,
    )?;
    let warm_up = closed_loop(&mut rig, traffic, Duration::ZERO, WARM_UP_BLOCKS, false);
    if let Some(problem) = warm_up.runs.iter().find_map(|run| run.problem.clone()) {
        return Err(format!("warm-up: {problem}"));
    }
    Ok(rig)
}

/// What one client saw over a phase.
struct ClientRun {
    ops: u64,
    failed: u64,
    hist: Histogram,
    totals: Totals,
    /// The request indices it sent.
    first: u64,
    end: u64,
    finished: Instant,
    problem: Option<String>,
}

struct Phase {
    runs: Vec<ClientRun>,
    wall: Duration,
    stats: (ServeStats, ServeStats),
}

/// One client's closed loop: whole blocks until `budget` has passed and at
/// least `min_blocks` were sent.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    client: &mut PlanClient,
    addr: SocketAddr,
    id: u64,
    next: &mut u64,
    traffic: &Traffic,
    reference: &PlanService,
    hot_answers: &[Response],
    budget: Duration,
    min_blocks: u64,
    traced: bool,
) -> ClientRun {
    let mut run = ClientRun {
        ops: 0,
        failed: 0,
        hist: Histogram::new(),
        totals: Totals::default(),
        first: *next,
        end: *next,
        finished: Instant::now(),
        problem: None,
    };
    let mut spans = SpanList::here(4);
    let start = Instant::now();
    let mut blocks = 0;
    while blocks < min_blocks || start.elapsed() < budget {
        for _ in 0..BLOCK {
            let (request, hot) = traffic.request(id, *next);
            *next += 1;
            run.ops += 1;
            spans.clear();
            let began = Instant::now();
            let result = if traced {
                let op = spans.open(Layer::Op, NO_PARENT);
                let span = spans.open(Layer::ClientSubmit, op);
                let tag = client
                    .submit(std::slice::from_ref(&request))
                    .and_then(|tag| client.flush().map(|()| tag));
                spans.close(span);
                let span = spans.open(Layer::ClientWait, op);
                let answers = tag.and_then(|tag| client.take(tag));
                spans.close(span);
                spans.close(op);
                answers
            } else {
                client
                    .submit(std::slice::from_ref(&request))
                    .and_then(|tag| client.flush().map(|()| tag))
                    .and_then(|tag| client.take(tag))
            };
            run.hist.record(began.elapsed());
            if traced {
                run.totals.fold_op(*next, &spans.spans, 1);
            }
            let error = match result {
                Ok(answers) => {
                    let expected = match hot {
                        Some(slot) => hot_answers[slot].clone(),
                        None => reference.answer(&request),
                    };
                    (answers.len() != 1 || answers[0] != expected)
                        .then(|| "a reply differs from the linked-in optimiser".to_string())
                }
                Err(error) => Some(client_error(client, addr, error)),
            };
            if let Some(error) = error {
                run.failed += 1;
                run.problem.get_or_insert(error);
            }
        }
        blocks += 1;
    }
    run.end = *next;
    run.finished = Instant::now();
    run
}

/// Describes a failed round trip and replaces the connection, whose
/// pipeline slot the failure may still hold.
fn client_error(client: &mut PlanClient, addr: SocketAddr, error: ClientError) -> String {
    let text = format!("round trip failed: {error}");
    match connect(addr) {
        Ok(fresh) => *client = fresh,
        Err(reconnect) => return format!("{text}; {reconnect}"),
    }
    text
}

/// Runs every client's closed loop at once, from a common start.
fn closed_loop(
    rig: &mut Rig,
    traffic: &Traffic,
    budget: Duration,
    min_blocks: u64,
    traced: bool,
) -> Phase {
    let addr = rig.server.addr();
    let barrier = Barrier::new(rig.clients.len() + 1);
    let before = rig.server.service().stats();
    let (runs, start) = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .zip(rig.next.iter_mut())
            .enumerate()
            .map(|(id, (client, next))| {
                let barrier = &barrier;
                let reference = &rig.reference;
                let hot_answers = &rig.hot_answers[..];
                scope.spawn(move || {
                    barrier.wait();
                    client_loop(
                        client,
                        addr,
                        id as u64,
                        next,
                        traffic,
                        reference,
                        hot_answers,
                        budget,
                        min_blocks,
                        traced,
                    )
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let runs: Vec<ClientRun> = handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect();
        (runs, start)
    });
    let last = runs.iter().map(|run| run.finished).max().unwrap_or(start);
    Phase {
        wall: last.saturating_duration_since(start),
        runs,
        stats: (before, rig.server.service().stats()),
    }
}

/// Tallies a phase into the outcome; returns its requests per second.
fn tally(outcome: &mut Outcome, phase: &Phase) -> f64 {
    let mut ops = 0;
    for run in &phase.runs {
        ops += run.ops;
        outcome.attempted += run.ops;
        outcome.failed += run.failed;
        if let Some(problem) = &run.problem {
            outcome.problem(problem.clone());
        }
    }
    ops as f64 / phase.wall.as_secs_f64()
}

/// Replays the traced phase's requests through a warm in-process replica
/// of the server's service, timing decode, answer and encode per request.
fn replay(
    traffic: &Traffic,
    phase: &Phase,
    totals: &mut Totals,
    counts: &mut Counts,
) -> Result<(), String> {
    let replica = service();
    fill(
        traffic,
        |batch| Ok(replica.answer_batch(batch)),
        || replica.stats().cache_evictions > 0,
    )?;
    let mut frame = Vec::new();
    let mut out = Vec::new();
    for (id, run) in phase.runs.iter().enumerate() {
        for index in run.first..run.end {
            let (request, _) = traffic.request(id as u64, index);
            let payload = codec::encode_requests(&[request]);
            frame.clear();
            wire::append_frame(&mut frame, index, &payload);
            let t0 = crate::trace::now_ns();
            let decoded = codec::decode_request(&payload);
            let t1 = crate::trace::now_ns();
            let Ok(RequestEnvelope::Queries(queries)) = decoded else {
                return Err("replayed request failed to decode".into());
            };
            let answers = replica.answer_batch(&queries);
            let t2 = crate::trace::now_ns();
            out.clear();
            wire::append_frame(&mut out, index, &codec::encode_responses(&answers));
            let t3 = crate::trace::now_ns();
            totals.add_detached(Layer::CodecDecode, t0, t1);
            totals.add_detached(Layer::ServiceAnswer, t1, t2);
            totals.add_detached(Layer::CodecEncode, t2, t3);
            counts.wire_bytes += (frame.len() + out.len()) as u64;
        }
    }
    Ok(())
}

pub fn run(params: &Params) -> Outcome {
    let mut outcome = Outcome::default();
    let traffic = Traffic::new(params.seed, params.nproc);
    // Set-up takes ~50 ms, so seven of them keep its median steady.
    let (rig, setup_s) = timed_setups(7, || setup(params, &traffic));
    let mut rig = match rig {
        Ok(rig) => rig,
        Err(error) => {
            outcome.problem(error);
            return outcome;
        }
    };
    let (untraced_budget, traced_budget) = phases(params);

    let phase = closed_loop(&mut rig, &traffic, untraced_budget, 1, false);
    let throughput = tally(&mut outcome, &phase);
    if !params.trace {
        let mut hist = Histogram::new();
        for run in &phase.runs {
            hist.merge(&run.hist);
        }
        outcome.metrics.push(setup_s);
        let mut m = metric("throughput", throughput, "1/s");
        m.note = format!(
            "requests per second from {} closed-loop clients",
            params.nproc
        );
        outcome.metrics.push(m);
        outcome.metrics.extend(percentiles(&hist, 0.99));
        return outcome;
    }

    let mut phase = closed_loop(&mut rig, &traffic, traced_budget, 1, true);
    let traced_throughput = tally(&mut outcome, &phase);
    let mut totals = Totals::default();
    for run in &mut phase.runs {
        totals.merge(std::mem::take(&mut run.totals));
    }
    let (before, after) = phase.stats;
    let mut counts = Counts {
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        evictions: after.cache_evictions - before.cache_evictions,
        ..Counts::default()
    };
    if let Err(error) = replay(&traffic, &phase, &mut totals, &mut counts) {
        outcome.problem(error);
    }
    crate::check_accounting(&mut outcome, &totals);
    outcome.metrics = per_layer(&totals, &counts, 1, traced_throughput, throughput);
    let path = params
        .out_dir
        .join(format!("trace-serve_plans-{}.jsonl", params.seed));
    if let Err(error) = totals.write(&path) {
        outcome.problem(format!("cannot write {}: {error}", path.display()));
    }
    outcome
}
