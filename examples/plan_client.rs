//! Plan-server client walkthrough: query partition plans and battery-life
//! projections over the serve wire protocol.
//!
//! Run self-contained (boots an in-process server on an ephemeral port,
//! queries it over real TCP, shuts it down):
//! ```text
//! cargo run --release --example plan_client
//! ```
//!
//! Or against a running `plan_server`:
//! ```text
//! cargo run --release -p hidwa-bench --bin plan_server -- --addr 127.0.0.1:7464
//! cargo run --release --example plan_client -- --connect 127.0.0.1:7464
//! cargo run --release --example plan_client -- --connect 127.0.0.1:7464 --shutdown
//! ```
//!
//! `--shutdown` sends the wire-level shutdown envelope after the queries —
//! the server acknowledges with `Bye` and exits cleanly (this is how CI's
//! smoke test stops the server it started).
//!
//! `--stress <conns>x<depth>` replaces the walkthrough with a pipelined
//! load generator: `conns` concurrent connections each keep `depth` tagged
//! frames in flight over a sliding window, and every reply is verified
//! byte-identical (through the response codec) against a locally computed
//! reference.  CI drives the reactor smoke test with `--stress 64x8`.
//! `--rounds <n>` sets frames per connection (default 50).

use hidwa_core::flags::Flags;
use hidwa_core::partition::Objective;
use hidwa_core::serve::codec::{
    self, ModelId, PlanRequest, ProjectionRequest, Request, Response, WireContext, WireLink,
};
use hidwa_core::serve::{PlanClient, PlanServer, PlanService};
use hidwa_eqs::body::BodySite;
use hidwa_phy::RadioTechnology;
use std::collections::VecDeque;

fn main() {
    let flags = Flags::parse(
        "--connect= --shutdown --stress= --rounds=",
        std::env::args().skip(1),
    )
    .expect("flags as the module docs list them");
    let connect = flags.raw("--connect").map(String::from);
    let mut shutdown = flags.has("--shutdown");
    let stress = flags.raw("--stress").map(|spec| {
        spec.split_once('x')
            .and_then(|(c, d)| Some((c.parse().ok()?, d.parse().ok()?)))
            .filter(|&(c, d): &(usize, usize)| c > 0 && d > 0)
            .expect("--stress wants e.g. 64x8")
    });
    let rounds = flags
        .value("--rounds")
        .expect("--rounds needs a positive integer")
        .unwrap_or(50usize);

    // Self-contained mode boots its own server and always shuts it down.
    let embedded = if connect.is_none() {
        let server = PlanServer::bind(PlanService::new()).expect("bind loopback");
        shutdown = true;
        Some(server)
    } else {
        None
    };
    let addr = connect.unwrap_or_else(|| {
        embedded
            .as_ref()
            .expect("embedded server in self-contained mode")
            .addr()
            .to_string()
    });

    if let Some((conns, depth)) = stress {
        run_stress(&addr, conns, depth, rounds);
        if shutdown {
            let client = PlanClient::connect(addr.as_str()).expect("connect for shutdown");
            client.shutdown().expect("server acknowledged shutdown");
            println!("server acknowledged shutdown (bye)");
            if let Some(server) = embedded {
                server.wait();
            }
        }
        println!("done");
        return;
    }

    println!("== plan_client: querying {addr} ==\n");
    let mut client = PlanClient::connect(addr.as_str()).expect("connect to plan server");

    // One batched frame: every zoo model over Wi-R, minimising leaf energy.
    let batch: Vec<Request> = ModelId::ALL
        .into_iter()
        .map(|model| {
            Request::Plan(PlanRequest {
                model,
                context: WireContext::of(WireLink::WiR),
                objective: Objective::LeafEnergy,
            })
        })
        .collect();
    let answers = client.query(&batch).expect("served answers");
    println!("Wi-R leaf-energy plans (one batched frame):");
    println!(
        "{:<18} {:>4} {:>14} {:>12} {:>12}",
        "model", "cut", "leaf energy", "latency", "leaf power"
    );
    for (request, answer) in batch.iter().zip(&answers) {
        let Request::Plan(plan) = request else {
            unreachable!("batch is all plans")
        };
        match answer {
            Response::Plan(wire) => println!(
                "{:<18} {:>4} {:>11.2} µJ {:>9.2} ms {:>9.1} µW",
                format!("{:?}", plan.model),
                wire.cut_index,
                wire.leaf_energy_j * 1e6,
                wire.latency_s * 1e3,
                wire.leaf_power_w * 1e6
            ),
            Response::Infeasible(reason) => {
                println!("{:<18} infeasible: {reason}", format!("{:?}", plan.model));
            }
            other => println!("{:<18} unexpected: {other:?}", format!("{:?}", plan.model)),
        }
    }

    // Single queries: a site-resolved link, an infeasible workload, and a
    // Fig. 3 projection.
    let wrist = client
        .ask(Request::Plan(PlanRequest {
            model: ModelId::KeywordSpotting,
            context: WireContext::of(WireLink::Site(RadioTechnology::WiR, BodySite::Wrist)),
            objective: Objective::Latency,
        }))
        .expect("wrist answer");
    println!("\nKeyword spotting, Wi-R wrist leaf, latency objective: {wrist:?}");

    let video_ble = client
        .ask(Request::Plan(PlanRequest {
            model: ModelId::VideoFeature,
            context: WireContext::of(WireLink::Ble),
            objective: Objective::LeafEnergy,
        }))
        .expect("video answer");
    match video_ble {
        Response::Infeasible(reason) => println!("Video over BLE: infeasible ({reason})"),
        other => println!("Video over BLE: {other:?}"),
    }

    let projection = client
        .ask(Request::Projection(ProjectionRequest { rate_bps: 4000.0 }))
        .expect("projection answer");
    if let Response::Projection(point) = projection {
        println!(
            "Fig. 3 at 4 kbps: {:.1} µW total, {:.1} years battery life",
            point.total_power_w * 1e6,
            point.battery_life_s / (365.25 * 24.0 * 3600.0)
        );
    }

    if shutdown {
        client.shutdown().expect("server acknowledged shutdown");
        println!("\nserver acknowledged shutdown (bye)");
        if let Some(server) = embedded {
            server.wait();
        }
    }
    println!("done");
}

/// Pipelined load generator: `conns` threads, each holding a connection with
/// `depth` frames in flight, every reply byte-checked against a locally
/// computed reference.  Panics (non-zero exit) on any divergence.
fn run_stress(addr: &str, conns: usize, depth: usize, rounds: usize) {
    // The frame cycle: four single-plan frames covering distinct models and
    // links, so pipelined replies differ from each other and a tag mix-up
    // cannot go unnoticed.
    let frames: Vec<Vec<Request>> = vec![
        vec![Request::Plan(PlanRequest {
            model: ModelId::KeywordSpotting,
            context: WireContext::of(WireLink::WiR),
            objective: Objective::LeafEnergy,
        })],
        vec![Request::Plan(PlanRequest {
            model: ModelId::ImuGesture,
            context: WireContext::of(WireLink::Ble),
            objective: Objective::Latency,
        })],
        vec![
            Request::Plan(PlanRequest {
                model: ModelId::VideoFeature,
                context: WireContext::of(WireLink::Site(RadioTechnology::WiR, BodySite::Wrist)),
                objective: Objective::EnergyDelayProduct,
            }),
            Request::Projection(ProjectionRequest { rate_bps: 4000.0 }),
        ],
        vec![Request::Plan(PlanRequest {
            model: ModelId::EcgArrhythmia,
            context: WireContext::of(WireLink::WiR),
            objective: Objective::Latency,
        })],
    ];
    let reference = PlanService::new().with_cache(false);
    let expected: Vec<Vec<u8>> = frames
        .iter()
        .map(|frame| codec::encode_responses(&reference.answer_batch(frame)).to_vec())
        .collect();

    println!("== plan_client stress: {conns} conns × depth {depth} × {rounds} frames ==");
    let started = std::time::Instant::now();
    let workers: Vec<_> = (0..conns)
        .map(|worker| {
            let addr = addr.to_string();
            let frames = frames.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = PlanClient::connect(addr.as_str())
                    .expect("stress connect")
                    .with_pipeline(depth);
                let mut window: VecDeque<(u64, usize)> = VecDeque::new();
                let mut served = 0u64;
                for round in 0..rounds {
                    let cycle = (worker + round) % frames.len();
                    let tag = client.submit(&frames[cycle]).expect("submit");
                    window.push_back((tag, cycle));
                    if window.len() == depth {
                        served += drain_one(&mut client, &mut window, &expected);
                    }
                }
                while !window.is_empty() {
                    served += drain_one(&mut client, &mut window, &expected);
                }
                served
            })
        })
        .collect();
    let served: u64 = workers
        .into_iter()
        .map(|worker| worker.join().expect("stress worker"))
        .sum();
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "stress ok: {served} answers verified byte-identical in {elapsed:.2}s ({:.0} frames/s)",
        (conns * rounds) as f64 / elapsed
    );
}

/// Pops the oldest in-flight frame, byte-checks its reply, returns answers.
fn drain_one(
    client: &mut PlanClient,
    window: &mut VecDeque<(u64, usize)>,
    expected: &[Vec<u8>],
) -> u64 {
    let (tag, cycle) = window.pop_front().expect("non-empty window");
    let answers = client.take(tag).expect("pipelined reply");
    assert_eq!(
        codec::encode_responses(&answers).to_vec(),
        expected[cycle],
        "stress reply diverged from local reference (cycle {cycle})"
    );
    answers.len() as u64
}
