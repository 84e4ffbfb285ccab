//! Server battery, run against the epoll reactor with one and with two
//! event loops: N concurrent clients receive byte-identical responses to a
//! serial linked-in optimiser (cache on and off), pipelined clients match
//! replies by tag in any consumption order, slow-loris peers are dropped
//! without taking down the server, and the server survives malformed
//! frames, oversized frames and mid-request disconnects without taking
//! down other connections.

use hidwa_core::partition::Objective;
use hidwa_core::serve::codec::{
    self, ModelId, PlanRequest, ProjectionRequest, Request, Response, WireContext, WireLink,
};
use hidwa_core::serve::{PlanClient, PlanServer, PlanService, ServeConfig, ThreadModel};
use hidwa_core::wire;
use hidwa_eqs::body::BodySite;
use hidwa_phy::RadioTechnology;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

const OBJECTIVES: [Objective; 3] = [
    Objective::LeafEnergy,
    Objective::Latency,
    Objective::EnergyDelayProduct,
];

/// One event loop (what perfbench's `serve_plans` serves with) and two
/// loops sharing the listener; every test here that takes `MODES` runs
/// both.
const MODES: [ThreadModel; 2] = [
    ThreadModel::Reactor { event_loops: 1 },
    ThreadModel::Reactor { event_loops: 2 },
];

fn bind_mode(service: PlanService, threads: ThreadModel) -> PlanServer {
    PlanServer::bind_with(
        "127.0.0.1:0",
        service,
        ServeConfig {
            threads,
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback")
}

/// A deterministic query log exercising plans (all models, several links,
/// all objectives, including infeasible combinations) and projections.
fn query_log() -> Vec<Request> {
    let mut log = Vec::new();
    let links = [
        WireLink::WiR,
        WireLink::Ble,
        WireLink::Site(RadioTechnology::WiR, BodySite::Ear),
    ];
    for (i, model) in ModelId::ALL.into_iter().enumerate() {
        for (j, link) in links.into_iter().enumerate() {
            log.push(Request::Plan(PlanRequest {
                model,
                context: WireContext::of(link),
                objective: OBJECTIVES[(i + j) % 3],
            }));
        }
        log.push(Request::Projection(ProjectionRequest {
            rate_bps: 500.0 * (i + 1) as f64,
        }));
    }
    log
}

/// The reference: the same log answered serially by a fresh linked-in
/// service, encoded to response-envelope bytes.
fn serial_reference(log: &[Request]) -> Vec<u8> {
    let service = PlanService::new().with_cache(false);
    codec::encode_responses(&service.answer_batch(log)).to_vec()
}

fn served_bytes_match_serial(cache_enabled: bool, threads: ThreadModel) {
    const CLIENTS: usize = 8;
    let log = query_log();
    let reference = serial_reference(&log);
    let server = bind_mode(PlanService::new().with_cache(cache_enabled), threads);
    let addr = server.addr();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let log = log.clone();
            thread::spawn(move || {
                let mut client = PlanClient::connect(addr).expect("connect");
                // Each client replays the log twice: batched, then singly.
                let batch = client.query(&log).expect("batched answers");
                let mut singles = Vec::with_capacity(log.len());
                for request in &log {
                    singles.push(client.ask(*request).expect("single answer"));
                }
                (
                    codec::encode_responses(&batch).to_vec(),
                    codec::encode_responses(&singles).to_vec(),
                )
            })
        })
        .collect();

    for worker in workers {
        let (batch, singles) = worker.join().expect("client thread");
        assert_eq!(
            batch, reference,
            "batched served bytes diverged from serial ({threads:?})"
        );
        assert_eq!(
            singles, reference,
            "single served bytes diverged from serial ({threads:?})"
        );
    }

    let stats = server.service().stats();
    let plan_queries_per_pass = log
        .iter()
        .filter(|request| matches!(request, Request::Plan(_)))
        .count() as u64;
    assert_eq!(
        stats.plan_queries,
        plan_queries_per_pass * 2 * CLIENTS as u64
    );
    if cache_enabled {
        // Replay-exact counters even under concurrency: misses = distinct
        // keys, regardless of which client got there first.
        assert_eq!(stats.cache_misses, plan_queries_per_pass);
        assert_eq!(
            stats.cache_hits,
            plan_queries_per_pass * (2 * CLIENTS as u64 - 1)
        );
        assert_eq!(stats.cache_evictions, 0, "the keys fit the default cache");
    } else {
        assert_eq!(stats.cache_hits + stats.cache_misses, 0);
    }
}

#[test]
fn concurrent_clients_get_serial_identical_bytes_with_cache() {
    for threads in MODES {
        served_bytes_match_serial(true, threads);
    }
}

#[test]
fn concurrent_clients_get_serial_identical_bytes_without_cache() {
    for threads in MODES {
        served_bytes_match_serial(false, threads);
    }
}

#[test]
fn pipelined_submissions_match_tags_in_any_consumption_order() {
    let log = query_log();
    let reference = serial_reference(&log);
    for threads in MODES {
        let server = bind_mode(PlanService::new(), threads);
        let mut client = PlanClient::connect(server.addr())
            .expect("connect")
            .with_pipeline(log.len());

        // Submit the whole log as one-in-flight-each, then consume in
        // REVERSE order: every reply must still land on its own tag.
        let tags: Vec<u64> = log
            .iter()
            .map(|request| {
                client
                    .submit(std::slice::from_ref(request))
                    .expect("submit within depth")
            })
            .collect();
        assert_eq!(client.in_flight(), log.len());
        let mut answers = vec![None; log.len()];
        for (index, &tag) in tags.iter().enumerate().rev() {
            let mut batch = client.take(tag).expect("take by tag");
            assert_eq!(batch.len(), 1);
            answers[index] = batch.pop();
        }
        assert_eq!(client.in_flight(), 0);
        let answers: Vec<Response> = answers.into_iter().map(Option::unwrap).collect();
        assert_eq!(
            codec::encode_responses(&answers).to_vec(),
            reference,
            "pipelined answers diverged from serial ({threads:?})"
        );

        // recv() drains in arrival order and flush-before-read prevents
        // a full-pipeline deadlock.
        let tag_a = client.submit(&log[..3]).expect("submit");
        let tag_b = client.submit(&log[3..5]).expect("submit");
        let (first_tag, first) = client.recv().expect("first reply");
        let (second_tag, second) = client.recv().expect("second reply");
        assert_eq!((first_tag, second_tag), (tag_a, tag_b));
        assert_eq!((first.len(), second.len()), (3, 2));
        assert!(matches!(
            client.recv(),
            Err(hidwa_core::serve::ClientError::Protocol(
                "nothing in flight"
            ))
        ));
    }
}

#[test]
fn pipeline_depth_is_enforced_and_one_shot_requires_drained() {
    let server = bind_mode(PlanService::new(), ThreadModel::Reactor { event_loops: 1 });
    let mut client = PlanClient::connect(server.addr())
        .expect("connect")
        .with_pipeline(2);
    let request = Request::Projection(ProjectionRequest { rate_bps: 1000.0 });
    let _tag_a = client.submit(std::slice::from_ref(&request)).expect("1st");
    let _tag_b = client.submit(std::slice::from_ref(&request)).expect("2nd");
    assert!(matches!(
        client.submit(std::slice::from_ref(&request)),
        Err(hidwa_core::serve::ClientError::Protocol("pipeline full"))
    ));
    assert!(matches!(
        client.query(std::slice::from_ref(&request)),
        Err(hidwa_core::serve::ClientError::Protocol(
            "pipeline not drained"
        ))
    ));
    client.recv().expect("drain 1");
    client.recv().expect("drain 2");
    // Drained: the one-shot API works again.
    assert!(matches!(
        client.ask(request).expect("one-shot after drain"),
        Response::Projection(_)
    ));
}

#[test]
fn slow_loris_is_dropped_without_taking_down_the_server() {
    for threads in MODES {
        let server = PlanServer::bind_with(
            "127.0.0.1:0",
            PlanService::new(),
            ServeConfig {
                threads,
                idle_timeout: Some(Duration::from_millis(150)),
            },
        )
        .expect("bind");

        // Half a header, then sleep past the deadline: the server must
        // drop the connection (read returns EOF)...
        let mut loris = TcpStream::connect(server.addr()).expect("connect");
        loris.write_all(&[0xAB; 7]).expect("half a header");
        loris
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("probe timeout");
        let mut probe = [0u8; 1];
        assert_eq!(
            loris.read(&mut probe).expect("dropped by the server"),
            0,
            "slow-loris connection must be closed ({threads:?})"
        );

        // ...while other connections keep being served.
        let mut client = PlanClient::connect(server.addr()).expect("connect");
        let answer = client
            .ask(Request::Projection(ProjectionRequest { rate_bps: 2000.0 }))
            .expect("answer after loris drop");
        assert!(matches!(answer, Response::Projection(_)));
    }
}

#[test]
fn idle_between_frames_is_not_a_slow_loris() {
    for threads in MODES {
        let server = PlanServer::bind_with(
            "127.0.0.1:0",
            PlanService::new(),
            ServeConfig {
                threads,
                idle_timeout: Some(Duration::from_millis(150)),
            },
        )
        .expect("bind");
        let mut client = PlanClient::connect(server.addr()).expect("connect");
        let request = Request::Projection(ProjectionRequest { rate_bps: 3000.0 });
        assert!(matches!(
            client.ask(request).expect("first answer"),
            Response::Projection(_)
        ));
        // Quiet for well past the deadline — but *between* frames, so the
        // connection must survive.
        thread::sleep(Duration::from_millis(400));
        assert!(
            matches!(
                client.ask(request).expect("answer after idling"),
                Response::Projection(_)
            ),
            "keep-alive connection dropped while idle between frames ({threads:?})"
        );
    }
}

#[test]
fn malformed_payload_gets_typed_error_and_connection_survives() {
    for threads in MODES {
        let server = bind_mode(PlanService::new(), threads);
        let mut stream = TcpStream::connect(server.addr()).expect("connect");

        // A well-framed frame whose payload is not a serve envelope.
        wire::write_frame(&mut stream, 7, b"definitely not an envelope").expect("send");
        let (tag, payload) = wire::read_frame(&mut stream, codec::MAX_SERVE_FRAME).expect("reply");
        assert_eq!(tag, 7, "reply echoes the request tag");
        match codec::decode_response(&payload).expect("reply decodes") {
            codec::ResponseEnvelope::Answers(answers) => {
                assert_eq!(answers.len(), 1);
                assert!(matches!(
                    &answers[0],
                    Response::Error(message) if message.contains("bad request")
                ));
            }
            other => panic!("expected an error batch, got {other:?}"),
        }

        // The same connection still answers real queries afterwards.
        let request = Request::Projection(ProjectionRequest { rate_bps: 4000.0 });
        wire::write_frame(&mut stream, 8, &codec::encode_requests(&[request])).expect("send");
        let (tag, payload) = wire::read_frame(&mut stream, codec::MAX_SERVE_FRAME).expect("reply");
        assert_eq!(tag, 8);
        match codec::decode_response(&payload).expect("reply decodes") {
            codec::ResponseEnvelope::Answers(answers) => {
                assert!(matches!(answers[0], Response::Projection(_)));
            }
            other => panic!("expected answers, got {other:?}"),
        }
    }
}

#[test]
fn oversized_frame_drops_the_connection_but_not_the_server() {
    for threads in MODES {
        let server = bind_mode(PlanService::new(), threads);

        // A header announcing a payload far beyond MAX_SERVE_FRAME: the
        // server must refuse to allocate and drop the connection.
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let mut header = Vec::new();
        header.extend_from_slice(&1u64.to_be_bytes());
        header.extend_from_slice(&(codec::MAX_SERVE_FRAME + 1).to_be_bytes());
        stream.write_all(&header).expect("send header");
        stream.flush().expect("flush");
        let mut probe = [0u8; 1];
        assert_eq!(
            stream.read(&mut probe).expect("read EOF"),
            0,
            "server should close an oversized-frame connection ({threads:?})"
        );

        // The server itself stays up for new clients.
        let mut client = PlanClient::connect(server.addr()).expect("reconnect");
        let answer = client
            .ask(Request::Projection(ProjectionRequest { rate_bps: 1000.0 }))
            .expect("answer after oversized-frame peer");
        assert!(matches!(answer, Response::Projection(_)));
    }
}

#[test]
fn mid_request_disconnects_leave_the_server_serving() {
    for threads in MODES {
        let server = bind_mode(PlanService::new(), threads);

        // Half a header, then disconnect.
        {
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            stream.write_all(&[0xAB; 7]).expect("partial header");
        }
        // A full header, half a payload, then disconnect.
        {
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            let mut partial = Vec::new();
            partial.extend_from_slice(&3u64.to_be_bytes());
            partial.extend_from_slice(&64u64.to_be_bytes());
            partial.extend_from_slice(&[0u8; 10]);
            stream.write_all(&partial).expect("partial payload");
        }

        let mut client = PlanClient::connect(server.addr()).expect("connect");
        let answer = client
            .ask(Request::Plan(PlanRequest {
                model: ModelId::VitalsTrend,
                context: WireContext::of(WireLink::WiR),
                objective: Objective::LeafEnergy,
            }))
            .expect("answer after disconnected peers");
        assert!(matches!(answer, Response::Plan(_)));
    }
}

#[test]
fn client_timeout_is_typed_when_the_server_never_replies() {
    use hidwa_core::serve::ClientError;
    use std::net::TcpListener;
    use std::time::Instant;

    // Regression for the ISSUE 9 client-hang bug: a server that accepts
    // the connection and reads the request but never replies (killed with
    // replies outstanding, wedged event loop) used to hang `recv()`
    // forever. With a timeout configured, the client must surface a typed
    // `ClientError::Timeout` within the bound — not block, not panic.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind sink");
    let addr = listener.local_addr().expect("addr");
    let sink = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        // Swallow whatever the client sends; never write a byte back.
        let mut void = [0u8; 1024];
        while let Ok(n) = stream.read(&mut void) {
            if n == 0 {
                break;
            }
        }
    });

    let mut client = PlanClient::connect(addr)
        .expect("connect")
        .with_timeout(Duration::from_millis(100))
        .expect("set timeout")
        .with_pipeline(4);
    let request = Request::Projection(ProjectionRequest { rate_bps: 1000.0 });
    client
        .submit(std::slice::from_ref(&request))
        .expect("submit");

    let started = Instant::now();
    match client.recv() {
        Err(ClientError::Timeout) => {}
        other => panic!("expected ClientError::Timeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "timeout must fire near the configured bound, not hang"
    );
    assert!(
        ClientError::Timeout.to_string().contains("timed out"),
        "timeout error renders a useful message"
    );
    drop(client);
    sink.join().expect("sink thread");
}

#[test]
fn client_initiated_shutdown_is_acknowledged_and_stops_the_workers() {
    for threads in MODES {
        let server = bind_mode(PlanService::new(), threads);
        let addr = server.addr();

        let mut client = PlanClient::connect(addr).expect("connect");
        let answer = client
            .ask(Request::Projection(ProjectionRequest { rate_bps: 2000.0 }))
            .expect("answer");
        assert!(matches!(answer, Response::Projection(_)));
        client.shutdown().expect("bye acknowledged");

        // `wait` returns because the shutdown request stopped the workers.
        let service = server.wait();
        assert_eq!(service.stats().projection_queries, 1);
    }
}
