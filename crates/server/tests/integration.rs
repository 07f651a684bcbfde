//! End-to-end tests of the network front-end: embedded-vs-remote
//! differential, pipelining, backpressure, consult broadcast, idle
//! reaping, and clean shutdown. Every server binds port 0 — no test
//! ever hardcodes a port.

use std::sync::Arc;
use std::time::{Duration, Instant};
use xsb_core::{PoolConfig, ServerPool};
use xsb_server::{
    wire, Driver, DriverError, EmbeddedDriver, Outcome, RemoteConn, Server, ServerConfig,
};

const GRAPH: &str = r#"
    :- table path/2.
    path(X,Y) :- edge(X,Y).
    path(X,Y) :- path(X,Z), edge(Z,Y).
    edge(1,2). edge(2,3). edge(3,1).
    p(f(X, b)) :- q(X).
    q(a). q('hello world'). q(7).
"#;

fn small_config() -> ServerConfig {
    ServerConfig {
        pool: PoolConfig {
            workers: 2,
            ..PoolConfig::default()
        },
        batch: 2, // small batches so multi-frame streaming is exercised
        ..ServerConfig::default()
    }
}

/// Spin until `cond` holds or ~2s elapse; background threads (connection
/// reaping, active-count drain) need a bounded grace period.
fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

#[test]
fn remote_client_gets_identical_answers_to_embedded_driver() {
    let pool = Arc::new(ServerPool::new(GRAPH, small_config().pool).unwrap());
    let server = Server::start_on_pool(Arc::clone(&pool), small_config()).unwrap();

    // same pool, two transports
    let mut embedded = EmbeddedDriver::new(Arc::clone(&pool)).with_batch(2);
    let mut remote = RemoteConn::connect(server.addr()).unwrap();

    for goal in ["path(1, X)", "path(X, Y)", "p(Z)", "q(W)"] {
        let via_pool = embedded.query(goal).unwrap().collect_all().unwrap();
        let via_wire = remote.query(goal).unwrap().collect_all().unwrap();
        assert_eq!(
            via_pool, via_wire,
            "embedded and remote answers diverge for {goal}"
        );
        assert!(!via_wire.is_empty(), "no answers for {goal}");
        assert_eq!(
            embedded.count(goal).unwrap(),
            remote.count(goal).unwrap(),
            "counts diverge for {goal}"
        );
    }

    // structured terms and quoted atoms survive rendering + the wire
    let p = remote.query("p(Z)").unwrap().collect_all().unwrap();
    let rendered: Vec<&str> = p.iter().map(|a| a[0].1.as_str()).collect();
    assert!(rendered.contains(&"f(a,b)"), "got {rendered:?}");
    assert!(rendered.contains(&"f('hello world',b)"), "got {rendered:?}");

    remote.close();
    assert_eq!(server.shutdown(), 0, "connections stuck at shutdown");
}

#[test]
fn pipelined_requests_demux_by_id_in_any_order() {
    let server = Server::start(GRAPH, small_config()).unwrap();
    let mut c = RemoteConn::connect(server.addr()).unwrap();
    assert_eq!(c.workers(), 2);

    // fire before harvesting anything: all three in flight at once
    let a = c.send_count("path(1, X)").unwrap();
    let b = c.send_query("q(W)").unwrap();
    let d = c.send_count("path(X, Y)").unwrap();

    // harvest out of submission order
    match c.wait(d).unwrap() {
        Outcome::Complete { completion, .. } => assert_eq!(completion.count, 9),
        other => panic!("expected completion, got {other:?}"),
    }
    match c.wait(b).unwrap() {
        Outcome::Complete {
            answers,
            completion,
        } => {
            assert_eq!(completion.count, 3);
            assert_eq!(answers.len(), 3);
            assert_eq!(answers[0][0].0, "W");
        }
        other => panic!("expected completion, got {other:?}"),
    }
    match c.wait(a).unwrap() {
        Outcome::Complete { completion, .. } => assert_eq!(completion.count, 3),
        other => panic!("expected completion, got {other:?}"),
    }
    c.close();
    assert_eq!(server.shutdown(), 0);
}

#[test]
fn concurrent_connections_each_pipelining_complete_without_busy() {
    // 2 connections, each keeping 4 count requests in flight until it has
    // completed 40, against an unbounded admission queue: nothing may be
    // shed, fail, or corrupt a frame
    const N: u64 = 64;
    const CONNECTIONS: usize = 2;
    const DEPTH: usize = 4;
    const PER_CONN: usize = 40;
    const SUBGOALS: usize = 4;
    let mut program = String::from(
        ":- table path/2.\npath(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\n",
    );
    for i in 1..=N {
        program.push_str(&format!("edge({i}, {}).\n", i % N + 1));
    }
    let config = ServerConfig {
        pool: PoolConfig {
            workers: 2,
            ..PoolConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::start(&program, config).unwrap();
    let addr = server.addr();

    // warm every subgoal's table first
    let mut warm = RemoteConn::connect(addr).unwrap();
    for k in 1..=SUBGOALS {
        assert_eq!(warm.count(&format!("path({k}, X)")).unwrap(), N);
    }
    warm.close();

    let clients: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut conn = RemoteConn::connect(addr).unwrap();
                let goal = |i: usize| format!("path({}, X)", 1 + (c + i) % SUBGOALS);
                let mut inflight = std::collections::VecDeque::new();
                let mut sent = 0;
                while sent < DEPTH {
                    inflight.push_back(conn.send_count(&goal(sent)).unwrap());
                    sent += 1;
                }
                let mut completed = 0;
                while let Some(id) = inflight.pop_front() {
                    match conn.wait(id).unwrap() {
                        Outcome::Complete { completion, .. } => {
                            assert_eq!(completion.count, N);
                            completed += 1;
                        }
                        other => panic!("connection {c}: expected completion, got {other:?}"),
                    }
                    if sent < PER_CONN {
                        inflight.push_back(conn.send_count(&goal(sent)).unwrap());
                        sent += 1;
                    }
                }
                conn.close();
                completed
            })
        })
        .collect();
    for client in clients {
        assert_eq!(client.join().unwrap(), PER_CONN);
    }
    assert_eq!(server.stats().protocol_errors, 0);
    assert_eq!(server.shutdown(), 0);
}

#[test]
fn overflow_is_shed_with_typed_busy() {
    // a 48-node cycle: path(X,Y) has 48*48 answers, milliseconds of
    // work — a wall that keeps the single worker busy while the
    // remaining submissions hit the full admission queue (depth 1)
    let mut program = String::from(
        ":- table path/2.\npath(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\n",
    );
    for i in 0..48 {
        program.push_str(&format!("edge({}, {}).\n", i, (i + 1) % 48));
    }
    let config = ServerConfig {
        pool: PoolConfig {
            workers: 1,
            queue_depth: Some(1),
            ..PoolConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::start(&program, config).unwrap();
    let mut c = RemoteConn::connect(server.addr()).unwrap();

    let ids: Vec<u64> = (0..6)
        .map(|_| c.send_count("path(X, Y)").unwrap())
        .collect();
    let mut done = 0u32;
    let mut busy = 0u32;
    for id in ids {
        match c.wait(id).unwrap() {
            Outcome::Complete { completion, .. } => {
                assert_eq!(completion.count, 48 * 48);
                done += 1;
            }
            Outcome::Busy => busy += 1,
            Outcome::Error(e) => panic!("unexpected engine error: {e}"),
        }
    }
    assert_eq!(done + busy, 6);
    assert!(done >= 1, "at least the first request must run");
    assert!(busy >= 1, "queue depth 1 must shed the burst");
    let stats = server.stats();
    assert_eq!(stats.rejections, busy as u64);
    assert_eq!(stats.requests, 6);
    // every accepted and rejected request has released its admission slot
    assert!(eventually(|| server.pool().inflight() == 0));
    c.close();
    assert_eq!(server.shutdown(), 0);
}

#[test]
fn consult_over_the_wire_reaches_every_worker() {
    let server = Server::start(GRAPH, small_config()).unwrap();
    let mut c = RemoteConn::connect(server.addr()).unwrap();

    assert_eq!(c.count("q(W)").unwrap(), 3);
    c.consult("r(extra1). r(extra2).").unwrap();
    // workers are queried round-robin; ask enough times to hit both
    for _ in 0..4 {
        assert_eq!(c.count("r(W)").unwrap(), 2);
        assert_eq!(c.count("q(W)").unwrap(), 3);
    }
    c.close();
    assert_eq!(server.shutdown(), 0);
}

#[test]
fn engine_error_is_per_request_and_connection_survives() {
    let server = Server::start(GRAPH, small_config()).unwrap();
    let mut c = RemoteConn::connect(server.addr()).unwrap();

    match c.count("this is not a goal ((") {
        Err(DriverError::Engine(_)) => {}
        other => panic!("expected engine error, got {other:?}"),
    }
    // the same connection still answers
    assert_eq!(c.count("path(1, X)").unwrap(), 3);

    // an error after one solution: that answer arrives, then the error
    let mut stream = c.query("member(X, [1, a]), Y is X + 1").unwrap();
    let first = stream.next().expect("one answer").unwrap();
    assert_eq!(
        first,
        [
            ("X".to_string(), "1".to_string()),
            ("Y".to_string(), "2".to_string())
        ]
    );
    match stream.next() {
        Some(Err(DriverError::Engine(_))) => {}
        other => panic!("expected engine error, got {other:?}"),
    }
    assert!(stream.next().is_none());
    drop(stream);
    assert_eq!(c.count("path(1, X)").unwrap(), 3);
    c.close();
    assert_eq!(server.shutdown(), 0);
}

#[test]
fn idle_connections_are_reaped_by_read_timeout() {
    let config = ServerConfig {
        read_timeout: Some(Duration::from_millis(50)),
        ..small_config()
    };
    let server = Server::start(GRAPH, config).unwrap();

    // a client that handshakes and then goes silent
    let mut c = RemoteConn::connect(server.addr()).unwrap();
    assert!(eventually(|| server.stats().active == 1));
    // ... and one that never even says Hello
    let raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();

    assert!(
        eventually(|| server.stats().active == 0),
        "idle connections were not reaped: {} still active",
        server.stats().active
    );
    // the reaped client sees a close, not a protocol error
    match c.count("q(W)") {
        Err(DriverError::Wire(_)) => {}
        other => panic!("expected a dead connection, got {other:?}"),
    }
    assert_eq!(server.stats().protocol_errors, 0);
    assert_eq!(server.shutdown(), 0);
}

#[test]
fn metrics_surface_serving_counters_and_wire_latency() {
    let server = Server::start(GRAPH, small_config()).unwrap();
    let mut c = RemoteConn::connect(server.addr()).unwrap();
    for _ in 0..3 {
        assert_eq!(c.count("path(1, X)").unwrap(), 3);
    }
    c.consult("q(another).").unwrap();

    // wait for the terminal frames to be written (stats are updated by
    // the writer thread)
    assert!(eventually(
        || server.metrics().lookup("net_requests") == Some(4)
    ));
    let m = server.metrics();
    assert_eq!(m.lookup("net_connections"), Some(1));
    assert_eq!(m.lookup("net_rejections"), Some(0));
    assert_eq!(m.lookup("net_protocol_errors"), Some(0));
    assert!(m.wire_latency.count() >= 4, "wire latency not recorded");

    // the statistics/2 JSON view carries the same rows
    let json = m.to_json().to_string();
    for key in [
        "net_connections",
        "net_requests",
        "net_rejections",
        "net_protocol_errors",
    ] {
        assert!(json.contains(key), "{key} missing from metrics JSON");
    }
    c.close();
    assert_eq!(server.shutdown(), 0);
}

#[test]
fn bye_closes_cleanly_and_shutdown_reports_no_stuck_connections() {
    let server = Server::start(GRAPH, small_config()).unwrap();
    let mut clients: Vec<RemoteConn> = (0..3)
        .map(|_| RemoteConn::connect(server.addr()).unwrap())
        .collect();
    for c in &mut clients {
        assert_eq!(c.count("path(1, X)").unwrap(), 3);
    }
    assert!(eventually(|| server.stats().active == 3));
    for c in clients {
        c.close();
    }
    assert!(eventually(|| server.stats().active == 0));
    let stats = server.stats();
    assert_eq!(stats.connections, 3);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(server.shutdown(), 0);
}

#[test]
fn answers_stream_lazily_through_the_iterator() {
    let server = Server::start(GRAPH, small_config()).unwrap();
    let mut c = RemoteConn::connect(server.addr()).unwrap();
    let mut stream = c.query("path(X, Y)").unwrap();
    let first = stream.next().unwrap().unwrap();
    assert_eq!(first.len(), 2, "two variables bound");
    assert_eq!(first[0].0, "X");
    assert_eq!(first[1].0, "Y");
    let rest: Result<Vec<_>, _> = stream.by_ref().collect();
    assert_eq!(rest.unwrap().len(), 8);
    let completion = stream.completion().expect("stream saw its Done frame");
    assert_eq!(completion.count, 9);
    // wire module consts are part of the public contract
    assert_eq!(&wire::MAGIC, b"XSBN");
    c.close();
    assert_eq!(server.shutdown(), 0);
}
