//! Reactor-specific behaviour over real loopback sockets: high fan-in
//! without head-of-line blocking, slow-reader backpressure and eviction,
//! the connection budget, per-app auth tokens, and drain-flush at
//! shutdown.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use datagen::{Tuple, UniformGenerator};
use ditto_apps::HistoApp;
use ditto_core::ArchConfig;
use ditto_serve::ServeConfig;
use ditto_wire::{
    frame::error_code, AdmissionConfig, AppRegistry, Request, Response, WireClient, WireError,
    WireServer, WireServerConfig,
};

const APP: u16 = 7;
const SHARDS: usize = 2;

fn registry() -> AppRegistry {
    let app = HistoApp::new(256, 8);
    let arch = ArchConfig::new(4, 8, 7).with_pe_entries(app.pe_entries());
    let mut registry = AppRegistry::new();
    registry.register(APP, app, ServeConfig::new(SHARDS, arch));
    registry
}

fn boot(config: WireServerConfig) -> WireServer {
    WireServer::bind("127.0.0.1:0", registry(), config).expect("bind loopback")
}

/// What one client saw of its own batches.
#[derive(Debug, Default)]
struct Tally {
    submitted: u64,
    completed: u64,
    shed: u64,
    tuples_completed: u64,
}

impl Tally {
    fn absorb(&mut self, response: Response) {
        match response {
            Response::Done { tuples, .. } => {
                self.completed += 1;
                self.tuples_completed += tuples;
            }
            Response::Overloaded { .. } => self.shed += 1,
            other => panic!("unexpected response: {other:?}"),
        }
    }
}

/// One connection submitting `batches` with at most two awaiting their
/// response, then reading every response still owed.
fn pipelined_client<'a>(addr: SocketAddr, batches: impl Iterator<Item = &'a [Tuple]>) -> Tally {
    let mut client = WireClient::connect(addr).expect("connect client");
    let mut tally = Tally::default();
    let mut outstanding = 0;
    for batch in batches {
        if outstanding == 2 {
            tally.absorb(client.recv().expect("response").2);
            outstanding -= 1;
        }
        client.submit(APP, batch).expect("submit");
        tally.submitted += 1;
        outstanding += 1;
    }
    for _ in 0..outstanding {
        tally.absorb(client.recv().expect("response").2);
    }
    tally
}

/// ≥256 concurrent pipelined clients complete every batch while one
/// additional client submits and then refuses to read its response for
/// the whole run — a slow reader must cost only its own buffered frames,
/// never head-of-line block the reactor or the other connections.
#[test]
fn high_fan_in_is_not_blocked_by_a_slow_reader() {
    const CONNS: usize = 256;
    const BATCH: usize = 64;
    const BATCHES_PER_CONN: usize = 3;
    let server = boot(WireServerConfig::new());
    let addr = server.local_addr();
    assert!(
        server.io_threads() <= 8,
        "I/O threads scale with cores, not connections"
    );

    // The slow reader: submit, then go silent without reading.
    let mut slow = WireClient::connect(addr).expect("connect slow reader");
    let slow_batch: Vec<Tuple> = UniformGenerator::new(1 << 12, 99).take_vec(BATCH);
    slow.submit(APP, &slow_batch).expect("slow submit");

    let data: Vec<Tuple> =
        UniformGenerator::new(1 << 12, 42).take_vec(CONNS * BATCHES_PER_CONN * BATCH);
    let batches: Vec<&[Tuple]> = data.chunks(BATCH).collect();
    let report = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNS)
            .map(|conn| {
                let mine = batches.iter().skip(conn).step_by(CONNS).copied();
                scope.spawn(move || pipelined_client(addr, mine))
            })
            .collect();
        clients.into_iter().fold(Tally::default(), |sum, client| {
            let t = client.join().expect("client thread panicked");
            Tally {
                submitted: sum.submitted + t.submitted,
                completed: sum.completed + t.completed,
                shed: sum.shed + t.shed,
                tuples_completed: sum.tuples_completed + t.tuples_completed,
            }
        })
    });
    assert_eq!(report.submitted, (CONNS * BATCHES_PER_CONN) as u64);
    assert_eq!(
        report.completed, report.submitted,
        "every fast client completed despite the slow reader"
    );
    assert_eq!(report.shed, 0);
    assert_eq!(report.tuples_completed, data.len() as u64);

    // The slow reader's Done was buffered, not dropped: it reads fine now.
    match slow.recv().expect("slow reader's buffered completion") {
        (_, _, Response::Done { tuples, .. }) => assert_eq!(tuples, BATCH as u64),
        (_, _, other) => panic!("unexpected response: {other:?}"),
    }
    drop(slow);
    let report = server.shutdown();
    assert_eq!(report.connections_accepted, (CONNS + 1) as u64);
}

/// A client that streams submits but never reads responses crosses the
/// outbox hard cap and is evicted, without taking the server (or other
/// clients) with it.
#[test]
fn slow_reader_past_the_hard_cap_is_disconnected() {
    // Tiny soft cap (hard cap = 4×): a handful of unread `Done`s evicts.
    let server = boot(WireServerConfig::new().with_write_buffer(64));
    let addr = server.local_addr();

    // Raw socket client: flood submits in one burst, read nothing.
    let mut flood = TcpStream::connect(addr).expect("connect flood client");
    flood.set_nodelay(true).ok();
    let batch: Vec<Tuple> = UniformGenerator::new(1 << 12, 7).take_vec(16);
    let mut bytes = Vec::new();
    for seq in 0..32u64 {
        Request::Submit {
            tuples: batch.clone(),
        }
        .into_frame(APP, seq)
        .encode(&mut bytes);
    }
    flood.write_all(&bytes).expect("flood submits");

    // The completions pile into a 64-byte-capped outbox; the reactor must
    // kill the connection rather than buffer without bound. We observe the
    // close as EOF/reset rather than a read timeout.
    flood
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut sink = [0u8; 4096];
    loop {
        match flood.read(&mut sink) {
            Ok(0) => break, // server hung up
            Ok(_) => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                panic!("slow reader was never disconnected")
            }
            Err(_) => break, // reset also counts as hung up
        }
    }

    // The server is unharmed and reports the eviction.
    let mut probe = WireClient::connect(addr).expect("connect probe");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let text = probe.metrics_text(0).expect("metrics text");
        let evictions: f64 = text
            .lines()
            .find(|l| l.starts_with("ditto_wire_slow_disconnects"))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .expect("slow-disconnect counter exported");
        if evictions >= 1.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "eviction never surfaced in metrics"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(probe.ping().is_ok(), "server still serves after eviction");
    drop(probe);
    server.shutdown();
}

/// Accepts past `max_connections` are answered with one explicit
/// `TOO_MANY_CONNECTIONS` error frame and closed; closing a connection
/// releases its budget slot.
#[test]
fn connection_budget_rejects_then_recovers() {
    let server = boot(
        WireServerConfig::new().with_admission(AdmissionConfig::new().with_max_connections(2)),
    );
    let addr = server.local_addr();

    let mut c1 = WireClient::connect(addr).expect("connect 1");
    let mut c2 = WireClient::connect(addr).expect("connect 2");
    // Round-trips prove both are accepted (budget-counted), not just
    // sitting in the backlog.
    c1.ping().expect("ping 1");
    c2.ping().expect("ping 2");

    let mut c3 = WireClient::connect(addr).expect("TCP connect still succeeds");
    match c3.ping() {
        Err(WireError::Server { code, .. }) => {
            assert_eq!(code, error_code::TOO_MANY_CONNECTIONS);
        }
        Err(WireError::Io(_)) | Err(WireError::Protocol(_)) => {
            // The refusal frame can race the close; a dropped connection
            // is also an explicit (if less informative) refusal.
        }
        other => panic!("over-budget connection was served: {other:?}"),
    }

    // Hanging up releases the slot: a retry gets in.
    drop(c1);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut retry = WireClient::connect(addr).expect("reconnect");
        if retry.ping().is_ok() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "budget slot never released after disconnect"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    drop(c2);
    let report = server.shutdown();
    assert!(
        report.connections_rejected >= 1,
        "rejections are accounted: {report:?}"
    );
}

/// Apps with a registered token refuse `Submit`/`Finalize` frames bearing
/// the wrong one (`BAD_TOKEN`, connection stays usable) and serve clients
/// presenting the right one. Read-only requests stay open-access.
#[test]
fn auth_token_gates_submit_and_finalize() {
    let mut registry = registry();
    registry.set_token(APP, 0xBEEF);
    let server = WireServer::bind("127.0.0.1:0", registry, WireServerConfig::new()).expect("bind");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let batch: Vec<Tuple> = UniformGenerator::new(1 << 12, 5).take_vec(100);

    // No token presented: refused, but the connection survives.
    match client.submit_wait(APP, &batch).expect("transport fine") {
        Response::Error { code, .. } => assert_eq!(code, error_code::BAD_TOKEN),
        other => panic!("tokenless submit was served: {other:?}"),
    }
    match client.finalize(APP) {
        Err(WireError::Server { code, .. }) => assert_eq!(code, error_code::BAD_TOKEN),
        other => panic!("tokenless finalize was served: {other:?}"),
    }
    client
        .ping()
        .expect("connection still usable after refusals");
    client
        .stats(APP)
        .expect("read-only requests are open-access");

    // Wrong token: same refusal.
    client.set_token(0xDEAD);
    match client.submit_wait(APP, &batch).expect("transport fine") {
        Response::Error { code, .. } => assert_eq!(code, error_code::BAD_TOKEN),
        other => panic!("wrong-token submit was served: {other:?}"),
    }

    // Right token: served end to end.
    client.set_token(0xBEEF);
    match client.submit_wait(APP, &batch).expect("transport fine") {
        Response::Done { tuples, .. } => assert_eq!(tuples, batch.len() as u64),
        other => panic!("expected Done: {other:?}"),
    }
    let stats = client.stats(APP).expect("stats");
    assert_eq!(stats.batches_completed, 1);
    client.finalize(APP).expect("authorized finalize");
    drop(client);
    server.shutdown();
}

/// The "no `Done` lost" shutdown guarantee: responses still queued in
/// per-connection write buffers when shutdown begins are flushed before
/// the sockets close.
#[test]
fn shutdown_flushes_queued_dones() {
    const BATCHES: u64 = 64;
    let server = boot(WireServerConfig::new());
    let addr = server.local_addr();

    let mut client = WireClient::connect(addr).expect("connect");
    let batch: Vec<Tuple> = UniformGenerator::new(1 << 12, 3).take_vec(50);
    for _ in 0..BATCHES {
        client.submit(APP, &batch).expect("submit");
    }
    // A second connection watches until every batch is admitted, so
    // shutdown races only the *completion* path, not admission.
    let mut observer = WireClient::connect(addr).expect("connect observer");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = observer.stats(APP).expect("stats");
        if stats.batches_submitted == BATCHES {
            break;
        }
        assert!(Instant::now() < deadline, "admission stalled: {stats:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(observer);

    let report = server.shutdown();
    let (_, stats) = &report.per_app[0];
    assert_eq!(stats.batches_completed, BATCHES, "shutdown drained all");

    // Every Done must still be readable from the closed socket's buffer —
    // none were lost in a write buffer at close.
    let mut done = 0u64;
    loop {
        match client.recv() {
            Ok((_, _, Response::Done { tuples, .. })) => {
                assert_eq!(tuples, batch.len() as u64);
                done += 1;
            }
            Ok((_, _, other)) => panic!("unexpected response: {other:?}"),
            Err(_) => break, // clean EOF after the flushed tail
        }
    }
    assert_eq!(done, BATCHES, "a Done response was lost in shutdown");
}
