//! Network serving: the ditto cluster behind a real TCP socket, with
//! admission control shedding load under a forced overload.
//!
//! ```text
//! cargo run --release --example wire_serving
//! ```
//!
//! 1. Boot a wire server on a loopback port hosting two apps — HISTO and
//!    HLL — each on its own 2-shard cluster.
//! 2. Serve skewed request batches over the socket with request
//!    pipelining; read `Done` acks with wire-inclusive latencies.
//! 3. Finalize both apps over the wire and verify the decoded outputs
//!    equal single-engine offline runs of the same tuples.
//! 4. Re-run against a tiny admission watermark: the server sheds with
//!    explicit `Overloaded` responses instead of queueing unboundedly.

use ditto::prelude::*;
use ditto::wire::{
    app_id, AdmissionConfig, AppRegistry, Response, WireApp, WireClient, WireServer,
    WireServerConfig,
};

const SHARDS: usize = 2;
const BATCH_TUPLES: usize = 1_000;
const TUPLES: usize = 12_000;

fn serve_config(pe_entries: usize) -> ServeConfig {
    ServeConfig::new(SHARDS, ArchConfig::new(4, 8, 7).with_pe_entries(pe_entries))
}

fn main() {
    // 1. Two hosted apps behind one socket.
    let histo = HistoApp::new(1_024, 8);
    let hll = HllApp::new(12, 8);
    let mut registry = AppRegistry::new();
    registry.register(
        app_id::HISTO,
        histo.clone(),
        serve_config(histo.pe_entries()),
    );
    registry.register(app_id::HLL, hll.clone(), serve_config(hll.pe_entries()));
    let server = WireServer::bind("127.0.0.1:0", registry, WireServerConfig::new())
        .expect("bind wire server");
    println!(
        "wire server listening on {} (epoll, {} I/O thread(s), budget {} connections)",
        server.local_addr(),
        server.io_threads(),
        AdmissionConfig::new().max_connections,
    );

    // 2. Pipelined serving over the socket.
    let data = ZipfGenerator::new(2.0, 1 << 18, 42).take_vec(TUPLES);
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    println!("ping: {:?}", client.ping().expect("ping"));
    let batches = split_into_batches(&data, BATCH_TUPLES);
    for batch in &batches {
        client.submit(app_id::HISTO, batch).expect("submit histo");
        client.submit(app_id::HLL, batch).expect("submit hll");
    }
    let mut acked = 0;
    let mut worst_wire_us = 0;
    while acked < 2 * batches.len() {
        let (_, app, resp) = client.recv().expect("completion");
        match resp {
            Response::Done {
                tuples, wall_us, ..
            } => {
                acked += 1;
                worst_wire_us = worst_wire_us.max(wall_us);
                if acked <= 3 {
                    println!("  app {app}: batch of {tuples} tuples done in {wall_us} µs");
                }
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    println!(
        "served {} batches over TCP (worst wire-inclusive latency {worst_wire_us} µs)",
        acked
    );

    // 3. Finalize over the wire; verify against single-engine runs.
    let histo_out = histo
        .decode_output(&client.finalize(app_id::HISTO).expect("finalize histo"))
        .expect("decode histo");
    let hll_out = hll
        .decode_output(&client.finalize(app_id::HLL).expect("finalize hll"))
        .expect("decode hll");
    let histo_single = SkewObliviousPipeline::run_dataset(
        histo.clone(),
        data.clone(),
        &serve_config(histo.pe_entries()).arch,
    )
    .output;
    let hll_single = SkewObliviousPipeline::run_dataset(
        hll.clone(),
        data.clone(),
        &serve_config(hll.pe_entries()).arch,
    )
    .output;
    assert_eq!(histo_out, histo_single, "HISTO wire result diverged");
    assert_eq!(hll_out, hll_single, "HLL wire result diverged");
    println!(
        "wire-served outputs equal single-engine runs (HISTO sum {}, HLL estimate {:.0})",
        histo_out.iter().sum::<u64>(),
        hll_out.estimate()
    );
    drop(client);
    server.shutdown();

    // 4. Overload: a watermark below one batch shears the excess off.
    let mut registry = AppRegistry::new();
    registry.register(
        app_id::HISTO,
        histo.clone(),
        serve_config(histo.pe_entries()),
    );
    let strict = AdmissionConfig::new()
        .with_watermark(BATCH_TUPLES as u64 / 2)
        .with_defer(0, std::time::Duration::ZERO);
    let server = WireServer::bind(
        "127.0.0.1:0",
        registry,
        WireServerConfig::new().with_admission(strict),
    )
    .expect("bind overloaded server");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    for batch in &batches {
        client.submit(app_id::HISTO, batch).expect("submit");
    }
    let (mut done, mut shed) = (0u64, 0u64);
    for _ in 0..batches.len() {
        match client.recv().expect("response").2 {
            Response::Done { .. } => done += 1,
            Response::Overloaded {
                queue_depth,
                watermark,
            } => {
                if shed == 0 {
                    println!("  overloaded: queue depth {queue_depth} >= watermark {watermark}");
                }
                shed += 1;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    let stats = client.stats(app_id::HISTO).expect("stats");
    println!(
        "overload run: {done} served, {shed} shed (server counted {}), queue peak {} tuples",
        stats.batches_shed, stats.queue_depth_peak
    );
    assert!(shed > 0, "forced overload must shed");
    assert_eq!(stats.batches_shed, shed);
    drop(client);
    server.shutdown();
    println!("graceful shutdown complete");
}
