//! The completion pump is woken by the shards and the reactors, not by its
//! timer. Every server here runs a 10 s `pump_interval`, so a reply that
//! waited for the timer would take 10 s; each must arrive in under 1 s.

use std::time::{Duration, Instant};

use datagen::{Tuple, ZipfGenerator};
use ditto_apps::HistoApp;
use ditto_core::ArchConfig;
use ditto_serve::{ServeConfig, ShardFault};
use ditto_wire::{AppRegistry, Response, WireApp, WireClient, WireServer, WireServerConfig};

const APP: u16 = 9;
const PROMPT: Duration = Duration::from_secs(1);

fn app() -> HistoApp {
    HistoApp::new(256, 4)
}

fn serve_config(shards: usize) -> ServeConfig {
    ServeConfig::new(
        shards,
        ArchConfig::new(2, 4, 3).with_pe_entries(app().pe_entries()),
    )
}

fn bind(registry: AppRegistry) -> WireServer {
    let mut config = WireServerConfig::new();
    config.pump_interval = Duration::from_secs(10);
    WireServer::bind("127.0.0.1:0", registry, config).expect("bind loopback")
}

/// Runs `f` and fails unless it returns within [`PROMPT`].
fn prompt<T>(what: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    assert!(
        start.elapsed() < PROMPT,
        "{what} took {:?}: the pump waited for its timer",
        start.elapsed()
    );
    out
}

fn submit_done(client: &mut WireClient, batch: &[Tuple]) -> u64 {
    match prompt("a Done", || client.submit_wait(APP, batch).expect("submit")) {
        Response::Done { tuples, .. } => tuples,
        other => panic!("expected Done, got {other:?}"),
    }
}

#[test]
fn done_stats_and_finalize_do_not_wait_for_the_pump_timer() {
    let mut registry = AppRegistry::new();
    registry.register(APP, app(), serve_config(2));
    let server = bind(registry);
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    let data = ZipfGenerator::new(1.5, 1 << 12, 31).take_vec(1_200);
    let (first, second) = data.split_at(600);
    assert_eq!(submit_done(&mut client, first), 600);
    let stats = prompt("a StatsReply", || client.stats(APP).expect("stats"));
    assert_eq!(stats.batches_completed, 1);

    // Finalize respawns the cluster; the fresh one must ring too.
    let bytes = prompt("an Output", || client.finalize(APP).expect("finalize"));
    let output = app().decode_output(&bytes).expect("decode");
    assert_eq!(output, app().reference(first));
    assert_eq!(submit_done(&mut client, second), 600);
    // No shard serves an empty batch: the cluster rings in their place.
    assert_eq!(submit_done(&mut client, &[]), 0);

    drop(client);
    prompt("shutdown", || server.shutdown());
}

#[test]
fn every_done_after_a_leader_kill_is_prompt() {
    let config = serve_config(3).with_fault(ShardFault {
        shard: 1,
        after_batches: 2,
    });
    let mut registry = AppRegistry::new();
    registry.register_replicated(APP, app(), config, 1);
    let server = bind(registry);
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    let data = ZipfGenerator::new(1.5, 1 << 12, 32).take_vec(2_400);
    let mut acked = 0;
    for batch in data.chunks(300) {
        acked += submit_done(&mut client, batch);
    }
    assert_eq!(acked, data.len() as u64);
    let snap = client.metrics(APP).expect("metrics");
    let promotions = snap
        .get("ditto_ha_promotions", &[("app", &APP.to_string())])
        .expect("HA plane exported")
        .value
        .scalar();
    assert_eq!(promotions, 1, "the leader kill fired and was healed");
    let bytes = client.finalize(APP).expect("finalize");
    assert_eq!(
        app().decode_output(&bytes).expect("decode"),
        app().reference(&data)
    );

    drop(client);
    server.shutdown();
}
