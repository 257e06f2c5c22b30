//! A cluster's doorbell wakes the thread it is attached to on every shard
//! event: a completion, and a death streamed by the shard's drop-guard.

use std::time::{Duration, Instant};

use datagen::Tuple;
use ditto_core::apps::CountPerKey;
use ditto_core::ArchConfig;
use ditto_serve::{Cluster, Doorbell, ServeConfig};

/// Long enough that a missing ring cannot be mistaken for a slow one.
const NO_RING: Duration = Duration::from_secs(10);

fn cluster_ringing(bell: &Doorbell) -> Cluster<CountPerKey> {
    let cluster = Cluster::new(
        CountPerKey::new(4),
        &ServeConfig::new(2, ArchConfig::new(2, 4, 1)),
    );
    cluster.attach_doorbell(bell.clone());
    cluster
}

/// Waits on `bell` and fails unless a ring ends the wait long before its
/// timeout.
fn assert_rung(bell: &Doorbell, what: &str) {
    let start = Instant::now();
    let rung = bell.wait(NO_RING);
    assert!(
        rung && start.elapsed() < NO_RING / 2,
        "{what} did not ring the doorbell (waited {:?})",
        start.elapsed()
    );
}

#[test]
fn a_completion_wakes_the_parked_thread() {
    let bell = Doorbell::current();
    let mut cluster = cluster_ringing(&bell);
    cluster.submit((0..500u64).map(Tuple::from_key).collect());
    // The shards take a few hundred simulated cycles per sub-batch, so this
    // thread is usually parked by the time they ring.
    let mut completed = Vec::new();
    while completed.is_empty() {
        assert_rung(&bell, "a completion");
        completed = cluster.take_completed();
    }
    assert_eq!(completed[0].tuples, 500);
    cluster.finish();
}

#[test]
fn a_shard_death_rings_even_when_a_channel_wait_took_the_wake_up() {
    let bell = Doorbell::current();
    let mut cluster = cluster_ringing(&bell);
    // `kill_shard` blocks on the event channel until the drop-guard's death
    // notice arrives; that receive parks this thread and may absorb the
    // ring's unpark. The shard served nothing, so the notice is the only
    // event that can have rung.
    let failure = cluster.kill_shard(1, "killed by the doorbell test");
    assert_eq!(failure.shard, 1);
    assert_rung(&bell, "the death notice");
}
