//! The three HA goldens, end to end on real shard threads:
//!
//! * **(b) replication**: a follower replica's slice is bit-identical to a
//!   from-scratch replay of the leader's batch log, and two replays of the
//!   same log are bit-identical to each other.
//! * **(c) recovery**: a mid-run shard kill followed by promotion
//!   converges to the same final output as a single engine that never saw
//!   a failure — whether the state comes back from a replica or from log
//!   replay, and whether the kill is explicit or injected by the
//!   `DITTO_KILL_SHARD`-style fault hook.
//! * **crash during handoff**: the migration source dying mid-protocol
//!   (after the balancer decided, before the install) forfeits nothing —
//!   its replica still covers the full history. A dead target forfeits
//!   nothing either: the extracted slice goes back onto the source.
//! * **kill right after a handoff**: either side of a completed replicated
//!   handoff dies and its replica alone restores it, which holds only if
//!   the followers mirrored the handoff exactly.

use datagen::{Tuple, ZipfGenerator};
use ditto_apps::{HhdApp, HistoApp};
use ditto_core::{ArchConfig, DittoApp, SkewObliviousPipeline};
use ditto_ha::{HaCluster, RecoverySource};
use ditto_serve::{split_into_batches, BalancerConfig, HandoffReport, ServeConfig, ShardFault};

const TUPLES: usize = 8_000;
const BATCH: usize = 1_000;
const SHARDS: usize = 3;

fn zipf3(seed: u64) -> Vec<Tuple> {
    ZipfGenerator::new(3.0, 1 << 16, seed).take_vec(TUPLES)
}

fn histo_config() -> (HistoApp, ServeConfig) {
    let app = HistoApp::new(256, 8);
    let arch = ArchConfig::new(4, 8, 7).with_pe_entries(app.pe_entries());
    (app, ServeConfig::new(SHARDS, arch))
}

fn single<A: DittoApp + 'static>(app: A, data: &[Tuple], arch: &ArchConfig) -> A::Output {
    SkewObliviousPipeline::run_dataset(app, data.to_vec(), arch).output
}

#[test]
fn follower_slice_equals_batch_log_replay_bit_for_bit() {
    let (app, config) = histo_config();
    let data = zipf3(91);
    let mut ha = HaCluster::new(app, &config, 2);
    for batch in split_into_batches(&data, BATCH) {
        ha.submit(batch);
    }
    ha.drain();
    for shard in 0..SHARDS {
        assert!(ha.log(shard).is_complete());
        let replayed = ha.replay_log(shard);
        let replayed_again = ha.replay_log(shard);
        assert_eq!(
            replayed, replayed_again,
            "two replays of shard {shard}'s log diverged — replay is not deterministic"
        );
        for replica in 0..2 {
            let follower = ha.follower_snapshot(shard, replica);
            assert_eq!(
                follower, replayed,
                "shard {shard} replica {replica} is not a bit-identical mirror"
            );
        }
    }
    // Consistency checks must not perturb the result.
    assert_eq!(ha.finish().output, {
        let (app, config) = histo_config();
        single(app, &data, &config.arch)
    });
}

#[test]
fn hhd_followers_mirror_their_leader() {
    // Same golden on the sketch-valued state (CMS cells + candidates).
    let app = HhdApp::new(4, 512, 300, 8);
    let arch = ArchConfig::new(4, 8, 7).with_pe_entries(app.pe_entries());
    let config = ServeConfig::new(SHARDS, arch);
    let data = zipf3(92);
    let mut ha = HaCluster::new(app, &config, 1);
    for batch in split_into_batches(&data, BATCH) {
        ha.submit(batch);
    }
    ha.drain();
    for shard in 0..SHARDS {
        assert_eq!(
            ha.follower_snapshot(shard, 0),
            ha.replay_log(shard),
            "HHD replica diverged from log replay on shard {shard}"
        );
    }
}

#[test]
fn kill_and_promotion_from_replica_converges_to_single_engine() {
    let (app, config) = histo_config();
    let data = zipf3(93);
    let mut ha = HaCluster::new(app.clone(), &config, 1);
    let batches = split_into_batches(&data, BATCH);
    let midpoint = batches.len() / 2;
    for (i, batch) in batches.into_iter().enumerate() {
        if i == midpoint {
            let failure = ha.kill_shard(1, "operator-injected mid-run kill");
            let promotion = ha.promote(&failure);
            assert_eq!(promotion.dead, 1);
            assert_eq!(promotion.source, RecoverySource::Replica);
            assert!(
                !promotion.moves.is_empty(),
                "the corpse's slots must re-home"
            );
        }
        ha.submit(batch);
    }
    ha.drain();
    assert_eq!(ha.promotions_total(), 1);
    let outcome = ha.finish();
    assert_eq!(
        outcome.output,
        single(app, &data, &config.arch),
        "failover changed the result"
    );
}

#[test]
fn kill_with_zero_replicas_recovers_through_log_replay() {
    let (app, config) = histo_config();
    let data = zipf3(94);
    let mut ha = HaCluster::new(app.clone(), &config, 0);
    let batches = split_into_batches(&data, BATCH);
    for (i, batch) in batches.into_iter().enumerate() {
        if i == 3 {
            let failure = ha.kill_shard(0, "kill with no replica standing by");
            let promotion = ha.promote(&failure);
            assert_eq!(promotion.source, RecoverySource::LogReplay);
        }
        ha.submit(batch);
    }
    ha.drain();
    let outcome = ha.finish();
    assert_eq!(outcome.output, single(app, &data, &config.arch));
}

#[test]
fn injected_fault_heals_transparently_inside_submit() {
    // The DITTO_KILL_SHARD code path: the fault hook panics the shard
    // thread mid-stream; the next submit notices the death and heals
    // without any caller involvement.
    let (app, mut config) = histo_config();
    config = config.with_fault(ShardFault {
        shard: 1,
        after_batches: 2,
    });
    let data = zipf3(95);
    let mut ha = HaCluster::new(app.clone(), &config, 1);
    for batch in split_into_batches(&data, BATCH) {
        ha.submit(batch);
    }
    ha.drain();
    ha.heal(); // in case the fault fired after the last submit
    let promotions = ha.take_promotions();
    assert_eq!(
        promotions.len(),
        1,
        "the fault must have fired exactly once"
    );
    assert!(promotions[0].failure.message.contains("DITTO_KILL_SHARD"));
    let outcome = ha.finish();
    assert_eq!(outcome.output, single(app, &data, &config.arch));
}

#[test]
fn source_crash_during_handoff_is_covered_by_its_replica() {
    // The handoff hazard: the source dies after the balancer committed to
    // migrating its slots but before its slice reached the target. The
    // extraction fails, the replicated handoff aborts, and the follower —
    // which still mirrors every tuple the leader ever accepted — covers
    // the promotion. Nothing is lost, nothing doubled.
    let (app, config) = histo_config();
    let data = zipf3(96);
    let mut ha = HaCluster::new(app.clone(), &config, 1);
    let batches = split_into_batches(&data, BATCH);
    let midpoint = batches.len() / 2;
    for (i, batch) in batches.into_iter().enumerate() {
        if i == midpoint {
            // Kill the would-be migration source, then run the balancing
            // round that wanted to move its slots: extract_shard fails
            // mid-protocol and heal() promotes from the replica instead.
            ha.kill_shard(0, "crashed between handoff pause and install");
            ha.rebalance();
            let promotions = ha.heal();
            assert_eq!(promotions.len(), 1);
            assert_eq!(promotions[0].dead, 0);
            assert_eq!(promotions[0].source, RecoverySource::Replica);
        }
        ha.submit(batch);
    }
    ha.drain();
    let outcome = ha.finish();
    assert_eq!(
        outcome.output,
        single(app, &data, &config.arch),
        "crash-during-handoff lost or doubled tuples"
    );
}

#[test]
fn target_crash_during_handoff_keeps_the_slice_on_its_source() {
    // The other side of the hazard: the target is dead when the source's
    // slice is already extracted. With every tuple pinned to shard 0,
    // shards 1 and 2 read an empty window and the balancer picks shard 1,
    // killed just before the round. The install fails, so the slice must
    // go back onto shard 0, whose replica and log never gave it up. Then
    // heal() recovers shard 1 from its own replica.
    let (app, arch, mut ha) = balanced_histo(1);
    let mut all = hot_batch(&ha);
    ha.submit(all.clone());
    ha.drain();
    ha.kill_shard(1, "target died before the handoff install");
    assert!(
        ha.rebalance().is_empty(),
        "a handoff onto a dead shard applies no move"
    );
    assert!(ha.take_handoffs().is_empty(), "and records none");
    let promotions = ha.heal();
    assert_eq!(promotions.len(), 1);
    assert_eq!(promotions[0].dead, 1);
    assert_eq!(promotions[0].source, RecoverySource::Replica);
    for batch in split_into_batches(&zipf3(100), BATCH).into_iter().take(3) {
        all.extend(batch.iter().copied());
        ha.submit(batch);
    }
    ha.drain();
    assert_eq!(
        ha.finish().output,
        single(app, &all, &arch),
        "a handoff onto a dead target lost or doubled tuples"
    );
}

#[test]
fn replicated_rebalance_moves_state_and_keeps_logs_honest() {
    // A full replicated handoff driven by the balancer: hot traffic pinned
    // to shard 0 forces a migration; the source's slice moves to the
    // target and its followers; the source's log resets (its state is
    // fresh again) while the target's is marked incomplete (its state no
    // longer derives from its own log); and the total count is exact.
    let app = HistoApp::new(256, 8);
    let arch = ArchConfig::new(4, 8, 0).with_pe_entries(app.pe_entries());
    let config = ServeConfig::new(SHARDS, arch.clone()).with_balancer(BalancerConfig {
        min_window_tuples: 64,
        ..BalancerConfig::default()
    });
    let mut ha = HaCluster::new(app.clone(), &config, 1);
    let hot_keys: Vec<u64> = (0u64..)
        .filter(|&k| ha.router().shard_of_key(k) == 0)
        .take(32)
        .collect();
    let mut all = Vec::new();
    let mut handoffs = Vec::new();
    for _ in 0..8 {
        let batch: Vec<Tuple> = hot_keys
            .iter()
            .cycle()
            .take(2_000)
            .map(|&k| Tuple::from_key(k))
            .collect();
        all.extend(batch.iter().copied());
        ha.submit(batch);
        ha.drain();
        ha.rebalance();
        handoffs.extend(ha.take_handoffs());
        if !handoffs.is_empty() {
            break;
        }
    }
    assert!(!handoffs.is_empty(), "hot shard never handed state off");
    let handoff = &handoffs[0];
    assert!(handoff.tuples_moved > 0, "the slice should carry history");
    assert!(
        ha.log(handoff.from).is_empty() && ha.log(handoff.from).is_complete(),
        "source log must reset to match its now-fresh state"
    );
    assert!(
        !ha.log(handoff.to).is_complete(),
        "target log must admit it no longer derives the state"
    );
    // After the handoff the target's replica still mirrors its leader.
    assert_eq!(
        ha.follower_snapshot(handoff.to, 0).len(),
        8,
        "replica slice has the M PriPE states"
    );
    let outcome = ha.finish();
    assert_eq!(
        outcome.output,
        single(app, &all, &arch),
        "replicated handoff lost or doubled tuples"
    );
}

#[test]
fn metrics_expose_the_ha_plane() {
    let (app, config) = histo_config();
    let data = zipf3(98);
    let mut ha = HaCluster::new(app, &config, 2);
    for batch in split_into_batches(&data, BATCH) {
        ha.submit(batch);
    }
    let failure = ha.kill_shard(2, "metrics probe kill");
    ha.promote(&failure);
    ha.drain();
    let snap = ha.metrics();
    let get = |name: &str| {
        snap.entries
            .iter()
            .find(|e| e.desc.name == name)
            .unwrap_or_else(|| panic!("missing metric {name}"))
    };
    assert_eq!(get("ditto_ha_replicas").value.scalar(), 2);
    assert_eq!(get("ditto_ha_promotions").value.scalar(), 1);
    let lag_entries = snap
        .entries
        .iter()
        .filter(|e| e.desc.name == "ditto_ha_replication_lag")
        .count();
    assert_eq!(lag_entries, SHARDS, "one lag gauge per shard");
}

/// The balancer-driven cluster of
/// `replicated_rebalance_moves_state_and_keeps_logs_honest`, with
/// `replicas` followers per shard.
fn balanced_histo(replicas: usize) -> (HistoApp, ArchConfig, HaCluster<HistoApp>) {
    let app = HistoApp::new(256, 8);
    let arch = ArchConfig::new(4, 8, 0).with_pe_entries(app.pe_entries());
    let config = ServeConfig::new(SHARDS, arch.clone()).with_balancer(BalancerConfig {
        min_window_tuples: 64,
        ..BalancerConfig::default()
    });
    let ha = HaCluster::new(app.clone(), &config, replicas);
    (app, arch, ha)
}

/// A batch of 2 000 tuples over 32 keys that all route to shard 0.
fn hot_batch(ha: &HaCluster<HistoApp>) -> Vec<Tuple> {
    let hot_keys: Vec<u64> = (0u64..)
        .filter(|&k| ha.router().shard_of_key(k) == 0)
        .take(32)
        .collect();
    hot_keys
        .iter()
        .cycle()
        .take(2_000)
        .map(|&k| Tuple::from_key(k))
        .collect()
}

/// Pins hot traffic to shard 0 until the balancer hands state off once;
/// returns every tuple submitted and the handoff reports of that round.
fn force_one_handoff(ha: &mut HaCluster<HistoApp>) -> (Vec<Tuple>, Vec<HandoffReport>) {
    let batch = hot_batch(ha);
    let mut all = Vec::new();
    for _ in 0..8 {
        let batch = batch.clone();
        all.extend(batch.iter().copied());
        ha.submit(batch);
        ha.drain();
        ha.rebalance();
        let handoffs = ha.take_handoffs();
        if !handoffs.is_empty() {
            return (all, handoffs);
        }
    }
    panic!("hot shard never handed state off");
}

#[test]
fn killing_either_side_right_after_a_handoff_recovers_from_its_replica() {
    // Source and target in two separate runs. The source's replica must
    // have dropped the slice its leader handed off (or promotion would
    // double it); the target's must hold it (or promotion would lose it).
    // Two followers per shard: promotion takes the last one, so a mirror
    // that skipped any replica index shows up here.
    for victim_is_target in [false, true] {
        let (app, arch, mut ha) = balanced_histo(2);
        let (mut all, handoffs) = force_one_handoff(&mut ha);
        let handoff = &handoffs[0];
        let victim = if victim_is_target {
            handoff.to
        } else {
            handoff.from
        };
        ha.kill_shard(victim, "killed right after a replicated handoff");
        let promotions = ha.heal();
        assert_eq!(promotions.len(), 1, "victim {victim}: one promotion");
        assert_eq!(promotions[0].dead, victim);
        assert_eq!(promotions[0].source, RecoverySource::Replica);
        for batch in split_into_batches(&zipf3(99), BATCH).into_iter().take(3) {
            all.extend(batch.iter().copied());
            ha.submit(batch);
        }
        ha.drain();
        assert_eq!(
            ha.finish().output,
            single(app, &all, &arch),
            "killing shard {victim} (target: {victim_is_target}) after a handoff \
             lost or doubled tuples"
        );
    }
}

#[test]
fn handoff_metrics_count_each_handoff_once() {
    let (_, _, mut ha) = balanced_histo(1);
    let (_, handoffs) = force_one_handoff(&mut ha);
    let snap = ha.metrics();
    assert_eq!(
        snap.scalar("ditto_ha_handoffs"),
        Some(handoffs.len() as u64),
        "one handoff counter owner"
    );
    assert_eq!(
        snap.scalar("ditto_ha_handoff_pause_us"),
        Some(handoffs.len() as u64),
        "one pause sample per handoff"
    );
}
