//! The replicated cluster: leader + N followers per shard, replicated
//! handoff on rebalance, and promotion-based failure recovery.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use datagen::Tuple;
use ditto_core::DittoApp;
use ditto_obs::{LogHistogram, MetricsRegistry, MetricsSnapshot, SpanEvent};
use ditto_serve::{
    AdmissionSnapshot, BatchId, Cluster, ClusterOutcome, ClusterSnapshot, CompletedBatch, Doorbell,
    HandoffReport, ServeConfig, ShardFailure, SlotMove,
};

use crate::log::BatchLog;

/// Where a promotion reconstructed the dead shard's state from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverySource {
    /// A follower replica was drained and its slice promoted.
    Replica,
    /// No follower existed; the leader's batch log was replayed from
    /// scratch (only possible while the log is complete).
    LogReplay,
}

/// The record of one shard promotion.
#[derive(Debug, Clone)]
pub struct Promotion {
    /// The shard that died.
    pub dead: usize,
    /// The live shard that inherited its state and slots.
    pub inheritor: usize,
    /// The death notice (panic payload) that triggered the promotion.
    pub failure: ShardFailure,
    /// Where the state came back from.
    pub source: RecoverySource,
    /// Routing moves applied (every slot the corpse owned).
    pub moves: Vec<SlotMove>,
    /// Tuples of history restored onto the inheritor.
    pub tuples_recovered: u64,
    /// Tuples that raced the death without reaching any engine and were
    /// resubmitted through the post-recovery routing.
    pub tuples_resubmitted: u64,
    /// Wall-clock recovery time: death observed → slots serving again.
    pub recovery: Duration,
}

/// A serve [`Cluster`] wrapped with N-way replication, replicated state
/// handoff and automatic failure recovery.
///
/// Every shard of the inner cluster (the *leader*) is shadowed by
/// `replicas` follower clusters — single-shard deployments of the same
/// app and architecture, fed exactly the sub-batches the leader's shard
/// accepted, in the same order, via [`submit`](Self::submit)'s
/// replication tap. Deterministic engines make followers bit-identical
/// mirrors, so promotion after a shard death loses nothing.
///
/// The inner cluster owns state handoff: [`rebalance`](Self::rebalance)
/// runs its rebalance (which moves and records the leader slices), then
/// mirrors every applied handoff onto the followers and resets/marks the
/// logs so they stay truthful.
pub struct HaCluster<A>
where
    A: DittoApp + Clone + 'static,
    A::State: Clone,
{
    app: A,
    inner: Cluster<A>,
    /// `replicas` follower clusters per shard (may be empty).
    followers: Vec<Vec<Cluster<A>>>,
    /// One batch log per shard.
    logs: Vec<BatchLog>,
    follower_config: ServeConfig,
    replicas: usize,
    promotions: Vec<Promotion>,
    promotions_total: u64,
    recovery_us: LogHistogram,
    /// Resubmitted batch → the root batch whose raced sub-batch it carries.
    resubmits: HashMap<BatchId, BatchId>,
    /// Root batches with resubmitted children still in flight: their
    /// completion records are held back and emitted merged, so a front-end
    /// sees one completion covering every tuple the request carried.
    outstanding: HashMap<BatchId, ResubmitAgg>,
}

/// The in-progress merge of a root batch's completion with its
/// resubmitted children's.
#[derive(Debug, Default)]
struct ResubmitAgg {
    children: usize,
    tuples: u64,
    latency_cycles: u64,
    wall: Duration,
    record: Option<CompletedBatch>,
}

impl<A> HaCluster<A>
where
    A: DittoApp + Clone + 'static,
    A::State: Clone,
{
    /// Boots the leader cluster per `config` plus `replicas` followers per
    /// shard. Followers run the same architecture as a 1-shard deployment
    /// with no balancer, no journal and no fault injection — the
    /// `DITTO_KILL_SHARD` hook kills leaders, never the replicas that
    /// recovery depends on.
    pub fn new(app: A, config: &ServeConfig, replicas: usize) -> Self {
        let follower_config = ServeConfig {
            cycles_per_poll: config.cycles_per_poll,
            ingress_rate: config.ingress_rate,
            ..ServeConfig::new(1, config.arch.clone()).with_journal_capacity(0)
        };
        let inner = Cluster::new(app.clone(), config);
        let followers = (0..config.shards)
            .map(|_| {
                (0..replicas)
                    .map(|_| Cluster::new(app.clone(), &follower_config))
                    .collect()
            })
            .collect();
        HaCluster {
            inner,
            followers,
            logs: vec![BatchLog::new(); config.shards],
            follower_config,
            replicas,
            app,
            promotions: Vec::new(),
            promotions_total: 0,
            recovery_us: LogHistogram::new(),
            resubmits: HashMap::new(),
            outstanding: HashMap::new(),
        }
    }

    /// Attaches `bell` to the leader cluster and to every follower (see
    /// [`Cluster::attach_doorbell`]): a leader's completion or death, and
    /// a follower's, wake the thread that runs [`heal`](Self::heal) and
    /// [`take_completed`](Self::take_completed).
    ///
    /// # Panics
    ///
    /// Panics if a doorbell is already attached.
    pub fn attach_doorbell(&self, bell: Doorbell) {
        for follower in self.followers.iter().flatten() {
            follower.attach_doorbell(bell.clone());
        }
        self.inner.attach_doorbell(bell);
    }

    /// Number of leader shards.
    pub fn shards(&self) -> usize {
        self.followers.len()
    }

    /// Configured followers per shard.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Read access to a shard's batch log.
    pub fn log(&self, shard: usize) -> &BatchLog {
        &self.logs[shard]
    }

    /// Admits one batch: the leader splits and serves it, and every
    /// *delivered* per-shard sub-batch is appended to that shard's log and
    /// mirrored to its followers. If the admission races a shard death,
    /// recovery runs immediately ([`heal`](Self::heal)) and the raced
    /// sub-batches are resubmitted — no tuple is lost or doubled.
    pub fn submit(&mut self, tuples: Vec<Tuple>) -> BatchId {
        let id = self.dispatch(tuples);
        if !self.inner.failed_shards().is_empty() {
            self.heal();
        }
        id
    }

    /// The replication tap without the heal check (promotion resubmits
    /// through this to avoid recursing into itself).
    fn dispatch(&mut self, tuples: Vec<Tuple>) -> BatchId {
        let (id, parts) = self.inner.submit_with_parts(tuples);
        for (shard, part) in parts.into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            for follower in &mut self.followers[shard] {
                follower.submit(part.clone());
            }
            self.logs[shard].append(id, part);
        }
        id
    }

    /// Follows the resubmission chain back to the batch a client submitted.
    /// A resubmitted child that itself races another death spawns
    /// grandchildren; they must be attributed to the canonical root, not
    /// the intermediate child.
    fn root_of(&self, batch: BatchId) -> BatchId {
        let mut b = batch;
        while let Some(&parent) = self.resubmits.get(&b) {
            b = parent;
        }
        b
    }

    /// Recovers every dead, unrecovered shard by promotion; returns the
    /// promotions performed (empty when the cluster is healthy). This is
    /// the supervisor the wire layer's pump calls between submissions, so
    /// failover is transparent to connected clients.
    pub fn heal(&mut self) -> Vec<Promotion> {
        let mut out = Vec::new();
        loop {
            let Some(failure) = self.inner.failed_shards().into_iter().next() else {
                break out;
            };
            out.push(self.promote(&failure));
        }
    }

    /// Promotes a replica of the dead shard onto a live inheritor:
    ///
    /// 1. reconstruct the corpse's slice — drain one follower and extract
    ///    it, or (with no replicas) replay the batch log;
    /// 2. install the slice on the inheritor *and its followers* (they
    ///    must stay mirrors), marking the inheritor's log incomplete;
    /// 3. reassign every slot the corpse owned and resolve its in-flight
    ///    batches (their tuples live in the promoted slice);
    /// 4. resubmit sub-batches that raced the death without reaching any
    ///    engine.
    ///
    /// # Panics
    ///
    /// Panics if every other shard is also dead, or if no follower exists
    /// and the log cannot reconstruct the state (see [`BatchLog::replay`]).
    pub fn promote(&mut self, failure: &ShardFailure) -> Promotion {
        let start = Instant::now();
        let dead = failure.shard;
        let inheritor = self.choose_inheritor(dead);
        let (states, source) = match self.followers[dead].pop() {
            Some(mut follower) => {
                follower.drain();
                let s = follower
                    .extract_shard(0)
                    .expect("local follower cluster cannot die");
                (s.states, RecoverySource::Replica)
            }
            None => (
                self.logs[dead].replay(&self.app, &self.follower_config),
                RecoverySource::LogReplay,
            ),
        };
        let tuples_recovered = self.logs[dead].tuples();
        self.install_replicated(inheritor, states);
        let moves = self.inner.recover_shard(dead, inheritor);
        // The corpse's remaining followers and log are useless now: its
        // history lives in the inheritor.
        self.followers[dead].clear();
        self.logs[dead].reset();
        // Sub-batches that raced the death never reached an engine;
        // resubmitting them through the post-recovery routing loses
        // nothing and doubles nothing. Each resubmission is attributed
        // back to the batch that carried it: the root's completion record
        // is held until every child completes, then emitted merged
        // (see take_completed), so a front-end's per-request tuple
        // accounting stays exact through the failover.
        let mut tuples_resubmitted = 0u64;
        for (batch, _, tuples) in self.inner.take_lost_parts() {
            tuples_resubmitted += tuples.len() as u64;
            let root = self.root_of(batch);
            let child = self.dispatch(tuples);
            self.resubmits.insert(child, root);
            self.outstanding.entry(root).or_default().children += 1;
        }
        let promotion = Promotion {
            dead,
            inheritor,
            failure: failure.clone(),
            source,
            moves,
            tuples_recovered,
            tuples_resubmitted,
            recovery: start.elapsed(),
        };
        self.promotions_total += 1;
        self.recovery_us
            .record(u64::try_from(promotion.recovery.as_micros()).unwrap_or(u64::MAX));
        self.promotions.push(promotion.clone());
        promotion
    }

    /// Installs a slice on a leader shard and all of its followers, and
    /// marks its log incomplete (state no longer derives from it).
    fn install_replicated(&mut self, shard: usize, states: Vec<A::State>) {
        self.inner
            .install_shard(shard, states.clone())
            .expect("install target died; heal() handles it next round");
        for follower in &mut self.followers[shard] {
            follower
                .install_shard(0, states.clone())
                .expect("local follower cluster cannot die");
        }
        self.logs[shard].mark_incomplete();
    }

    /// The live shard inheriting a corpse's state and slots: fewest owned
    /// slots first (ties to the lowest index), so repeated failures spread
    /// instead of piling onto shard 0.
    ///
    /// # Panics
    ///
    /// Panics if no other live shard exists.
    fn choose_inheritor(&mut self, dead: usize) -> usize {
        let router = self.inner.router();
        (0..self.shards())
            .filter(|&s| s != dead && !self.inner.is_shard_dead(s))
            .min_by_key(|&s| (router.slots_of(s).len(), s))
            .expect("every shard is dead — nothing can inherit")
    }

    /// One balancing round with *replicated* state handoff: the inner
    /// cluster rebalances, handing each migration source leader's slice to
    /// its target leader, then every handoff it recorded this round is
    /// mirrored on the followers: source follower `i`'s slice moves to
    /// target follower `i`, the source's log resets and the target's is
    /// marked incomplete. A handoff that fails on either side is neither
    /// applied nor recorded, and leaves the source leader holding its
    /// whole history, so its followers still mirror it and
    /// [`heal`](Self::heal) recovers the dead side from its replica.
    ///
    /// `ditto_ha_handoff_pause_us` times the leader handoff only; the
    /// follower mirroring that follows also holds up admission (this same
    /// thread admits) but is not in the sample.
    pub fn rebalance(&mut self) -> Vec<SlotMove> {
        let recorded = self.inner.handoffs().len();
        let moves = self.inner.rebalance();
        let done: Vec<(usize, usize)> = self.inner.handoffs()[recorded..]
            .iter()
            .map(|h| (h.from, h.to))
            .collect();
        for (from, to) in done {
            self.mirror_handoff(from, to);
        }
        moves
    }

    /// Repeats one leader handoff on the followers. A follower is a
    /// bit-identical mirror of its leader, so its slice is exactly the one
    /// the leader handed off and no state is cloned. The source's log
    /// resets (its state is fresh, which an empty log derives exactly) and
    /// the target's is marked incomplete.
    fn mirror_handoff(&mut self, from: usize, to: usize) {
        // Only a dead shard loses followers, and a dead shard takes part in
        // no applied handoff.
        assert_eq!(
            self.followers[from].len(),
            self.followers[to].len(),
            "live shards {from} and {to} must keep the same replica count"
        );
        for i in 0..self.followers[from].len() {
            let source = &mut self.followers[from][i];
            source.drain();
            let slice = source
                .extract_shard(0)
                .expect("local follower cluster cannot die");
            self.followers[to][i]
                .install_shard(0, slice.states)
                .expect("local follower cluster cannot die");
        }
        self.logs[from].reset();
        self.logs[to].mark_incomplete();
    }

    /// Blocks until every admitted batch completes, healing through any
    /// shard death on the way.
    pub fn drain(&mut self) {
        loop {
            match self.inner.try_drain() {
                Ok(()) => break,
                Err(failure) => {
                    self.promote(&failure);
                }
            }
        }
    }

    /// Shuts everything down and produces the combined output via the
    /// cross-shard merge, healing any outstanding failure first. Follower
    /// clusters are discarded — their slices are duplicates of leader
    /// state by construction and must not fold into the result.
    pub fn finish(mut self) -> ClusterOutcome<A::Output> {
        self.heal();
        self.drain();
        drop(self.followers);
        self.inner.finish()
    }

    /// Promotions performed since the last call.
    pub fn take_promotions(&mut self) -> Vec<Promotion> {
        std::mem::take(&mut self.promotions)
    }

    /// Lifetime promotion count.
    pub fn promotions_total(&self) -> u64 {
        self.promotions_total
    }

    /// The inner cluster's handoff reports since the last call.
    pub fn take_handoffs(&mut self) -> Vec<HandoffReport> {
        self.inner.take_handoffs()
    }

    /// Per-shard replication lag: the worst follower queue depth in
    /// tuples (0 for shards with no followers — or no backlog).
    pub fn replication_lag(&mut self) -> Vec<u64> {
        self.followers
            .iter_mut()
            .map(|fs| fs.iter_mut().map(Cluster::queue_depth).max().unwrap_or(0))
            .collect()
    }

    /// A point-in-time consistency check helper: drains `replica` of
    /// `shard` and returns its slice, then restores it (merge of a fresh
    /// buffer with an extracted slice is the slice), so the follower keeps
    /// mirroring its leader afterwards.
    pub fn follower_snapshot(&mut self, shard: usize, replica: usize) -> Vec<A::State> {
        let follower = &mut self.followers[shard][replica];
        follower.drain();
        let states = follower
            .extract_shard(0)
            .expect("local follower cluster cannot die")
            .states;
        follower
            .install_shard(0, states.clone())
            .expect("local follower cluster cannot die");
        states
    }

    /// Replays `shard`'s batch log through a fresh single-shard cluster
    /// and returns the reconstructed slice (see [`BatchLog::replay`]).
    pub fn replay_log(&self, shard: usize) -> Vec<A::State> {
        self.logs[shard].replay(&self.app, &self.follower_config)
    }

    // ── delegation to the inner cluster (the wire host surface) ──────

    /// Live cluster-wide queue depth in tuples (non-blocking).
    pub fn queue_depth(&mut self) -> u64 {
        self.inner.queue_depth()
    }

    /// Records a batch an admission layer refused.
    pub fn record_shed(&mut self, tuples: u64) {
        self.inner.record_shed(tuples);
    }

    /// Completion records since the last call. A batch whose raced
    /// sub-batches were resubmitted under new ids during a promotion is
    /// held back until every child completes, then emitted once under the
    /// root id with the children's tuples folded in — callers see exactly
    /// one record per submitted batch, with the full tuple count, failover
    /// or not.
    pub fn take_completed(&mut self) -> Vec<CompletedBatch> {
        let mut out = Vec::new();
        for c in self.inner.take_completed() {
            if let Some(root) = self.resubmits.remove(&c.id) {
                let agg = self
                    .outstanding
                    .get_mut(&root)
                    .expect("resubmitted child has a registered root");
                agg.tuples += c.tuples;
                agg.latency_cycles = agg.latency_cycles.max(c.latency_cycles);
                agg.wall = agg.wall.max(c.wall);
                agg.children -= 1;
                if agg.children == 0 && agg.record.is_some() {
                    let agg = self.outstanding.remove(&root).expect("present");
                    out.push(Self::merge_root(root, agg));
                }
            } else if let Some(agg) = self.outstanding.get_mut(&c.id) {
                let root = c.id;
                agg.record = Some(c);
                if agg.children == 0 {
                    let agg = self.outstanding.remove(&root).expect("present");
                    out.push(Self::merge_root(root, agg));
                }
            } else {
                out.push(c);
            }
        }
        out
    }

    /// The root's own record plus everything its resubmitted children did.
    fn merge_root(root: BatchId, agg: ResubmitAgg) -> CompletedBatch {
        let record = agg.record.expect("root completed before emission");
        CompletedBatch {
            id: root,
            tuples: record.tuples + agg.tuples,
            latency_cycles: record.latency_cycles.max(agg.latency_cycles),
            wall: record.wall.max(agg.wall),
        }
    }

    /// The admission-side counters (non-blocking).
    pub fn admission_snapshot(&mut self) -> AdmissionSnapshot {
        self.inner.admission_snapshot()
    }

    /// A point-in-time view of the leader cluster.
    pub fn snapshot(&mut self) -> ClusterSnapshot {
        self.inner.snapshot()
    }

    /// Read access to the leader's routing table.
    pub fn router(&self) -> &ditto_serve::RoutingTable {
        self.inner.router()
    }

    /// Kills a leader shard thread synchronously (test/fault hook).
    pub fn kill_shard(&mut self, shard: usize, message: &str) -> ShardFailure {
        self.inner.kill_shard(shard, message)
    }

    /// The merged observability snapshot: the leader cluster's registry
    /// (which carries the handoff series) plus the `ditto_ha_*` series
    /// this layer owns — replica count, per-shard replication lag,
    /// promotions and the recovery-time histogram.
    pub fn metrics(&mut self) -> MetricsSnapshot {
        let mut merged = self.inner.metrics();
        let mut reg = MetricsRegistry::new();
        let replicas = reg.gauge("ditto_ha_replicas", "ha", "items");
        let promotions = reg.counter("ditto_ha_promotions", "ha", "items");
        reg.set_gauge(replicas, self.replicas as u64);
        reg.set_counter(promotions, self.promotions_total);
        let recovery = reg.histogram("ditto_ha_recovery_us", "ha", "us");
        reg.set_histogram(recovery, self.recovery_us.clone());
        merged.merge(&reg.snapshot());
        for (shard, lag) in self.replication_lag().into_iter().enumerate() {
            let mut reg = MetricsRegistry::new().with_label("shard", shard);
            let g = reg.gauge("ditto_ha_replication_lag", "ha", "tuples");
            reg.set_gauge(g, lag);
            merged.merge(&reg.snapshot());
        }
        merged
    }

    /// Drains the leader cluster's span journals.
    pub fn take_journal(&mut self) -> Vec<SpanEvent> {
        self.inner.take_journal()
    }
}

impl<A> std::fmt::Debug for HaCluster<A>
where
    A: DittoApp + Clone + 'static,
    A::State: Clone,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HaCluster")
            .field("shards", &self.shards())
            .field("replicas", &self.replicas)
            .field("promotions", &self.promotions_total)
            .finish()
    }
}
