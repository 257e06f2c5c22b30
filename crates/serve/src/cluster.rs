//! The cluster front-end: admission, shard fan-out, completion tracking,
//! balancing and the cross-shard merge/finalize path.

use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use datagen::Tuple;
use ditto_core::{ArchConfig, DittoApp, ExecutionReport, SkewAnalyzer};
use ditto_obs::{
    LogHistogram, MetricsRegistry, MetricsSnapshot, SpanEvent, SpanJournal, SpanStage, NO_SHARD,
};

use crate::balancer::{BalancerConfig, ShardBalancer};
use crate::batch::{BatchId, CompletedBatch};
use crate::doorbell::Doorbell;
use crate::metrics::{AdmissionSnapshot, ClusterSnapshot, ShardSnapshot};
use crate::router::{RoutingTable, SlotMove, DEFAULT_SLOTS};
use crate::shard::{
    panic_message, spawn_shard, InstallSlot, ShardCommand, ShardEvent, ShardEvents, ShardFinish,
    ShardHandle,
};

/// How long the cluster waits on a shard reply or completion event before
/// declaring the deployment wedged. Simulated work is fast; a hit here
/// means a shard thread died (its panic message names the shard).
const SHARD_REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// Cluster deployment configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of pipeline shards (simulated FPGAs).
    pub shards: usize,
    /// The architecture every shard runs (and every `ditto-ha` follower
    /// and log replay with it).
    pub arch: ArchConfig,
    /// Routing slots (migration granularity).
    pub slots: usize,
    /// Cycles a shard simulates between command polls — the completion
    /// detection granularity.
    pub cycles_per_poll: u64,
    /// Per-shard ingress bandwidth in tuples per cycle (the paper's
    /// platform delivers 8 eight-byte tuples per cycle over a 64-byte
    /// interface).
    pub ingress_rate: f64,
    /// Skew-aware balancer tuning; `None` pins the routing table.
    pub balancer: Option<BalancerConfig>,
    /// Capacity of each span-journal ring buffer (one per shard plus one
    /// cluster-side); `0` disables trace buffering entirely while keeping
    /// the lifetime counters exact.
    pub journal_capacity: usize,
    /// Fault injection: kill one shard thread after it serves a fixed
    /// number of batches (the `DITTO_KILL_SHARD` test hook).
    pub fault: Option<ShardFault>,
}

/// Deterministic fault injection: panic `shard`'s thread after it has
/// served `after_batches` batches — the in-process stand-in for a crashed
/// FPGA host, used by the recovery tests and the CI fault-injection smoke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardFault {
    /// The shard to kill.
    pub shard: usize,
    /// Served-batch count at which the shard thread panics.
    pub after_batches: u64,
}

impl ShardFault {
    /// Parses the `DITTO_KILL_SHARD` environment hook, format
    /// `<shard>:<batches>` (e.g. `0:3` kills shard 0 after its third
    /// served batch). Returns `None` when unset.
    ///
    /// # Panics
    ///
    /// Panics when the variable is set but does not parse, so a fault
    /// drill cannot pass without its fault.
    pub fn from_env() -> Option<Self> {
        parse_kill_shard(std::env::var("DITTO_KILL_SHARD").ok().as_deref())
    }
}

/// `DITTO_KILL_SHARD`'s value as a fault: `None` when unset, a panic
/// naming the variable, the value and the accepted form when malformed.
fn parse_kill_shard(raw: Option<&str>) -> Option<ShardFault> {
    let raw = raw?;
    let fault = raw.split_once(':').and_then(|(shard, after)| {
        Some(ShardFault {
            shard: shard.trim().parse().ok()?,
            after_batches: after.trim().parse().ok()?,
        })
    });
    Some(fault.unwrap_or_else(|| {
        panic!("DITTO_KILL_SHARD={raw:?} does not parse: expected `<shard>:<batches>`, e.g. `0:3`")
    }))
}

impl ServeConfig {
    /// A cluster of `shards` identical `arch` shards with routing defaults
    /// and the balancer disabled (fixed key ranges).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, arch: ArchConfig) -> Self {
        assert!(shards > 0, "need at least one shard");
        ServeConfig {
            shards,
            arch,
            slots: DEFAULT_SLOTS.max(shards),
            cycles_per_poll: 256,
            ingress_rate: 8.0,
            balancer: None,
            journal_capacity: 4096,
            fault: None,
        }
    }

    /// The online-serving preset: each shard provisions the paper's maximal
    /// skew-handling capacity (`X = M − 1`, the [`SkewAnalyzer`]'s
    /// prior-free online recommendation), enables throughput-triggered
    /// rescheduling, and the cluster-level balancer is on.
    ///
    /// # Panics
    ///
    /// Panics if `shards`, `n_pre` or `m_pri` is zero.
    pub fn online(shards: usize, n_pre: u32, m_pri: u32) -> Self {
        let x_sec = SkewAnalyzer::paper().recommend_online(m_pri);
        let arch = ArchConfig::new(n_pre, m_pri, x_sec)
            .with_reschedule(0.5, 2_000)
            .with_profile_cycles(256)
            .with_monitor_window(2_048);
        ServeConfig::new(shards, arch).with_balancer(BalancerConfig::default())
    }

    /// Enables the skew-aware balancer.
    pub fn with_balancer(mut self, config: BalancerConfig) -> Self {
        self.balancer = Some(config);
        self
    }

    /// Sets the per-journal ring-buffer capacity (`0` disables trace
    /// buffering; lifetime counters stay exact either way).
    pub fn with_journal_capacity(mut self, capacity: usize) -> Self {
        self.journal_capacity = capacity;
        self
    }

    /// The architecture shard `shard` runs: always [`ServeConfig::arch`],
    /// kept only because `benchmark/src` imports it (ROADMAP 4(g)).
    pub fn arch_for(&self, _shard: usize) -> &ArchConfig {
        &self.arch
    }

    /// Installs a deterministic shard-kill fault.
    pub fn with_fault(mut self, fault: ShardFault) -> Self {
        self.fault = Some(fault);
        self
    }
}

struct PendingCluster {
    /// Shards still holding an uncompleted sub-batch of this batch.
    shards: Vec<usize>,
    tuples: u64,
    worst_cycles: u64,
    worst_wall: Duration,
}

/// A shard thread's death notice: which shard died and why (its panic
/// payload). Returned by [`Cluster::failed_shards`]/[`Cluster::try_drain`]
/// for a recovery layer to act on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// The dead shard.
    pub shard: usize,
    /// The shard thread's panic message.
    pub message: String,
}

impl std::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} died while serving: {}",
            self.shard, self.message
        )
    }
}

struct DeadShard {
    message: String,
    /// `true` once a recovery layer re-homed its slots and state.
    recovered: bool,
}

/// What one state handoff did and cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandoffReport {
    /// Source shard (its whole accumulated slice moved).
    pub from: usize,
    /// Target shard (received the slice through `merge`).
    pub to: usize,
    /// Slots whose ownership moved with the state.
    pub slots: Vec<usize>,
    /// Wall-clock pause: catch-up + extract + install, during which no new
    /// admissions were interleaved.
    pub pause: Duration,
    /// Simulated cycles the source stepped to reach its admission
    /// watermark before extraction.
    pub catch_up_cycles: u64,
    /// Tuples of history the moved slice covered.
    pub tuples_moved: u64,
}

/// The result of extracting a shard's accumulated slice mid-serve.
pub struct ShardStates<A: DittoApp> {
    /// The `M` post-merge PriPE states, covering every tuple admitted to
    /// the shard up to the extraction instant.
    pub states: Vec<A::State>,
    /// Tuples the slice covers (the engine's processed count).
    pub tuples: u64,
    /// Cycles the shard stepped to reach its admission watermark.
    pub catch_up_cycles: u64,
}

/// Terminal result of a cluster run.
#[derive(Debug)]
pub struct ClusterOutcome<O> {
    /// The combined application output — provably equal to a single-engine
    /// `run_dataset` over the concatenated input (see the crate docs for
    /// the per-application equality notion).
    pub output: O,
    /// Each shard's final execution report, indexed by shard.
    pub reports: Vec<ExecutionReport>,
    /// Final cluster metrics (latencies, migrations, completion counts).
    pub snapshot: ClusterSnapshot,
}

/// A cluster of persistent pipeline shards behind a skew-aware router.
///
/// Admission ([`submit`](Self::submit)) splits each tuple batch across
/// shards by key-hash slot; every shard is one [`PersistentPipeline`]
/// (one simulated FPGA) running on its own OS thread, so the cluster
/// genuinely serves shards concurrently. Completion events stream back and
/// feed latency metrics; [`rebalance`](Self::rebalance) migrates key ranges
/// off hot shards; [`finish`](Self::finish) merges PriPE states *across*
/// shards — each remote shard acts as a super-SecPE whose partial buffers
/// fold into shard 0's via the application's own `merge` — and finalizes
/// once, which is why sharded results equal a single-engine run.
///
/// [`PersistentPipeline`]: ditto_core::PersistentPipeline
pub struct Cluster<A: DittoApp + Clone + 'static> {
    app: A,
    handles: Vec<ShardHandle<A>>,
    router: RoutingTable,
    balancer: Option<ShardBalancer>,
    events: Receiver<ShardEvent>,
    /// Rung by every shard event once attached; shared with the shards.
    doorbell: Arc<OnceLock<Doorbell>>,
    pending: HashMap<BatchId, PendingCluster>,
    next_batch: BatchId,
    batches_submitted: u64,
    batches_completed: u64,
    tuples_submitted: u64,
    tuples_completed: u64,
    batches_shed: u64,
    tuples_shed: u64,
    queue_depth_peak: u64,
    shard_batches_done: Vec<u64>,
    last_shard_tuples: Vec<u64>,
    latency_cycles: LogHistogram,
    latency_wall_us: LogHistogram,
    completed: Vec<CompletedBatch>,
    /// Cluster-side lifecycle events (the cross-shard `Merge` stage).
    journal: SpanJournal,
    /// Death notices per shard (`None` = alive).
    dead: Vec<Option<DeadShard>>,
    /// Sub-batches that could not be delivered because their shard died
    /// racing the submit; a recovery layer takes and resubmits them.
    lost_parts: Vec<(BatchId, usize, Vec<Tuple>)>,
    tuples_lost: u64,
    handoffs: Vec<HandoffReport>,
    handoffs_total: u64,
    handoff_pause_us: LogHistogram,
}

impl<A: DittoApp + Clone + 'static> Cluster<A> {
    /// Boots `config.shards` shard threads, each serving a clone of `app`.
    pub fn new(app: A, config: &ServeConfig) -> Self {
        let (event_tx, events) = mpsc::channel();
        let doorbell = Arc::new(OnceLock::new());
        let event_tx = ShardEvents::new(event_tx, Arc::clone(&doorbell));
        let handles = (0..config.shards)
            .map(|id| {
                spawn_shard(
                    id,
                    app.clone(),
                    &config.arch,
                    config.ingress_rate,
                    config.cycles_per_poll,
                    config.journal_capacity,
                    config
                        .fault
                        .filter(|f| f.shard == id)
                        .map(|f| f.after_batches),
                    event_tx.clone(),
                )
            })
            .collect();
        Cluster {
            app,
            handles,
            router: RoutingTable::new(config.shards, config.slots),
            balancer: config
                .balancer
                .clone()
                .map(|b| ShardBalancer::new(config.shards, b)),
            events,
            doorbell,
            pending: HashMap::new(),
            next_batch: 0,
            batches_submitted: 0,
            batches_completed: 0,
            tuples_submitted: 0,
            tuples_completed: 0,
            batches_shed: 0,
            tuples_shed: 0,
            queue_depth_peak: 0,
            shard_batches_done: vec![0; config.shards],
            last_shard_tuples: vec![0; config.shards],
            latency_cycles: LogHistogram::new(),
            latency_wall_us: LogHistogram::new(),
            completed: Vec::new(),
            journal: SpanJournal::new(config.journal_capacity),
            dead: (0..config.shards).map(|_| None).collect(),
            lost_parts: Vec::new(),
            tuples_lost: 0,
            handoffs: Vec::new(),
            handoffs_total: 0,
            handoff_pause_us: LogHistogram::new(),
        }
    }

    /// Attaches the doorbell every shard rings right after it streams an
    /// event — a completion or its death notice — so the thread collecting
    /// completions can park instead of polling. The cluster rings it too
    /// when it completes a batch no shard event announces (an empty batch,
    /// or one released from a dead shard). A cluster without a doorbell
    /// rings nothing.
    ///
    /// # Panics
    ///
    /// Panics if a doorbell is already attached.
    pub fn attach_doorbell(&self, bell: Doorbell) {
        assert!(
            self.doorbell.set(bell).is_ok(),
            "cluster already has a doorbell"
        );
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.handles.len()
    }

    /// Read access to the routing table (slot ownership, admitted loads).
    pub fn router(&self) -> &RoutingTable {
        &self.router
    }

    /// Batches admitted but not yet fully served.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Admits one batch: splits it across shards by the current routing
    /// table and returns its id. Completion is observed via
    /// [`poll`](Self::poll)/[`drain`](Self::drain).
    ///
    /// # Panics
    ///
    /// Panics if a shard thread has died (its own panic is reported on that
    /// thread).
    pub fn submit(&mut self, tuples: Vec<Tuple>) -> BatchId {
        self.dispatch(tuples, false).0
    }

    /// [`submit`](Self::submit), additionally returning a copy of each
    /// *delivered* per-shard sub-batch (index = shard; empty where nothing
    /// was routed or delivery failed) — the replication tap `ditto-ha`
    /// duplicates admitted batches to followers from. Sub-batches whose
    /// shard died racing the send are excluded here and surface through
    /// [`take_lost_parts`](Self::take_lost_parts) instead, so a follower
    /// never sees a tuple its leader did not accept.
    pub fn submit_with_parts(&mut self, tuples: Vec<Tuple>) -> (BatchId, Vec<Vec<Tuple>>) {
        let (id, parts) = self.dispatch(tuples, true);
        (id, parts.expect("parts requested"))
    }

    fn dispatch(&mut self, tuples: Vec<Tuple>, keep: bool) -> (BatchId, Option<Vec<Vec<Tuple>>>) {
        let id = self.next_batch;
        self.next_batch += 1;
        self.batches_submitted += 1;
        self.tuples_submitted += tuples.len() as u64;
        let total = tuples.len() as u64;
        let parts = self.router.split(tuples);
        let now = Instant::now();
        let routed: Vec<usize> = parts
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(shard, _)| shard)
            .collect();
        let mut kept = keep.then(|| vec![Vec::new(); self.handles.len()]);
        if routed.is_empty() {
            // Served by nobody: complete the empty batch at once.
            self.complete_unannounced(CompletedBatch {
                id,
                tuples: total,
                latency_cycles: 0,
                wall: Duration::ZERO,
            });
            self.poll();
            return (id, kept);
        }
        // Register the batch before the first send: a fast shard can
        // complete its sub-batch while this loop is still blocked in
        // await_failure on another shard's death notice (the dead shard
        // drops its command receiver before the drop-guard sends the
        // notice), and that completion event must find the entry. The
        // entry cannot complete early — every shard still owed a send
        // stays in its set until delivery resolves below.
        self.pending.insert(
            id,
            PendingCluster {
                shards: routed,
                tuples: total,
                worst_cycles: 0,
                worst_wall: Duration::ZERO,
            },
        );
        for (shard, part) in parts.into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            let copy = kept.is_some().then(|| part.clone());
            match self.handles[shard].commands.send(ShardCommand::Submit {
                batch: id,
                tuples: part,
                submitted: now,
            }) {
                Ok(()) => {
                    if let (Some(kept), Some(copy)) = (kept.as_mut(), copy) {
                        kept[shard] = copy;
                    }
                }
                Err(mpsc::SendError(cmd)) => {
                    // The shard's command channel is gone: wait for its
                    // death notice (the drop-guard sends it while the
                    // thread unwinds), stash the sub-batch for a recovery
                    // layer to resubmit, and release the batch from
                    // waiting on the corpse.
                    self.await_failure(shard);
                    if let ShardCommand::Submit { tuples, .. } = cmd {
                        let lost = tuples.len() as u64;
                        self.tuples_lost += lost;
                        self.lost_parts.push((id, shard, tuples));
                        self.pending
                            .get_mut(&id)
                            .expect("undelivered shard keeps its batch pending")
                            .tuples -= lost;
                        if let Some(done) = self.release(id, shard) {
                            self.complete_unannounced(done);
                        }
                    }
                }
            }
        }
        self.queue_depth_peak = self.queue_depth_peak.max(self.live_depth());
        self.poll();
        (id, kept)
    }

    /// Tuples admitted, not lost to a shard death, and not yet completed.
    fn live_depth(&self) -> u64 {
        self.tuples_submitted - self.tuples_completed - self.tuples_lost
    }

    /// Blocks until `shard`'s death notice arrives (absorbing other events
    /// on the way) and returns it. Only call when the shard's channel is
    /// already gone — the drop-guard's `Failed` event is then in flight.
    ///
    /// # Panics
    ///
    /// Panics if no death notice arrives within the reply timeout (the
    /// thread exited without panicking — a bug, not a crash).
    fn await_failure(&mut self, shard: usize) -> ShardFailure {
        let deadline = Instant::now() + SHARD_REPLY_TIMEOUT;
        while self.dead[shard].is_none() {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.events.recv_timeout(left) {
                Ok(ev) => self.on_event(ev),
                Err(_) => panic!("shard {shard} is gone without a failure notice"),
            }
        }
        let d = self.dead[shard].as_ref().expect("just observed");
        ShardFailure {
            shard,
            message: d.message.clone(),
        }
    }

    /// Tuples admitted but not yet part of a completed batch — the
    /// cluster-wide queue depth an admission layer reads before deciding to
    /// accept more work. Non-blocking: absorbs queued completion events but
    /// never round-trips to a shard thread.
    pub fn queue_depth(&mut self) -> u64 {
        self.poll();
        self.live_depth()
    }

    /// Records a batch an admission layer refused (load shedding): the
    /// batch never entered the cluster, but its refusal is part of the
    /// serving story and shows up in every snapshot.
    pub fn record_shed(&mut self, tuples: u64) {
        self.batches_shed += 1;
        self.tuples_shed += tuples;
    }

    /// The admission-side counters, without a shard round-trip: queue
    /// depth (current + high-watermark), submitted/completed/shed tallies
    /// and the batch latency distributions. This is the non-blocking hook
    /// a front-end polls on every admission decision; the full
    /// [`snapshot`](Self::snapshot) additionally interrogates every shard
    /// thread synchronously.
    pub fn admission_snapshot(&mut self) -> AdmissionSnapshot {
        self.poll();
        AdmissionSnapshot {
            batches_submitted: self.batches_submitted,
            batches_completed: self.batches_completed,
            batches_shed: self.batches_shed,
            tuples_submitted: self.tuples_submitted,
            tuples_completed: self.tuples_completed,
            tuples_shed: self.tuples_shed,
            queue_depth: self.live_depth(),
            queue_depth_peak: self.queue_depth_peak,
            latency_cycles: self.latency_cycles.stats(),
            latency_wall_us: self.latency_wall_us.stats(),
        }
    }

    /// Absorbs all completion events currently queued (non-blocking).
    pub fn poll(&mut self) {
        while let Ok(ev) = self.events.try_recv() {
            self.on_event(ev);
        }
    }

    /// Blocks until every admitted batch has completed.
    ///
    /// # Panics
    ///
    /// Panics immediately — with the dead shard's own panic message — if a
    /// shard thread has died (recovery layers use
    /// [`try_drain`](Self::try_drain) to intercept the failure instead),
    /// or if no completion arrives within the shard-reply timeout.
    pub fn drain(&mut self) {
        if let Err(f) = self.try_drain() {
            panic!("{f}");
        }
    }

    /// Blocks until every admitted batch has completed, or returns the
    /// failure notice of a dead, unrecovered shard the moment one is
    /// observed — the hook `ditto-ha` promotes replicas from. Call again
    /// after recovery to keep draining.
    ///
    /// # Panics
    ///
    /// Panics if no event arrives within the shard-reply timeout while
    /// batches are outstanding and every shard is (apparently) alive.
    pub fn try_drain(&mut self) -> Result<(), ShardFailure> {
        self.poll();
        loop {
            if let Some(f) = self.unrecovered().next() {
                return Err(f);
            }
            if self.pending.is_empty() {
                return Ok(());
            }
            match self.events.recv_timeout(SHARD_REPLY_TIMEOUT) {
                Ok(ev) => self.on_event(ev),
                Err(_) => {
                    // Name the culprit: if a shard thread died without a
                    // notice, its panic payload is the diagnosis, not
                    // "drain stalled".
                    for (shard, handle) in self.handles.drain(..).enumerate() {
                        if handle.thread.is_finished() {
                            if let Err(payload) = handle.thread.join() {
                                panic!(
                                    "cluster drain stalled: shard {shard} thread panicked: {}",
                                    panic_message(payload.as_ref())
                                );
                            }
                        }
                    }
                    panic!(
                        "cluster drain stalled with {} batches outstanding",
                        self.pending.len()
                    );
                }
            }
        }
    }

    /// Death notices of the dead, unrecovered shards, lowest index first.
    fn unrecovered(&self) -> impl Iterator<Item = ShardFailure> + '_ {
        self.dead.iter().enumerate().filter_map(|(shard, d)| {
            d.as_ref().filter(|d| !d.recovered).map(|d| ShardFailure {
                shard,
                message: d.message.clone(),
            })
        })
    }

    /// Death notices of every dead, unrecovered shard (absorbing queued
    /// events first). A recovery layer polls this before each admission.
    pub fn failed_shards(&mut self) -> Vec<ShardFailure> {
        self.poll();
        self.unrecovered().collect()
    }

    /// `true` once `shard`'s thread has died (recovered or not).
    pub fn is_shard_dead(&self, shard: usize) -> bool {
        self.dead[shard].is_some()
    }

    /// Takes the sub-batches that could not be delivered because their
    /// shard died racing the submit, as `(batch, shard, tuples)`. After
    /// recovery re-homes the dead shard's slots, resubmitting these tuples
    /// loses nothing and doubles nothing: they were never admitted to any
    /// engine. The batch id lets a recovery layer attribute the resubmitted
    /// work back to the request that carried it.
    pub fn take_lost_parts(&mut self) -> Vec<(BatchId, usize, Vec<Tuple>)> {
        std::mem::take(&mut self.lost_parts)
    }

    fn on_event(&mut self, ev: ShardEvent) {
        match ev {
            ShardEvent::Completed {
                shard,
                batch,
                latency_cycles,
                wall,
            } => {
                self.shard_batches_done[shard] += 1;
                let p = self
                    .pending
                    .get_mut(&batch)
                    .expect("completion for unknown batch");
                p.worst_cycles = p.worst_cycles.max(latency_cycles);
                p.worst_wall = p.worst_wall.max(wall);
                if let Some(done) = self.release(batch, shard) {
                    self.record_completion(done);
                }
            }
            ShardEvent::Failed { shard, message } => {
                if self.dead[shard].is_none() {
                    self.dead[shard] = Some(DeadShard {
                        message,
                        recovered: false,
                    });
                }
            }
        }
    }

    /// Releases pending `batch` from waiting on `shard`, and completes it
    /// once no other shard still owes it a sub-batch.
    fn release(&mut self, batch: BatchId, shard: usize) -> Option<CompletedBatch> {
        let p = self
            .pending
            .get_mut(&batch)
            .expect("released batch is pending");
        p.shards.retain(|&s| s != shard);
        if !p.shards.is_empty() {
            return None;
        }
        let p = self.pending.remove(&batch).expect("present");
        Some(CompletedBatch {
            id: batch,
            tuples: p.tuples,
            latency_cycles: p.worst_cycles,
            wall: p.worst_wall,
        })
    }

    /// Sends `command` to `shard` unless it is known dead. A command that
    /// is not delivered is dropped, which hangs up its reply channel.
    fn send(&self, shard: usize, command: ShardCommand<A>) {
        if self.dead[shard].is_none() {
            let _ = self.handles[shard].commands.send(command);
        }
    }

    /// One round trip to `shard`: `command` carries the reply sender.
    /// Returns the shard's failure notice if it is dead or dies before it
    /// replies.
    ///
    /// # Panics
    ///
    /// Panics if a live shard does not reply within the reply timeout.
    fn ask<R>(
        &mut self,
        shard: usize,
        what: &str,
        command: impl FnOnce(Sender<R>) -> ShardCommand<A>,
    ) -> Result<R, ShardFailure> {
        self.poll();
        let (tx, rx) = mpsc::channel();
        self.send(shard, command(tx));
        match rx.recv_timeout(SHARD_REPLY_TIMEOUT) {
            Ok(reply) => Ok(reply),
            Err(RecvTimeoutError::Disconnected) => Err(self.await_failure(shard)),
            Err(RecvTimeoutError::Timeout) => panic!("shard {shard} {what} timed out"),
        }
    }

    /// One round trip to every live shard. Every command goes out before
    /// any reply is awaited, so the shards answer in parallel. Replies come
    /// back in shard order, `None` for a shard that is dead or dies before
    /// it replies.
    ///
    /// # Panics
    ///
    /// Panics if a live shard does not reply within the reply timeout.
    fn ask_live<R>(
        &mut self,
        what: &str,
        command: impl Fn(Sender<R>) -> ShardCommand<A>,
    ) -> Vec<Option<R>> {
        self.poll();
        let replies: Vec<Receiver<R>> = (0..self.handles.len())
            .map(|shard| {
                let (tx, rx) = mpsc::channel();
                self.send(shard, command(tx));
                rx
            })
            .collect();
        replies
            .into_iter()
            .enumerate()
            .map(|(shard, rx)| match rx.recv_timeout(SHARD_REPLY_TIMEOUT) {
                Ok(reply) => Some(reply),
                Err(RecvTimeoutError::Disconnected) => None,
                Err(RecvTimeoutError::Timeout) => panic!("shard {shard} {what} timed out"),
            })
            .collect()
    }

    fn record_completion(&mut self, batch: CompletedBatch) {
        self.batches_completed += 1;
        self.tuples_completed += batch.tuples;
        self.latency_cycles.record(batch.latency_cycles);
        self.latency_wall_us
            .record(u64::try_from(batch.wall.as_micros()).unwrap_or(u64::MAX));
        self.journal.record(
            batch.id,
            SpanStage::Merge,
            batch.latency_cycles,
            NO_SHARD,
            batch.tuples,
        );
        self.completed.push(batch);
    }

    /// Records a completion no shard event announces, ringing the doorbell
    /// in the shards' place.
    fn complete_unannounced(&mut self, batch: CompletedBatch) {
        self.record_completion(batch);
        if let Some(bell) = self.doorbell.get() {
            bell.ring();
        }
    }

    /// Takes the completion records accumulated since the last call —
    /// load generators read these for per-batch latency traces. Absorbs
    /// queued events first.
    pub fn take_completed(&mut self) -> Vec<CompletedBatch> {
        self.poll();
        std::mem::take(&mut self.completed)
    }

    fn shard_snapshots(&mut self) -> Vec<ShardSnapshot> {
        let replies = self.ask_live("snapshot", |reply| ShardCommand::Snapshot { reply });
        replies
            .into_iter()
            .enumerate()
            .map(|(shard, snap)| {
                // A dead shard reports a tombstone row; its history lives
                // on in whichever shard inherited its state.
                snap.unwrap_or_else(|| ShardSnapshot {
                    shard,
                    cycles: 0,
                    tuples: 0,
                    queue_depth: 0,
                    reschedules: 0,
                    plans_generated: 0,
                    per_pe_processed: Vec::new(),
                    batches_completed: self.shard_batches_done[shard],
                    batches_pending: 0,
                })
            })
            .collect()
    }

    /// A point-in-time view of the whole cluster (synchronously snapshots
    /// every shard).
    pub fn snapshot(&mut self) -> ClusterSnapshot {
        let shards = self.shard_snapshots();
        self.assemble_snapshot(shards)
    }

    fn assemble_snapshot(&self, shards: Vec<ShardSnapshot>) -> ClusterSnapshot {
        ClusterSnapshot {
            shards,
            batches_submitted: self.batches_submitted,
            batches_completed: self.batches_completed,
            batches_shed: self.batches_shed,
            tuples_submitted: self.tuples_submitted,
            tuples_shed: self.tuples_shed,
            queue_depth: self.live_depth(),
            queue_depth_peak: self.queue_depth_peak,
            migrations: self.balancer.as_ref().map_or(0, ShardBalancer::migrations),
            latency_cycles: self.latency_cycles.stats(),
            latency_wall_us: self.latency_wall_us.stats(),
        }
    }

    /// The merged cross-layer observability snapshot: every shard's
    /// registry (serving counters plus its engine's cycle/step/channel
    /// metrics, labelled `shard=<i>`) merged with the cluster-level
    /// admission counters and the bucketed batch-latency histograms.
    /// Synchronously round-trips to every live shard thread, like
    /// [`snapshot`](Self::snapshot); dead shards contribute nothing.
    pub fn metrics(&mut self) -> MetricsSnapshot {
        let replies = self.ask_live("metrics", |reply| ShardCommand::Metrics { reply });
        let mut merged = self.cluster_metrics();
        for snap in replies.iter().flatten() {
            merged.merge(snap);
        }
        merged
    }

    /// The cluster-level (admission-side) registry: batch/tuple tallies,
    /// queue depth, migrations and the latency histograms.
    fn cluster_metrics(&self) -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new();
        let b_sub = reg.counter("ditto_cluster_batches_submitted", "serve", "batches");
        let b_done = reg.counter("ditto_cluster_batches_completed", "serve", "batches");
        let b_shed = reg.counter("ditto_cluster_batches_shed", "serve", "batches");
        let t_sub = reg.counter("ditto_cluster_tuples_submitted", "serve", "tuples");
        let t_done = reg.counter("ditto_cluster_tuples_completed", "serve", "tuples");
        let t_shed = reg.counter("ditto_cluster_tuples_shed", "serve", "tuples");
        let t_lost = reg.counter("ditto_cluster_tuples_lost", "serve", "tuples");
        let depth = reg.gauge("ditto_cluster_queue_depth", "serve", "tuples");
        let peak = reg.gauge("ditto_cluster_queue_depth_peak", "serve", "tuples");
        let migr = reg.counter("ditto_cluster_migrations", "serve", "items");
        let recorded = reg.counter("ditto_cluster_journal_events", "serve", "events");
        let evicted = reg.counter("ditto_cluster_journal_evicted", "serve", "events");
        let failed = reg.gauge("ditto_cluster_shards_failed", "serve", "shards");
        let recovered = reg.gauge("ditto_cluster_shards_recovered", "serve", "shards");
        let ha_handoffs = reg.counter("ditto_ha_handoffs", "ha", "items");
        reg.set_counter(b_sub, self.batches_submitted);
        reg.set_counter(b_done, self.batches_completed);
        reg.set_counter(b_shed, self.batches_shed);
        reg.set_counter(t_sub, self.tuples_submitted);
        reg.set_counter(t_done, self.tuples_completed);
        reg.set_counter(t_shed, self.tuples_shed);
        reg.set_counter(t_lost, self.tuples_lost);
        reg.set_gauge(depth, self.live_depth());
        reg.set_gauge(peak, self.queue_depth_peak);
        reg.set_counter(
            migr,
            self.balancer.as_ref().map_or(0, ShardBalancer::migrations),
        );
        reg.set_counter(recorded, self.journal.recorded());
        reg.set_counter(evicted, self.journal.evicted());
        reg.set_gauge(failed, self.dead.iter().flatten().count() as u64);
        reg.set_gauge(
            recovered,
            self.dead.iter().flatten().filter(|d| d.recovered).count() as u64,
        );
        reg.set_counter(ha_handoffs, self.handoffs_total);
        let lat_c = reg.histogram("ditto_cluster_batch_latency_cycles", "serve", "cycles");
        let lat_w = reg.histogram("ditto_cluster_batch_latency_wall", "serve", "us");
        let ho_pause = reg.histogram("ditto_ha_handoff_pause_us", "ha", "us");
        reg.set_histogram(lat_c, self.latency_cycles.clone());
        reg.set_histogram(lat_w, self.latency_wall_us.clone());
        reg.set_histogram(ho_pause, self.handoff_pause_us.clone());
        reg.snapshot()
    }

    /// Drains every span journal — each shard's `Queue`/`Step`/`Drain`
    /// events plus the cluster's `Merge` events — into one flat list.
    /// Events already drained are gone; buffering capacity comes from
    /// [`ServeConfig::journal_capacity`].
    pub fn take_journal(&mut self) -> Vec<SpanEvent> {
        let replies = self.ask_live("journal", |reply| ShardCommand::Journal { reply });
        let mut events = self.journal.drain();
        events.extend(replies.into_iter().flatten().flatten());
        events
    }

    /// One balancing round: reads every shard's live per-PE workload
    /// counters, feeds the window to the skew predictor, and applies any
    /// recommended key-range migrations to the routing table. Returns the
    /// applied moves (empty when balanced or the balancer is disabled).
    ///
    /// Every round's migrations also *hand off state*: the hot shard's
    /// accumulated slice moves to the migration target via
    /// [`handoff`](Self::handoff), so a subsequently retired source loses
    /// nothing. This is the one place handoffs happen and are recorded
    /// ([`take_handoffs`](Self::take_handoffs), `ditto_ha_handoffs`,
    /// `ditto_ha_handoff_pause_us`); `ditto-ha` only mirrors the recorded
    /// handoffs onto its followers afterwards.
    pub fn rebalance(&mut self) -> Vec<SlotMove> {
        self.poll();
        if self.balancer.is_none() {
            return Vec::new();
        }
        let snaps = self.shard_snapshots();
        let window: Vec<u64> = snaps
            .iter()
            .zip(&self.last_shard_tuples)
            .map(|(s, &then)| s.tuples - then)
            .collect();
        self.last_shard_tuples = snaps.iter().map(|s| s.tuples).collect();
        let balancer = self.balancer.as_mut().expect("checked above");
        let moves = balancer.rebalance(&window, &mut self.router);
        // Every move of a round leaves the one hot shard, and extraction is
        // whole-slice: one handoff, into the first move's target, carries
        // them all. A failed handoff applies none of them.
        let Some(&first) = moves.first() else {
            return moves;
        };
        match self.handoff(first.from, first.to, &moves) {
            Ok(_) => moves,
            Err(_) => Vec::new(),
        }
    }

    /// Pauses `shard` at its admission watermark (catch-up), extracts its
    /// accumulated post-merge PriPE slice, and leaves the shard serving
    /// from fresh state. Cluster-level results are unchanged as long as the
    /// slice is installed *somewhere* — `merge` is associative and
    /// commutative, so which shard folds the history is immaterial.
    ///
    /// Returns the failure notice instead if the shard is (or dies while)
    /// extracting — the crash-during-handoff path.
    pub fn extract_shard(&mut self, shard: usize) -> Result<ShardStates<A>, ShardFailure> {
        self.ask(shard, "extract", |reply| ShardCommand::Extract { reply })
    }

    /// Folds an extracted slice into `shard`'s live PriPE states via the
    /// application's `merge`. The inverse of
    /// [`extract_shard`](Self::extract_shard).
    pub fn install_shard(
        &mut self,
        shard: usize,
        states: Vec<A::State>,
    ) -> Result<(), ShardFailure> {
        self.install_from(shard, &Arc::new(Mutex::new(Some(states))))
    }

    /// [`install_shard`](Self::install_shard) from a slot the shard
    /// empties when it folds the slice in: a shard that dies first leaves
    /// the slice in the slot.
    fn install_from(&mut self, shard: usize, slice: &InstallSlot<A>) -> Result<(), ShardFailure> {
        let slice = Arc::clone(slice);
        self.ask(shard, "install", |reply| ShardCommand::Install {
            slice,
            reply,
        })
        .map(|_cycle| ())
    }

    /// One complete state handoff: pause + extract `from`'s slice, install
    /// it on `to`, then apply the slot moves so future traffic follows the
    /// state. The pause (catch-up + extract + install, no admissions
    /// interleaved — the admitter is this same thread) is recorded in the
    /// `ditto_ha_handoff_pause_us` histogram. It covers the leader shards
    /// only: `ditto-ha` mirrors the handoff on its followers afterwards,
    /// outside the sample.
    ///
    /// On `Err` the routing moves are *not* applied, nothing is recorded
    /// and the extracted slice is not lost. A source that dies while
    /// extracting gives up nothing: extraction succeeds atomically with
    /// the reply. If the target is dead, the slice goes back onto the
    /// source, which then holds its whole history again (and still matches
    /// any mirror of it); the failure path recovers the target like any
    /// other dead shard.
    pub fn handoff(
        &mut self,
        from: usize,
        to: usize,
        moves: &[SlotMove],
    ) -> Result<HandoffReport, ShardFailure> {
        let start = Instant::now();
        let extract = self.extract_shard(from)?;
        let tuples_moved = extract.tuples;
        let catch_up_cycles = extract.catch_up_cycles;
        let slice = Arc::new(Mutex::new(Some(extract.states)));
        if let Err(failure) = self.install_from(to, &slice) {
            // The source was just paused and admits nothing in between, so
            // folding the slice back restores it exactly. If the source
            // died meanwhile, it is one more dead shard to recover.
            if let Some(states) = slice.lock().expect("install slot lock").take() {
                let _ = self.install_shard(from, states);
            }
            return Err(failure);
        }
        for mv in moves {
            self.router.apply(*mv);
        }
        let report = HandoffReport {
            from,
            to,
            slots: moves.iter().map(|m| m.slot).collect(),
            pause: start.elapsed(),
            catch_up_cycles,
            tuples_moved,
        };
        self.note_handoff(report.clone());
        Ok(report)
    }

    fn note_handoff(&mut self, report: HandoffReport) {
        self.handoffs_total += 1;
        self.handoff_pause_us
            .record(u64::try_from(report.pause.as_micros()).unwrap_or(u64::MAX));
        self.handoffs.push(report);
    }

    /// Takes the handoff reports accumulated since the last call.
    pub fn take_handoffs(&mut self) -> Vec<HandoffReport> {
        std::mem::take(&mut self.handoffs)
    }

    /// The reports [`take_handoffs`](Self::take_handoffs) would return,
    /// left in place.
    pub fn handoffs(&self) -> &[HandoffReport] {
        &self.handoffs
    }

    /// Lifetime handoff count.
    pub fn handoffs_total(&self) -> u64 {
        self.handoffs_total
    }

    /// Kills `shard`'s thread with an injected panic and blocks until its
    /// death notice arrives — the synchronous fault-injection hook the
    /// recovery tests drive (the asynchronous one is
    /// [`ServeConfig::with_fault`]).
    pub fn kill_shard(&mut self, shard: usize, message: &str) -> ShardFailure {
        let _ = self.handles[shard].commands.send(ShardCommand::Die {
            message: message.to_owned(),
        });
        self.await_failure(shard)
    }

    /// Marks a dead shard recovered and re-homes everything it owned onto
    /// `inheritor`: every slot reassigns (future traffic), and every
    /// in-flight batch still waiting on the corpse resolves (a recovery
    /// layer has already re-established its state from a replica, or
    /// accepts the loss). Returns the routing moves applied.
    ///
    /// This is deliberately *mechanism only* — `ditto-ha` supplies the
    /// policy (which replica to promote, replaying the batch log,
    /// resubmitting lost parts) around this call.
    ///
    /// # Panics
    ///
    /// Panics if `dead` is alive or already recovered, or `inheritor` is
    /// dead.
    pub fn recover_shard(&mut self, dead: usize, inheritor: usize) -> Vec<SlotMove> {
        self.poll();
        assert!(
            self.dead[inheritor].is_none(),
            "inheritor shard {inheritor} is dead"
        );
        {
            let d = self.dead[dead]
                .as_mut()
                .unwrap_or_else(|| panic!("shard {dead} is alive — nothing to recover"));
            assert!(!d.recovered, "shard {dead} already recovered");
            d.recovered = true;
        }
        let moves = self.router.reassign_all(dead, inheritor);
        // Resolve in-flight batches parked on the corpse. Completion order
        // is made deterministic by batch id.
        let mut ids: Vec<BatchId> = self.pending.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            if let Some(done) = self.release(id, dead) {
                self.complete_unannounced(done);
            }
        }
        moves
    }

    /// Collects every shard's terminal state (drains each shard engine to
    /// quiescence in parallel), absorbing all remaining completion events.
    /// Recovered-dead shards contribute `None`.
    ///
    /// # Panics
    ///
    /// Panics if a shard is dead and unrecovered, or dies before it
    /// finishes; the panic carries the shard's own panic message.
    fn collect_finishes(&mut self) -> Vec<Option<ShardFinish<A>>> {
        self.poll();
        // An unrecovered death is fatal here: finishing would silently drop
        // its accumulated slice. Recovered deaths are fine — their state
        // already lives in the inheritor (or the caller accepted the loss).
        if let Some(f) = self.unrecovered().next() {
            panic!("cannot finish: {f} (recover the shard or promote a replica first)");
        }
        let finishes = self.ask_live("finish", |reply| ShardCommand::Finish { reply });
        for (shard, finish) in finishes.iter().enumerate() {
            let recovered = self.dead[shard].as_ref().is_some_and(|d| d.recovered);
            if finish.is_none() && !recovered {
                let f = self.await_failure(shard);
                panic!("cannot finish: {f}");
            }
        }
        for (shard, handle) in self.handles.drain(..).enumerate() {
            if let Err(payload) = handle.thread.join() {
                // A recovered shard's thread ended in the panic whose notice
                // we already handled; anything else is a new failure.
                let already_handled = self.dead[shard].as_ref().is_some_and(|d| d.recovered);
                if !already_handled {
                    panic!(
                        "shard {shard} thread panicked: {}",
                        panic_message(payload.as_ref())
                    );
                }
            }
        }
        // Every completion event was sent before the shard replied.
        self.poll();
        assert!(
            self.pending.is_empty(),
            "{} batches unaccounted after finish",
            self.pending.len()
        );
        finishes
    }

    /// A stand-in report for a shard that died and was failed over: its
    /// history lives on in the inheritor's counters, so this row carries
    /// only its identity and pre-death completion count.
    fn failed_over_report(&self, shard: usize) -> ExecutionReport {
        ExecutionReport {
            label: format!("shard{shard}:failed-over"),
            cycles: 0,
            tuples: 0,
            reschedules: 0,
            plans_generated: 0,
            per_pe_processed: Vec::new(),
            completed: true,
            channel_totals: Default::default(),
            kernel_steps: 0,
            protocol_cycles: Default::default(),
        }
    }

    fn outcome_snapshot(&self, reports: &[ExecutionReport]) -> ClusterSnapshot {
        let shards = reports
            .iter()
            .enumerate()
            .map(|(shard, r)| ShardSnapshot {
                shard,
                cycles: r.cycles,
                tuples: r.tuples,
                queue_depth: 0,
                reschedules: r.reschedules,
                plans_generated: r.plans_generated,
                per_pe_processed: r.per_pe_processed.clone(),
                batches_completed: self.shard_batches_done[shard],
                batches_pending: 0,
            })
            .collect();
        self.assemble_snapshot(shards)
    }

    /// Shuts the cluster down and produces the combined output via the
    /// cross-shard state merge: for each PriPE index `j`, every other
    /// shard's PriPE `j` buffer folds into shard 0's through the
    /// application's `merge` (shards act as super-SecPEs), then `finalize`
    /// runs once over the merged states.
    ///
    /// For decomposable applications (and exact-arithmetic ones like
    /// fixed-point PageRank) this is *identical* to a single-engine run
    /// over the concatenated input; for data partitioning the outputs are
    /// equal as per-partition multisets. HHD's sketches merge exactly, but
    /// its candidate tables are populated per shard — see the crate docs
    /// for the collision-only edge case.
    ///
    /// # Panics
    ///
    /// Panics if a shard thread died or its engine failed to drain.
    pub fn finish(mut self) -> ClusterOutcome<A::Output> {
        let finishes = self.collect_finishes();
        let mut reports = Vec::with_capacity(finishes.len());
        let mut acc: Option<Vec<A::State>> = None;
        for (shard, f) in finishes.into_iter().enumerate() {
            let Some(f) = f else {
                reports.push(self.failed_over_report(shard));
                continue;
            };
            match acc.as_mut() {
                None => acc = Some(f.pri_states),
                Some(acc) => {
                    for (j, state) in f.pri_states.into_iter().enumerate() {
                        self.app.merge(&mut acc[j], &state);
                    }
                }
            }
            reports.push(f.report);
        }
        let acc = acc.expect("at least one live shard");
        let output = self.app.finalize(acc);
        let snapshot = self.outcome_snapshot(&reports);
        ClusterOutcome {
            output,
            reports,
            snapshot,
        }
    }
}

impl<A: DittoApp + Clone + 'static> std::fmt::Debug for Cluster<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("shards", &self.handles.len())
            .field("in_flight", &self.pending.len())
            .field("batches_submitted", &self.batches_submitted)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_core::apps::CountPerKey;

    #[test]
    fn admission_counters_track_queue_depth_and_sheds() {
        let mut cluster = Cluster::new(
            CountPerKey::new(4),
            &ServeConfig::new(2, ArchConfig::new(2, 4, 1)),
        );
        let batch: Vec<Tuple> = (0..500u64).map(Tuple::from_key).collect();
        cluster.submit(batch.clone());
        cluster.submit(batch);
        // At least one batch was outstanding at its own admission instant.
        assert!(cluster.admission_snapshot().queue_depth_peak >= 500);
        cluster.record_shed(123);
        cluster.drain();
        assert_eq!(cluster.queue_depth(), 0);
        let adm = cluster.admission_snapshot();
        assert_eq!(adm.tuples_submitted, 1_000);
        assert_eq!(adm.tuples_completed, 1_000);
        assert_eq!(adm.batches_submitted, 2);
        assert_eq!(adm.batches_completed, 2);
        assert_eq!(adm.batches_shed, 1);
        assert_eq!(adm.tuples_shed, 123);
        assert_eq!(adm.queue_depth, 0);
        let outcome = cluster.finish();
        assert_eq!(outcome.snapshot.batches_shed, 1);
        assert_eq!(outcome.snapshot.tuples_shed, 123);
        assert_eq!(outcome.snapshot.queue_depth, 0);
        assert!(outcome.snapshot.queue_depth_peak >= 500);
    }

    #[test]
    fn shard_metrics_export_plan_gauges() {
        let config = ServeConfig::new(2, ArchConfig::new(2, 4, 2));
        let data: Vec<Tuple> = (0..2_000u64).map(|i| Tuple::from_key(i % 97)).collect();
        let mut cluster = Cluster::new(CountPerKey::new(4), &config);
        cluster.submit(data);
        cluster.drain();
        let metrics = cluster.metrics();
        assert!(
            metrics.get("ditto_plan_phase", &[("shard", "0")]).is_some(),
            "shard metrics must export the plan phase gauge"
        );
        assert!(metrics
            .get("ditto_plan_active_pes", &[("shard", "1")])
            .is_some());
        cluster.finish();
    }

    #[test]
    fn shard_metrics_split_its_cycles_by_protocol_phase() {
        // Three in four tuples hit one key, and the hot key moves halfway
        // through: the shard reschedules.
        let arch = ArchConfig::new(4, 8, 7)
            .with_reschedule(0.5, 200)
            .with_profile_cycles(64)
            .with_monitor_window(256);
        let key = |i: u64| match i {
            _ if i.is_multiple_of(4) => i,
            0..40_000 => 1,
            _ => 2,
        };
        let data: Vec<Tuple> = (0..80_000u64).map(|i| Tuple::from_key(key(i))).collect();
        let mut cluster = Cluster::new(CountPerKey::new(8), &ServeConfig::new(1, arch));
        cluster.submit(data);
        cluster.drain();
        let metrics = cluster.metrics();
        let value = |name: &str| {
            let entry = metrics.get(name, &[("shard", "0")]);
            entry
                .unwrap_or_else(|| panic!("{name} not exported"))
                .value
                .scalar()
        };
        assert!(value("ditto_serve_reschedules") > 0);
        let phases: u64 = [
            "ditto_protocol_profiling_cycles",
            "ditto_protocol_distributing_cycles",
            "ditto_protocol_monitoring_cycles",
            "ditto_protocol_draining_cycles",
            "ditto_protocol_await_merge_cycles",
            "ditto_protocol_requeue_cycles",
        ]
        .into_iter()
        .map(value)
        .sum();
        assert_eq!(phases, value("ditto_engine_cycles"));
        cluster.finish();
    }

    /// An app that detonates inside the shard engine on a magic key.
    #[derive(Clone)]
    struct PoisonApp;

    impl DittoApp for PoisonApp {
        type Value = ();
        type State = u64;
        type Output = u64;

        fn name(&self) -> &str {
            "poison"
        }

        fn preprocess(&self, tuple: Tuple, m_pri: u32) -> ditto_core::Routed<()> {
            assert!(tuple.key != 42, "poisoned tuple 42 reached the PrePE");
            ditto_core::Routed::new((tuple.key % u64::from(m_pri)) as u32, ())
        }

        fn new_state(&self, _pe_entries: usize) -> u64 {
            0
        }

        fn process(&self, state: &mut u64, (): &()) {
            *state += 1;
        }

        fn merge(&self, pri: &mut u64, sec: &u64) {
            *pri += sec;
        }

        fn finalize(&self, pri_states: Vec<u64>) -> u64 {
            pri_states.into_iter().sum()
        }
    }

    #[test]
    fn shard_panic_payload_reaches_the_finish_error() {
        let mut cluster = Cluster::new(PoisonApp, &ServeConfig::new(1, ArchConfig::new(1, 2, 0)));
        cluster.submit(vec![Tuple::from_key(42)]);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || cluster.finish()))
            .expect_err("finish must propagate the shard panic");
        let msg = panic_message(err.as_ref());
        assert!(
            msg.contains("poisoned tuple 42"),
            "shard panic payload lost; finish reported: {msg}"
        );
        assert!(msg.contains("shard 0"), "failing shard unnamed: {msg}");
    }

    #[test]
    fn dead_shard_fails_waiters_immediately_with_its_own_panic() {
        let mut cluster = Cluster::new(PoisonApp, &ServeConfig::new(1, ArchConfig::new(1, 2, 0)));
        let batch: Vec<Tuple> = (0..100u64).map(Tuple::from_key).collect();
        let start = Instant::now();
        cluster.submit(batch);
        let failure = loop {
            match cluster.try_drain() {
                Err(f) => break f,
                Ok(()) => assert!(
                    start.elapsed() < Duration::from_secs(30),
                    "death notice never arrived"
                ),
            }
        };
        // The drop-guard's notice arrives the moment the thread unwinds —
        // waiters are not stuck until the reply timeout diagnosis.
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "waiter blocked {:?} waiting for a dead shard",
            start.elapsed()
        );
        assert_eq!(failure.shard, 0);
        assert!(
            failure.message.contains("poisoned tuple 42"),
            "failure does not name the panic: {failure}"
        );
    }

    #[test]
    fn injected_fault_kills_loses_and_recovers() {
        let mut cluster = Cluster::new(
            CountPerKey::new(4),
            &ServeConfig::new(2, ArchConfig::new(2, 4, 1)).with_fault(ShardFault {
                shard: 0,
                after_batches: 1,
            }),
        );
        let batch: Vec<Tuple> = (0..500u64).map(Tuple::from_key).collect();
        cluster.submit(batch.clone());
        // The fault fires right after shard 0 serves its first sub-batch;
        // the completion may land before the death notice, so poll for it.
        let failure = loop {
            if let Err(f) = cluster.try_drain() {
                break f;
            }
            if let Some(f) = cluster.failed_shards().into_iter().next() {
                break f;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(failure.shard, 0);
        assert!(
            failure.message.contains("fault injection"),
            "unexpected failure: {failure}"
        );
        assert!(cluster.is_shard_dead(0));
        // Submitting while dead strands the shard-0 sub-batch in lost parts
        // (never admitted anywhere — safe to resubmit after recovery).
        cluster.submit(batch.clone());
        let lost: Vec<Tuple> = cluster
            .take_lost_parts()
            .into_iter()
            .flat_map(|(_, shard, t)| {
                assert_eq!(shard, 0);
                t
            })
            .collect();
        assert!(!lost.is_empty(), "expected a lost sub-batch");
        // Recovery re-homes every slot; future traffic routes to shard 1.
        let moves = cluster.recover_shard(0, 1);
        assert!(!moves.is_empty());
        assert!(cluster.router().slots_of(0).is_empty());
        cluster.submit(lost);
        cluster.drain();
        assert!(
            cluster.failed_shards().is_empty(),
            "recovered death must not be re-reported"
        );
        let outcome = cluster.finish();
        assert_eq!(outcome.reports[0].label, "shard0:failed-over");
        assert!(outcome.reports[1].tuples > 0);
    }

    #[test]
    fn dispatch_discovering_a_death_mid_loop_orphans_no_batch() {
        // The failover hang: dispatch's send loop hits a dead shard's
        // closed channel (the corpse drops its command receiver while
        // unwinding, before the drop-guard queues the death notice) and
        // blocks in await_failure absorbing events — among which a fast
        // live shard may already have completed its sub-batch of the
        // *batch being dispatched*. The pending entry must therefore be
        // registered before the first send; it used to be inserted after
        // the loop, and the racing completion panicked the submitter with
        // "completion for unknown batch", orphaning the batch.
        let mut cluster = Cluster::new(
            CountPerKey::new(4),
            &ServeConfig::new(2, ArchConfig::new(2, 4, 1)),
        );
        let batch: Vec<Tuple> = (0..400u64).map(Tuple::from_key).collect();
        // Kill shard 1 *silently*: send the poison and wait for the thread
        // to die without absorbing its death notice, so the next dispatch
        // is the one that discovers the corpse mid-loop. (No state has
        // accumulated yet — a bare cluster accepts a corpse's state loss;
        // restoring it is ditto-ha's job.)
        cluster.handles[1]
            .commands
            .send(ShardCommand::Die {
                message: "silent kill".to_owned(),
            })
            .expect("shard 1 alive");
        while !cluster.handles[1].thread.is_finished() {
            std::thread::yield_now();
        }
        let id = cluster.submit(batch.clone());
        // The live half proceeds; the dead shard's half is stranded for
        // recovery and the batch is released from waiting on it.
        let lost: Vec<Tuple> = cluster
            .take_lost_parts()
            .into_iter()
            .flat_map(|(batch, shard, t)| {
                assert_eq!((batch, shard), (id, 1));
                t
            })
            .collect();
        assert!(!lost.is_empty(), "expected a stranded sub-batch");
        cluster.recover_shard(1, 0);
        cluster.submit(lost);
        cluster.drain();
        let completed: Vec<BatchId> = cluster.take_completed().into_iter().map(|c| c.id).collect();
        assert!(
            completed.contains(&id),
            "the batch that raced the death never completed: {completed:?}"
        );
        let outcome = cluster.finish();
        assert_eq!(
            outcome.output.iter().sum::<u64>(),
            400,
            "a tuple was lost or doubled"
        );
    }

    #[test]
    fn kill_and_recover_preserves_routing_and_finish() {
        let mut cluster = Cluster::new(
            CountPerKey::new(4),
            &ServeConfig::new(3, ArchConfig::new(2, 4, 1)),
        );
        let batch: Vec<Tuple> = (0..600u64).map(Tuple::from_key).collect();
        cluster.submit(batch.clone());
        cluster.drain();
        let f = cluster.kill_shard(1, "operator-injected kill");
        assert_eq!(f.shard, 1);
        assert_eq!(f.message, "operator-injected kill");
        let owned = cluster.router().slots_of(1).len();
        let moves = cluster.recover_shard(1, 2);
        assert_eq!(moves.len(), owned);
        for mv in &moves {
            assert_eq!((mv.from, mv.to), (1, 2));
        }
        cluster.submit(batch.clone());
        cluster.drain();
        let outcome = cluster.finish();
        assert_eq!(outcome.reports[1].label, "shard1:failed-over");
        assert!(outcome.reports[1].completed);
    }

    #[test]
    fn an_unrecovered_dead_shard_answers_every_round_trip() {
        let mut cluster = Cluster::new(
            CountPerKey::new(4),
            &ServeConfig::new(2, ArchConfig::new(2, 4, 1)),
        );
        cluster.submit((0..600u64).map(Tuple::from_key).collect());
        cluster.drain();
        let served = cluster.snapshot().shards[0].batches_completed;
        assert!(served > 0, "shard 0 served nothing before the kill");
        let failure = cluster.kill_shard(0, "left for dead");

        // Every round trip returns at once: none waits out the reply
        // timeout on the corpse.
        let snap = cluster.snapshot();
        let tomb = &snap.shards[0];
        assert_eq!((tomb.cycles, tomb.batches_completed), (0, served));
        assert!(snap.shards[1].cycles > 0);

        let metrics = cluster.metrics();
        let tuples = |shard: &str| metrics.get("ditto_serve_tuples_total", &[("shard", shard)]);
        assert!(tuples("0").is_none(), "a dead shard contributes no metrics");
        assert!(tuples("1").is_some_and(|m| m.value.scalar() > 0));

        let journal = cluster.take_journal();
        assert!(journal.iter().any(|e| e.shard == 1));
        assert!(journal.iter().all(|e| e.shard != 0));

        assert_eq!(cluster.extract_shard(0).err(), Some(failure.clone()));
        assert_eq!(cluster.install_shard(0, vec![0; 4]), Err(failure));
    }

    #[test]
    fn manual_handoff_moves_state_and_slots() {
        let mut cluster = Cluster::new(
            CountPerKey::new(4),
            &ServeConfig::new(2, ArchConfig::new(2, 4, 1)),
        );
        let batch: Vec<Tuple> = (0..1_000u64).map(Tuple::from_key).collect();
        cluster.submit(batch.clone());
        cluster.drain();
        // Move one of shard 0's slots — and its whole accumulated slice —
        // onto shard 1.
        let slot = cluster.router().slots_of(0)[0];
        let mv = SlotMove {
            slot,
            from: 0,
            to: 1,
        };
        let report = cluster.handoff(0, 1, &[mv]).expect("both shards alive");
        assert_eq!((report.from, report.to), (0, 1));
        assert!(report.tuples_moved > 0, "shard 0 held history to move");
        assert_eq!(cluster.router().owner_of(slot), 1);
        assert_eq!(cluster.handoffs_total(), 1);
        assert_eq!(cluster.take_handoffs().len(), 1);
        cluster.submit(batch.clone());
        cluster.drain();
        let outcome = cluster.finish();
        // State moved, nothing lost or doubled: the merged output equals
        // the same workload served without a handoff.
        let mut reference = Cluster::new(
            CountPerKey::new(4),
            &ServeConfig::new(2, ArchConfig::new(2, 4, 1)),
        );
        reference.submit(batch.clone());
        reference.submit(batch);
        reference.drain();
        assert_eq!(outcome.output, reference.finish().output);
    }

    #[test]
    fn kill_shard_parses_shard_and_batches() {
        assert_eq!(parse_kill_shard(None), None);
        assert_eq!(
            parse_kill_shard(Some(" 2 : 4 ")),
            Some(ShardFault {
                shard: 2,
                after_batches: 4,
            })
        );
    }

    #[test]
    #[should_panic(
        expected = "DITTO_KILL_SHARD=\"2-4\" does not parse: expected `<shard>:<batches>`"
    )]
    fn malformed_kill_shard_panics() {
        parse_kill_shard(Some("2-4"));
    }

    #[test]
    fn panic_payloads_become_messages() {
        let caught =
            std::panic::catch_unwind(|| panic!("shard0 deadlocked at 42")).expect_err("panicked");
        assert_eq!(panic_message(caught.as_ref()), "shard0 deadlocked at 42");
        let caught = std::panic::catch_unwind(|| {
            let n = 7;
            panic!("engine stalled with {n} tuples")
        })
        .expect_err("panicked");
        assert_eq!(
            panic_message(caught.as_ref()),
            "engine stalled with 7 tuples"
        );
        let caught = std::panic::catch_unwind(|| std::panic::panic_any(17u32)).expect_err("odd");
        assert_eq!(panic_message(caught.as_ref()), "non-string panic payload");
    }
}
