//! One serving shard: a persistent pipeline engine on its own thread.
//!
//! Each shard owns one [`PersistentPipeline`] (one simulated FPGA running
//! the full Fig. 3 architecture) fed by a [`SharedQueue`]. The shard thread
//! alternates between absorbing commands (batch admissions, snapshot
//! requests) and stepping the engine in fixed cycle chunks; batch
//! completion is detected by watermark — a batch is done once the engine's
//! processed-tuple counter reaches the cumulative count admitted up to and
//! including that batch, which needs no per-tuple tagging and therefore no
//! change to the datapath.

use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use datagen::Tuple;
use ditto_core::{ArchConfig, DittoApp, ExecutionReport, PersistentPipeline};
use ditto_obs::{MetricsRegistry, MetricsSnapshot, SpanEvent, SpanJournal, SpanStage};

use crate::batch::BatchId;
use crate::cluster::ShardStates;
use crate::doorbell::Doorbell;
use crate::metrics::ShardSnapshot;
use crate::queue::SharedQueue;

/// The slice an `Install` carries. The shard takes it out, so a shard that
/// dies before it gets there leaves the slice for the cluster to reclaim.
pub(crate) type InstallSlot<A> = Arc<Mutex<Option<Vec<<A as DittoApp>::State>>>>;

/// Commands a cluster sends to a shard thread.
pub(crate) enum ShardCommand<A: DittoApp> {
    /// Admit a sub-batch of tuples.
    Submit {
        /// Cluster-level batch id the sub-batch belongs to.
        batch: BatchId,
        /// The tuples routed to this shard.
        tuples: Vec<Tuple>,
        /// Cluster-side admission instant (wall latency baseline).
        submitted: Instant,
    },
    /// Reply with current counters.
    Snapshot { reply: Sender<ShardSnapshot> },
    /// Reply with this shard's observability snapshot (engine counters +
    /// shard serving counters, labelled by shard).
    Metrics { reply: Sender<MetricsSnapshot> },
    /// Drain and reply with this shard's buffered span-journal events.
    Journal { reply: Sender<Vec<SpanEvent>> },
    /// Catch the engine up to its admission watermark, then extract the
    /// accumulated PriPE slice (the engine keeps serving from fresh
    /// buffers) — the source half of a state handoff.
    Extract { reply: Sender<ShardStates<A>> },
    /// Fold a previously extracted slice into this engine's PriPE buffers —
    /// the target half of a state handoff. Replies with the install cycle.
    Install {
        slice: InstallSlot<A>,
        reply: Sender<u64>,
    },
    /// Fault injection: panic the shard thread with `message`, the
    /// in-process stand-in for a crashed FPGA host.
    Die { message: String },
    /// Close the queue, drain the engine, reply with final states.
    Finish { reply: Sender<ShardFinish<A>> },
}

/// A shard's terminal reply: post-merge PriPE states plus the final report.
pub(crate) struct ShardFinish<A: DittoApp> {
    pub pri_states: Vec<A::State>,
    pub report: ExecutionReport,
}

/// Event streamed from a shard thread to the cluster: either one sub-batch
/// completion or the shard's death notice (sub-batch sizes are tracked
/// cluster-side, so completions only carry identity and latency).
#[derive(Debug, Clone)]
pub(crate) enum ShardEvent {
    /// A sub-batch reached its watermark.
    Completed {
        shard: usize,
        batch: BatchId,
        /// Admission-to-completion latency on this shard's simulated clock.
        latency_cycles: u64,
        /// Admission-to-completion wall time as observed by the shard thread.
        wall: std::time::Duration,
    },
    /// The shard thread panicked; `message` is its panic payload. Sent by
    /// the shard loop's drop-guard *before* the thread unwinds, so cluster
    /// waiters wake with a named error immediately instead of blocking
    /// until `collect_finishes` joins the corpse.
    Failed { shard: usize, message: String },
}

/// A shard's end of the event stream: every send is followed by a ring of
/// the cluster's doorbell, once one is attached.
#[derive(Clone)]
pub(crate) struct ShardEvents {
    tx: Sender<ShardEvent>,
    doorbell: Arc<OnceLock<Doorbell>>,
}

impl ShardEvents {
    pub(crate) fn new(tx: Sender<ShardEvent>, doorbell: Arc<OnceLock<Doorbell>>) -> Self {
        ShardEvents { tx, doorbell }
    }

    /// Streams `event`, then rings the doorbell. A send failure means the
    /// cluster stopped listening (dropped); the shard keeps serving the
    /// engine side regardless.
    fn send(&self, event: ShardEvent) {
        let _ = self.tx.send(event);
        if let Some(bell) = self.doorbell.get() {
            bell.ring();
        }
    }
}

/// When a shard thread panics mid-serve, every cluster-side waiter would
/// otherwise block on the events channel until teardown joins the thread
/// (the cluster clones the event sender per shard, so one death never
/// disconnects the channel). This guard wraps the serve loop: it catches
/// the unwind, streams a [`ShardEvent::Failed`] carrying the panic payload
/// (ringing the doorbell like any other event), then resumes unwinding so
/// the thread's join handle still reports the original panic.
fn run_with_failure_notice<A: DittoApp + 'static>(
    worker: ShardWorker<A>,
    commands: Receiver<ShardCommand<A>>,
) {
    let shard = worker.id;
    let events = worker.events.clone();
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || worker.run(commands)));
    if let Err(payload) = outcome {
        events.send(ShardEvent::Failed {
            shard,
            message: panic_message(payload.as_ref()).to_owned(),
        });
        std::panic::resume_unwind(payload);
    }
}

/// Best-effort extraction of a panic payload: `panic!` with a literal
/// carries `&str`, formatted panics carry `String`, anything else is
/// reported opaquely.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Cluster-side handle to a running shard thread.
pub(crate) struct ShardHandle<A: DittoApp> {
    pub commands: Sender<ShardCommand<A>>,
    pub thread: JoinHandle<()>,
}

struct PendingBatch {
    id: BatchId,
    /// Engine `processed` value at which this batch is complete.
    watermark: u64,
    enqueue_cycle: u64,
    submitted: Instant,
    /// Tuples this sub-batch carried (journal annotation).
    tuples: u64,
    /// Whether a `Step` span event was recorded for this batch yet (the
    /// start of the first engine poll after its enqueue).
    stepped: bool,
}

/// The shard thread's state.
struct ShardWorker<A: DittoApp + 'static> {
    id: usize,
    pipeline: PersistentPipeline<A>,
    queue: SharedQueue,
    pending: VecDeque<PendingBatch>,
    events: ShardEvents,
    cycles_per_poll: u64,
    /// Ingress tuples/cycle (drain-budget sizing at Finish).
    ingress_rate: f64,
    enqueued: u64,
    batches_done: u64,
    /// Fault injection: panic after serving this many batches (the
    /// `DITTO_KILL_SHARD` hook, resolved cluster-side to this shard).
    kill_after: Option<u64>,
    /// Batch lifecycle events (queue/step/drain) for trace export.
    journal: SpanJournal,
}

/// Spawns a shard thread serving `app` under `arch`, reading from a fresh
/// queue at `ingress_rate` tuples per cycle. The returned handle carries
/// the command endpoint; completions stream through `events`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_shard<A: DittoApp + 'static>(
    id: usize,
    app: A,
    arch: &ArchConfig,
    ingress_rate: f64,
    cycles_per_poll: u64,
    journal_capacity: usize,
    kill_after: Option<u64>,
    events: ShardEvents,
) -> ShardHandle<A> {
    let (commands, command_rx) = std::sync::mpsc::channel();
    let queue = SharedQueue::new();
    let source = Box::new(queue.source(ingress_rate));
    let pipeline =
        PersistentPipeline::new(app, source, arch).with_label_prefix(&format!("shard{id}"));
    let worker = ShardWorker {
        id,
        pipeline,
        queue,
        pending: VecDeque::new(),
        events,
        cycles_per_poll,
        ingress_rate,
        enqueued: 0,
        batches_done: 0,
        kill_after,
        journal: SpanJournal::new(journal_capacity),
    };
    let thread = std::thread::Builder::new()
        .name(format!("ditto-shard-{id}"))
        .spawn(move || run_with_failure_notice(worker, command_rx))
        .expect("spawn shard thread");
    ShardHandle { commands, thread }
}

impl<A: DittoApp + 'static> ShardWorker<A> {
    fn run(mut self, commands: Receiver<ShardCommand<A>>) {
        let finish_reply = 'serve: loop {
            // Idle shards block on the command queue; busy shards absorb
            // whatever is already queued and keep stepping.
            if self.pending.is_empty() {
                match commands.recv() {
                    Ok(cmd) => {
                        if let Some(reply) = self.handle(cmd) {
                            break 'serve Some(reply);
                        }
                    }
                    // Cluster handle dropped without Finish: stop serving.
                    Err(_) => break 'serve None,
                }
            }
            while let Ok(cmd) = commands.try_recv() {
                if let Some(reply) = self.handle(cmd) {
                    break 'serve Some(reply);
                }
            }
            if !self.pending.is_empty() {
                self.record_first_steps();
                self.pipeline.step_cycles(self.cycles_per_poll);
                self.complete_ready();
            }
        };
        if let Some(reply) = finish_reply {
            self.finish(reply);
        }
    }

    /// Processes one command; returns the reply channel when it was
    /// `Finish` (the caller then tears the worker down).
    fn handle(&mut self, cmd: ShardCommand<A>) -> Option<Sender<ShardFinish<A>>> {
        match cmd {
            ShardCommand::Submit {
                batch,
                tuples,
                submitted,
            } => {
                self.queue.push_batch(&tuples);
                self.enqueued += tuples.len() as u64;
                let n = tuples.len() as u64;
                let cycle = self.pipeline.cycle();
                self.journal
                    .record(batch, SpanStage::Queue, cycle, self.id as u32, n);
                self.pending.push_back(PendingBatch {
                    id: batch,
                    watermark: self.enqueued,
                    enqueue_cycle: cycle,
                    submitted,
                    tuples: n,
                    stepped: false,
                });
                None
            }
            ShardCommand::Snapshot { reply } => {
                let _ = reply.send(self.snapshot());
                None
            }
            ShardCommand::Metrics { reply } => {
                let _ = reply.send(self.metrics());
                None
            }
            ShardCommand::Journal { reply } => {
                let _ = reply.send(self.journal.drain());
                None
            }
            ShardCommand::Extract { reply } => {
                let before = self.pipeline.cycle();
                self.record_first_steps();
                self.catch_up();
                self.complete_ready();
                let states = self.pipeline.extract_slots();
                let _ = reply.send(ShardStates {
                    states,
                    tuples: self.pipeline.processed(),
                    catch_up_cycles: self.pipeline.cycle() - before,
                });
                None
            }
            ShardCommand::Install { slice, reply } => {
                let states = slice
                    .lock()
                    .expect("install slot lock")
                    .take()
                    .expect("a slice is installed once");
                self.pipeline.install_slots(states);
                let _ = reply.send(self.pipeline.cycle());
                None
            }
            ShardCommand::Die { message } => panic!("{message}"),
            ShardCommand::Finish { reply } => Some(reply),
        }
    }

    /// Steps the engine until it has processed everything admitted so far —
    /// the pause phase of a state handoff: after this, the PriPE buffers
    /// cover every admitted tuple, so an extract loses nothing in flight.
    ///
    /// # Panics
    ///
    /// Panics (naming the shard) if the watermark is not reached within a
    /// generous ingress + serialisation cycle budget — a deadlock, not a
    /// data property.
    fn catch_up(&mut self) {
        let target = self.enqueued;
        let remaining = target.saturating_sub(self.pipeline.processed());
        let ingress_cycles = (remaining as f64 / self.ingress_rate).ceil() as u64;
        let pe_cycles = remaining * u64::from(self.pipeline.app().ii_pri() + 2);
        let deadline = self.pipeline.cycle() + ingress_cycles + pe_cycles + 1_000_000;
        while self.pipeline.processed() < target {
            assert!(
                self.pipeline.cycle() < deadline,
                "shard {} failed to catch up to its admission watermark \
                 ({}/{} tuples) — deadlock?",
                self.id,
                self.pipeline.processed(),
                target
            );
            self.pipeline.step_cycles(self.cycles_per_poll);
        }
    }

    /// Journals the start of the first engine poll that can advance each
    /// batch: every pending batch not yet marked gets its `Step` event now.
    /// Called *before* stepping, so the engine time of a sub-batch that
    /// completes inside one poll is booked as step time, not queue wait.
    fn record_first_steps(&mut self) {
        let cycle = self.pipeline.cycle();
        let shard = self.id as u32;
        for b in self.pending.iter_mut().filter(|b| !b.stepped) {
            b.stepped = true;
            self.journal
                .record(b.id, SpanStage::Step, cycle, shard, b.tuples);
        }
    }

    /// This shard's observability snapshot: serving counters plus the
    /// engine's own metrics, all labelled `shard=<id>`. Built on demand
    /// from counters that already exist — nothing is recorded on the step
    /// path.
    fn metrics(&self) -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new().with_label("shard", self.id);
        let s = self.pipeline.snapshot();
        let tuples = reg.counter("ditto_serve_tuples_total", "serve", "tuples");
        let batches = reg.counter("ditto_serve_batches_completed", "serve", "batches");
        let resched = reg.counter("ditto_serve_reschedules", "serve", "items");
        let plans = reg.counter("ditto_serve_plans_generated", "serve", "items");
        let depth = reg.gauge("ditto_serve_queue_depth", "serve", "tuples");
        let pending = reg.gauge("ditto_serve_batches_pending", "serve", "batches");
        let recorded = reg.counter("ditto_serve_journal_events", "serve", "events");
        let evicted = reg.counter("ditto_serve_journal_evicted", "serve", "events");
        reg.set_counter(tuples, s.tuples);
        reg.set_counter(batches, self.batches_done);
        reg.set_counter(resched, s.reschedules);
        reg.set_counter(plans, s.plans_generated);
        reg.set_gauge(depth, self.enqueued - s.tuples);
        reg.set_gauge(pending, self.pending.len() as u64);
        reg.set_counter(recorded, self.journal.recorded());
        reg.set_counter(evicted, self.journal.evicted());
        let phase = reg.gauge("ditto_plan_phase", "plan", "phase");
        let active = reg.gauge("ditto_plan_active_pes", "plan", "pes");
        reg.set_gauge(phase, s.phase);
        reg.set_gauge(active, u64::from(s.phase_active_pes));
        // The §IV-B protocol ledger: one counter per phase, summing to the
        // shard's cycles (all zero without SecPEs).
        let p = s.protocol_cycles;
        for (name, cycles) in [
            ("ditto_protocol_profiling_cycles", p.profiling),
            ("ditto_protocol_distributing_cycles", p.distributing),
            ("ditto_protocol_monitoring_cycles", p.monitoring),
            ("ditto_protocol_draining_cycles", p.draining),
            ("ditto_protocol_await_merge_cycles", p.await_merge),
            ("ditto_protocol_requeue_cycles", p.requeue),
        ] {
            let h = reg.counter(name, "core", "cycles");
            reg.set_counter(h, cycles);
        }
        self.pipeline.engine().publish_metrics(&mut reg);
        reg.snapshot()
    }

    fn snapshot(&self) -> ShardSnapshot {
        let s = self.pipeline.snapshot();
        ShardSnapshot {
            shard: self.id,
            cycles: s.cycles,
            tuples: s.tuples,
            queue_depth: self.enqueued - s.tuples,
            reschedules: s.reschedules,
            plans_generated: s.plans_generated,
            per_pe_processed: s.per_pe_processed,
            batches_completed: self.batches_done,
            batches_pending: self.pending.len(),
        }
    }

    /// Pops every pending batch whose watermark the engine has reached and
    /// notifies the cluster.
    fn complete_ready(&mut self) {
        let processed = self.pipeline.processed();
        let done_cycle = self.pipeline.cycle();
        while let Some(front) = self.pending.front() {
            if front.watermark > processed {
                break;
            }
            let b = self.pending.pop_front().expect("front checked");
            self.batches_done += 1;
            self.journal
                .record(b.id, SpanStage::Drain, done_cycle, self.id as u32, b.tuples);
            self.events.send(ShardEvent::Completed {
                shard: self.id,
                batch: b.id,
                latency_cycles: done_cycle - b.enqueue_cycle,
                wall: b.submitted.elapsed(),
            });
            if let Some(after) = self.kill_after {
                if self.batches_done >= after {
                    panic!(
                        "DITTO_KILL_SHARD: shard {} killed after {} served batches \
                         (fault injection)",
                        self.id, self.batches_done
                    );
                }
            }
        }
    }

    /// Terminal sequence: close the queue, drain to quiescence, flush
    /// completions, hand back states and the final report.
    fn finish(mut self, reply: Sender<ShardFinish<A>>) {
        self.queue.close();
        let remaining = self.enqueued.saturating_sub(self.pipeline.processed());
        // Worst case is ingress delivery at the configured rate followed by
        // full serialisation through one PE at its initiation interval,
        // plus reschedule/profiling slack; simulated cycles are cheap, so
        // be generous.
        let ingress_cycles = (remaining as f64 / self.ingress_rate).ceil() as u64;
        let pe_cycles = remaining * u64::from(self.pipeline.app().ii_pri() + 2);
        let budget = ingress_cycles + pe_cycles + 1_000_000;
        self.record_first_steps();
        self.pipeline.expect_drained(budget);
        self.complete_ready();
        assert!(
            self.pending.is_empty(),
            "shard {} drained but {} batches still pending",
            self.id,
            self.pending.len()
        );
        let (pri_states, report, _channels) = self.pipeline.finish_states();
        let _ = reply.send(ShardFinish { pri_states, report });
    }
}
