//! The TCP server: reactor threads, the completion pump / service
//! executor, and graceful shutdown.
//!
//! Modeled on the Memcached-over-HLS case study's request loop
//! (parse → route → respond), adapted to batch granularity and engineered
//! for its connection counts — I/O threads scale with cores, not sockets:
//!
//! ```text
//!            ┌─────────────────────────── WireServer ───────────────────────────┐
//! client ──┐ │  reactor 0 (accept + events) ── admission ──► Cluster (app 1) ◄┐ │
//! client ──┼TCP► reactor 1 (events)          ── admission ──► Cluster (app 2) ◄┤ │
//!  ⋮ 10k   │ │      │ parse · park · shed             pump/service thread ────┘ │
//! client ──┘ │      └── outboxes ◄─── Done/Stats/Output ──────┘                  │
//!            └───────────────────────────────────────────────────────────────────┘
//! ```
//!
//! A small fixed pool of **reactor** threads multiplexes every connection
//! through an [epoll](crate::poller) readiness poller. Each
//! connection is a framed state machine: partial reads resume across
//! events, responses accumulate in a bounded per-connection outbox, and a
//! slow client backpressures (then is disconnected) without blocking the
//! loop — so thousands of idle or slow connections cost file descriptors,
//! not threads. Submits admit (or shed) inline under a `try_lock`;
//! lock-holding requests (`Stats`/`Finalize`/`Metrics`) run on the pump
//! thread. The **pump** parks until something rings its
//! [`Doorbell`]: every shard thread of every hosted cluster rings it right
//! after it streams a completion or its death notice, and a reactor rings
//! it after queuing a service request. Each wake-up runs the queued
//! requests, then collects every hosted cluster's completed batches
//! (running HA `maintain` first) and routes `Done` frames to whichever
//! connection submitted them — pipelining across connections for free.
//! [`WireServerConfig::pump_interval`] only bounds the park when nothing
//! rings.
//!
//! Shutdown is graceful by construction: stop admitting, drain every
//! in-flight batch, flush the resulting `Done` responses from the
//! outboxes, close the sockets, join the reactors, and only then tear
//! down the shard threads (whose panics, if any, are propagated).

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ditto_obs::{
    encode_snapshot, to_prometheus_text, MetricsRegistry, MetricsSnapshot, SpanEvent, SpanJournal,
    SpanStage, NO_SHARD,
};
use ditto_serve::{BatchId, CompletedBatch, Doorbell};

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::conn::ConnShared;
use crate::frame::{error_code, metrics_format, Response, WireStats};
use crate::poller::{deepen_backlog, Backend};
use crate::reactor::{Reactor, ReactorNotify, LOCK_RETRY};
use crate::registry::{AppRegistry, HostedCluster};

/// Wire server tuning.
#[derive(Debug, Clone)]
pub struct WireServerConfig {
    /// Admission control (watermark, defer policy, connection budget).
    pub admission: AdmissionConfig,
    /// The longest the completion pump parks when nothing rings it. Shard
    /// completions and deaths, service requests and shutdown all wake it
    /// at once, so this only bounds how often HA `maintain` upkeep runs on
    /// a quiet server. An app whose lock was busy is retried after at most
    /// 100 µs (the reactor's retry of a contended submit).
    pub pump_interval: Duration,
    /// Capacity of each app's wire-level span journal (accept/admit/shed/
    /// reply events); `0` disables buffering, counters stay exact.
    pub trace_capacity: usize,
    /// Readiness backend for the reactors: always [`Backend::Epoll`], kept
    /// only because `benchmark/src` imports it (ROADMAP 4(g)).
    pub backend: Backend,
    /// Reactor (I/O) thread count; `0` (the default) auto-sizes to the
    /// core count capped at 8.
    pub io_threads: usize,
    /// Soft cap on a connection's queued response bytes: past it the
    /// server stops reading that connection; past 4× it the connection is
    /// disconnected as a slow reader.
    pub write_buf_bytes: usize,
}

impl WireServerConfig {
    /// Defaults: permissive admission, a 200 µs bound on the pump's park,
    /// 4096-event journals, auto-sized reactor pool and a 4 MiB outbox
    /// soft cap.
    pub fn new() -> Self {
        WireServerConfig {
            admission: AdmissionConfig::new(),
            pump_interval: Duration::from_micros(200),
            trace_capacity: 4096,
            backend: Backend::Epoll,
            io_threads: 0,
            write_buf_bytes: 4 << 20,
        }
    }

    /// Sets the admission config.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }

    /// Sets the wire-level span-journal capacity.
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Sets the readiness backend; kept only because `benchmark/src`
    /// imports it (ROADMAP 4(g)).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the reactor thread count (`0` = auto).
    pub fn with_io_threads(mut self, threads: usize) -> Self {
        self.io_threads = threads;
        self
    }

    /// Sets the per-connection outbox soft cap in bytes.
    ///
    /// # Panics
    ///
    /// Panics on zero (a server that can never respond is a bug).
    pub fn with_write_buffer(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "write buffer cap must be nonzero");
        self.write_buf_bytes = bytes;
        self
    }
}

impl Default for WireServerConfig {
    fn default() -> Self {
        WireServerConfig::new()
    }
}

/// The configured reactor count, else cores (≤ 8).
fn resolve_io_threads(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// A connection waiting on a batch completion.
pub(crate) struct Waiter {
    /// The submitting connection's cross-thread half.
    pub(crate) conn: Arc<ConnShared>,
    /// App id to answer under.
    pub(crate) app: u16,
    /// Client sequence number to answer under.
    pub(crate) seq: u64,
    /// Frame-receipt instant, for wall-clock latency in `Done`.
    pub(crate) received: Instant,
}

/// One hosted app's serving state: the erased cluster plus the completion
/// waiters, guarded together (a batch id is only meaningful while the
/// cluster that issued it lives).
pub(crate) struct HostState {
    pub(crate) host: Box<dyn HostedCluster>,
    pub(crate) waiters: HashMap<BatchId, Waiter>,
    /// This app's admission budget: the registry's per-app override, or
    /// the server-wide policy.
    pub(crate) admission: AdmissionController,
    /// Wire-level span events (accept/admit/shed/reply).
    pub(crate) journal: SpanJournal,
}

impl HostState {
    /// Routes completion records to their waiting connections. Runs under
    /// the app lock, so it must never block: the outbox push is bounded,
    /// and a client past its hard cap forfeits the ack it refused to read
    /// rather than stalling the app for everyone.
    pub(crate) fn dispatch(&mut self, completed: Vec<CompletedBatch>) {
        for batch in completed {
            let Some(w) = self.waiters.remove(&batch.id) else {
                // Completion for a batch whose connection died; drop it.
                continue;
            };
            self.journal.record(
                batch.id,
                SpanStage::Reply,
                batch.latency_cycles,
                NO_SHARD,
                batch.tuples,
            );
            let resp = Response::Done {
                tuples: batch.tuples,
                latency_cycles: batch.latency_cycles,
                wall_us: u64::try_from(w.received.elapsed().as_micros()).unwrap_or(u64::MAX),
            };
            // Push before decrementing: a half-closed connection closes on
            // `pending == 0 && outbox empty`, and this order guarantees it
            // sees the frame.
            let _ = w.conn.push_frame(&resp.into_frame(w.app, w.seq));
            w.conn.pending.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// This app's full observability snapshot: the hosted cluster's merged
    /// registry plus the wire layer's own journal counters.
    fn metrics(&mut self) -> MetricsSnapshot {
        let mut snap = self.host.metrics();
        let mut reg = MetricsRegistry::new();
        let recorded = reg.counter("ditto_wire_journal_events", "wire", "events");
        let evicted = reg.counter("ditto_wire_journal_evicted", "wire", "events");
        reg.set_counter(recorded, self.journal.recorded());
        reg.set_counter(evicted, self.journal.evicted());
        snap.merge(&reg.snapshot());
        snap
    }

    /// Drains this app's full span journal — the hosted cluster's events
    /// (queue/step/drain/merge) and the wire layer's (accept/admit/shed/
    /// reply) — stamping every event with `app`.
    fn take_journal(&mut self, app: u16) -> Vec<SpanEvent> {
        let mut events = self.host.take_journal();
        events.append(&mut self.journal.drain());
        for e in &mut events {
            e.app = app;
        }
        events
    }

    /// Fails every waiter (shutdown path).
    fn fail_waiters(&mut self, code: u16, message: &str) {
        for (_, w) in self.waiters.drain() {
            let resp = Response::Error {
                code,
                message: message.to_owned(),
            };
            let _ = w.conn.push_frame(&resp.into_frame(w.app, w.seq));
            w.conn.pending.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// A lock-holding request queued for execution off the event loop.
pub(crate) struct ServiceRequest {
    /// The requesting connection (response target; its decode is paused).
    pub(crate) conn: Arc<ConnShared>,
    /// App id from the frame header.
    pub(crate) app: u16,
    /// Client sequence number to answer under.
    pub(crate) seq: u64,
    /// Which request.
    pub(crate) kind: ServiceKind,
}

/// The lock-holding request kinds the reactors hand off.
pub(crate) enum ServiceKind {
    /// `Stats` → `Response::Stats`.
    Stats,
    /// `Finalize` → dispatch tail completions, `Response::Output`.
    Finalize,
    /// `Metrics` → `Response::MetricsDump`.
    Metrics {
        /// Requested dump format (`metrics_format`).
        format: u8,
    },
}

/// The service executor's queue; `closed` refuses late arrivals during
/// shutdown (checked under the same lock, so none are lost in between).
pub(crate) struct ServiceQueue {
    closed: bool,
    ops: VecDeque<ServiceRequest>,
}

/// Queues a service request unless the queue already closed for shutdown,
/// and wakes the pump to execute it.
pub(crate) fn enqueue_service(shared: &ServerShared, req: ServiceRequest) -> bool {
    {
        let mut q = shared.service.lock().expect("service queue poisoned");
        if q.closed {
            return false;
        }
        q.ops.push_back(req);
    }
    if let Some(pump) = shared.pump.get() {
        pump.ring();
    }
    true
}

/// Executes one service request and unblocks its connection.
fn execute_service(shared: &ServerShared, op: ServiceRequest) {
    let reply = match op.kind {
        ServiceKind::Stats => with_app(shared, op.app, |st| Response::Stats(st.host.stats())),
        ServiceKind::Finalize => with_app(shared, op.app, |st| {
            let (completed, bytes) = st.host.finalize();
            st.dispatch(completed);
            Response::Output { bytes }
        }),
        ServiceKind::Metrics { format } => handle_metrics(shared, op.app, format),
    };
    let _ = op.conn.push_frame(&reply.into_frame(op.app, op.seq));
    op.conn.service_blocked.store(false, Ordering::Release);
    // The push already rang the doorbell, but ring again in case the push
    // was refused: the lifted pause alone must reach the reactor.
    op.conn.notify.mark_dirty(op.conn.token);
}

/// State shared by the reactors, the pump, and the shutdown path.
pub(crate) struct ServerShared {
    pub(crate) apps: HashMap<u16, Mutex<HostState>>,
    /// Per-app auth tokens (absent or 0 = open access).
    pub(crate) tokens: HashMap<u16, u16>,
    pub(crate) stopping: AtomicBool,
    /// Set after in-flight batches drained: reactors flush and exit.
    pub(crate) draining: AtomicBool,
    pub(crate) connections_accepted: AtomicU64,
    pub(crate) connections_rejected: AtomicU64,
    pub(crate) slow_disconnects: AtomicU64,
    pub(crate) connections_open: AtomicUsize,
    pub(crate) service: Mutex<ServiceQueue>,
    /// The pump thread's doorbell; set at bind before any reactor runs.
    pub(crate) pump: OnceLock<Doorbell>,
    pub(crate) max_connections: usize,
    pub(crate) write_soft_cap: usize,
    pub(crate) write_hard_cap: usize,
}

/// Final accounting returned by [`WireServer::shutdown`].
#[derive(Debug, Clone)]
pub struct ShutdownReport {
    /// Connections the server accepted over its lifetime.
    pub connections_accepted: u64,
    /// Connections refused over the [`AdmissionConfig::max_connections`]
    /// budget.
    pub connections_rejected: u64,
    /// Final per-app statistics, sorted by app id.
    pub per_app: Vec<(u16, WireStats)>,
}

/// A running wire front-end over one or more serve clusters.
///
/// Bound with [`bind`](Self::bind); stopped with
/// [`shutdown`](Self::shutdown) — always shut down explicitly: dropping
/// the handle leaves the background threads serving until process exit.
pub struct WireServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    notifies: Vec<Arc<ReactorNotify>>,
    reactor_threads: Vec<JoinHandle<()>>,
    pump_thread: Option<JoinHandle<()>>,
    io_threads: usize,
}

impl WireServer {
    /// Binds `addr` (use `127.0.0.1:0` to let the OS pick a port) and
    /// starts serving the registry's apps.
    ///
    /// # Errors
    ///
    /// Propagates socket bind, wake-pipe, and poller setup errors.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: AppRegistry,
        config: WireServerConfig,
    ) -> std::io::Result<WireServer> {
        // Announce DITTO_* overrides once, at the front door: a serving
        // process whose behaviour was changed by the environment should
        // say so before accepting traffic.
        ditto_obs::env::log_active();
        let listener = TcpListener::bind(addr)?;
        // std listens with a backlog of 128; a 1k-connection fan-in opens
        // sockets faster than one acceptor drains them, so deepen it.
        let _ = deepen_backlog(listener.as_raw_fd(), 1024);
        let addr = listener.local_addr()?;
        let AppRegistry {
            apps,
            mut admissions,
            tokens,
        } = registry;
        let apps: HashMap<u16, Mutex<HostState>> = apps
            .into_iter()
            .map(|(id, host)| {
                let policy = admissions
                    .remove(&id)
                    .unwrap_or_else(|| config.admission.clone());
                (
                    id,
                    Mutex::new(HostState {
                        host,
                        waiters: HashMap::new(),
                        admission: AdmissionController::new(policy),
                        journal: SpanJournal::new(config.trace_capacity),
                    }),
                )
            })
            .collect();
        let io_threads = resolve_io_threads(config.io_threads);
        let shared = Arc::new(ServerShared {
            apps,
            tokens,
            stopping: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            connections_accepted: AtomicU64::new(0),
            connections_rejected: AtomicU64::new(0),
            slow_disconnects: AtomicU64::new(0),
            connections_open: AtomicUsize::new(0),
            service: Mutex::new(ServiceQueue {
                closed: false,
                ops: VecDeque::new(),
            }),
            pump: OnceLock::new(),
            max_connections: config.admission.max_connections,
            write_soft_cap: config.write_buf_bytes,
            write_hard_cap: config.write_buf_bytes.saturating_mul(4),
        });

        let mut notifies = Vec::with_capacity(io_threads);
        let mut wake_rxs = Vec::with_capacity(io_threads);
        for _ in 0..io_threads {
            let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            notifies.push(Arc::new(ReactorNotify::new(tx)));
            wake_rxs.push(rx);
        }
        let mut listener = Some(listener);
        let reactors = wake_rxs
            .into_iter()
            .enumerate()
            .map(|(index, rx)| {
                Reactor::new(
                    index,
                    Arc::clone(&shared),
                    Arc::clone(&notifies[index]),
                    notifies.clone(),
                    rx,
                    listener.take(),
                )
            })
            .collect::<std::io::Result<Vec<Reactor>>>()?;

        // The pump starts before the reactors, and every cluster and the
        // service queue know its doorbell before the first request lands.
        let pump_shared = Arc::clone(&shared);
        let pump_interval = config.pump_interval;
        let (pump_tx, pump_rx) = std::sync::mpsc::channel();
        let pump_thread = std::thread::Builder::new()
            .name("wire-pump".to_owned())
            .spawn(move || {
                let pump = Doorbell::current();
                let _ = pump_tx.send(pump.clone());
                pump_loop(&pump_shared, &pump, pump_interval);
            })
            .expect("spawn pump thread");
        let pump = pump_rx.recv().expect("pump thread started");
        for state in shared.apps.values() {
            let mut st = state.lock().expect("host state poisoned");
            st.host.attach_doorbell(pump.clone());
        }
        let _ = shared.pump.set(pump);

        let reactor_threads = reactors
            .into_iter()
            .enumerate()
            .map(|(index, reactor)| {
                std::thread::Builder::new()
                    .name(format!("wire-reactor-{index}"))
                    .spawn(move || reactor.run())
                    .expect("spawn reactor thread")
            })
            .collect();

        Ok(WireServer {
            addr,
            shared,
            notifies,
            reactor_threads,
            pump_thread: Some(pump_thread),
            io_threads,
        })
    }

    /// The bound address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many reactor (I/O) threads are multiplexing connections —
    /// fixed at bind time, independent of the connection count.
    pub fn io_threads(&self) -> usize {
        self.io_threads
    }

    /// Drains every hosted app's span journals — wire-level accept/admit/
    /// shed/reply events plus the cluster's queue/step/drain/merge events —
    /// stamped with their app ids. Feed the result to
    /// [`ditto_obs::chrome_trace_json`] for a `chrome://tracing` /
    /// Perfetto-loadable file.
    pub fn take_trace_events(&self) -> Vec<SpanEvent> {
        let mut ids: Vec<u16> = self.shared.apps.keys().copied().collect();
        ids.sort_unstable();
        let mut events = Vec::new();
        for id in ids {
            let state = self.shared.apps.get(&id).expect("id from keys");
            let mut st = state.lock().expect("host state poisoned");
            events.extend(st.take_journal(id));
        }
        events
    }

    /// Graceful shutdown: stop admitting, drain every in-flight batch,
    /// flush their `Done` responses from the per-connection outboxes,
    /// close connections, join the reactors, then tear the shard threads
    /// down.
    ///
    /// # Panics
    ///
    /// Panics if a server or shard thread panicked (the payload is
    /// propagated into the message).
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shared.stopping.store(true, Ordering::SeqCst);
        if let Some(pump) = self.shared.pump.get() {
            pump.ring();
        }
        if let Some(t) = self.pump_thread.take() {
            t.join().expect("pump thread panicked");
        }
        // Close the service queue and run what it still holds: reactors
        // that lose the race get an explicit refusal, and no paused
        // connection is left waiting on an op nobody will execute.
        let late_ops = {
            let mut q = self.shared.service.lock().expect("service queue poisoned");
            q.closed = true;
            std::mem::take(&mut q.ops)
        };
        for op in late_ops {
            execute_service(&self.shared, op);
        }
        // Drain every app: new submissions are already refused (stopping
        // flag), so after drain there are no in-flight batches; the
        // resulting Done frames land in still-live outboxes.
        for state in self.shared.apps.values() {
            let mut st = state.lock().expect("host state poisoned");
            let completed = st.host.drain();
            st.dispatch(completed);
            st.fail_waiters(error_code::SHUTTING_DOWN, "server shutting down");
        }
        // Now every response is queued: tell the reactors to flush
        // outboxes and exit ("no Done lost"), and wake them to notice.
        self.shared.draining.store(true, Ordering::SeqCst);
        for notify in &self.notifies {
            notify.wake();
        }
        for t in self.reactor_threads.drain(..) {
            t.join().expect("reactor thread panicked");
        }
        // Only now tear down the shard threads.
        let shared = Arc::try_unwrap(self.shared)
            .unwrap_or_else(|_| panic!("wire server shared state still referenced after joins"));
        let mut per_app: Vec<(u16, WireStats)> = shared
            .apps
            .into_iter()
            .map(|(id, state)| {
                let st = state.into_inner().expect("host state poisoned");
                let (_, stats) = st.host.shutdown();
                (id, stats)
            })
            .collect();
        per_app.sort_unstable_by_key(|&(id, _)| id);
        ShutdownReport {
            connections_accepted: shared.connections_accepted.load(Ordering::SeqCst),
            connections_rejected: shared.connections_rejected.load(Ordering::SeqCst),
            per_app,
        }
    }
}

/// Serves a `Metrics` request: app id 0 merges every hosted app's registry
/// (each stamped with its `app` label) plus the server-wide connection
/// gauges; a concrete id dumps that app alone.
fn handle_metrics(shared: &ServerShared, app: u16, format: u8) -> Response {
    let snap = if app == 0 {
        let mut ids: Vec<u16> = shared.apps.keys().copied().collect();
        ids.sort_unstable();
        let mut merged = MetricsSnapshot::default();
        for id in ids {
            let state = shared.apps.get(&id).expect("id from keys");
            let mut st = state.lock().expect("host state poisoned");
            let mut snap = st.metrics();
            snap.add_label("app", id);
            merged.merge(&snap);
        }
        let mut reg = MetricsRegistry::new();
        let open = reg.gauge("ditto_wire_connections_open", "wire", "connections");
        let accepted = reg.counter("ditto_wire_connections_accepted", "wire", "connections");
        let rejected = reg.counter("ditto_wire_connections_rejected", "wire", "connections");
        let slow = reg.counter("ditto_wire_slow_disconnects", "wire", "connections");
        reg.set_gauge(open, shared.connections_open.load(Ordering::SeqCst) as u64);
        reg.set_counter(accepted, shared.connections_accepted.load(Ordering::SeqCst));
        reg.set_counter(rejected, shared.connections_rejected.load(Ordering::SeqCst));
        reg.set_counter(slow, shared.slow_disconnects.load(Ordering::SeqCst));
        merged.merge(&reg.snapshot());
        merged
    } else {
        match shared.apps.get(&app) {
            Some(state) => {
                let mut st = state.lock().expect("host state poisoned");
                let mut snap = st.metrics();
                snap.add_label("app", app);
                snap
            }
            None => {
                return Response::Error {
                    code: error_code::UNKNOWN_APP,
                    message: format!("no app registered under id {app}"),
                }
            }
        }
    };
    let body = match format {
        metrics_format::PROMETHEUS => to_prometheus_text(&snap).into_bytes(),
        _ => encode_snapshot(&snap),
    };
    Response::MetricsDump { format, body }
}

/// Runs `f` under the app's lock, or answers `UNKNOWN_APP`.
fn with_app(
    shared: &ServerShared,
    app: u16,
    f: impl FnOnce(&mut HostState) -> Response,
) -> Response {
    match shared.apps.get(&app) {
        Some(state) => f(&mut state.lock().expect("host state poisoned")),
        None => Response::Error {
            code: error_code::UNKNOWN_APP,
            message: format!("no app registered under id {app}"),
        },
    }
}

/// Executes queued service requests, then collects every hosted cluster's
/// completed batches and routes their `Done` responses; parks until the
/// doorbell rings in between.
fn pump_loop(shared: &Arc<ServerShared>, pump: &Doorbell, interval: Duration) {
    loop {
        // Service requests first: their connections' decode is paused
        // until answered, so they must not wait behind a full pump pass.
        loop {
            let op = {
                let mut q = shared.service.lock().expect("service queue poisoned");
                q.ops.pop_front()
            };
            match op {
                Some(op) => execute_service(shared, op),
                None => break,
            }
        }
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        let mut busy = false;
        for state in shared.apps.values() {
            // Never block on a busy app (a reactor admitting a batch, which
            // on an HA host may first heal a dead shard); its completions
            // keep until the retry.
            let Ok(mut st) = state.try_lock() else {
                busy = true;
                continue;
            };
            // Host upkeep first (an HA host runs failure detection and
            // replica promotion here), so a shard death surfaces as a
            // promotion instead of stuck completions.
            st.host.maintain();
            let completed = st.host.take_completed();
            if !completed.is_empty() {
                st.dispatch(completed);
            }
        }
        // A ring that landed during this pass makes the wait return at
        // once, so no completion waits out the timeout.
        pump.wait(if busy {
            interval.min(LOCK_RETRY)
        } else {
            interval
        });
    }
}

impl std::fmt::Debug for WireServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireServer")
            .field("addr", &self.addr)
            .field("io_threads", &self.io_threads)
            .field(
                "connections_accepted",
                &self.shared.connections_accepted.load(Ordering::SeqCst),
            )
            .finish()
    }
}
