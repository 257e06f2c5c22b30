//! The event loop: readiness-driven I/O multiplexing for the wire server.
//!
//! One [`Reactor`] per I/O thread. Each owns an [`EpollPoller`] (see
//! [`crate::poller`]), a slab of connections, and a doorbell
//! ([`ReactorNotify`]) that other threads ring to hand it work:
//!
//! - the **completion pump** and **service executor** push response frames
//!   into a connection's outbox ([`ConnShared::push_frame`]) and mark its
//!   token dirty — the reactor flushes on its next turn;
//! - the **acceptor** (reactor 0, which owns the listener) injects freshly
//!   accepted sockets into peer reactors round-robin.
//!
//! The doorbell is a `UnixStream` pair: one byte written on the first
//! signal after a quiet period makes the poller's `wait` return, and the
//! reactor then drains the dirty/injected lists. An `AtomicBool` collapses
//! redundant wake-ups so a hot pump writes one byte per reactor turn, not
//! one per response.
//!
//! Nothing in the loop blocks: sockets are non-blocking, admission uses
//! `try_lock` and *parks* a submit (timer retry) when the app lock is
//! contended or the queue is over watermark, and lock-holding service
//! requests (`Stats`/`Finalize`/`Metrics`) are executed by the pump thread
//! off the event loop.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::{Duration, Instant};

use datagen::Tuple;
use ditto_obs::{clock, SpanStage, NO_SHARD};

use crate::admission::AdmissionDecision;
use crate::conn::{Conn, ConnPhase, ConnShared, OutBuf, ParkedSubmit};
use crate::frame::{error_code, Frame, FrameError, Request, Response};
use crate::poller::{EpollPoller, Event, Interest};
use crate::server::{enqueue_service, ServerShared, ServiceKind, ServiceRequest, Waiter};

/// Poller token of this reactor's doorbell read-half.
const TOKEN_WAKER: usize = 0;
/// Poller token of the TCP listener (reactor 0 only).
const TOKEN_LISTENER: usize = 1;
/// First connection token; slab index = token − base.
const TOKEN_BASE: usize = 2;

/// Retry delay for a submit whose app lock was momentarily contended (not
/// an admission defer — the attempt counter does not advance), and for the
/// pump's next pass over an app it found locked.
pub(crate) const LOCK_RETRY: Duration = Duration::from_micros(100);
/// Read chunk size per `read(2)`.
const READ_CHUNK: usize = 16 * 1024;
/// Fairness bound: chunks read from one connection per readiness event
/// (level-triggered polling re-delivers the event if more data waits).
const MAX_READ_CHUNKS: usize = 16;
/// How long shutdown keeps flushing outboxes toward clients that are
/// still reading before force-closing the rest.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// A reactor's doorbell: how other threads hand it work.
#[derive(Debug)]
pub(crate) struct ReactorNotify {
    /// Write half of the wake pipe (the reactor polls the read half).
    wake_tx: Mutex<UnixStream>,
    /// Collapses redundant wake bytes between reactor turns.
    signaled: AtomicBool,
    /// Connection tokens with fresh outbox bytes or cleared pause flags.
    dirty: Mutex<Vec<usize>>,
    /// Accepted sockets handed over by the acceptor.
    injected: Mutex<Vec<TcpStream>>,
}

impl ReactorNotify {
    /// Wraps the write half of a reactor's wake pipe.
    pub fn new(wake_tx: UnixStream) -> Self {
        ReactorNotify {
            wake_tx: Mutex::new(wake_tx),
            signaled: AtomicBool::new(false),
            dirty: Mutex::new(Vec::new()),
            injected: Mutex::new(Vec::new()),
        }
    }

    /// Flags `token` as having pending outbox bytes (or a lifted pause)
    /// and wakes the reactor.
    pub fn mark_dirty(&self, token: usize) {
        self.dirty.lock().expect("dirty list poisoned").push(token);
        self.wake();
    }

    /// Hands an accepted socket to this reactor and wakes it.
    pub fn inject(&self, stream: TcpStream) {
        self.injected
            .lock()
            .expect("inject list poisoned")
            .push(stream);
        self.wake();
    }

    /// Makes the reactor's `wait` return (one byte per quiet period).
    pub fn wake(&self) {
        if !self.signaled.swap(true, Ordering::AcqRel) {
            let mut tx = self.wake_tx.lock().expect("wake pipe poisoned");
            // WouldBlock means unread wake bytes already queue: still woken.
            let _ = tx.write(&[1]);
        }
    }
}

/// One I/O thread's event loop state.
pub(crate) struct Reactor {
    index: usize,
    shared: Arc<ServerShared>,
    notify: Arc<ReactorNotify>,
    peers: Vec<Arc<ReactorNotify>>,
    waker_rx: UnixStream,
    listener: Option<TcpListener>,
    poller: EpollPoller,
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Round-robin cursor for handing accepted sockets to peers.
    rr: usize,
}

impl Reactor {
    /// Builds a reactor and registers its doorbell (and listener, for the
    /// acceptor reactor) with a fresh poller.
    ///
    /// # Errors
    ///
    /// Propagates poller-creation and fd-registration failures.
    pub fn new(
        index: usize,
        shared: Arc<ServerShared>,
        notify: Arc<ReactorNotify>,
        peers: Vec<Arc<ReactorNotify>>,
        waker_rx: UnixStream,
        listener: Option<TcpListener>,
    ) -> std::io::Result<Reactor> {
        let mut poller = EpollPoller::new()?;
        waker_rx.set_nonblocking(true)?;
        poller.register(waker_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;
        if let Some(l) = &listener {
            l.set_nonblocking(true)?;
            poller.register(l.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        }
        Ok(Reactor {
            index,
            shared,
            notify,
            peers,
            waker_rx,
            listener,
            poller,
            slots: Vec::new(),
            free: Vec::new(),
            rr: 0,
        })
    }

    /// Runs the event loop until the server enters its drain phase, then
    /// flushes every outbox and exits.
    pub fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shared.draining.load(Ordering::Acquire) {
                self.drain();
                return;
            }
            let timeout = self
                .next_parked_due()
                .map(|due| due.saturating_duration_since(Instant::now()));
            if let Err(e) = self.poller.wait(&mut events, timeout) {
                panic!("wire reactor poll failed: {e}");
            }
            for ev in events.drain(..) {
                match ev.token {
                    TOKEN_WAKER => self.on_wake(),
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.on_conn_event(token, ev),
                }
            }
            self.retry_parked();
        }
    }

    /// Earliest parked-submit retry deadline, if any — bounds the poll
    /// timeout.
    fn next_parked_due(&self) -> Option<Instant> {
        self.slots
            .iter()
            .flatten()
            .filter_map(|c| c.parked.as_ref().map(|p| p.due))
            .min()
    }

    /// Drains the doorbell: wake bytes, injected sockets, dirty tokens.
    fn on_wake(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match self.waker_rx.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        // Clear before taking the lists: a signal raced in after the take
        // re-arms the byte, so it is seen next turn instead of lost.
        self.notify.signaled.store(false, Ordering::Release);
        let injected = std::mem::take(&mut *self.notify.injected.lock().expect("inject list"));
        let dirty = std::mem::take(&mut *self.notify.dirty.lock().expect("dirty list"));
        for stream in injected {
            self.adopt(stream);
        }
        for token in dirty {
            self.on_dirty(token);
        }
    }

    /// Accepts until the listener would block, enforcing the connection
    /// budget and spreading sockets round-robin over all reactors.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.stopping.load(Ordering::SeqCst) {
                        let _ = stream.shutdown(Shutdown::Both);
                        continue;
                    }
                    let open = self.shared.connections_open.load(Ordering::SeqCst);
                    if open >= self.shared.max_connections {
                        self.shared
                            .connections_rejected
                            .fetch_add(1, Ordering::SeqCst);
                        reject_over_budget(stream, self.shared.max_connections);
                        continue;
                    }
                    self.shared
                        .connections_accepted
                        .fetch_add(1, Ordering::SeqCst);
                    self.shared.connections_open.fetch_add(1, Ordering::SeqCst);
                    stream.set_nodelay(true).ok();
                    let target = self.rr % self.peers.len();
                    self.rr += 1;
                    if target == self.index {
                        self.adopt(stream);
                    } else {
                        self.peers[target].inject(stream);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient (aborted handshake, fd pressure): the next
                // readiness event retries.
                Err(_) => return,
            }
        }
    }

    /// Registers an accepted (already budget-counted) socket with this
    /// reactor.
    fn adopt(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            self.shared.connections_open.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        let token = TOKEN_BASE + idx;
        if self
            .poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            self.free.push(idx);
            self.shared.connections_open.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let shared = Arc::new(ConnShared {
            token,
            notify: Arc::clone(&self.notify),
            out: Mutex::new(OutBuf::default()),
            pending: AtomicU64::new(0),
            service_blocked: AtomicBool::new(false),
            kill: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            soft_cap: self.shared.write_soft_cap,
            hard_cap: self.shared.write_hard_cap,
        });
        self.slots[idx] = Some(Conn {
            stream,
            shared,
            inbuf: Vec::new(),
            inpos: 0,
            phase: ConnPhase::Open,
            parked: None,
            interest: Interest::READ,
        });
    }

    /// Handles one readiness event for a connection token.
    fn on_conn_event(&mut self, token: usize, ev: Event) {
        let Some(mut conn) = self.take_conn(token) else {
            return;
        };
        // A hangup on a connection whose read path is disabled (paused or
        // half-closed) would otherwise re-fire forever: the peer is fully
        // gone, so responses are undeliverable — close.
        if ev.hangup && (conn.phase != ConnPhase::Open || conn.paused()) {
            self.close(conn, false);
            return;
        }
        if ev.writable && flush(&mut conn).is_err() {
            self.close(conn, false);
            return;
        }
        if ev.readable && conn.phase == ConnPhase::Open {
            if let Err(_e) = read_input(&self.shared, &mut conn) {
                self.close(conn, false);
                return;
            }
        }
        self.finish(token, conn);
    }

    /// Handles a dirty mark: flush fresh outbox bytes and resume decode if
    /// a pause (service op, backpressure) was lifted.
    fn on_dirty(&mut self, token: usize) {
        let Some(mut conn) = self.take_conn(token) else {
            return;
        };
        if flush(&mut conn).is_err() {
            self.close(conn, false);
            return;
        }
        self.finish(token, conn);
    }

    /// Retries parked submits whose deadline has passed.
    fn retry_parked(&mut self) {
        let now = Instant::now();
        for idx in 0..self.slots.len() {
            let due = matches!(
                &self.slots[idx],
                Some(conn) if matches!(&conn.parked, Some(p) if p.due <= now)
            );
            if !due {
                continue;
            }
            let mut conn = self.slots[idx].take().expect("slot checked above");
            let p = conn.parked.take().expect("parked checked above");
            conn.parked = attempt_submit(
                &self.shared,
                &conn,
                p.app,
                p.seq,
                p.tuples,
                p.attempt,
                p.received,
            );
            self.finish(TOKEN_BASE + idx, conn);
        }
    }

    /// Common tail for every per-connection path: resume buffered decode
    /// if unpaused, flush what that produced, close if terminal, and
    /// re-arm poller interest.
    fn finish(&mut self, token: usize, mut conn: Conn) {
        if conn.shared.kill.load(Ordering::Acquire) {
            self.close(conn, true);
            return;
        }
        if conn.phase != ConnPhase::Closing && !conn.paused() && conn.has_input() {
            process_input(&self.shared, &mut conn);
        }
        if conn.shared.queued_bytes() > 0 && flush(&mut conn).is_err() {
            self.close(conn, false);
            return;
        }
        if conn.shared.kill.load(Ordering::Acquire) {
            self.close(conn, true);
            return;
        }
        if should_close(&conn) {
            self.close(conn, false);
            return;
        }
        self.update_interest(&mut conn);
        self.slots[token - TOKEN_BASE] = Some(conn);
    }

    /// Takes a live connection out of its slot (present-and-owned check).
    fn take_conn(&mut self, token: usize) -> Option<Conn> {
        if token < TOKEN_BASE {
            return None;
        }
        self.slots.get_mut(token - TOKEN_BASE)?.take()
    }

    /// Re-arms poller interest if it changed: read while open and
    /// unpaused, write while the outbox has bytes.
    fn update_interest(&mut self, conn: &mut Conn) {
        let desired = Interest {
            read: conn.phase == ConnPhase::Open && !conn.paused(),
            write: conn.shared.queued_bytes() > 0,
        };
        if desired != conn.interest
            && self
                .poller
                .reregister(conn.stream.as_raw_fd(), conn.shared.token, desired)
                .is_ok()
        {
            conn.interest = desired;
        }
    }

    /// Closes a connection: deregister, mark dead (pushes become no-ops),
    /// release its budget slot.
    fn close(&mut self, conn: Conn, slow: bool) {
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        conn.shared.dead.store(true, Ordering::Release);
        if slow {
            self.shared.slow_disconnects.fetch_add(1, Ordering::SeqCst);
        }
        self.shared.connections_open.fetch_sub(1, Ordering::SeqCst);
        self.free.push(conn.shared.token - TOKEN_BASE);
    }

    /// Drain phase: no more reads or accepts; flush every outbox (the
    /// already-dispatched `Done`/error frames) until empty or deadline,
    /// then close everything. The "no `Done` lost" half of graceful
    /// shutdown.
    fn drain(&mut self) {
        if let Some(l) = self.listener.take() {
            let _ = self.poller.deregister(l.as_raw_fd());
        }
        // Sockets handed over but never adopted: close and release them.
        let injected = std::mem::take(&mut *self.notify.injected.lock().expect("inject list"));
        for stream in injected {
            self.shared.connections_open.fetch_sub(1, Ordering::SeqCst);
            drop(stream);
        }
        for conn in self.slots.iter_mut().flatten() {
            if let Some(p) = conn.parked.take() {
                conn.shared.push_frame(
                    &Response::Error {
                        code: error_code::SHUTTING_DOWN,
                        message: "server shutting down".to_owned(),
                    }
                    .into_frame(p.app, p.seq),
                );
            }
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let mut events: Vec<Event> = Vec::new();
        loop {
            let mut live = 0usize;
            for idx in 0..self.slots.len() {
                let Some(mut conn) = self.slots[idx].take() else {
                    continue;
                };
                if flush(&mut conn).is_err() || conn.shared.queued_bytes() == 0 {
                    self.close(conn, false);
                    continue;
                }
                live += 1;
                // Write-only interest: EOF-readability after shutdown(Read)
                // must not spin the drain loop.
                let desired = Interest {
                    read: false,
                    write: true,
                };
                if desired != conn.interest
                    && self
                        .poller
                        .reregister(conn.stream.as_raw_fd(), conn.shared.token, desired)
                        .is_ok()
                {
                    conn.interest = desired;
                }
                self.slots[idx] = Some(conn);
            }
            if live == 0 {
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                for idx in 0..self.slots.len() {
                    if let Some(conn) = self.slots[idx].take() {
                        self.close(conn, true);
                    }
                }
                return;
            }
            let wait = (deadline - now).min(Duration::from_millis(50));
            let _ = self.poller.wait(&mut events, Some(wait));
        }
    }
}

/// Refuses an over-budget connection with one explicit error frame (short
/// blocking write with a timeout; the socket was just accepted, so its
/// send buffer is empty) and closes it.
fn reject_over_budget(mut stream: TcpStream, budget: usize) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(50)));
    let reply = Response::Error {
        code: error_code::TOO_MANY_CONNECTIONS,
        message: format!("connection budget exhausted ({budget} open)"),
    }
    .into_frame(0, 0);
    let _ = stream.write_all(&reply.to_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

/// Reads until the socket would block (bounded per event for fairness),
/// decoding frames as they complete.
fn read_input(shared: &ServerShared, conn: &mut Conn) -> std::io::Result<()> {
    let mut buf = [0u8; READ_CHUNK];
    let mut chunks = 0;
    loop {
        if conn.phase != ConnPhase::Open || conn.paused() {
            return Ok(());
        }
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                // Half-close: the client is done submitting but still
                // reads; queued and in-flight responses flush first.
                conn.phase = ConnPhase::WriteOnly;
                return Ok(());
            }
            Ok(n) => {
                conn.inbuf.extend_from_slice(&buf[..n]);
                process_input(shared, conn);
                chunks += 1;
                if chunks >= MAX_READ_CHUNKS {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Decodes and handles buffered frames until input runs short or decode
/// pauses (parked submit, service op, backpressure).
fn process_input(shared: &ServerShared, conn: &mut Conn) {
    loop {
        if conn.phase == ConnPhase::Closing || conn.paused() {
            break;
        }
        match Frame::decode(&conn.inbuf[conn.inpos..]) {
            Ok((frame, used)) => {
                conn.inpos += used;
                handle_frame(shared, conn, frame);
            }
            Err(FrameError::Truncated { .. }) => break,
            Err(e) => {
                // Protocol garbage: framing is lost, so nothing later on
                // this connection is parseable — answer once, then hang up.
                conn.shared.push_frame(
                    &Response::Error {
                        code: error_code::BAD_REQUEST,
                        message: e.to_string(),
                    }
                    .into_frame(0, 0),
                );
                conn.phase = ConnPhase::Closing;
                break;
            }
        }
    }
    conn.compact_input();
}

/// Dispatches one decoded frame: parse → authenticate → admit/route or
/// queue for the service executor.
fn handle_frame(shared: &ServerShared, conn: &mut Conn, frame: Frame) {
    let received = Instant::now();
    let request = match Request::decode(&frame) {
        Ok(request) => request,
        Err(e) => {
            conn.shared.push_frame(
                &Response::Error {
                    code: error_code::BAD_REQUEST,
                    message: e.to_string(),
                }
                .into_frame(frame.app, frame.seq),
            );
            conn.phase = ConnPhase::Closing;
            return;
        }
    };
    match request {
        Request::Ping { echo } => {
            conn.shared
                .push_frame(&Response::Pong { echo }.into_frame(frame.app, frame.seq));
        }
        Request::Submit { tuples } => {
            if !token_ok(shared, frame.app, frame.token) {
                conn.shared
                    .push_frame(&bad_token(frame.app).into_frame(frame.app, frame.seq));
                return;
            }
            conn.parked = attempt_submit(shared, conn, frame.app, frame.seq, tuples, 0, received);
        }
        Request::Stats => request_service(shared, conn, &frame, ServiceKind::Stats),
        Request::Finalize => {
            if !token_ok(shared, frame.app, frame.token) {
                conn.shared
                    .push_frame(&bad_token(frame.app).into_frame(frame.app, frame.seq));
                return;
            }
            request_service(shared, conn, &frame, ServiceKind::Finalize);
        }
        Request::Metrics { format } => {
            request_service(shared, conn, &frame, ServiceKind::Metrics { format });
        }
    }
}

/// Checks the frame's auth token against the app's registered one. Apps
/// with no token (or token 0) accept anything — tenancy is opt-in and the
/// bits were reserved-zero before, so old clients stay compatible.
fn token_ok(shared: &ServerShared, app: u16, presented: u16) -> bool {
    match shared.tokens.get(&app) {
        Some(&expected) if expected != 0 => presented == expected,
        _ => true,
    }
}

fn bad_token(app: u16) -> Response {
    Response::Error {
        code: error_code::BAD_TOKEN,
        message: format!("invalid auth token for app {app}"),
    }
}

/// Queues a lock-holding request for the pump thread's service executor
/// and pauses this connection's decode so responses keep request order.
fn request_service(shared: &ServerShared, conn: &mut Conn, frame: &Frame, kind: ServiceKind) {
    // Flag before enqueueing: the executor clears it after answering, and
    // the reverse order could leave a served connection paused forever.
    conn.shared.service_blocked.store(true, Ordering::Release);
    let req = ServiceRequest {
        conn: Arc::clone(&conn.shared),
        app: frame.app,
        seq: frame.seq,
        kind,
    };
    if !enqueue_service(shared, req) {
        conn.shared.service_blocked.store(false, Ordering::Release);
        conn.shared.push_frame(
            &Response::Error {
                code: error_code::SHUTTING_DOWN,
                message: "server shutting down".to_owned(),
            }
            .into_frame(frame.app, frame.seq),
        );
    }
}

/// One non-blocking admission attempt for a submit. Returns `Some` if the
/// submit stays parked (lock contention or admission defer) — the reactor
/// retries it at `due` without blocking the loop.
fn attempt_submit(
    shared: &ServerShared,
    conn: &Conn,
    app: u16,
    seq: u64,
    tuples: Vec<Tuple>,
    attempt: u32,
    received: Instant,
) -> Option<ParkedSubmit> {
    if shared.stopping.load(Ordering::SeqCst) {
        refuse_shutting_down(conn, app, seq);
        return None;
    }
    let Some(state) = shared.apps.get(&app) else {
        conn.shared.push_frame(
            &Response::Error {
                code: error_code::UNKNOWN_APP,
                message: format!("no app registered under id {app}"),
            }
            .into_frame(app, seq),
        );
        return None;
    };
    let mut st = match state.try_lock() {
        Ok(st) => st,
        Err(TryLockError::WouldBlock) => {
            // Contended (pump dispatch, service executor): retry shortly.
            return Some(ParkedSubmit {
                app,
                seq,
                tuples,
                attempt,
                due: Instant::now() + LOCK_RETRY,
                received,
            });
        }
        Err(TryLockError::Poisoned(e)) => panic!("host state poisoned: {e}"),
    };
    // Re-check under the lock: shutdown fails all waiters while holding
    // it, so a submit that slips past the flag check above must not
    // insert a waiter nobody will ever complete.
    if shared.stopping.load(Ordering::SeqCst) {
        drop(st);
        refuse_shutting_down(conn, app, seq);
        return None;
    }
    let n_tuples = tuples.len() as u64;
    let depth = st.host.queue_depth();
    match st.admission.evaluate(depth, attempt) {
        AdmissionDecision::Admit => {
            // The admit stamp is taken *before* the submit fans the batch
            // out, so the shard's Queue event (recorded after it receives
            // the command) can never precede it.
            let admit_wall = clock::wall_us_now();
            let id = st.host.submit(tuples);
            // Accept is back-filled with the frame-receipt instant now
            // that admission has assigned the span id.
            st.journal.record_at(
                id,
                SpanStage::Accept,
                clock::wall_us_of(received),
                0,
                NO_SHARD,
                n_tuples,
            );
            st.journal
                .record_at(id, SpanStage::Admit, admit_wall, 0, NO_SHARD, n_tuples);
            conn.shared.pending.fetch_add(1, Ordering::AcqRel);
            st.waiters.insert(
                id,
                Waiter {
                    conn: Arc::clone(&conn.shared),
                    app,
                    seq,
                    received,
                },
            );
            None
        }
        AdmissionDecision::Defer => {
            let wait = st.admission.config().defer_wait;
            drop(st);
            Some(ParkedSubmit {
                app,
                seq,
                tuples,
                attempt: attempt + 1,
                due: Instant::now() + wait,
                received,
            })
        }
        AdmissionDecision::Shed => {
            st.host.record_shed(n_tuples);
            // Shed batches never got a cluster id; their span is the
            // client seq with the top bit set, which cannot collide with
            // real batch ids.
            let span = seq | 1 << 63;
            st.journal.record_at(
                span,
                SpanStage::Accept,
                clock::wall_us_of(received),
                0,
                NO_SHARD,
                n_tuples,
            );
            st.journal
                .record(span, SpanStage::Shed, 0, NO_SHARD, n_tuples);
            let reply = Response::Overloaded {
                queue_depth: depth,
                watermark: st.admission.config().max_queue_tuples,
            };
            drop(st);
            conn.shared.push_frame(&reply.into_frame(app, seq));
            None
        }
    }
}

fn refuse_shutting_down(conn: &Conn, app: u16, seq: u64) {
    conn.shared.push_frame(
        &Response::Error {
            code: error_code::SHUTTING_DOWN,
            message: "server shutting down".to_owned(),
        }
        .into_frame(app, seq),
    );
}

/// Flushes the outbox until empty or the socket would block.
fn flush(conn: &mut Conn) -> std::io::Result<()> {
    let mut out = conn.shared.out.lock().expect("outbox poisoned");
    while out.pos < out.buf.len() {
        match conn.stream.write(&out.buf[out.pos..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => out.pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if out.pos == out.buf.len() {
        out.buf.clear();
        out.pos = 0;
    } else if out.pos > 64 * 1024 {
        // Reclaim the written prefix without stalling a slow drain.
        let pos = out.pos;
        out.buf.drain(..pos);
        out.pos = 0;
    }
    Ok(())
}

/// Whether the connection's state machine has reached its end.
fn should_close(conn: &Conn) -> bool {
    match conn.phase {
        ConnPhase::Open => false,
        ConnPhase::Closing => conn.shared.queued_bytes() == 0,
        // Order matters: `pending` and `service_blocked` are read before
        // the outbox, so a completion pushed-then-decremented elsewhere is
        // either seen as pending or as queued bytes — never missed.
        ConnPhase::WriteOnly => {
            conn.shared.pending.load(Ordering::Acquire) == 0
                && !conn.shared.service_blocked.load(Ordering::Acquire)
                && conn.parked.is_none()
                && !conn.has_input()
                && conn.shared.queued_bytes() == 0
        }
    }
}
