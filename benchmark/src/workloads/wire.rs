//! `wire_closed` and `wire_paced_ha`: a HISTO cluster behind a real
//! `WireServer`, loaded over the benchmark's own `TcpStream` with the
//! public frame codec — not `run_load`, so the load cannot change by
//! editing the client.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use datagen::{Tuple, ZipfGenerator};
use ditto_apps::HistoApp;
use ditto_core::{ArchConfig, PersistentPipeline};
use ditto_obs::{decode_snapshot, MetricValue, MetricsSnapshot, SpanEvent, SpanStage};
use ditto_serve::{RoutingTable, ServeConfig, ShardFault, SharedQueue};
use ditto_wire::frame::{metrics_format, Frame, Request, Response};
use ditto_wire::{app_id, AppRegistry, Backend, WireApp, WireServer, WireServerConfig};

use super::{fold_hash, LayerValues, Rep, Scale};
use crate::host::{last_injected_kill, process_cpu_seconds};
use crate::span::Spans;
use crate::stats::{median, percentile};

const APP: u16 = app_id::HISTO;
/// Frames in flight in every closed loop (warm-up, `wire_closed`, ladder).
pub const WINDOW: usize = 8;
pub const KEY_UNIVERSE: u64 = 1 << 18;
pub const ZIPF_ALPHA: f64 = 1.0;
/// Timed tuples every repetition replays through the engines alone for
/// its simulated counts.
const SIMULATED_TUPLES: usize = 200_000;
/// Journal capacity of the traced repetition: no stage event is evicted.
const TRACE_CAPACITY: usize = 1 << 17;
/// A reply this late means the server is wedged; fail the repetition
/// instead of hanging the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Sequence numbers of control requests, clear of every frame index.
const CONTROL_SEQ: u64 = 1 << 40;

#[derive(Debug, Clone)]
pub struct Plan {
    /// Timed frames.
    pub frames: usize,
    /// Frames served before timing starts (part of set-up).
    pub warm: usize,
    pub frame_tuples: usize,
    pub shards: usize,
    /// `Some(n)`: an `HaCluster` with `n` followers per shard.
    pub replicas: Option<usize>,
    /// Kill shard 1's leader after it served this many sub-batches.
    pub kill_after: Option<u64>,
    /// `Some(rate)`: open loop at this many frames a second.
    pub frames_per_s: Option<f64>,
}

impl Plan {
    pub fn closed(scale: Scale) -> Plan {
        Plan {
            frames: scale.of(4_000, 16) as usize,
            warm: scale.of(200, WINDOW as u64) as usize,
            frame_tuples: 1_000,
            shards: 1,
            replicas: None,
            kill_after: None,
            frames_per_s: None,
        }
    }

    /// 300 000 tuples/s in 200-tuple frames keeps the one CPU a measuring
    /// process runs on ≈ 45 % busy; the leader of shard 1 dies two ninths
    /// into the schedule.
    /// The rate shrinks with the size, so a smoke run lasts as long and an
    /// unoptimised build can keep up.
    pub fn paced_ha(scale: Scale) -> Plan {
        let frames = scale.of(2_700, 32);
        let warm = scale.of(500, WINDOW as u64);
        Plan {
            frames: frames as usize,
            warm: warm as usize,
            frame_tuples: 200,
            shards: 2,
            replicas: Some(1),
            kill_after: Some(warm + frames * 2 / 9),
            frames_per_s: Some(1_500.0 / scale.0 as f64),
        }
    }

    fn total_frames(&self) -> usize {
        self.warm + self.frames
    }

    pub fn serve_config(&self, traced: bool) -> ServeConfig {
        let mut config = ServeConfig::new(self.shards, arch());
        if let Some(after_batches) = self.kill_after {
            config = config.with_fault(ShardFault {
                shard: 1,
                after_batches,
            });
        }
        if traced {
            config = config.with_journal_capacity(TRACE_CAPACITY);
        }
        config
    }

    fn server_config(traced: bool) -> WireServerConfig {
        let config = WireServerConfig::new()
            .with_backend(Backend::Epoll)
            .with_io_threads(1);
        if traced {
            config.with_trace_capacity(TRACE_CAPACITY)
        } else {
            config
        }
    }

    pub fn config_json(&self) -> String {
        let serve = self.serve_config(false);
        let server = Self::server_config(false);
        let fault = serve.fault.map_or("null".to_owned(), |f| {
            format!(
                "{{\"shard\": {}, \"after_batches\": {}}}",
                f.shard, f.after_batches
            )
        });
        format!(
            "{{\"app\": \"HISTO\", \"bins\": {}, \"arch\": \"{}\", \"n_pre\": {}, \"frames\": {}, \"warm_frames\": {}, \
             \"frame_tuples\": {}, \"loop\": \"{}\", \"window\": {WINDOW}, \"frames_per_s\": {}, \"connections\": 1, \
             \"zipf_alpha\": {ZIPF_ALPHA}, \"key_universe\": {KEY_UNIVERSE}, \
             \"serve\": {{\"shards\": {}, \"slots\": {}, \"cycles_per_poll\": {}, \"ingress_rate\": {}, \
             \"journal_capacity\": {}, \"balancer\": {}, \"replicas\": {}, \"fault\": {fault}}}, \
             \"server\": {{\"backend\": \"{}\", \"io_threads\": {}, \"pump_interval_us\": {}, \"trace_capacity\": {}, \
             \"max_queue_tuples\": {}, \"write_buf_bytes\": {}}}}}",
            app().bins(),
            serve.arch.label(),
            serve.arch.n_pre,
            self.frames,
            self.warm,
            self.frame_tuples,
            if self.frames_per_s.is_some() { "open" } else { "closed" },
            self.frames_per_s.unwrap_or(0.0),
            serve.shards,
            serve.slots,
            serve.cycles_per_poll,
            serve.ingress_rate,
            serve.journal_capacity,
            serve.balancer.is_some(),
            self.replicas.unwrap_or(0),
            server.backend.label(),
            server.io_threads,
            server.pump_interval.as_micros(),
            server.trace_capacity,
            server.admission.max_queue_tuples,
            server.write_buf_bytes,
        )
    }
}

pub fn app() -> HistoApp {
    HistoApp::new(1_024, 8)
}

pub fn arch() -> ArchConfig {
    ArchConfig::new(4, 8, 7).with_pe_entries(app().pe_entries())
}

/// The generated tuples and their Submit frames, encoded once in set-up
/// so the load generator only writes bytes while the clock runs.
pub struct Load {
    pub data: Vec<Tuple>,
    pub frames: Vec<Vec<u8>>,
}

impl Load {
    pub fn generate(plan: &Plan, seed: u64, spans: &mut Spans) -> (Load, Duration, Duration) {
        let tuples = plan.total_frames() * plan.frame_tuples;
        let (data, generate) = spans.scope("datagen", "zipf_take_vec", None, |_| {
            ZipfGenerator::new(ZIPF_ALPHA, KEY_UNIVERSE, seed).take_vec(tuples)
        });
        let (frames, encode) = spans.scope("wire", "encode_frames", None, |_| {
            data.chunks(plan.frame_tuples)
                .enumerate()
                .map(|(seq, chunk)| {
                    Request::Submit {
                        tuples: chunk.to_vec(),
                    }
                    .into_frame(APP, seq as u64)
                    .to_bytes()
                })
                .collect()
        });
        (Load { data, frames }, generate, encode)
    }
}

/// What [`engines_only`] counted and how long it took.
pub struct EnginesOnly {
    /// The slowest shard's wall time.
    pub slowest: Duration,
    /// All shards' wall time, one after the other.
    pub busy: Duration,
    pub cycles: u64,
    pub kernel_steps: u64,
    pub tuples: u64,
    pub channel_pushes: u64,
    pub channel_full_stalls: u64,
    pub ff_cycles_skipped: u64,
}

/// Replays `batches` through the plan's engines alone: one
/// `PersistentPipeline` per shard, fed the sub-batches the cluster's
/// router would hand that shard, `WINDOW` of them queued ahead, stepped in
/// the polls a shard thread uses. Served shards poll by the wall clock, so
/// their own cycle counters do not repeat; these do, exactly.
pub fn engines_only(plan: &Plan, batches: &[Vec<Tuple>], spans: &mut Spans) -> EnginesOnly {
    let serve = plan.serve_config(false);
    let mut router = RoutingTable::new(serve.shards, serve.slots);
    let mut per_shard: Vec<Vec<Vec<Tuple>>> = vec![Vec::new(); serve.shards];
    for batch in batches {
        for (shard, part) in router.split(batch.clone()).into_iter().enumerate() {
            per_shard[shard].push(part);
        }
    }
    let mut replay = EnginesOnly {
        slowest: Duration::ZERO,
        busy: Duration::ZERO,
        cycles: 0,
        kernel_steps: 0,
        tuples: 0,
        channel_pushes: 0,
        channel_full_stalls: 0,
        ff_cycles_skipped: 0,
    };
    for (shard, parts) in per_shard.iter().enumerate() {
        let queue = SharedQueue::new();
        let source = Box::new(queue.source(serve.ingress_rate));
        let mut pipeline = PersistentPipeline::new(app(), source, serve.arch_for(shard));
        let (_, took) = spans.scope("hls-sim", "engines_only_shard", Some(shard as u64), |_| {
            let mut watermarks = Vec::with_capacity(parts.len());
            let mut enqueued = 0u64;
            for done in 0..parts.len() {
                while watermarks.len() < parts.len() && watermarks.len() - done < WINDOW {
                    let part = &parts[watermarks.len()];
                    queue.push_batch(part);
                    enqueued += part.len() as u64;
                    watermarks.push(enqueued);
                }
                while pipeline.processed() < watermarks[done] {
                    pipeline.step_cycles(serve.cycles_per_poll);
                }
            }
        });
        let snapshot = pipeline.snapshot();
        let channels = pipeline.engine().context().channel_aggregate();
        replay.cycles += snapshot.cycles;
        replay.kernel_steps += snapshot.kernel_steps;
        replay.tuples += snapshot.tuples;
        replay.channel_pushes += channels.pushes;
        replay.channel_full_stalls += channels.full_stalls;
        replay.ff_cycles_skipped += pipeline.engine().ff_cycles_skipped();
        replay.slowest = replay.slowest.max(took);
        replay.busy += took;
    }
    replay
}

/// The benchmark's own client: one blocking connection, frames out,
/// frames in.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let connect = || -> std::io::Result<Client> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
            Ok(Client {
                reader: BufReader::new(stream.try_clone()?),
                writer: stream,
            })
        };
        connect().map_err(|e| format!("connect: {e}"))
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.writer
            .write_all(bytes)
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<(u64, Response), String> {
        match Frame::read_from(&mut self.reader) {
            Ok(Some(frame)) => Response::decode(&frame)
                .map(|response| (frame.seq, response))
                .map_err(|e| format!("undecodable reply: {e}")),
            Ok(None) => Err("server closed the connection".to_owned()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// One synchronous control round trip (no submits may be in flight).
    fn call(&mut self, request: Request, seq: u64) -> Result<Response, String> {
        self.send(&request.into_frame(APP, seq).to_bytes())?;
        let (echoed, response) = self.recv()?;
        if echoed != seq {
            return Err(format!("reply {echoed} to control request {seq}"));
        }
        Ok(response)
    }
}

/// One frame's round trip as the client saw it.
struct Reply {
    index: usize,
    /// Closed loop: the send instant. Open loop: the instant it was due.
    from: Instant,
    received: Instant,
    response: Response,
}

/// Closed loop over `frames[range]`: `WINDOW` in flight, the next frame
/// goes out when a reply comes in.
fn closed_loop(
    client: &mut Client,
    frames: &[Vec<u8>],
    range: Range<usize>,
) -> Result<Vec<Reply>, String> {
    let mut sent_at: Vec<Option<Instant>> = vec![None; range.len()];
    let mut replies = Vec::with_capacity(range.len());
    let mut next = range.start;
    while replies.len() < range.len() {
        while next < range.end && next - range.start - replies.len() < WINDOW {
            sent_at[next - range.start] = Some(Instant::now());
            client.send(&frames[next])?;
            next += 1;
        }
        let (seq, response) = client.recv()?;
        let received = Instant::now();
        let index = seq as usize;
        let from = index
            .checked_sub(range.start)
            .and_then(|i| sent_at.get_mut(i))
            .and_then(Option::take)
            .ok_or_else(|| format!("reply to frame {seq}, which is not in flight"))?;
        replies.push(Reply {
            index,
            from,
            received,
            response,
        });
    }
    Ok(replies)
}

struct PacedRun {
    replies: Vec<Reply>,
    /// `(frame, write start, write end)` on the sender thread.
    sends: Vec<(usize, Instant, Instant)>,
    /// How late each frame left, microseconds.
    lateness_us: Vec<f64>,
    /// The fewest frames sent but unanswered at any send in the last
    /// twentieth of the schedule. An unsustained rate keeps a backlog all
    /// the way through that tail; one host stall near the end does not.
    backlog: u64,
}

/// Open loop over `frames[range]`: a sender thread sleeps to each frame's
/// due time and writes it, whatever the server does; this thread stamps
/// replies. Latency counts from the due time, so a stall is charged to
/// every frame it delays.
fn paced_loop(
    client: &mut Client,
    frames: &[Vec<u8>],
    range: Range<usize>,
    frames_per_s: f64,
) -> Result<PacedRun, String> {
    let mut writer = client
        .writer
        .try_clone()
        .map_err(|e| format!("clone socket: {e}"))?;
    let start = Instant::now() + Duration::from_millis(2);
    let due =
        |index: usize| start + Duration::from_secs_f64((index - range.start) as f64 / frames_per_s);
    let received = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> Result<_, String> {
            let mut sends = Vec::with_capacity(range.len());
            let mut lateness_us = Vec::with_capacity(range.len());
            let tail = range.end - (range.len() / 20).max(1);
            let mut backlog = u64::MAX;
            for index in range.clone() {
                let wait = due(index).saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                let begin = Instant::now();
                writer
                    .write_all(&frames[index])
                    .map_err(|e| format!("send: {e}"))?;
                sends.push((index, begin, Instant::now()));
                lateness_us.push(begin.saturating_duration_since(due(index)).as_secs_f64() * 1e6);
                if index >= tail {
                    let sent = (index + 1 - range.start) as u64;
                    backlog = backlog.min(sent - received.load(Ordering::Relaxed));
                }
            }
            Ok((sends, lateness_us, backlog))
        });
        let mut replies = Vec::with_capacity(range.len());
        let mut failure = None;
        while replies.len() < range.len() {
            match client.recv() {
                Ok((seq, response)) => {
                    let stamped = Instant::now();
                    received.fetch_add(1, Ordering::Relaxed);
                    let index = seq as usize;
                    if !range.contains(&index) {
                        failure = Some(format!("reply to frame {seq}, which was never sent"));
                        break;
                    }
                    replies.push(Reply {
                        index,
                        from: due(index),
                        received: stamped,
                        response,
                    });
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        let sent = sender
            .join()
            .map_err(|_| "sender thread panicked".to_owned())?;
        if let Some(e) = failure {
            return Err(e);
        }
        let (sends, lateness_us, backlog) = sent?;
        Ok(PacedRun {
            replies,
            sends,
            lateness_us,
            backlog,
        })
    })
}

/// What the traced repetition asks the server before `Finalize` tears the
/// measured cluster down.
struct ServerView {
    events: Vec<SpanEvent>,
    metrics: MetricsSnapshot,
    queue_depth_peak: u64,
    batches_shed: u64,
    metrics_dump: Duration,
}

fn server_view(
    client: &mut Client,
    server: &WireServer,
    spans: &mut Spans,
) -> Result<ServerView, String> {
    let stats = match client.call(Request::Stats, CONTROL_SEQ + 1)? {
        Response::Stats(stats) => stats,
        other => return Err(format!("Stats answered with {other:?}")),
    };
    let (reply, metrics_dump) = spans.scope("obs", "metrics_dump", None, |_| {
        client.call(
            Request::Metrics {
                format: metrics_format::BINARY,
            },
            CONTROL_SEQ + 2,
        )
    });
    let metrics = match reply? {
        Response::MetricsDump { body, .. } => decode_snapshot(&body)?,
        other => return Err(format!("Metrics answered with {other:?}")),
    };
    let (events, _) = spans.scope("wire", "take_trace_events", None, |_| {
        server.take_trace_events()
    });
    Ok(ServerView {
        events,
        metrics,
        queue_depth_peak: stats.queue_depth_peak,
        batches_shed: stats.batches_shed,
        metrics_dump,
    })
}

/// Median ping round trip over the warmed connection, microseconds.
fn ping_rtt_us(client: &mut Client, spans: &mut Spans) -> Result<f64, String> {
    let mut rtts = Vec::with_capacity(200);
    for i in 0..200u64 {
        let (reply, took) = spans.scope("wire", "ping", Some(i), |_| {
            client.call(Request::Ping { echo: vec![0; 8] }, CONTROL_SEQ + 16 + i)
        });
        match reply? {
            Response::Pong { .. } => rtts.push(took.as_secs_f64() * 1e6),
            other => return Err(format!("Ping answered with {other:?}")),
        }
    }
    Ok(median(&rtts))
}

/// Builds the plan's cluster and binds a server over it on a loopback
/// port the OS picks. Returns the server with the two durations.
fn boot(
    plan: &Plan,
    traced: bool,
    spans: &mut Spans,
) -> Result<(WireServer, Duration, Duration), String> {
    let (registry, build) = spans.scope("serve", "cluster_new", None, |_| {
        let mut registry = AppRegistry::new();
        let config = plan.serve_config(traced);
        match plan.replicas {
            Some(replicas) => registry.register_replicated(APP, app(), config, replicas),
            None => registry.register(APP, app(), config),
        };
        registry
    });
    let (server, bind) = spans.scope("wire", "bind", None, |_| {
        WireServer::bind("127.0.0.1:0", registry, Plan::server_config(traced))
    });
    server
        .map(|server| (server, build, bind))
        .map_err(|e| format!("bind: {e}"))
}

/// The ladder's wire rung: the plan's server with shipped defaults, closed
/// loop over `frames[range]`. Returns the loop's wall time.
pub fn closed_replay(
    plan: &Plan,
    load: &Load,
    range: Range<usize>,
    spans: &mut Spans,
) -> Result<Duration, String> {
    let (server, _, _) = boot(plan, false, spans)?;
    let replayed = (|| {
        let mut client = Client::connect(server.local_addr())?;
        let started = Instant::now();
        let replies = closed_loop(&mut client, &load.frames, range)?;
        let wall = started.elapsed();
        match replies
            .iter()
            .find(|r| !matches!(r.response, Response::Done { .. }))
        {
            Some(bad) => Err(format!(
                "wire rung: frame {} answered with {:?}",
                bad.index, bad.response
            )),
            None => Ok(wall),
        }
    })();
    server.shutdown();
    replayed
}

/// Everything the load phase produced, before it is judged.
struct Served {
    setup: Duration,
    timed: Duration,
    cpu_s: f64,
    replies: Vec<Reply>,
    lateness_us: Vec<f64>,
    backlog: u64,
    output: Vec<u8>,
    view: Option<ServerView>,
}

fn serve_load(
    plan: &Plan,
    load: &Load,
    prepared: Duration,
    spans: &mut Spans,
    layer: &mut LayerValues,
) -> (Result<Served, String>, Duration) {
    let traced = spans.is_enabled();
    let (server, build, bind) = match boot(plan, traced, spans) {
        Ok(booted) => booted,
        Err(e) => return (Err(e), Duration::ZERO),
    };
    layer.insert("serve.build_us", build.as_secs_f64() * 1e6);
    layer.insert("wire.bind_us", bind.as_secs_f64() * 1e6);

    let served = (|| -> Result<Served, String> {
        let (client, connect) = spans.scope("wire", "connect", None, |_| {
            Client::connect(server.local_addr())
        });
        let mut client = client?;
        let (warm, warm_up) = spans.scope("bench", "warm_up", None, |_| {
            closed_loop(&mut client, &load.frames, 0..plan.warm)
        });
        if let Some(bad) = warm?
            .iter()
            .find(|r| !matches!(r.response, Response::Done { .. }))
        {
            return Err(format!(
                "warm-up frame {} answered with {:?}",
                bad.index, bad.response
            ));
        }
        let setup = prepared + build + bind + connect + warm_up;
        if traced {
            layer.insert("wire.ping_rtt_us_p50", ping_rtt_us(&mut client, spans)?);
        }

        let range = plan.warm..plan.total_frames();
        let cpu_before = process_cpu_seconds();
        let started = Instant::now();
        let (run, _) = spans.scope("bench", "timed", None, |spans| -> Result<_, String> {
            let run = match plan.frames_per_s {
                None => PacedRun {
                    replies: closed_loop(&mut client, &load.frames, range.clone())?,
                    sends: Vec::new(),
                    lateness_us: Vec::new(),
                    backlog: 0,
                },
                Some(rate) => paced_loop(&mut client, &load.frames, range.clone(), rate)?,
            };
            for &(index, begin, end) in &run.sends {
                spans.record("wire", "send_frame", Some(index as u64), begin, end);
            }
            for reply in &run.replies {
                spans.record(
                    "wire",
                    "frame_round_trip",
                    Some(reply.index as u64),
                    reply.from,
                    reply.received,
                );
            }
            Ok(run)
        });
        let run = run?;
        let timed = run
            .replies
            .iter()
            .map(|r| r.received)
            .max()
            .unwrap_or(started)
            - started;
        let cpu_s = process_cpu_seconds() - cpu_before;

        let view = if traced {
            Some(server_view(&mut client, &server, spans)?)
        } else {
            None
        };
        let (reply, finalize) = spans.scope("serve", "finalize", None, |_| {
            client.call(Request::Finalize, CONTROL_SEQ)
        });
        layer.insert("serve.finish_us", finalize.as_secs_f64() * 1e6);
        let output = match reply? {
            Response::Output { bytes } => bytes,
            other => return Err(format!("Finalize answered with {other:?}")),
        };
        Ok(Served {
            setup,
            timed,
            cpu_s,
            replies: run.replies,
            lateness_us: run.lateness_us,
            backlog: run.backlog,
            output,
            view,
        })
    })();

    let (_, shutdown) = spans.scope("wire", "shutdown", None, |_| server.shutdown());
    (served, shutdown)
}

pub fn repetition(plan: &Plan, seed: u64, spans: &mut Spans) -> Rep {
    let (rep, _) = spans.scope("bench", "repetition", None, |spans| run(plan, seed, spans));
    rep
}

fn run(plan: &Plan, seed: u64, spans: &mut Spans) -> Rep {
    let mut layer = LayerValues::new();
    let (load, generate, encode) = Load::generate(plan, seed, spans);
    let reference = app().reference(&load.data);
    let tuples = load.data.len();
    layer.insert("datagen.tuples", tuples as f64);
    layer.insert(
        "datagen.ns_per_tuple",
        generate.as_secs_f64() * 1e9 / tuples as f64,
    );
    layer.insert(
        "wire.frame_encode_ns_per_tuple",
        encode.as_secs_f64() * 1e9 / tuples as f64,
    );
    let wire_bytes: usize = load.frames.iter().map(Vec::len).sum();
    layer.insert("wire.bytes_per_tuple", wire_bytes as f64 / tuples as f64);

    let (served, shutdown) = serve_load(plan, &load, generate + encode, spans, &mut layer);
    layer.insert("wire.shutdown_us", shutdown.as_secs_f64() * 1e6);
    let served = match served {
        Ok(served) => served,
        Err(problem) => return Rep::dead(plan.frames as u64, problem),
    };

    let mut batch_us = Vec::with_capacity(served.replies.len());
    let mut acked = 0u64;
    let mut failed = 0u64;
    for reply in &served.replies {
        match reply.response {
            Response::Done { tuples, .. } => {
                acked += tuples;
                batch_us.push((reply.received - reply.from).as_secs_f64() * 1e6);
            }
            _ => failed += 1,
        }
    }
    let error_frames = served
        .replies
        .iter()
        .filter(|r| matches!(r.response, Response::Error { .. }))
        .count();
    layer.insert("wire.error_frames", error_frames as f64);
    if !batch_us.is_empty() {
        layer.insert("wire.batch_latency_p99_us", percentile(&batch_us, 0.99));
        layer.insert("wire.batch_latency_max_us", percentile(&batch_us, 1.0));
    }
    if !served.lateness_us.is_empty() {
        layer.insert(
            "wire.sender_lateness_p99_us",
            percentile(&served.lateness_us, 0.99),
        );
    }
    if let Some(view) = &served.view {
        publish_server_view(view, plan, &served.replies, &mut layer);
    }
    // The kill of this repetition, if the panic hook saw one after the
    // schedule began: how long until a reply got through again.
    let began = served.replies.iter().map(|r| r.from).min();
    if let Some(killed) = last_injected_kill().filter(|k| began.is_some_and(|b| *k >= b)) {
        let first_done = served
            .replies
            .iter()
            .filter(|r| r.received > killed)
            .map(|r| r.received - killed)
            .min();
        if let Some(gap) = first_done {
            layer.insert("ha.kill_to_first_done_us", gap.as_secs_f64() * 1e6);
        }
    }

    // Part of the check, outside set-up and the timed region: what the
    // engines alone count on a prefix of the timed frames.
    let first = plan.warm * plan.frame_tuples;
    let replayed: Vec<Vec<Tuple>> = load.data[first..]
        .chunks(plan.frame_tuples)
        .take((SIMULATED_TUPLES / plan.frame_tuples).max(1))
        .map(<[Tuple]>::to_vec)
        .collect();
    let simulated = engines_only(plan, &replayed, spans);

    let output = app().decode_output(&served.output);
    let problem = if failed > 0 {
        Some(format!("{failed} frames not answered with Done"))
    } else if acked != (plan.frames * plan.frame_tuples) as u64 {
        Some(format!(
            "{acked} tuples acknowledged of {}",
            plan.frames * plan.frame_tuples
        ))
    } else if served.backlog > WINDOW as u64 {
        Some(format!(
            "rate not sustained: at least {} frames unanswered throughout the end of the schedule",
            served.backlog
        ))
    } else {
        match &output {
            Err(e) => Some(format!("undecodable output: {e}")),
            Ok(output) if *output != reference => {
                Some("output differs from the host reference".to_owned())
            }
            Ok(_) => None,
        }
    };

    Rep {
        setup_s: served.setup.as_secs_f64(),
        timed_s: served.timed.as_secs_f64(),
        cpu_s: served.cpu_s,
        tuples: acked,
        batch_us,
        attempted: plan.frames as u64,
        failed,
        problem,
        sim_tuples: simulated.tuples,
        sim_cycles: simulated.cycles,
        fingerprint: vec![
            acked,
            fold_hash(output.unwrap_or_default()),
            simulated.tuples,
            simulated.cycles,
            simulated.kernel_steps,
            simulated.channel_pushes,
            simulated.channel_full_stalls,
        ],
        layer,
    }
}

/// A batch's stage stamps, microseconds on the `ditto_obs` clock.
#[derive(Default)]
struct Stages {
    accept: Option<u64>,
    admit: Option<u64>,
    merge: Option<u64>,
    reply: Option<u64>,
    /// Per shard: queue, step, drain.
    shards: HashMap<u32, [Option<u64>; 3]>,
}

fn gap(from: Option<u64>, to: Option<u64>) -> Option<f64> {
    Some(to?.saturating_sub(from?) as f64)
}

/// Folds the journals' accept → admit → queue → step → drain → merge →
/// reply stamps of the timed frames into per-stage medians, and reads the
/// counters the server exports through `Stats` and `Metrics`.
fn publish_server_view(view: &ServerView, plan: &Plan, replies: &[Reply], layer: &mut LayerValues) {
    let mut batches: HashMap<u64, Stages> = HashMap::new();
    for e in &view.events {
        let stages = batches.entry(e.span).or_default();
        match e.stage {
            SpanStage::Accept => stages.accept = Some(e.wall_us),
            SpanStage::Admit => stages.admit = Some(e.wall_us),
            SpanStage::Merge => stages.merge = Some(e.wall_us),
            SpanStage::Reply => stages.reply = Some(e.wall_us),
            SpanStage::Queue => stages.shards.entry(e.shard).or_default()[0] = Some(e.wall_us),
            SpanStage::Step => stages.shards.entry(e.shard).or_default()[1] = Some(e.wall_us),
            SpanStage::Drain => stages.shards.entry(e.shard).or_default()[2] = Some(e.wall_us),
            SpanStage::Shed => {}
        }
    }
    // One connection, no sheds: frames are admitted in the order they were
    // sent, so the accepted batches sorted by accept time are the frames in
    // sequence order; the first `warm` are warm-up. Sub-batches an HA
    // promotion resubmits get ids without an Accept stamp and drop out.
    let mut accepted: Vec<&Stages> = batches.values().filter(|s| s.accept.is_some()).collect();
    accepted.sort_by_key(|s| s.accept);
    let timed = accepted.get(plan.warm..).unwrap_or(&[]);

    let mut accept_to_admit = Vec::new();
    let mut queue_wait = Vec::new();
    let mut step = Vec::new();
    let mut merge = Vec::new();
    let mut merge_to_reply = Vec::new();
    let mut sub_batches = 0usize;
    for stages in timed {
        accept_to_admit.extend(gap(stages.accept, stages.admit));
        merge_to_reply.extend(gap(stages.merge, stages.reply));
        sub_batches += stages.shards.len();
        for [queued, stepped, drained] in stages.shards.values() {
            queue_wait.extend(gap(*queued, *stepped));
            step.extend(gap(*stepped, *drained));
        }
        let last_drain = stages.shards.values().filter_map(|s| s[2]).max();
        merge.extend(gap(last_drain, stages.merge));
    }
    let p50 = |samples: &[f64]| {
        if samples.is_empty() {
            0.0
        } else {
            median(samples)
        }
    };
    layer.insert("wire.accept_to_admit_us_p50", p50(&accept_to_admit));
    layer.insert("serve.queue_wait_us_p50", p50(&queue_wait));
    layer.insert("serve.step_us_p50", p50(&step));
    layer.insert("serve.merge_us_p50", p50(&merge));
    layer.insert("wire.merge_to_reply_us_p50", p50(&merge_to_reply));
    layer.insert(
        "serve.sub_batches_per_batch",
        sub_batches as f64 / timed.len().max(1) as f64,
    );

    let mut server_wall = Vec::new();
    let mut client_minus_server = Vec::new();
    for reply in replies {
        if let Response::Done { wall_us, .. } = reply.response {
            server_wall.push(wall_us as f64);
            let client_us = (reply.received - reply.from).as_secs_f64() * 1e6;
            client_minus_server.push(client_us - wall_us as f64);
        }
    }
    layer.insert("wire.server_wall_us_p50", p50(&server_wall));
    layer.insert("wire.client_minus_server_us_p50", p50(&client_minus_server));

    let total = |name: &str| view.metrics.scalar(name).unwrap_or(0) as f64;
    layer.insert("serve.queue_depth_peak", view.queue_depth_peak as f64);
    layer.insert("wire.shed_batches", view.batches_shed as f64);
    layer.insert("obs.metrics_dump_us", view.metrics_dump.as_secs_f64() * 1e6);
    layer.insert(
        "obs.journal_events",
        total("ditto_wire_journal_events")
            + total("ditto_cluster_journal_events")
            + total("ditto_serve_journal_events"),
    );
    layer.insert(
        "obs.journal_evicted",
        total("ditto_wire_journal_evicted")
            + total("ditto_cluster_journal_evicted")
            + total("ditto_serve_journal_evicted"),
    );
    let per_shard: Vec<f64> = view
        .metrics
        .all("ditto_serve_tuples_total")
        .iter()
        .map(|e| e.value.scalar() as f64)
        .collect();
    let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
    let busiest = per_shard.iter().copied().fold(0.0, f64::max);
    layer.insert(
        "serve.shard_imbalance",
        if mean > 0.0 { busiest / mean } else { 0.0 },
    );
    layer.insert("ditto-core.reschedules", total("ditto_serve_reschedules"));
    layer.insert(
        "ditto-core.plans_generated",
        total("ditto_serve_plans_generated"),
    );
    layer.insert("ha.replicas", total("ditto_ha_replicas"));
    layer.insert("ha.promotions", total("ditto_ha_promotions"));
    let recovery = view
        .metrics
        .all("ditto_ha_recovery_us")
        .first()
        .map_or(0.0, |e| match &e.value {
            MetricValue::Histogram(h) if !h.is_empty() => h.max() as f64,
            _ => 0.0,
        });
    layer.insert("ha.recovery_us", recovery);
}

/// Nanoseconds per tuple of `Frame::decode` + `Request::decode` over a
/// sample of the encoded Submit frames — the server-side half of the codec.
pub fn decode_ns_per_tuple(load: &Load, spans: &mut Spans) -> f64 {
    let sample = &load.frames[..load.frames.len().min(500)];
    let (tuples, took) = spans.scope("wire", "decode_frames", None, |_| {
        let mut tuples = 0usize;
        for bytes in sample {
            let (frame, _) = Frame::decode(bytes).expect("own frame decodes");
            match Request::decode(&frame).expect("own request decodes") {
                Request::Submit { tuples: t } => tuples += std::hint::black_box(t).len(),
                _ => unreachable!("only Submit frames are encoded"),
            }
        }
        tuples
    });
    took.as_secs_f64() * 1e9 / tuples.max(1) as f64
}
