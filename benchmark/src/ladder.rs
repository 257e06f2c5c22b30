//! The depth ladder: the same frames replayed at saturation (closed loop,
//! `WINDOW` in flight) through one more layer per rung — engines only,
//! served by a `Cluster`, replicated by an `HaCluster`, wire-served — so
//! the wall time a layer adds per batch is the difference of two rungs.
//!
//! The engine rung is [`wire::engines_only`], the replay every repetition
//! of a wire workload takes its simulated counts from; shards run one
//! after the other and the rung takes the slowest, the critical path had
//! they run side by side as the shard threads of the next rung do.

use std::time::{Duration, Instant};

use datagen::Tuple;
use ditto_core::DittoApp;
use ditto_ha::HaCluster;
use ditto_serve::{BatchId, Cluster, ClusterOutcome, CompletedBatch};

use crate::span::Spans;
use crate::stats::median;
use crate::workloads::wire::{self, Load, Plan, WINDOW};
use crate::workloads::LayerValues;

/// Tuples each rung replays.
const LADDER_TUPLES: usize = 1_000_000;

/// What a rung needs from the cluster it drives; `Cluster` and `HaCluster`
/// share the method names but no trait.
trait Served {
    fn submit(&mut self, tuples: Vec<Tuple>) -> BatchId;
    fn take_completed(&mut self) -> Vec<CompletedBatch>;
    /// What the wire server's pump does between polls.
    fn maintain(&mut self) {}
}

impl<A: DittoApp + Clone + 'static> Served for Cluster<A> {
    fn submit(&mut self, tuples: Vec<Tuple>) -> BatchId {
        Cluster::submit(self, tuples)
    }
    fn take_completed(&mut self) -> Vec<CompletedBatch> {
        Cluster::take_completed(self)
    }
}

impl<A: DittoApp + Clone + 'static> Served for HaCluster<A>
where
    A::State: Clone,
{
    fn submit(&mut self, tuples: Vec<Tuple>) -> BatchId {
        HaCluster::submit(self, tuples)
    }
    fn take_completed(&mut self) -> Vec<CompletedBatch> {
        HaCluster::take_completed(self)
    }
    fn maintain(&mut self) {
        self.heal();
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The engine rung: [`wire::engines_only`] over the ladder's batches.
/// Returns the rung's wall time and publishes the `hls-sim` counts.
fn engine_rung(
    plan: &Plan,
    batches: &[Vec<Tuple>],
    spans: &mut Spans,
    layer: &mut LayerValues,
) -> Duration {
    let replay = wire::engines_only(plan, batches, spans);
    let per = |n: u64| {
        if n == 0 {
            0.0
        } else {
            replay.busy.as_secs_f64() * 1e9 / n as f64
        }
    };
    layer.insert("hls-sim.cycles", replay.cycles as f64);
    layer.insert("hls-sim.kernel_steps", replay.kernel_steps as f64);
    layer.insert(
        "hls-sim.kernel_steps_per_tuple",
        replay.kernel_steps as f64 / replay.tuples.max(1) as f64,
    );
    layer.insert("hls-sim.ns_per_kernel_step", per(replay.kernel_steps));
    layer.insert("hls-sim.ns_per_cycle", per(replay.cycles));
    layer.insert("hls-sim.channel_pushes", replay.channel_pushes as f64);
    layer.insert(
        "hls-sim.channel_full_stalls",
        replay.channel_full_stalls as f64,
    );
    layer.insert(
        "hls-sim.full_stall_share",
        replay.channel_full_stalls as f64
            / (replay.channel_pushes + replay.channel_full_stalls).max(1) as f64,
    );
    layer.insert("hls-sim.ff_cycles_skipped", replay.ff_cycles_skipped as f64);
    replay.slowest
}

/// What one cluster rung measured.
struct ClusterRung {
    wall: Duration,
    submit_us: Vec<f64>,
}

/// Closed loop against an in-process cluster: submit while fewer than
/// `WINDOW` batches are out, poll completions as the wire pump would.
/// `sample` runs every sixteenth poll.
fn cluster_rung<C: Served>(
    cluster: &mut C,
    layer_name: &'static str,
    mut batches: Vec<Vec<Tuple>>,
    spans: &mut Spans,
    mut sample: impl FnMut(&mut C),
) -> ClusterRung {
    let started = Instant::now();
    let mut submit_us = Vec::with_capacity(batches.len());
    let (mut next, mut done, mut polls) = (0usize, 0usize, 0u64);
    while done < batches.len() {
        while next < batches.len() && next - done < WINDOW {
            let (_, took) = spans.scope(layer_name, "submit", Some(next as u64), |_| {
                cluster.submit(std::mem::take(&mut batches[next]))
            });
            submit_us.push(us(took));
            next += 1;
        }
        cluster.maintain();
        let completed = cluster.take_completed().len();
        done += completed;
        if completed == 0 {
            std::thread::sleep(Duration::from_micros(50));
        }
        polls += 1;
        if polls % 16 == 0 {
            sample(cluster);
        }
    }
    ClusterRung {
        wall: started.elapsed(),
        submit_us,
    }
}

fn check(rung: &str, outcome: &ClusterOutcome<Vec<u64>>, reference: &[u64]) -> Result<(), String> {
    if outcome.output == reference {
        Ok(())
    } else {
        Err(format!(
            "{rung} rung: output differs from the host reference"
        ))
    }
}

/// Replays the first `LADDER_TUPLES` of the timed frames down the ladder
/// and publishes each layer's `self_us_per_batch` with what the rungs saw
/// on the way.
pub fn climb(plan: &Plan, seed: u64, spans: &mut Spans) -> Result<LayerValues, String> {
    let mut layer = LayerValues::new();
    let (load, _, _) = Load::generate(plan, seed, &mut Spans::disabled());
    let count = plan.frames.min(LADDER_TUPLES / plan.frame_tuples).max(1);
    let first = plan.warm * plan.frame_tuples;
    let tuples = &load.data[first..first + count * plan.frame_tuples];
    let batches: Vec<Vec<Tuple>> = tuples
        .chunks(plan.frame_tuples)
        .map(<[Tuple]>::to_vec)
        .collect();
    let reference = wire::app().reference(tuples);
    let per_batch = |wall: Duration| us(wall) / count as f64;
    layer.insert(
        "wire.frame_decode_ns_per_tuple",
        wire::decode_ns_per_tuple(&load, spans),
    );

    let (engine, _) = spans.scope("bench", "ladder_engine", None, |spans| {
        engine_rung(plan, &batches, spans, &mut layer)
    });

    // The served rung is the plain cluster: no followers, nobody killed.
    let mut serve_config = plan.serve_config(false);
    serve_config.fault = None;
    let (served, _) = spans.scope("bench", "ladder_served", None, |spans| {
        let mut cluster = Cluster::new(wire::app(), &serve_config);
        let rung = cluster_rung(&mut cluster, "serve", batches.clone(), spans, |_| {});
        check("served", &cluster.finish(), &reference).map(|()| rung)
    });
    let served = served?;
    layer.insert("serve.submit_us_p50", median(&served.submit_us));
    layer.insert(
        "serve.self_us_per_batch",
        per_batch(served.wall) - per_batch(engine),
    );
    let mut below_wire = served.wall;

    if let Some(replicas) = plan.replicas {
        let (replicated, _) = spans.scope("bench", "ladder_replicated", None, |spans| {
            let mut cluster = HaCluster::new(wire::app(), &plan.serve_config(false), replicas);
            let mut lag_max = 0u64;
            let rung = cluster_rung(&mut cluster, "ha", batches.clone(), spans, |c| {
                lag_max = lag_max.max(c.replication_lag().into_iter().max().unwrap_or(0));
            });
            let logged: usize = (0..cluster.shards()).map(|s| cluster.log(s).len()).sum();
            check("replicated", &cluster.finish(), &reference).map(|()| (rung, lag_max, logged))
        });
        let (rung, lag_max, logged) = replicated?;
        layer.insert("ha.submit_us_p50", median(&rung.submit_us));
        layer.insert("ha.replication_lag_max", lag_max as f64);
        layer.insert("ha.log_batches", logged as f64);
        layer.insert(
            "ha.self_us_per_batch",
            per_batch(rung.wall) - per_batch(served.wall),
        );
        below_wire = rung.wall;
    }

    let range = plan.warm..plan.warm + count;
    let (wired, _) = spans.scope("bench", "ladder_wire", None, |spans| {
        wire::closed_replay(plan, &load, range, spans)
    });
    layer.insert(
        "wire.self_us_per_batch",
        per_batch(wired?) - per_batch(below_wire),
    );
    Ok(layer)
}
