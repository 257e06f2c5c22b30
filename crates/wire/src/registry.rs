//! Hosted apps: output codecs, the type-erased cluster host and the
//! app-id registry a wire server serves from.
//!
//! A wire server multiplexes several applications over one socket; the
//! frame header's `app` field selects which. Each registered app owns one
//! live [`Cluster`] (its own shard threads, router and balancer) plus the
//! knowledge of how to put its `Output` on the wire — the [`WireApp`]
//! codec. Type erasure happens here, at batch granularity: the per-frame
//! hot path only ever sees `Vec<Tuple>` in and counters out, so the
//! `dyn` indirection costs one virtual call per *batch*, not per tuple.

use std::collections::HashMap;

use datagen::Tuple;
use ditto_apps::{DataPartitionApp, HhdApp, HistoApp, HllApp, PageRankApp};
use ditto_core::apps::CountPerKey;
use ditto_core::DittoApp;
use ditto_ha::HaCluster;
use ditto_obs::{MetricsSnapshot, SpanEvent};
use ditto_serve::{AdmissionSnapshot, BatchId, Cluster, CompletedBatch, Doorbell, ServeConfig};
use sketches::{Fixed, HyperLogLog};

use crate::admission::AdmissionConfig;
use crate::frame::{put_u32, put_u64, ByteReader, FrameError, WireStats};

/// Conventional app ids used by the examples, benches and tests. The
/// protocol itself treats ids as opaque — any `u16` a registry maps is
/// valid.
pub mod app_id {
    /// Equi-width histogram ([`HistoApp`](ditto_apps::HistoApp)).
    pub const HISTO: u16 = 1;
    /// Radix partitioning ([`DataPartitionApp`](ditto_apps::DataPartitionApp)).
    pub const DP: u16 = 2;
    /// Fixed-point PageRank ([`PageRankApp`](ditto_apps::PageRankApp)).
    pub const PR: u16 = 3;
    /// HyperLogLog ([`HllApp`](ditto_apps::HllApp)).
    pub const HLL: u16 = 4;
    /// Count-min heavy hitters ([`HhdApp`](ditto_apps::HhdApp)).
    pub const HHD: u16 = 5;
    /// Per-PE tuple counter ([`CountPerKey`](ditto_core::apps::CountPerKey)).
    pub const COUNT: u16 = 6;
}

/// A [`DittoApp`] that can be served over the wire: adds a lossless output
/// codec so a `Finalize` response can carry the result to the client.
///
/// Encode/decode are inverses (`decode(encode(x)) == x`) and decoding is
/// fuzz-resistant: corrupt bytes yield [`FrameError`], never a panic.
pub trait WireApp: DittoApp + Clone + Send + 'static {
    /// Appends the encoded output to `buf`.
    fn encode_output(&self, out: &Self::Output, buf: &mut Vec<u8>);

    /// Decodes an output previously produced by
    /// [`encode_output`](Self::encode_output).
    ///
    /// # Errors
    ///
    /// [`FrameError`] on truncated or malformed bytes.
    fn decode_output(&self, bytes: &[u8]) -> Result<Self::Output, FrameError>;
}

fn encode_u64s(values: &[u64], buf: &mut Vec<u8>) {
    put_u32(buf, values.len() as u32);
    for &v in values {
        put_u64(buf, v);
    }
}

fn decode_u64s(r: &mut ByteReader<'_>) -> Result<Vec<u64>, FrameError> {
    let len = r.u32()? as usize;
    r.expect_items(len, 8)?;
    (0..len).map(|_| r.u64()).collect()
}

fn encode_pairs(pairs: &[(u64, u64)], buf: &mut Vec<u8>) {
    put_u32(buf, pairs.len() as u32);
    for &(a, b) in pairs {
        put_u64(buf, a);
        put_u64(buf, b);
    }
}

fn decode_pairs(r: &mut ByteReader<'_>) -> Result<Vec<(u64, u64)>, FrameError> {
    let len = r.u32()? as usize;
    r.expect_items(len, 16)?;
    (0..len)
        .map(|_| Ok::<_, FrameError>((r.u64()?, r.u64()?)))
        .collect()
}

impl WireApp for HistoApp {
    fn encode_output(&self, out: &Vec<u64>, buf: &mut Vec<u8>) {
        encode_u64s(out, buf);
    }

    fn decode_output(&self, bytes: &[u8]) -> Result<Vec<u64>, FrameError> {
        let mut r = ByteReader::new(bytes);
        let out = decode_u64s(&mut r)?;
        r.finish()?;
        Ok(out)
    }
}

impl WireApp for CountPerKey {
    fn encode_output(&self, out: &Vec<u64>, buf: &mut Vec<u8>) {
        encode_u64s(out, buf);
    }

    fn decode_output(&self, bytes: &[u8]) -> Result<Vec<u64>, FrameError> {
        let mut r = ByteReader::new(bytes);
        let out = decode_u64s(&mut r)?;
        r.finish()?;
        Ok(out)
    }
}

impl WireApp for DataPartitionApp {
    fn encode_output(&self, out: &Vec<Vec<(u64, u64)>>, buf: &mut Vec<u8>) {
        put_u32(buf, out.len() as u32);
        for part in out {
            encode_pairs(part, buf);
        }
    }

    fn decode_output(&self, bytes: &[u8]) -> Result<Vec<Vec<(u64, u64)>>, FrameError> {
        let mut r = ByteReader::new(bytes);
        let parts = r.u32()? as usize;
        // Each partition needs at least its own length prefix.
        r.expect_items(parts, 4)?;
        let out = (0..parts)
            .map(|_| decode_pairs(&mut r))
            .collect::<Result<_, _>>()?;
        r.finish()?;
        Ok(out)
    }
}

impl WireApp for PageRankApp {
    fn encode_output(&self, out: &Vec<Fixed>, buf: &mut Vec<u8>) {
        put_u32(buf, out.len() as u32);
        for v in out {
            put_u64(buf, v.to_bits() as u64);
        }
    }

    fn decode_output(&self, bytes: &[u8]) -> Result<Vec<Fixed>, FrameError> {
        let mut r = ByteReader::new(bytes);
        let len = r.u32()? as usize;
        r.expect_items(len, 8)?;
        let out = (0..len)
            .map(|_| Ok::<_, FrameError>(Fixed::from_bits(r.u64()? as i64)))
            .collect::<Result<_, _>>()?;
        r.finish()?;
        Ok(out)
    }
}

impl WireApp for HllApp {
    fn encode_output(&self, out: &HyperLogLog, buf: &mut Vec<u8>) {
        put_u32(buf, out.precision());
        put_u32(buf, out.registers().len() as u32);
        buf.extend_from_slice(out.registers());
    }

    fn decode_output(&self, bytes: &[u8]) -> Result<HyperLogLog, FrameError> {
        let mut r = ByteReader::new(bytes);
        let precision = r.u32()?;
        if !(4..=18).contains(&precision) {
            return Err(FrameError::BadPayload("HLL precision out of range"));
        }
        let len = r.u32()? as usize;
        let mut hll = HyperLogLog::new(precision);
        if len != hll.register_count() {
            return Err(FrameError::BadPayload("HLL register count mismatch"));
        }
        let regs = r.bytes(len)?;
        for (idx, &rho) in regs.iter().enumerate() {
            hll.apply(idx, rho);
        }
        r.finish()?;
        Ok(hll)
    }
}

impl WireApp for HhdApp {
    fn encode_output(&self, out: &Vec<(u64, u64)>, buf: &mut Vec<u8>) {
        encode_pairs(out, buf);
    }

    fn decode_output(&self, bytes: &[u8]) -> Result<Vec<(u64, u64)>, FrameError> {
        let mut r = ByteReader::new(bytes);
        let out = decode_pairs(&mut r)?;
        r.finish()?;
        Ok(out)
    }
}

/// Type-erased hosted cluster: what the server's per-frame paths see. One
/// virtual call per batch; all tuple-granularity work stays inside the
/// concrete [`Cluster`].
pub(crate) trait HostedCluster: Send {
    /// Attaches the server's pump doorbell to every cluster this host runs,
    /// now and after each [`finalize`](Self::finalize) respawn.
    fn attach_doorbell(&mut self, bell: Doorbell);
    /// Admits a batch, returning its cluster batch id.
    fn submit(&mut self, tuples: Vec<Tuple>) -> BatchId;
    /// Background upkeep between frames: the server's pump calls this on
    /// every pass so a host can run supervision (failure detection,
    /// promotion) without blocking any client. The default does nothing.
    fn maintain(&mut self) {}
    /// Live cluster-wide queue depth in tuples (non-blocking).
    fn queue_depth(&mut self) -> u64;
    /// Records a shed batch of `tuples` tuples.
    fn record_shed(&mut self, tuples: u64);
    /// Takes completion records accumulated since the last call.
    fn take_completed(&mut self) -> Vec<CompletedBatch>;
    /// Serving statistics (non-blocking).
    fn stats(&mut self) -> WireStats;
    /// The merged observability registry (synchronous shard round-trip).
    fn metrics(&mut self) -> MetricsSnapshot;
    /// Drains every span journal (shards + cluster) into one flat list.
    fn take_journal(&mut self) -> Vec<SpanEvent>;
    /// Drains every in-flight batch, returning their completion records
    /// without tearing anything down.
    fn drain(&mut self) -> Vec<CompletedBatch>;
    /// Drains, merges and finalizes the current cluster, replacing it with
    /// a fresh one; returns the final completions and the encoded output.
    fn finalize(&mut self) -> (Vec<CompletedBatch>, Vec<u8>);
    /// Terminal teardown: drains, then shuts the shard threads down.
    /// Returns the final completions and statistics.
    fn shutdown(self: Box<Self>) -> (Vec<CompletedBatch>, WireStats);
}

fn wire_stats<A: DittoApp + Clone + 'static>(cluster: &mut Cluster<A>) -> WireStats {
    wire_stats_from(cluster.admission_snapshot())
}

fn wire_stats_from(a: AdmissionSnapshot) -> WireStats {
    WireStats {
        batches_submitted: a.batches_submitted,
        batches_completed: a.batches_completed,
        batches_shed: a.batches_shed,
        tuples_submitted: a.tuples_submitted,
        tuples_completed: a.tuples_completed,
        tuples_shed: a.tuples_shed,
        queue_depth: a.queue_depth,
        queue_depth_peak: a.queue_depth_peak,
        p50_cycles: a.latency_cycles.p50,
        p99_cycles: a.latency_cycles.p99,
        p50_wall_us: a.latency_wall_us.p50,
        p99_wall_us: a.latency_wall_us.p99,
        p999_cycles: a.latency_cycles.p999,
        p999_wall_us: a.latency_wall_us.p999,
    }
}

/// The concrete host: an app instance, its serve configuration and pump
/// doorbell (kept so `finalize` can respawn a fresh cluster) and the live
/// cluster. `prior` accumulates the counters of every finalized epoch, so
/// lifetime statistics stay monotonic across `Finalize` round-trips
/// (latency percentiles and queue depth are per-epoch and reset).
struct Host<A: WireApp> {
    app: A,
    config: ServeConfig,
    doorbell: Option<Doorbell>,
    cluster: Cluster<A>,
    prior: WireStats,
}

/// Folds a finished epoch's counters under the current epoch's live view.
fn fold_stats(prior: &WireStats, cur: WireStats) -> WireStats {
    WireStats {
        batches_submitted: prior.batches_submitted + cur.batches_submitted,
        batches_completed: prior.batches_completed + cur.batches_completed,
        batches_shed: prior.batches_shed + cur.batches_shed,
        tuples_submitted: prior.tuples_submitted + cur.tuples_submitted,
        tuples_completed: prior.tuples_completed + cur.tuples_completed,
        tuples_shed: prior.tuples_shed + cur.tuples_shed,
        queue_depth: cur.queue_depth,
        queue_depth_peak: prior.queue_depth_peak.max(cur.queue_depth_peak),
        ..cur
    }
}

impl<A: WireApp> HostedCluster for Host<A> {
    fn attach_doorbell(&mut self, bell: Doorbell) {
        self.cluster.attach_doorbell(bell.clone());
        self.doorbell = Some(bell);
    }

    fn submit(&mut self, tuples: Vec<Tuple>) -> BatchId {
        self.cluster.submit(tuples)
    }

    fn queue_depth(&mut self) -> u64 {
        self.cluster.queue_depth()
    }

    fn record_shed(&mut self, tuples: u64) {
        self.cluster.record_shed(tuples);
    }

    fn take_completed(&mut self) -> Vec<CompletedBatch> {
        self.cluster.take_completed()
    }

    fn stats(&mut self) -> WireStats {
        fold_stats(&self.prior, wire_stats(&mut self.cluster))
    }

    fn metrics(&mut self) -> MetricsSnapshot {
        self.cluster.metrics()
    }

    fn take_journal(&mut self) -> Vec<SpanEvent> {
        self.cluster.take_journal()
    }

    fn drain(&mut self) -> Vec<CompletedBatch> {
        self.cluster.drain();
        self.cluster.take_completed()
    }

    fn finalize(&mut self) -> (Vec<CompletedBatch>, Vec<u8>) {
        let fresh = Cluster::new(self.app.clone(), &self.config);
        if let Some(bell) = &self.doorbell {
            fresh.attach_doorbell(bell.clone());
        }
        let mut old = std::mem::replace(&mut self.cluster, fresh);
        old.drain();
        let completed = old.take_completed();
        self.prior = fold_stats(&self.prior, wire_stats(&mut old));
        let outcome = old.finish();
        let mut bytes = Vec::new();
        self.app.encode_output(&outcome.output, &mut bytes);
        (completed, bytes)
    }

    fn shutdown(self: Box<Self>) -> (Vec<CompletedBatch>, WireStats) {
        let Host {
            mut cluster, prior, ..
        } = *self;
        cluster.drain();
        let completed = cluster.take_completed();
        let stats = fold_stats(&prior, wire_stats(&mut cluster));
        let _ = cluster.finish();
        (completed, stats)
    }
}

/// A replicated host: the same surface as [`Host`], but the cluster is an
/// [`HaCluster`] — every shard shadowed by follower replicas, with the
/// pump-driven [`maintain`](HostedCluster::maintain) hook running failure
/// detection and promotion between frames. A shard thread dying mid-run is
/// invisible to connected clients beyond the recovery pause: in-flight
/// batches resolve from the promoted replica and later frames route to the
/// inheritor.
struct HaHost<A: WireApp>
where
    A::State: Clone,
{
    app: A,
    config: ServeConfig,
    replicas: usize,
    doorbell: Option<Doorbell>,
    cluster: HaCluster<A>,
    prior: WireStats,
}

impl<A: WireApp> HostedCluster for HaHost<A>
where
    A::State: Clone,
{
    fn attach_doorbell(&mut self, bell: Doorbell) {
        self.cluster.attach_doorbell(bell.clone());
        self.doorbell = Some(bell);
    }

    fn submit(&mut self, tuples: Vec<Tuple>) -> BatchId {
        self.cluster.submit(tuples)
    }

    fn maintain(&mut self) {
        self.cluster.heal();
    }

    fn queue_depth(&mut self) -> u64 {
        self.cluster.queue_depth()
    }

    fn record_shed(&mut self, tuples: u64) {
        self.cluster.record_shed(tuples);
    }

    fn take_completed(&mut self) -> Vec<CompletedBatch> {
        self.cluster.take_completed()
    }

    fn stats(&mut self) -> WireStats {
        fold_stats(
            &self.prior,
            wire_stats_from(self.cluster.admission_snapshot()),
        )
    }

    fn metrics(&mut self) -> MetricsSnapshot {
        self.cluster.metrics()
    }

    fn take_journal(&mut self) -> Vec<SpanEvent> {
        self.cluster.take_journal()
    }

    fn drain(&mut self) -> Vec<CompletedBatch> {
        self.cluster.drain();
        self.cluster.take_completed()
    }

    fn finalize(&mut self) -> (Vec<CompletedBatch>, Vec<u8>) {
        let fresh = HaCluster::new(self.app.clone(), &self.config, self.replicas);
        if let Some(bell) = &self.doorbell {
            fresh.attach_doorbell(bell.clone());
        }
        let mut old = std::mem::replace(&mut self.cluster, fresh);
        old.drain();
        let completed = old.take_completed();
        self.prior = fold_stats(&self.prior, wire_stats_from(old.admission_snapshot()));
        let outcome = old.finish();
        let mut bytes = Vec::new();
        self.app.encode_output(&outcome.output, &mut bytes);
        (completed, bytes)
    }

    fn shutdown(self: Box<Self>) -> (Vec<CompletedBatch>, WireStats) {
        let HaHost {
            mut cluster, prior, ..
        } = *self;
        cluster.heal();
        cluster.drain();
        let completed = cluster.take_completed();
        let stats = fold_stats(&prior, wire_stats_from(cluster.admission_snapshot()));
        let _ = cluster.finish();
        (completed, stats)
    }
}

/// The apps a wire server hosts, keyed by the frame header's app id.
///
/// # Example
///
/// ```
/// use ditto_wire::{app_id, AppRegistry};
/// use ditto_core::apps::CountPerKey;
/// use ditto_core::ArchConfig;
/// use ditto_serve::ServeConfig;
///
/// let mut registry = AppRegistry::new();
/// registry.register(
///     app_id::COUNT,
///     CountPerKey::new(4),
///     ServeConfig::new(1, ArchConfig::new(2, 4, 1)),
/// );
/// ```
#[derive(Default)]
pub struct AppRegistry {
    pub(crate) apps: HashMap<u16, Box<dyn HostedCluster>>,
    /// Per-app admission overrides; apps without an entry use the server's
    /// [`WireServerConfig`](crate::WireServerConfig) admission policy.
    pub(crate) admissions: HashMap<u16, AdmissionConfig>,
    /// Per-app auth tokens riding the frame header's former reserved bits;
    /// apps without an entry (or with token 0) accept any client.
    pub(crate) tokens: HashMap<u16, u16>,
}

impl AppRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        AppRegistry::default()
    }

    /// Registers `app` under `id`, booting its cluster (shard threads
    /// start serving immediately).
    ///
    /// # Panics
    ///
    /// Panics if `id` is already registered.
    pub fn register<A: WireApp>(&mut self, id: u16, app: A, config: ServeConfig) -> &mut Self {
        let cluster = Cluster::new(app.clone(), &config);
        let host = Host {
            app,
            config,
            doorbell: None,
            cluster,
            prior: WireStats::default(),
        };
        let prev = self.apps.insert(id, Box::new(host));
        assert!(prev.is_none(), "app id {id} registered twice");
        self
    }

    /// [`register`](Self::register) with N-way replication and automatic
    /// failure recovery: the app is hosted on an
    /// [`HaCluster`](ditto_ha::HaCluster) with `replicas` followers per
    /// shard, and the server's pump runs its supervisor between frames —
    /// a dying shard thread is promoted away without any client noticing
    /// more than the recovery pause.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already registered.
    pub fn register_replicated<A: WireApp>(
        &mut self,
        id: u16,
        app: A,
        config: ServeConfig,
        replicas: usize,
    ) -> &mut Self
    where
        A::State: Clone,
    {
        let cluster = HaCluster::new(app.clone(), &config, replicas);
        let host = HaHost {
            app,
            config,
            replicas,
            doorbell: None,
            cluster,
            prior: WireStats::default(),
        };
        let prev = self.apps.insert(id, Box::new(host));
        assert!(prev.is_none(), "app id {id} registered twice");
        self
    }

    /// [`register`](Self::register) with a per-app admission budget: this
    /// app's submits are evaluated against `admission` instead of the
    /// server-wide policy, so one noisy app sheds at its own watermark
    /// while the others keep serving under the default.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already registered.
    pub fn register_with_admission<A: WireApp>(
        &mut self,
        id: u16,
        app: A,
        config: ServeConfig,
        admission: AdmissionConfig,
    ) -> &mut Self {
        self.register(id, app, config);
        self.admissions.insert(id, admission);
        self
    }

    /// Requires clients of app `id` to present `token` in the frame
    /// header's auth field on `Submit` and `Finalize` — per-app tenancy on
    /// the former reserved bits. A mismatch is answered with a
    /// [`BAD_TOKEN`](crate::frame::error_code::BAD_TOKEN) error frame and
    /// the connection stays usable (read-mostly requests are unaffected).
    ///
    /// # Panics
    ///
    /// Panics if `token` is zero (the wire encoding of "no token") or `id`
    /// is not registered yet.
    pub fn set_token(&mut self, id: u16, token: u16) -> &mut Self {
        assert!(token != 0, "auth token 0 means \"none\" on the wire");
        assert!(
            self.apps.contains_key(&id),
            "set_token for unregistered app id {id}"
        );
        self.tokens.insert(id, token);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn output_codecs_roundtrip() {
        let histo = HistoApp::new(8, 4);
        let out = vec![1u64, 0, 99, u64::MAX];
        let mut buf = Vec::new();
        histo.encode_output(&out, &mut buf);
        assert_eq!(histo.decode_output(&buf).expect("roundtrip"), out);

        let dp = DataPartitionApp::new(4, 4);
        let out = vec![vec![(1u64, 2u64), (3, 4)], vec![], vec![(5, 6)]];
        let mut buf = Vec::new();
        dp.encode_output(&out, &mut buf);
        assert_eq!(dp.decode_output(&buf).expect("roundtrip"), out);

        let pr = PageRankApp::new(Arc::new(vec![Fixed::ONE; 4]), 4);
        let out = vec![Fixed::from_f64(0.25), Fixed::from_bits(-17), Fixed::ZERO];
        let mut buf = Vec::new();
        pr.encode_output(&out, &mut buf);
        assert_eq!(pr.decode_output(&buf).expect("roundtrip"), out);

        let hll_app = HllApp::new(6, 4);
        let mut hll = HyperLogLog::new(6);
        for k in 0..500u64 {
            hll.insert_hash(sketches::murmur3_u64(k, 11));
        }
        let mut buf = Vec::new();
        hll_app.encode_output(&hll, &mut buf);
        assert_eq!(hll_app.decode_output(&buf).expect("roundtrip"), hll);

        let hhd = HhdApp::new(2, 64, 10, 4);
        let out = vec![(7u64, 42u64), (1, 10)];
        let mut buf = Vec::new();
        hhd.encode_output(&out, &mut buf);
        assert_eq!(hhd.decode_output(&buf).expect("roundtrip"), out);
    }

    #[test]
    fn corrupt_outputs_are_rejected_without_panic() {
        let histo = HistoApp::new(8, 4);
        assert!(histo.decode_output(&[1, 2, 3]).is_err());
        let mut buf = Vec::new();
        histo.encode_output(&vec![5u64; 3], &mut buf);
        assert!(histo.decode_output(&buf[..buf.len() - 1]).is_err());
        buf.push(0);
        assert!(histo.decode_output(&buf).is_err(), "trailing byte");

        let hll = HllApp::new(6, 4);
        let mut bad = Vec::new();
        put_u32(&mut bad, 99); // precision way out of range
        put_u32(&mut bad, 0);
        assert!(hll.decode_output(&bad).is_err());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_ids_panic() {
        let mut registry = AppRegistry::new();
        let config = ServeConfig::new(1, ditto_core::ArchConfig::new(2, 4, 1));
        registry.register(1, CountPerKey::new(4), config.clone());
        registry.register(1, CountPerKey::new(4), config);
    }
}
