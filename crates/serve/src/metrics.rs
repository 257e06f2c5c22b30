//! Snapshotable serving metrics: per-shard counters and latency
//! distributions.
//!
//! [`LatencyStats`] is the cross-layer type from `ditto-obs`; the
//! cluster's live distributions are bounded-memory
//! [`LogHistogram`](ditto_obs::LogHistogram)s (an unbounded exact-sample
//! vector grows forever under sustained load).

pub use ditto_obs::LatencyStats;

/// One shard's live counters, as replied to a snapshot request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index within the cluster.
    pub shard: usize,
    /// Simulated cycles on this shard's clock.
    pub cycles: u64,
    /// Tuples processed by this shard's destination PEs.
    pub tuples: u64,
    /// Tuples admitted to this shard but not yet processed (queue depth).
    pub queue_depth: u64,
    /// Completed reschedules on this shard.
    pub reschedules: u64,
    /// Scheduling plans generated on this shard.
    pub plans_generated: u64,
    /// Per-destination-PE processed counts (`M + X` entries) — the live
    /// workload counters the balancer reads.
    pub per_pe_processed: Vec<u64>,
    /// Batches this shard finished serving.
    pub batches_completed: u64,
    /// Batches admitted to this shard and still in flight.
    pub batches_pending: usize,
}

impl ShardSnapshot {
    /// Average throughput on this shard in tuples per simulated cycle.
    pub fn tuples_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.tuples as f64 / self.cycles as f64
    }
}

/// The cluster-side admission counters, readable without a shard
/// round-trip — what a front-end polls on every admission decision.
///
/// Shed counters cover batches an admission layer *refused* (they never
/// entered the cluster); queue depth counts tuples admitted but not yet
/// part of a completed batch, aggregated cluster-wide.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionSnapshot {
    /// Batches admitted so far.
    pub batches_submitted: u64,
    /// Batches fully served so far.
    pub batches_completed: u64,
    /// Batches refused by an admission layer (load shedding).
    pub batches_shed: u64,
    /// Tuples admitted so far.
    pub tuples_submitted: u64,
    /// Tuples in completed batches.
    pub tuples_completed: u64,
    /// Tuples in shed batches.
    pub tuples_shed: u64,
    /// Tuples admitted but not yet in a completed batch (cluster-wide).
    pub queue_depth: u64,
    /// High-watermark of `queue_depth` over the cluster's lifetime,
    /// sampled at every admission.
    pub queue_depth_peak: u64,
    /// Batch latency distribution in simulated cycles.
    pub latency_cycles: LatencyStats,
    /// Batch latency distribution in wall-clock microseconds.
    pub latency_wall_us: LatencyStats,
}

/// A point-in-time view of the whole cluster.
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    /// Per-shard counters, indexed by shard.
    pub shards: Vec<ShardSnapshot>,
    /// Batches admitted so far.
    pub batches_submitted: u64,
    /// Batches fully served so far.
    pub batches_completed: u64,
    /// Batches refused by an admission layer (load shedding) — see
    /// [`Cluster::record_shed`](crate::Cluster::record_shed).
    pub batches_shed: u64,
    /// Tuples admitted so far.
    pub tuples_submitted: u64,
    /// Tuples in shed batches (never admitted).
    pub tuples_shed: u64,
    /// Tuples admitted but not yet in a completed batch, aggregated
    /// cluster-wide (the per-shard `queue_depth` covers only that shard's
    /// ingress queue).
    pub queue_depth: u64,
    /// High-watermark of the cluster-wide queue depth, sampled at every
    /// admission.
    pub queue_depth_peak: u64,
    /// Key-range migrations the balancer has applied.
    pub migrations: u64,
    /// Batch latency distribution in simulated cycles (worst shard per
    /// batch).
    pub latency_cycles: LatencyStats,
    /// Batch latency distribution in wall-clock microseconds.
    pub latency_wall_us: LatencyStats,
}

impl ClusterSnapshot {
    /// Tuples processed across all shards.
    pub fn tuples_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.tuples).sum()
    }

    /// Max/mean ratio of per-shard processed-tuple counts — 1.0 is a
    /// perfectly balanced cluster (the shard-level analogue of
    /// `ExecutionReport::imbalance`).
    pub fn shard_imbalance(&self) -> f64 {
        let total = self.tuples_processed();
        if total == 0 || self.shards.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.shards.len() as f64;
        let max = self.shards.iter().map(|s| s.tuples).max().unwrap_or(0) as f64;
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_imbalance_detects_hot_shard() {
        let shard = |i: usize, tuples: u64| ShardSnapshot {
            shard: i,
            cycles: 100,
            tuples,
            queue_depth: 0,
            reschedules: 0,
            plans_generated: 0,
            per_pe_processed: vec![],
            batches_completed: 0,
            batches_pending: 0,
        };
        let snap = ClusterSnapshot {
            shards: vec![shard(0, 900), shard(1, 50), shard(2, 50)],
            batches_submitted: 0,
            batches_completed: 0,
            batches_shed: 0,
            tuples_submitted: 0,
            tuples_shed: 0,
            queue_depth: 0,
            queue_depth_peak: 0,
            migrations: 0,
            latency_cycles: LatencyStats::empty(),
            latency_wall_us: LatencyStats::empty(),
        };
        assert!(snap.shard_imbalance() > 2.5);
        assert_eq!(snap.tuples_processed(), 1000);
    }
}
