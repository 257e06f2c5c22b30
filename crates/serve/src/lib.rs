//! # ditto-serve — sharded online serving over persistent pipeline shards
//!
//! The paper evaluates the skew-oblivious architecture offline (drain a
//! dataset, read the tables), but its defining property — robustness to
//! workload skew with online rescheduling — is a *serving* property. This
//! crate stands a serving deployment up in simulation:
//!
//! ```text
//!            submit(batch)                 ShardEvent (completions)
//! clients ────────────────► Cluster ◄─────────────────────────────┐
//!                             │ RoutingTable (key-hash slots)     │
//!              ┌──────────────┼──────────────┐                    │
//!              ▼              ▼              ▼                    │
//!         shard thread   shard thread   shard thread  ── events ──┘
//!         SharedQueue    SharedQueue    SharedQueue
//!              │              │              │
//!         Persistent     Persistent     Persistent
//!         Pipeline 0     Pipeline 1     Pipeline 2    (one simulated
//!              │              │              │          FPGA each)
//!              └──────────────┴──────────────┘
//!                     finish(): cross-shard state merge
//!                     (each shard = a super-SecPE) → finalize once
//! ```
//!
//! * [`Cluster`] — admission/batching front-end: splits tuple batches
//!   across shards by key-hash slot, tracks per-batch completion
//!   (watermarks on each shard's processed-tuple counter), and exposes
//!   snapshotable metrics — throughput, queue depth, p50/p99 batch latency
//!   in simulated cycles and wall time.
//! * [`Doorbell`] — attached to a cluster, every shard rings it right
//!   after streaming a completion or its death notice, so the thread that
//!   collects completions parks instead of polling.
//! * [`RoutingTable`] — hash-slot ownership; slots are the key-range
//!   migration unit.
//! * [`ShardBalancer`] — the paper's profiler loop lifted to cluster
//!   granularity: Equation 2 over live per-shard workload windows
//!   (via `ditto-core`'s [`SkewAnalyzer`]), smoothed by the
//!   [`StreamSkewPredictor`], migrating slots off hot shards. Intra-shard
//!   single-key skew stays the job of each shard's own SecPEs.
//! * Cross-shard **merge/finalize**: [`Cluster::finish`] folds every
//!   shard's PriPE buffers into shard 0's through the application's own
//!   `merge` (a shard is just a coarser SecPE), then finalizes once —
//!   which is why sharded results equal a single-engine
//!   [`run_dataset`](ditto_core::SkewObliviousPipeline::run_dataset): for
//!   decomposable merges (HISTO counts, HLL register max, HHD sketch sums,
//!   PR fixed-point adds) the fold commutes with processing order exactly;
//!   data partitioning agrees as per-partition multisets. One deliberate
//!   caveat: HHD's merged sketches are cell-for-cell identical to the
//!   single engine's, but *candidate detection* runs per shard — a key
//!   whose estimate clears the candidate threshold only through
//!   cross-shard CMS collision noise (true count below the per-PE
//!   candidate threshold) could be reported by the single engine and
//!   missed by the cluster. Keys whose true counts reach the candidate
//!   threshold are caught by both.
//!
//! [`SkewAnalyzer`]: ditto_core::SkewAnalyzer
//!
//! # Example
//!
//! ```
//! use ditto_serve::{Cluster, ServeConfig, split_into_batches};
//! use ditto_core::{ArchConfig, SkewObliviousPipeline};
//! use ditto_core::apps::CountPerKey;
//! use datagen::ZipfGenerator;
//!
//! let data = ZipfGenerator::new(1.5, 1 << 14, 3).take_vec(6_000);
//! let arch = ArchConfig::new(4, 8, 3);
//!
//! // Serve the dataset as 1k-tuple request batches over two shards.
//! let mut cluster = Cluster::new(CountPerKey::new(8), &ServeConfig::new(2, arch.clone()));
//! for batch in split_into_batches(&data, 1_000) {
//!     cluster.submit(batch);
//! }
//! cluster.drain();
//! let served = cluster.finish();
//!
//! // The sharded result equals the single-engine offline run.
//! let single = SkewObliviousPipeline::run_dataset(CountPerKey::new(8), data, &arch);
//! assert_eq!(served.output, single.output);
//! assert_eq!(served.snapshot.batches_completed, 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod balancer;
mod batch;
mod cluster;
mod doorbell;
mod metrics;
mod predictor;
mod queue;
mod router;
mod shard;

pub use balancer::{BalancerConfig, ShardBalancer};
pub use batch::{split_into_batches, BatchId, CompletedBatch};
pub use cluster::{
    Cluster, ClusterOutcome, HandoffReport, ServeConfig, ShardFailure, ShardFault, ShardStates,
};
pub use doorbell::Doorbell;
pub use metrics::{AdmissionSnapshot, ClusterSnapshot, LatencyStats, ShardSnapshot};
pub use predictor::StreamSkewPredictor;
pub use queue::{QueueSource, SharedQueue};
pub use router::{RoutingTable, SlotMove, DEFAULT_SLOTS};

// Observability vocabulary re-exported so serve-layer callers (the wire
// front-end, benches, examples) need not depend on `ditto-obs` directly.
pub use ditto_obs::{
    chrome_trace_json, LogHistogram, MetricsRegistry, MetricsSnapshot, SpanEvent, SpanJournal,
    SpanStage, NO_SHARD,
};
