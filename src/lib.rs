//! # ditto — skew-oblivious data routing for data-intensive applications
//!
//! A comprehensive Rust reproduction of *"Skew-Oblivious Data Routing for
//! Data Intensive Applications on FPGAs with HLS"* (DAC 2021): the Ditto
//! framework and its skew-oblivious data routing architecture, rebuilt as a
//! cycle-level model on a kernels-and-channels simulator.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`hls_sim`] — the execution substrate (cycle-level kernels, bounded
//!   channels, memory models);
//! * [`core`] (`ditto-core`) — the skew-oblivious architecture: PrePEs,
//!   data routing, mappers, PriPEs/SecPEs, runtime profiler, merger, and
//!   the Equation 2 skew analyzer;
//! * [`apps`] (`ditto-apps`) — HISTO, DP, PR, HLL and HHD;
//! * [`baselines`] (`ditto-baselines`) — the designs the paper compares
//!   against;
//! * [`serve`] (`ditto-serve`) — the sharded online serving layer:
//!   persistent pipeline shards behind a skew-aware router;
//! * [`wire`] (`ditto-wire`) — the zero-dependency TCP front-end over the
//!   serve cluster: binary frame protocol, admission control and load
//!   shedding;
//! * [`ha`] (`ditto-ha`) — replication and failure recovery for the serve
//!   cluster: replicated state handoff, N-way follower replicas, batch-log
//!   replay and shard promotion;
//! * [`obs`] (`ditto-obs`) — cross-layer observability: the metrics
//!   registry, bucketed latency histograms, the batch-span tracing journal
//!   and the Prometheus/binary exposition codecs;
//! * [`plan`] (`ditto-plan`) — the deployment planner: replays a
//!   counts-tracing profile (`ditto_core::profile_counts`) against the
//!   resource model to pick a deployable `ArchConfig` under a utilisation
//!   budget, and runs the paper's Equation 1/2 implementation selection;
//! * [`sketches`], [`graph`], [`datagen`], [`fpga_model`] — algorithmic,
//!   graph, dataset and resource-model substrates.
//!
//! # Quickstart
//!
//! ```
//! use ditto::prelude::*;
//!
//! // A skewed dataset: Zipf(2.0) over 2^20 keys.
//! let data = ZipfGenerator::new(2.0, 1 << 20, 42).take_vec(30_000);
//!
//! // Let Equations 1 and 2 pick an implementation for it...
//! let app = HistoApp::new(4096, 16);
//! let plan = Planner::new().select(
//!     &app,
//!     &data,
//!     &SkewAnalyzer::paper(),
//!     &AppCostProfile::histo(),
//!     &PlannerOptions::equation1(app.ii_pre(), app.ii_pri()),
//! );
//! assert!(plan.config.x_sec > 0, "skewed data should get SecPEs");
//!
//! // ...and run it cycle-accurately.
//! let cfg = plan.config.clone().with_pe_entries(app.pe_entries());
//! let outcome = SkewObliviousPipeline::run_dataset(app, data, &cfg);
//! assert_eq!(outcome.output.iter().sum::<u64>(), 30_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use datagen;
pub use ditto_apps as apps;
pub use ditto_baselines as baselines;
pub use ditto_core as core;
pub use ditto_graph as graph;
pub use ditto_ha as ha;
pub use ditto_obs as obs;
pub use ditto_plan as plan;
pub use ditto_serve as serve;
pub use ditto_wire as wire;
pub use fpga_model;
pub use hls_sim;
pub use sketches;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use datagen::{sample, EvolvingZipfStream, Tuple, UniformGenerator, ZipfGenerator};
    pub use ditto_apps::{
        run_pagerank, DataPartitionApp, HhdApp, HistoApp, HllApp, PageRankApp, PageRankResult,
    };
    pub use ditto_baselines::{routing_noskew, PriorDesign, StaticReplicationDesign};
    pub use ditto_core::{
        ArchConfig, DittoApp, ExecutionReport, PersistentPipeline, Requeue, Routed, RunOutcome,
        SchedulingPlan, SkewAnalyzer, SkewObliviousPipeline, SliceOptions, StatSnapshot,
    };
    pub use ditto_graph::{generate, pagerank, Csr};
    pub use ditto_ha::{BatchLog, HaCluster, Promotion, RecoverySource};
    pub use ditto_obs::{
        chrome_trace_json, CountsTrace, LatencyStats, LogHistogram, MetricsRegistry,
        MetricsSnapshot, SpanEvent, SpanJournal, SpanStage,
    };
    pub use ditto_plan::{validate, DeploymentPlan, Planner, PlannerOptions, WorkloadModel};
    pub use ditto_serve::{
        split_into_batches, AdmissionSnapshot, BalancerConfig, Cluster, ClusterSnapshot,
        ServeConfig,
    };
    pub use ditto_wire::{
        AdmissionConfig, AppRegistry, WireApp, WireClient, WireServer, WireServerConfig,
    };
    pub use fpga_model::{mteps, mtps, AppCostProfile, Device, PipelineShape, ResourceModel};
    pub use hls_sim::{
        CounterId, Engine, Kernel, MemoryModel, Progress, ReceiverId, SenderId, SimContext,
        SliceSource, StateId, StreamSource, WakeSet,
    };
    pub use sketches::{murmur3_32, murmur3_u64, CountMinSketch, Fixed, HyperLogLog};
}
