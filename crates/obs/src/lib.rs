//! ditto-obs — cross-layer observability for the ditto stack.
//!
//! The engine (`hls-sim`), the serve cluster, and the wire front-end each
//! accumulate their own counters; this crate is the one vocabulary they
//! publish into and the one surface operators read from:
//!
//! * [`MetricsRegistry`] — typed counter/gauge/histogram handles. One
//!   registry per thread/shard, no locks or atomics anywhere near the
//!   simulation step path; cross-thread aggregation is a
//!   [`MetricsSnapshot::merge`] fold (associative, commutative).
//! * [`LogHistogram`] — fixed-memory HDR-style latency distribution with
//!   nearest-rank p50/p99/p999, replacing unbounded exact-sample vectors.
//! * [`SpanJournal`] — fixed-capacity ring buffer of batch lifecycle
//!   events (`accept → admit → queue → step → drain → merge → reply`),
//!   exportable as Chrome trace-event JSON via [`chrome_trace_json`].
//! * [`prom`] — Prometheus text exposition plus a validator; [`codec`] —
//!   the compact binary form shipped in `MetricsDump` wire frames.
//! * [`counts`] — the counts-tracing data model ([`CountsTrace`]): the
//!   profiling half of the two-pass deployment planner, exported through
//!   the same registry/journal/codec plane.
//! * [`env`](mod@env) — the documented catalog of `DITTO_*` overrides.
//!
//! Zero dependencies; `#![forbid(unsafe_code)]`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod codec;
pub mod counts;
pub mod env;
pub mod hist;
pub mod journal;
pub mod prom;
pub mod registry;

pub use codec::{decode_snapshot, encode_snapshot, CODEC_VERSION};
pub use counts::{CountsTrace, KernelClass, PhaseCounts};
pub use hist::{LatencyStats, LogHistogram};
pub use journal::{chrome_trace_json, SpanEvent, SpanJournal, SpanStage, NO_SHARD};
pub use prom::{to_prometheus_text, validate_prometheus_text};
pub use registry::{
    CounterHandle, GaugeHandle, HistogramHandle, MetricDesc, MetricEntry, MetricKind, MetricValue,
    MetricsRegistry, MetricsSnapshot,
};
