//! # ditto-wire — a zero-dependency network front-end over the serve cluster
//!
//! Until now, requests could only enter [`ditto_serve`]'s sharded cluster
//! through in-process Rust calls. This crate puts the cluster behind a real
//! socket — the missing request-parse → route → respond wire loop of the
//! Memcached-over-HLS case study, with the admission-control layer a
//! skew-oblivious *service* needs to stay up under overload:
//!
//! ```text
//! clients ──TCP frames──► WireServer ──admission──► Cluster (per app id)
//!    ▲                        │   │ queue_depth ≥ watermark?
//!    └──── Done / Output ◄────┘   └──► Overloaded (load shedding)
//! ```
//!
//! * [`frame`] — the versioned, length-prefixed binary codec: requests
//!   carry an app id, an auth token and tuple payloads, responses carry
//!   batch results and latency metadata; decoding is fuzz-resistant
//!   (property-tested).
//! * [`WireServer`] — an event-driven TCP server: a core-count pool of
//!   reactor threads multiplexes every connection through hand-rolled
//!   `epoll` bindings (the crate builds on Linux only), with
//!   per-connection framed state machines, bounded write buffers
//!   that backpressure (and eventually evict) slow readers, request
//!   pipelining (responses matched by sequence number), a connection
//!   budget ([`AdmissionConfig::max_connections`]), a completion pump,
//!   and graceful
//!   shutdown that drains in-flight batches and flushes their responses
//!   before joining shard threads.
//! * [`AdmissionController`] — reads the cluster's live aggregated
//!   `queue_depth` before every admission; past the configured
//!   high-watermark it defers briefly, then sheds with an explicit
//!   [`Overloaded`](frame::Response::Overloaded) response instead of
//!   queueing unboundedly.
//! * [`WireClient`] — the in-process pipelining client over a real
//!   socket (the loopback tests build on it).
//! * [`WireApp`] — lossless output codecs for all five paper apps, so a
//!   `Finalize` round-trip proves wire-served results equal a
//!   single-engine [`run_dataset`](ditto_core::SkewObliviousPipeline::run_dataset).
//!
//! # Example
//!
//! ```
//! use ditto_wire::{app_id, AppRegistry, WireApp, WireClient, WireServer, WireServerConfig};
//! use ditto_core::apps::CountPerKey;
//! use ditto_core::ArchConfig;
//! use ditto_serve::ServeConfig;
//! use datagen::Tuple;
//!
//! // Host a counting app on an OS-assigned loopback port.
//! let app = CountPerKey::new(4);
//! let mut registry = AppRegistry::new();
//! registry.register(
//!     app_id::COUNT,
//!     app.clone(),
//!     ServeConfig::new(2, ArchConfig::new(2, 4, 1)),
//! );
//! let server = WireServer::bind("127.0.0.1:0", registry, WireServerConfig::new()).unwrap();
//!
//! // Serve a batch over the socket and read the finalized output back.
//! let mut client = WireClient::connect(server.local_addr()).unwrap();
//! let batch: Vec<Tuple> = (0..100u64).map(Tuple::from_key).collect();
//! client.submit_wait(app_id::COUNT, &batch).unwrap();
//! let output = app.decode_output(&client.finalize(app_id::COUNT).unwrap()).unwrap();
//! assert_eq!(output.iter().sum::<u64>(), 100);
//! drop(client);
//! server.shutdown();
//! ```

// `deny` rather than `forbid`: the poller's syscall shim is the one
// carved-out `#[allow(unsafe_code)]` module (see `poller::sys`); all
// other code stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("ditto-wire multiplexes sockets with epoll and builds on Linux only");

mod admission;
mod client;
mod conn;
pub mod frame;
mod poller;
mod reactor;
mod registry;
mod server;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionDecision};
pub use client::{WireClient, WireError};
pub use frame::{metrics_format, Frame, FrameError, FrameKind, Request, Response, WireStats};
pub use poller::Backend;
pub use registry::{app_id, AppRegistry, WireApp};
pub use server::{ShutdownReport, WireServer, WireServerConfig};
