//! # ditto-baselines — the designs Ditto is compared against
//!
//! Table II compares Ditto-generated implementations with seven prior
//! designs; Fig. 7 adds the `32P` more-PriPEs strawman and Fig. 8 the
//! routing-without-skew-handling design of Chen et al. [8]. This crate
//! provides behavioural models of each comparison point:
//!
//! * [`StaticReplicationDesign`] — the Fig. 1a architecture (Jiang et al.
//!   [12] HISTO, and the general static-dispatch + replicated-buffer
//!   pattern): tuples statically assigned to PEs, every PE keeps a full
//!   replica of the buffered state, partial results aggregated by the CPU
//!   afterwards. Simulated on the same `hls-sim` substrate.
//! * [`SinglePeDesign`] — one deeply pipelined RTL PE (Tong et al. [19]
//!   HHD): II = 1 but only one tuple lane. Simulated.
//! * [`routing_noskew`] — plain data routing without SecPEs (Chen et al.
//!   [8]): exactly the `ditto-core` pipeline with X = 0.
//! * [`PriorDesign`] — analytic throughput/BRAM models for the rows whose
//!   artifacts are not public ("Original" source in Table II), with the
//!   architecture parameters documented per design.
//!
//! All models consume the same datasets and the same bandwidth budget as
//! the Ditto pipeline, matching the paper's "bandwidth is normalized for a
//! fair comparison".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod prior;
pub mod routing_noskew;
mod single_pe;
mod static_replication;

pub use prior::PriorDesign;
pub use single_pe::SinglePeDesign;
pub use static_replication::StaticReplicationDesign;
