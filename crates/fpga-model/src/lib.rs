//! # fpga-model — analytical Arria-10 resource & frequency model
//!
//! The paper reports post-place-&-route resource usage and clock frequency
//! for every generated implementation (Table III) and derives throughput in
//! million tuples per second from `tuples/cycle × f_clk`. A Rust
//! reproduction has no Quartus, so this crate substitutes an *analytical*
//! model:
//!
//! * [`Device`] — the Intel PAC's Arria 10 GX 1150 capacity (427 200 ALMs,
//!   2 713 M20K RAM blocks, 1 518 DSP blocks — the paper quotes the same
//!   device as "1,150K logic elements, 65.7 Mb of on-chip memory and 3,036
//!   DSP blocks", counting 18×19 multipliers rather than DSP blocks);
//! * [`ResourceModel`] — per-module cost accounting over a
//!   [`PipelineShape`] (N PrePEs, M PriPEs, X SecPEs) and an
//!   [`AppCostProfile`], with a superlinear congestion term reproducing the
//!   RAM replication Quartus performs at high utilisation;
//! * a linear frequency-vs-utilisation fit with deterministic per-config
//!   jitter standing in for place-&-route noise.
//!
//! Coefficients are calibrated against Table III; `EXPERIMENTS.md` records
//! the per-cell model-vs-paper deltas. Absolute numbers carry the model's
//! error (±≈25 %), but the trends the paper argues from — steep RAM growth
//! with SecPEs, ~20 % frequency degradation at high utilisation, the
//! profiler costing ~6 % logic — are reproduced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod device;
mod frequency;
mod profiles;
mod table3;

pub use cost::{PipelineShape, ResourceEstimate, ResourceModel};
pub use device::Device;
pub use frequency::{mteps, mtps, FrequencyModel};
pub use profiles::AppCostProfile;
pub use table3::{Table3Row, TABLE3};
