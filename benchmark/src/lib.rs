//! The repository's benchmark: four workloads, eight gated end-to-end
//! metrics and a per-layer trace, driven through public functions of the
//! stack and timed from outside. See `README.md`.

pub mod agree;
pub mod cli;
pub mod host;
pub mod ladder;
pub mod run;
pub mod span;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
