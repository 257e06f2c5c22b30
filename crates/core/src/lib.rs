//! # ditto-core — the skew-oblivious data routing architecture
//!
//! This crate is the paper's primary contribution (§IV), reproduced as a
//! cycle-level model on the [`hls_sim`] substrate. The paper's Fig. 3 is
//! built from *arrays* of identical modules; each array is one simulated
//! kernel over [channel banks](hls_sim::Engine::channel_bank), nine kernels
//! in all, registered (and therefore stepped) in this order:
//!
//! ```text
//! memory-reader ═lane[N]═► prepe#bank ═pre[N]═► mapper#bank ═map[N]═► combiner
//!    ─word (broadcast, M+X taps)─► filter#bank ═pein[0..M]═► pripe#bank ─┐
//!                                              ═pein[M..M+X]═► secpe#bank ─┴► merger
//!    mapper#bank ═feed[N]═► runtime-profiler ═plan[N]═► mapper#bank
//!    runtime-profiler ─control block + wakes─► secpe#bank, merger
//! ```
//!
//! `═x[n]═►` is a bank of `n` FIFOs named `x0…`, `─►` a single channel or
//! side-band signal. A bank kernel serves its members back to back in
//! index order — the order per-module kernels would be registered in — and
//! members of one array only meet through their own queues or
//! [`Control`]'s commutative counters, so the banked schedule is
//! bit-identical to the per-module one in every simulated count except
//! `kernel_steps`. The rules that make it so, which the goldens
//! (`tests/cycle_equivalence.rs`, `tests/fast_forward_equivalence.rs` and
//! the serving layers' equivalence suites) enforce:
//!
//! * banks are registered in the arrays' original order and serve members
//!   in index order: all decoders, then all PriPEs, then all SecPEs;
//! * channel banks are created at the per-module channels' arena positions
//!   with their names (`pein{j}` numbering continues from the PriPE bank
//!   into the SecPE bank), so `channel_stats()` rows and
//!   [`ChannelTotals`] are unchanged;
//! * a bank is `Busy` if any member would have been, idle only if every
//!   member is (drain completion cycles are pinned), and its `hold_until`
//!   is the minimum over members — `None` as soon as one member has work
//!   this cycle or a SecPE is `Draining`;
//! * a tap the word is not tagged for ([`WideWord::dest_taps`]) pops it
//!   silently in `filter#bank`'s [`bcast_recv_taps`](hls_sim::SimContext::bcast_recv_taps)
//!   call, in the cycle it becomes visible — when a per-datapath decoder
//!   would have consumed it and found a zero mask;
//! * `pripe#bank`/`secpe#bank` pop, by bitmask, exactly the members that
//!   are live, past their II and have a visible value;
//! * `secpe#bank` reads every SecPE's phase once at step start, and the
//!   profiler's drain/restart wakes target the bank's kernel id;
//! * `mapper#bank` applies a generation reset at its first step after the
//!   bump, before that step's pairs and tuples, and at most one plan pair
//!   per lane per cycle.
//!
//! * [`DittoApp`] — the programming interface (the paper's Listing 2): an
//!   application provides `preprocess` (PrePE logic: compute `⟨dst, value⟩`),
//!   `process` (PriPE/SecPE logic against the private buffer), `merge`
//!   (fold a SecPE partial into its PriPE) and `finalize`.
//! * [`SkewObliviousPipeline`] — assembles and runs the full architecture
//!   for a given [`ArchConfig`] (N PrePEs, M PriPEs, X SecPEs, channel
//!   depths, profiling window, reschedule threshold and kernel-requeue
//!   overhead).
//! * [`mapper::Mapper`] — the mapping table + counter array with round-robin
//!   workload redirecting (§IV-C2, Fig. 4).
//! * [`profiler`] — workload histogram profiling, greedy SecPE plan
//!   generation (§IV-C3, Fig. 5) and throughput-drop triggered rescheduling
//!   (§IV-B) including the kernel re-enqueue overhead the paper measures in
//!   Fig. 9.
//! * [`SkewAnalyzer`] — the §V-D skew analyzer: Equation 2 over a sampled
//!   per-PriPE workload, the SecPE count an implementation must provide.
//!
//! # Example
//!
//! Build a 4-PrePE / 8-PriPE / 3-SecPE histogram pipeline and run it over a
//! skewed dataset:
//!
//! ```
//! use ditto_core::{ArchConfig, SkewObliviousPipeline};
//! use ditto_core::apps::CountPerKey;
//! use datagen::ZipfGenerator;
//!
//! let data = ZipfGenerator::new(2.0, 1 << 12, 7).take_vec(20_000);
//! let config = ArchConfig::new(4, 8, 3);
//! let app = CountPerKey::new(8);
//! let outcome = SkewObliviousPipeline::run_dataset(app, data, &config);
//! assert_eq!(outcome.output.iter().sum::<u64>(), 20_000);
//! assert!(outcome.report.completed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyzer;
mod app;
pub mod apps;
mod arch;
mod config;
mod control;
pub mod counts;
pub mod mapper;
mod mask;
pub mod merger;
pub mod pe;
pub mod phase;
pub mod plan;
pub mod profiler;
pub mod reader;
mod report;
pub mod routing;

pub use analyzer::SkewAnalyzer;
pub use app::{DittoApp, Routed};
pub use arch::{PersistentPipeline, RunOutcome, SkewObliviousPipeline};
pub use config::{ArchConfig, Requeue};
pub use control::{Control, ControlId, SecPhase};
pub use counts::{profile_counts, SliceOptions};
pub use mask::MaskTable;
pub use phase::PhasePlan;
pub use plan::SchedulingPlan;
pub use report::{ChannelTotals, ExecutionReport, ProtocolCycles, StatSnapshot};
pub use routing::{WideWord, MAX_DEST_PES, MAX_WORD_SLOTS};

/// Identifier of a destination PE: `0..M` are PriPEs, `M..M+X` are SecPEs.
pub type PeId = u32;

pub use datagen::Tuple;
