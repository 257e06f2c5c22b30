//! # hls-sim — a cycle-level kernels-and-channels dataflow simulator
//!
//! This crate models the execution substrate that the Ditto paper's
//! accelerators run on: Intel-OpenCL-for-FPGA style *autorun kernels*
//! connected by bounded *channels* (`cl_channel`). Every hardware module in
//! the paper (PrePE, mapper, combiner, decoder/filter, PriPE/SecPE, runtime
//! profiler, merger) becomes a [`Kernel`] stepped once per clock cycle by the
//! [`Engine`] — an *array* of identical modules as one kernel over
//! [channel banks](Engine::channel_bank) — and every arrow in the paper's
//! Fig. 3 becomes a channel in the engine's arena.
//!
//! The simulator is deliberately simple and fully deterministic:
//!
//! * channels live in a typed **channel arena** owned by the engine's
//!   [`SimContext`]; kernels hold plain-`Copy` [`ChannelBankId`] and
//!   broadcast ([`BcastSenderId`]/[`BcastReceiverId`]) handles and resolve
//!   them through the context passed to `step` — no reference counting or
//!   interior mutability on the hot path, and the whole engine is `Send`
//!   so scenario sweeps parallelise across threads;
//! * kernel *state* lives in a typed **state arena** next to the channels:
//!   PE buffers, shared plans and counters are allocated at build time
//!   ([`Engine::state`], [`Engine::counter`]) and addressed through `Copy`
//!   [`StateId`]/[`CounterId`] handles — no `Arc<Mutex<…>>` and no shared
//!   atomics anywhere on the per-cycle step path; states several kernels
//!   cooperate on (a PE's private buffer, the scheduling plan) are just
//!   registers both hold the id of;
//! * a channel has a bounded capacity and a visibility latency — an item
//!   pushed at cycle `c` can be popped at `c + `[`DEFAULT_LATENCY`] or
//!   later, and a full channel makes the producer stall (this
//!   stall-on-full backpressure is the single mechanism behind the paper's
//!   skew-induced throughput collapse);
//! * awake kernels are stepped in registration order, once per cycle; a
//!   kernel whose step is provably a no-op until new channel activity can
//!   return [`Progress::Sleep`] and is skipped until a subscribed event
//!   wakes it (the **idle-set scheduler**) — observationally identical to
//!   stepping everyone, but mostly-quiescent pipelines (the common case
//!   under skew) cost only their active set. The scheduler maintains the
//!   active-set size on every sleep/wake transition, so
//!   [`Engine::active_kernels`] is O(1) and the per-cycle loop and
//!   quiescence checks are bounded by the live count (ending at the last
//!   awake kernel rather than scanning the whole population — see
//!   [`Engine::step`] for why a materialized active list was rejected);
//! * a [broadcast channel](Engine::broadcast_channel) fans one value out to
//!   `R` reader taps while storing it once in a fixed ring, tagged with the
//!   taps that must see it — the combiner's wide-word duplication without
//!   `R` copies. A kernel serving *every* tap pops all ready taps in one
//!   branch-free pass ([`SimContext::bcast_recv_taps`]); its callback runs
//!   only on tagged taps, in tap order, and the pop wakes once;
//! * a [channel bank](Engine::channel_bank) is `len` independent FIFOs
//!   behind one arena slot, for the *arrays* of identical modules real
//!   designs are built from (N lanes, M+X PE queues); a one-member bank is
//!   the point-to-point FIFO. One kernel serves the whole array: it
//!   resolves the bank once per step ([`SimContext::bank_with`]) and works
//!   on members by index through a [`BankView`]. Statistics still report
//!   one row per member, named and positioned like `len` one-member banks
//!   created in a row, and wake subscriptions are bank-level. Stepping an
//!   array's members back to back in index order inside one kernel is the
//!   schedule of `len` kernels registered in that order — the members only
//!   meet through their own channels — so a banked pipeline differs from a
//!   per-module one in `kernel_steps` and nothing else:
//!
//!   ```text
//!   per module:  k0 k1 k2 … kN   (N boxed kernels, N×c arena slots, N wakes)
//!                │  │  │    │
//!   banked:     [k0 k1 k2 … kN]  (1 kernel, c bank slots, 1 wake per event)
//!   ```
//!
//! * there is no randomness anywhere in the engine.
//!
//! Throughput numbers are measured in items per cycle and converted to wall
//! clock by the `fpga-model` crate's frequency model.
//!
//! # Example
//!
//! A two-stage pipeline: a producer streams numbers into a one-member bank
//! (a point-to-point FIFO), a consumer accumulates them into an arena
//! counter the harness reads back after the run.
//!
//! ```
//! use hls_sim::{ChannelBankId, CounterId, Cycle, Engine, Kernel, Progress, SimContext, WakeSet};
//!
//! struct Producer { tx: ChannelBankId<u64>, next: u64, count: u64 }
//! impl Kernel for Producer {
//!     fn name(&self) -> &str { "producer" }
//!     fn step(&mut self, cy: Cycle, ctx: &mut SimContext) -> Progress {
//!         let next = self.next;
//!         if next < self.count && ctx.bank_with(self.tx, |tx| tx.try_send(cy, 0, next)).is_ok() {
//!             self.next += 1;
//!         }
//!         if self.next == self.count { Progress::Sleep } else { Progress::Busy }
//!     }
//!     fn is_idle(&self, _ctx: &SimContext) -> bool { self.next == self.count }
//! }
//!
//! struct Consumer { rx: ChannelBankId<u64>, sum: CounterId }
//! impl Kernel for Consumer {
//!     fn name(&self) -> &str { "consumer" }
//!     fn step(&mut self, cy: Cycle, ctx: &mut SimContext) -> Progress {
//!         if let Some(v) = ctx.bank_with(self.rx, |rx| rx.try_recv(cy, 0)) {
//!             ctx.counter_add(self.sum, v);
//!             Progress::Busy
//!         } else if ctx.bank_is_empty(self.rx, 0) {
//!             Progress::Sleep // parked until the producer pushes again
//!         } else {
//!             Progress::Busy // item in flight, visible next cycle
//!         }
//!     }
//!     fn is_idle(&self, ctx: &SimContext) -> bool { ctx.bank_is_empty(self.rx, 0) }
//!     fn wake_set(&self) -> WakeSet { WakeSet::new().after_push_on_bank(self.rx) }
//! }
//!
//! let mut engine = Engine::new();
//! let link = engine.channel_bank::<u64>("link", 0, 1, 4);
//! let sum = engine.counter();
//! engine.add_kernel(Producer { tx: link, next: 0, count: 10 });
//! engine.add_kernel(Consumer { rx: link, sum });
//! let report = engine.run_until_quiescent(1_000);
//! assert_eq!(engine.context().counter(sum), 45);
//! assert!(report.cycles < 25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod context;
mod engine;
mod kernel;
mod memory;
mod state;
mod stats;

pub use channel::{
    BankView, BcastGroupId, BcastReceiverId, BcastSenderId, ChannelAggregate, ChannelBankId,
    ChannelStats, RawChannelId, SendError, DEFAULT_LATENCY,
};
pub use context::SimContext;
pub use engine::{Engine, RunReport};
pub use kernel::{hold_past, Kernel, Progress, WakeSet};
pub use memory::{MemoryModel, PacedSource, RateLimiter, SliceSource, StreamSource};
pub use state::{CounterId, StateId};
pub use stats::ThroughputWindow;

/// Simulation time, measured in clock cycles since engine start.
pub type Cycle = u64;

/// Identifier of a registered kernel (its registration index), returned by
/// [`Engine::add_kernel`] and accepted by [`SimContext::wake_kernel`].
pub type KernelId = u32;
