//! The [`Kernel`] trait: one hardware module, stepped once per cycle.

use crate::{BcastReceiverId, BcastSenderId, ChannelBankId, Cycle, RawChannelId, SimContext};

/// What a kernel reports back to the engine's idle-set scheduler after one
/// `step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// The kernel did work — or may do work next cycle without any new
    /// channel event (internal timers, pending retries that must count
    /// stalls, protocol phases). The engine will step it again.
    Busy,
    /// `step` is guaranteed to be a no-op until one of the channels in the
    /// kernel's [`wake_set`](Kernel::wake_set) sees the subscribed activity.
    /// The engine stops stepping the kernel until then.
    ///
    /// Contract: a sleeping kernel must be externally unobservable — its
    /// skipped steps would not have changed any state — and must report
    /// [`is_idle`](Kernel::is_idle) truthfully if queried while asleep
    /// (its idle status cannot change while it sleeps, because only its own
    /// `step` mutates its internals and only subscribed channel activity
    /// changes its inputs).
    Sleep,
}

impl Progress {
    /// `Busy` when `busy`, else `Sleep` — for kernels that fold "does any
    /// part of me still have work" into one flag.
    pub fn busy_if(busy: bool) -> Self {
        if busy {
            Progress::Busy
        } else {
            Progress::Sleep
        }
    }
}

/// Wake subscriptions of a kernel: which channel events pull it out of
/// [`Progress::Sleep`].
///
/// Build one from the kernel's channel handles:
///
/// * [`after_push_on_bank`](WakeSet::after_push_on_bank) /
///   [`after_push_on_bcast`](WakeSet::after_push_on_bcast) — wake when a
///   value is pushed into a channel the kernel *reads* (new input
///   available);
/// * [`after_pop_on_bank`](WakeSet::after_pop_on_bank) /
///   [`after_pop_on_bcast`](WakeSet::after_pop_on_bcast) — wake when a value
///   is popped from a channel the kernel *writes* (backpressure released).
#[derive(Debug, Clone, Default)]
pub struct WakeSet {
    pub(crate) on_push: Vec<RawChannelId>,
    pub(crate) on_pop: Vec<RawChannelId>,
}

impl WakeSet {
    /// An empty wake set (a kernel that never sleeps needs no more).
    pub fn new() -> Self {
        Self::default()
    }

    /// Wake after a push into the broadcast group read through `rx`.
    pub fn after_push_on_bcast<T>(mut self, rx: BcastReceiverId<T>) -> Self {
        self.on_push.push(rx.idx);
        self
    }

    /// Wake after a push into any member of `bank`.
    pub fn after_push_on_bank<T>(mut self, bank: ChannelBankId<T>) -> Self {
        self.on_push.push(bank.idx);
        self
    }

    /// Wake after a pop from any member of `bank`.
    pub fn after_pop_on_bank<T>(mut self, bank: ChannelBankId<T>) -> Self {
        self.on_pop.push(bank.idx);
        self
    }

    /// Wake after any reader tap advances in the broadcast group written
    /// through `tx`.
    pub fn after_pop_on_bcast<T>(mut self, tx: BcastSenderId<T>) -> Self {
        self.on_pop.push(tx.raw());
        self
    }
}

/// A hardware module in the dataflow pipeline.
///
/// Each kernel corresponds to one autorun OpenCL kernel in the paper's HLS
/// design (a PrePE, a mapper, the combiner, a decoder/filter pair, a
/// PriPE/SecPE, the runtime profiler, the merger, …). The
/// [`Engine`](crate::Engine) calls [`Kernel::step`] once per simulated clock
/// cycle, in registration order, passing the [`SimContext`] that owns every
/// channel. All communication with other kernels must go through channels so
/// that bounded capacity models backpressure.
///
/// A kernel that cannot make progress this cycle (input empty, output full,
/// initiation-interval budget exhausted) simply returns without effect —
/// exactly like a stalled pipeline stage. If it can additionally *prove*
/// that every future step will be a no-op until new channel activity
/// arrives, it returns [`Progress::Sleep`] and the engine's idle-set
/// scheduler stops visiting it until a subscribed event fires — this is what
/// makes mostly-quiescent pipelines (the common case under skew) cheap to
/// simulate.
pub trait Kernel: Send {
    /// Stable debug name used in engine reports.
    fn name(&self) -> &str;

    /// Advances the module by one clock cycle `cy`.
    fn step(&mut self, cy: Cycle, ctx: &mut SimContext) -> Progress;

    /// Reports whether the kernel has no internal pending work.
    ///
    /// The engine declares the simulation *quiescent* — and
    /// [`Engine::run_until_quiescent`](crate::Engine::run_until_quiescent)
    /// returns — once every kernel is idle for a full settling window.
    /// Kernels with upstream work they cannot see (e.g. waiting on a
    /// channel) should report idleness based on their own state only; the
    /// engine combines all kernels' answers.
    fn is_idle(&self, _ctx: &SimContext) -> bool {
        false
    }

    /// The channel events that wake this kernel from [`Progress::Sleep`].
    /// Queried once at registration. A kernel that ever returns `Sleep`
    /// must subscribe to every event that could make its `step` do work
    /// again.
    fn wake_set(&self) -> WakeSet {
        WakeSet::default()
    }

    /// Reports, for the fast-forward detector, the earliest future cycle at
    /// which this kernel's `step` might do observable work.
    ///
    /// Returning `Some(h)` with `h > cy` asserts: *every* `step` with a
    /// cycle argument in `cy..h` is an observational no-op — it mutates no
    /// channel, counter, state register or statistic (including stall
    /// counters), provided no subscribed wake event fires in the meantime.
    /// `Some(`[`Cycle::MAX`]`)` means "a no-op until a wake event", the same
    /// claim [`Progress::Sleep`] makes. Returning `None` (the default)
    /// opts out: the engine steps the kernel cycle by cycle.
    ///
    /// The engine only consults awake kernels, and only jumps when every
    /// one of them returns `Some`; the jump is additionally bounded by
    /// channel-visibility events, so a conservative-but-correct bound (too
    /// *early* a horizon) costs performance, never correctness. Too *late*
    /// a horizon breaks cycle accuracy — when in doubt return `None`.
    fn hold_until(&self, _cy: Cycle, _ctx: &SimContext) -> Option<Cycle> {
        None
    }

    /// Marks this kernel as a *quiescence gate*: the pipeline can only be
    /// quiescent once every gate is idle, so
    /// [`run_until_quiescent`](crate::Engine::run_until_quiescent) checks
    /// the gates first and consults the full population only while all
    /// gates are idle. Sources are natural gates — a pipeline cannot drain
    /// while its source still has data — and declaring them turns the
    /// per-cycle idle scan into a single call for the bulk of a run.
    ///
    /// Queried once at registration. Purely an optimisation: completion
    /// cycles are identical with or without gates.
    fn is_quiescence_gate(&self) -> bool {
        false
    }
}

/// Folds one input FIFO into a [`Kernel::hold_until`] horizon.
///
/// `visible_at` is the visibility time of the FIFO's head item
/// ([`SimContext::bank_recv_visible_at`],
/// [`SimContext::bcast_recv_visible_at`]): an empty FIFO leaves
/// `earliest` unchanged (only a push event can change it), an item still in
/// flight at `cy` bounds the horizon at its visibility time, and an item
/// consumable this cycle yields `None` — the kernel has work now, so
/// `hold_until` propagates it with `?`.
#[inline]
pub fn hold_past(earliest: Cycle, visible_at: Option<Cycle>, cy: Cycle) -> Option<Cycle> {
    match visible_at {
        None => Some(earliest),
        Some(t) if t > cy => Some(earliest.min(t)),
        Some(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_past_folds_one_fifo() {
        assert_eq!(hold_past(40, None, 10), Some(40), "empty: unchanged");
        assert_eq!(hold_past(40, Some(12), 10), Some(12), "in flight: bound");
        assert_eq!(hold_past(11, Some(12), 10), Some(11), "keeps the minimum");
        assert_eq!(hold_past(40, Some(10), 10), None, "work this cycle");
    }
}
