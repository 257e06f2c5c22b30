//! The [`SimContext`]: the engine-owned channel and state arenas plus the
//! wake-flag plumbing of the idle-set scheduler.

use crate::channel::{ArenaSlot, BroadcastCore, ChannelCore};
use crate::state::StateArena;
use crate::{
    BankView, BcastGroupId, BcastReceiverId, BcastSenderId, ChannelAggregate, ChannelBankId,
    ChannelStats, CounterId, Cycle, RawChannelId, SendError, StateId,
};

/// Wake subscribers of one channel event, compact in the (overwhelmingly
/// common) zero/one-subscriber cases so firing an event is branch + store,
/// not a heap walk.
#[derive(Debug, Clone, Default)]
pub(crate) enum Subscribers {
    #[default]
    None,
    One(u32),
    Many(Vec<u32>),
}

impl Subscribers {
    fn add(&mut self, kernel: u32) {
        match self {
            Subscribers::None => *self = Subscribers::One(kernel),
            Subscribers::One(first) => *self = Subscribers::Many(vec![*first, kernel]),
            Subscribers::Many(v) => v.push(kernel),
        }
    }
}

/// Owns every channel and state register of a simulation and resolves the
/// typed id handles kernels hold.
///
/// A `&mut SimContext` is passed to every [`Kernel::step`](crate::Kernel::step);
/// all sends, receives and state accesses go through it. Successful sends
/// and pops also mark the subscribed kernels' wake flags, which is how
/// sleeping kernels are re-activated.
pub struct SimContext {
    channels: Vec<ArenaSlot>,
    /// Typed kernel-state registers and plain counters.
    pub(crate) arena: StateArena,
    /// Kernels to wake when a value is pushed into channel `c`.
    on_push: Vec<Subscribers>,
    /// Kernels to wake when a value is popped from channel `c`.
    on_pop: Vec<Subscribers>,
    /// Per-kernel wake flags (`true` = the kernel is awake). The byte
    /// store/load here is the measured-fastest event path at pipeline
    /// sizes of tens of kernels; the dense active *set* is maintained as
    /// the (`awake_count`, `scan_ahead`) pair bounding the engine's
    /// per-cycle loop, not as a materialized index list — see
    /// [`Engine::step`](crate::Engine::step) for why.
    pub(crate) wake: Vec<bool>,
    /// Maintained size of the active set — updated on every sleep/wake
    /// transition, so [`Engine::active_kernels`](crate::Engine::active_kernels)
    /// is O(1) instead of an O(n) flag recount.
    pub(crate) awake_count: u32,
    /// While a cycle is being stepped: number of awake kernels at or ahead
    /// of the scan position (the loop's termination bound). Wakes of
    /// later-indexed kernels raise it (they step this cycle); wakes behind
    /// the scan only raise `awake_count` (they step next cycle) — exactly
    /// the wake-flag-scan semantics.
    pub(crate) scan_ahead: u32,
    /// Kernel currently stepping (wakes targeting it are deferred to the
    /// sleep decision instead of the flag array).
    pub(crate) current_kernel: u32,
    /// Set when the currently stepping kernel triggered its own wake.
    pub(crate) self_woken: bool,
}

impl SimContext {
    pub(crate) fn new() -> Self {
        SimContext {
            channels: Vec::new(),
            arena: StateArena::default(),
            on_push: Vec::new(),
            on_pop: Vec::new(),
            wake: Vec::new(),
            awake_count: 0,
            scan_ahead: 0,
            current_kernel: u32::MAX,
            self_woken: false,
        }
    }

    /// Registers a channel slot (bank or broadcast group).
    pub(crate) fn add_channel(&mut self, ch: ArenaSlot) -> RawChannelId {
        let id = self.channels.len() as RawChannelId;
        self.channels.push(ch);
        self.on_push.push(Subscribers::None);
        self.on_pop.push(Subscribers::None);
        id
    }

    pub(crate) fn subscribe_push(&mut self, ch: RawChannelId, kernel: u32) {
        assert!(
            (ch as usize) < self.channels.len(),
            "wake subscription references unknown channel {ch}"
        );
        self.on_push[ch as usize].add(kernel);
    }

    pub(crate) fn subscribe_pop(&mut self, ch: RawChannelId, kernel: u32) {
        assert!(
            (ch as usize) < self.channels.len(),
            "wake subscription references unknown channel {ch}"
        );
        self.on_pop[ch as usize].add(kernel);
    }

    #[inline]
    fn bcast<T: Send + 'static>(&self, idx: u32) -> &BroadcastCore<T> {
        self.channels[idx as usize]
            .core
            .downcast_ref::<BroadcastCore<T>>()
            .expect("broadcast id used with mismatched payload type")
    }

    #[inline]
    fn bcast_mut<T: Send + 'static>(&mut self, idx: u32) -> &mut BroadcastCore<T> {
        self.channels[idx as usize]
            .core
            .downcast_mut::<BroadcastCore<T>>()
            .expect("broadcast id used with mismatched payload type")
    }

    #[inline]
    fn bank<T: Send + 'static>(&self, idx: u32) -> &[ChannelCore<T>] {
        self.channels[idx as usize]
            .core
            .downcast_ref::<Vec<ChannelCore<T>>>()
            .expect("bank id used with mismatched payload type")
    }

    /// Wakes kernel `k`: sets its flag and maintains the active-set size.
    /// A wake ahead of the engine's scan position also raises the loop's
    /// remaining-work bound so the kernel steps this cycle; a wake behind
    /// it steps next cycle.
    #[inline]
    fn wake_one(
        k: u32,
        wake: &mut [bool],
        awake_count: &mut u32,
        scan_ahead: &mut u32,
        current: u32,
        self_woken: &mut bool,
    ) {
        if k == current {
            *self_woken = true;
        } else if !wake[k as usize] {
            wake[k as usize] = true;
            *awake_count += 1;
            // `current` is `u32::MAX` outside the step loop, so external
            // wakes never inflate the in-cycle bound.
            if k > current {
                *scan_ahead += 1;
            }
        }
    }

    #[inline]
    fn fire(
        subs: &Subscribers,
        wake: &mut [bool],
        awake_count: &mut u32,
        scan_ahead: &mut u32,
        current: u32,
        self_woken: &mut bool,
    ) {
        match subs {
            Subscribers::None => {}
            Subscribers::One(k) => {
                Self::wake_one(*k, wake, awake_count, scan_ahead, current, self_woken)
            }
            Subscribers::Many(v) => v.iter().for_each(|&k| {
                Self::wake_one(k, wake, awake_count, scan_ahead, current, self_woken)
            }),
        }
    }

    /// Fires the push subscribers of channel slot `ch`.
    #[inline]
    fn fire_push(&mut self, ch: u32) {
        Self::fire(
            &self.on_push[ch as usize],
            &mut self.wake,
            &mut self.awake_count,
            &mut self.scan_ahead,
            self.current_kernel,
            &mut self.self_woken,
        );
    }

    /// Fires the pop subscribers of channel slot `ch`.
    #[inline]
    fn fire_pop(&mut self, ch: u32) {
        Self::fire(
            &self.on_pop[ch as usize],
            &mut self.wake,
            &mut self.awake_count,
            &mut self.scan_ahead,
            self.current_kernel,
            &mut self.self_woken,
        );
    }

    // ---- broadcast channels --------------------------------------------

    /// Attempts to broadcast `value` to every reader tap at cycle `cy`,
    /// tagged for every tap.
    ///
    /// The push is atomic: it succeeds only when *every* tap has room
    /// (mirroring the combiner's all-datapaths gate), and the value is
    /// stored once regardless of fan-out.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] holding the value when some tap is at capacity;
    /// the attempt is counted as a full stall.
    #[inline]
    pub fn bcast_try_send<T: Send + 'static>(
        &mut self,
        cy: Cycle,
        tx: BcastSenderId<T>,
        value: T,
    ) -> Result<(), SendError<T>> {
        self.bcast_try_send_tagged(cy, tx, u64::MAX, value)
    }

    /// [`bcast_try_send`](Self::bcast_try_send) with a **tag**: bit `r`
    /// set ⇔ tap `r` must see the payload. Every tap still receives and
    /// pops the item; the tag only limits which taps
    /// [`bcast_recv_taps`](Self::bcast_recv_taps) hands it to.
    ///
    /// # Errors
    ///
    /// As [`bcast_try_send`](Self::bcast_try_send).
    #[inline]
    pub fn bcast_try_send_tagged<T: Send + 'static>(
        &mut self,
        cy: Cycle,
        tx: BcastSenderId<T>,
        tag: u64,
        value: T,
    ) -> Result<(), SendError<T>> {
        let result = self.bcast_mut::<T>(tx.idx).try_send(cy, tag, value);
        if result.is_ok() {
            self.fire_push(tx.idx);
        }
        result
    }

    /// Returns `true` when every reader tap can accept one more item.
    #[inline]
    pub fn bcast_can_send<T: Send + 'static>(&self, tx: BcastSenderId<T>) -> bool {
        self.bcast::<T>(tx.idx).can_send_all()
    }

    /// Applies `f` to the oldest unconsumed item of this reader tap if one
    /// is visible at `cy`, consuming it (for this tap only). `f` runs
    /// whether or not the item is tagged for the tap.
    ///
    /// The item is passed by reference because other taps may still need
    /// it; clone out whatever must outlive the call.
    #[inline]
    pub fn bcast_recv_map<T: Send + 'static, R>(
        &mut self,
        cy: Cycle,
        rx: BcastReceiverId<T>,
        f: impl FnOnce(&T) -> R,
    ) -> Option<R> {
        let result = self
            .bcast_mut::<T>(rx.idx)
            .recv_map(cy, rx.reader as usize, f);
        if result.is_some() {
            self.fire_pop(rx.idx);
        }
        result
    }

    /// Batched tap receive: serves every tap of `group` named in `want`
    /// (bit `r` = tap `r`) in one resolution of the arena slot and one
    /// branch-free pass over the tap cursors. A tap whose next item is
    /// visible at `cy` consumes it — observationally one
    /// [`bcast_recv_map`](Self::bcast_recv_map) per wanted tap, except that
    /// the group's pop subscribers fire once — and `f(r, &item)` then runs,
    /// in tap order, for exactly the taps that popped an item **tagged**
    /// for them (see [`bcast_try_send_tagged`](Self::bcast_try_send_tagged)).
    /// An untagged tap pops its item silently.
    ///
    /// Returns `(popped, buffered)`: the taps that consumed an item, and
    /// the taps of the whole group — wanted or not — that still buffer
    /// items (visible or not) afterwards; a kernel serving every tap may
    /// sleep on the group only when `buffered` is zero.
    #[inline]
    pub fn bcast_recv_taps<T: Send + 'static>(
        &mut self,
        cy: Cycle,
        group: BcastGroupId<T>,
        want: u64,
        f: impl FnMut(usize, &T),
    ) -> (u64, u64) {
        let result = self.bcast_mut::<T>(group.idx).recv_taps(cy, want, f);
        if result.0 != 0 {
            self.fire_pop(group.idx);
        }
        result
    }

    /// Returns `true` when this tap has no items at all (visible or not).
    #[inline]
    pub fn bcast_is_empty<T: Send + 'static>(&self, rx: BcastReceiverId<T>) -> bool {
        self.bcast::<T>(rx.idx).occupancy(rx.reader as usize) == 0
    }

    /// Visibility time of the item at this tap's cursor, or `None` when the
    /// tap buffers nothing — the broadcast analogue of
    /// [`bank_recv_visible_at`](Self::bank_recv_visible_at) for
    /// [`Kernel::hold_until`](crate::Kernel::hold_until) bounds.
    #[inline]
    pub fn bcast_recv_visible_at<T: Send + 'static>(
        &self,
        rx: BcastReceiverId<T>,
    ) -> Option<Cycle> {
        self.bcast::<T>(rx.idx)
            .tap_front_visible_at(rx.reader as usize)
    }

    // ---- channel banks -------------------------------------------------

    /// Resolves bank `id` once and runs `f` over a [`BankView`] of its
    /// members; the bank's push subscribers fire once afterwards if any
    /// member was pushed into, its pop subscribers once if any was popped
    /// from. Within one kernel step that is indistinguishable from firing
    /// per operation: wakes only mark *other* kernels (or the self-wake
    /// flag), which are not consulted before the step returns.
    #[inline]
    pub fn bank_with<T: Send + 'static, R>(
        &mut self,
        id: ChannelBankId<T>,
        f: impl FnOnce(&mut BankView<'_, T>) -> R,
    ) -> R {
        let members = self.channels[id.idx as usize]
            .core
            .downcast_mut::<Vec<ChannelCore<T>>>()
            .expect("bank id used with mismatched payload type");
        let mut view = BankView {
            members,
            pushed: false,
            popped: false,
        };
        let out = f(&mut view);
        let (pushed, popped) = (view.pushed, view.popped);
        if pushed {
            self.fire_push(id.idx);
        }
        if popped {
            self.fire_pop(id.idx);
        }
        out
    }

    /// `true` when member `i` of bank `id` holds no items at all.
    #[inline]
    pub fn bank_is_empty<T: Send + 'static>(&self, id: ChannelBankId<T>, i: usize) -> bool {
        self.bank::<T>(id.idx)[i].queue.is_empty()
    }

    /// `true` when member `i` of bank `id` can accept one more item.
    #[inline]
    pub fn bank_can_send<T: Send + 'static>(&self, id: ChannelBankId<T>, i: usize) -> bool {
        self.bank::<T>(id.idx)[i].has_room()
    }

    /// Visibility time of member `i`'s head item, or `None` when empty.
    ///
    /// Items queue with non-decreasing visibility, so this is the earliest
    /// cycle at which any receive on the member can succeed — the
    /// per-FIFO event a [`Kernel::hold_until`](crate::Kernel::hold_until)
    /// implementation bounds its horizon with.
    #[inline]
    pub fn bank_recv_visible_at<T: Send + 'static>(
        &self,
        id: ChannelBankId<T>,
        i: usize,
    ) -> Option<Cycle> {
        self.bank::<T>(id.idx)[i].front_visible_at()
    }

    // ---- explicit wakes -------------------------------------------------

    /// Wakes kernel `kernel` (a [`KernelId`](crate::KernelId) from
    /// [`Engine::add_kernel`](crate::Engine::add_kernel)).
    ///
    /// For protocol kernels whose inputs are side-band shared state rather
    /// than channels (the §IV-B drain/merge/requeue signals): the kernel
    /// driving the protocol wakes the affected kernels in the same cycle it
    /// mutates the shared state, so they may sleep in their quiescent
    /// phases without missing a transition.
    #[inline]
    pub fn wake_kernel(&mut self, kernel: u32) {
        Self::wake_one(
            kernel,
            &mut self.wake,
            &mut self.awake_count,
            &mut self.scan_ahead,
            self.current_kernel,
            &mut self.self_woken,
        );
    }

    // ---- state arena ----------------------------------------------------

    /// Borrows the state register behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is used with a mismatched type (ids are only issued by
    /// [`Engine::state`](crate::Engine::state), so this indicates handle
    /// misuse, not a data condition).
    #[inline]
    pub fn state<T: Send + 'static>(&self, id: StateId<T>) -> &T {
        self.arena.state(id)
    }

    /// Mutably borrows the state register behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is used with a mismatched type.
    #[inline]
    pub fn state_mut<T: Send + 'static>(&mut self, id: StateId<T>) -> &mut T {
        self.arena.state_mut(id)
    }

    /// Moves the state behind `id` out of the arena, leaving an empty slot.
    ///
    /// This is the end-of-run extraction path (merger folds, `finalize`):
    /// no `Arc` unwrapping, no engine teardown ordering. Any later access
    /// through the same id panics.
    ///
    /// # Panics
    ///
    /// Panics if the state was already taken or `id` has a mismatched type.
    pub fn take_state<T: Send + 'static>(&mut self, id: StateId<T>) -> T {
        self.arena.take_state(id)
    }

    /// Reads counter `id`.
    #[inline]
    pub fn counter(&self, id: CounterId) -> u64 {
        self.arena.counter(id)
    }

    /// Adds `n` to counter `id`.
    #[inline]
    pub fn counter_add(&mut self, id: CounterId, n: u64) {
        self.arena.counter_add(id, n);
    }

    /// Adds one to counter `id`.
    #[inline]
    pub fn counter_incr(&mut self, id: CounterId) {
        self.arena.counter_add(id, 1);
    }

    /// Overwrites counter `id` with `value`.
    #[inline]
    pub fn set_counter(&mut self, id: CounterId, value: u64) {
        self.arena.set_counter(id, value);
    }

    // ---- statistics -----------------------------------------------------

    /// Snapshots every channel's lifetime statistics, in creation order;
    /// broadcast channels contribute one entry per reader tap.
    pub fn channel_stats(&self) -> Vec<ChannelStats> {
        let mut out = Vec::with_capacity(self.channels.len());
        for ch in &self.channels {
            ch.push_stats(&mut out);
        }
        out
    }

    /// Sums every channel's statistics without materialising the
    /// per-channel rows (or cloning their debug names) — the cheap
    /// aggregate a periodic observability publish reads. Folds with the
    /// same reader-tap expansion as [`channel_stats`](Self::channel_stats),
    /// so the totals match exactly.
    pub fn channel_aggregate(&self) -> ChannelAggregate {
        let mut agg = ChannelAggregate::default();
        for ch in &self.channels {
            ch.push_totals(&mut agg);
        }
        agg
    }
}

impl std::fmt::Debug for SimContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (states, counters) = self.arena.len();
        f.debug_struct("SimContext")
            .field("channels", &self.channels.len())
            .field("states", &states)
            .field("counters", &counters)
            .finish()
    }
}
