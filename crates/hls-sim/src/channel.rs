//! Bounded FIFO channels living in the engine's channel arena.
//!
//! A channel models an HLS `cl_channel`: a hardware FIFO with a fixed
//! capacity (the paper sizes PE input queues at a few hundred entries) and a
//! visibility latency of [`DEFAULT_LATENCY`] cycles, so that a value written
//! in cycle `c` is readable in `c + DEFAULT_LATENCY` at the earliest.
//! Producers observe backpressure through [`BankView::try_send`] returning
//! [`SendError`].
//!
//! Channels are owned by the [`Engine`](crate::Engine)'s arena and kernels
//! hold plain-`Copy` handles ([`ChannelBankId`], [`BcastSenderId`],
//! [`BcastReceiverId`]), resolved through the
//! [`SimContext`](crate::SimContext) passed to every `step`. This removes
//! all per-access reference counting and interior-mutability checks from the
//! hot path and makes the whole engine `Send`. The arena has two kinds of
//! slot.
//!
//! A *channel bank* ([`ChannelBankId`]) is `len` fully independent FIFOs
//! behind **one** arena slot, because one kernel serves all of them (the
//! paper's module arrays: N lanes, M+X PE input queues). The kernel resolves
//! the slot once per step
//! ([`SimContext::bank_with`](crate::SimContext::bank_with)) and works on
//! the members through a [`BankView`]; statistics report one row per member.
//! A one-member bank is the point-to-point FIFO.
//!
//! A *broadcast* channel ([`BcastSenderId`]/[`BcastReceiverId`]) is one
//! producer fanning the same value out to `R` reader taps, each with its own
//! FIFO view, cursor and statistics. It behaves exactly like `R` independent
//! FIFOs that happen to receive identical atomic pushes — which is precisely
//! the combiner's wide-word duplication in the paper's Fig. 3 — but stores
//! each value once instead of `R` times, in a fixed power-of-two ring. Each
//! item carries a **tag**, the taps that must see its payload: a kernel
//! serving every tap
//! ([`SimContext::bcast_recv_taps`](crate::SimContext::bcast_recv_taps))
//! pops on all ready taps in one branch-free pass and is handed the item
//! only on tagged ones; untagged taps pop it silently, with the same
//! statistics — like the paper's decoders, which all consume every word
//! and forward only matching records.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;

use crate::Cycle;

/// Visibility latency of every channel, in cycles: an item pushed at cycle
/// `c` can be popped at `c + DEFAULT_LATENCY` or later. Bank members and
/// broadcast taps alike.
pub const DEFAULT_LATENCY: u64 = 1;

/// Raw arena index of a channel; obtained from the typed id handles and used
/// to declare wake subscriptions.
pub type RawChannelId = u32;

/// Error returned by a failed send when the FIFO is full.
///
/// Carries the rejected value back to the caller so it can be retried next
/// cycle without cloning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "channel full")
    }
}

impl<T: fmt::Debug> std::error::Error for SendError<T> {}

/// Producer handle of a broadcast channel.
pub struct BcastSenderId<T> {
    pub(crate) idx: u32,
    pub(crate) _marker: PhantomData<fn(T)>,
}

/// One reader tap of a broadcast channel.
pub struct BcastReceiverId<T> {
    pub(crate) idx: u32,
    pub(crate) reader: u32,
    pub(crate) _marker: PhantomData<fn() -> T>,
}

/// The whole reader-tap group of a broadcast channel — what a kernel that
/// serves every tap ([`SimContext::bcast_recv_taps`](crate::SimContext::bcast_recv_taps))
/// holds instead of one handle per tap. Obtained from any tap via
/// [`BcastReceiverId::group`].
pub struct BcastGroupId<T> {
    pub(crate) idx: u32,
    pub(crate) _marker: PhantomData<fn() -> T>,
}

/// Handle of a channel bank: `len` FIFOs behind one arena slot,
/// created by [`Engine::channel_bank`](crate::Engine::channel_bank). Both
/// the producing and the consuming kernel hold the same handle and address
/// members by index.
pub struct ChannelBankId<T> {
    pub(crate) idx: u32,
    pub(crate) len: u32,
    pub(crate) _marker: PhantomData<fn(T) -> T>,
}

macro_rules! impl_id_traits {
    ($name:ident) => {
        impl<T> Clone for $name<T> {
            fn clone(&self) -> Self {
                *self
            }
        }
        impl<T> Copy for $name<T> {}
        impl<T> fmt::Debug for $name<T> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.idx)
            }
        }
    };
}

impl_id_traits!(BcastSenderId);
impl_id_traits!(BcastReceiverId);
impl_id_traits!(BcastGroupId);
impl_id_traits!(ChannelBankId);

impl<T> BcastSenderId<T> {
    /// The raw arena index (for wake subscriptions).
    pub fn raw(&self) -> RawChannelId {
        self.idx
    }
}

impl<T> BcastReceiverId<T> {
    /// The broadcast group this tap belongs to.
    pub fn group(&self) -> BcastGroupId<T> {
        BcastGroupId {
            idx: self.idx,
            _marker: PhantomData,
        }
    }
}

impl<T> ChannelBankId<T> {
    /// Number of member FIFOs.
    pub fn members(&self) -> usize {
        self.len as usize
    }
}

/// A point-in-time snapshot of a channel's lifetime statistics.
///
/// Produced by [`SimContext::channel_stats`](crate::SimContext::channel_stats)
/// (one entry per bank member, one per broadcast reader tap); used by the
/// experiment harness to report stall behaviour (e.g. how skew fills a hot
/// PE's queue).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelStats {
    /// Debug name given at construction.
    pub name: String,
    /// Configured capacity.
    pub capacity: usize,
    /// Total successful pushes.
    pub pushes: u64,
    /// Total successful pops.
    pub pops: u64,
    /// Number of rejected pushes (producer stalls on full FIFO).
    pub full_stalls: u64,
    /// High-water mark of occupancy.
    pub max_occupancy: usize,
    /// Occupancy at snapshot time.
    pub occupancy: usize,
}

impl ChannelStats {
    /// Items still in flight (pushed but never popped).
    pub fn in_flight(&self) -> u64 {
        self.pushes - self.pops
    }
}

/// Allocation-free sum of every channel's statistics, folded with the same
/// per-reader expansion as [`SimContext::channel_stats`]
/// (one row per bank member, one per broadcast reader tap) but without
/// cloning any debug name. This is what a periodic observability publish
/// reads: the full [`ChannelStats`] snapshot costs one `String` per
/// channel per call, which a per-poll cadence cannot afford.
///
/// [`SimContext::channel_stats`]: crate::SimContext::channel_stats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelAggregate {
    /// Total successful pushes (broadcast pushes counted once per tap).
    pub pushes: u64,
    /// Total successful pops.
    pub pops: u64,
    /// Total rejected pushes (producer stalls on full FIFOs).
    pub full_stalls: u64,
    /// Highest occupancy high-water mark of any single channel/tap.
    pub max_occupancy: usize,
    /// Number of (reader-expanded) channels folded in.
    pub channels: usize,
}

pub(crate) struct QueueSlot<T> {
    pub(crate) value: T,
    pub(crate) visible_at: Cycle,
}

/// Storage of one single-reader FIFO: a bank member.
pub(crate) struct ChannelCore<T> {
    pub(crate) name: String,
    pub(crate) capacity: usize,
    pub(crate) queue: VecDeque<QueueSlot<T>>,
    /// Visibility time of the head item; `Cycle::MAX` when empty.
    front_at: Cycle,
    pub(crate) pushes: u64,
    pub(crate) pops: u64,
    pub(crate) full_stalls: u64,
    pub(crate) max_occupancy: usize,
}

impl<T> ChannelCore<T> {
    pub(crate) fn new(name: &str, capacity: usize) -> Self {
        assert!(capacity > 0, "channel {name:?} must have nonzero capacity");
        ChannelCore {
            name: name.to_owned(),
            capacity,
            queue: VecDeque::with_capacity(capacity.min(4096)),
            front_at: Cycle::MAX,
            pushes: 0,
            pops: 0,
            full_stalls: 0,
            max_occupancy: 0,
        }
    }

    /// `true` when the FIFO can accept one more item.
    #[inline]
    pub(crate) fn has_room(&self) -> bool {
        self.queue.len() < self.capacity
    }

    #[inline]
    pub(crate) fn try_send(&mut self, cy: Cycle, value: T) -> Result<(), SendError<T>> {
        if !self.has_room() {
            self.full_stalls += 1;
            return Err(SendError(value));
        }
        let visible_at = cy + DEFAULT_LATENCY;
        self.queue.push_back(QueueSlot { value, visible_at });
        if self.queue.len() == 1 {
            self.front_at = visible_at;
        }
        self.pushes += 1;
        if self.queue.len() > self.max_occupancy {
            self.max_occupancy = self.queue.len();
        }
        Ok(())
    }

    #[inline]
    pub(crate) fn try_recv(&mut self, cy: Cycle) -> Option<T> {
        if !self.can_recv(cy) {
            return None;
        }
        let slot = self.queue.pop_front().expect("nonempty");
        let next = self.queue.front();
        self.front_at = next.map_or(Cycle::MAX, |next| next.visible_at);
        self.pops += 1;
        Some(slot.value)
    }

    #[inline]
    pub(crate) fn can_recv(&self, cy: Cycle) -> bool {
        self.front_at <= cy
    }

    /// Visibility time of the front item, if any. Items are queued with
    /// monotonically non-decreasing visibility, so this is the earliest
    /// cycle at which *any* receive on the channel can succeed — the
    /// fast-forward detector's per-channel event.
    #[inline]
    pub(crate) fn front_visible_at(&self) -> Option<Cycle> {
        (!self.queue.is_empty()).then_some(self.front_at)
    }

    pub(crate) fn stats(&self) -> ChannelStats {
        ChannelStats {
            name: self.name.clone(),
            capacity: self.capacity,
            pushes: self.pushes,
            pops: self.pops,
            full_stalls: self.full_stalls,
            max_occupancy: self.max_occupancy,
            occupancy: self.queue.len(),
        }
    }

    pub(crate) fn accumulate(&self, agg: &mut ChannelAggregate) {
        agg.pushes += self.pushes;
        agg.pops += self.pops;
        agg.full_stalls += self.full_stalls;
        agg.max_occupancy = agg.max_occupancy.max(self.max_occupancy);
        agg.channels += 1;
    }
}

/// Storage of one broadcast channel: a power-of-two ring of tagged items
/// read through `R` tap cursors.
///
/// Sequences are absolute: item `s` lives in slot `s & mask` until a push
/// overwrites it. Tap `r` next consumes `cursors[r]`, which is also its pop
/// count; `head` is the push count and `front` the slowest cursor. The
/// producer has room while `head - front < capacity`, so a push never
/// overwrites an item some tap still needs.
pub(crate) struct BroadcastCore<T> {
    name_prefix: String,
    capacity: usize,
    /// Ring slots minus one.
    mask: u64,
    values: Box<[Option<T>]>,
    visible_at: Box<[Cycle]>,
    tags: Box<[u64]>,
    head: u64,
    front: u64,
    cursors: Vec<u64>,
    full_stalls: u64,
    max_occupancy: Vec<usize>,
}

impl<T> BroadcastCore<T> {
    pub(crate) fn new(name_prefix: &str, readers: usize, capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "broadcast {name_prefix:?} must have nonzero capacity"
        );
        assert!(
            (1..=64).contains(&readers),
            "broadcast {name_prefix:?} needs 1..=64 readers (tap masks are single words)"
        );
        let slots = capacity.next_power_of_two();
        BroadcastCore {
            name_prefix: name_prefix.to_owned(),
            capacity,
            mask: slots as u64 - 1,
            values: (0..slots).map(|_| None).collect(),
            visible_at: vec![0; slots].into_boxed_slice(),
            tags: vec![0; slots].into_boxed_slice(),
            head: 0,
            front: 0,
            cursors: vec![0; readers],
            full_stalls: 0,
            max_occupancy: vec![0; readers],
        }
    }

    #[inline]
    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// Occupancy as seen by reader `r` (items pushed, not yet consumed).
    #[inline]
    pub(crate) fn occupancy(&self, r: usize) -> usize {
        (self.head - self.cursors[r]) as usize
    }

    /// `true` when every reader tap has room for one more item: the
    /// slowest tap's occupancy is `head - front`.
    #[inline]
    pub(crate) fn can_send_all(&self) -> bool {
        self.head - self.front < self.capacity as u64
    }

    /// Pushes `value` for every tap, tagged for the taps in `tag`.
    #[inline]
    pub(crate) fn try_send(&mut self, cy: Cycle, tag: u64, value: T) -> Result<(), SendError<T>> {
        if !self.can_send_all() {
            self.full_stalls += 1;
            return Err(SendError(value));
        }
        let slot = self.slot(self.head);
        self.values[slot] = Some(value);
        self.visible_at[slot] = cy + DEFAULT_LATENCY;
        self.tags[slot] = tag;
        self.head += 1;
        for (max, &c) in self.max_occupancy.iter_mut().zip(&self.cursors) {
            *max = (*max).max((self.head - c) as usize);
        }
        Ok(())
    }

    /// One branch-free pass over every cursor: each tap in `want` with an
    /// item visible at `cy` pops it, and the front moves to the slowest
    /// cursor. Returns the taps that popped, the taps still holding items,
    /// and the popped taps whose item was tagged for them.
    #[inline]
    fn pop_pass(&mut self, cy: Cycle, want: u64) -> (u64, u64, u64) {
        let (head, mask) = (self.head, self.mask);
        let (mut popped, mut buffered, mut tagged, mut front) = (0, 0, 0, u64::MAX);
        for (r, cursor) in self.cursors.iter_mut().enumerate() {
            let c = *cursor;
            let slot = (c & mask) as usize;
            let pop = (c < head) & (self.visible_at[slot] <= cy) & (want >> r & 1 == 1);
            let bit = u64::from(pop) << r;
            popped |= bit;
            tagged |= bit & self.tags[slot];
            let next = c + u64::from(pop);
            *cursor = next;
            buffered |= u64::from(next < head) << r;
            front = front.min(next);
        }
        self.front = front;
        (popped, buffered, tagged)
    }

    /// The item tap `r` popped last.
    #[inline]
    fn last_popped(&self, r: usize) -> &T {
        self.values[self.slot(self.cursors[r] - 1)]
            .as_ref()
            .expect("a popped sequence was pushed")
    }

    /// Applies `f` to the item at reader `r`'s cursor if it is visible at
    /// `cy`, advancing the cursor. Tags are ignored: `f` sees every item.
    #[inline]
    pub(crate) fn recv_map<R>(
        &mut self,
        cy: Cycle,
        r: usize,
        f: impl FnOnce(&T) -> R,
    ) -> Option<R> {
        let (popped, _, _) = self.pop_pass(cy, 1 << r);
        (popped != 0).then(|| f(self.last_popped(r)))
    }

    /// Serves every tap in `want` (bit `r` = tap `r`) in one pass: a tap
    /// whose next item is visible at `cy` pops it, exactly as one
    /// [`recv_map`](Self::recv_map) per tap would, and `f(r, &item)` then
    /// runs in tap order for each tap that popped an item tagged for it.
    /// Returns `(popped, buffered)`: the taps that consumed an item, and
    /// the taps (of the whole group, wanted or not) that still hold items —
    /// visible or not — afterwards.
    #[inline]
    pub(crate) fn recv_taps(
        &mut self,
        cy: Cycle,
        want: u64,
        mut f: impl FnMut(usize, &T),
    ) -> (u64, u64) {
        let (popped, buffered, mut tagged) = self.pop_pass(cy, want);
        while tagged != 0 {
            let r = tagged.trailing_zeros() as usize;
            tagged &= tagged - 1;
            f(r, self.last_popped(r));
        }
        (popped, buffered)
    }

    /// Visibility time of the item at reader `r`'s cursor, if any — the
    /// earliest cycle at which a receive on this tap can succeed (the
    /// fast-forward detector's per-tap event).
    #[inline]
    pub(crate) fn tap_front_visible_at(&self, r: usize) -> Option<Cycle> {
        let c = self.cursors[r];
        (c < self.head).then(|| self.visible_at[self.slot(c)])
    }

    pub(crate) fn reader_stats(&self, r: usize) -> ChannelStats {
        ChannelStats {
            name: format!("{}{}", self.name_prefix, r),
            capacity: self.capacity,
            pushes: self.head,
            pops: self.cursors[r],
            full_stalls: self.full_stalls,
            max_occupancy: self.max_occupancy[r],
            occupancy: self.occupancy(r),
        }
    }

    pub(crate) fn accumulate(&self, agg: &mut ChannelAggregate) {
        for (r, &pops) in self.cursors.iter().enumerate() {
            agg.pushes += self.head;
            agg.pops += pops;
            agg.full_stalls += self.full_stalls;
            agg.max_occupancy = agg.max_occupancy.max(self.max_occupancy[r]);
            agg.channels += 1;
        }
    }
}

/// The members of one channel bank, borrowed for the duration of a
/// [`SimContext::bank_with`](crate::SimContext::bank_with) closure: the
/// arena slot is resolved once, every member operation inside is a plain
/// indexed access, and the bank's wake subscribers fire once after the
/// closure returns (a push anywhere in the bank is one push event, a pop
/// anywhere one pop event).
///
/// Members are addressed by their index within the bank (`0..members()`),
/// not by the number in their name.
pub struct BankView<'a, T> {
    pub(crate) members: &'a mut [ChannelCore<T>],
    pub(crate) pushed: bool,
    pub(crate) popped: bool,
}

impl<T> BankView<'_, T> {
    /// Number of member FIFOs.
    pub fn members(&self) -> usize {
        self.members.len()
    }

    /// Attempts to push `value` into member `i` at cycle `cy`; it becomes
    /// visible at `cy + DEFAULT_LATENCY`.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] holding the value when member `i` is at
    /// capacity; the producing kernel should treat that as a pipeline stall
    /// and retry on a later cycle. The attempt is counted as a full stall
    /// of that member.
    #[inline]
    pub fn try_send(&mut self, cy: Cycle, i: usize, value: T) -> Result<(), SendError<T>> {
        let result = self.members[i].try_send(cy, value);
        self.pushed |= result.is_ok();
        result
    }

    /// Pops member `i`'s oldest item if one is visible at cycle `cy`;
    /// `None` when the member is empty *or* its head was pushed less than
    /// [`DEFAULT_LATENCY`] cycles ago.
    #[inline]
    pub fn try_recv(&mut self, cy: Cycle, i: usize) -> Option<T> {
        let result = self.members[i].try_recv(cy);
        self.popped |= result.is_some();
        result
    }

    /// `true` when member `i` holds no items at all (visible or not).
    #[inline]
    pub fn is_empty(&self, i: usize) -> bool {
        self.members[i].queue.is_empty()
    }

    /// `true` when member `i` can accept one more item.
    #[inline]
    pub fn can_send(&self, i: usize) -> bool {
        self.members[i].has_room()
    }

    /// Bit `i` set ⇔ member `i` can accept one more item — the whole
    /// bank's backpressure state in one word.
    #[inline]
    pub fn room_mask(&self) -> u64 {
        self.mask(ChannelCore::has_room)
    }

    /// Bit `i` set ⇔ member `i` has an item visible at `cy`, i.e.
    /// [`try_recv(cy, i)`](Self::try_recv) would return it.
    #[inline]
    pub fn ready_mask(&self, cy: Cycle) -> u64 {
        self.mask(|ch| ch.can_recv(cy))
    }

    /// Bit `i` set ⇔ member `i` holds items (visible or not), i.e.
    /// [`is_empty(i)`](Self::is_empty) is `false`.
    #[inline]
    pub fn nonempty_mask(&self) -> u64 {
        self.mask(|ch| !ch.queue.is_empty())
    }

    #[inline]
    fn mask(&self, bit: impl Fn(&ChannelCore<T>) -> bool) -> u64 {
        self.members
            .iter()
            .enumerate()
            .fold(0, |mask, (i, ch)| mask | u64::from(bit(ch)) << i)
    }
}

/// Type-erased arena slot: the concrete `Vec<ChannelCore<T>>` (a bank) or
/// `BroadcastCore<T>` behind a plain `dyn Any` (one `TypeId` compare per
/// access, no extra virtual hop), plus monomorphised statistics reporters.
pub(crate) struct ArenaSlot {
    pub(crate) core: Box<dyn Any + Send>,
    stats_fn: fn(&dyn Any, &mut Vec<ChannelStats>),
    totals_fn: fn(&dyn Any, &mut ChannelAggregate),
}

impl ArenaSlot {
    /// A channel bank: reports one row per member, in member order.
    pub(crate) fn bank<T: Send + 'static>(members: Vec<ChannelCore<T>>) -> Self {
        fn report<T: Send + 'static>(any: &dyn Any, out: &mut Vec<ChannelStats>) {
            let members = any
                .downcast_ref::<Vec<ChannelCore<T>>>()
                .expect("slot type");
            out.extend(members.iter().map(ChannelCore::stats));
        }
        fn totals<T: Send + 'static>(any: &dyn Any, agg: &mut ChannelAggregate) {
            let members = any
                .downcast_ref::<Vec<ChannelCore<T>>>()
                .expect("slot type");
            members.iter().for_each(|core| core.accumulate(agg));
        }
        ArenaSlot {
            core: Box::new(members),
            stats_fn: report::<T>,
            totals_fn: totals::<T>,
        }
    }

    pub(crate) fn broadcast<T: Send + 'static>(core: BroadcastCore<T>) -> Self {
        fn report<T: Send + 'static>(any: &dyn Any, out: &mut Vec<ChannelStats>) {
            let core = any.downcast_ref::<BroadcastCore<T>>().expect("slot type");
            for r in 0..core.cursors.len() {
                out.push(core.reader_stats(r));
            }
        }
        fn totals<T: Send + 'static>(any: &dyn Any, agg: &mut ChannelAggregate) {
            let core = any.downcast_ref::<BroadcastCore<T>>().expect("slot type");
            core.accumulate(agg);
        }
        ArenaSlot {
            core: Box::new(core),
            stats_fn: report::<T>,
            totals_fn: totals::<T>,
        }
    }

    pub(crate) fn push_stats(&self, out: &mut Vec<ChannelStats>) {
        (self.stats_fn)(&*self.core, out);
    }

    pub(crate) fn push_totals(&self, agg: &mut ChannelAggregate) {
        (self.totals_fn)(&*self.core, agg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tag naming every tap.
    const ALL: u64 = u64::MAX;

    #[test]
    fn core_fifo_order_is_preserved() {
        let mut ch = ChannelCore::new("t", 8);
        for i in 0..5 {
            ch.try_send(0, i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(ch.try_recv(10), Some(i));
        }
        assert_eq!(ch.try_recv(10), None);
    }

    #[test]
    fn core_latency_hides_fresh_items() {
        let mut ch = ChannelCore::new("t", 4);
        ch.try_send(5, 42).unwrap();
        assert_eq!(ch.try_recv(5 + DEFAULT_LATENCY - 1), None);
        assert!(!ch.can_recv(5 + DEFAULT_LATENCY - 1));
        assert_eq!(ch.front_visible_at(), Some(5 + DEFAULT_LATENCY));
        assert_eq!(ch.try_recv(5 + DEFAULT_LATENCY), Some(42));
    }

    #[test]
    fn core_full_channel_rejects_and_counts_stalls() {
        let mut ch = ChannelCore::new("t", 2);
        ch.try_send(0, 'a').unwrap();
        ch.try_send(0, 'b').unwrap();
        assert_eq!(ch.try_send(0, 'c'), Err(SendError('c')));
        assert_eq!(ch.try_send(0, 'd'), Err(SendError('d')));
        let st = ch.stats();
        assert_eq!(st.full_stalls, 2);
        assert_eq!(st.pushes, 2);
        assert_eq!(st.max_occupancy, 2);
        assert_eq!(st.in_flight(), 2);
    }

    #[test]
    #[should_panic(expected = "nonzero capacity")]
    fn core_zero_capacity_panics() {
        let _ = ChannelCore::<u8>::new("bad", 0);
    }

    #[test]
    fn broadcast_readers_see_every_item_once() {
        let mut b = BroadcastCore::new("w", 3, 4);
        b.try_send(0, ALL, 7u32).unwrap();
        b.try_send(0, ALL, 8u32).unwrap();
        for r in 0..3 {
            assert_eq!(b.recv_map(5, r, |&v| v), Some(7));
            assert_eq!(b.recv_map(5, r, |&v| v), Some(8));
            assert_eq!(b.recv_map(5, r, |&v| v), None);
        }
        for r in 0..3 {
            let st = b.reader_stats(r);
            assert_eq!((st.pushes, st.pops, st.occupancy), (2, 2, 0));
        }
        // Fully consumed items are released: the whole capacity is free.
        (0..4).for_each(|v| b.try_send(6, ALL, v).unwrap());
        assert!(!b.can_send_all());
    }

    #[test]
    fn broadcast_slowest_reader_gates_capacity() {
        let mut b = BroadcastCore::new("w", 2, 2);
        b.try_send(0, ALL, 1u8).unwrap();
        b.try_send(0, ALL, 2u8).unwrap();
        // Reader 0 drains fully; reader 1 does not move.
        assert_eq!(b.recv_map(3, 0, |&v| v), Some(1));
        assert_eq!(b.recv_map(3, 0, |&v| v), Some(2));
        assert!(!b.can_send_all(), "reader 1 still at capacity");
        assert!(b.try_send(3, ALL, 3u8).is_err());
        assert_eq!(b.reader_stats(0).full_stalls, 1);
        // Reader 1 frees one slot.
        assert_eq!(b.recv_map(4, 1, |&v| v), Some(1));
        assert!(b.can_send_all());
        b.try_send(4, ALL, 3u8).unwrap();
        assert_eq!(b.occupancy(0), 1);
        assert_eq!(b.occupancy(1), 2);
    }

    #[test]
    fn broadcast_latency_applies_per_item() {
        let mut b = BroadcastCore::new("w", 2, 4);
        b.try_send(10, ALL, 5u8).unwrap();
        let at = 10 + DEFAULT_LATENCY;
        assert_eq!(b.tap_front_visible_at(0), Some(at));
        assert_eq!(b.recv_map(at - 1, 0, |&v| v), None);
        assert_eq!(b.recv_map(at, 0, |&v| v), Some(5));
    }

    #[test]
    fn broadcast_per_reader_stats() {
        let mut b = BroadcastCore::new("word", 2, 8);
        b.try_send(0, ALL, 1u8).unwrap();
        b.try_send(0, ALL, 2u8).unwrap();
        b.recv_map(5, 0, |_| ()).unwrap();
        let s0 = b.reader_stats(0);
        let s1 = b.reader_stats(1);
        assert_eq!(s0.name, "word0");
        assert_eq!(s1.name, "word1");
        assert_eq!(s0.pushes, 2);
        assert_eq!(s1.pushes, 2);
        assert_eq!(s0.pops, 1);
        assert_eq!(s1.pops, 0);
        assert_eq!(s0.occupancy, 1);
        assert_eq!(s1.occupancy, 2);
        assert_eq!(s0.max_occupancy, 2);
    }
}
