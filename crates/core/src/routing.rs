//! The data routing logic (§IV-C1): combiner, decoder and filter.
//!
//! The hot path is allocation-free: the combiner gathers each cycle's
//! records into a fixed-width inline [`WideWord`] (no per-word `Rc<Vec>`)
//! and broadcasts it once through the engine's broadcast channel (stored a
//! single time regardless of the M+X datapath fan-out) tagged with the
//! datapaths it feeds; each of those decoders looks its mask up in the
//! preset [`MaskTable`] and copies its values into a reusable buffer.

use std::sync::Arc;

use hls_sim::{
    hold_past, BcastGroupId, BcastReceiverId, BcastSenderId, ChannelBankId, Cycle, Kernel,
    Progress, SendError, SimContext, WakeSet,
};

use crate::app::Routed;
use crate::mask::{bits, mask_of, MaskTable};
use crate::PeId;

/// Widest wide-word the routing fabric supports: one slot per PrePE lane,
/// bounded by the decoder's preset-table width (§IV-C1 materialises a 2^N
/// table, so N is small by construction).
pub const MAX_WORD_SLOTS: usize = 16;

/// Largest number of destination PEs (M + X) a wide word carries masks for.
pub const MAX_DEST_PES: usize = 64;

/// A wide word: up to [`MAX_WORD_SLOTS`] routed records gathered in one
/// cycle, stored inline (no heap allocation) in structure-of-arrays form —
/// a contiguous destination-id lane next to a contiguous value lane,
/// mirroring the hardware wide word's field packing.
///
/// In hardware the combiner emits the records plus their destination ids and
/// every decoder compares all N ids against its own. The word stores exactly
/// that: one `u8` destination per slot. [`mask_for`](Self::mask_for) derives
/// a decoder's slot mask with a single pass over the (at most
/// [`MAX_WORD_SLOTS`]-byte) id lane, and [`dest_taps`](Self::dest_taps) — the
/// word's broadcast tag — names the decoders that find a nonzero mask, so
/// the per-word copy moves N + 9 bytes of routing metadata instead of a
/// materialised `M + X`-row mask table and cold datapaths never decode.
#[derive(Debug, Clone)]
pub struct WideWord<V> {
    len: u8,
    /// Slot payloads (the value lane). Slots past `len` hold defaults.
    values: [V; MAX_WORD_SLOTS],
    /// Slot destination PE ids (the key lane), parallel to `values`.
    dsts: [u8; MAX_WORD_SLOTS],
    /// Bit `p` set ⇔ some slot targets destination PE `p`.
    dest_taps: u64,
}

impl<V: Default> Default for WideWord<V> {
    fn default() -> Self {
        WideWord {
            len: 0,
            values: std::array::from_fn(|_| V::default()),
            dsts: [0; MAX_WORD_SLOTS],
            dest_taps: 0,
        }
    }
}

impl<V: Default> WideWord<V> {
    /// An empty word.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a routed record to the next slot.
    ///
    /// # Panics
    ///
    /// Panics if the word is full or `record.dst` exceeds [`MAX_DEST_PES`].
    pub fn push(&mut self, record: Routed<V>) {
        let slot = usize::from(self.len);
        assert!(
            slot < MAX_WORD_SLOTS,
            "wide word exceeds {MAX_WORD_SLOTS} slots"
        );
        assert!(
            (record.dst as usize) < MAX_DEST_PES,
            "destination PE {} exceeds the wide-word mask range",
            record.dst
        );
        self.dsts[slot] = record.dst as u8;
        self.dest_taps |= 1 << record.dst;
        self.values[slot] = record.value;
        self.len += 1;
    }

    /// Number of records gathered into this word.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// `true` when the word holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The N-bit mask of slots destined for PE `pe` (bit `i` set ⇔ slot `i`
    /// targets `pe`), derived by scanning the destination-id lane.
    ///
    /// # Panics
    ///
    /// Panics if `pe` exceeds [`MAX_DEST_PES`].
    pub fn mask_for(&self, pe: PeId) -> u16 {
        assert!(
            (pe as usize) < MAX_DEST_PES,
            "destination PE {pe} exceeds the wide-word mask range"
        );
        let mut mask = 0u16;
        for (slot, &d) in self.dsts[..usize::from(self.len)].iter().enumerate() {
            mask |= u16::from(PeId::from(d) == pe) << slot;
        }
        mask
    }

    /// The payload in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not occupied.
    pub fn value(&self, slot: usize) -> &V {
        assert!(slot < usize::from(self.len), "slot {slot} not occupied");
        &self.values[slot]
    }

    /// Bit `p` set ⇔ some slot targets destination PE `p`, maintained while
    /// gathering: the datapaths whose decoders find a nonzero mask.
    pub fn dest_taps(&self) -> u64 {
        self.dest_taps
    }

    /// Iterates the occupied slots' payloads in gather order.
    pub fn iter(&self) -> impl Iterator<Item = &V> {
        self.values[..usize::from(self.len)].iter()
    }
}

/// The combiner: "gathers N tuples together with their destination PE IDs
/// and duplicates them for M+X datapaths each owned by a destination PE".
///
/// The broadcast is atomic: the word is sent only when *every* datapath
/// channel has space. This is the stall point through which one overloaded
/// PE back-pressures the whole pipeline — the mechanism behind Fig. 2b.
pub struct CombinerKernel<V> {
    inputs: ChannelBankId<Routed<V>>,
    output: BcastSenderId<WideWord<V>>,
}

impl<V> CombinerKernel<V> {
    /// Creates the combiner over `inputs` (one per mapper lane) and the
    /// broadcast `output` fanning out to the destination-PE datapaths.
    ///
    /// # Panics
    ///
    /// Panics if there are more input lanes than [`MAX_WORD_SLOTS`].
    pub fn new(inputs: ChannelBankId<Routed<V>>, output: BcastSenderId<WideWord<V>>) -> Self {
        assert!(
            inputs.members() <= MAX_WORD_SLOTS,
            "combiner gathers at most {MAX_WORD_SLOTS} lanes per word"
        );
        CombinerKernel { inputs, output }
    }
}

impl<V: Clone + Default + Send + 'static> Kernel for CombinerKernel<V> {
    fn name(&self) -> &str {
        "combiner"
    }

    fn step(&mut self, cy: Cycle, ctx: &mut SimContext) -> Progress {
        // Stall unless every datapath can accept the word.
        if !ctx.bcast_can_send(self.output) {
            // Blocked: only a datapath pop can unblock us.
            return Progress::Sleep;
        }
        let mut word = WideWord::new();
        let mut in_flight = false;
        ctx.bank_with(self.inputs, |lanes| {
            for i in 0..lanes.members() {
                match lanes.try_recv(cy, i) {
                    Some(routed) => word.push(routed),
                    None => in_flight |= !lanes.is_empty(i),
                }
            }
        });
        if word.is_empty() {
            // Park only when the lanes are structurally empty; in-flight
            // items (pushed, not yet visible) arrive without a new event.
            return Progress::busy_if(in_flight);
        }
        ctx.bcast_try_send_tagged(cy, self.output, word.dest_taps(), word)
            .unwrap_or_else(|_| unreachable!("checked"));
        Progress::Busy
    }

    fn is_idle(&self, ctx: &SimContext) -> bool {
        (0..self.inputs.members()).all(|i| ctx.bank_is_empty(self.inputs, i))
    }

    fn hold_until(&self, cy: Cycle, ctx: &SimContext) -> Option<Cycle> {
        if !ctx.bcast_can_send(self.output) {
            // Stalled broadcast: only a datapath pop event unblocks it.
            return Some(Cycle::MAX);
        }
        (0..self.inputs.members()).try_fold(Cycle::MAX, |earliest, i| {
            hold_past(earliest, ctx.bank_recv_visible_at(self.inputs, i), cy)
        })
    }

    fn wake_set(&self) -> WakeSet {
        WakeSet::new()
            .after_pop_on_bcast(self.output)
            .after_push_on_bank(self.inputs)
    }
}

/// Decoded words each datapath holds: the one its filter is forwarding and
/// one queued behind it. The decoder → filter stream of an HLS dataflow
/// region is double-buffered, so the decoder takes the next word while the
/// filter still forwards the last one.
const FILTER_WORDS: usize = 2;

/// One datapath's decoded words, not yet forwarded to its PE: a ring of
/// [`FILTER_WORDS`] record buffers, reused across words — no per-word
/// allocation.
struct Datapath<V> {
    records: [[V; MAX_WORD_SLOTS]; FILTER_WORDS],
    lens: [u8; FILTER_WORDS],
    /// The word being forwarded.
    head: usize,
    /// Words held, `0..=FILTER_WORDS`.
    words: usize,
    /// The head word's next record.
    next: u8,
}

/// All `M + X` decoder + filter datapaths (one per destination PE),
/// stepped as one kernel, `filter#bank`.
///
/// Each decoder compares a word's destination ids against its PE's id and
/// looks the resulting mask up in the preset [`MaskTable`]; its filter then
/// forwards the selected records to the PE's input queue, one per cycle —
/// this serialisation is why a PE that attracts many records per word
/// becomes the bottleneck under skew. Each datapath holds up to two
/// decoded words (the double-buffered decoder → filter stream), so a word
/// with many of its records stalls its tap, and the shared word ring
/// behind it, only once the next word is decoded as well.
///
/// Per cycle, every datapath with room for a word takes the next visible
/// word from its tap — all of them in one
/// [`bcast_recv_taps`](SimContext::bcast_recv_taps) call — and then every
/// datapath holding records forwards one, in PE order. Datapaths share only
/// the broadcast word (see the [crate-level equivalence rules](crate)). A
/// word is decoded only on the datapaths it is tagged for; on the others (a
/// zero mask — the common case under skew) it is popped silently in that
/// same call, at the cycle it becomes visible. The bank may sleep only
/// when *every* datapath could: no records pending anywhere **at step
/// start** (a datapath that forwarded this cycle is busy, even if that was
/// its last record) and no tap buffering a word.
pub struct FilterBank<V> {
    table: Arc<MaskTable>,
    group: BcastGroupId<WideWord<V>>,
    taps: Vec<BcastReceiverId<WideWord<V>>>,
    /// PE input queues of datapaths `0..M`.
    pri_out: ChannelBankId<V>,
    /// PE input queues of datapaths `M..M+X`.
    sec_out: ChannelBankId<V>,
    paths: Vec<Datapath<V>>,
    /// Bit `j` set ⇔ datapath `j` holds records not yet forwarded.
    pending: u64,
    /// Bit `j` set ⇔ datapath `j` holds [`FILTER_WORDS`] words: no room for
    /// the next.
    full: u64,
}

impl<V: Default> FilterBank<V> {
    /// Creates the datapaths for `taps` (tap `j` feeds destination PE `j`),
    /// decoding `word_width`-slot words into `pri_out` (PEs `0..M`) and
    /// `sec_out` (PEs `M..M+X`).
    ///
    /// # Panics
    ///
    /// Panics if `word_width` exceeds the preset table's lane count — a
    /// silent mask overflow in hardware — or [`MAX_WORD_SLOTS`], or if the
    /// output banks do not have exactly one queue per tap.
    pub fn new(
        word_width: u32,
        table: Arc<MaskTable>,
        taps: Vec<BcastReceiverId<WideWord<V>>>,
        pri_out: ChannelBankId<V>,
        sec_out: ChannelBankId<V>,
    ) -> Self {
        assert!(
            word_width as usize <= MAX_WORD_SLOTS,
            "word width {word_width} exceeds {MAX_WORD_SLOTS} slots"
        );
        assert!(
            word_width <= table.lanes(),
            "word width {word_width} exceeds the {}-lane mask table — masks would overflow",
            table.lanes()
        );
        assert!(
            taps.len() <= MAX_DEST_PES,
            "a filter bank serves at most {MAX_DEST_PES} datapaths"
        );
        assert_eq!(
            taps.len(),
            pri_out.members() + sec_out.members(),
            "one PE input queue per datapath"
        );
        FilterBank {
            table,
            group: taps.first().expect("at least one datapath").group(),
            paths: (0..taps.len())
                .map(|_| Datapath {
                    records: std::array::from_fn(|_| std::array::from_fn(|_| V::default())),
                    lens: [0; FILTER_WORDS],
                    head: 0,
                    words: 0,
                    next: 0,
                })
                .collect(),
            taps,
            pri_out,
            sec_out,
            pending: 0,
            full: 0,
        }
    }
}

impl<V: Default + Send + 'static> FilterBank<V> {
    /// Forwards one record of its head word from every pending datapath
    /// feeding `out` (datapaths `first..first + out.members()`). A failed
    /// send keeps the record and counts a full stall, every cycle it is
    /// retried.
    fn forward(&mut self, cy: Cycle, ctx: &mut SimContext, out: ChannelBankId<V>, first: usize) {
        let todo = self.pending & (mask_of(out.members()) << first);
        if todo == 0 {
            return;
        }
        let (paths, pending, full) = (&mut self.paths, &mut self.pending, &mut self.full);
        ctx.bank_with(out, |out| {
            for j in bits(todo) {
                let path = &mut paths[j];
                let slot = &mut path.records[path.head][usize::from(path.next)];
                match out.try_send(cy, j - first, std::mem::take(slot)) {
                    Ok(()) => {
                        path.next += 1;
                        if path.next == path.lens[path.head] {
                            path.next = 0;
                            path.head = (path.head + 1) % FILTER_WORDS;
                            path.words -= 1;
                            *full &= !(1 << j);
                            if path.words == 0 {
                                *pending &= !(1 << j);
                            }
                        }
                    }
                    Err(SendError(record)) => *slot = record,
                }
            }
        });
    }
}

impl<V: Clone + Default + Send + 'static> Kernel for FilterBank<V> {
    fn name(&self) -> &str {
        "filter#bank"
    }

    fn step(&mut self, cy: Cycle, ctx: &mut SimContext) -> Progress {
        // Decode overlaps with the first forward (the hardware
        // decoder+filter is pipelined), so a word with k matches decoded
        // into an empty datapath starts forwarding in the same cycle.
        let want = mask_of(self.taps.len()) & !self.full;
        let (table, paths) = (&self.table, &mut self.paths);
        let (pending, full) = (&mut self.pending, &mut self.full);
        let (_, buffered) = ctx.bcast_recv_taps(cy, self.group, want, |j, word| {
            // Look the word's destination mask up in the preset table,
            // exactly like the hardware decoder (§IV-C1), and copy the
            // matching values into the datapath's free word buffer. A zero
            // mask comes only from a producer that tags every tap.
            debug_assert!(word.len() as u32 <= table.lanes());
            let mask = word.mask_for(j as PeId);
            if mask == 0 {
                return;
            }
            let (count, positions) = table.decode(u32::from(mask));
            let path = &mut paths[j];
            let tail = (path.head + path.words) % FILTER_WORDS;
            for (record, &pos) in path.records[tail]
                .iter_mut()
                .zip(&positions[..usize::from(count)])
            {
                *record = word.value(usize::from(pos)).clone();
            }
            path.lens[tail] = count;
            path.words += 1;
            *pending |= 1 << j;
            if path.words == FILTER_WORDS {
                *full |= 1 << j;
            }
        });
        if self.pending == 0 {
            return Progress::busy_if(buffered != 0);
        }
        self.forward(cy, ctx, self.pri_out, 0);
        self.forward(cy, ctx, self.sec_out, self.pri_out.members());
        // Backpressured or freshly decoded either way: retry every cycle
        // while anything is pending — failed sends count as full stalls,
        // exactly like the original engine.
        Progress::Busy
    }

    fn is_idle(&self, ctx: &SimContext) -> bool {
        self.pending == 0 && self.taps.iter().all(|&tap| ctx.bcast_is_empty(tap))
    }

    fn hold_until(&self, cy: Cycle, ctx: &SimContext) -> Option<Cycle> {
        if self.pending != 0 {
            // Forwarding retries every cycle (counting stalls when
            // backpressured): never skippable.
            return None;
        }
        self.taps.iter().try_fold(Cycle::MAX, |earliest, &tap| {
            hold_past(earliest, ctx.bcast_recv_visible_at(tap), cy)
        })
    }

    fn wake_set(&self) -> WakeSet {
        WakeSet::new().after_push_on_bcast(self.taps[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_sim::Engine;

    fn word(dsts: &[u32]) -> WideWord<u32> {
        let mut w = WideWord::new();
        for &d in dsts {
            w.push(Routed::new(d, d * 10));
        }
        w
    }

    #[test]
    fn wide_word_tracks_masks() {
        let w = word(&[2, 1, 2, 3]);
        assert_eq!(w.len(), 4);
        assert_eq!(w.mask_for(2), 0b0101);
        assert_eq!(w.mask_for(1), 0b0010);
        assert_eq!(w.mask_for(3), 0b1000);
        assert_eq!(w.mask_for(0), 0);
        assert_eq!(w.value(1), &10);
        assert_eq!(w.iter().count(), 4);
        assert_eq!(w.dest_taps(), 0b1110);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn wide_word_rejects_overflow() {
        let mut w = WideWord::new();
        for _ in 0..=MAX_WORD_SLOTS {
            w.push(Routed::new(0u32, 0u32));
        }
    }

    #[test]
    fn combiner_gathers_and_broadcasts() {
        let mut engine = Engine::new();
        let lanes = engine.channel_bank("in", 0, 2, 8);
        let (word_tx, word_rx) = engine.broadcast_channel::<WideWord<u32>>("w", 2, 8);
        engine.context_mut().bank_with(lanes, |lanes| {
            lanes.try_send(0, 0, Routed::new(0u32, 1u32)).unwrap();
            lanes.try_send(0, 1, Routed::new(1u32, 2u32)).unwrap();
        });
        engine.add_kernel(CombinerKernel::new(lanes, word_tx));
        engine.run_cycles(3);
        let ctx = engine.context_mut();
        let wx = ctx.bcast_recv_map(5, word_rx[0], |w| (w.len(), w.mask_for(0), w.mask_for(1)));
        let wy = ctx.bcast_recv_map(5, word_rx[1], |w| w.len());
        assert_eq!(wx, Some((2, 0b01, 0b10)));
        assert_eq!(wy, Some(2), "broadcast shares one word across datapaths");
    }

    #[test]
    fn combiner_stalls_atomically_when_any_output_full() {
        let mut engine = Engine::new();
        let lanes = engine.channel_bank("in", 0, 1, 8);
        let (word_tx, word_rx) = engine.broadcast_channel::<WideWord<u32>>("w", 2, 1);
        // Pre-fill: reader 1 never drains, so the group is at capacity.
        engine
            .context_mut()
            .bcast_try_send(0, word_tx, word(&[9]))
            .unwrap();
        engine
            .context_mut()
            .bcast_recv_map(1, word_rx[0], |_| ())
            .unwrap();
        engine
            .context_mut()
            .bank_with(lanes, |lanes| lanes.try_send(0, 0, Routed::new(0u32, 5u32)))
            .unwrap();
        engine.add_kernel(CombinerKernel::new(lanes, word_tx));
        engine.run_cycles(5);
        let stats = engine.channel_stats();
        let w0 = stats.iter().find(|s| s.name == "w0").unwrap();
        assert_eq!(w0.pushes, 1, "stalled broadcast must be atomic");
        assert_eq!(w0.full_stalls, 0, "a stalled combiner attempts nothing");
        let input = stats.iter().find(|s| s.name == "in0").unwrap();
        assert_eq!(input.pops, 0, "input not consumed while stalled");
    }

    /// A filter bank over `pri + sec` datapaths of `width`-slot words, with
    /// `depth`-deep PE queues; returns the engine, the bank's kernel id, the
    /// word sender and the two PE-queue banks.
    #[allow(clippy::type_complexity)]
    fn filter_bank(
        width: u32,
        pri: usize,
        sec: usize,
        depth: usize,
    ) -> (
        Engine,
        hls_sim::KernelId,
        BcastSenderId<WideWord<u32>>,
        ChannelBankId<u32>,
        ChannelBankId<u32>,
    ) {
        let mut engine = Engine::new();
        let (word_tx, taps) = engine.broadcast_channel::<WideWord<u32>>("w", pri + sec, 8);
        let pri_out = engine.channel_bank("pein", 0, pri, depth);
        let sec_out = engine.channel_bank("pein", pri, sec, depth);
        let table = Arc::new(MaskTable::new(width));
        let bank = engine.add_kernel(FilterBank::new(width, table, taps, pri_out, sec_out));
        (engine, bank, word_tx, pri_out, sec_out)
    }

    fn pushes(engine: &Engine, name: &str) -> u64 {
        let stats = engine.channel_stats();
        stats.iter().find(|s| s.name == name).expect(name).pushes
    }

    #[test]
    fn filter_bank_extracts_only_matching_slots_per_datapath() {
        let (mut engine, _, word_tx, pri_out, sec_out) = filter_bank(4, 3, 1, 8);
        engine
            .context_mut()
            .bcast_try_send(0, word_tx, word(&[2, 1, 2, 3]))
            .unwrap();
        engine.run_cycles(6);
        let ctx = engine.context_mut();
        let mut drain = |bank, i| {
            std::iter::from_fn(|| ctx.bank_with(bank, |b| b.try_recv(10, i))).collect::<Vec<_>>()
        };
        assert_eq!(drain(pri_out, 0), vec![]);
        assert_eq!(drain(pri_out, 1), vec![10]);
        assert_eq!(drain(pri_out, 2), vec![20, 20]);
        assert_eq!(drain(sec_out, 0), vec![30], "datapath 3 feeds `pein3`");
        let taps = engine.channel_stats();
        assert!(
            taps.iter()
                .filter(|s| s.name.starts_with('w'))
                .all(|s| s.pops == 1),
            "every tap consumed the word, zero-mask ones included"
        );
    }

    #[test]
    fn filter_bank_serialises_one_record_per_cycle_per_datapath() {
        let (mut engine, _, word_tx, ..) = filter_bank(4, 2, 0, 16);
        engine
            .context_mut()
            .bcast_try_send(0, word_tx, word(&[1, 1, 1, 0]))
            .unwrap();
        // cycle 1: decode + first push (pipelined); then one per cycle —
        // on each datapath independently.
        engine.run_cycles(3); // cycles 0..=2
        assert_eq!(pushes(&engine, "pein1"), 2);
        assert_eq!(pushes(&engine, "pein0"), 1);
        engine.run_cycles(3);
        assert_eq!(pushes(&engine, "pein1"), 3);
    }

    #[test]
    fn filter_bank_counts_a_stall_per_backpressured_retry() {
        let (mut engine, bank, word_tx, ..) = filter_bank(2, 2, 0, 1);
        engine
            .context_mut()
            .bcast_try_send(0, word_tx, word(&[1, 1]))
            .unwrap();
        engine.run_cycles(20);
        // Only one record fits downstream; the second stays pending, and
        // every retry counts a stall like the original engine.
        let stats = engine.channel_stats();
        let out = stats.iter().find(|s| s.name == "pein1").unwrap();
        assert_eq!(out.pushes, 1);
        assert!(out.full_stalls > 10, "stalls {}", out.full_stalls);
        assert!(engine.kernel_awake(bank), "a pending record keeps it hot");
    }

    /// A two-datapath bank of 4-slot words driven by hand, to read its
    /// per-step answers.
    fn hand_driven_bank() -> (Engine, FilterBank<u32>, BcastSenderId<WideWord<u32>>) {
        let mut engine = Engine::new();
        let (word_tx, taps) = engine.broadcast_channel::<WideWord<u32>>("w", 2, 8);
        let pri_out = engine.channel_bank("pein", 0, 2, 8);
        let sec_out = engine.channel_bank("pein", 2, 0, 8);
        let table = Arc::new(MaskTable::new(4));
        let bank = FilterBank::new(4, table, taps, pri_out, sec_out);
        (engine, bank, word_tx)
    }

    fn pops(engine: &Engine, name: &str) -> u64 {
        let stats = engine.channel_stats();
        stats.iter().find(|s| s.name == name).expect(name).pops
    }

    /// The trap the first banked prototype fell into: the bank may sleep
    /// only when *every* datapath would have. Here datapath 1 forwards its
    /// last pending record in a step in which its tap still buffers the
    /// next word while every other tap is empty — a per-datapath kernel
    /// returns `Busy` after any forward, so the bank must too, or the
    /// buffered word is never decoded (no further push will wake it).
    ///
    /// With two decoded words per datapath, that step needs datapath 1 to
    /// fall a word behind datapath 0 (it holds two words and refuses a
    /// third), and then to pop a zero-mask word in the step that forwards
    /// its last record.
    #[test]
    fn filter_bank_stays_busy_after_a_last_forward_with_a_word_still_buffered() {
        let (mut engine, mut bank, word_tx) = hand_driven_bank();
        let ctx = engine.context_mut();
        for dsts in [&[1, 1, 1][..], &[1], &[0], &[1]] {
            ctx.bcast_try_send(0, word_tx, word(dsts)).unwrap();
        }
        // Cycle 1: both taps take word A; datapath 1 decodes three records
        // and forwards the first. Cycle 2: datapath 1 queues B behind A.
        assert_eq!(bank.step(1, ctx), Progress::Busy);
        assert_eq!(bank.step(2, ctx), Progress::Busy);
        // Cycle 3: datapath 1 holds two words and refuses Z; datapath 0
        // decodes Z and forwards its one record.
        assert_eq!(bank.step(3, ctx), Progress::Busy);
        // Cycle 4: datapath 0 pops C (nothing for it) and its tap is now
        // empty; datapath 1 pops Z (nothing for it) and forwards its *last*
        // record, B's, while its tap still buffers C. After the step no
        // record is pending anywhere — only that tap says the bank is not
        // done.
        assert_eq!(bank.step(4, ctx), Progress::Busy);
        assert!(!bank.is_idle(ctx), "word C still buffered for datapath 1");
        assert_eq!((pops(&engine, "w0"), pops(&engine, "w1")), (4, 3));
        let ctx = engine.context_mut();
        // Cycle 5: datapath 1 decodes C and forwards it; cycle 6: all done.
        assert_eq!(bank.step(5, ctx), Progress::Busy);
        assert_eq!(bank.step(6, ctx), Progress::Sleep);
        assert!(bank.is_idle(ctx));
        assert_eq!(pushes(&engine, "pein0"), 1);
        assert_eq!(pushes(&engine, "pein1"), 5);
    }

    /// A datapath decodes the next word while its filter forwards the last
    /// one, and refuses a third until the first is forwarded.
    #[test]
    fn filter_datapath_queues_one_word_behind_the_one_it_forwards() {
        let (mut engine, mut bank, word_tx) = hand_driven_bank();
        for dsts in [&[1, 1, 1][..], &[1], &[1]] {
            engine
                .context_mut()
                .bcast_try_send(0, word_tx, word(dsts))
                .unwrap();
        }
        // After each of cycles 1..=5: (words taken by tap 1, records
        // forwarded to PE 1). A (3 records) is taken at 1, B while A still
        // forwards at 2, C only at 4, once A is done at 3.
        let expected = [(1, 1), (2, 2), (2, 3), (3, 4), (3, 5)];
        for (cy, want) in (1..).zip(expected) {
            assert_eq!(bank.step(cy, engine.context_mut()), Progress::Busy);
            let got = (pops(&engine, "w1"), pushes(&engine, "pein1"));
            assert_eq!(got, want, "after cycle {cy}");
        }
        assert_eq!(bank.step(6, engine.context_mut()), Progress::Sleep);
    }

    #[test]
    fn filter_bank_holds_until_the_next_word_and_never_while_forwarding() {
        let (mut engine, mut bank, word_tx) = hand_driven_bank();
        let ctx = engine.context_mut();
        assert_eq!(bank.hold_until(5, ctx), Some(Cycle::MAX), "all taps empty");
        ctx.bcast_try_send(5, word_tx, word(&[0, 0])).unwrap();
        assert_eq!(bank.hold_until(5, ctx), Some(6), "word visible at 6");
        assert_eq!(bank.hold_until(6, ctx), None, "decodable this cycle");
        assert_eq!(bank.step(6, ctx), Progress::Busy);
        assert_eq!(bank.hold_until(7, ctx), None, "a record is pending");
    }

    #[test]
    #[should_panic(expected = "masks would overflow")]
    fn decoder_rejects_word_wider_than_table() {
        let table = Arc::new(MaskTable::new(4));
        let mut engine = Engine::new();
        let (_word_tx, taps) = engine.broadcast_channel::<WideWord<u32>>("w", 1, 8);
        let pri_out = engine.channel_bank::<u32>("pein", 0, 1, 1);
        let sec_out = engine.channel_bank::<u32>("pein", 1, 0, 1);
        let _ = FilterBank::new(8, table, taps, pri_out, sec_out);
    }
}
