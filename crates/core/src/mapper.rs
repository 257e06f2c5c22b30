//! The mapper module (§IV-C2, Fig. 4): mapping table, counter array and
//! round-robin workload redirecting.

use hls_sim::{hold_past, ChannelBankId, Cycle, Kernel, Progress, SimContext, WakeSet};

use crate::app::Routed;
use crate::control::ControlId;
use crate::mask::bits;
use crate::PeId;

/// The pure mapping-table state machine, separated from the kernel shell so
/// it can be unit-tested against the paper's Fig. 4 walk-through.
///
/// Each mapper maintains an `M × (X+1)` mapping table and an `M`-entry
/// counter array. Row `i` starts as `[i, i, …, i]` with counter 1; applying
/// a scheduling-plan pair `(sec → pri)` writes `sec` at index `counter[pri]`
/// of row `pri` and increments the counter. Redirecting looks up row `dst`
/// round-robin over its first `counter[dst]` entries.
///
/// # Example
///
/// The exact sequence of the paper's Fig. 4 (four PriPEs, three SecPEs,
/// plan `4→2; 5→2; 6→0`):
///
/// ```
/// use ditto_core::mapper::Mapper;
///
/// let mut m = Mapper::new(4, 3);
/// m.apply_pair(4, 2);
/// m.apply_pair(5, 2);
/// m.apply_pair(6, 0);
/// // PriPE 0 alternates 0, 6, 0, 6, ...
/// assert_eq!([m.redirect(0), m.redirect(0), m.redirect(0), m.redirect(0)], [0, 6, 0, 6]);
/// // PriPE 2 round-robins 2, 4, 5, 2, ...
/// assert_eq!([m.redirect(2), m.redirect(2), m.redirect(2), m.redirect(2)], [2, 4, 5, 2]);
/// // Unhelped PriPEs map to themselves.
/// assert_eq!(m.redirect(1), 1);
/// assert_eq!(m.redirect(3), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Mapper {
    pub(crate) m_pri: u32,
    x_sec: u32,
    /// `M` rows of `X+1` destination PE ids, row-major.
    table: Vec<PeId>,
    /// Available PEs per row, counted from the left (init 1).
    counter: Vec<u8>,
    /// Round-robin cursor per row.
    cursor: Vec<u8>,
}

impl Mapper {
    /// Creates the initial mapping table for `m_pri` PriPEs and `x_sec`
    /// schedulable SecPEs.
    ///
    /// # Panics
    ///
    /// Panics if `m_pri` is zero.
    pub fn new(m_pri: u32, x_sec: u32) -> Self {
        assert!(m_pri > 0, "need at least one PriPE");
        Mapper {
            m_pri,
            x_sec,
            table: (0..m_pri)
                .flat_map(|i| std::iter::repeat_n(i, x_sec as usize + 1))
                .collect(),
            counter: vec![1; m_pri as usize],
            cursor: vec![0; m_pri as usize],
        }
    }

    /// Applies one `(SecPE → PriPE)` scheduling pair (one per cycle in
    /// hardware, "for better timing").
    ///
    /// # Panics
    ///
    /// Panics if `pri >= M`, if `sec` is not a SecPE id (`M..M+X`), or if
    /// the row is already full.
    pub fn apply_pair(&mut self, sec: PeId, pri: PeId) {
        assert!(pri < self.m_pri, "pri {pri} out of range");
        assert!(
            sec >= self.m_pri && sec < self.m_pri + self.x_sec,
            "sec {sec} is not a SecPE id"
        );
        let stride = self.stride();
        let c = &mut self.counter[pri as usize];
        assert!((*c as usize) < stride, "row {pri} already has X+1 entries");
        self.table[pri as usize * stride + *c as usize] = sec;
        *c += 1;
    }

    /// Redirects a tuple destined for PriPE `dst`, advancing the row's
    /// round-robin cursor.
    ///
    /// # Panics
    ///
    /// Panics if `dst >= M`.
    pub fn redirect(&mut self, dst: PeId) -> PeId {
        let row = dst as usize;
        let idx = self.cursor[row];
        // The cursor stays below the counter, so wrapping is a compare.
        self.cursor[row] = if idx + 1 == self.counter[row] {
            0
        } else {
            idx + 1
        };
        self.table[row * self.stride() + idx as usize]
    }

    /// Entries per table row, `X + 1`.
    fn stride(&self) -> usize {
        self.x_sec as usize + 1
    }

    /// Looks up without advancing the cursor (identity when no SecPE is
    /// attached).
    pub fn peek(&self, dst: PeId) -> PeId {
        self.table[dst as usize * self.stride() + self.cursor[dst as usize] as usize]
    }

    /// Resets the table to identity and the counters to one — executed when
    /// the profiler announces a new generation.
    pub fn reset(&mut self) {
        let stride = self.stride();
        for (i, row) in self.table.chunks_exact_mut(stride).enumerate() {
            row.fill(i as PeId);
        }
        self.counter.fill(1);
        self.cursor.fill(0);
    }

    /// Number of destination PEs (incl. SecPEs) row `dst` currently cycles
    /// through.
    pub fn fan_out(&self, dst: PeId) -> u8 {
        self.counter[dst as usize]
    }
}

/// All `N` mappers (Fig. 3 instantiates mapper `#0..#N-1`, one per PrePE
/// lane), stepped as one kernel, `mapper#bank`.
///
/// Per cycle every mapper:
/// 1. applies at most one scheduling-plan pair from the profiler,
/// 2. pops at most one routed record from its PrePE, redirects the
///    destination through its mapping table (unless SecPE routing is
///    suspended) and forwards it to its combiner lane,
/// 3. feeds the *original* PriPE id to the profiler while profiling is on.
///
/// Mappers are served in lane order and meet only through their own queues
/// and [`Control`](crate::Control)'s per-SecPE in-flight counters, which
/// commute (see the [crate-level equivalence rules](crate)). A generation
/// bump resets every table at the bank's first step after it, before any
/// pair or tuple of that step — for a lane with nothing to forward that is
/// unobservable, because it forwards nothing in between.
pub struct MapperBank<V> {
    mappers: Vec<Mapper>,
    generation: u64,
    control: ControlId,
    plans: ChannelBankId<(PeId, PeId)>,
    input: ChannelBankId<Routed<V>>,
    output: ChannelBankId<Routed<V>>,
    profiler_feed: ChannelBankId<PeId>,
    /// Records popped this step with their lane, between the resolutions
    /// of the input and output banks. Reused; never reallocates after the
    /// first full step.
    staged: Vec<(usize, Routed<V>)>,
}

impl<V> MapperBank<V> {
    /// Creates one mapper per member of `input`.
    ///
    /// # Panics
    ///
    /// Panics unless all four banks have the same number of members.
    pub fn new(
        m_pri: u32,
        x_sec: u32,
        control: ControlId,
        plans: ChannelBankId<(PeId, PeId)>,
        input: ChannelBankId<Routed<V>>,
        output: ChannelBankId<Routed<V>>,
        profiler_feed: ChannelBankId<PeId>,
    ) -> Self {
        let lanes = input.members();
        assert!(
            plans.members() == lanes
                && output.members() == lanes
                && profiler_feed.members() == lanes,
            "one plan, output and feed queue per mapper lane"
        );
        MapperBank {
            mappers: vec![Mapper::new(m_pri, x_sec); lanes],
            generation: 0,
            control,
            plans,
            input,
            output,
            profiler_feed,
            staged: Vec::with_capacity(lanes),
        }
    }
}

impl<V: Send + 'static> Kernel for MapperBank<V> {
    fn name(&self) -> &str {
        "mapper#bank"
    }

    fn step(&mut self, cy: Cycle, ctx: &mut SimContext) -> Progress {
        // One control-block resolution per step: the flags only change
        // inside other kernels' steps, never mid-step, so reading them all
        // up front is exact.
        let control = ctx.state(self.control);
        let gen = control.generation();
        let route_to_sec = control.route_to_sec();
        let feed_profiler = control.feed_profiler();

        // Generation change: reset to identity before anything else.
        if gen != self.generation {
            self.mappers.iter_mut().for_each(Mapper::reset);
            self.generation = gen;
        }

        // One scheduling-plan pair per lane per cycle. A lane may park only
        // with no pair waiting and nothing it could forward.
        let mappers = &mut self.mappers;
        let mut busy = ctx.bank_with(self.plans, |plans| {
            let mut waiting = false;
            for (i, mapper) in mappers.iter_mut().enumerate() {
                if let Some((sec, pri)) = plans.try_recv(cy, i) {
                    mapper.apply_pair(sec, pri);
                }
                waiting |= !plans.is_empty(i);
            }
            waiting
        });

        // One tuple per lane per cycle, gated by downstream space.
        let room = ctx.bank_with(self.output, |out| out.room_mask());
        let staged = &mut self.staged;
        ctx.bank_with(self.input, |input| {
            for i in bits(room) {
                match input.try_recv(cy, i) {
                    Some(routed) => staged.push((i, routed)),
                    None => busy |= !input.is_empty(i),
                }
            }
        });
        if staged.is_empty() {
            return Progress::busy_if(busy);
        }

        if feed_profiler {
            // Drop the feed if the profiler queue is full; the hardware
            // hist port accepts one id per lane per cycle by design.
            ctx.bank_with(self.profiler_feed, |feed| {
                for (i, routed) in staged.iter() {
                    let _ = feed.try_send(cy, *i, routed.dst);
                }
            });
        }
        if route_to_sec {
            // Exact in-flight accounting for the drain protocol.
            let control = ctx.state_mut(self.control);
            for (i, routed) in staged.iter_mut() {
                let mapper = &mut self.mappers[*i];
                routed.dst = mapper.redirect(routed.dst);
                if routed.dst >= mapper.m_pri {
                    control.sec_inflight_inc((routed.dst - mapper.m_pri) as usize);
                }
            }
        }
        ctx.bank_with(self.output, |out| {
            for (i, routed) in staged.drain(..) {
                out.try_send(cy, i, routed)
                    .unwrap_or_else(|_| unreachable!("checked room"));
            }
        });
        Progress::Busy
    }

    fn is_idle(&self, ctx: &SimContext) -> bool {
        (0..self.mappers.len()).all(|i| ctx.bank_is_empty(self.input, i))
    }

    fn hold_until(&self, cy: Cycle, ctx: &SimContext) -> Option<Cycle> {
        if ctx.state(self.control).generation() != self.generation {
            // A pending table reset changes routing: simulate it.
            return None;
        }
        let mut earliest = Cycle::MAX;
        for i in 0..self.mappers.len() {
            // The earliest cycle a queued plan pair becomes applicable.
            earliest = hold_past(earliest, ctx.bank_recv_visible_at(self.plans, i), cy)?;
            // Without downstream room tuples can't move; only a plan
            // arrival or a pop event changes anything.
            if ctx.bank_can_send(self.output, i) {
                earliest = hold_past(earliest, ctx.bank_recv_visible_at(self.input, i), cy)?;
            }
        }
        Some(earliest)
    }

    fn wake_set(&self) -> WakeSet {
        WakeSet::new()
            .after_push_on_bank(self.plans)
            .after_push_on_bank(self.input)
            .after_pop_on_bank(self.output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_table_is_identity() {
        let mut m = Mapper::new(4, 3);
        for dst in 0..4 {
            assert_eq!(m.redirect(dst), dst);
            assert_eq!(m.redirect(dst), dst); // stays identity
            assert_eq!(m.fan_out(dst), 1);
        }
    }

    #[test]
    fn fig4_walkthrough() {
        // Fig. 4b/4c: plan 4->2; 5->2; 6->0 with four PriPEs, three SecPEs.
        let mut m = Mapper::new(4, 3);
        m.apply_pair(4, 2);
        m.apply_pair(5, 2);
        m.apply_pair(6, 0);
        assert_eq!(m.fan_out(2), 3);
        assert_eq!(m.fan_out(0), 2);
        // Row 2 cycles 2, 4, 5 (Fig. 4c's mapping sequence for PriPE 2).
        let seq: Vec<_> = (0..6).map(|_| m.redirect(2)).collect();
        assert_eq!(seq, vec![2, 4, 5, 2, 4, 5]);
        // Row 0 alternates 0, 6.
        let seq: Vec<_> = (0..4).map(|_| m.redirect(0)).collect();
        assert_eq!(seq, vec![0, 6, 0, 6]);
    }

    #[test]
    fn reset_restores_identity() {
        let mut m = Mapper::new(4, 2);
        m.apply_pair(4, 1);
        m.redirect(1);
        m.reset();
        for dst in 0..4 {
            assert_eq!(m.redirect(dst), dst);
            assert_eq!(m.fan_out(dst), 1);
        }
    }

    #[test]
    fn round_robin_balances_exactly() {
        let mut m = Mapper::new(2, 3);
        m.apply_pair(2, 0);
        m.apply_pair(3, 0);
        m.apply_pair(4, 0);
        let mut counts = [0u32; 5];
        for _ in 0..400 {
            counts[m.redirect(0) as usize] += 1;
        }
        assert_eq!(counts[0], 100);
        assert_eq!(counts[2], 100);
        assert_eq!(counts[3], 100);
        assert_eq!(counts[4], 100);
    }

    #[test]
    #[should_panic(expected = "not a SecPE id")]
    fn rejects_pri_as_sec() {
        Mapper::new(4, 2).apply_pair(1, 0);
    }

    #[test]
    #[should_panic(expected = "already has")]
    fn rejects_row_overflow() {
        let mut m = Mapper::new(2, 1);
        m.apply_pair(2, 0);
        m.apply_pair(2, 0);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut m = Mapper::new(2, 1);
        m.apply_pair(2, 0);
        assert_eq!(m.peek(0), 0);
        assert_eq!(m.peek(0), 0);
        assert_eq!(m.redirect(0), 0);
        assert_eq!(m.peek(0), 2);
    }

    use crate::control::Control;
    use hls_sim::Engine;

    /// A two-lane `M = 3, X = 2` mapper bank driven by hand.
    #[allow(clippy::type_complexity)]
    fn hand_driven_bank() -> (
        Engine,
        MapperBank<u32>,
        ControlId,
        ChannelBankId<(PeId, PeId)>,
        ChannelBankId<Routed<u32>>,
        ChannelBankId<Routed<u32>>,
    ) {
        let mut engine = Engine::new();
        let control = engine.state(Control::new(2));
        let plans = engine.channel_bank("plan", 0, 2, 3);
        let input = engine.channel_bank("pre", 0, 2, 8);
        let output = engine.channel_bank("map", 0, 2, 8);
        let feeds = engine.channel_bank("feed", 0, 2, 4);
        let bank = MapperBank::new(3, 2, control, plans, input, output, feeds);
        (engine, bank, control, plans, input, output)
    }

    #[test]
    fn bank_applies_one_pair_per_lane_per_cycle_and_resets_on_a_new_generation() {
        let (mut engine, mut bank, control, plans, ..) = hand_driven_bank();
        let ctx = engine.context_mut();
        // Both pairs queue on lane 0 only; lane 1 gets nothing.
        ctx.bank_with(plans, |plans| {
            plans.try_send(0, 0, (3, 0)).unwrap();
            plans.try_send(0, 0, (4, 0)).unwrap();
        });
        assert_eq!(bank.step(1, ctx), Progress::Busy, "a pair is still queued");
        assert_eq!(bank.mappers[0].fan_out(0), 2, "one pair per cycle");
        assert_eq!(bank.step(2, ctx), Progress::Sleep);
        assert_eq!(bank.mappers[0].fan_out(0), 3);
        assert_eq!(bank.mappers[1].fan_out(0), 1, "lanes keep their own table");

        // A generation bump resets every lane at the bank's next step, and
        // the pending reset refuses to be fast-forwarded over.
        ctx.state_mut(control).bump_generation();
        assert_eq!(bank.hold_until(3, ctx), None);
        bank.step(3, ctx);
        assert_eq!(bank.mappers[0].fan_out(0), 1);
        assert_eq!(bank.hold_until(4, ctx), Some(Cycle::MAX));
    }

    #[test]
    fn bank_redirects_round_robin_and_counts_secpe_tuples_in_flight() {
        let (mut engine, mut bank, control, plans, input, output) = hand_driven_bank();
        let ctx = engine.context_mut();
        ctx.bank_with(plans, |plans| plans.try_send(0, 0, (3, 0)).unwrap());
        ctx.bank_with(input, |input| {
            for v in 0..4 {
                input.try_send(0, 0, Routed::new(0, v)).unwrap();
            }
            input.try_send(0, 1, Routed::new(0, 9)).unwrap();
        });
        for cy in 1..=4 {
            assert_eq!(bank.step(cy, ctx), Progress::Busy);
        }
        assert_eq!(bank.step(5, ctx), Progress::Sleep);
        let mut drain = |lane| {
            std::iter::from_fn(|| ctx.bank_with(output, |out| out.try_recv(9, lane)))
                .map(|r| (r.dst, r.value))
                .collect::<Vec<_>>()
        };
        // Lane 0 learned the pair before its first tuple and alternates
        // PriPE 0 / SecPE 3; lane 1 never got a pair and stays on PriPE 0.
        assert_eq!(drain(0), vec![(0, 0), (3, 1), (0, 2), (3, 3)]);
        assert_eq!(drain(1), vec![(0, 9)]);
        assert_eq!(ctx.state(control).sec_inflight(0), 2);
        assert_eq!(ctx.state(control).sec_inflight(1), 0);
    }
}
