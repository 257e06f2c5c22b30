//! Processing elements: the PrePE array and the destination PE arrays
//! (PriPEs, SecPEs), each stepped as one bank kernel.

use std::sync::Arc;

use hls_sim::{
    hold_past, ChannelBankId, CounterId, Cycle, Kernel, Progress, SimContext, StateId, WakeSet,
};

use crate::app::{DittoApp, Routed};
use crate::control::{ControlId, SecPhase};
use crate::mask::{bits, mask_of};
use crate::Tuple;

/// All `N` PrePEs, stepped as one kernel, `prepe#bank`: PrePE `i` reads raw
/// tuples from lane `i`, applies the application's `preprocess` (Listing
/// 2's PrePE body) at `ii_pre` cycles per tuple, and emits `⟨dst, value⟩`
/// records to mapper `i`.
///
/// Members are served in lane order and share nothing (see the
/// [crate-level equivalence rules](crate)). The bank sleeps only when every
/// member would: each either has no buffered input or no downstream room.
pub struct PrePeBank<A: DittoApp> {
    app: Arc<A>,
    m_pri: u32,
    input: ChannelBankId<Tuple>,
    output: ChannelBankId<Routed<A::Value>>,
    busy_until: Vec<Cycle>,
    /// Records produced this step, between the resolutions of the two
    /// banks. Reused; never reallocates after the first full step.
    staged: Vec<(usize, Routed<A::Value>)>,
}

impl<A: DittoApp> PrePeBank<A> {
    /// Creates the PrePEs between the `input` lanes and the `output`
    /// queues towards the mappers.
    ///
    /// # Panics
    ///
    /// Panics unless both banks have the same number of members.
    pub fn new(
        app: Arc<A>,
        m_pri: u32,
        input: ChannelBankId<Tuple>,
        output: ChannelBankId<Routed<A::Value>>,
    ) -> Self {
        assert_eq!(input.members(), output.members(), "one output per lane");
        PrePeBank {
            app,
            m_pri,
            input,
            output,
            busy_until: vec![0; input.members()],
            staged: Vec::with_capacity(input.members()),
        }
    }
}

impl<A: DittoApp + 'static> Kernel for PrePeBank<A> {
    fn name(&self) -> &str {
        "prepe#bank"
    }

    fn step(&mut self, cy: Cycle, ctx: &mut SimContext) -> Progress {
        let room = ctx.bank_with(self.output, |out| out.room_mask());
        // A member with buffered input, downstream room and only its II to
        // wait for spins; without input or room only a channel event can
        // change anything, so it would park.
        let mut busy = false;
        let ii = Cycle::from(self.app.ii_pre());
        let (app, m_pri) = (&self.app, self.m_pri);
        let (busy_until, staged) = (&mut self.busy_until, &mut self.staged);
        ctx.bank_with(self.input, |input| {
            for i in bits(room) {
                if cy >= busy_until[i] {
                    if let Some(tuple) = input.try_recv(cy, i) {
                        let routed = app.preprocess(tuple, m_pri);
                        assert!(
                            routed.dst < m_pri,
                            "application routed to PE {} but M = {m_pri}",
                            routed.dst,
                        );
                        staged.push((i, routed));
                        busy_until[i] = cy + ii;
                        continue;
                    }
                }
                busy |= !input.is_empty(i);
            }
        });
        if self.staged.is_empty() {
            return Progress::busy_if(busy);
        }
        let staged = &mut self.staged;
        ctx.bank_with(self.output, |out| {
            for (i, routed) in staged.drain(..) {
                out.try_send(cy, i, routed)
                    .unwrap_or_else(|_| unreachable!("checked room"));
            }
        });
        Progress::Busy
    }

    fn is_idle(&self, ctx: &SimContext) -> bool {
        (0..self.busy_until.len()).all(|i| ctx.bank_is_empty(self.input, i))
    }

    fn hold_until(&self, cy: Cycle, ctx: &SimContext) -> Option<Cycle> {
        let mut earliest = Cycle::MAX;
        for (i, &busy_until) in self.busy_until.iter().enumerate() {
            earliest = if cy < busy_until {
                // II wait: steps in between neither receive nor send.
                earliest.min(busy_until)
            } else if !ctx.bank_can_send(self.output, i) {
                // Blocked on downstream room; only a pop event changes that.
                earliest
            } else {
                hold_past(earliest, ctx.bank_recv_visible_at(self.input, i), cy)?
            };
        }
        Some(earliest)
    }

    fn wake_set(&self) -> WakeSet {
        WakeSet::new()
            .after_push_on_bank(self.input)
            .after_pop_on_bank(self.output)
    }
}

/// Which array of destination PEs a [`ProcPeBank`] serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeRole {
    /// The PriPEs `0..M`: always running, each owns a distinct key range.
    Primary,
    /// The SecPEs `M..M+X`: enqueued and dequeued dynamically by the
    /// reschedule protocol (member `i` is SecPE index `i`).
    Secondary,
}

/// One array of destination PEs — all PriPEs (`pripe#bank`) or all SecPEs
/// (`secpe#bank`) — stepped as one kernel: every member consumes routed
/// values at `ii_pri` cycles per tuple and applies the application's
/// `process` against its private buffer.
///
/// All `M + X` private buffers are one `Vec` register in the engine's
/// **state arena**, indexed by PE id, resolved once per step by each PE
/// bank and by the merger — the in-simulation equivalent of the merger
/// reading a PE's BRAM after it exits. Processed-tuple accounting goes
/// through plain arena counters the same way.
///
/// Per step the bank pops, by bitmask, exactly the members that are live,
/// past their II and hold a visible value. Members meet only through their
/// own queues and buffers and [`Control`](crate::Control)'s per-SecPE
/// counters (see the [crate-level equivalence rules](crate)). The bank is
/// `Busy` if any member would be, idle only if every member is, and holds
/// until the earliest member horizon — declining as soon as one member has
/// work this cycle or a SecPE is `Draining`. A `secpe#bank` reads every
/// member's phase once at step start: a phase is written only by that
/// member's own step and by the profiler, which steps later in the cycle
/// and wakes the bank's kernel id on drain and restart.
pub struct ProcPeBank<A: DittoApp> {
    role: PeRole,
    app: Arc<A>,
    input: ChannelBankId<A::Value>,
    /// Member `i` owns `states[first + i]`.
    states: StateId<Vec<A::State>>,
    first: usize,
    processed: Vec<CounterId>,
    total_processed: CounterId,
    control: ControlId,
    busy_until: Vec<Cycle>,
    /// Values popped this step, between the one resolution of the input
    /// bank and the per-member buffer updates. Reused; never reallocates
    /// after the first full step.
    staged: Vec<(usize, A::Value)>,
}

impl<A: DittoApp> ProcPeBank<A> {
    /// Creates the bank over `input` (one queue per member), the PE buffers
    /// (member `i` owns `states[first + i]`) and the members' counters.
    ///
    /// # Panics
    ///
    /// Panics unless `input` and `processed` have one entry per member.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        role: PeRole,
        app: Arc<A>,
        input: ChannelBankId<A::Value>,
        states: StateId<Vec<A::State>>,
        first: usize,
        processed: Vec<CounterId>,
        total_processed: CounterId,
        control: ControlId,
    ) -> Self {
        let members = input.members();
        assert_eq!(processed.len(), members, "one counter per member");
        ProcPeBank {
            role,
            app,
            input,
            states,
            first,
            processed,
            total_processed,
            control,
            busy_until: vec![0; members],
            staged: Vec::with_capacity(members),
        }
    }

    /// Bit `i` set ⇔ member `i` may consume input this cycle: every PriPE,
    /// every `Running` or still-draining SecPE. §IV-B's drain protocol runs
    /// here: a `Draining` SecPE keeps consuming (at the normal II) until
    /// every tuple routed to it anywhere in the datapath has been consumed,
    /// then exits — in the step after its last in-flight tuple landed.
    fn live_members(&self, ctx: &mut SimContext) -> u64 {
        let mut live = mask_of(self.busy_until.len());
        if self.role == PeRole::Secondary {
            let control = ctx.state(self.control);
            let mut exiting = 0u64;
            for idx in 0..self.busy_until.len() {
                match control.sec_phase(idx) {
                    SecPhase::Running => {}
                    SecPhase::Draining if control.sec_inflight(idx) == 0 => {
                        exiting |= 1 << idx;
                    }
                    SecPhase::Draining => {}
                    // Parked until the profiler re-enqueues it (and wakes
                    // this bank explicitly, §IV-B); queued input waits.
                    SecPhase::Exited => live &= !(1 << idx),
                }
            }
            if exiting != 0 {
                live &= !exiting;
                let control = ctx.state_mut(self.control);
                for idx in bits(exiting) {
                    control.set_sec_phase(idx, SecPhase::Exited);
                }
            }
        }
        live
    }
}

impl<A: DittoApp + 'static> Kernel for ProcPeBank<A> {
    fn name(&self) -> &str {
        match self.role {
            PeRole::Primary => "pripe#bank",
            PeRole::Secondary => "secpe#bank",
        }
    }

    fn step(&mut self, cy: Cycle, ctx: &mut SimContext) -> Progress {
        let live = self.live_members(ctx);
        let idle = self
            .busy_until
            .iter()
            .enumerate()
            .fold(0u64, |mask, (i, &until)| mask | u64::from(cy >= until) << i);
        let ii = Cycle::from(self.app.ii_pri());
        let (busy_until, staged) = (&mut self.busy_until, &mut self.staged);
        let (take, busy) = ctx.bank_with(self.input, |input| {
            let ready = input.ready_mask(cy);
            let take = live & idle & ready;
            for i in bits(take) {
                staged.push((i, input.try_recv(cy, i).expect("ready")));
                busy_until[i] = cy + ii;
            }
            // A live member waiting out its II or for a value in flight
            // spins; only an empty one parks. Sleeping is safe for SecPEs
            // too: drain and restart arrive with an explicit profiler wake.
            let busy = take != 0 || live & (!idle | input.nonempty_mask() & !ready) != 0;
            (take, busy)
        });
        if take == 0 {
            return Progress::busy_if(busy);
        }
        ctx.counter_add(self.total_processed, u64::from(take.count_ones()));
        let states = &mut ctx.state_mut(self.states)[self.first..];
        for (i, value) in self.staged.drain(..) {
            self.app.process(&mut states[i], &value);
        }
        for i in bits(take) {
            ctx.counter_incr(self.processed[i]);
        }
        if self.role == PeRole::Secondary {
            // Exact in-flight accounting for the drain protocol.
            let control = ctx.state_mut(self.control);
            for idx in bits(take) {
                control.sec_inflight_dec(idx);
            }
        }
        Progress::Busy
    }

    fn is_idle(&self, ctx: &SimContext) -> bool {
        (0..self.busy_until.len()).all(|i| ctx.bank_is_empty(self.input, i))
    }

    fn hold_until(&self, cy: Cycle, ctx: &SimContext) -> Option<Cycle> {
        let mut earliest = Cycle::MAX;
        for (i, &busy_until) in self.busy_until.iter().enumerate() {
            if self.role == PeRole::Secondary {
                match ctx.state(self.control).sec_phase(i) {
                    SecPhase::Running => {}
                    // Draining transitions phases from inside step.
                    SecPhase::Draining => return None,
                    SecPhase::Exited => continue,
                }
            }
            earliest = if cy < busy_until {
                earliest.min(busy_until)
            } else {
                hold_past(earliest, ctx.bank_recv_visible_at(self.input, i), cy)?
            };
        }
        Some(earliest)
    }

    fn wake_set(&self) -> WakeSet {
        WakeSet::new().after_push_on_bank(self.input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::CountPerKey;
    use crate::control::Control;
    use hls_sim::Engine;

    fn pushes(engine: &Engine, name: &str) -> u64 {
        let stats = engine.channel_stats();
        stats.iter().find(|s| s.name == name).expect(name).pushes
    }

    /// A two-lane PrePE bank in an engine, lane `i` preloaded with
    /// `queued[i]` tuples, over `depth`-deep output queues.
    fn prepe_bank(queued: [u64; 2], depth: usize) -> (Engine, hls_sim::KernelId) {
        let mut engine = Engine::new();
        let lanes = engine.channel_bank::<Tuple>("in", 0, 2, 64);
        let out = engine.channel_bank::<Routed<()>>("out", 0, 2, depth);
        engine.context_mut().bank_with(lanes, |lanes| {
            for (i, &n) in queued.iter().enumerate() {
                (0..n).for_each(|k| lanes.try_send(0, i, Tuple::from_key(k)).unwrap());
            }
        });
        let app = Arc::new(CountPerKey::new(4));
        let bank = engine.add_kernel(PrePeBank::new(app, 4, lanes, out));
        (engine, bank)
    }

    #[test]
    fn prepe_bank_applies_ii_per_lane() {
        let (mut engine, bank) = prepe_bank([10, 3], 64);
        engine.run_cycles(5);
        // II = 1, latency 1: ~4 tuples forwarded after 5 cycles — on each
        // lane alone.
        let forwarded = pushes(&engine, "out0");
        assert!((3..=5).contains(&forwarded), "{forwarded}");
        assert_eq!(pushes(&engine, "out1"), 3);
        assert!(engine.kernel_awake(bank), "lane 0 still has input");
        engine.run_cycles(20);
        assert_eq!(pushes(&engine, "out0"), 10);
        assert!(!engine.kernel_awake(bank), "every lane drained");
    }

    #[test]
    fn prepe_bank_parks_on_backpressure_without_counting_stalls() {
        let (mut engine, bank) = prepe_bank([4, 0], 1);
        engine.run_cycles(10);
        let stats = engine.channel_stats();
        let out0 = stats.iter().find(|s| s.name == "out0").unwrap();
        assert_eq!((out0.pushes, out0.full_stalls), (1, 0));
        assert!(!engine.kernel_awake(bank), "parked until a pop frees room");
    }

    /// A hand-driven `ProcPeBank` whose member `i` has `queued[i]` unit
    /// values waiting (and, for SecPEs, counted in flight).
    fn proc_bank(
        role: PeRole,
        queued: &[usize],
    ) -> (
        Engine,
        ProcPeBank<CountPerKey>,
        StateId<Vec<u64>>,
        ControlId,
    ) {
        let n = queued.len();
        let mut engine = Engine::new();
        let input = engine.channel_bank::<()>("in", 0, n, 256);
        let control = engine.state(Control::new(n as u32));
        let ctx = engine.context_mut();
        for (i, &count) in queued.iter().enumerate() {
            for _ in 0..count {
                ctx.bank_with(input, |input| input.try_send(0, i, ()).unwrap());
                if role == PeRole::Secondary {
                    // The mapper-side accounting of a routed tuple.
                    ctx.state_mut(control).sec_inflight_inc(i);
                }
            }
        }
        let states = engine.state(vec![0u64; n]);
        let processed = (0..n).map(|_| engine.counter()).collect();
        let total = engine.counter();
        let app = Arc::new(CountPerKey::new(4));
        let bank = ProcPeBank::new(role, app, input, states, 0, processed, total, control);
        (engine, bank, states, control)
    }

    #[test]
    fn procpe_bank_ii_two_halves_rate_per_member() {
        let (mut engine, bank, states, _) = proc_bank(PeRole::Primary, &[100, 7]);
        engine.add_kernel(bank);
        engine.run_cycles(41);
        // II = 2: about 20 tuples in 41 cycles, on each member alone.
        let done = engine.context().state(states)[0];
        assert!((19..=21).contains(&done), "{done}");
        assert_eq!(engine.context().state(states)[1], 7);
    }

    #[test]
    fn secpe_bank_lifecycle_drain_exit_restart() {
        let (mut engine, bank, states, control) = proc_bank(PeRole::Secondary, &[5, 0]);
        let input = bank.input;
        let bank = engine.add_kernel(bank);
        let phases = |e: &Engine| {
            let control = e.context().state(control);
            (control.sec_phase(0), control.sec_phase(1))
        };
        engine.run_cycles(3);
        engine.context_mut().state_mut(control).drain_all_secs();
        // The idle member exits at the bank's next step; the busy one only
        // in the step after its last in-flight tuple was consumed: tuples
        // go at cycles 1, 3, 5, 7, 9 (II = 2), the exit in cycle 10.
        engine.run_cycles(1);
        assert_eq!(phases(&engine), (SecPhase::Draining, SecPhase::Exited));
        while phases(&engine).0 == SecPhase::Draining {
            assert!(engine.kernel_awake(bank), "a draining member stays hot");
            engine.run_cycles(1);
        }
        assert_eq!(engine.cycle(), 11);
        assert_eq!(engine.context().state(states)[0], 5, "drained everything");
        engine.run_cycles(2);
        assert!(!engine.kernel_awake(bank), "all members exited: parked");

        // An exited member ignores queued input...
        let ctx = engine.context_mut();
        ctx.bank_with(input, |input| input.try_send(20, 0, ()).unwrap());
        ctx.state_mut(control).sec_inflight_inc(0);
        engine.run_cycles(10);
        assert_eq!(engine.context().state(states)[0], 5);
        // ...until the profiler re-enqueues the SecPEs and wakes the bank.
        engine.context_mut().state_mut(control).restart_all_secs();
        engine.context_mut().wake_kernel(bank);
        engine.run_cycles(4);
        assert_eq!(engine.context().state(states)[0], 6);
        assert_eq!(engine.context().state(control).sec_inflight(0), 0);
    }

    #[test]
    fn secpe_bank_holds_only_while_no_member_is_draining() {
        let (mut engine, bank, _, control) = proc_bank(PeRole::Secondary, &[0, 0]);
        assert_eq!(bank.hold_until(0, engine.context()), Some(Cycle::MAX));
        engine.context_mut().state_mut(control).drain_all_secs();
        assert_eq!(bank.hold_until(0, engine.context()), None, "must step");
        let control = engine.context_mut().state_mut(control);
        control.set_sec_phase(0, SecPhase::Exited);
        control.set_sec_phase(1, SecPhase::Exited);
        assert_eq!(bank.hold_until(0, engine.context()), Some(Cycle::MAX));
    }
}
