//! The runtime profiler (§IV-C3): workload profiling, SecPE plan
//! generation, throughput monitoring and the reschedule protocol (§IV-B).
//!
//! One generation of the protocol is Profiling → Distributing → Monitoring;
//! a skew change then runs Draining → AwaitMerge → Requeue and the next
//! generation starts profiling. Requeue models the host re-enqueueing the
//! exited profiler and SecPE kernels. Under [`Requeue::Serial`] (the
//! paper's protocol) the host starts that round trip only after the merge
//! at cycle `cy`, so the SecPEs restart at `cy + overhead`. OpenCL command
//! queues are in-order, though, so the host can enqueue generation g+1's
//! kernels behind generation g's as soon as g starts. Under
//! [`Requeue::PreArmed`] the SecPEs therefore restart at
//! `max(cy, armed_at + overhead)`, where `armed_at` is the cycle g started
//! (pipeline construction for the first generation). The overhead is still
//! exposed when a generation is shorter than the overhead, i.e. when
//! reschedules come faster than the host can re-arm: that is Fig. 9's dip,
//! which pre-arming narrows but cannot remove.
//!
//! Under [`Requeue::Serial`] monitoring is the paper's tumbling window: a
//! reschedule triggers when the rate over a `monitor_window` falls below
//! `reschedule_threshold × peak`, `peak` being the best such window since
//! the plan. After a hot-set rotation that takes thousands of cycles, all
//! of them PriPE-only. Under [`Requeue::PreArmed`] the window only sets
//! the peak, and a *probe* triggers instead: every `profile_cycles` it
//! compares that profiling window's rate against the same
//! `threshold × peak`, and it may trigger only if input waited at the
//! lanes in every cycle of the window (the memory reader counts those
//! cycles, see
//! [`counts_lane_waits_to`](crate::reader::MemoryReaderKernel::counts_lane_waits_to)).
//! That gate makes the trigger skew-specific: a starved pipeline (a paced
//! source between bursts, a served shard between batches) is slow with
//! empty lanes and never passes it. The probe is pre-armed only because of
//! what a false alarm costs: drain plus one profiling window when the next
//! generation is already enqueued, the whole requeue overhead under
//! [`Requeue::Serial`].
//!
//! Every phase transition also closes an interval in the control block's
//! protocol ledger (see [`ProtocolCycles`](crate::ProtocolCycles)).

use std::collections::VecDeque;

use hls_sim::{
    ChannelBankId, CounterId, Cycle, Engine, Kernel, KernelId, Progress, SimContext, StateId,
    ThroughputWindow,
};

use crate::config::Requeue;
use crate::control::{Control, ControlId};
use crate::phase::PhasePlan;
use crate::report::ProtocolPhase;
use crate::{PeId, SchedulingPlan};

/// Tuning parameters of the profiler.
#[derive(Debug, Clone)]
pub struct ProfilerParams {
    /// PriPE count M.
    pub m_pri: u32,
    /// SecPE count X.
    pub x_sec: u32,
    /// Profiling window length in cycles (the paper's example uses 256);
    /// also the pre-armed monitor's probe window.
    pub profile_cycles: u64,
    /// Throughput-monitoring window in clock ticks (see the module docs).
    pub monitor_window: u64,
    /// Reschedule when the monitored rate falls below this fraction of the
    /// peak rate seen since the last plan. `0.0` disables rescheduling —
    /// "the predefined threshold can be set to zero to stop the SecPE
    /// rescheduling" (§IV-C3).
    pub reschedule_threshold: f64,
    /// Kernel dequeue + enqueue overhead in cycles: the time between the
    /// profiler exiting and the CPU having re-enqueued profiler + SecPEs.
    pub requeue_overhead_cycles: u64,
    /// Whether the requeue overlaps the running generation or follows the
    /// merge (see [`Requeue`]), and which monitor triggers.
    pub requeue: Requeue,
}

/// After this many *consecutive* reschedules that re-trigger faster than
/// twice the requeue overhead they expose, the profiler stops rescheduling
/// for good (the adaptive form of setting the threshold to zero that Fig.
/// 9's right side exercises). The serial protocol exposes the whole
/// overhead; the pre-armed one only the part its running generation has
/// not outlived.
const FAST_RETRIGGERS_BEFORE_DISABLE: u32 = 3;

/// Internal protocol state.
#[derive(Debug)]
enum Phase {
    /// Counting PriPE ids into the per-lane hist instances.
    Profiling { remaining: u64 },
    /// Streaming the generated plan to the mappers, one pair per cycle.
    Distributing { queue: VecDeque<(PeId, PeId)> },
    /// Watching the throughput window for a skew change.
    Monitoring { since: Cycle, peak: f64 },
    /// Waiting for all SecPEs to drain and exit.
    Draining,
    /// Waiting for the merger to fold SecPE partials.
    AwaitMerge,
    /// Modelling the CPU-side kernel re-enqueue overhead.
    Requeue { until: Cycle },
    /// Rescheduling permanently off (threshold 0 or auto-disabled).
    Disabled,
}

impl Phase {
    /// The protocol-ledger field this phase's cycles accrue to; routing
    /// with rescheduling off counts as monitoring.
    fn ledger(&self) -> ProtocolPhase {
        match self {
            Phase::Profiling { .. } => ProtocolPhase::Profiling,
            Phase::Distributing { .. } => ProtocolPhase::Distributing,
            Phase::Monitoring { .. } | Phase::Disabled => ProtocolPhase::Monitoring,
            Phase::Draining => ProtocolPhase::Draining,
            Phase::AwaitMerge => ProtocolPhase::AwaitMerge,
            Phase::Requeue { .. } => ProtocolPhase::Requeue,
        }
    }
}

/// The pre-armed monitor's probe: the rate and the lane waits over each
/// profiling window (see the module docs).
#[derive(Debug)]
struct Probe {
    /// Cycles that ended with input waiting at the lanes.
    waits: CounterId,
    rate: ThroughputWindow,
    /// The same window over `waits`: a rate of 1 means every cycle waited.
    waited: ThroughputWindow,
}

impl Probe {
    fn restart(&mut self, cy: Cycle, ctx: &SimContext, processed: u64) {
        self.rate.restart(cy, processed);
        self.waited.restart(cy, ctx.counter(self.waits));
    }

    /// The rate of the window completing at `cy`, if one does and input
    /// waited at the lanes in every cycle of it.
    fn tick(&mut self, cy: Cycle, ctx: &SimContext, processed: u64) -> Option<f64> {
        let rate = self.rate.tick(cy, processed)?;
        let waited = self.waited.tick(cy, ctx.counter(self.waits))?;
        (waited >= 1.0).then_some(rate)
    }
}

/// The runtime profiler kernel.
///
/// It "receives N PriPE IDs from the mappers in one cycle with N independent
/// hist instances"; after the profiling window it serially merges the
/// partial hists, generates the SecPE scheduling plan greedily (Fig. 5) and
/// transfers it to the mappers and the merger. It then monitors system
/// throughput with a local clock tick; a drop below the threshold starts
/// the reschedule protocol: mappers stop routing to SecPEs, SecPEs drain
/// and exit, the merger folds their partials, and after the kernel
/// re-enqueue overhead the profiler starts a fresh profiling window.
///
/// All cross-kernel state — the current plan, the control block, the
/// processed-tuple count driving the throughput monitor and the
/// plans-generated count — lives in the engine's state arena; the profiler
/// holds `Copy` handles and resolves them through the `SimContext`.
pub struct ProfilerKernel {
    name: String,
    params: ProfilerParams,
    phase: Phase,
    feeds: ChannelBankId<PeId>,
    plan_txs: ChannelBankId<(PeId, PeId)>,
    /// N independent hist instances (one per mapper lane), M bins each.
    hists: Vec<Vec<u64>>,
    current_plan: StateId<SchedulingPlan>,
    control: ControlId,
    /// Global processed-tuple counter driving the throughput monitor.
    processed: CounterId,
    window: ThroughputWindow,
    /// Present under [`Requeue::PreArmed`] once the reader's lane-wait
    /// counter is wired in (see [`with_lane_waits`](Self::with_lane_waits)).
    probe: Option<Probe>,
    plans_generated: CounterId,
    /// Consecutive reschedules that re-triggered faster than the requeue
    /// overhead they expose can amortise.
    fast_retriggers: u32,
    /// Cycle the current generation's profiler and SecPEs started: pipeline
    /// construction, then every requeue. Under [`Requeue::PreArmed`] the
    /// next generation is enqueued from here on.
    armed_at: Cycle,
    /// The `secpe#bank` and merger kernel ids, woken on drain/restart
    /// commands and merge requests (§IV-B side-band signals produce no
    /// channel event, so the profiler wakes the sleeping kernels explicitly
    /// in the cycle it mutates the control block).
    protocol_wakes: Option<(KernelId, KernelId)>,
}

impl ProfilerKernel {
    /// Creates the profiler against `engine`'s state arena.
    ///
    /// `feeds` carry original PriPE ids from each mapper lane; `plan_txs`
    /// deliver plan pairs back to each mapper; `processed` is the global
    /// processed-tuple counter driving the throughput monitor;
    /// `current_plan` is shared with the merger and `control` with the
    /// whole pipeline. A fresh plans-generated counter is allocated in the
    /// arena (see [`plans_generated`](Self::plans_generated)), and the
    /// mappers' profiler feed is switched on.
    ///
    /// # Panics
    ///
    /// Panics if `params.x_sec == 0` (a pipeline without SecPEs has nothing
    /// to schedule — don't instantiate a profiler) or if `feeds` and
    /// `plan_txs` lengths differ.
    pub fn new(
        engine: &mut Engine,
        params: ProfilerParams,
        feeds: ChannelBankId<PeId>,
        plan_txs: ChannelBankId<(PeId, PeId)>,
        processed: CounterId,
        current_plan: StateId<SchedulingPlan>,
        control: ControlId,
    ) -> Self {
        assert!(params.x_sec > 0, "profiler requires at least one SecPE");
        assert!(
            params.profile_cycles > 0,
            "profiling window must be nonzero"
        );
        assert_eq!(
            feeds.members(),
            plan_txs.members(),
            "one plan channel per mapper lane"
        );
        let lanes = feeds.members();
        let plans_generated = engine.counter();
        let armed_at = engine.cycle();
        let control_block = engine.context_mut().state_mut(control);
        control_block.set_feed_profiler(true);
        control_block.enter_protocol_phase(ProtocolPhase::Profiling, armed_at);
        ProfilerKernel {
            name: "runtime-profiler".to_owned(),
            window: ThroughputWindow::new(params.monitor_window),
            probe: None,
            phase: Phase::Profiling {
                remaining: params.profile_cycles,
            },
            hists: vec![vec![0; params.m_pri as usize]; lanes],
            feeds,
            plan_txs,
            current_plan,
            control,
            processed,
            params,
            plans_generated,
            fast_retriggers: 0,
            armed_at,
            protocol_wakes: None,
        }
    }

    /// Counter of generated plans (observable by reports/tests).
    pub fn plans_generated(&self) -> CounterId {
        self.plans_generated
    }

    /// Registers the kernels this profiler must wake when it drives the
    /// §IV-B protocol through the shared control block: the SecPE bank
    /// (drain + restart commands) and the merger (merge requests). Without
    /// this, those kernels must stay awake polling the control block.
    pub fn with_protocol_wakes(mut self, secpe_bank: KernelId, merger: KernelId) -> Self {
        self.protocol_wakes = Some((secpe_bank, merger));
        self
    }

    /// Gives the monitor the memory reader's lane-wait counter, which arms
    /// the probe under [`Requeue::PreArmed`] (a no-op under
    /// [`Requeue::Serial`], whose monitor is the paper's).
    pub fn with_lane_waits(mut self, waits: CounterId) -> Self {
        if self.params.requeue == Requeue::PreArmed {
            let window = self.params.profile_cycles;
            self.probe = Some(Probe {
                waits,
                rate: ThroughputWindow::new(window),
                waited: ThroughputWindow::new(window),
            });
        }
        self
    }

    fn wake_secs(&self, ctx: &mut SimContext) {
        if let Some((secpe_bank, _)) = self.protocol_wakes {
            ctx.wake_kernel(secpe_bank);
        }
    }

    /// Moves to `phase` at `cy`, closing the current phase's interval in
    /// the control block's protocol ledger.
    fn enter(&mut self, ctx: &mut SimContext, cy: Cycle, phase: Phase) {
        ctx.state_mut(self.control)
            .enter_protocol_phase(phase.ledger(), cy);
        self.phase = phase;
    }

    /// Merges the per-lane hists into the global workload histogram —
    /// "serially executed to reduce the resource consumption".
    fn merged_workloads(&self) -> Vec<u64> {
        let m = self.params.m_pri as usize;
        let mut global = vec![0u64; m];
        for hist in &self.hists {
            for (g, h) in global.iter_mut().zip(hist) {
                *g += *h;
            }
        }
        global
    }

    /// The requeue overhead a reschedule triggered at `cy` leaves exposed:
    /// all of it under [`Requeue::Serial`], and under [`Requeue::PreArmed`]
    /// only what the next generation, enqueued since `armed_at`, has not
    /// yet hidden.
    fn exposed_requeue(&self, cy: Cycle) -> u64 {
        let overhead = self.params.requeue_overhead_cycles;
        match self.params.requeue {
            Requeue::Serial => overhead,
            Requeue::PreArmed => (self.armed_at + overhead).saturating_sub(cy),
        }
    }

    fn reset_hists(&mut self) {
        for hist in &mut self.hists {
            hist.fill(0);
        }
    }
}

/// `true` when no window can trigger a reschedule any more: the threshold
/// is zero or the memory reader has drained its source.
fn monitoring_is_moot(threshold: f64, control: &Control) -> bool {
    threshold <= 0.0 || control.source_drained()
}

impl Kernel for ProfilerKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, cy: Cycle, ctx: &mut SimContext) -> Progress {
        match &mut self.phase {
            Phase::Profiling { remaining } => {
                // One id per lane per cycle into the lane's hist instance.
                let hists = &mut self.hists;
                ctx.bank_with(self.feeds, |feeds| {
                    for (lane, hist) in hists.iter_mut().enumerate() {
                        if let Some(pri) = feeds.try_recv(cy, lane) {
                            hist[pri as usize] += 1;
                        }
                    }
                });
                *remaining -= 1;
                if *remaining == 0 {
                    ctx.state_mut(self.control).set_feed_profiler(false);
                    let workloads = self.merged_workloads();
                    let plan =
                        SchedulingPlan::generate(&workloads, self.params.m_pri, self.params.x_sec);
                    // Compile the plan + the window it was generated from
                    // into the coming phase's execution plan and apply it
                    // at this reschedule boundary.
                    let compiled = PhasePlan::compile(&workloads, &plan, self.params.x_sec);
                    ctx.state_mut(self.control).apply_phase_plan(compiled);
                    let queue: VecDeque<_> = plan.pairs().to_vec().into();
                    *ctx.state_mut(self.current_plan) = plan;
                    ctx.counter_incr(self.plans_generated);
                    self.enter(ctx, cy, Phase::Distributing { queue });
                }
            }
            Phase::Distributing { queue } => {
                // One pair per cycle to every mapper (each mapper applies
                // one pair per cycle, §IV-C2).
                if let Some(&pair) = queue.front() {
                    let sent = ctx.bank_with(self.plan_txs, |plans| {
                        let all_ok = (0..plans.members()).all(|i| plans.can_send(i));
                        if all_ok {
                            for i in 0..plans.members() {
                                plans
                                    .try_send(cy, i, pair)
                                    .unwrap_or_else(|_| unreachable!("checked"));
                            }
                        }
                        all_ok
                    });
                    if sent {
                        queue.pop_front();
                    }
                }
                if queue.is_empty() {
                    let processed = ctx.counter(self.processed);
                    self.window.restart(cy, processed);
                    if let Some(probe) = &mut self.probe {
                        probe.restart(cy, ctx, processed);
                    }
                    self.enter(
                        ctx,
                        cy,
                        Phase::Monitoring {
                            since: cy,
                            peak: 0.0,
                        },
                    );
                }
            }
            Phase::Monitoring { since, peak } => {
                if monitoring_is_moot(self.params.reschedule_threshold, ctx.state(self.control)) {
                    // Rescheduling disabled, or the input has run dry (the
                    // rate can only fall, and not because the skew moved):
                    // monitoring is a permanent no-op, so the profiler can
                    // park for good.
                    return Progress::Sleep;
                }
                let processed = ctx.counter(self.processed);
                let window_rate = self.window.tick(cy, processed);
                if let Some(rate) = window_rate {
                    if rate > *peak {
                        *peak = rate;
                    }
                }
                // Pre-armed, the window only sets the peak: the probe's rate
                // is the one compared against it.
                let compared = match &mut self.probe {
                    Some(probe) => probe.tick(cy, ctx, processed),
                    None => window_rate,
                };
                if let Some(rate) = compared {
                    let triggered = *peak > 0.0 && rate < self.params.reschedule_threshold * *peak;
                    if triggered {
                        let steady = cy - *since;
                        if steady < 2 * self.exposed_requeue(cy) {
                            self.fast_retriggers += 1;
                            if self.fast_retriggers >= FAST_RETRIGGERS_BEFORE_DISABLE {
                                // The workload distribution changes faster
                                // than kernels can be re-enqueued: stop
                                // rescheduling for good (the threshold-to-
                                // zero behaviour Fig. 9's right side shows).
                                self.enter(ctx, cy, Phase::Disabled);
                                return Progress::Sleep;
                            }
                        } else {
                            self.fast_retriggers = 0;
                        }
                        let control = ctx.state_mut(self.control);
                        control.set_route_to_sec(false);
                        control.drain_all_secs();
                        self.wake_secs(ctx);
                        self.enter(ctx, cy, Phase::Draining);
                    }
                }
            }
            Phase::Draining => {
                if ctx.state(self.control).all_secs_exited() {
                    // Drain boundary: every SecPE has exited and nothing
                    // is in flight to them — the phase until the next
                    // plan distribution routes to PriPEs only.
                    let control = ctx.state_mut(self.control);
                    control.apply_phase_plan(PhasePlan::pri_only(
                        self.params.m_pri,
                        self.params.x_sec,
                    ));
                    control.request_merge();
                    if let Some((_, merger)) = self.protocol_wakes {
                        ctx.wake_kernel(merger);
                    }
                    self.enter(ctx, cy, Phase::AwaitMerge);
                }
            }
            Phase::AwaitMerge => {
                if ctx.state(self.control).merge_done() {
                    ctx.state_mut(self.control).count_reschedule();
                    let armed_at = match self.params.requeue {
                        Requeue::PreArmed => self.armed_at,
                        Requeue::Serial => cy,
                    };
                    self.enter(
                        ctx,
                        cy,
                        Phase::Requeue {
                            until: cy.max(armed_at + self.params.requeue_overhead_cycles),
                        },
                    );
                }
            }
            Phase::Requeue { until } => {
                if cy >= *until {
                    // CPU has re-enqueued profiler + SecPEs (§IV-B).
                    let control = ctx.state_mut(self.control);
                    control.bump_generation();
                    control.restart_all_secs();
                    control.set_route_to_sec(true);
                    control.set_feed_profiler(true);
                    self.wake_secs(ctx);
                    self.reset_hists();
                    self.armed_at = cy;
                    self.enter(
                        ctx,
                        cy,
                        Phase::Profiling {
                            remaining: self.params.profile_cycles,
                        },
                    );
                }
            }
            Phase::Disabled => return Progress::Sleep,
        }
        // Every live phase carries an internal clock (profiling countdown,
        // plan distribution, throughput windows, requeue timer), so the
        // profiler steps every cycle while any of them is in flight.
        Progress::Busy
    }

    fn is_idle(&self, ctx: &SimContext) -> bool {
        match &self.phase {
            Phase::Profiling { .. } => {
                (0..self.feeds.members()).all(|i| ctx.bank_is_empty(self.feeds, i))
            }
            Phase::Distributing { queue } => queue.is_empty(),
            Phase::Monitoring { .. } | Phase::Disabled => true,
            // Mid-protocol states must complete before the engine may stop.
            Phase::Draining | Phase::AwaitMerge | Phase::Requeue { .. } => false,
        }
    }

    fn hold_until(&self, cy: Cycle, ctx: &SimContext) -> Option<Cycle> {
        match &self.phase {
            // Reschedule-boundary phases tick an internal clock or watch
            // cross-kernel state every cycle: the detector refuses to
            // fast-forward across them.
            Phase::Profiling { .. }
            | Phase::Distributing { .. }
            | Phase::Draining
            | Phase::AwaitMerge => None,
            Phase::Monitoring { .. } => {
                if monitoring_is_moot(self.params.reschedule_threshold, ctx.state(self.control)) {
                    // Permanent no-op (the step parks the kernel anyway).
                    return Some(Cycle::MAX);
                }
                // Ticks strictly before the next window or probe boundary
                // return `None` without mutating either observer.
                let mut boundary = self.window.next_boundary();
                if let Some(probe) = &self.probe {
                    boundary = boundary.min(probe.rate.next_boundary());
                }
                (boundary > cy).then_some(boundary)
            }
            Phase::Requeue { until } => (*until > cy).then_some(*until),
            Phase::Disabled => Some(Cycle::MAX),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SecPhase;

    /// A mapper's feed of PriPE id `pri` on `lane`, from outside any kernel.
    fn feed(
        ctx: &mut SimContext,
        feeds: ChannelBankId<PeId>,
        cy: Cycle,
        lane: usize,
        pri: PeId,
    ) -> Result<(), hls_sim::SendError<PeId>> {
        ctx.bank_with(feeds, |feeds| feeds.try_send(cy, lane, pri))
    }

    fn params(x: u32) -> ProfilerParams {
        ProfilerParams {
            m_pri: 4,
            x_sec: x,
            profile_cycles: 16,
            monitor_window: 32,
            reschedule_threshold: 0.0,
            requeue_overhead_cycles: 100,
            requeue: Requeue::Serial,
        }
    }

    #[test]
    fn profiles_then_distributes_plan() {
        let mut engine = Engine::new();
        let feeds = engine.channel_bank::<u32>("feed", 0, 1, 64);
        let plans = engine.channel_bank::<(u32, u32)>("plan", 0, 1, 8);
        let control = engine.state(Control::new(2));
        let plan = engine.state(SchedulingPlan::empty());
        let processed = engine.counter();
        let mut prof = ProfilerKernel::new(
            &mut engine,
            params(2),
            feeds,
            plans,
            processed,
            plan,
            control,
        );
        // All workload on PriPE 3.
        for _ in 0..10 {
            feed(engine.context_mut(), feeds, 0, 0, 3).unwrap();
        }
        let ctx = engine.context_mut();
        for cy in 1..64 {
            prof.step(cy, ctx);
        }
        assert_eq!(ctx.state(plan).pairs(), &[(4, 3), (5, 3)]);
        // Mapper received both pairs.
        let mut next_pair = || ctx.bank_with(plans, |plans| plans.try_recv(100, 0));
        assert_eq!(next_pair(), Some((4, 3)));
        assert_eq!(next_pair(), Some((5, 3)));
        assert!(
            !ctx.state(control).feed_profiler(),
            "feed stops after profiling window"
        );
        assert!(prof.is_idle(ctx));
    }

    #[test]
    fn hists_are_per_lane_and_merged() {
        let mut engine = Engine::new();
        let feeds = engine.channel_bank::<u32>("f", 0, 2, 64);
        let plans = engine.channel_bank::<(u32, u32)>("p", 0, 2, 8);
        let control = engine.state(Control::new(1));
        let plan = engine.state(SchedulingPlan::empty());
        let processed = engine.counter();
        let mut prof = ProfilerKernel::new(
            &mut engine,
            params(1),
            feeds,
            plans,
            processed,
            plan,
            control,
        );
        // Lane 0 votes PriPE 1, lane 1 votes PriPE 2 — but lane 1 votes more.
        let ctx = engine.context_mut();
        for i in 0..6 {
            feed(ctx, feeds, i, 0, 1).unwrap();
        }
        for i in 0..12 {
            feed(ctx, feeds, i, 1, 2).unwrap();
        }
        for cy in 1..40 {
            prof.step(cy, ctx);
        }
        assert_eq!(ctx.state(plan).pairs(), &[(4, 2)]);
    }

    #[test]
    fn threshold_zero_never_reschedules() {
        let mut engine = Engine::new();
        let feeds = engine.channel_bank::<u32>("feed", 0, 1, 64);
        let plans = engine.channel_bank::<(u32, u32)>("plan", 0, 1, 8);
        let control = engine.state(Control::new(1));
        let plan = engine.state(SchedulingPlan::empty());
        let processed = engine.counter();
        let mut prof = ProfilerKernel::new(
            &mut engine,
            params(1),
            feeds,
            plans,
            processed,
            plan,
            control,
        );
        // Throughput collapses to zero after the plan, but threshold is 0.
        let ctx = engine.context_mut();
        for cy in 1..2_000 {
            prof.step(cy, ctx);
        }
        assert_eq!(ctx.state(control).reschedules(), 0);
        assert!(ctx.state(control).route_to_sec());
    }

    #[test]
    fn hold_refuses_reschedule_boundary_phases() {
        // The fast-forward detector must never jump across a phase whose
        // steps drive the reschedule protocol: while profiling (and in every
        // other boundary phase) the profiler opts out of fast-forward.
        let mut engine = Engine::new();
        let feeds = engine.channel_bank::<u32>("feed", 0, 1, 64);
        let plans = engine.channel_bank::<(u32, u32)>("plan", 0, 1, 8);
        let control = engine.state(Control::new(1));
        let plan = engine.state(SchedulingPlan::empty());
        let processed = engine.counter();
        let mut p = params(1);
        p.reschedule_threshold = 0.5;
        let mut prof = ProfilerKernel::new(&mut engine, p, feeds, plans, processed, plan, control);
        let ctx = engine.context_mut();
        feed(ctx, feeds, 0, 0, 0).unwrap();
        // Profiling: every cycle counts ids and ticks the window countdown.
        assert_eq!(prof.hold_until(1, ctx), None, "profiling must step");
        let mut cy = 1;
        // Drive through the profiling window and the plan distribution.
        for _ in 0..20 {
            prof.step(cy, ctx);
            cy += 1;
        }
        // Monitoring with a live threshold: holdable only to the window
        // boundary, where the throughput tick fires.
        let hold = prof.hold_until(cy, ctx).expect("monitoring is holdable");
        assert!(hold > cy && hold < Cycle::MAX, "hold {hold} at cy {cy}");
        // Stepping up to (but not past) the boundary leaves the hold fixed.
        prof.step(cy, ctx);
        assert_eq!(prof.hold_until(cy + 1, ctx), Some(hold));
    }

    #[test]
    fn reschedule_protocol_completes() {
        let mut engine = Engine::new();
        let feeds = engine.channel_bank::<u32>("feed", 0, 1, 256);
        let plans = engine.channel_bank::<(u32, u32)>("plan", 0, 1, 8);
        let control = engine.state(Control::new(1));
        let plan = engine.state(SchedulingPlan::empty());
        let processed = engine.counter();
        let mut p = params(1);
        p.reschedule_threshold = 0.5;
        p.requeue_overhead_cycles = 50;
        let mut prof = ProfilerKernel::new(&mut engine, p, feeds, plans, processed, plan, control);
        // Phase 1: profile (16 cycles), distribute, then healthy rate.
        let ctx = engine.context_mut();
        let mut cy = 1;
        for _ in 0..16 {
            feed(ctx, feeds, cy, 0, 0).ok();
            prof.step(cy, ctx);
            cy += 1;
        }
        // Healthy throughput for several windows (processed grows fast)...
        for _ in 0..400 {
            ctx.counter_add(processed, 4);
            prof.step(cy, ctx);
            cy += 1;
        }
        assert_eq!(ctx.state(control).reschedules(), 0);
        // ...then collapse: rate goes to ~0 -> trigger.
        for _ in 0..200 {
            prof.step(cy, ctx);
            cy += 1;
            // SecPE cooperates with the drain request.
            if ctx.state(control).sec_phase(0) == SecPhase::Draining {
                ctx.state_mut(control).set_sec_phase(0, SecPhase::Exited);
            }
            // Merger cooperates.
            if ctx.state_mut(control).take_merge_request() {
                ctx.state_mut(control).set_merge_done();
            }
        }
        assert_eq!(
            ctx.state(control).reschedules(),
            1,
            "one reschedule completed"
        );
        // After the requeue overhead the profiler must be profiling again.
        for _ in 0..100 {
            prof.step(cy, ctx);
            cy += 1;
        }
        assert!(
            ctx.state(control).route_to_sec(),
            "routing re-enabled after requeue"
        );
        assert!(ctx.state(control).generation() > 0, "mappers told to reset");
    }

    #[test]
    fn pre_armed_probe_triggers_only_while_input_waits() {
        let mut engine = Engine::new();
        let feeds = engine.channel_bank::<u32>("feed", 0, 1, 64);
        let plans = engine.channel_bank::<(u32, u32)>("plan", 0, 1, 8);
        let control = engine.state(Control::new(1));
        let plan = engine.state(SchedulingPlan::empty());
        let (processed, waits) = (engine.counter(), engine.counter());
        let mut p = params(1);
        p.reschedule_threshold = 0.5;
        p.requeue = Requeue::PreArmed;
        let mut prof = ProfilerKernel::new(&mut engine, p, feeds, plans, processed, plan, control)
            .with_lane_waits(waits);
        let ctx = engine.context_mut();
        let mut cy = 1;
        let mut run = |ctx: &mut SimContext, cycles: u64, rate: u64, waiting: bool| {
            for _ in 0..cycles {
                ctx.counter_add(processed, rate);
                ctx.counter_add(waits, u64::from(waiting));
                prof.step(cy, ctx);
                cy += 1;
            }
            (cy, prof.hold_until(cy, ctx))
        };
        // Profile, distribute, then a healthy rate for several windows.
        run(ctx, 200, 4, true);
        assert!(ctx.state(control).route_to_sec());
        // Monitoring holds only up to the next 16-cycle probe boundary.
        let (now, hold) = run(ctx, 1, 4, true);
        let hold = hold.expect("monitoring is holdable");
        assert!(hold > now && hold <= now + 16, "hold {hold} at cy {now}");
        // A starved pipeline: the rate collapses with nothing waiting.
        run(ctx, 200, 0, false);
        assert!(ctx.state(control).route_to_sec(), "starvation triggered");
        // One waiting cycle short of a whole probe window is not enough...
        run(ctx, 15, 0, true);
        assert!(
            ctx.state(control).route_to_sec(),
            "a partial window triggered"
        );
        // ...a window in which input waited every cycle is: drain starts.
        run(ctx, 32, 0, true);
        assert!(!ctx.state(control).route_to_sec(), "skew not detected");
    }
}
