//! The clocked simulation [`Engine`].

use crate::channel::{ArenaSlot, BroadcastCore, ChannelCore};
use crate::{
    BcastReceiverId, BcastSenderId, ChannelBankId, ChannelStats, CounterId, Cycle, Kernel,
    KernelId, Progress, SimContext, StateId,
};
use std::marker::PhantomData;

/// Number of consecutive all-idle cycles required before
/// [`Engine::run_until_quiescent`] declares the pipeline drained. Channels
/// have visibility latency, so a single idle observation can be transient.
const QUIESCENT_SETTLE_CYCLES: u64 = 8;

/// Deterministic single-clock simulation engine.
///
/// Owns the channel arena (see [`SimContext`]) and a set of [`Kernel`]s, and
/// steps each *active* kernel once per cycle, in registration order. Kernels
/// that report [`Progress::Sleep`] are skipped until a subscribed channel
/// event wakes them — the idle-set scheduler. Because a sleeping kernel's
/// step is by contract a no-op, the schedule is observationally identical to
/// stepping every kernel every cycle (the original engine's behaviour), just
/// cheaper on mostly-quiescent pipelines.
///
/// The engine is `Send`: scenario sweeps can run one engine per thread.
///
/// # Example
///
/// See the [crate-level example](crate) for a complete two-kernel pipeline.
pub struct Engine {
    kernels: Vec<Box<dyn Kernel>>,
    ctx: SimContext,
    /// Indices of quiescence-gate kernels (sources), checked before the
    /// full idle scan.
    gates: Vec<u32>,
    cycle: Cycle,
    /// Total kernel step calls executed (diagnostic: `steps / (cycles *
    /// kernels)` is the fraction of the naive step-everyone schedule the
    /// idle-set scheduler actually ran).
    steps_executed: u64,
    /// Steady-state fast-forward: when enabled, the run loops consult the
    /// awake kernels' [`Kernel::hold_until`] horizons and jump the clock
    /// across provably no-op cycle ranges instead of simulating them.
    fast_forward: bool,
    /// Number of fast-forward jumps taken.
    ff_jumps: u64,
    /// Total cycles skipped by fast-forward jumps.
    ff_cycles_skipped: u64,
    /// Opt-in per-kernel step counters for the counts-tracing profiling
    /// pass. `None` (the default) keeps the step loop untouched — the
    /// disabled mode is bit-invisible by construction, not by flag checks
    /// on shared state. When enabled, entry `i` counts kernel `i`'s
    /// executed steps; one indexed increment per executed step is the
    /// entire overhead.
    step_counts: Option<Vec<u64>>,
}

impl Engine {
    /// Creates an empty engine at cycle zero.
    pub fn new() -> Self {
        Engine {
            kernels: Vec::new(),
            ctx: SimContext::new(),
            gates: Vec::new(),
            cycle: 0,
            steps_executed: 0,
            fast_forward: false,
            ff_jumps: 0,
            ff_cycles_skipped: 0,
            step_counts: None,
        }
    }

    /// Total kernel step calls executed so far (see the field docs).
    pub fn steps_executed(&self) -> u64 {
        self.steps_executed
    }

    /// Enables per-kernel step counting (the counts-tracing hook). Kernels
    /// registered after this call are covered too. Idempotent: re-enabling
    /// keeps the existing counts.
    pub fn enable_step_counts(&mut self) {
        if self.step_counts.is_none() {
            self.step_counts = Some(vec![0; self.kernels.len()]);
        }
    }

    /// Per-kernel executed-step counts in registration order, `None` until
    /// [`enable_step_counts`](Self::enable_step_counts) is called.
    pub fn step_counts(&self) -> Option<&[u64]> {
        self.step_counts.as_deref()
    }

    /// Enables or disables steady-state fast-forward (default: off).
    ///
    /// With fast-forward on, both run loops ([`run_cycles`](Self::run_cycles)
    /// and [`run_until_quiescent`](Self::run_until_quiescent)) call
    /// [`fast_forward_now`](Self::fast_forward_now) before each cycle and
    /// jump the clock across cycle ranges every awake kernel proves to be a
    /// no-op — observationally identical to stepping through them (cycles,
    /// counters, per-channel statistics all bit-equal), just without the
    /// per-cycle work.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
    }

    /// `true` when steady-state fast-forward is enabled.
    pub fn fast_forward_enabled(&self) -> bool {
        self.fast_forward
    }

    /// Number of fast-forward jumps taken so far.
    pub fn ff_jumps(&self) -> u64 {
        self.ff_jumps
    }

    /// Total cycles skipped by fast-forward jumps so far.
    pub fn ff_cycles_skipped(&self) -> u64 {
        self.ff_cycles_skipped
    }

    /// Creates a **channel bank**: `len` independent FIFOs of `capacity`
    /// each behind one arena slot, for module arrays one kernel serves as a
    /// unit. Member `i` is named `{prefix}{first + i}`, and the bank reports
    /// its `len` statistics rows at this creation position — so
    /// `channel_stats()` and `channel_aggregate()` read exactly as if `len`
    /// one-member banks had been created here in a row. Kernels reach the
    /// members through [`SimContext::bank_with`]; wake subscriptions are
    /// bank-level (a push into any member is one push event of the bank).
    ///
    /// A one-member bank (`channel_bank(name, 0, 1, capacity)`) is the
    /// point-to-point FIFO. A bank may be empty (`len == 0`): it reports no
    /// rows and has no member to address.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity FIFO cannot transfer
    /// data under stall-on-full semantics — or `len` exceeds 64 (member
    /// masks are single words).
    pub fn channel_bank<T: Send + 'static>(
        &mut self,
        prefix: &str,
        first: usize,
        len: usize,
        capacity: usize,
    ) -> ChannelBankId<T> {
        assert!(len <= 64, "bank {prefix:?} supports at most 64 members");
        let members = (first..first + len)
            .map(|i| ChannelCore::<T>::new(&format!("{prefix}{i}"), capacity))
            .collect();
        ChannelBankId {
            idx: self.ctx.add_channel(ArenaSlot::bank::<T>(members)),
            len: len as u32,
            _marker: PhantomData,
        }
    }

    /// Creates a broadcast channel fanning each pushed value out to
    /// `readers` taps (each a FIFO view named `{prefix}{reader}` with its
    /// own `capacity` and statistics).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `readers` is not in `1..=64`.
    pub fn broadcast_channel<T: Send + 'static>(
        &mut self,
        name_prefix: &str,
        readers: usize,
        capacity: usize,
    ) -> (BcastSenderId<T>, Vec<BcastReceiverId<T>>) {
        let core = BroadcastCore::<T>::new(name_prefix, readers, capacity);
        let idx = self.ctx.add_channel(ArenaSlot::broadcast(core));
        let tx = BcastSenderId {
            idx,
            _marker: PhantomData,
        };
        let rxs = (0..readers as u32)
            .map(|reader| BcastReceiverId {
                idx,
                reader,
                _marker: PhantomData,
            })
            .collect();
        (tx, rxs)
    }

    /// Allocates a typed state register in the engine's state arena,
    /// initialised to `init`, and returns its `Copy` handle.
    ///
    /// This is the build-time replacement for `Arc<Mutex<…>>` kernel state:
    /// every kernel that needs the state (a PE writing its private buffer,
    /// the merger folding it) holds the same handle and resolves it through
    /// the [`SimContext`] passed to `step` —
    /// [`state`](SimContext::state)/[`state_mut`](SimContext::state_mut)
    /// while running, [`take_state`](SimContext::take_state) at end of run.
    pub fn state<T: Send + 'static>(&mut self, init: T) -> StateId<T> {
        self.ctx.arena.add_state(init)
    }

    /// Allocates a plain `u64` counter (initially zero) in the engine's
    /// state arena and returns its `Copy` handle.
    ///
    /// The build-time replacement for shared atomic counters: kernels bump
    /// it via [`SimContext::counter_add`]/[`counter_incr`](SimContext::counter_incr),
    /// observers read it via [`SimContext::counter`].
    pub fn counter(&mut self) -> CounterId {
        self.ctx.arena.add_counter()
    }

    /// Registers a kernel; kernels are stepped in registration order. The
    /// kernel's [`wake_set`](Kernel::wake_set) is recorded for the idle-set
    /// scheduler, and the kernel starts awake. Returns the kernel's id,
    /// usable with [`SimContext::wake_kernel`].
    pub fn add_kernel<K: Kernel + 'static>(&mut self, kernel: K) -> KernelId {
        self.register(Box::new(kernel))
    }

    /// The body of [`add_kernel`](Self::add_kernel), kept out of the
    /// generic function so it is compiled once rather than once per kernel
    /// type.
    fn register(&mut self, kernel: Box<dyn Kernel>) -> KernelId {
        let idx = self.kernels.len() as u32;
        let ws = kernel.wake_set();
        for ch in ws.on_push {
            self.ctx.subscribe_push(ch, idx);
        }
        for ch in ws.on_pop {
            self.ctx.subscribe_pop(ch, idx);
        }
        self.ctx.wake.push(true);
        self.ctx.awake_count += 1;
        if kernel.is_quiescence_gate() {
            self.gates.push(idx);
        }
        if let Some(counts) = &mut self.step_counts {
            counts.push(0);
        }
        self.kernels.push(kernel);
        idx
    }

    /// The current cycle (the next one to be executed).
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Number of registered kernels.
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// Number of kernels currently awake (not parked by the idle-set
    /// scheduler) — the maintained active-set size, O(1) instead of a
    /// recount of the wake flags.
    pub fn active_kernels(&self) -> usize {
        #[cfg(debug_assertions)]
        {
            let flagged = self.ctx.wake.iter().filter(|&&w| w).count();
            debug_assert_eq!(
                flagged, self.ctx.awake_count as usize,
                "maintained active-set size out of sync with the wake flags"
            );
        }
        self.ctx.awake_count as usize
    }

    /// `true` when kernel `k` is currently awake (in the active set).
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a registered kernel id.
    pub fn kernel_awake(&self, k: KernelId) -> bool {
        assert!((k as usize) < self.kernels.len(), "unknown kernel {k}");
        self.ctx.wake[k as usize]
    }

    /// Read access to the channel arena (statistics, post-run inspection).
    pub fn context(&self) -> &SimContext {
        &self.ctx
    }

    /// Mutable access to the channel arena — used by tests and harness code
    /// that drives channels directly, outside any kernel.
    pub fn context_mut(&mut self) -> &mut SimContext {
        &mut self.ctx
    }

    /// Snapshots every channel's statistics (see
    /// [`SimContext::channel_stats`]).
    pub fn channel_stats(&self) -> Vec<ChannelStats> {
        self.ctx.channel_stats()
    }

    /// Publishes the engine's counters into an observability registry —
    /// the engine layer's contribution to a cross-layer metrics snapshot.
    ///
    /// Publish-on-demand by design: nothing here touches the step path
    /// (the counters already exist; this re-exports them as absolute
    /// values at snapshot time), so enabling observability cannot perturb
    /// cycle-equivalence goldens.
    pub fn publish_metrics(&self, reg: &mut ditto_obs::MetricsRegistry) {
        let cycles = reg.counter("ditto_engine_cycles", "engine", "cycles");
        let steps = reg.counter("ditto_engine_kernel_steps", "engine", "items");
        let jumps = reg.counter("ditto_engine_ff_jumps", "engine", "items");
        let skipped = reg.counter("ditto_engine_ff_cycles_skipped", "engine", "cycles");
        let kernels = reg.gauge("ditto_engine_kernels", "engine", "kernels");
        let active = reg.gauge("ditto_engine_active_kernels", "engine", "kernels");
        reg.set_counter(cycles, self.cycle);
        reg.set_counter(steps, self.steps_executed);
        reg.set_counter(jumps, self.ff_jumps);
        reg.set_counter(skipped, self.ff_cycles_skipped);
        reg.set_gauge(kernels, self.kernels.len() as u64);
        reg.set_gauge(active, self.ctx.awake_count as u64);
        // The allocation-free aggregate, not the per-channel snapshot: a
        // per-poll publish cannot afford one name clone per channel.
        let agg = self.ctx.channel_aggregate();
        let h_pushes = reg.counter("ditto_engine_channel_pushes", "engine", "items");
        let h_pops = reg.counter("ditto_engine_channel_pops", "engine", "items");
        let h_stalls = reg.counter("ditto_engine_channel_full_stalls", "engine", "items");
        let h_occ = reg.gauge("ditto_engine_channel_max_occupancy", "engine", "items");
        reg.set_counter(h_pushes, agg.pushes);
        reg.set_counter(h_pops, agg.pops);
        reg.set_counter(h_stalls, agg.full_stalls);
        reg.set_gauge(h_occ, agg.max_occupancy as u64);
    }

    /// Executes exactly one clock cycle: every awake kernel steps once, in
    /// registration order.
    ///
    /// The loop is bounded by the maintained active set instead of
    /// unconditionally scanning the whole wake-flag vector: `scan_ahead`
    /// starts at the active-set size, each visited awake kernel consumes
    /// one unit, an in-cycle wake of a later-indexed kernel adds one (it
    /// steps this cycle; a wake behind the scan steps next cycle), and the
    /// loop exits the moment no awake kernel remains ahead — on a
    /// mostly-parked pipeline the tail of the kernel vector is never
    /// touched. A materialized index list (sorted insert / in-place
    /// remove, or a bitset) was measured strictly slower at tens of
    /// kernels: per-event list/bitset maintenance costs more than the
    /// predictable flag reads it saves, and an order-ignoring swap-remove
    /// list would break the registration-order stepping contract the
    /// cycle-equivalence goldens pin.
    pub fn step(&mut self) {
        let cy = self.cycle;
        let Engine {
            kernels,
            ctx,
            steps_executed,
            step_counts,
            ..
        } = self;
        ctx.scan_ahead = ctx.awake_count;
        let mut i = 0usize;
        while ctx.scan_ahead > 0 {
            if !ctx.wake[i] {
                i += 1;
                continue;
            }
            ctx.scan_ahead -= 1;
            *steps_executed += 1;
            if let Some(counts) = step_counts {
                counts[i] += 1;
            }
            ctx.current_kernel = i as u32;
            ctx.self_woken = false;
            if kernels[i].step(cy, ctx) == Progress::Sleep && !ctx.self_woken {
                // Park unless the kernel's own step triggered one of its
                // wake events (self-loop); the next subscribed event or
                // explicit wake re-activates it.
                ctx.wake[i] = false;
                ctx.awake_count -= 1;
            }
            i += 1;
        }
        self.ctx.current_kernel = u32::MAX;
        self.cycle += 1;
    }

    /// Attempts one steady-state fast-forward jump of at most `budget`
    /// cycles, returning the number of cycles skipped (zero when no jump
    /// was possible).
    ///
    /// The event horizon is the earliest of every awake kernel's
    /// [`Kernel::hold_until`] claim (any awake kernel declining with `None`
    /// aborts the jump) and `current cycle + budget`. Skipped cycles are
    /// provably no-ops: no
    /// kernel steps, no channel moves, no wake fires, so only the clock —
    /// and the jump telemetry — advances. Sleeping kernels need no proof:
    /// they are not stepped until a wake event, and no wake can fire inside
    /// the gap.
    pub fn fast_forward_now(&mut self, budget: u64) -> u64 {
        if budget == 0 {
            return 0;
        }
        let cy = self.cycle;
        let mut horizon = cy.saturating_add(budget);
        let mut remaining = self.ctx.awake_count;
        for (i, kernel) in self.kernels.iter().enumerate() {
            if remaining == 0 {
                break;
            }
            if self.ctx.wake[i] {
                remaining -= 1;
                match kernel.hold_until(cy, &self.ctx) {
                    Some(h) if h > cy => horizon = horizon.min(h),
                    _ => return 0,
                }
            }
        }
        let skipped = horizon - cy;
        if skipped > 0 {
            self.cycle = horizon;
            self.ff_jumps += 1;
            self.ff_cycles_skipped += skipped;
        }
        skipped
    }

    /// Executes `n` clock cycles unconditionally.
    ///
    /// With [fast-forward](Self::set_fast_forward) enabled, provably no-op
    /// cycle ranges inside the budget are jumped instead of stepped.
    pub fn run_cycles(&mut self, n: u64) {
        let end = self.cycle + n;
        while self.cycle < end {
            if self.fast_forward {
                self.fast_forward_now(end - self.cycle);
                if self.cycle >= end {
                    break;
                }
            }
            self.step();
        }
    }

    /// `true` when every quiescence gate (typically the sources) reports
    /// idle. While any gate still has data the pipeline cannot be
    /// quiescent, so this cheap check short-circuits the full scan.
    fn gates_idle(&self) -> bool {
        self.gates
            .iter()
            .all(|&g| self.kernels[g as usize].is_idle(&self.ctx))
    }

    /// `true` when every *awake* kernel reports idle — bounded by the
    /// active-set size, so the per-cycle quiescence check ends at the last
    /// awake kernel instead of walking the full population. Sleeping
    /// kernels are skipped: their idle status is frozen while they sleep,
    /// and the settling confirmation re-checks them before completion is
    /// declared.
    fn active_all_idle(&self) -> bool {
        let mut remaining = self.ctx.awake_count;
        for (k, kernel) in self.kernels.iter().enumerate() {
            if remaining == 0 {
                break;
            }
            if self.ctx.wake[k] {
                remaining -= 1;
                if !kernel.is_idle(&self.ctx) {
                    return false;
                }
            }
        }
        true
    }

    /// Full-population idle check used to confirm a completed settling
    /// window. Wakes any sleeping non-idle kernel it finds (so a stalled
    /// producer parked on backpressure gets to retry rather than deadlock
    /// the check).
    fn confirm_all_idle(&mut self) -> bool {
        let mut all = true;
        for i in 0..self.kernels.len() {
            if !self.kernels[i].is_idle(&self.ctx) {
                self.ctx.wake_kernel(i as u32);
                all = false;
            }
        }
        all
    }

    /// Runs until every kernel reports [`Kernel::is_idle`] for a settling
    /// window of consecutive cycles, or until `max_cycles` elapse.
    ///
    /// This is the standard way to drain a pipeline at end of input: sources
    /// become idle once exhausted, intermediate kernels once their queues are
    /// empty, and the settling window covers channel visibility latency.
    ///
    /// The per-cycle check only consults awake kernels (the active set); the
    /// full population is re-confirmed once when the settling window
    /// completes.
    pub fn run_until_quiescent(&mut self, max_cycles: u64) -> RunReport {
        let start = self.cycle;
        let mut idle_streak = 0u64;
        while self.cycle - start < max_cycles {
            if self.fast_forward {
                let remaining = max_cycles - (self.cycle - start);
                // The engine state is frozen across a jump, so each
                // skipped cycle's idle observation equals the current one;
                // credit them to the streak. When idle, the jump is capped
                // one cycle short of completing the settle window — the
                // completing cycle runs the full-population confirmation,
                // which may wake kernels, so it is always simulated.
                let idle_now = self.gates_idle() && self.active_all_idle();
                let budget = if idle_now {
                    remaining.min(QUIESCENT_SETTLE_CYCLES - idle_streak - 1)
                } else {
                    remaining
                };
                let skipped = self.fast_forward_now(budget);
                if idle_now {
                    idle_streak += skipped;
                }
                if self.cycle - start >= max_cycles {
                    break;
                }
            }
            self.step();
            // Gate filter: while any source still has data, the pipeline
            // cannot be quiescent — skip the full scan.
            if self.gates_idle() && self.active_all_idle() {
                idle_streak += 1;
                if idle_streak >= QUIESCENT_SETTLE_CYCLES {
                    if self.confirm_all_idle() {
                        return RunReport {
                            cycles: self.cycle - start,
                            completed: true,
                        };
                    }
                    idle_streak = 0;
                }
            } else {
                idle_streak = 0;
            }
        }
        RunReport {
            cycles: self.cycle - start,
            completed: false,
        }
    }

    /// Names of all registered kernels, in step order.
    pub fn kernel_names(&self) -> Vec<String> {
        self.kernels.iter().map(|k| k.name().to_owned()).collect()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("cycle", &self.cycle)
            .field("kernels", &self.kernel_count())
            .finish()
    }
}

/// Outcome of a bounded engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Cycles executed during this call.
    pub cycles: u64,
    /// `true` if the stop condition fired, `false` on cycle-budget timeout.
    pub completed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountTo {
        n: u64,
        hits: CounterId,
    }

    impl Kernel for CountTo {
        fn name(&self) -> &str {
            "count"
        }
        fn step(&mut self, _cy: Cycle, ctx: &mut SimContext) -> Progress {
            if ctx.counter(self.hits) < self.n {
                ctx.counter_incr(self.hits);
            }
            Progress::Busy
        }
        fn is_idle(&self, ctx: &SimContext) -> bool {
            ctx.counter(self.hits) >= self.n
        }
    }

    #[test]
    fn quiescence_requires_settle_window() {
        let mut e = Engine::new();
        let hits = e.counter();
        e.add_kernel(CountTo { n: 3, hits });
        let rep = e.run_until_quiescent(100);
        assert!(rep.completed);
        // Two fully busy cycles; the third cycle (where the kernel turns
        // idle) already counts toward the settle window.
        assert_eq!(rep.cycles, 2 + QUIESCENT_SETTLE_CYCLES);
    }

    #[test]
    fn step_order_is_registration_order() {
        struct Recorder {
            id: u64,
            log: CounterId,
        }
        impl Kernel for Recorder {
            fn name(&self) -> &str {
                "rec"
            }
            fn step(&mut self, _cy: Cycle, ctx: &mut SimContext) -> Progress {
                // Encode order: each step appends its id as a base-4 digit.
                ctx.set_counter(self.log, ctx.counter(self.log) * 4 + self.id);
                Progress::Busy
            }
        }
        let mut e = Engine::new();
        let log = e.counter();
        for id in 1..=3 {
            e.add_kernel(Recorder { id, log });
        }
        e.step();
        e.step();
        // Two cycles of 1,2,3 in base 4: 0o123123 base-4 digits.
        let mut expect = 0u64;
        for _ in 0..2 {
            for id in 1..=3 {
                expect = expect * 4 + id;
            }
        }
        assert_eq!(e.context().counter(log), expect);
    }

    #[test]
    fn sleeping_kernel_is_skipped_until_woken() {
        struct Sleeper {
            rx: ChannelBankId<u32>,
            steps: CounterId,
            got: CounterId,
        }
        impl Kernel for Sleeper {
            fn name(&self) -> &str {
                "sleeper"
            }
            fn step(&mut self, cy: Cycle, ctx: &mut SimContext) -> Progress {
                ctx.counter_incr(self.steps);
                if let Some(v) = ctx.bank_with(self.rx, |rx| rx.try_recv(cy, 0)) {
                    ctx.counter_add(self.got, u64::from(v));
                    Progress::Busy
                } else if ctx.bank_is_empty(self.rx, 0) {
                    Progress::Sleep
                } else {
                    Progress::Busy
                }
            }
            fn wake_set(&self) -> crate::WakeSet {
                crate::WakeSet::new().after_push_on_bank(self.rx)
            }
        }
        let mut e = Engine::new();
        let link = e.channel_bank::<u32>("in", 0, 1, 4);
        let steps = e.counter();
        let got = e.counter();
        e.add_kernel(Sleeper {
            rx: link,
            steps,
            got,
        });
        e.run_cycles(50);
        let step_count = |e: &Engine| e.context().counter(steps);
        assert_eq!(step_count(&e), 1, "parked after the first no-op step");
        // Push from outside any kernel: wakes the sleeper.
        e.context_mut()
            .bank_with(link, |tx| tx.try_send(50, 0, 7))
            .unwrap();
        e.run_cycles(4);
        assert_eq!(e.context().counter(got), 7);
        // Busy on the recv cycle, one more no-op step, asleep again.
        assert!(step_count(&e) <= 4, "steps {}", step_count(&e));
        let parked_steps = step_count(&e);
        e.run_cycles(50);
        assert_eq!(step_count(&e), parked_steps, "asleep again after drain");
    }

    #[test]
    fn wake_on_pop_releases_backpressured_producer() {
        struct Producer {
            tx: ChannelBankId<u32>,
            sent: CounterId,
            steps: CounterId,
        }
        impl Kernel for Producer {
            fn name(&self) -> &str {
                "producer"
            }
            fn step(&mut self, cy: Cycle, ctx: &mut SimContext) -> Progress {
                ctx.counter_incr(self.steps);
                if ctx.bank_can_send(self.tx, 0) {
                    ctx.bank_with(self.tx, |tx| tx.try_send(cy, 0, 1))
                        .expect("checked");
                    ctx.counter_incr(self.sent);
                    Progress::Busy
                } else {
                    Progress::Sleep
                }
            }
            fn wake_set(&self) -> crate::WakeSet {
                crate::WakeSet::new().after_pop_on_bank(self.tx)
            }
        }
        let mut e = Engine::new();
        let link = e.channel_bank::<u32>("out", 0, 1, 2);
        let sent = e.counter();
        let steps = e.counter();
        e.add_kernel(Producer {
            tx: link,
            sent,
            steps,
        });
        e.run_cycles(20);
        assert_eq!(e.context().counter(sent), 2, "filled the FIFO then parked");
        assert_eq!(
            e.context().counter(steps),
            3,
            "two sends + one parking no-op"
        );
        // Drain one item: the producer wakes and refills.
        assert_eq!(
            e.context_mut().bank_with(link, |rx| rx.try_recv(20, 0)),
            Some(1)
        );
        e.run_cycles(5);
        assert_eq!(e.context().counter(sent), 3);
    }

    #[test]
    fn step_counts_track_per_kernel_executions() {
        let mut e = Engine::new();
        assert!(e.step_counts().is_none(), "disabled by default");
        let hits = e.counter();
        e.add_kernel(CountTo { n: u64::MAX, hits });
        e.enable_step_counts();
        // Kernels registered after enabling are covered too.
        let hits2 = e.counter();
        e.add_kernel(CountTo {
            n: u64::MAX,
            hits: hits2,
        });
        e.run_cycles(7);
        assert_eq!(e.step_counts().unwrap(), &[7, 7]);
        assert_eq!(e.steps_executed(), 14, "aggregate counter unaffected");
        // Idempotent re-enable keeps counts.
        e.enable_step_counts();
        assert_eq!(e.step_counts().unwrap(), &[7, 7]);
    }

    #[test]
    fn engine_is_send() {
        fn assert_send<T: Send>(_t: &T) {}
        let mut e = Engine::new();
        let _ = e.channel_bank::<u64>("x", 0, 1, 4);
        let hits = e.counter();
        e.add_kernel(CountTo { n: 1, hits });
        assert_send(&e);
        // And it can actually cross a thread boundary mid-simulation.
        let e = std::thread::spawn(move || {
            let mut e = e;
            e.run_cycles(10);
            e
        })
        .join()
        .expect("no panic");
        assert_eq!(e.cycle(), 10);
    }

    #[test]
    fn state_registers_roundtrip() {
        #[derive(Debug, PartialEq)]
        struct Buf(Vec<u64>);
        let mut e = Engine::new();
        let a = e.state(Buf(vec![0; 4]));
        let b = e.state(7u64);
        let ctx = e.context_mut();
        ctx.state_mut(a).0[2] = 9;
        *ctx.state_mut(b) += 1;
        assert_eq!(ctx.state(a), &Buf(vec![0, 0, 9, 0]));
        assert_eq!(*ctx.state(b), 8);
        assert_eq!(ctx.take_state(a), Buf(vec![0, 0, 9, 0]));
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn state_double_take_panics() {
        let mut e = Engine::new();
        let id = e.state(1u64);
        let ctx = e.context_mut();
        assert_eq!(ctx.take_state(id), 1);
        let _ = ctx.take_state(id);
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn state_access_after_take_panics() {
        let mut e = Engine::new();
        let id = e.state(1u64);
        e.context_mut().take_state(id);
        let _ = e.context().state(id);
    }

    #[test]
    #[should_panic(expected = "mismatched type")]
    fn state_type_mismatch_panics() {
        let mut e = Engine::new();
        let id = e.state(1u64);
        // Forge a differently-typed handle onto the same slot.
        let wrong = StateId::<String> {
            idx: id.idx,
            _marker: PhantomData,
        };
        let _ = e.context().state(wrong);
    }
}
