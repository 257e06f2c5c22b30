//! Atomic work-stealing baseline (Ramanathan et al. [11], related work).
//!
//! The paper's Challenge 1 argues that classic load balancing — idle PEs
//! stealing work through OpenCL atomics — "will not pay off" for
//! data-intensive applications, because the computation per tuple is a
//! couple of cycles while every steal costs an atomic round-trip that
//! stalls the pipeline. This model makes that argument quantitative: a
//! shared queue guarded by an atomic whose access costs
//! `atomic_latency_cycles`, consumed by M otherwise-identical PEs.
//!
//! The steady-state throughput ceiling is `M / (II + atomic)` tuples/cycle
//! — with the paper's II = 2 and a realistic ~20-cycle OpenCL atomic, 16
//! PEs reach at most 16/22 ≈ 0.73 tuples/cycle, an order of magnitude under
//! the 8/cycle the routing fabric sustains. Work stealing balances load
//! perfectly; it is the *per-tuple synchronisation* that kills it.

use std::collections::VecDeque;
use std::sync::Arc;

use datagen::Tuple;
use ditto_core::{ChannelTotals, DittoApp, ExecutionReport, RunOutcome};
use hls_sim::{
    CounterId, Cycle, Engine, Kernel, MemoryModel, Progress, SimContext, SliceSource, StateId,
    StreamSource,
};

/// Shared work queue with an atomic access cost and a two-phase
/// round-robin arbiter: PEs *request* during their step, and the arbiter
/// grants one request per free atomic slot to the requester closest to a
/// rotating priority cursor — the standard fair-arbiter structure, which
/// prevents the first PE in step order from starving the rest.
///
/// The queue sits outside the *channel* arena (it models an OpenCL global
/// atomic, not a `cl_channel`), so the kernels touching it never park:
/// there is no channel event to wake them on. It lives in the *state*
/// arena instead — one register every PE and the filler address through
/// the same `StateId`, plain data with no locks.
struct SharedQueue {
    items: VecDeque<Tuple>,
    /// The cycle until which the queue's atomic is held by some PE.
    locked_until: u64,
    /// PE holding grant priority (advances past each winner).
    cursor: u32,
    /// Requests raised during the previous cycle's PE steps.
    requests: Vec<u32>,
    /// One-deep grant mailbox per PE.
    mailbox: Vec<Option<Tuple>>,
    m_pes: u32,
}

impl SharedQueue {
    /// Raises PE `pe`'s steal request for the next arbitration round.
    fn request(&mut self, pe: u32) {
        self.requests.push(pe);
    }

    /// Grants at most one pending request (arbiter step, once per cycle).
    fn grant(&mut self, cy: Cycle, atomic_latency: u64) {
        if cy < self.locked_until {
            self.requests.clear();
            return;
        }
        let cursor = self.cursor;
        let winner = self
            .requests
            .iter()
            .copied()
            .min_by_key(|&pe| (pe + self.m_pes - cursor) % self.m_pes);
        self.requests.clear();
        let Some(pe) = winner else { return };
        let Some(item) = self.items.pop_front() else {
            return;
        };
        self.mailbox[pe as usize] = Some(item);
        self.locked_until = cy + atomic_latency;
        self.cursor = (pe + 1) % self.m_pes;
    }
}

/// Work-stealing design: M PEs pull tuples from one atomic-guarded queue.
///
/// # Example
///
/// ```
/// use ditto_baselines::WorkStealingDesign;
/// use ditto_core::apps::CountPerKey;
/// use datagen::ZipfGenerator;
///
/// let data = ZipfGenerator::new(3.0, 1 << 16, 5).take_vec(4_000);
/// let out = WorkStealingDesign::new(16, 20).run(CountPerKey::new(1), data);
/// // Perfectly balanced under any skew...
/// assert!(out.report.imbalance(16) < 1.3);
/// // ...but the atomic serialises the PEs far below the 8/cycle interface.
/// assert!(out.report.tuples_per_cycle() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct WorkStealingDesign {
    m_pes: u32,
    atomic_latency_cycles: u64,
}

struct StealingPe<A: DittoApp> {
    name: String,
    id: u32,
    app: Arc<A>,
    queue: StateId<SharedQueue>,
    state: StateId<A::State>,
    processed: CounterId,
    busy_until: Cycle,
}

impl<A: DittoApp + 'static> Kernel for StealingPe<A> {
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, cy: Cycle, ctx: &mut SimContext) -> Progress {
        if let Some(tuple) = ctx.state_mut(self.queue).mailbox[self.id as usize].take() {
            let routed = self.app.preprocess(tuple, 1);
            self.app.process(ctx.state_mut(self.state), &routed.value);
            ctx.counter_incr(self.processed);
            self.busy_until = cy + Cycle::from(self.app.ii_pri());
            return Progress::Busy;
        }
        if cy >= self.busy_until {
            ctx.state_mut(self.queue).request(self.id);
        }
        Progress::Busy
    }

    fn is_idle(&self, ctx: &SimContext) -> bool {
        let queue = ctx.state(self.queue);
        queue.items.is_empty() && queue.mailbox[self.id as usize].is_none()
    }
}

/// Feeds the shared queue from the memory interface.
struct QueueFiller {
    source: Box<dyn StreamSource<Tuple>>,
    queue: StateId<SharedQueue>,
    cap: usize,
    atomic_latency: u64,
    buf: Vec<Tuple>,
}

impl Kernel for QueueFiller {
    fn name(&self) -> &str {
        "queue-filler"
    }

    fn step(&mut self, cy: Cycle, ctx: &mut SimContext) -> Progress {
        // Arbiter phase: grant one of last cycle's requests.
        let queue = ctx.state_mut(self.queue);
        queue.grant(cy, self.atomic_latency);
        let len = queue.items.len();
        if len >= self.cap || self.source.exhausted() {
            return Progress::Busy;
        }
        self.buf.clear();
        self.source.pull(cy, self.cap - len, &mut self.buf);
        ctx.state_mut(self.queue)
            .items
            .extend(self.buf.iter().copied());
        Progress::Busy
    }

    fn is_idle(&self, _ctx: &SimContext) -> bool {
        self.source.exhausted()
    }

    fn is_quiescence_gate(&self) -> bool {
        true
    }
}

impl WorkStealingDesign {
    /// Creates a design with `m_pes` PEs and the given atomic access cost
    /// (OpenCL global atomics are ~tens of cycles).
    ///
    /// # Panics
    ///
    /// Panics if `m_pes` is zero.
    pub fn new(m_pes: u32, atomic_latency_cycles: u64) -> Self {
        assert!(m_pes > 0, "need at least one PE");
        WorkStealingDesign {
            m_pes,
            atomic_latency_cycles,
        }
    }

    /// Structural throughput ceiling in tuples/cycle: the atomic section
    /// admits one grant per `atomic_latency` cycles system-wide, so the
    /// design cannot exceed `min(M / II, 1 / atomic_latency)`.
    pub fn ceiling_tuples_per_cycle(&self, ii: u32) -> f64 {
        let serial = 1.0 / self.atomic_latency_cycles.max(1) as f64;
        let parallel = f64::from(self.m_pes) / f64::from(ii.max(1));
        serial.min(parallel)
    }

    /// Runs the design over `data` (app built with M = 1 semantics: every
    /// PE can process any tuple against a replicated state).
    pub fn run<A: DittoApp + 'static>(&self, app: A, data: Vec<Tuple>) -> RunOutcome<A::Output> {
        let app = Arc::new(app);
        let tuples = data.len() as u64;
        let budget = tuples * (self.atomic_latency_cycles + 4) + 500_000;
        let source: Box<dyn StreamSource<Tuple>> = Box::new(SliceSource::new(
            data,
            Tuple::PAPER_WIDTH_BYTES,
            MemoryModel::new(64, 16),
        ));
        let mut engine = Engine::new();
        let queue = engine.state(SharedQueue {
            items: VecDeque::new(),
            locked_until: 0,
            cursor: 0,
            requests: Vec::new(),
            mailbox: (0..self.m_pes).map(|_| None).collect(),
            m_pes: self.m_pes,
        });
        let states: Vec<StateId<A::State>> = (0..self.m_pes)
            .map(|_| engine.state(app.new_state(1024)))
            .collect();
        let per_pe: Vec<CounterId> = (0..self.m_pes).map(|_| engine.counter()).collect();

        engine.add_kernel(QueueFiller {
            source,
            queue,
            cap: 64,
            atomic_latency: self.atomic_latency_cycles,
            buf: Vec::new(),
        });
        for (i, &state) in states.iter().enumerate() {
            engine.add_kernel(StealingPe {
                name: format!("steal-pe#{i}"),
                id: i as u32,
                app: Arc::clone(&app),
                queue,
                state,
                processed: per_pe[i],
                busy_until: 0,
            });
        }
        let rep = engine.run_until_quiescent(budget);
        assert!(rep.completed, "work-stealing pipeline failed to drain");
        let cycles = engine.cycle();
        let kernel_steps = engine.steps_executed();

        let ctx = engine.context_mut();
        let mut iter = states.iter().map(|&id| ctx.take_state(id));
        let mut first = iter.next().expect("at least one PE");
        for other in iter {
            app.merge(&mut first, &other);
        }
        let output = app.finalize(vec![first]);
        let per_pe: Vec<u64> = per_pe.iter().map(|&c| ctx.counter(c)).collect();
        let processed: u64 = per_pe.iter().sum();
        RunOutcome {
            output,
            report: ExecutionReport {
                label: format!("steal-{}pe", self.m_pes),
                cycles,
                tuples: processed,
                reschedules: 0,
                plans_generated: 0,
                per_pe_processed: per_pe,
                completed: true,
                channel_totals: ChannelTotals::default(),
                kernel_steps,
                protocol_cycles: Default::default(),
            },
            channels: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{UniformGenerator, ZipfGenerator};
    use ditto_core::apps::CountPerKey;

    #[test]
    fn atomic_serialises_throughput() {
        let data = UniformGenerator::new(1 << 16, 1).take_vec(4_000);
        let out = WorkStealingDesign::new(16, 20).run(CountPerKey::new(1), data);
        let tpc = out.report.tuples_per_cycle();
        // One steal per 20 cycles: ~0.05/cycle, far below the interface's 8.
        assert!(tpc < 0.1, "tpc {tpc}");
        assert_eq!(out.output.iter().sum::<u64>(), 4_000);
    }

    #[test]
    fn cheap_atomic_recovers_parallelism() {
        let data = UniformGenerator::new(1 << 16, 2).take_vec(4_000);
        let out = WorkStealingDesign::new(16, 1).run(CountPerKey::new(1), data);
        assert!(
            out.report.tuples_per_cycle() > 0.8,
            "{}",
            out.report.tuples_per_cycle()
        );
    }

    #[test]
    fn perfectly_balanced_under_skew() {
        let data = ZipfGenerator::new(3.0, 1 << 16, 3).take_vec(4_000);
        let out = WorkStealingDesign::new(8, 10).run(CountPerKey::new(1), data);
        assert!(out.report.imbalance(8) < 1.3, "{}", out.report.imbalance(8));
    }

    #[test]
    fn skew_immune_but_slower_than_routing() {
        // The paper's argument in one assertion: even under extreme skew,
        // Ditto's routed design outruns atomic work stealing.
        let data = ZipfGenerator::new(3.0, 1 << 16, 5).take_vec(6_000);
        let steal = WorkStealingDesign::new(16, 20).run(CountPerKey::new(1), data.clone());
        let cfg = ditto_core::ArchConfig::paper(15).with_pe_entries(8);
        let ditto =
            ditto_core::SkewObliviousPipeline::run_dataset(CountPerKey::new(16), data, &cfg);
        assert!(
            ditto.report.tuples_per_cycle() > 5.0 * steal.report.tuples_per_cycle(),
            "ditto {} vs steal {}",
            ditto.report.tuples_per_cycle(),
            steal.report.tuples_per_cycle()
        );
    }
}
