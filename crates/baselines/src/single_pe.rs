//! The single-PE RTL baseline (Tong et al. [19] style).

use std::sync::Arc;

use datagen::Tuple;
use ditto_core::reader::MemoryReaderKernel;
use ditto_core::{ChannelTotals, DittoApp, ExecutionReport, RunOutcome};
use hls_sim::{
    ChannelBankId, CounterId, Cycle, Engine, Kernel, MemoryModel, Progress, SimContext,
    SliceSource, StateId, StreamSource, WakeSet,
};

/// A single deeply pipelined PE, as in RTL sketch accelerators: II = 1
/// (hand-written RTL hides the read-modify-write), but only one tuple can
/// enter per cycle regardless of how wide the memory interface is.
///
/// The paper's HHD comparison ("our HHD outperforms work [19] which only
/// has one PE") reduces to exactly this structural limit: Ditto processes
/// `Wmem/Wtuple` tuples per cycle, the single PE one.
///
/// # Example
///
/// ```
/// use ditto_baselines::SinglePeDesign;
/// use ditto_core::apps::CountPerKey;
/// use datagen::UniformGenerator;
///
/// let data = UniformGenerator::new(1 << 16, 1).take_vec(4_000);
/// let out = SinglePeDesign::new(1).run(CountPerKey::new(1), data);
/// assert_eq!(out.output.iter().sum::<u64>(), 4_000);
/// // Structural ceiling: one tuple per cycle.
/// assert!(out.report.tuples_per_cycle() <= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct SinglePeDesign {
    ii: u32,
    state_entries: usize,
}

struct OnePe<A: DittoApp> {
    app: Arc<A>,
    ii: u32,
    /// The reader's one-member `lane` bank.
    input: ChannelBankId<Tuple>,
    state: StateId<A::State>,
    processed: CounterId,
    busy_until: Cycle,
}

impl<A: DittoApp + 'static> Kernel for OnePe<A> {
    fn name(&self) -> &str {
        "single-pe"
    }

    fn step(&mut self, cy: Cycle, ctx: &mut SimContext) -> Progress {
        if cy < self.busy_until {
            return Progress::Busy;
        }
        if let Some(tuple) = ctx.bank_with(self.input, |lane| lane.try_recv(cy, 0)) {
            let routed = self.app.preprocess(tuple, 1);
            self.app.process(ctx.state_mut(self.state), &routed.value);
            ctx.counter_incr(self.processed);
            self.busy_until = cy + Cycle::from(self.ii);
            Progress::Busy
        } else if ctx.bank_is_empty(self.input, 0) {
            Progress::Sleep
        } else {
            Progress::Busy
        }
    }

    fn is_idle(&self, ctx: &SimContext) -> bool {
        ctx.bank_is_empty(self.input, 0)
    }

    fn wake_set(&self) -> WakeSet {
        WakeSet::new().after_push_on_bank(self.input)
    }
}

impl SinglePeDesign {
    /// Creates the design with the given initiation interval (RTL designs
    /// typically reach II = 1) and a default state size.
    ///
    /// # Panics
    ///
    /// Panics if `ii` is zero.
    pub fn new(ii: u32) -> Self {
        assert!(ii > 0, "II must be nonzero");
        SinglePeDesign {
            ii,
            state_entries: 1024,
        }
    }

    /// Sets the PE's state size in entries.
    pub fn with_state_entries(mut self, entries: usize) -> Self {
        self.state_entries = entries;
        self
    }

    /// Runs the design over `data` (the app must be built with M = 1).
    pub fn run<A: DittoApp + 'static>(&self, app: A, data: Vec<Tuple>) -> RunOutcome<A::Output> {
        let app = Arc::new(app);
        let tuples = data.len() as u64;
        let budget = tuples * (u64::from(self.ii) + 2) + 500_000;
        let source: Box<dyn StreamSource<Tuple>> = Box::new(SliceSource::new(
            data,
            Tuple::PAPER_WIDTH_BYTES,
            MemoryModel::new(64, 16),
        ));
        let mut engine = Engine::new();
        let lane = engine.channel_bank::<Tuple>("lane", 0, 1, 8);
        let state = engine.state(app.new_state(self.state_entries));
        let processed = engine.counter();
        let issued = engine.counter();

        engine.add_kernel(MemoryReaderKernel::new(source, lane, issued));
        engine.add_kernel(OnePe {
            app: Arc::clone(&app),
            ii: self.ii,
            input: lane,
            state,
            processed,
            busy_until: 0,
        });
        let rep = engine.run_until_quiescent(budget);
        assert!(rep.completed, "single-PE pipeline failed to drain");
        let cycles = engine.cycle();
        let kernel_steps = engine.steps_executed();
        let channels = engine.channel_stats();

        let ctx = engine.context_mut();
        let done = ctx.counter(processed);
        let final_state = ctx.take_state(state);
        let output = app.finalize(vec![final_state]);
        RunOutcome {
            output,
            report: ExecutionReport {
                label: "single-pe".to_owned(),
                cycles,
                tuples: done,
                reschedules: 0,
                plans_generated: 0,
                per_pe_processed: vec![done],
                completed: true,
                channel_totals: ChannelTotals::aggregate(&channels),
                kernel_steps,
                protocol_cycles: Default::default(),
            },
            channels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{UniformGenerator, ZipfGenerator};
    use ditto_core::apps::CountPerKey;

    #[test]
    fn one_tuple_per_cycle_ceiling() {
        let data = UniformGenerator::new(1 << 16, 3).take_vec(10_000);
        let out = SinglePeDesign::new(1).run(CountPerKey::new(1), data);
        let tpc = out.report.tuples_per_cycle();
        assert!(tpc > 0.9 && tpc <= 1.0, "tpc {tpc}");
    }

    #[test]
    fn skew_does_not_matter_for_one_pe() {
        let u = UniformGenerator::new(1 << 16, 3).take_vec(5_000);
        let s = ZipfGenerator::new(3.0, 1 << 16, 3).take_vec(5_000);
        let a = SinglePeDesign::new(1).run(CountPerKey::new(1), u);
        let b = SinglePeDesign::new(1).run(CountPerKey::new(1), s);
        let ratio = a.report.tuples_per_cycle() / b.report.tuples_per_cycle();
        assert!((0.9..1.1).contains(&ratio), "{ratio}");
    }

    #[test]
    fn ii_two_halves_throughput() {
        let data = UniformGenerator::new(1 << 16, 4).take_vec(5_000);
        let fast = SinglePeDesign::new(1).run(CountPerKey::new(1), data.clone());
        let slow = SinglePeDesign::new(2).run(CountPerKey::new(1), data);
        let ratio = fast.report.tuples_per_cycle() / slow.report.tuples_per_cycle();
        assert!((1.8..2.2).contains(&ratio), "{ratio}");
    }
}
