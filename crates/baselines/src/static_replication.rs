//! The Fig. 1a baseline: static dispatch with replicated buffers.

use std::sync::Arc;

use datagen::Tuple;
use ditto_core::reader::MemoryReaderKernel;
use ditto_core::{ChannelTotals, DittoApp, ExecutionReport, RunOutcome};
use hls_sim::{
    ChannelBankId, CounterId, Cycle, Engine, Kernel, MemoryModel, Progress, SimContext,
    SliceSource, StateId, StreamSource, WakeSet,
};

/// Cycles the host CPU needs per replica entry during final aggregation,
/// expressed in FPGA-clock equivalents. Calibrated so that a 26 M-tuple
/// HISTO with 16 K bins × 16 replicas costs ~16 % of the kernel time, which
/// reproduces Table II's 1.2× advantage of Ditto over Jiang et al. [12].
pub(crate) const CPU_MERGE_CYCLES_PER_ENTRY: u64 = 2;

/// Static-dispatch design: the i-th tuple goes to PE `i mod M`, every PE
/// owns a *full replica* of the application state, and the CPU aggregates
/// the M partial results after the kernel finishes (Fig. 1a).
///
/// Perfectly load-balanced under any skew — the paper's point is not that
/// replication is slow, but that it wastes `M×` BRAM per PE and needs CPU
/// post-processing, which this model charges explicitly.
///
/// # Example
///
/// ```
/// use ditto_baselines::StaticReplicationDesign;
/// use ditto_core::apps::CountPerKey;
/// use datagen::UniformGenerator;
///
/// let data = UniformGenerator::new(1 << 16, 1).take_vec(5_000);
/// let design = StaticReplicationDesign::new(4, 8, 1);
/// let out = design.run(CountPerKey::new(1), data);
/// assert_eq!(out.output.iter().sum::<u64>(), 5_000);
/// ```
#[derive(Debug, Clone)]
pub struct StaticReplicationDesign {
    n_lanes: u32,
    m_pes: u32,
    replica_entries: usize,
    lane_depth: usize,
}

/// The M statically fed PEs, stepped as one bank kernel over the reader's
/// `lane` bank: PE `i` consumes lane `i` at `ii_pri` cycles per tuple
/// against its own full replica. Members share nothing, so serving them
/// in lane order is the schedule of M per-lane kernels.
struct StaticPeBank<A: DittoApp> {
    app: Arc<A>,
    input: ChannelBankId<Tuple>,
    states: Vec<StateId<A::State>>,
    processed: Vec<CounterId>,
    busy_until: Vec<Cycle>,
    /// Tuples popped this step, between the one resolution of the lane
    /// bank and the per-replica updates.
    staged: Vec<(usize, Tuple)>,
}

impl<A: DittoApp + 'static> Kernel for StaticPeBank<A> {
    fn name(&self) -> &str {
        "static-pe#bank"
    }

    fn step(&mut self, cy: Cycle, ctx: &mut SimContext) -> Progress {
        // Busy if any member would be: waiting out its II, consuming, or
        // holding an item that is not visible yet.
        let mut busy = false;
        let ii = Cycle::from(self.app.ii_pri());
        let (busy_until, staged) = (&mut self.busy_until, &mut self.staged);
        ctx.bank_with(self.input, |lanes| {
            for (i, busy_until) in busy_until.iter_mut().enumerate() {
                if cy < *busy_until {
                    busy = true;
                } else if let Some(tuple) = lanes.try_recv(cy, i) {
                    staged.push((i, tuple));
                    *busy_until = cy + ii;
                    busy = true;
                } else {
                    busy |= !lanes.is_empty(i);
                }
            }
        });
        for (i, tuple) in self.staged.drain(..) {
            // Static dispatch still computes the application update, but
            // against the PE's own full replica: the app is constructed
            // with M = 1 (one logical partition, replicated M times), so
            // the routing dst is trivially 0.
            let routed = self.app.preprocess(tuple, 1);
            self.app
                .process(ctx.state_mut(self.states[i]), &routed.value);
            ctx.counter_incr(self.processed[i]);
        }
        Progress::busy_if(busy)
    }

    fn is_idle(&self, ctx: &SimContext) -> bool {
        (0..self.states.len()).all(|i| ctx.bank_is_empty(self.input, i))
    }

    fn wake_set(&self) -> WakeSet {
        WakeSet::new().after_push_on_bank(self.input)
    }
}

impl StaticReplicationDesign {
    /// Creates a static design with `n_lanes` memory lanes feeding `m_pes`
    /// PEs, each holding a full `replica_entries`-entry state.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    pub fn new(n_lanes: u32, m_pes: u32, replica_entries: usize) -> Self {
        assert!(n_lanes > 0 && m_pes > 0, "lanes and PEs must be nonzero");
        assert!(replica_entries > 0, "replica must have entries");
        StaticReplicationDesign {
            n_lanes,
            m_pes,
            replica_entries,
            lane_depth: 8,
        }
    }

    /// BRAM entries each PE buffers — the full replica, which is the `M×`
    /// per-PE usage Table II's "B.U. saving" column divides by.
    pub fn entries_per_pe(&self) -> usize {
        self.replica_entries
    }

    /// Memory lanes of the design (the interface's words-per-cycle budget).
    pub fn n_lanes(&self) -> u32 {
        self.n_lanes
    }

    /// Runs the design to completion over `data`, charging the CPU-side
    /// aggregation to the reported cycle count.
    pub fn run<A: DittoApp + 'static>(&self, app: A, data: Vec<Tuple>) -> RunOutcome<A::Output> {
        let app = Arc::new(app);
        let tuples = data.len() as u64;
        let budget = tuples * (u64::from(app.ii_pri()) + 2) + 500_000;
        let source: Box<dyn StreamSource<Tuple>> = Box::new(SliceSource::new(
            data,
            Tuple::PAPER_WIDTH_BYTES,
            MemoryModel::new(64, 16),
        ));

        let mut engine = Engine::new();
        let lanes = engine.channel_bank::<Tuple>("lane", 0, self.m_pes as usize, self.lane_depth);
        let states: Vec<StateId<A::State>> = (0..self.m_pes)
            .map(|_| engine.state(app.new_state(self.replica_entries)))
            .collect();
        let per_pe: Vec<CounterId> = (0..self.m_pes).map(|_| engine.counter()).collect();
        let issued = engine.counter();

        // Reuse the Ditto memory access engine: its round-robin lane fill
        // is exactly the paper's "assigning the i-th data to the i-th PE"
        // static scheme.
        engine.add_kernel(MemoryReaderKernel::new(source, lanes, issued));
        engine.add_kernel(StaticPeBank {
            app: Arc::clone(&app),
            input: lanes,
            states: states.clone(),
            processed: per_pe.clone(),
            busy_until: vec![0; self.m_pes as usize],
            staged: Vec::with_capacity(self.m_pes as usize),
        });
        let rep = engine.run_until_quiescent(budget);
        assert!(rep.completed, "static pipeline failed to drain");
        let kernel_cycles = engine.cycle();
        let kernel_steps = engine.steps_executed();
        let channels = engine.channel_stats();

        // CPU-side aggregation of M replicas (the "intervention from the
        // CPU side" Fig. 1a requires).
        let merge_cycles =
            u64::from(self.m_pes) * self.replica_entries as u64 * CPU_MERGE_CYCLES_PER_ENTRY;

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
                label: format!("static-{}pe", self.m_pes),
                cycles: kernel_cycles + merge_cycles,
                tuples: processed,
                reschedules: 0,
                plans_generated: 0,
                per_pe_processed: per_pe,
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
    fn static_dispatch_is_skew_immune() {
        let design = StaticReplicationDesign::new(4, 8, 1);
        let uniform = UniformGenerator::new(1 << 16, 1).take_vec(8_000);
        let skewed = ZipfGenerator::new(3.0, 1 << 16, 1).take_vec(8_000);
        let u = design.run(CountPerKey::new(1), uniform);
        let s = design.run(CountPerKey::new(1), skewed);
        let ratio = u.report.tuples_per_cycle() / s.report.tuples_per_cycle();
        assert!(
            (0.8..1.25).contains(&ratio),
            "static design should not care about skew: {ratio}"
        );
    }

    #[test]
    fn workload_is_balanced_by_construction() {
        let design = StaticReplicationDesign::new(4, 8, 1);
        let skewed = ZipfGenerator::new(3.0, 1 << 16, 7).take_vec(8_000);
        let out = design.run(CountPerKey::new(1), skewed);
        assert!(out.report.imbalance(8) < 1.1, "{}", out.report.imbalance(8));
    }

    #[test]
    fn cpu_merge_cost_is_charged() {
        let small = StaticReplicationDesign::new(4, 8, 1);
        let big = StaticReplicationDesign::new(4, 8, 100_000);
        let data = UniformGenerator::new(1 << 16, 2).take_vec(2_000);
        let a = small.run(CountPerKey::new(1), data.clone());
        let b = big.run(CountPerKey::new(1), data);
        assert!(
            b.report.cycles > a.report.cycles + 500_000,
            "large replicas must cost CPU merge time: {} vs {}",
            b.report.cycles,
            a.report.cycles
        );
    }

    #[test]
    fn counts_are_preserved() {
        let design = StaticReplicationDesign::new(4, 8, 1);
        let data = ZipfGenerator::new(1.0, 1 << 12, 9).take_vec(5_000);
        let out = design.run(CountPerKey::new(1), data);
        assert_eq!(out.output.iter().sum::<u64>(), 5_000);
    }
}
