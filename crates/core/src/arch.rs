//! Pipeline assembly: builds and runs the full Fig. 3 architecture.

use std::sync::Arc;

use hls_sim::{ChannelStats, CounterId, Engine, MemoryModel, SliceSource, StateId, StreamSource};

use crate::app::DittoApp;
use crate::config::ArchConfig;
use crate::control::{Control, ControlId};
use crate::mapper::MapperBank;
use crate::mask::MaskTable;
use crate::merger::MergerKernel;
use crate::pe::{PeRole, PrePeBank, ProcPeBank};
use crate::phase::PhasePlan;
use crate::profiler::{ProfilerKernel, ProfilerParams};
use crate::reader::MemoryReaderKernel;
use crate::report::{ChannelTotals, ExecutionReport, StatSnapshot};
use crate::routing::{CombinerKernel, FilterBank, WideWord, MAX_DEST_PES};
use crate::{PeId, Routed, SchedulingPlan, Tuple};

/// Result of a pipeline run: the application output plus measurements.
#[derive(Debug)]
pub struct RunOutcome<O> {
    /// The application's finalized output (e.g. the global histogram).
    pub output: O,
    /// Cycle counts, throughput and workload statistics.
    pub report: ExecutionReport,
    /// Per-channel statistics at end of run, in creation order (lanes,
    /// PrePE outputs, mapper outputs, wide-word datapaths, PE inputs, plan
    /// and profiler-feed channels).
    pub channels: Vec<ChannelStats>,
}

/// Builder/runner for the skew-oblivious data routing architecture.
///
/// See the [crate-level documentation](crate) for the module diagram. The
/// two entry points are [`run_dataset`](Self::run_dataset) (offline: stream
/// a dataset from "global memory", drain, merge, finalize) and
/// [`run_stream_for`](Self::run_stream_for) (online: run a rate-limited
/// source for a fixed number of cycles — the Fig. 9 scenario). Both are thin
/// run-to-completion wrappers around [`PersistentPipeline`], which serving
/// layers drive incrementally instead.
///
/// Runs are `Send` end to end — the engine, every kernel and all shared
/// state cross thread boundaries — so scenario sweeps (one run per
/// app × skew × configuration point) parallelise with plain scoped threads.
pub struct SkewObliviousPipeline;

/// A fully assembled pipeline that can be driven incrementally.
///
/// This is the long-lived form of the architecture: an engine plus the
/// arena handles (the register of all `M + X` PE buffers, the scheduling
/// plan, the control block and the processed-tuple counters) that a serving layer
/// needs to keep one simulated FPGA alive across many requests. Everything
/// behind those handles lives in the engine's state arena — the pipeline
/// holds only `Copy` ids and resolves them on demand, so keeping a
/// pipeline alive costs nothing and moving it across threads is a plain
/// move. One `ditto-serve` shard owns exactly one `PersistentPipeline` and
/// steps it between batch admissions; the offline entry points build one,
/// run it to completion and tear it down in a single call.
///
/// The lifecycle is: [`new`](Self::new) → any number of
/// [`step_cycles`](Self::step_cycles) / [`snapshot`](Self::snapshot) calls →
/// [`drain`](Self::drain) once the source is exhausted → one of the
/// consuming finishers ([`finish`](Self::finish) or
/// [`finish_states`](Self::finish_states)).
pub struct PersistentPipeline<A: DittoApp> {
    engine: Engine,
    app: Arc<A>,
    /// Every destination PE's private buffer, indexed by PE id.
    states: StateId<Vec<A::State>>,
    per_pe_counters: Vec<CounterId>,
    processed: CounterId,
    plan: StateId<SchedulingPlan>,
    control: ControlId,
    plans_generated: CounterId,
    label: String,
    m_pri: u32,
    pe_entries: usize,
    /// `false` once a bounded drain gave up — reported, not asserted, so
    /// callers can attribute the failure themselves.
    drained_ok: bool,
}

/// Resolves the effective steady-state fast-forward setting: the
/// `DITTO_FAST_FORWARD` environment variable (`1`/`true` to force on, `0`
/// to force off; read once per process) overrides the configuration flag.
/// The escape hatch lets CI re-run the cycle-equivalence goldens with
/// fast-forward enabled without touching every construction site.
fn fast_forward_enabled(config: &ArchConfig) -> bool {
    static OVERRIDE: std::sync::OnceLock<Option<bool>> = std::sync::OnceLock::new();
    let forced = OVERRIDE
        .get_or_init(|| parse_fast_forward(std::env::var("DITTO_FAST_FORWARD").ok().as_deref()));
    forced.unwrap_or(config.steady_state_fast_forward)
}

/// `DITTO_FAST_FORWARD`'s value as a forced setting: `None` when unset, a
/// panic naming the variable, the value and the accepted forms when
/// malformed.
fn parse_fast_forward(raw: Option<&str>) -> Option<bool> {
    let v = raw?;
    match v {
        "1" => Some(true),
        "0" => Some(false),
        _ if v.eq_ignore_ascii_case("true") => Some(true),
        _ => {
            panic!("DITTO_FAST_FORWARD={v:?} does not parse: expected `1`/`true` (on) or `0` (off)")
        }
    }
}

impl SkewObliviousPipeline {
    /// Runs `app` over an in-memory dataset streamed through the default
    /// memory interface (64-byte wide, the paper's platform), draining the
    /// pipeline completely, then merging and finalizing.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline fails to drain within an internal cycle
    /// budget proportional to the dataset size — which would indicate a
    /// deadlock bug, not a data property.
    pub fn run_dataset<A: DittoApp + 'static>(
        app: A,
        data: Vec<Tuple>,
        config: &ArchConfig,
    ) -> RunOutcome<A::Output> {
        let tuples = data.len() as u64;
        // Worst case is every tuple serialised through one PE at ii_pri
        // cycles each, plus generous pipeline/profiling slack.
        let budget = tuples * (u64::from(app.ii_pri()) + 2) + 500_000;
        let source = SliceSource::new(data, Tuple::PAPER_WIDTH_BYTES, MemoryModel::new(64, 16));
        let mut built = PersistentPipeline::new(app, Box::new(source), config);
        built.expect_drained(budget);
        built.finish()
    }

    /// Runs `app` over an arbitrary source for exactly `cycles` cycles
    /// (online processing: the source typically outlives the run), then
    /// merges and finalizes whatever has been processed.
    pub fn run_stream_for<A: DittoApp + 'static>(
        app: A,
        source: Box<dyn StreamSource<Tuple>>,
        config: &ArchConfig,
        cycles: u64,
    ) -> RunOutcome<A::Output> {
        let mut built = PersistentPipeline::new(app, source, config);
        built.step_cycles(cycles);
        built.finish()
    }
}

impl<A: DittoApp + 'static> PersistentPipeline<A> {
    /// Assembles all kernels and channels for one pipeline instance fed by
    /// `source`: one kernel per module array (nine with SecPEs, six
    /// without — see the [crate-level diagram](crate)), over one channel
    /// bank per channel array.
    ///
    /// # Panics
    ///
    /// Panics if `config.destination_pes()` exceeds the wide word's
    /// destination-mask range.
    pub fn new(app: A, source: Box<dyn StreamSource<Tuple>>, config: &ArchConfig) -> Self {
        let app = Arc::new(app);
        let n = config.n_pre as usize;
        let pes = config.destination_pes() as usize;
        assert!(
            pes <= MAX_DEST_PES,
            "M + X = {pes} exceeds the wide word's {MAX_DEST_PES}-destination mask range"
        );
        let m = config.m_pri;
        let mask = Arc::new(MaskTable::new(config.n_pre));

        let mut engine = Engine::new();
        let control = engine.state(Control::new(config.x_sec));
        let processed = engine.counter();
        let issued = engine.counter();
        let plan = engine.state(SchedulingPlan::empty());
        // Creation order is the `channel_stats()` row order the goldens
        // pin: array by array along the dataflow, one row per member.
        let lanes = engine.channel_bank::<Tuple>("lane", 0, n, config.lane_queue_depth);
        let pre_out = engine.channel_bank::<Routed<A::Value>>("pre", 0, n, config.lane_queue_depth);
        let map_out = engine.channel_bank::<Routed<A::Value>>("map", 0, n, config.lane_queue_depth);
        // One broadcast group stands in for the M+X wide-word datapath
        // channels: stored once, per-datapath cursors and statistics.
        let (word_tx, word_rx) =
            engine.broadcast_channel::<WideWord<A::Value>>("word", pes, config.word_queue_depth);
        // Two banks, so a push into a PriPE queue does not wake the SecPE
        // array and vice versa; `pein{j}` numbering continues across them.
        let pri_in = engine.channel_bank::<A::Value>("pein", 0, m as usize, config.pe_queue_depth);
        let sec_in = engine.channel_bank::<A::Value>(
            "pein",
            m as usize,
            config.x_sec as usize,
            config.pe_queue_depth,
        );
        let plans = engine.channel_bank::<(PeId, PeId)>("plan", 0, n, config.x_sec as usize + 1);
        let feeds = engine.channel_bank::<PeId>("feed", 0, n, 4);

        let fresh: Vec<A::State> = (0..pes).map(|_| app.new_state(config.pe_entries)).collect();
        let states = engine.state(fresh);
        let per_pe_counters: Vec<CounterId> = (0..pes).map(|_| engine.counter()).collect();
        let lane_waits = engine.counter();

        // Registration order is the step order within a cycle, pinned by
        // the goldens: one kernel per module array, along the dataflow.
        engine.add_kernel(
            MemoryReaderKernel::new(source, lanes, issued)
                .reports_drain_to(control)
                .counts_lane_waits_to(lane_waits),
        );
        engine.add_kernel(PrePeBank::new(Arc::clone(&app), m, lanes, pre_out));
        engine.add_kernel(MapperBank::new(
            m,
            config.x_sec,
            control,
            plans,
            pre_out,
            map_out,
            feeds,
        ));
        engine.add_kernel(CombinerKernel::new(map_out, word_tx));
        engine.add_kernel(FilterBank::new(
            config.n_pre,
            Arc::clone(&mask),
            word_rx,
            pri_in,
            sec_in,
        ));
        let (pri_counters, sec_counters) = per_pe_counters.split_at(m as usize);
        engine.add_kernel(ProcPeBank::new(
            PeRole::Primary,
            Arc::clone(&app),
            pri_in,
            states,
            0,
            pri_counters.to_vec(),
            processed,
            control,
        ));

        let plans_generated = if config.x_sec > 0 {
            let secpe_bank_id = engine.add_kernel(ProcPeBank::new(
                PeRole::Secondary,
                Arc::clone(&app),
                sec_in,
                states,
                m as usize,
                sec_counters.to_vec(),
                processed,
                control,
            ));
            // The profiler and merger are registered next, in this order.
            let merger_kernel_id = engine.kernel_count() as u32 + 1;
            let profiler = ProfilerKernel::new(
                &mut engine,
                ProfilerParams {
                    m_pri: m,
                    x_sec: config.x_sec,
                    profile_cycles: config.profile_cycles,
                    monitor_window: config.monitor_window,
                    reschedule_threshold: config.reschedule_threshold,
                    requeue_overhead_cycles: config.requeue_overhead_cycles,
                    requeue: config.requeue,
                },
                feeds,
                plans,
                processed,
                plan,
                control,
            )
            .with_protocol_wakes(secpe_bank_id, merger_kernel_id)
            .with_lane_waits(lane_waits);
            let counter = profiler.plans_generated();
            engine.add_kernel(profiler);
            let actual_merger_id = engine.add_kernel(MergerKernel::new(
                Arc::clone(&app),
                states,
                m,
                config.pe_entries,
                plan,
                control,
            ));
            assert_eq!(
                actual_merger_id, merger_kernel_id,
                "merger wake target must match its registration index"
            );
            counter
        } else {
            engine.counter()
        };

        engine.set_fast_forward(fast_forward_enabled(config));

        // Initial phase (boundary zero): route to PriPEs only; every
        // SecPE datapath is cold until the first scheduling plan lands.
        engine
            .context_mut()
            .state_mut(control)
            .apply_phase_plan(PhasePlan::pri_only(m, config.x_sec));

        PersistentPipeline {
            engine,
            app,
            states,
            per_pe_counters,
            processed,
            plan,
            control,
            plans_generated,
            label: config.label(),
            m_pri: m,
            pe_entries: config.pe_entries,
            drained_ok: true,
        }
    }

    /// Prefixes the report label (e.g. with a shard name) so failures in
    /// multi-pipeline deployments stay attributable.
    pub fn with_label_prefix(mut self, prefix: &str) -> Self {
        self.label = format!("{prefix}:{}", self.label);
        self
    }

    /// The configuration label, including any prefix set via
    /// [`with_label_prefix`](Self::with_label_prefix).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The application this pipeline runs (e.g. for initiation-interval
    /// based cycle budgeting by a serving layer).
    pub fn app(&self) -> &A {
        &self.app
    }

    /// The current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.engine.cycle()
    }

    /// Read access to the underlying engine (active-set inspection,
    /// channel statistics mid-run).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access for the counts-tracing profiling pass (see
    /// [`profile_counts`](crate::counts::profile_counts)).
    pub(crate) fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// The compiled execution plan of the pipeline's current phase (see
    /// [`PhasePlan`]), as applied at the last reschedule boundary.
    pub fn phase_plan(&self) -> PhasePlan {
        self.engine
            .context()
            .state(self.control)
            .phase_plan()
            .clone()
    }

    /// Tuples processed by destination PEs so far.
    pub fn processed(&self) -> u64 {
        self.engine.context().counter(self.processed)
    }

    /// Steps the engine `n` cycles unconditionally.
    pub fn step_cycles(&mut self, n: u64) {
        self.engine.run_cycles(n);
    }

    /// Runs until the pipeline quiesces (source exhausted and every kernel
    /// idle) or `max_cycles` elapse in this call; returns `true` on
    /// quiescence. A `false` result is also latched into the final report's
    /// `completed` flag.
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        let ok = self.engine.run_until_quiescent(max_cycles).completed;
        self.drained_ok = self.drained_ok && ok;
        ok
    }

    /// [`drain`](Self::drain), panicking with an attributable message on
    /// cycle-budget exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline fails to quiesce within `max_cycles` — the
    /// message names the pipeline label and the processed-tuple count so a
    /// failing shard in a sharded run can be identified.
    pub fn expect_drained(&mut self, max_cycles: u64) {
        assert!(
            self.drain(max_cycles),
            "pipeline '{}' failed to drain within {} cycles ({} tuples processed) — deadlock?",
            self.label,
            max_cycles,
            self.processed(),
        );
    }

    /// Mid-run statistics: cheap (no channel scan), safe to call between
    /// steps at any time.
    pub fn snapshot(&self) -> StatSnapshot {
        let ctx = self.engine.context();
        let phase_plan = ctx.state(self.control).phase_plan();
        StatSnapshot {
            cycles: self.engine.cycle(),
            tuples: ctx.counter(self.processed),
            reschedules: ctx.state(self.control).reschedules(),
            plans_generated: ctx.counter(self.plans_generated),
            per_pe_processed: self
                .per_pe_counters
                .iter()
                .map(|&c| ctx.counter(c))
                .collect(),
            kernel_steps: self.engine.steps_executed(),
            phase: phase_plan.phase(),
            phase_active_pes: phase_plan.active_pes(),
            protocol_cycles: ctx.state(self.control).protocol_cycles(self.engine.cycle()),
        }
    }

    /// Tears the pipeline down, folds SecPE partials into the PriPE buffers
    /// (the offline flow's final merger pass) and returns the `M` PriPE
    /// states plus measurements — the raw parts a cross-shard merge path
    /// folds before a single cluster-level `finalize`.
    ///
    /// The PE buffers are taken straight out of the state arena; nothing is
    /// cloned and no teardown ordering is involved.
    pub fn finish_states(mut self) -> (Vec<A::State>, ExecutionReport, Vec<ChannelStats>) {
        let total_cycles = self.engine.cycle();
        let kernel_steps = self.engine.steps_executed();
        let channels = self.engine.channel_stats();

        let ctx = self.engine.context_mut();
        let plan = ctx.state(self.plan).clone();
        let mut pri_states = ctx.take_state(self.states);
        crate::merger::fold_sec_states(&*self.app, &mut pri_states, &plan, self.pe_entries);
        pri_states.truncate(self.m_pri as usize);

        let report = ExecutionReport {
            label: std::mem::take(&mut self.label),
            cycles: total_cycles,
            tuples: ctx.counter(self.processed),
            reschedules: ctx.state(self.control).reschedules(),
            plans_generated: ctx.counter(self.plans_generated),
            per_pe_processed: self
                .per_pe_counters
                .iter()
                .map(|&c| ctx.counter(c))
                .collect(),
            completed: self.drained_ok,
            channel_totals: ChannelTotals::aggregate(&channels),
            kernel_steps,
            protocol_cycles: ctx.state(self.control).protocol_cycles(total_cycles),
        };
        (pri_states, report, channels)
    }

    /// Extracts the accumulated PE state backing every key-range slot this
    /// pipeline currently serves, leaving the engine live and serving from
    /// fresh `new_state` buffers — the state-handoff primitive.
    ///
    /// The handoff granularity is deliberately the pipeline's *whole*
    /// accumulated slice: `DittoApp` states are mergeable aggregates
    /// (histogram bins, sketch registers, fixed-point sums), not
    /// key-addressable tables, so a finer key-sliced split of one PriPE
    /// buffer does not exist in general — one histogram bin mixes
    /// contributions from many router slots. Whole-slice extraction is
    /// still exact at cluster level because `merge` is associative and
    /// commutative: it never matters *which* engine's buffers a tuple's
    /// contribution sits in, only that it sits in exactly one. Extraction
    /// moves every contribution this engine holds; installing the returned
    /// states elsewhere ([`install_slots`](Self::install_slots)) relocates
    /// the history without changing the merged total.
    ///
    /// SecPE partials are folded into the PriPE buffers first (the same
    /// merge pass [`finish_states`](Self::finish_states) runs), so exactly
    /// `M` states are returned and the SecPEs restart clean. Callers that
    /// need the extract to cover everything *admitted* (not just everything
    /// processed) must step the engine to its admission watermark first —
    /// tuples still in flight at extraction time land in the fresh buffers
    /// and merge exactly all the same.
    pub fn extract_slots(&mut self) -> Vec<A::State> {
        let ctx = self.engine.context_mut();
        let plan = ctx.state(self.plan).clone();
        let states = ctx.state_mut(self.states);
        crate::merger::fold_sec_states(&*self.app, states, &plan, self.pe_entries);
        states[..self.m_pri as usize]
            .iter_mut()
            .map(|state| std::mem::replace(state, self.app.new_state(self.pe_entries)))
            .collect()
    }

    /// Folds a previously extracted slice of `M` PriPE states into this
    /// pipeline's PriPE buffers through the application's own `merge` —
    /// the receiving half of a state handoff. The engine keeps running;
    /// index `j` merges into PriPE `j`, mirroring how a cross-shard merge
    /// treats a remote shard as a super-SecPE.
    ///
    /// # Panics
    ///
    /// Panics if `states` does not hold exactly `M` entries.
    pub fn install_slots(&mut self, states: Vec<A::State>) {
        assert_eq!(
            states.len(),
            self.m_pri as usize,
            "pipeline '{}' expects {} PriPE states, got {}",
            self.label,
            self.m_pri,
            states.len()
        );
        let pri_states = self.engine.context_mut().state_mut(self.states);
        for (state, incoming) in pri_states.iter_mut().zip(&states) {
            self.app.merge(state, incoming);
        }
    }

    /// Final merge + finalize: consumes the pipeline and produces the
    /// application output with measurements.
    pub fn finish(self) -> RunOutcome<A::Output> {
        let app = Arc::clone(&self.app);
        let (pri_states, report, channels) = self.finish_states();
        RunOutcome {
            output: app.finalize(pri_states),
            report,
            channels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{CountPerKey, ModHistogram};
    use datagen::{UniformGenerator, ZipfGenerator};

    #[test]
    fn fast_forward_override_parses_its_accepted_forms() {
        assert_eq!(parse_fast_forward(None), None);
        assert_eq!(parse_fast_forward(Some("1")), Some(true));
        assert_eq!(parse_fast_forward(Some("TRUE")), Some(true));
        assert_eq!(parse_fast_forward(Some("0")), Some(false));
    }

    #[test]
    #[should_panic(
        expected = "DITTO_FAST_FORWARD=\"yes\" does not parse: expected `1`/`true` (on) or `0` (off)"
    )]
    fn malformed_fast_forward_override_panics() {
        parse_fast_forward(Some("yes"));
    }

    #[test]
    fn uniform_dataset_processes_everything() {
        let data = UniformGenerator::new(1 << 16, 1).take_vec(10_000);
        let cfg = ArchConfig::new(4, 8, 0);
        let out = SkewObliviousPipeline::run_dataset(CountPerKey::new(8), data, &cfg);
        assert_eq!(out.output.iter().sum::<u64>(), 10_000);
        assert_eq!(out.report.tuples, 10_000);
        assert!(out.report.completed);
        // Near-peak throughput: 4 lanes, II=2, 8 PEs -> ~4 tuples/cycle.
        assert!(
            out.report.tuples_per_cycle() > 2.0,
            "{}",
            out.report.tuples_per_cycle()
        );
    }

    #[test]
    fn histogram_matches_reference() {
        let data = ZipfGenerator::new(1.2, 1 << 10, 3).take_vec(8_000);
        let bins = 64u64;
        let m = 8u32;
        let mut expect = vec![0u64; bins as usize];
        for t in &data {
            expect[(t.key % bins) as usize] += 1;
        }
        let cfg = ArchConfig::new(4, m, 3).with_pe_entries((bins / u64::from(m)) as usize);
        let out = SkewObliviousPipeline::run_dataset(ModHistogram::new(bins), data, &cfg);
        assert_eq!(
            out.output, expect,
            "pipeline histogram must equal reference"
        );
    }

    #[test]
    fn skew_collapses_throughput_without_secpes() {
        let uniform = UniformGenerator::new(1 << 20, 5).take_vec(8_000);
        let skewed = ZipfGenerator::new(3.0, 1 << 20, 5).take_vec(8_000);
        let cfg = ArchConfig::new(4, 8, 0);
        let u = SkewObliviousPipeline::run_dataset(CountPerKey::new(8), uniform, &cfg);
        let s = SkewObliviousPipeline::run_dataset(CountPerKey::new(8), skewed, &cfg);
        let ratio = u.report.tuples_per_cycle() / s.report.tuples_per_cycle();
        // The paper observes ~M× slowdown (all tuples to one PE, II = 2).
        assert!(ratio > 4.0, "slowdown only {ratio:.2}x");
    }

    #[test]
    fn secpes_restore_throughput_under_extreme_skew() {
        let skewed = ZipfGenerator::new(3.0, 1 << 20, 5).take_vec(8_000);
        let base_cfg = ArchConfig::new(4, 8, 0);
        let full_cfg = ArchConfig::new(4, 8, 7);
        let base =
            SkewObliviousPipeline::run_dataset(CountPerKey::new(8), skewed.clone(), &base_cfg);
        let full = SkewObliviousPipeline::run_dataset(CountPerKey::new(8), skewed, &full_cfg);
        let speedup = full.report.tuples_per_cycle() / base.report.tuples_per_cycle();
        assert!(speedup > 3.0, "speedup only {speedup:.2}x");
        assert_eq!(full.report.tuples, 8_000, "no tuples lost through SecPEs");
        assert_eq!(
            full.output.iter().sum::<u64>(),
            8_000,
            "merge preserved counts"
        );
        assert!(full.report.plans_generated >= 1);
    }

    #[test]
    fn per_pe_workload_reflects_skew() {
        let skewed = ZipfGenerator::new(2.5, 1 << 16, 9).take_vec(6_000);
        let cfg = ArchConfig::new(4, 8, 0);
        let out = SkewObliviousPipeline::run_dataset(CountPerKey::new(8), skewed, &cfg);
        assert!(
            out.report.imbalance(8) > 3.0,
            "imbalance {}",
            out.report.imbalance(8)
        );
    }

    #[test]
    fn online_run_with_rescheduling_counts_reschedules() {
        use datagen::EvolvingZipfStream;
        // Hot key rotates every 4000 cycles; reschedule overhead is small so
        // the profiler can keep up and must re-plan at least once.
        let stream = EvolvingZipfStream::new(3.0, 1 << 16, 11, 4_000, 4.0, None);
        let cfg = ArchConfig::new(4, 8, 7)
            .with_reschedule(0.5, 200)
            .with_profile_cycles(64)
            .with_monitor_window(256);
        let out = SkewObliviousPipeline::run_stream_for(
            CountPerKey::new(8),
            Box::new(stream),
            &cfg,
            40_000,
        );
        assert!(out.report.tuples > 0);
        assert!(
            out.report.reschedules >= 1,
            "expected at least one reschedule, got {}",
            out.report.reschedules
        );
        assert_eq!(out.output.iter().sum::<u64>(), out.report.tuples);
    }

    #[test]
    fn channel_stats_are_reported() {
        let data = UniformGenerator::new(1 << 16, 2).take_vec(2_000);
        let cfg = ArchConfig::new(4, 8, 2);
        let out = SkewObliviousPipeline::run_dataset(CountPerKey::new(8), data, &cfg);
        // 4 lanes + 4 pre + 4 map + 10 word taps + 10 pein + 4 plan + 4 feed:
        // one row per array member, array by array, `pein` numbered
        // straight through the PriPE and SecPE banks.
        let names: Vec<&str> = out.channels.iter().map(|s| s.name.as_str()).collect();
        let expect: Vec<String> = [
            ("lane", 4),
            ("pre", 4),
            ("map", 4),
            ("word", 10),
            ("pein", 10),
            ("plan", 4),
            ("feed", 4),
        ]
        .iter()
        .flat_map(|&(prefix, n)| (0..n).map(move |i| format!("{prefix}{i}")))
        .collect();
        assert_eq!(names, expect);
        let lane0 = out.channels.iter().find(|s| s.name == "lane0").unwrap();
        assert_eq!(lane0.pushes, 500);
        assert!(out.report.channel_totals.pushes > 0);
        assert_eq!(
            out.report.channel_totals.pushes,
            out.channels.iter().map(|s| s.pushes).sum::<u64>()
        );
    }

    #[test]
    fn one_kernel_per_module_array() {
        let build = |cfg: &ArchConfig| {
            let source = SliceSource::new(
                Vec::new(),
                Tuple::PAPER_WIDTH_BYTES,
                MemoryModel::new(64, 16),
            );
            PersistentPipeline::new(CountPerKey::new(16), Box::new(source), cfg)
        };
        assert_eq!(
            build(&ArchConfig::paper(15)).engine().kernel_names(),
            [
                "memory-reader",
                "prepe#bank",
                "mapper#bank",
                "combiner",
                "filter#bank",
                "pripe#bank",
                "secpe#bank",
                "runtime-profiler",
                "merger"
            ]
        );
        // Without SecPEs there is nothing to schedule, drain or merge.
        assert_eq!(build(&ArchConfig::paper(0)).engine().kernel_count(), 6);
    }

    #[test]
    fn persistent_pipeline_steps_incrementally() {
        let data = UniformGenerator::new(1 << 16, 4).take_vec(4_000);
        let cfg = ArchConfig::new(4, 8, 2);
        let source = SliceSource::new(data, Tuple::PAPER_WIDTH_BYTES, MemoryModel::new(64, 16));
        let mut p = PersistentPipeline::new(CountPerKey::new(8), Box::new(source), &cfg)
            .with_label_prefix("shard0");
        assert_eq!(p.label(), "shard0:8P+2S");
        p.step_cycles(200);
        let early = p.snapshot();
        assert!(early.tuples < 4_000, "4k tuples can't finish in 200 cycles");
        assert_eq!(early.cycles, 200);
        p.expect_drained(100_000);
        let late = p.snapshot();
        assert_eq!(late.tuples, 4_000);
        assert!(late.cycles > early.cycles);
        let out = p.finish();
        assert_eq!(out.output.iter().sum::<u64>(), 4_000);
        assert!(out.report.completed);
        assert_eq!(out.report.label, "shard0:8P+2S");
    }

    #[test]
    fn finish_states_returns_post_merge_pri_states() {
        let data = ZipfGenerator::new(2.0, 1 << 12, 7).take_vec(5_000);
        let cfg = ArchConfig::new(4, 8, 7);
        let source = SliceSource::new(data, Tuple::PAPER_WIDTH_BYTES, MemoryModel::new(64, 16));
        let mut p = PersistentPipeline::new(CountPerKey::new(8), Box::new(source), &cfg);
        p.expect_drained(200_000);
        let (states, report, channels) = p.finish_states();
        assert_eq!(states.len(), 8, "exactly M PriPE states");
        assert_eq!(states.iter().sum::<u64>(), 5_000, "SecPE partials folded");
        assert_eq!(report.tuples, 5_000);
        assert!(!channels.is_empty());
    }

    #[test]
    fn extract_install_moves_state_between_pipelines() {
        // Two engines each drain half of a dataset; handing pipeline A's
        // slice to pipeline B must make B's finish equal the single-engine
        // run over the whole dataset, and leave A holding nothing.
        let data = ZipfGenerator::new(1.5, 1 << 12, 13).take_vec(6_000);
        let cfg = ArchConfig::new(4, 8, 7);
        let single = SkewObliviousPipeline::run_dataset(CountPerKey::new(8), data.clone(), &cfg);

        let (half_a, half_b) = data.split_at(3_000);
        let build = |half: &[Tuple]| {
            let source = SliceSource::new(
                half.to_vec(),
                Tuple::PAPER_WIDTH_BYTES,
                MemoryModel::new(64, 16),
            );
            let mut p = PersistentPipeline::new(CountPerKey::new(8), Box::new(source), &cfg);
            p.expect_drained(200_000);
            p
        };
        let mut a = build(half_a);
        let mut b = build(half_b);
        let slice = a.extract_slots();
        assert_eq!(slice.len(), 8, "exactly M PriPE states extracted");
        assert_eq!(slice.iter().sum::<u64>(), 3_000, "SecPE partials folded in");
        b.install_slots(slice);
        assert_eq!(b.finish().output.iter().sum::<u64>(), 6_000);
        assert_eq!(
            a.finish().output.iter().sum::<u64>(),
            0,
            "extraction must leave the source empty"
        );
        assert_eq!(single.output.iter().sum::<u64>(), 6_000);
    }

    #[test]
    fn mid_run_extract_reinstall_is_identity() {
        // Extracting mid-run (tuples still in flight) and reinstalling into
        // the same engine must not change the final output: in-flight
        // tuples land in the fresh buffers and merge exactly.
        let data = ZipfGenerator::new(2.0, 1 << 12, 5).take_vec(5_000);
        let bins = 64u64;
        let cfg = ArchConfig::new(4, 8, 3).with_pe_entries(8);
        let reference =
            SkewObliviousPipeline::run_dataset(ModHistogram::new(bins), data.clone(), &cfg);
        let source = SliceSource::new(data, Tuple::PAPER_WIDTH_BYTES, MemoryModel::new(64, 16));
        let mut p = PersistentPipeline::new(ModHistogram::new(bins), Box::new(source), &cfg);
        p.step_cycles(400);
        assert!(p.processed() > 0, "mid-run point must have progress");
        let slice = p.extract_slots();
        p.install_slots(slice);
        p.expect_drained(200_000);
        assert_eq!(p.finish().output, reference.output);
    }

    #[test]
    #[should_panic(expected = "expects 8 PriPE states, got 3")]
    fn install_rejects_wrong_arity() {
        let cfg = ArchConfig::new(2, 8, 0);
        let source = SliceSource::new(
            Vec::new(),
            Tuple::PAPER_WIDTH_BYTES,
            MemoryModel::new(64, 16),
        );
        let mut p = PersistentPipeline::new(CountPerKey::new(8), Box::new(source), &cfg);
        p.install_slots(vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "pipeline 'stuck:8P' failed to drain within 10 cycles")]
    fn drain_panic_names_the_pipeline() {
        let data = UniformGenerator::new(1 << 16, 4).take_vec(1_000);
        let cfg = ArchConfig::new(4, 8, 0);
        let source = SliceSource::new(data, Tuple::PAPER_WIDTH_BYTES, MemoryModel::new(64, 16));
        let mut p = PersistentPipeline::new(CountPerKey::new(8), Box::new(source), &cfg)
            .with_label_prefix("stuck");
        // 10 cycles cannot drain 1000 tuples: the panic must carry the label.
        p.expect_drained(10);
    }
}
