//! The counts-tracing profiling pass: runs a bounded slice of a live
//! pipeline and reduces it to a [`CountsTrace`].
//!
//! This is the simulator-side hook of the two-pass deployment planner
//! (qdk-style: a *counts* pass feeds a separate *estimates* pass). The
//! runner drives a [`PersistentPipeline`] in fixed cycle chunks and diffs
//! the engine's existing counters at each chunk boundary — per-kernel step
//! counts (the engine's opt-in [`hls_sim::Engine::enable_step_counts`]
//! hook, classified by kernel name), the allocation-free channel
//! aggregate, the per-PE workload counters and the reschedule/plan
//! counters — attributing each chunk to the execution phase observed at
//! its end. Phase attribution is therefore chunk-granular; with the
//! default 256-cycle chunk that is finer than any profiling window in the
//! stack.
//!
//! Tracing is strictly opt-in: an untraced pipeline never touches the
//! per-kernel counters (the engine keeps them `None`), so the disabled
//! mode is bit-invisible to the cycle-equivalence goldens, and the enabled
//! overhead is one indexed increment per executed kernel step plus a
//! per-chunk snapshot (budget ≤ 2 %: `bench.tracing_overhead_share` in `benchmark/`).

use ditto_obs::counts::{CountsTrace, KernelClass, PhaseCounts};

use crate::{DittoApp, PersistentPipeline};

/// Options for one bounded profiling slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceOptions {
    /// Total cycles to trace.
    pub cycles: u64,
    /// Chunk length between counter samples (also the phase-attribution
    /// granularity).
    pub chunk: u64,
}

impl SliceOptions {
    /// A slice of `cycles` with the default 256-cycle sampling chunk.
    pub fn new(cycles: u64) -> Self {
        SliceOptions { cycles, chunk: 256 }
    }

    /// Overrides the sampling chunk.
    pub fn with_chunk(mut self, chunk: u64) -> Self {
        assert!(chunk > 0, "chunk must be positive");
        self.chunk = chunk;
        self
    }
}

impl Default for SliceOptions {
    fn default() -> Self {
        Self::new(20_000)
    }
}

/// Runs a bounded counts-tracing slice over `pipeline` and returns the
/// per-phase ledger. The pipeline stays live (tracing keeps accumulating
/// on the engine, but a second call simply diffs from the current
/// counters, so repeated slices are independent).
pub fn profile_counts<A: DittoApp + 'static>(
    pipeline: &mut PersistentPipeline<A>,
    opts: SliceOptions,
) -> CountsTrace {
    pipeline.engine_mut().enable_step_counts();
    let classes: Vec<usize> = pipeline
        .engine()
        .kernel_names()
        .iter()
        .map(|n| KernelClass::classify(n).index())
        .collect();

    let mut trace = CountsTrace::new(pipeline.label());
    let mut prev = pipeline.snapshot();
    let mut prev_steps = pipeline
        .engine()
        .step_counts()
        .expect("just enabled")
        .to_vec();
    let mut prev_agg = pipeline.engine().context().channel_aggregate();
    let pes = prev.per_pe_processed.len();
    let mut open: Option<PhaseCounts> = None;

    let start = pipeline.cycle();
    while pipeline.cycle() - start < opts.cycles {
        let chunk = opts.chunk.min(opts.cycles - (pipeline.cycle() - start));
        pipeline.step_cycles(chunk);

        let snap = pipeline.snapshot();
        let agg = pipeline.engine().context().channel_aggregate();
        let steps = pipeline.engine().step_counts().expect("enabled").to_vec();

        let entry = match &mut open {
            Some(p) if p.phase == snap.phase => p,
            _ => {
                if let Some(done) = open.take() {
                    trace.push(done);
                }
                open = Some(PhaseCounts {
                    phase: snap.phase,
                    start_cycle: prev.cycles,
                    per_pe_processed: vec![0; pes],
                    active_pes: snap.phase_active_pes,
                    ..Default::default()
                });
                open.as_mut().expect("just set")
            }
        };

        entry.cycles += snap.cycles - prev.cycles;
        entry.tuples += snap.tuples - prev.tuples;
        entry.reschedules += snap.reschedules - prev.reschedules;
        entry.plans_generated += snap.plans_generated - prev.plans_generated;
        entry.active_pes = snap.phase_active_pes;
        for (j, (now, before)) in snap
            .per_pe_processed
            .iter()
            .zip(&prev.per_pe_processed)
            .enumerate()
        {
            entry.per_pe_processed[j] += now - before;
        }
        for ((now, before), &class) in steps.iter().zip(&prev_steps).zip(&classes) {
            entry.steps_by_class[class] += now - before;
        }
        entry.channel_pushes += agg.pushes - prev_agg.pushes;
        entry.channel_pops += agg.pops - prev_agg.pops;
        entry.channel_full_stalls += agg.full_stalls - prev_agg.full_stalls;
        // Total buffered items across every channel is pushes − pops; the
        // rectangle rule over the chunk approximates ∫ occupancy dt.
        entry.occupancy_integral += (agg.pushes - agg.pops) * chunk;

        prev = snap;
        prev_steps = steps;
        prev_agg = agg;
    }
    if let Some(done) = open.take() {
        trace.push(done);
    }
    trace
}

impl<A: DittoApp + 'static> PersistentPipeline<A> {
    /// Method sugar for [`profile_counts`].
    pub fn profile_counts(&mut self, opts: SliceOptions) -> CountsTrace {
        profile_counts(self, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::CountPerKey;
    use crate::ArchConfig;
    use datagen::{EvolvingZipfStream, Tuple, UniformGenerator};
    use hls_sim::{MemoryModel, SliceSource};

    fn pipeline(data: Vec<Tuple>, cfg: &ArchConfig) -> PersistentPipeline<CountPerKey> {
        let source = SliceSource::new(data, Tuple::PAPER_WIDTH_BYTES, MemoryModel::new(64, 16));
        PersistentPipeline::new(CountPerKey::new(8), Box::new(source), cfg)
    }

    #[test]
    fn trace_totals_match_pipeline_counters() {
        let data = UniformGenerator::new(1 << 16, 3).take_vec(8_000);
        let cfg = ArchConfig::new(4, 8, 0);
        let mut p = pipeline(data, &cfg);
        let trace = p.profile_counts(SliceOptions::new(2_048));
        let snap = p.snapshot();
        assert_eq!(trace.total_cycles(), 2_048);
        assert_eq!(trace.total_tuples(), snap.tuples);
        assert_eq!(trace.pri_workloads(8), snap.per_pe_processed[..8]);
        let total_steps: u64 = trace.phases.iter().map(|p| p.total_steps()).sum();
        assert_eq!(total_steps, snap.kernel_steps);
        assert!(trace.steps_of(KernelClass::Other) == 0, "all kernels known");
        assert!(trace.steps_of(KernelClass::PriPe) > 0);
        assert!(trace.steps_of(KernelClass::Reader) > 0);
    }

    #[test]
    fn phase_transitions_open_new_ledgers() {
        // Rotating skew with aggressive rescheduling: the profiler drains
        // and re-plans, so the slice must observe more than one phase.
        let cfg = ArchConfig::new(4, 8, 7)
            .with_reschedule(0.5, 200)
            .with_profile_cycles(64)
            .with_monitor_window(256);
        let stream = EvolvingZipfStream::new(3.0, 1 << 16, 7, 2_000, 8.0, None);
        let mut p = PersistentPipeline::new(CountPerKey::new(8), Box::new(stream), &cfg);
        let trace = p.profile_counts(SliceOptions::new(8_192).with_chunk(64));
        assert!(
            trace.phases.len() > 1,
            "expected phase transitions, got {}",
            trace.phases.len()
        );
        let phases: Vec<u64> = trace.phases.iter().map(|p| p.phase).collect();
        let mut sorted = phases.clone();
        sorted.sort_unstable();
        assert_eq!(phases, sorted, "phases observed in order");
        assert!(
            trace.phases.iter().map(|p| p.plans_generated).sum::<u64>() >= 1,
            "plan events recorded"
        );
        assert!(trace.steps_of(KernelClass::SecPe) > 0, "SecPEs stepped");
    }

    #[test]
    fn repeated_slices_diff_independently() {
        let data = UniformGenerator::new(1 << 16, 9).take_vec(8_000);
        let cfg = ArchConfig::new(4, 8, 0);
        let mut p = pipeline(data, &cfg);
        let a = p.profile_counts(SliceOptions::new(1_024));
        let b = p.profile_counts(SliceOptions::new(1_024));
        assert_eq!(a.total_cycles(), 1_024);
        assert_eq!(b.total_cycles(), 1_024);
        assert_eq!(
            a.total_tuples() + b.total_tuples(),
            p.snapshot().tuples,
            "second slice counts only its own tuples"
        );
    }

    /// Steps `make()` for one slice twice — traced, and plainly in the same
    /// chunks — and returns the common end state.
    fn traced_and_stepped(
        make: impl Fn() -> PersistentPipeline<CountPerKey>,
    ) -> crate::StatSnapshot {
        let opts = SliceOptions::new(8_192);
        let (mut traced, mut stepped) = (make(), make());
        traced.profile_counts(opts);
        for _ in 0..opts.cycles / opts.chunk {
            stepped.step_cycles(opts.chunk);
        }
        let aggregate =
            |p: &PersistentPipeline<CountPerKey>| p.engine().context().channel_aggregate();
        assert_eq!(aggregate(&traced), aggregate(&stepped));
        assert_eq!(traced.snapshot(), stepped.snapshot());
        stepped.snapshot()
    }

    /// Tracing only reads counters: cycles, tuples, per-PE workloads, phase,
    /// kernel steps and channel totals all equal the untraced run's — on a
    /// saturated uniform run and across the reschedules of a rotating
    /// Zipf(3) stream.
    #[test]
    fn traced_slice_equals_the_stepped_slice() {
        let uniform = UniformGenerator::new(1 << 20, 3).take_vec(80_000);
        let steady = traced_and_stepped(|| pipeline(uniform.clone(), &ArchConfig::new(4, 8, 7)));
        assert_eq!((steady.cycles, steady.reschedules), (8_192, 0));

        let cfg = ArchConfig::new(4, 8, 7)
            .with_reschedule(0.5, 200)
            .with_profile_cycles(64)
            .with_monitor_window(256);
        let rotating = traced_and_stepped(|| {
            let stream = EvolvingZipfStream::new(3.0, 1 << 16, 7, 2_000, 8.0, None);
            PersistentPipeline::new(CountPerKey::new(8), Box::new(stream), &cfg)
        });
        assert!(
            rotating.reschedules > 0,
            "the slice must cross a reschedule"
        );
    }

    /// The metrics registry is a mirror, not a participant: publishing
    /// takes the engine by shared reference and reports exactly its counters.
    #[test]
    fn published_metrics_mirror_the_engine() {
        let data = UniformGenerator::new(1 << 16, 3).take_vec(8_000);
        let mut p = pipeline(data, &ArchConfig::new(4, 8, 0));
        p.step_cycles(1_000);
        let mut registry = ditto_obs::MetricsRegistry::new();
        p.engine().publish_metrics(&mut registry);
        let (engine, published) = (p.snapshot(), registry.snapshot());
        let pushes = p.engine().context().channel_aggregate().pushes;
        for (metric, counter) in [
            ("ditto_engine_cycles", engine.cycles),
            ("ditto_engine_kernel_steps", engine.kernel_steps),
            ("ditto_engine_channel_pushes", pushes),
        ] {
            assert_eq!(published.scalar(metric), Some(counter), "{metric}");
        }
    }
}
