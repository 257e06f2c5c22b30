//! Counts tracing — the profiling half of the two-pass deployment planner.
//!
//! The qdk-style resource-estimation split is *counts first, costs later*:
//! a bounded profiling slice of a workload is run once and reduced to
//! logical counts (kernel steps by kernel class, channel occupancy
//! integrals and stall cycles, per-PE workload histograms,
//! reschedule/plan events), and a separate estimates pass replays those
//! counts against the analytical FPGA model without ever re-simulating.
//! This module is the counts side's data model and its exports into the
//! existing telemetry plane:
//!
//! * [`CountsTrace`] / [`PhaseCounts`] — the per-phase count ledger a
//!   profiling-slice runner (in `ditto-core`) fills;
//! * [`CountsTrace::publish_metrics`] — aggregate `ditto_plan_*` metrics
//!   into any [`MetricsRegistry`];
//! * [`CountsTrace::to_snapshot`] — the full per-phase/per-class labelled
//!   [`MetricsSnapshot`], which rides the established binary codec,
//!   Prometheus text and wire `MetricsDump` paths unchanged;
//! * [`CountsTrace::record_spans`] — one flame row of phase slices on the
//!   cycle timeline in a [`SpanJournal`], for Chrome-trace export.

use crate::journal::{SpanJournal, SpanStage, NO_SHARD};
use crate::registry::{MetricsRegistry, MetricsSnapshot};

/// The kernel classes the counts pass aggregates steps into — one per
/// module of the paper's Fig. 3 architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelClass {
    /// The memory reader (global-memory interface).
    Reader,
    /// PrePEs (tuple preparation lanes).
    PrePe,
    /// Mappers (routing tables + counters).
    Mapper,
    /// The combiner (wide-word assembly).
    Combiner,
    /// Decoder + filter datapaths.
    Decoder,
    /// Primary destination PEs.
    PriPe,
    /// Secondary (skew-handling) destination PEs.
    SecPe,
    /// The runtime profiler.
    Profiler,
    /// The merger.
    Merger,
    /// Anything the classifier does not recognise.
    Other,
}

impl KernelClass {
    /// Every class, in the order counts are stored.
    pub const ALL: [KernelClass; 10] = [
        KernelClass::Reader,
        KernelClass::PrePe,
        KernelClass::Mapper,
        KernelClass::Combiner,
        KernelClass::Decoder,
        KernelClass::PriPe,
        KernelClass::SecPe,
        KernelClass::Profiler,
        KernelClass::Merger,
        KernelClass::Other,
    ];

    /// Classifies a kernel by its registered name (the `ditto-core` naming
    /// scheme: `memory-reader`, `prepe#bank`, `mapper#bank`, `combiner`,
    /// `filter#bank`, `pripe#bank`, `secpe#bank`, `runtime-profiler`,
    /// `merger`). Only the prefix before `#` matters: `ditto-core` steps
    /// each module array as **one bank kernel**, so a class is one kernel
    /// and [`PhaseCounts::steps_by_class`] counts *bank* steps — one per
    /// cycle in which any member of the array had work — not member
    /// activations.
    pub fn classify(name: &str) -> KernelClass {
        let prefix = name.split('#').next().unwrap_or(name);
        match prefix {
            "memory-reader" => KernelClass::Reader,
            "prepe" => KernelClass::PrePe,
            "mapper" => KernelClass::Mapper,
            "combiner" => KernelClass::Combiner,
            "filter" => KernelClass::Decoder,
            "pripe" => KernelClass::PriPe,
            "secpe" => KernelClass::SecPe,
            "runtime-profiler" => KernelClass::Profiler,
            "merger" => KernelClass::Merger,
            _ => KernelClass::Other,
        }
    }

    /// Stable label used in metric `class` labels.
    pub fn label(self) -> &'static str {
        match self {
            KernelClass::Reader => "reader",
            KernelClass::PrePe => "prepe",
            KernelClass::Mapper => "mapper",
            KernelClass::Combiner => "combiner",
            KernelClass::Decoder => "decoder",
            KernelClass::PriPe => "pripe",
            KernelClass::SecPe => "secpe",
            KernelClass::Profiler => "profiler",
            KernelClass::Merger => "merger",
            KernelClass::Other => "other",
        }
    }

    /// Index into [`PhaseCounts::steps_by_class`].
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&c| c == self).expect("in ALL")
    }
}

/// The logical counts of one execution phase (the stretch between two
/// reschedule boundaries) inside a profiling slice.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseCounts {
    /// Phase sequence number (0 = the initial pri-only phase).
    pub phase: u64,
    /// Engine cycle at which the slice first observed this phase.
    pub start_cycle: u64,
    /// Cycles the slice spent inside the phase.
    pub cycles: u64,
    /// Tuples processed by destination PEs during the phase.
    pub tuples: u64,
    /// Executed kernel steps per [`KernelClass`] (in `ALL` order).
    pub steps_by_class: [u64; 10],
    /// Successful channel pushes during the phase (all channels).
    pub channel_pushes: u64,
    /// Successful channel pops during the phase.
    pub channel_pops: u64,
    /// Producer stall events (rejected pushes) during the phase.
    pub channel_full_stalls: u64,
    /// Channel-occupancy integral: Σ (total buffered items × sample gap in
    /// cycles), sampled at chunk boundaries — the discrete approximation
    /// of ∫ occupancy dt the estimator uses for queue-pressure reasoning.
    pub occupancy_integral: u64,
    /// Per-destination-PE processed-tuple deltas (`M + X` entries) — the
    /// workload histogram the estimator folds onto candidate shapes.
    pub per_pe_processed: Vec<u64>,
    /// Reschedules completed during the phase (boundary events).
    pub reschedules: u64,
    /// Scheduling plans generated during the phase.
    pub plans_generated: u64,
    /// Destination PEs the phase plan predicted reachable.
    pub active_pes: u32,
}

impl PhaseCounts {
    /// Total executed kernel steps across all classes.
    pub fn total_steps(&self) -> u64 {
        self.steps_by_class.iter().sum()
    }
}

/// A complete counts trace: what one bounded profiling slice observed.
///
/// # Example
///
/// ```
/// use ditto_obs::counts::{CountsTrace, KernelClass, PhaseCounts};
///
/// let mut trace = CountsTrace::new("histo/zipf1.5");
/// let mut p = PhaseCounts { phase: 0, cycles: 256, tuples: 512, ..Default::default() };
/// p.steps_by_class[KernelClass::PriPe.index()] = 512;
/// p.per_pe_processed = vec![400, 112];
/// trace.push(p);
/// assert_eq!(trace.total_tuples(), 512);
/// assert_eq!(trace.pri_workloads(2), vec![400, 112]);
/// let snap = trace.to_snapshot();
/// assert_eq!(snap.scalar("ditto_plan_phase_tuples"), Some(512));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CountsTrace {
    /// What was profiled (app/skew/config label, free-form).
    pub label: String,
    /// The per-phase ledgers, in observation order.
    pub phases: Vec<PhaseCounts>,
}

impl CountsTrace {
    /// An empty trace for the given workload label.
    pub fn new(label: impl Into<String>) -> Self {
        CountsTrace {
            label: label.into(),
            phases: Vec::new(),
        }
    }

    /// Appends one phase ledger.
    pub fn push(&mut self, phase: PhaseCounts) {
        self.phases.push(phase);
    }

    /// Cycles covered by the slice (summed over phases).
    pub fn total_cycles(&self) -> u64 {
        self.phases.iter().map(|p| p.cycles).sum()
    }

    /// Tuples processed during the slice.
    pub fn total_tuples(&self) -> u64 {
        self.phases.iter().map(|p| p.tuples).sum()
    }

    /// Executed steps of one kernel class, summed over phases.
    pub fn steps_of(&self, class: KernelClass) -> u64 {
        self.phases
            .iter()
            .map(|p| p.steps_by_class[class.index()])
            .sum()
    }

    /// Producer stall events summed over phases.
    pub fn total_full_stalls(&self) -> u64 {
        self.phases.iter().map(|p| p.channel_full_stalls).sum()
    }

    /// The per-PriPE workload histogram summed over phases: entry `j` is
    /// the tuples PriPE `j` processed during the slice. This is the count
    /// the estimates pass folds onto candidate shapes.
    pub fn pri_workloads(&self, m_pri: usize) -> Vec<u64> {
        let mut w = vec![0u64; m_pri];
        for p in &self.phases {
            for (j, &n) in p.per_pe_processed.iter().take(m_pri).enumerate() {
                w[j] += n;
            }
        }
        w
    }

    /// Average slice throughput in tuples per cycle.
    pub fn tuples_per_cycle(&self) -> f64 {
        let cycles = self.total_cycles();
        if cycles == 0 {
            return 0.0;
        }
        self.total_tuples() as f64 / cycles as f64
    }

    /// Publishes the trace's aggregate counters as `ditto_plan_*` metrics
    /// into `reg` — the cheap always-on summary a serving layer can merge
    /// into its per-shard snapshot.
    pub fn publish_metrics(&self, reg: &mut MetricsRegistry) {
        let cycles = reg.counter("ditto_plan_trace_cycles", "plan", "cycles");
        let tuples = reg.counter("ditto_plan_trace_tuples", "plan", "tuples");
        let steps = reg.counter("ditto_plan_trace_kernel_steps", "plan", "items");
        let stalls = reg.counter("ditto_plan_trace_full_stalls", "plan", "items");
        let occ = reg.counter("ditto_plan_trace_occupancy_integral", "plan", "items");
        let resched = reg.counter("ditto_plan_trace_reschedules", "plan", "events");
        let plans = reg.counter("ditto_plan_trace_plans_generated", "plan", "events");
        let phases = reg.gauge("ditto_plan_trace_phases", "plan", "events");
        reg.set_counter(cycles, self.total_cycles());
        reg.set_counter(tuples, self.total_tuples());
        reg.set_counter(steps, self.phases.iter().map(|p| p.total_steps()).sum());
        reg.set_counter(stalls, self.total_full_stalls());
        reg.set_counter(occ, self.phases.iter().map(|p| p.occupancy_integral).sum());
        reg.set_counter(resched, self.phases.iter().map(|p| p.reschedules).sum());
        reg.set_counter(plans, self.phases.iter().map(|p| p.plans_generated).sum());
        reg.set_gauge(phases, self.phases.len() as u64);
    }

    /// The full labelled snapshot: aggregate metrics, per-phase entries
    /// (`phase` label), per-class step counts (`class` label), and the
    /// per-PE workload distribution as a histogram. Because it is a plain
    /// [`MetricsSnapshot`], the existing binary codec
    /// ([`crate::encode_snapshot`]), Prometheus exposition and wire
    /// `MetricsDump` frames carry it without modification.
    pub fn to_snapshot(&self) -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new();
        self.publish_metrics(&mut reg);
        let workload = reg.histogram("ditto_plan_pe_workload", "plan", "tuples");
        for p in &self.phases {
            for &n in &p.per_pe_processed {
                reg.observe(workload, n);
            }
        }
        let mut snap = reg.snapshot();

        for class in KernelClass::ALL {
            let steps = self.steps_of(class);
            if steps == 0 {
                continue;
            }
            let mut creg = MetricsRegistry::new().with_label("class", class.label());
            let h = creg.counter("ditto_plan_kernel_steps", "plan", "items");
            creg.set_counter(h, steps);
            snap.merge(&creg.snapshot());
        }

        for p in &self.phases {
            let mut preg = MetricsRegistry::new().with_label("phase", p.phase);
            let cycles = preg.counter("ditto_plan_phase_cycles", "plan", "cycles");
            let tuples = preg.counter("ditto_plan_phase_tuples", "plan", "tuples");
            let stalls = preg.counter("ditto_plan_phase_full_stalls", "plan", "items");
            let occ = preg.counter("ditto_plan_phase_occupancy_integral", "plan", "items");
            let active = preg.gauge("ditto_plan_phase_active_pes", "plan", "kernels");
            preg.set_counter(cycles, p.cycles);
            preg.set_counter(tuples, p.tuples);
            preg.set_counter(stalls, p.channel_full_stalls);
            preg.set_counter(occ, p.occupancy_integral);
            preg.set_gauge(active, u64::from(p.active_pes));
            snap.merge(&preg.snapshot());
        }
        snap
    }

    /// Records the trace as one flame row in `journal`: each phase becomes
    /// a slice on the *cycle* timeline (the journal's `wall_us` field
    /// carries the start cycle, so [`crate::chrome_trace_json`] renders
    /// phase durations in cycles), terminated by a zero-length `drain`
    /// marker at slice end.
    pub fn record_spans(&self, journal: &mut SpanJournal) {
        let mut end = 0;
        for p in &self.phases {
            journal.record_at(
                p.phase,
                SpanStage::Step,
                p.start_cycle,
                p.start_cycle,
                NO_SHARD,
                p.tuples,
            );
            end = end.max(p.start_cycle + p.cycles);
        }
        if let Some(last) = self.phases.last() {
            journal.record_at(last.phase, SpanStage::Drain, end, end, NO_SHARD, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome_trace_json;

    fn sample_trace() -> CountsTrace {
        let mut t = CountsTrace::new("test");
        let mut p0 = PhaseCounts {
            phase: 0,
            start_cycle: 0,
            cycles: 100,
            tuples: 300,
            channel_full_stalls: 5,
            occupancy_integral: 1_000,
            per_pe_processed: vec![200, 100, 0],
            active_pes: 2,
            ..Default::default()
        };
        p0.steps_by_class[KernelClass::PriPe.index()] = 300;
        p0.steps_by_class[KernelClass::Reader.index()] = 100;
        let mut p1 = PhaseCounts {
            phase: 1,
            start_cycle: 100,
            cycles: 50,
            tuples: 250,
            reschedules: 1,
            plans_generated: 1,
            per_pe_processed: vec![50, 100, 100],
            active_pes: 3,
            ..Default::default()
        };
        p1.steps_by_class[KernelClass::SecPe.index()] = 100;
        t.push(p0);
        t.push(p1);
        t
    }

    #[test]
    fn classification_follows_core_naming() {
        assert_eq!(KernelClass::classify("memory-reader"), KernelClass::Reader);
        assert_eq!(KernelClass::classify("prepe#3"), KernelClass::PrePe);
        assert_eq!(KernelClass::classify("mapper#0"), KernelClass::Mapper);
        assert_eq!(KernelClass::classify("combiner"), KernelClass::Combiner);
        assert_eq!(KernelClass::classify("filter#17"), KernelClass::Decoder);
        assert_eq!(KernelClass::classify("pripe#2"), KernelClass::PriPe);
        assert_eq!(KernelClass::classify("secpe#16"), KernelClass::SecPe);
        assert_eq!(
            KernelClass::classify("runtime-profiler"),
            KernelClass::Profiler
        );
        assert_eq!(KernelClass::classify("merger"), KernelClass::Merger);
        assert_eq!(KernelClass::classify("mystery"), KernelClass::Other);
    }

    #[test]
    fn class_indices_are_distinct_and_dense() {
        for (i, c) in KernelClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn totals_sum_over_phases() {
        let t = sample_trace();
        assert_eq!(t.total_cycles(), 150);
        assert_eq!(t.total_tuples(), 550);
        assert_eq!(t.steps_of(KernelClass::PriPe), 300);
        assert_eq!(t.steps_of(KernelClass::SecPe), 100);
        assert_eq!(t.total_full_stalls(), 5);
        assert_eq!(t.pri_workloads(3), vec![250, 200, 100]);
        assert!((t.tuples_per_cycle() - 550.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_carries_aggregates_classes_and_phases() {
        let t = sample_trace();
        let snap = t.to_snapshot();
        assert_eq!(snap.scalar("ditto_plan_trace_tuples"), Some(550));
        assert_eq!(snap.scalar("ditto_plan_trace_reschedules"), Some(1));
        assert_eq!(
            snap.get("ditto_plan_kernel_steps", &[("class", "pripe")])
                .unwrap()
                .value
                .scalar(),
            300
        );
        assert_eq!(
            snap.get("ditto_plan_phase_tuples", &[("phase", "1")])
                .unwrap()
                .value
                .scalar(),
            250
        );
        assert_eq!(
            snap.get("ditto_plan_phase_active_pes", &[("phase", "0")])
                .unwrap()
                .value
                .scalar(),
            2
        );
        // The workload histogram saw one sample per PE per phase.
        assert_eq!(snap.scalar("ditto_plan_pe_workload"), Some(6));
    }

    #[test]
    fn snapshot_survives_the_wire_codec() {
        let t = sample_trace();
        let snap = t.to_snapshot();
        let bytes = crate::encode_snapshot(&snap);
        let back = crate::decode_snapshot(&bytes).expect("codec roundtrip");
        assert_eq!(back, snap);
    }

    #[test]
    fn spans_render_phase_slices_on_the_cycle_timeline() {
        let t = sample_trace();
        let mut j = SpanJournal::new(64);
        t.record_spans(&mut j);
        assert_eq!(j.len(), 3, "two phases + terminator");
        let json = chrome_trace_json(&j.drain());
        assert!(json.contains("\"name\":\"step\""));
        assert!(json.contains("\"ts\":100"));
        assert!(json.contains("\"name\":\"drain\""));
    }
}
