//! The two-pass deployment planner, end to end: profile a bounded slice of
//! a live pipeline, search the shape × device space under a utilisation
//! budget, validate the winner in the cycle-level simulator.
//!
//! ```text
//! cargo run --release --example plan_deploy
//! ```
//!
//! 1. **Counts pass** — run a 20 000-cycle profiling slice of
//!    a HISTO-style pipeline at the 32-PriPE reference shape, once per
//!    skew level. The slice reduces to a [`CountsTrace`]: kernel steps by
//!    class, channel occupancy, per-PE workloads, per execution phase.
//! 2. **Estimates pass** — [`Planner::plan`] folds each traced workload
//!    onto every candidate shape, replays the runtime's SecPE scheduler to
//!    predict the steady-state rate, prices shapes on the device through
//!    the resource model (memoised across calls), and picks the best
//!    throughput under the default 85 % utilisation budget.
//! 3. **Validation** — the chosen `ArchConfig` is simulated on the same
//!    dataset; the example asserts the prediction lands within ±25 %.
//! 4. With `DITTO_PLAN_TRACE_OUT=/path.json`, the profiled phases are
//!    additionally exported as a Chrome `about:tracing` / Perfetto flame
//!    row on the cycle timeline.

use ditto::obs::env;
use ditto::prelude::*;

const REFERENCE_M: u32 = 32;
const TUPLES: usize = 60_000;

fn profile(label: &str, data: &[Tuple]) -> CountsTrace {
    let source = Box::new(SliceSource::new(
        data.to_vec(),
        Tuple::PAPER_WIDTH_BYTES,
        MemoryModel::new(64, 16),
    ));
    let mut pipeline = PersistentPipeline::new(
        ditto::core::apps::CountPerKey::new(REFERENCE_M),
        source,
        &ArchConfig::new(8, REFERENCE_M, 0),
    );
    let trace = pipeline.profile_counts(SliceOptions::default());
    println!(
        "[counts] {label}: {} cycles traced, {} tuples, {:.2} t/c, {} phases, {} full stalls",
        trace.total_cycles(),
        trace.total_tuples(),
        trace.tuples_per_cycle(),
        trace.phases.len(),
        trace.total_full_stalls(),
    );

    // The same trace, through the telemetry plane (what a scraper sees).
    let mut reg = MetricsRegistry::new();
    trace.publish_metrics(&mut reg);
    let snap = reg.snapshot();
    println!(
        "[counts] {label}: ditto_plan_trace_tuples={} ditto_plan_trace_phases={}",
        snap.scalar("ditto_plan_trace_tuples").unwrap_or(0),
        snap.scalar("ditto_plan_trace_phases").unwrap_or(0),
    );

    // Optional Chrome-trace export of the phase timeline.
    if let Ok(path) = std::env::var("DITTO_PLAN_TRACE_OUT") {
        let mut journal = SpanJournal::new(1024);
        trace.record_spans(&mut journal);
        let json = chrome_trace_json(&journal.events());
        std::fs::write(&path, json).expect("write chrome trace");
        println!("[counts] {label}: phase timeline written to {path}");
    }
    trace
}

fn main() {
    env::log_active();
    let uniform = UniformGenerator::new(1 << 18, 11).take_vec(TUPLES);
    let zipf = ZipfGenerator::new(2.0, 1 << 18, 11).take_vec(TUPLES);

    let mut planner = Planner::new();
    let opts = PlannerOptions::paper_search();
    for (label, data) in [("uniform", &uniform), ("zipf-2.0", &zipf)] {
        let trace = profile(label, data);
        let plan = planner.plan(&trace, REFERENCE_M, &AppCostProfile::histo(), &opts);

        println!(
            "[plan]   {label}: search over {} candidates",
            plan.candidates.len()
        );
        let mut feasible: Vec<_> = plan.candidates.iter().filter(|c| c.feasible()).collect();
        feasible.sort_by(|a, b| b.mtps.total_cmp(&a.mtps));
        for c in feasible.iter().take(4) {
            println!(
                "[plan]   {label}:   {:>8} on {}: {:>6.0} MT/s ({:.3}/kALM, {} bound)",
                c.shape.label(),
                c.device,
                c.mtps,
                c.mtps_per_kalm,
                c.prediction.binding(),
            );
        }
        let rejected = plan.candidates.len() - feasible.len();
        println!(
            "[plan]   {label}: chose {} ({} candidates over budget)",
            plan.chosen.shape.label(),
            rejected
        );

        let v = validate(
            &plan,
            ditto::core::apps::CountPerKey::new(plan.config.m_pri),
            data.to_vec(),
        );
        println!(
            "[check]  {label}: predicted {:.2} t/c vs simulated {:.2} t/c ({:+.1}% error)",
            v.predicted_rate,
            v.simulated_rate,
            v.rel_error * 100.0
        );
        assert!(v.within(0.25), "prediction outside the ±25% acceptance bar");
    }

    let memo = planner.memo_stats();
    println!(
        "[memo]   {} estimate lookups, {} served from the repeated-fragment cache",
        memo.lookups, memo.hits
    );
}
