//! Quickstart: the full Ditto workflow on a skewed histogram workload.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! 1. Generate a Zipf-skewed dataset.
//! 2. Select an implementation: Equation 1 fixes the pipeline shape and
//!    the M SecPE variants, Equation 2 analyzes a sample of the data, and
//!    the planner picks the cheapest variant that covers the skew.
//! 3. Run the selected implementation cycle-accurately and compare it with
//!    the no-skew-handling baseline.

use ditto::prelude::*;

fn main() {
    // 1. Data: one million 8-byte tuples, Zipf factor 2 (heavily skewed).
    let alpha = 2.0;
    let data = ZipfGenerator::new(alpha, 1 << 20, 7).take_vec(1_000_000);
    println!("dataset: {} tuples, Zipf α = {alpha}", data.len());

    // 2. Tune, analyze, select.
    let app = HistoApp::new(32_768, 16);
    let plan = Planner::new().select(
        &app,
        &data,
        &SkewAnalyzer::paper(),
        &AppCostProfile::histo(),
        &PlannerOptions::equation1(app.ii_pre(), app.ii_pri()),
    );
    println!(
        "selected implementation: {} (Equation 2 recommended X = {})",
        plan.config.label(),
        plan.recommended_x.expect("a selection records it")
    );
    println!(
        "modelled resources:      {}",
        plan.chosen.estimate.table_row()
    );

    // 3. Run selected vs baseline.
    let cfg = plan.config.clone().with_pe_entries(app.pe_entries());
    let selected = SkewObliviousPipeline::run_dataset(app.clone(), data.clone(), &cfg);
    let baseline = routing_noskew::run(app.clone(), data.clone(), &cfg);

    let sel_mtps = mtps(
        selected.report.tuples_per_cycle(),
        plan.chosen.estimate.freq_mhz,
    );
    let base = plan.candidates.iter().find(|c| c.shape.x_sec == 0);
    let base_freq = base.expect("X = 0 is generated").estimate.freq_mhz;
    let base_mtps = mtps(baseline.report.tuples_per_cycle(), base_freq);

    println!("\n{:<22} {:>10} {:>12}", "", "MT/s", "imbalance");
    println!(
        "{:<22} {:>10.0} {:>12.2}",
        format!("baseline ({})", baseline.report.label),
        base_mtps,
        baseline.report.imbalance(16)
    );
    println!(
        "{:<22} {:>10.0} {:>12.2}",
        format!("Ditto ({})", selected.report.label),
        sel_mtps,
        selected.report.imbalance(16)
    );
    println!("\nspeedup: {:.1}x", sel_mtps / base_mtps);

    // Correctness: the pipeline histogram equals the host reference.
    assert_eq!(selected.output, app.reference(&data));
    println!("histogram verified against host reference ✓");
}
