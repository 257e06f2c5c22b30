//! The simulator against the closed-form rate model, and the plan quality
//! of the paper's 16P+15S shape, each on a grid the repro figures use.
//!
//! * Fig. 7's grid (HLL, Table III's seven shapes, α = 0 … 3, fig7's seeds):
//!   `ditto_plan::predict_rate` on the data's per-PriPE counts must match
//!   the simulator's steady rate within 2 % on every cell outside a named
//!   list. The rate is measured over a window after a long warm-up, since
//!   a PE whose load is near its capacity fills its 512-deep queue slowly
//!   and an end-to-end rate carries the profiling window and the drain
//!   tail. The list is the cells the model misses, with their errors
//!   computed on the change that gave each filter datapath two decoded
//!   words.
//! * A 42-point grid (HLL, 16P+15S, 260 000 tuples, six α × seven seeds):
//!   no point below 7.6 tuples/cycle end to end.

use datagen::{Tuple, ZipfGenerator};
use ditto_apps::HllApp;
use ditto_core::{ArchConfig, DittoApp, PersistentPipeline, SkewObliviousPipeline};
use ditto_plan::{predict_rate, WorkloadModel};
use ditto_repro::par_map;
use fpga_model::{PipelineShape, TABLE3};
use hls_sim::{MemoryModel, SliceSource};

/// HLL registers, as in Fig. 7.
const PRECISION: u32 = 14;
const UNIVERSE: u64 = 1 << 22;
/// The memory interface: 64 bytes of 8-byte tuples per cycle.
const MEM_TUPLES_PER_CYCLE: f64 = 8.0;
const WARM_CYCLES: u64 = 16_384;
const WINDOW_CYCLES: u64 = 8_192;
/// Enough input that no shape runs dry before its window ends.
const FIT_TUPLES: usize = 200_000;

/// The cells `predict_rate` misses by more than 2 %: (shape, α, simulated
/// over predicted rate − 1, in %). A cell may leave this list only
/// by fitting, and no listed cell may miss by more than its error here.
const MISSES: [(&str, f64, f64); 5] = [
    // Plan loss: the 256-cycle profile ranks the PriPEs differently from
    // the whole dataset, and Fig. 5's greedy helps the wrong ones.
    ("16P+2S", 0.75, -3.8),
    ("16P+4S", 0.75, -6.7),
    ("16P+4S", 1.0, -9.0),
    ("16P+8S", 1.75, -16.9),
    // No plan: one saturated PriPE, whose share of the 6 600 tuples the
    // window sees differs from its share of the whole dataset.
    ("32P", 2.0, -2.3),
];

/// The data's per-PriPE tuple counts at `m` PriPEs.
fn pri_counts(data: &[Tuple], m: u32) -> Vec<f64> {
    let app = HllApp::new(PRECISION, m);
    let mut counts = vec![0.0; m as usize];
    for &t in data {
        counts[app.preprocess(t, m).dst as usize] += 1.0;
    }
    counts
}

/// Tuples per cycle over `WINDOW_CYCLES` after `WARM_CYCLES`.
fn steady_rate(data: &[Tuple], shape: PipelineShape) -> f64 {
    let app = HllApp::new(PRECISION, shape.m_pri);
    let cfg =
        ArchConfig::new(shape.n_pre, shape.m_pri, shape.x_sec).with_pe_entries(app.pe_entries());
    let source = SliceSource::new(
        data.to_vec(),
        Tuple::PAPER_WIDTH_BYTES,
        MemoryModel::new(64, 16),
    );
    let mut pipeline = PersistentPipeline::new(app, Box::new(source), &cfg);
    pipeline.step_cycles(WARM_CYCLES);
    let before = pipeline.snapshot().tuples;
    pipeline.step_cycles(WINDOW_CYCLES);
    (pipeline.snapshot().tuples - before) as f64 / WINDOW_CYCLES as f64
}

#[test]
fn predict_rate_fits_fig7_grid_outside_the_named_misses() {
    let alphas: Vec<f64> = (0..=12).map(|i| f64::from(i) * 0.25).collect();
    // Fig. 7's seed for each α.
    let data: Vec<Vec<Tuple>> = par_map(&alphas, |&alpha| {
        let seed = 90 + (alpha * 4.0) as u64;
        ZipfGenerator::new(alpha, UNIVERSE, seed).take_vec(FIT_TUPLES)
    });
    let cells: Vec<(usize, PipelineShape)> = (0..alphas.len())
        .flat_map(|a| TABLE3.iter().map(move |row| (a, row.shape)))
        .collect();
    let errors = par_map(&cells, |&(a, shape)| {
        let app = HllApp::new(PRECISION, shape.m_pri);
        let shares = WorkloadModel::from_shares(pri_counts(&data[a], shape.m_pri));
        let predicted = predict_rate(
            &shares,
            shape,
            app.ii_pre(),
            app.ii_pri(),
            MEM_TUPLES_PER_CYCLE,
        );
        (steady_rate(&data[a], shape) / predicted.rate - 1.0) * 100.0
    });

    let mut failures = Vec::new();
    for (&(a, shape), &error) in cells.iter().zip(&errors) {
        let (label, alpha) = (shape.label(), alphas[a]);
        let listed = MISSES.iter().find(|m| m.0 == label && m.1 == alpha);
        match listed {
            None if error.abs() > 2.0 => failures.push(format!(
                "{label} at α = {alpha}: simulated/predicted − 1 = {error:+.1} %"
            )),
            Some(_) if error.abs() <= 2.0 => failures.push(format!(
                "{label} at α = {alpha} now fits ({error:+.1} %): take it off MISSES"
            )),
            Some(&(_, _, pinned)) if error.abs() > pinned.abs() + 0.05 => failures.push(format!(
                "{label} at α = {alpha}: the miss grew from {pinned:+.1} to {error:+.1} %"
            )),
            _ => {}
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn paper_shape_holds_line_rate_on_the_42_point_grid() {
    // Fig. 7's seed for each α, and six more.
    let points: Vec<(f64, u64)> = [0.0, 1.5, 2.0, 2.25, 2.5, 3.0]
        .into_iter()
        .flat_map(|alpha| {
            let fig7 = 90 + (alpha * 4.0) as u64;
            [fig7, 1009, 2009, 3009, 4009, 5009, 6009].map(|seed| (alpha, seed))
        })
        .collect();
    let rates = par_map(&points, |&(alpha, seed)| {
        let data = ZipfGenerator::new(alpha, UNIVERSE, seed).take_vec(260_000);
        let app = HllApp::new(PRECISION, 16);
        let cfg = ArchConfig::paper(15).with_pe_entries(app.pe_entries());
        let report = SkewObliviousPipeline::run_dataset(app, data, &cfg).report;
        report.tuples_per_cycle()
    });
    let low: Vec<String> = points
        .iter()
        .zip(&rates)
        .filter(|(_, &rate)| rate < 7.6)
        .map(|((alpha, seed), rate)| format!("α = {alpha}, seed {seed}: {rate:.3} tuples/cycle"))
        .collect();
    assert!(
        low.is_empty(),
        "below 7.6 tuples/cycle:\n{}",
        low.join("\n")
    );
}
