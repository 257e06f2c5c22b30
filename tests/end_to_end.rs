//! End-to-end integration: the paper's workflow (Equation 1 → Equation 2 →
//! select → run) for every application, validated against host references.

use ditto::prelude::*;

#[test]
fn equation1_tuning_matches_paper_platform() {
    // HISTO-style apps: II_pre = 1, II_pri = 2 -> 8 PrePEs, 16 PriPEs.
    let opts = PlannerOptions::equation1(1, 2);
    assert_eq!((opts.lanes, opts.pri_pes), (vec![8], vec![16]));
    // DP: II_pri = 1 -> 8 PriPEs.
    let opts = PlannerOptions::equation1(1, 1);
    assert_eq!((opts.lanes, opts.pri_pes), (vec![8], vec![8]));
}

#[test]
fn histo_selected_implementation_is_correct_and_fast() {
    let data = ZipfGenerator::new(2.0, 1 << 20, 11).take_vec(60_000);
    let app = HistoApp::new(4_096, 16);
    let plan = Planner::new().select(
        &app,
        &data,
        &SkewAnalyzer::paper(),
        &AppCostProfile::histo(),
        &PlannerOptions::equation1(app.ii_pre(), app.ii_pri()),
    );
    assert!(plan.config.x_sec >= plan.recommended_x.expect("select records it"));
    let cfg = plan.config.clone().with_pe_entries(app.pe_entries());
    let selected = SkewObliviousPipeline::run_dataset(app.clone(), data.clone(), &cfg);
    assert_eq!(selected.output, app.reference(&data));

    let baseline = routing_noskew::run(app, data, &cfg);
    assert!(
        selected.report.tuples_per_cycle() > 1.5 * baseline.report.tuples_per_cycle(),
        "selected {} vs baseline {}",
        selected.report.tuples_per_cycle(),
        baseline.report.tuples_per_cycle()
    );
}

/// The paper's selection (Fig. 6) pinned by value for HLL at M = 16, over
/// both the M generated variants and Table III's six (Fig. 7's ticks).
/// The literals were computed with the standalone selection this planner
/// query replaced, so a change to the sampling, to Equation 2 or to the
/// smallest-covering-variant rule fails here.
#[test]
fn selection_is_pinned_by_value() {
    let app = HllApp::new(14, 16);
    let all = PlannerOptions::equation1(app.ii_pre(), app.ii_pri());
    let table3 = PlannerOptions {
        sec_pes: vec![0, 1, 2, 4, 8, 15],
        ..all.clone()
    };
    // (α, Equation 2's X, pick among X = 0..15, pick among Table III's)
    let pins = [
        (0.0, 0, 0, 0),
        (1.0, 2, 2, 2),
        (1.5, 5, 5, 8),
        (2.0, 11, 11, 15),
        (3.0, 12, 12, 15),
    ];
    for (alpha, recommended, all_x, table3_x) in pins {
        let seed = 90 + (alpha * 4.0) as u64;
        let data = ZipfGenerator::new(alpha, 1 << 16, seed).take_vec(200_000);
        for (opts, x) in [(&all, all_x), (&table3, table3_x)] {
            let plan = Planner::new().select(
                &app,
                &data,
                &SkewAnalyzer::paper(),
                &AppCostProfile::hll(),
                opts,
            );
            assert_eq!(plan.recommended_x, Some(recommended), "α = {alpha}");
            let variants = opts.sec_pes.len();
            let pick = PipelineShape::new(8, 16, x);
            assert_eq!(plan.chosen.shape, pick, "α = {alpha}, {variants} variants");
        }
    }
}

#[test]
fn all_five_apps_run_through_the_paper_shape() {
    let n = 20_000;
    let skew = ZipfGenerator::new(1.5, 1 << 18, 3).take_vec(n);

    // HISTO
    let histo = HistoApp::new(1_024, 16);
    let cfg = ArchConfig::paper(4).with_pe_entries(histo.pe_entries());
    let out = SkewObliviousPipeline::run_dataset(histo.clone(), skew.clone(), &cfg);
    assert_eq!(out.output, histo.reference(&skew));

    // DP (M = 8 per Equation 1)
    let dp = DataPartitionApp::new(256, 8);
    let cfg = ArchConfig::new(8, 8, 4).with_pe_entries(dp.pe_entries());
    let out = SkewObliviousPipeline::run_dataset(dp.clone(), skew.clone(), &cfg);
    let sizes: Vec<u64> = out.output.iter().map(|b| b.len() as u64).collect();
    assert_eq!(sizes, dp.reference_sizes(&skew));

    // HLL
    let hll = HllApp::new(12, 16);
    let cfg = ArchConfig::paper(4).with_pe_entries(hll.pe_entries());
    let out = SkewObliviousPipeline::run_dataset(hll.clone(), skew.clone(), &cfg);
    assert_eq!(out.output, hll.reference(&skew));

    // HHD
    let hhd = HhdApp::new(4, 512, 200, 16);
    let cfg = ArchConfig::paper(4).with_pe_entries(hhd.pe_entries());
    let out = SkewObliviousPipeline::run_dataset(hhd.clone(), skew.clone(), &cfg);
    for (key, count) in hhd.reference(&skew) {
        let est = out.output.iter().find(|&&(k, _)| k == key);
        assert!(est.is_some(), "missing heavy hitter {key} (count {count})");
    }

    // PR
    let g = generate::power_law(512, 8.0, 1.4, 5).to_undirected();
    let res = run_pagerank(&g, 0.85, 4, &ArchConfig::paper(7));
    assert_eq!(res.ranks, pagerank::pagerank(&g, 0.85, 4));
}

#[test]
fn bram_saving_scales_with_m() {
    // The headline Table II claim: data routing buffers 1/M of the state
    // per PE instead of a full replica.
    let histo = HistoApp::new(32_768, 16);
    let replica = StaticReplicationDesign::new(8, 16, 32_768);
    let saving = replica.entries_per_pe() as f64 / histo.pe_entries() as f64;
    assert_eq!(saving, 16.0);
}

#[test]
fn static_replication_needs_no_routing_but_loses_bram() {
    let data = ZipfGenerator::new(3.0, 1 << 16, 17).take_vec(20_000);
    let histo_ditto = HistoApp::new(1_024, 16);
    let cfg = ArchConfig::paper(15).with_pe_entries(histo_ditto.pe_entries());
    let ditto = SkewObliviousPipeline::run_dataset(histo_ditto, data.clone(), &cfg);

    let replica = StaticReplicationDesign::new(8, 16, 1_024);
    let stat = replica.run(HistoApp::new(1_024, 1), data);

    // Same histogram from both architectures.
    assert_eq!(ditto.output, stat.output);
    // The static design is skew-immune but pays 16x the per-PE buffer.
    assert!(stat.report.imbalance(16) < 1.2);
}
