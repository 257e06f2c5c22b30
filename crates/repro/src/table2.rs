//! Table II — Ditto vs state-of-the-art designs on (mostly) uniform data:
//! throughput ratio and BRAM usage saving per PE.
//!
//! Reproduced rows (Jiang HISTO, Chen PR) are *simulated* against our
//! pipeline; "Original" rows use the analytic architecture models of
//! `ditto_baselines::PriorDesign` with per-design parameters documented
//! there. Kernel time is projected to the paper's 26 M-tuple scale before
//! adding fixed CPU post-processing, exactly as the paper's end-to-end
//! numbers include the host-side aggregation.

use std::io::{self, Write};

use datagen::{Tuple, UniformGenerator, ZipfGenerator};
use ditto_apps::{run_pagerank, DataPartitionApp, HhdApp, HistoApp, HllApp};
use ditto_baselines::{PriorDesign, StaticReplicationDesign};
use ditto_core::{ArchConfig, DittoApp, SkewObliviousPipeline};
use ditto_graph::generate;
use fpga_model::AppCostProfile;

use crate::{
    estimate_of, freq_of, header, par_map, select_table3, Claim, Claims, Target, PAPER_TUPLES,
};

/// Projects a measured run to paper scale: cycles/tuple × 26 M + overhead,
/// and converts to MT/s at the design's clock.
fn projected_mtps(cycles: u64, tuples: u64, fixed_overhead_cycles: u64, freq_mhz: f64) -> f64 {
    let cpt = cycles as f64 / tuples as f64;
    let total = cpt * PAPER_TUPLES as f64 + fixed_overhead_cycles as f64;
    PAPER_TUPLES as f64 / total * freq_mhz
}

/// One comparison against a prior design.
pub(crate) struct Row {
    app: &'static str,
    /// The prior work, with its citation number.
    work: String,
    /// `Reproduced` (simulated here) or `Original` (analytic model).
    source: &'static str,
    /// Its programming language (HLS / RTL).
    pl: &'static str,
    /// Throughput ratio ours / theirs: measured, and as the paper reports it.
    ratio: f64,
    paper_ratio: f64,
    /// BRAM usage saving per PE: modelled, and as the paper reports it.
    bu: f64,
    paper_bu: f64,
}

impl Row {
    /// A row against `prior` (citation `[cite]`): against `simulated` MT/s
    /// when the prior design was reproduced here, else against its analytic
    /// model. `paper` is the paper's `(ratio, B.U. saving)`.
    fn versus(
        prior: PriorDesign,
        cite: u32,
        simulated: Option<f64>,
        ours_mtps: f64,
        paper: (f64, f64),
    ) -> Row {
        Row {
            app: prior.app,
            work: format!("{} [{cite}]", prior.name),
            source: if simulated.is_some() {
                "Reproduced"
            } else {
                "Original"
            },
            pl: prior.language,
            ratio: ours_mtps / simulated.unwrap_or_else(|| prior.effective_mtps(8.0)),
            paper_ratio: paper.0,
            bu: f64::from(prior.buffer_replication),
            paper_bu: paper.1,
        }
    }
}

/// The measured table: one row per prior design, in the paper's order.
pub(crate) struct Table2 {
    rows: Vec<Row>,
}

/// Our pipeline's paper-scale MT/s for `app` on `data` under `cfg`.
fn ours_mtps<A: DittoApp + 'static>(
    app: A,
    data: Vec<Tuple>,
    cfg: &ArchConfig,
    profile: &AppCostProfile,
) -> f64 {
    let ours = SkewObliviousPipeline::run_dataset(app, data, cfg).report;
    let freq = freq_of(cfg.n_pre, cfg.m_pri, cfg.x_sec, profile);
    projected_mtps(ours.cycles, ours.tuples, 0, freq)
}

/// One independent comparison block (a Table II app section); each runs its
/// own engines, so the blocks sweep across threads.
fn block(idx: usize, tuples: usize) -> Vec<Row> {
    match idx {
        // ---- HISTO vs Jiang et al. [12] (Reproduced: simulate both) ----
        0 => {
            let bins = 16_384u64;
            let data = UniformGenerator::new(1 << 24, 31).take_vec(tuples);
            let app = HistoApp::new(bins, 16);
            let cfg = ArchConfig::paper(0).with_pe_entries(app.pe_entries());
            let ours = ours_mtps(app, data.clone(), &cfg, &AppCostProfile::histo());

            let jiang = PriorDesign::jiang_histo();
            let design = StaticReplicationDesign::new(8, 16, bins as usize);
            let base = design.run(HistoApp::new(bins, 1), data).report;
            // The simulated static run already charges the CPU merge; split it
            // back out so the projection scales kernel time with tuples only.
            let merge = 16 * bins * 2;
            let base_mtps = projected_mtps(base.cycles - merge, base.tuples, merge, jiang.freq_mhz);
            vec![Row::versus(jiang, 12, Some(base_mtps), ours, (1.2, 32.0))]
        }

        // ---- DP vs Wang et al. [18] and Kara et al. [17] (Original) ----
        1 => {
            let app = DataPartitionApp::new(512, 8); // II_pri = 1 -> Eq. 1 gives M = 8
            let data = UniformGenerator::new(1 << 24, 33).take_vec(tuples.min(400_000));
            let cfg = ArchConfig::new(8, 8, 0).with_pe_entries(app.pe_entries());
            let ours = ours_mtps(app, data, &cfg, &AppCostProfile::dp());
            vec![
                Row::versus(PriorDesign::wang_dp(), 18, None, ours, (2.4, 16.0)),
                Row::versus(PriorDesign::kara_dp(), 17, None, ours, (1.2, 8.0)),
            ]
        }

        // ---- PR vs Chen et al. [8] (Reproduced) and Zhou et al. [21] ----
        2 => {
            // Directed graphs "have near balanced workload distribution" — the
            // analyzer selects the base variant and both routing designs
            // perform identically (paper: 1.0x).
            let g = generate::uniform(4_096, 8.0, 35);
            let profile = AppCostProfile::pagerank();
            let edges = ditto_apps::PageRankApp::edge_tuples(&g);
            let probe = ditto_apps::PageRankApp::new(
                std::sync::Arc::new(vec![sketches::Fixed::ZERO; g.vertex_count()]),
                16,
            );
            let x = select_table3(&probe, &edges, &profile).config.x_sec;
            let ours = run_pagerank(&g, 0.85, 2, &ArchConfig::paper(x));
            let chen = run_pagerank(&g, 0.85, 2, &ArchConfig::paper(0));
            let ours_mteps = ours.edges_per_cycle() * freq_of(8, 16, x, &profile);
            let chen_mteps = chen.edges_per_cycle() * freq_of(8, 16, 0, &profile);
            let vs_chen = Row {
                app: "PR",
                work: "Chen et al. [8]".into(),
                source: "Reproduced",
                pl: "HLS",
                ratio: ours_mteps / chen_mteps,
                paper_ratio: 1.0,
                bu: 1.0,
                paper_bu: 1.0,
            };
            let vs_zhou = Row::versus(PriorDesign::zhou_pr(), 21, None, ours_mteps, (1.8, 1.0));
            vec![vs_chen, vs_zhou]
        }

        // ---- HLL vs Kulkarni et al. [20] (Original) ----
        3 => {
            let data = UniformGenerator::new(1 << 30, 37).take_vec(tuples.min(400_000));
            let app = HllApp::new(14, 16);
            let cfg = ArchConfig::paper(0).with_pe_entries(app.pe_entries());
            let ours = ours_mtps(app, data, &cfg, &AppCostProfile::hll());
            let kulkarni = PriorDesign::kulkarni_hll();
            vec![Row::versus(kulkarni, 20, None, ours, (0.9, 10.0))]
        }

        // ---- HHD vs Tong et al. [19] (Original) ----
        4 => {
            // The paper's HHD dataset has "half of the tuples with the same
            // key": Ditto's analyzer provisions SecPEs for it. Interleaved,
            // so the hot key is spread over time.
            let app = HhdApp::new(4, 1_024, 1_000, 16);
            let cold = ZipfGenerator::new(0.0, 1 << 24, 39).take_vec(tuples.min(400_000) / 2);
            let hot = Tuple::from_key(0xbeef);
            let data: Vec<Tuple> = cold.into_iter().flat_map(|t| [t, hot]).collect();
            let profile = AppCostProfile::hhd();
            let x = select_table3(&app, &data, &profile).config.x_sec;
            let cfg = ArchConfig::paper(x).with_pe_entries(app.pe_entries());
            let ours = ours_mtps(app, data, &cfg, &profile);
            vec![Row::versus(
                PriorDesign::tong_hhd(),
                19,
                None,
                ours,
                (1.6, 1.0),
            )]
        }

        _ => unreachable!("unknown block"),
    }
}

impl Target for Table2 {
    fn measure(tuples: usize) -> Self {
        let tuples = tuples.min(1_000_000);
        let blocks: Vec<usize> = (0..5).collect();
        let rows = par_map(&blocks, |&i| block(i, tuples));
        Table2 {
            rows: rows.into_iter().flatten().collect(),
        }
    }

    fn render(&self, out: &mut dyn Write) -> io::Result<()> {
        writeln!(out, "# Table II — Ditto vs state-of-the-art designs")?;
        header(
            out,
            "Throughput ratio (ours / theirs) and BRAM usage saving per PE",
            "App. | Existing work | Source | P.L. | Thro. (ours) | Thro. (paper) | \
             B.U.Saving (ours) | B.U.Saving (paper)",
        )?;
        for r in &self.rows {
            writeln!(
                out,
                "| {} | {} | {} | {} | {:.1}x | {:.1}x | {:.0}x | {:.0}x |",
                r.app, r.work, r.source, r.pl, r.ratio, r.paper_ratio, r.bu, r.paper_bu
            )?;
        }
        writeln!(
            out,
            "\nBaseline resource context (Ditto 16P HLL): {}",
            estimate_of(8, 16, 0, &AppCostProfile::hll()).table_row()
        )
    }

    fn check(&self) -> Vec<Claim> {
        let off = |r: &Row| (r.ratio - r.paper_ratio).abs() / r.paper_ratio;
        let worst = self.rows.iter().max_by(|a, b| off(a).total_cmp(&off(b)));
        let worst = worst.expect("table has rows");
        // The directional claim: faster where the paper is faster, slower
        // where it is slower (or too close to call).
        let flipped = |r: &&Row| {
            (r.ratio >= 1.0) != (r.paper_ratio >= 1.0) && (r.ratio - r.paper_ratio).abs() >= 0.3
        };
        let named = |rows: &[&Row]| match rows {
            [] => "none".to_owned(),
            rows => rows.iter().map(|r| &*r.work).collect::<Vec<_>>().join(", "),
        };
        let flipped: Vec<&Row> = self.rows.iter().filter(flipped).collect();
        let bu_off: Vec<&Row> = self.rows.iter().filter(|r| r.bu != r.paper_bu).collect();
        let mut c = Claims::of("table2");
        let text = "every throughput ratio is within 35 % of the paper's";
        let ours = format!(
            "worst {}: {:.1}x vs {:.1}x",
            worst.work, worst.ratio, worst.paper_ratio
        );
        c.add(text, "0.9x – 2.4x", ours, off(worst) <= 0.35);
        let text = "every ratio falls on the paper's side of 1.0x (or within 0.3 of it)";
        let ours = format!("flipped: {}", named(&flipped));
        c.add(text, "faster on 5 of 7", ours, flipped.is_empty());
        let text = "every BRAM usage saving per PE equals the paper's";
        let ours = format!("differing: {}", named(&bu_off));
        c.add(text, "1x – 32x", ours, bu_off.is_empty());
        c.list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_like() -> Table2 {
        let row = |(ratio, paper_ratio)| Row {
            app: "APP",
            work: format!("Prior {paper_ratio}"),
            source: "Original",
            pl: "RTL",
            ratio,
            paper_ratio,
            bu: 16.0,
            paper_bu: 16.0,
        };
        Table2 {
            rows: [(1.2, 1.2), (2.3, 1.8), (0.8, 0.9)].map(row).into(),
        }
    }

    #[test]
    fn every_claim_can_fail() {
        crate::tests::assert_each_claim_can_fail(
            paper_like,
            &[
                // 50 % off, still on the paper's side of 1.0x.
                (|t| t.rows[1].ratio = 2.7, "within 35 % of the paper's"),
                // 29 % off, but slower where the paper is faster.
                (|t| t.rows[0].ratio = 0.85, "paper's side of 1.0x"),
                (|t| t.rows[1].bu = 8.0, "BRAM usage saving per PE equals"),
            ],
        );
    }
}
