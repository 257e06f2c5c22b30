//! Fig. 2 — motivation: per-PE workload heat map (2a) and HISTO throughput
//! collapse under Zipf skew (2b), 16 PriPEs, no skew handling.

use std::io::{self, Write};

use datagen::ZipfGenerator;
use ditto_apps::HistoApp;
use ditto_core::{ArchConfig, ExecutionReport, SkewObliviousPipeline};
use fpga_model::{mtps, AppCostProfile};

use crate::{alpha_sweep, freq_of, header, par_map, row, Claim, Claims, Target};

/// The heat-map rows of Fig. 2a.
const HEAT_ALPHAS: [f64; 9] = [1.0, 1.3, 1.5, 1.8, 2.0, 2.3, 2.5, 2.8, 3.0];

pub(crate) struct Fig2 {
    tuples: usize,
    /// Fig. 2a: `(α, per-PE workload relative to the α = 0 run)`.
    heat: Vec<(f64, Vec<f64>)>,
    /// Fig. 2b: `(α, tuples/cycle)`, α ascending from 0.
    sweep: Vec<(f64, f64)>,
}

fn run_histo(alpha: f64, tuples: usize) -> ExecutionReport {
    let bins = 32_768u64;
    let m = 16u32;
    let app = HistoApp::new(bins, m);
    let cfg = ArchConfig::paper(0).with_pe_entries(app.pe_entries());
    // Seed varies with α like the paper's per-α datasets.
    let data = ZipfGenerator::new(alpha, 1 << 22, 40 + (alpha * 4.0) as u64).take_vec(tuples);
    SkewObliviousPipeline::run_dataset(app, data, &cfg).report
}

impl Target for Fig2 {
    fn measure(tuples: usize) -> Self {
        let sweep = alpha_sweep();
        let alphas = [sweep.as_slice(), &HEAT_ALPHAS].concat();
        let reports = par_map(&alphas, |&alpha| run_histo(alpha, tuples));
        let (sweep_runs, heat_runs) = reports.split_at(sweep.len());

        let base = sweep_runs[0].normalized_workload(16);
        let relative = |rep: &ExecutionReport| {
            let rel = |(w, b): (&f64, &f64)| if *b > 0.0 { w / b } else { 0.0 };
            rep.normalized_workload(16)
                .iter()
                .zip(&base)
                .map(rel)
                .collect()
        };
        let tpc = sweep_runs.iter().map(ExecutionReport::tuples_per_cycle);
        Fig2 {
            tuples,
            heat: HEAT_ALPHAS
                .into_iter()
                .zip(heat_runs.iter().map(relative))
                .collect(),
            sweep: sweep.into_iter().zip(tpc).collect(),
        }
    }

    fn render(&self, out: &mut dyn Write) -> io::Result<()> {
        let tuples = self.tuples;
        writeln!(
            out,
            "# Fig. 2 — HISTO on Zipf datasets (16 PEs, no skew handling)\n\n\
             {tuples} tuples per run (paper: 26M); normalisation to α=0."
        )?;
        let pes: Vec<String> = (1..=16).map(|i| format!("PE{i}")).collect();
        let title = "Fig. 2a — workload distribution of 16 PEs (normalised to α = 0)";
        header(out, title, &format!("α | {}", pes.join(" | ")))?;
        for (alpha, rel) in &self.heat {
            let mut cells = vec![format!("{alpha:.1}")];
            cells.extend(rel.iter().map(|r| format!("{r:.1}")));
            writeln!(out, "{}", row(&cells))?;
        }

        let freq = freq_of(8, 16, 0, &AppCostProfile::histo());
        let cols = "α | tuples/cycle | MT/s | slowdown vs α=0";
        header(out, "Fig. 2b — throughput with varying α", cols)?;
        let peak = self.sweep[0].1;
        for &(alpha, tpc) in &self.sweep {
            let (rate, slowdown) = (mtps(tpc, freq), peak / tpc);
            writeln!(
                out,
                "| {alpha:.2} | {tpc:.3} | {rate:.0} | {slowdown:.1}x |"
            )?;
        }
        writeln!(
            out,
            "\nPaper anchors: ~2000 MT/s at α = 0 collapsing to ~1/16 at α = 3;\n\
             overloaded PE moves across α rows (different seeds)."
        )
    }

    fn check(&self) -> Vec<Claim> {
        let hottest = |rel: &[f64]| {
            let at = (0..rel.len()).max_by(|&a, &b| rel[a].total_cmp(&rel[b]));
            at.map_or((0, 0.0), |i| (i, rel[i]))
        };
        let uniform = self.sweep[0].1;
        let slowdown = uniform / self.sweep[self.sweep.len() - 1].1;
        let hot_share = hottest(&self.heat[self.heat.len() - 1].1).1;
        let mut hot_pes: Vec<usize> = self.heat.iter().map(|(_, rel)| hottest(rel).0).collect();
        hot_pes.sort_unstable();
        hot_pes.dedup();
        let hot_pes = hot_pes.len() as f64;
        let mut c = Claims::of("fig2");
        let text = "tuples/cycle on uniform keys";
        c.at_least(text, "~8 (2000 MT/s)", uniform, 7.8);
        let text = "slow-down (x) of plain routing at α = 3";
        c.at_least(text, "~16", slowdown, 10.0);
        let text = "hottest PE's load at α = 3 over its uniform share";
        c.at_least(text, "~16", hot_share, 10.0);
        let text = "distinct overloaded PEs over the nine heat-map rows";
        c.at_least(text, "it moves", hot_pes, 4.0);
        c.list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nine rows with a different PE 11.5x over its share in each, and a
    /// 13x collapse.
    fn paper_like() -> Fig2 {
        let row = |r: usize| {
            let mut rel = vec![0.3; 16];
            rel[(r * 5) % 16] = 11.5;
            (1.0 + r as f64 * 0.25, rel)
        };
        Fig2 {
            tuples: 1,
            heat: (0..9).map(row).collect(),
            sweep: vec![(0.0, 7.9), (1.5, 1.2), (3.0, 0.6)],
        }
    }

    #[test]
    fn every_claim_can_fail() {
        crate::tests::assert_each_claim_can_fail(
            paper_like,
            &[
                (|f| f.sweep[0].1 = 7.7, "on uniform keys"),
                (|f| f.sweep[2].1 = 0.9, "of plain routing"),
                (|f| f.heat[8].1[8] = 8.5, "hottest PE's load"),
                (
                    |f| {
                        f.heat
                            .iter_mut()
                            .for_each(|(_, rel)| *rel = paper_like().heat[0].1.clone())
                    },
                    "distinct overloaded PEs",
                ),
            ],
        );
    }
}
