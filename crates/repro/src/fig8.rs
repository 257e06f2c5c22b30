//! Fig. 8 — PageRank throughput (MTEPS) on undirected graphs, Ditto vs the
//! data-routing design of Chen et al. [8], graphs in ascending degree.

use std::io::{self, Write};

use ditto_apps::run_pagerank;
use ditto_core::ArchConfig;
use ditto_graph::generate;
use fpga_model::{mteps, AppCostProfile};

use crate::{freq_of, header, par_map, Claim, Claims, Target};

/// Divisor applied to the paper's graph sizes.
const GRAPH_SCALE_DOWN: usize = 4;

/// One graph of the suite.
pub(crate) struct Fig8Row {
    /// The descriptive cells: `name | V | E | avg deg | max in-deg`.
    graph: String,
    /// Chen et al.: plain data routing, 16 PriPEs, no SecPEs.
    chen_mteps: f64,
    /// Ditto with maximal skew capacity (M−1 SecPEs).
    ditto_mteps: f64,
    /// Whether both designs computed bit-identical ranks.
    ranks_identical: bool,
}

/// The measured figure, graphs in ascending average degree.
pub(crate) struct Fig8 {
    rows: Vec<Fig8Row>,
}

impl Target for Fig8 {
    fn measure(_tuples: usize) -> Self {
        let suite = generate::fig8_suite(GRAPH_SCALE_DOWN);
        let profile = AppCostProfile::pagerank();
        let iterations = 2;
        // Each graph is an independent pair of engine runs.
        let rows = par_map(&suite, |(name, g)| {
            let chen = run_pagerank(g, 0.85, iterations, &ArchConfig::paper(0));
            // Online-style selection picks maximal skew capacity (M-1).
            let ditto = run_pagerank(g, 0.85, iterations, &ArchConfig::paper(15));
            let (v, e, deg, hub) = (
                g.vertex_count(),
                g.edge_count(),
                g.avg_degree(),
                g.max_in_degree(),
            );
            Fig8Row {
                graph: format!("{name} | {v} | {e} | {deg:.1} | {hub}"),
                chen_mteps: mteps(chen.edges_per_cycle(), freq_of(8, 16, 0, &profile)),
                ditto_mteps: mteps(ditto.edges_per_cycle(), freq_of(8, 16, 15, &profile)),
                ranks_identical: chen.ranks == ditto.ranks,
            }
        });
        Fig8 { rows }
    }

    fn render(&self, out: &mut dyn Write) -> io::Result<()> {
        writeln!(
            out,
            "# Fig. 8 — PR on undirected graphs (MTEPS), Ditto vs Chen et al. [8]"
        )?;
        header(
            out,
            "PR throughput per graph (ascending average degree)",
            "graph | V | E | avg deg | max in-deg | Chen et al. (MTEPS) | Ditto (MTEPS) | speedup",
        )?;
        for r in &self.rows {
            let (chen, ditto) = (r.chen_mteps, r.ditto_mteps);
            let speedup = ditto / chen;
            writeln!(
                out,
                "| {} | {chen:.0} | {ditto:.0} | {speedup:.1}x |",
                r.graph
            )?;
        }
        let max = self.speedups().fold(0.0f64, f64::max);
        writeln!(
            out,
            "\nMax speedup: {max:.1}x (paper: up to 7.1x, growing with graph degree\n\
             since more edges updating the same vertex cause more severe skew)."
        )
    }

    fn check(&self) -> Vec<Claim> {
        let differing = self.rows.iter().filter(|r| !r.ranks_identical).count() as f64;
        let speedups: Vec<f64> = self.speedups().collect();
        let min = self.speedups().fold(f64::MAX, f64::min);
        let max = self.speedups().fold(0.0f64, f64::max);
        let third = speedups.len() / 3;
        let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
        let sparse = mean(&speedups[..third]);
        let dense = mean(&speedups[speedups.len() - third..]);
        let mut c = Claims::of("fig8");
        let text = "graphs on which the two designs' ranks differ";
        c.at_most(text, "none", differing, 0.0);
        let text = "speed-up (x) over Chen et al. on the worst graph";
        c.at_least(text, "2.9", min, 3.5);
        let text = "speed-up (x) over Chen et al. on the best graph";
        c.at_least(text, "7.1", max, 5.5);
        let text = "speed-up grows with degree: densest third beats sparsest third";
        let ours = format!("{dense:.1}x vs {sparse:.1}x");
        c.add(text, "grows with degree", ours, dense > sparse);
        c.list
    }
}

impl Fig8 {
    fn speedups(&self) -> impl Iterator<Item = f64> + '_ {
        self.rows.iter().map(|r| r.ditto_mteps / r.chen_mteps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_like() -> Fig8 {
        let row = |(i, s): (usize, f64)| Fig8Row {
            graph: format!("g{i} | 4096 | 16384 | 4.0 | 1000"),
            chen_mteps: 200.0,
            ditto_mteps: 200.0 * s,
            ranks_identical: true,
        };
        let speedups = [4.0, 3.8, 4.5, 5.0, 5.0, 4.2, 6.1, 5.3, 4.8];
        Fig8 {
            rows: speedups.into_iter().enumerate().map(row).collect(),
        }
    }

    #[test]
    fn every_claim_can_fail() {
        crate::tests::assert_each_claim_can_fail(
            paper_like,
            &[
                (|f| f.rows[4].ranks_identical = false, "ranks differ"),
                (|f| f.rows[4].ditto_mteps = 600.0, "on the worst graph"),
                (|f| f.rows[6].ditto_mteps = 1_040.0, "on the best graph"),
                (
                    |f| f.rows[..2].iter_mut().for_each(|r| r.ditto_mteps = 1_200.0),
                    "speed-up grows with degree",
                ),
            ],
        );
    }
}
