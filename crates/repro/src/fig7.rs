//! Fig. 7 — HLL throughput for implementations with different numbers of
//! SecPEs over Zipf distributions, plus Ditto's implementation selection
//! ticks and speedup over the 16P baseline.

use std::io::{self, Write};

use datagen::ZipfGenerator;
use ditto_apps::HllApp;
use ditto_core::{ArchConfig, SkewObliviousPipeline};
use fpga_model::{mtps, AppCostProfile, PipelineShape, TABLE3};

use crate::{alpha_sweep, freq_of, header, par_map, row, select_table3, Claim, Claims, Target};

/// The implementations of Fig. 7 are the rows of [`TABLE3`]; these index it.
const P16: usize = 0;
const P32: usize = 1;
const P16_S15: usize = 6;

/// SecPEs of implementation `c`.
fn x_of(c: usize) -> u32 {
    TABLE3[c].shape.x_sec
}

/// One Zipf factor of the sweep.
pub(crate) struct Fig7Row {
    alpha: f64,
    /// MT/s per implementation, in [`TABLE3`] order.
    mtps: [f64; 7],
    /// SecPEs the analyzer recommends (Equation 2 on a 0.1 % sample).
    recommended_x: u32,
    /// Index of the implementation Ditto selects: the smallest generated
    /// 16P variant with X ≥ the recommendation (the Fig. 7 tick marks).
    pick: usize,
}

/// The measured figure, α ascending from 0 to 3.
pub(crate) struct Fig7 {
    tuples: usize,
    rows: Vec<Fig7Row>,
}

impl Target for Fig7 {
    fn measure(tuples: usize) -> Self {
        let precision = 14u32; // 16384 registers
        let profile = AppCostProfile::hll();
        // Every (α, configuration) point is an independent engine.
        let rows = par_map(&alpha_sweep(), |&alpha| {
            let seed = 90 + (alpha * 4.0) as u64;
            let data = ZipfGenerator::new(alpha, 1 << 22, seed).take_vec(tuples);
            let mtps = TABLE3.map(|row| {
                let PipelineShape {
                    n_pre: n,
                    m_pri: m,
                    x_sec: x,
                } = row.shape;
                let app = HllApp::new(precision, m);
                let cfg = ArchConfig::new(n, m, x).with_pe_entries(app.pe_entries());
                let rep = SkewObliviousPipeline::run_dataset(app, data.clone(), &cfg).report;
                mtps(rep.tuples_per_cycle(), freq_of(n, m, x, &profile))
            });
            let plan = select_table3(&HllApp::new(precision, 16), &data, &profile);
            let recommended_x = plan.recommended_x.expect("a selection records it");
            let pick = TABLE3
                .iter()
                .position(|row| row.shape == plan.chosen.shape)
                .expect("the selection searches Table III's 16P variants");
            Fig7Row {
                alpha,
                mtps,
                recommended_x,
                pick,
            }
        });
        Fig7 { tuples, rows }
    }

    fn render(&self, out: &mut dyn Write) -> io::Result<()> {
        let tuples = self.tuples;
        writeln!(
            out,
            "# Fig. 7 — HLL implementations over Zipf distributions\n\n\
             {tuples} tuples per run; throughput = tuples/cycle x modelled clock."
        )?;
        let impls = TABLE3.map(|row| format!("{} (MT/s)", row.shape.label()));
        let cols = format!("α | {} | Ditto picks | speedup vs 16P", impls.join(" | "));
        header(out, "Throughput (MT/s) per implementation", &cols)?;
        for r in &self.rows {
            let mut cells = vec![format!("{:.2}", r.alpha)];
            cells.extend(r.mtps.iter().map(|t| format!("{t:.0}")));
            cells.push(format!(
                "{} (X>={})",
                TABLE3[r.pick].shape.label(),
                r.recommended_x
            ));
            cells.push(format!("{:.1}x", r.mtps[r.pick] / r.mtps[P16]));
            writeln!(out, "{}", row(&cells))?;
        }
        writeln!(
            out,
            "\nPaper anchors: 16P collapses ~16x by α=3; 32P does not help;\n\
             16P+15S is flat (skew-oblivious); selected-impl speedup reaches ~12x at α=3."
        )
    }

    fn check(&self) -> Vec<Claim> {
        let (first, last) = (&self.rows[0], &self.rows[self.rows.len() - 1]);
        let collapse = first.mtps[P16] / last.mtps[P16];
        let p32_wins = self.rows.iter().filter(|r| r.mtps[P32] >= r.mtps[P16]);
        let p32_wins = p32_wins.count() as f64;
        let flat = self.rows.iter().map(|r| r.mtps[P16_S15]);
        let (lo, hi) = flat.fold((f64::MAX, 0.0f64), |(lo, hi), t| (lo.min(t), hi.max(t)));
        let worst_pick = self.rows.iter().map(|r| r.mtps[r.pick] / r.mtps[P16]);
        let worst_pick = worst_pick.fold(f64::MAX, f64::min);
        let picked_x: Vec<u32> = self.rows.iter().map(|r| x_of(r.pick)).collect();
        let speedup = last.mtps[last.pick] / last.mtps[P16];
        let mut c = Claims::of("fig7");
        let text = "16P throughput collapse (x) from α = 0 to α = 3";
        c.at_least(text, "~16", collapse, 10.0);
        c.at_most("Zipf factors at which 32P beats 16P", "none", p32_wins, 0.0);
        let text = "skew-oblivious 16P+15S: min/max throughput over the sweep";
        c.at_least(text, "flat", lo / hi, 0.95);
        let text = "Ditto's pick over 16P (x) at its worst α";
        c.at_least(text, "≥ 1", worst_pick, 1.0);
        let text = "Ditto picks more SecPEs as α grows";
        let ours = format!("X = {picked_x:?}");
        c.add(
            text,
            "ticks move right",
            ours,
            picked_x.windows(2).all(|w| w[0] <= w[1]),
        );
        c.at_least("Ditto's pick over 16P (x) at α = 3", "~12", speedup, 9.5);
        c.list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shape of the committed figure: 16P and 32P collapse, 16P+15S
    /// holds 1400, the pick walks 16P → 16P+4S → 16P+15S.
    fn paper_like() -> Fig7 {
        let row = |alpha, p16: f64, pick: usize| Fig7Row {
            alpha,
            mtps: [
                p16,
                p16 * 0.7,
                p16 * 1.1,
                p16 * 1.2,
                1_100.0,
                1_300.0,
                1_400.0,
            ],
            recommended_x: x_of(pick),
            pick,
        };
        Fig7 {
            tuples: 1,
            rows: vec![
                row(0.0, 1_800.0, P16),
                row(1.5, 300.0, 4),
                row(3.0, 140.0, P16_S15),
            ],
        }
    }

    #[test]
    fn every_claim_can_fail() {
        crate::tests::assert_each_claim_can_fail(
            paper_like,
            &[
                (|f| f.rows[0].mtps[P16] = 1_300.0, "16P throughput collapse"),
                (|f| f.rows[2].mtps[P32] = 151.0, "32P beats 16P"),
                (
                    |f| f.rows[1].mtps[P16_S15] = 1_300.0,
                    "skew-oblivious 16P+15S",
                ),
                (|f| f.rows[1].mtps[4] = 290.0, "at its worst α"),
                (
                    |f| {
                        (f.rows[1].pick, f.rows[2].pick) = (P16_S15, 5);
                        f.rows[2].mtps[5] = 1_400.0;
                    },
                    "more SecPEs as α grows",
                ),
                (|f| f.rows[2].mtps[P16] = 150.0, "at α = 3 ≥ 9.5"),
            ],
        );
    }
}
