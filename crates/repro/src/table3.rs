//! Table III — resource utilisation and frequency of the HLL variants:
//! analytical model vs the paper's post-P&R numbers.

use std::io::{self, Write};

use fpga_model::{AppCostProfile, ResourceEstimate, ResourceModel, Table3Row, TABLE3};

use crate::{header, Claim, Claims, Target};

/// The modelled table: `(paper, model)` in the paper's row order.
pub(crate) struct Table3 {
    rows: Vec<(Table3Row, ResourceEstimate)>,
}

impl Target for Table3 {
    fn measure(_tuples: usize) -> Self {
        let model = ResourceModel::arria10();
        let hll = AppCostProfile::hll();
        let pair = |paper: &Table3Row| (*paper, model.estimate(paper.shape, &hll));
        Table3 {
            rows: TABLE3.iter().map(pair).collect(),
        }
    }

    fn render(&self, out: &mut dyn Write) -> io::Result<()> {
        writeln!(
            out,
            "# Table III — HLL implementation resources and frequency\n\n\
             Model vs paper; Δ is (model − paper) / paper."
        )?;
        let cols = "Implem. | Freq (model/paper) | Δ | RAM | Δ | Logic | Δ | DSP | Δ";
        header(out, "Resource utilisation and frequency", cols)?;
        for (p, e) in &self.rows {
            let [freq, ram, logic, dsp] = p.deltas(e).map(|d| format!("{:+.0}%", d * 100.0));
            let util = |model: u64, paper: u64, util: f64| {
                format!("{model} / {paper} ({:.0}%)", util * 100.0)
            };
            writeln!(
                out,
                "| {} | {:.0} / {:.0} MHz | {freq} | {} | {ram} | {} | {logic} | {} | {dsp} |",
                e.label,
                e.freq_mhz,
                p.freq_mhz,
                util(e.ram_blocks, p.ram_blocks, e.ram_util),
                util(e.logic_alms, p.logic_alms, e.logic_util),
                util(e.dsps, p.dsps, e.dsp_util)
            )?;
        }
        writeln!(
            out,
            "\nTrends reproduced: RAM grows steeply with X (and with 32P); the base\n\
             16P design is fastest; the runtime profiler costs ~6% logic / ~8% DSPs."
        )
    }

    fn check(&self) -> Vec<Claim> {
        // Per column: the worst cell against the tolerance `fpga-model` states.
        let (names, tolerance) = (Table3Row::COLUMNS, Table3Row::TOLERANCE);
        let worst: [(f64, &String); 4] = std::array::from_fn(|col| {
            let cells = self.rows.iter().map(|(p, e)| (p.deltas(e)[col], &e.label));
            let worst = cells.max_by(|a, b| a.0.abs().total_cmp(&b.0.abs()));
            worst.expect("table has rows")
        });
        let listed = |cell: &dyn Fn(usize) -> String| {
            (0..names.len()).map(cell).collect::<Vec<_>>().join(", ")
        };
        let bounds = listed(&|c| format!("{} {:.0} %", names[c], tolerance[c] * 100.0));
        let found = listed(&|c| {
            let (delta, label) = worst[c];
            format!("{} {:+.0} % ({label})", names[c], delta * 100.0)
        });
        let within = (0..names.len()).all(|c| worst[c].0.abs() < tolerance[c]);

        let by_x = self.rows.iter().filter(|(p, _)| p.shape.m_pri == 16);
        let ram: Vec<u64> = by_x.map(|(_, e)| e.ram_blocks).collect();
        let grows = ram.windows(2).all(|w| w[0] < w[1]);
        let base = self.rows[0].1.freq_mhz;
        let clocks = self.rows.iter().map(|(_, e)| e.freq_mhz);
        let fastest = clocks.fold(0.0f64, f64::max);

        let mut c = Claims::of("table3");
        let text = format!("every modelled cell is within its column's tolerance ({bounds})");
        c.add(&text, "post-P&R values", format!("worst: {found}"), within);
        let text = "RAM grows with every added SecPE step";
        c.add(text, "597 → 2129 blocks", format!("{ram:?}"), grows);
        let text = "the base 16P design closes timing fastest";
        let ours = format!("16P {base:.0} MHz, best {fastest:.0} MHz");
        c.add(text, "246 MHz, the highest", ours, base >= fastest);
        c.list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The model as calibrated passes; each violation stays inside every
    /// other claim's bounds.
    #[test]
    fn every_claim_can_fail() {
        crate::tests::assert_each_claim_can_fail(
            || Table3::measure(0),
            &[
                (
                    |t: &mut Table3| t.rows[3].1.logic_alms /= 2,
                    "within its column's tolerance",
                ),
                (
                    |t| t.rows[3].1.ram_blocks = t.rows[2].1.ram_blocks,
                    "RAM grows with every added",
                ),
                (
                    |t| t.rows[2].1.freq_mhz = t.rows[0].1.freq_mhz + 2.0,
                    "closes timing fastest",
                ),
            ],
        );
    }
}
