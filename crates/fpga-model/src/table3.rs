//! The paper's Table III, typed out once for the calibration test and the
//! `repro table3` target.

use crate::{PipelineShape, ResourceEstimate};

/// One published row: an HLL implementation's post-place-&-route numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table3Row {
    /// The implementation (`16P`, `32P`, `16P+4S`, …).
    pub shape: PipelineShape,
    /// Achieved clock, MHz.
    pub freq_mhz: f64,
    /// M20K RAM blocks.
    pub ram_blocks: u64,
    /// Logic elements (ALMs).
    pub logic_alms: u64,
    /// DSP blocks.
    pub dsps: u64,
}

impl Table3Row {
    /// The columns compared against the model.
    pub const COLUMNS: [&'static str; 4] = ["freq", "RAM", "logic", "DSP"];

    /// Bound on `|model − paper| / paper` per column: the observed
    /// calibration error. The worst cells are the paper's own P&R outliers
    /// (16P+2S closes timing at 180 MHz despite 48% utilisation; 16P+8S
    /// uses more logic than 16P+15S).
    pub const TOLERANCE: [f64; 4] = [0.32, 0.30, 0.25, 0.25];

    /// `(model − paper) / paper` per column, in [`Self::COLUMNS`] order.
    pub fn deltas(&self, est: &ResourceEstimate) -> [f64; 4] {
        let rel = |model: f64, paper: f64| (model - paper) / paper;
        [
            rel(est.freq_mhz, self.freq_mhz),
            rel(est.ram_blocks as f64, self.ram_blocks as f64),
            rel(est.logic_alms as f64, self.logic_alms as f64),
            rel(est.dsps as f64, self.dsps as f64),
        ]
    }
}

const fn row(nmx: (u32, u32, u32), freq_mhz: f64, ram: u64, logic: u64, dsps: u64) -> Table3Row {
    Table3Row {
        shape: PipelineShape {
            n_pre: nmx.0,
            m_pri: nmx.1,
            x_sec: nmx.2,
        },
        freq_mhz,
        ram_blocks: ram,
        logic_alms: logic,
        dsps,
    }
}

/// Table III of the paper: the seven HLL implementations on the Arria 10
/// GX 1150.
pub const TABLE3: [Table3Row; 7] = [
    row((8, 16, 0), 246.0, 597, 163_934, 403),
    row((16, 32, 0), 191.0, 1_868, 230_838, 729),
    row((8, 16, 1), 202.0, 908, 184_826, 409),
    row((8, 16, 2), 180.0, 1_021, 203_083, 575),
    row((8, 16, 4), 192.0, 1_309, 212_856, 587),
    row((8, 16, 8), 196.0, 1_374, 281_667, 616),
    row((8, 16, 15), 188.0, 2_129, 230_095, 658),
];
