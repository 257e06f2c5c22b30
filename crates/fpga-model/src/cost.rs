//! Design-level resource estimation.

use crate::{AppCostProfile, Device, FrequencyModel};

/// The pipeline's shape: the PE counts the Ditto system generator chooses.
///
/// `n_pre` PrePEs (and mapper lanes), `m_pri` PriPEs, `x_sec` SecPEs.
/// Table III's configurations are written `16P`, `32P`, `16P+4S`, … — use
/// [`PipelineShape::label`] to get the same notation.
///
/// # Example
///
/// ```
/// use fpga_model::PipelineShape;
///
/// let s = PipelineShape::new(8, 16, 4);
/// assert_eq!(s.label(), "16P+4S");
/// assert_eq!(s.destination_pes(), 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineShape {
    /// Number of PrePEs (tuple-preparation lanes), N.
    pub n_pre: u32,
    /// Number of PriPEs, M.
    pub m_pri: u32,
    /// Number of SecPEs, X.
    pub x_sec: u32,
}

impl PipelineShape {
    /// Creates a shape.
    ///
    /// # Panics
    ///
    /// Panics if `n_pre` or `m_pri` is zero, or if `x_sec >= m_pri` — the
    /// paper bounds X by M−1 ("the implementation with M−1 SecPEs could
    /// handle the worst case where all data go to the same PriPE").
    pub fn new(n_pre: u32, m_pri: u32, x_sec: u32) -> Self {
        assert!(n_pre > 0, "need at least one PrePE");
        assert!(m_pri > 0, "need at least one PriPE");
        assert!(x_sec < m_pri, "X is bounded by M-1 (paper §V-C)");
        PipelineShape {
            n_pre,
            m_pri,
            x_sec,
        }
    }

    /// Total destination PEs (PriPEs + SecPEs).
    pub fn destination_pes(&self) -> u32 {
        self.m_pri + self.x_sec
    }

    /// Table III style label: `16P`, `16P+4S`, …
    pub fn label(&self) -> String {
        if self.x_sec == 0 {
            format!("{}P", self.m_pri)
        } else {
            format!("{}P+{}S", self.m_pri, self.x_sec)
        }
    }

    /// Stable hash of the configuration, used to seed deterministic
    /// place-&-route jitter.
    pub fn config_hash(&self) -> u64 {
        let x =
            (u64::from(self.n_pre) << 42) ^ (u64::from(self.m_pri) << 21) ^ u64::from(self.x_sec);
        // splitmix64-style mixing, inlined to keep this crate dependency-free
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Fixed per-module costs, calibrated against Table III.
///
/// All constants are in device units (ALMs, M20K blocks, DSP blocks).
mod coef {
    /// Static shell (Intel OpenCL board support package), §VI-C1: "the
    /// resource consumption is ... not proportional due to the static
    /// resource consumption of the built-in shell".
    pub const SHELL_RAM: u64 = 240;
    /// Shell logic.
    pub const SHELL_LOGIC: u64 = 52_000;
    /// Shell DSPs.
    pub const SHELL_DSP: u64 = 96;

    /// PrePE FIFO RAM per lane.
    pub const PRE_RAM: u64 = 2;
    /// Mapper table + FIFO RAM per lane.
    pub const MAPPER_RAM: u64 = 2;
    /// Mapper logic per lane (table, counters, round-robin mux).
    pub const MAPPER_LOGIC: u64 = 1_100;

    /// Destination-PE kernel overhead RAM.
    pub const PE_FIXED_RAM: u64 = 4;
    /// Destination-PE datapath logic overhead (decoder + filter).
    pub const PE_FIXED_LOGIC: u64 = 2_000;
    /// Per-PE logic proportional to the wide word width (N slots).
    pub const PE_WIRE_LOGIC_PER_LANE: u64 = 40;
    /// RAM per datapath for the decoded word queued behind the one its
    /// filter forwards (`ditto-core`'s filter bank holds
    /// `FILTER_WORDS = 2`; the calibrated per-PE terms hold the first).
    /// A word is at most 16 slots, and the widest value (DP's 192 bits)
    /// fills 3 Kbit of a 20 Kbit M20K block, so the queued word costs one
    /// block whatever the app and N.
    pub const QUEUED_WORD_RAM: u64 = 1;

    /// Extra RAM per SecPE (plan tables, drain/result staging).
    pub const SEC_EXTRA_RAM: u64 = 40;
    /// Extra control logic per SecPE.
    pub const SEC_EXTRA_LOGIC: u64 = 1_200;

    /// Runtime profiler — the paper reports it at ~6 % logic, ~8 % DSPs.
    pub const PROFILER_LOGIC: u64 = 10_000;
    /// Profiler DSPs.
    pub const PROFILER_DSP: u64 = 30;
    /// Profiler hist RAM.
    pub const PROFILER_RAM: u64 = 8;
    /// Merger module.
    pub const MERGER_LOGIC: u64 = 2_500;
    /// Merger RAM.
    pub const MERGER_RAM: u64 = 4;
    /// Fixed rescheduling machinery RAM (intermediate-result channels).
    pub const RESCHED_RAM: u64 = 90;

    /// Congestion: above this logic utilisation Quartus starts replicating
    /// RAM for routing/timing; modelled as a superlinear inflation.
    pub const CONGESTION_KNEE: f64 = 0.40;
    /// Congestion strength.
    pub const CONGESTION_GAIN: f64 = 2.5;
}

/// A complete post-"P&R" estimate for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceEstimate {
    /// Configuration label (`16P+4S`, …).
    pub label: String,
    /// M20K RAM blocks.
    pub ram_blocks: u64,
    /// Logic, in ALMs.
    pub logic_alms: u64,
    /// DSP blocks.
    pub dsps: u64,
    /// Achieved clock frequency, MHz.
    pub freq_mhz: f64,
    /// RAM utilisation fraction.
    pub ram_util: f64,
    /// Logic utilisation fraction.
    pub logic_util: f64,
    /// DSP utilisation fraction.
    pub dsp_util: f64,
}

impl ResourceEstimate {
    /// Formats one Table III row: `label  freq  RAM(..%)  Logic(..%)  DSP(..%)`.
    pub fn table_row(&self) -> String {
        format!(
            "{:<9} {:>4.0} MHz  {:>5} ({:>2.0}%)  {:>7} ({:>2.0}%)  {:>4} ({:>2.0}%)",
            self.label,
            self.freq_mhz,
            self.ram_blocks,
            self.ram_util * 100.0,
            self.logic_alms,
            self.logic_util * 100.0,
            self.dsps,
            self.dsp_util * 100.0,
        )
    }
}

/// Analytical resource/frequency estimator for Ditto-generated designs.
///
/// # Example
///
/// ```
/// use fpga_model::{AppCostProfile, PipelineShape, ResourceModel};
///
/// let model = ResourceModel::arria10();
/// let base = model.estimate(PipelineShape::new(8, 16, 0), &AppCostProfile::hll());
/// let full = model.estimate(PipelineShape::new(8, 16, 15), &AppCostProfile::hll());
/// assert!(full.ram_blocks > base.ram_blocks);    // SecPEs cost BRAM
/// assert!(full.freq_mhz < base.freq_mhz);        // and frequency
/// ```
#[derive(Debug, Clone)]
pub struct ResourceModel {
    device: Device,
    freq: FrequencyModel,
}

impl ResourceModel {
    /// Model for the paper's platform.
    pub fn arria10() -> Self {
        ResourceModel {
            device: Device::arria10_gx1150(),
            freq: FrequencyModel::calibrated(),
        }
    }

    /// Model for a custom device / frequency fit.
    pub fn new(device: Device, freq: FrequencyModel) -> Self {
        ResourceModel { device, freq }
    }

    /// The device being targeted.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Estimates resources and frequency for `shape` running `profile`.
    pub fn estimate(&self, shape: PipelineShape, profile: &AppCostProfile) -> ResourceEstimate {
        let n = u64::from(shape.n_pre);
        let pes = u64::from(shape.destination_pes());
        let x = u64::from(shape.x_sec);
        let has_skew_handling = shape.x_sec > 0;

        let mut logic = coef::SHELL_LOGIC
            + n * profile.pre_logic
            + n * coef::MAPPER_LOGIC
            + pes * (profile.pe_logic + coef::PE_FIXED_LOGIC + coef::PE_WIRE_LOGIC_PER_LANE * n)
            + x * coef::SEC_EXTRA_LOGIC;
        if has_skew_handling {
            logic += coef::PROFILER_LOGIC + coef::MERGER_LOGIC;
        }

        let mut dsp = coef::SHELL_DSP + n * profile.pre_dsp + pes * profile.pe_dsp;
        if has_skew_handling {
            dsp += coef::PROFILER_DSP;
        }

        let mut ram_base = coef::SHELL_RAM
            + n * (coef::PRE_RAM + coef::MAPPER_RAM)
            + pes * (profile.buffer_m20k + n + coef::PE_FIXED_RAM)
            + pes * coef::QUEUED_WORD_RAM
            + x * coef::SEC_EXTRA_RAM;
        if has_skew_handling {
            ram_base += coef::PROFILER_RAM + coef::MERGER_RAM + coef::RESCHED_RAM;
        }

        let logic_util = self.device.utilization_logic(logic);
        let over = (logic_util - coef::CONGESTION_KNEE).max(0.0);
        let congestion = 1.0 + coef::CONGESTION_GAIN * over.powf(1.5);
        let ram = (ram_base as f64 * congestion).round() as u64;

        let freq_mhz = self.freq.frequency_mhz(logic_util, shape.config_hash());

        ResourceEstimate {
            label: shape.label(),
            ram_blocks: ram,
            logic_alms: logic,
            dsps: dsp,
            freq_mhz,
            ram_util: self.device.utilization_ram(ram),
            logic_util,
            dsp_util: self.device.utilization_dsp(dsp),
        }
    }

    /// The BRAM usage of the destination-PE buffers alone (no shell, no
    /// routing) — the quantity Table II's "B.U. saving per PE" compares.
    pub fn buffer_ram_blocks(&self, shape: PipelineShape, profile: &AppCostProfile) -> u64 {
        u64::from(shape.destination_pes()) * profile.buffer_m20k
    }
}

impl Default for ResourceModel {
    fn default() -> Self {
        Self::arria10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Table3Row, TABLE3};

    #[test]
    fn tracks_table3_within_model_error() {
        let model = ResourceModel::arria10();
        let hll = AppCostProfile::hll();
        for row in &TABLE3 {
            let est = model.estimate(row.shape, &hll);
            let label = &est.label;
            for (i, delta) in row.deltas(&est).into_iter().enumerate() {
                assert!(
                    delta.abs() < Table3Row::TOLERANCE[i],
                    "{label}: {} is {:+.0}% off the paper",
                    Table3Row::COLUMNS[i],
                    delta * 100.0
                );
            }
        }
    }

    #[test]
    fn ram_grows_monotonically_with_secpes() {
        let model = ResourceModel::arria10();
        let hll = AppCostProfile::hll();
        let mut prev = 0;
        for x in [0u32, 1, 2, 4, 8, 15] {
            let est = model.estimate(PipelineShape::new(8, 16, x), &hll);
            assert!(est.ram_blocks > prev, "x={x}: {} !> {prev}", est.ram_blocks);
            prev = est.ram_blocks;
        }
    }

    #[test]
    fn base_config_is_fastest() {
        let model = ResourceModel::arria10();
        let hll = AppCostProfile::hll();
        let base = model.estimate(PipelineShape::new(8, 16, 0), &hll);
        for x in [1u32, 2, 4, 8, 15] {
            let est = model.estimate(PipelineShape::new(8, 16, x), &hll);
            assert!(est.freq_mhz <= base.freq_mhz + 1.0, "x={x}");
        }
    }

    #[test]
    fn profiler_overhead_is_about_6_percent_logic_8_percent_dsp() {
        // §VI-C1: "the runtime profiler module only costs 6% logic and 8% DSPs".
        let model = ResourceModel::arria10();
        let hll = AppCostProfile::hll();
        let base = model.estimate(PipelineShape::new(8, 16, 0), &hll);
        let prof_logic_share = 10_000.0 / base.logic_alms as f64;
        let prof_dsp_share = 30.0 / base.dsps as f64;
        assert!((prof_logic_share - 0.06).abs() < 0.01, "{prof_logic_share}");
        assert!((prof_dsp_share - 0.08).abs() < 0.015, "{prof_dsp_share}");
    }

    #[test]
    fn every_config_fits_the_device() {
        let model = ResourceModel::arria10();
        for profile in AppCostProfile::all() {
            for x in 0..16u32 {
                let est = model.estimate(PipelineShape::new(8, 16, x), &profile);
                assert!(
                    model
                        .device()
                        .fits(est.logic_alms, est.ram_blocks, est.dsps),
                    "{} x={x} does not fit",
                    profile.name
                );
            }
        }
    }

    #[test]
    fn buffer_ram_is_proportional_to_pes() {
        let model = ResourceModel::arria10();
        let hll = AppCostProfile::hll();
        let b16 = model.buffer_ram_blocks(PipelineShape::new(8, 16, 0), &hll);
        let b31 = model.buffer_ram_blocks(PipelineShape::new(8, 16, 15), &hll);
        assert_eq!(b31, b16 * 31 / 16);
    }

    #[test]
    #[should_panic(expected = "bounded by M-1")]
    fn x_bound_enforced() {
        let _ = PipelineShape::new(8, 16, 16);
    }

    #[test]
    fn table_row_formatting() {
        let model = ResourceModel::arria10();
        let est = model.estimate(PipelineShape::new(8, 16, 0), &AppCostProfile::hll());
        let row = est.table_row();
        assert!(row.contains("16P"));
        assert!(row.contains("MHz"));
    }
}
