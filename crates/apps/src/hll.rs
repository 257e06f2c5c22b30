//! HyperLogLog (HLL) — cardinality estimation with murmur3 (Table I).

use ditto_core::{DittoApp, Routed, Tuple};
use sketches::{murmur3_u64, HyperLogLog};

/// HyperLogLog cardinality estimation.
///
/// The PrePE hashes the key with murmur3 and splits the hash into a
/// register index and a rank ρ; registers are interleaved across PEs
/// (register `r` on PE `r mod M`), each PE buffering `2^precision / M`
/// one-byte registers — the per-PE BRAM saving that lets Ditto's HLL use a
/// larger register file (hence "more accurate estimation", §VI-B).
///
/// Merging a SecPE's partial register file into its PriPE's is an
/// element-wise max — HLL's native union.
///
/// # Example
///
/// ```
/// use ditto_apps::HllApp;
/// use ditto_core::{ArchConfig, SkewObliviousPipeline};
/// use datagen::UniformGenerator;
///
/// let app = HllApp::new(10, 8); // 1024 registers, 8 PriPEs
/// let cfg = ArchConfig::new(4, 8, 0).with_pe_entries(app.pe_entries());
/// let data = UniformGenerator::new(1 << 30, 7).take_vec(20_000);
/// let out = SkewObliviousPipeline::run_dataset(app, data, &cfg);
/// let est = out.output.estimate();
/// assert!((est - 20_000.0).abs() / 20_000.0 < 0.15);
/// ```
#[derive(Debug, Clone)]
pub struct HllApp {
    precision: u32,
    m_pri: u32,
    seed: u32,
}

impl HllApp {
    /// Creates an HLL app with `2^precision` registers on `m_pri` PriPEs.
    ///
    /// # Panics
    ///
    /// Panics if the register count is not a multiple of `m_pri`, or if
    /// `precision` is outside `4..=18`.
    pub fn new(precision: u32, m_pri: u32) -> Self {
        assert!((4..=18).contains(&precision), "precision must be in 4..=18");
        assert!(
            (1u64 << precision).is_multiple_of(u64::from(m_pri)),
            "register count must be a multiple of M"
        );
        HllApp {
            precision,
            m_pri,
            seed: 0x4151,
        }
    }

    /// Registers each PE buffers (`2^precision / M`).
    pub fn pe_entries(&self) -> usize {
        ((1u64 << self.precision) / u64::from(self.m_pri)) as usize
    }

    /// The register precision.
    pub fn precision(&self) -> u32 {
        self.precision
    }

    /// Host-side reference estimator over the same hash.
    pub fn reference(&self, data: &[Tuple]) -> HyperLogLog {
        let mut hll = HyperLogLog::new(self.precision);
        for t in data {
            hll.insert_hash(murmur3_u64(t.key, self.seed));
        }
        hll
    }
}

impl DittoApp for HllApp {
    /// `(register index, rank ρ)`.
    type Value = (u32, u8);
    /// This PE's interleaved register slice.
    type State = Vec<u8>;
    /// The assembled estimator.
    type Output = HyperLogLog;

    fn name(&self) -> &str {
        "HLL"
    }

    fn preprocess(&self, tuple: Tuple, m_pri: u32) -> Routed<(u32, u8)> {
        debug_assert_eq!(m_pri, self.m_pri, "pipeline M differs from app M");
        let hash = murmur3_u64(tuple.key, self.seed);
        // Same decomposition as the reference estimator.
        let idx = (hash >> (64 - self.precision)) as u32;
        let rest = hash << self.precision;
        let width = 64 - self.precision;
        let rho = (rest.leading_zeros().min(width) + 1) as u8;
        Routed::new(idx % m_pri, (idx, rho))
    }

    fn new_state(&self, pe_entries: usize) -> Vec<u8> {
        vec![0; pe_entries]
    }

    fn process(&self, state: &mut Vec<u8>, value: &(u32, u8)) {
        let (idx, rho) = *value;
        let local = (idx / self.m_pri) as usize;
        if rho > state[local] {
            state[local] = rho;
        }
    }

    fn merge(&self, pri: &mut Vec<u8>, sec: &Vec<u8>) {
        for (p, s) in pri.iter_mut().zip(sec) {
            if *s > *p {
                *p = *s;
            }
        }
    }

    fn finalize(&self, pri_states: Vec<Vec<u8>>) -> HyperLogLog {
        let m = pri_states.len() as u32;
        let mut hll = HyperLogLog::new(self.precision);
        for (pe, state) in pri_states.into_iter().enumerate() {
            for (local, reg) in state.into_iter().enumerate() {
                let global = local as u32 * m + pe as u32;
                hll.apply(global as usize, reg);
            }
        }
        hll
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{UniformGenerator, ZipfGenerator};
    use ditto_core::{ArchConfig, SkewObliviousPipeline};

    #[test]
    fn pipeline_registers_match_reference_exactly() {
        let app = HllApp::new(8, 8);
        let data = UniformGenerator::new(1 << 24, 11).take_vec(15_000);
        let expect = app.reference(&data);
        let cfg = ArchConfig::new(4, 8, 0).with_pe_entries(app.pe_entries());
        let out = SkewObliviousPipeline::run_dataset(app, data, &cfg);
        assert_eq!(out.output, expect, "register files must be identical");
    }

    #[test]
    fn skewed_stream_with_secpes_matches_reference() {
        let app = HllApp::new(8, 8);
        let data = ZipfGenerator::new(2.0, 1 << 16, 13).take_vec(12_000);
        let expect = app.reference(&data);
        let cfg = ArchConfig::new(4, 8, 7).with_pe_entries(app.pe_entries());
        let out = SkewObliviousPipeline::run_dataset(app, data, &cfg);
        assert_eq!(out.output, expect, "max-merge must preserve registers");
    }

    #[test]
    fn estimate_tracks_true_cardinality() {
        let app = HllApp::new(12, 16);
        let n = 50_000u64;
        let data: Vec<Tuple> = (0..n).map(Tuple::from_key).collect();
        let cfg = ArchConfig::new(8, 16, 0).with_pe_entries(app.pe_entries());
        let out = SkewObliviousPipeline::run_dataset(app, data, &cfg);
        let est = out.output.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 0.05, "estimate {est} vs {n}");
    }

    #[test]
    fn duplicates_under_extreme_skew_do_not_inflate() {
        // α = 3: mostly one key — cardinality stays small.
        let app = HllApp::new(10, 8);
        let data = ZipfGenerator::new(3.0, 64, 17).take_vec(20_000);
        let cfg = ArchConfig::new(4, 8, 7).with_pe_entries(app.pe_entries());
        let out = SkewObliviousPipeline::run_dataset(app, data, &cfg);
        let est = out.output.estimate();
        assert!(est < 100.0, "estimate {est} for <=64 distinct keys");
    }
}
