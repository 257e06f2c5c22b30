//! Histogram building (HISTO) — the paper's motivating application (§II).

use ditto_core::{DittoApp, Routed, Tuple};
use sketches::murmur3_u64;

/// Equi-width histogram building over `bins` bins.
///
/// The bin is `hash(key) mod bins`; bins are interleaved across PriPEs as
/// in the paper's Fig. 1b (PE 0 owns bins 0, M, 2M, …), so each PE buffers
/// only `bins / M` counters — the data-routing BRAM saving the paper
/// quantifies against replication-based designs.
///
/// # Example
///
/// ```
/// use ditto_apps::HistoApp;
/// use ditto_core::{DittoApp, Tuple};
///
/// let app = HistoApp::new(32, 16);
/// let routed = app.preprocess(Tuple::from_key(7), 16);
/// assert!(routed.dst < 16);
/// assert!(routed.value < 32); // the global bin index
/// ```
#[derive(Debug, Clone)]
pub struct HistoApp {
    bins: u64,
    m_pri: u32,
}

impl HistoApp {
    /// Creates a histogram app with `bins` bins for an `m_pri`-PriPE
    /// pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `bins` or `m_pri` is zero, or if `bins` is not a multiple
    /// of `m_pri` (interleaving must be exact so every PE's buffer has the
    /// same depth, as hardware requires).
    pub fn new(bins: u64, m_pri: u32) -> Self {
        assert!(bins > 0 && m_pri > 0, "bins and m_pri must be nonzero");
        assert!(
            bins.is_multiple_of(u64::from(m_pri)),
            "bins ({bins}) must be a multiple of M ({m_pri})"
        );
        HistoApp { bins, m_pri }
    }

    /// Number of bins.
    pub fn bins(&self) -> u64 {
        self.bins
    }

    /// Entries each destination PE must buffer (`bins / M`) — pass this to
    /// [`ArchConfig::with_pe_entries`](ditto_core::ArchConfig::with_pe_entries).
    pub fn pe_entries(&self) -> usize {
        (self.bins / u64::from(self.m_pri)) as usize
    }

    /// The bin a key falls into — shared with reference implementations.
    pub fn bin_of(&self, key: u64) -> u64 {
        murmur3_u64(key, 0x4151) % self.bins
    }

    /// Host-side reference histogram for validation.
    pub fn reference(&self, data: &[Tuple]) -> Vec<u64> {
        let mut hist = vec![0u64; self.bins as usize];
        for t in data {
            hist[self.bin_of(t.key) as usize] += 1;
        }
        hist
    }
}

impl DittoApp for HistoApp {
    /// The global bin index.
    type Value = u64;
    /// This PE's interleaved slice of bin counters.
    type State = Vec<u64>;
    /// The global histogram.
    type Output = Vec<u64>;

    fn name(&self) -> &str {
        "HISTO"
    }

    fn preprocess(&self, tuple: Tuple, m_pri: u32) -> Routed<u64> {
        debug_assert_eq!(m_pri, self.m_pri, "pipeline M differs from app M");
        let bin = self.bin_of(tuple.key);
        Routed::new((bin % u64::from(m_pri)) as u32, bin)
    }

    fn new_state(&self, pe_entries: usize) -> Vec<u64> {
        vec![0; pe_entries]
    }

    fn process(&self, state: &mut Vec<u64>, bin: &u64) {
        state[(*bin / u64::from(self.m_pri)) as usize] += 1;
    }

    fn merge(&self, pri: &mut Vec<u64>, sec: &Vec<u64>) {
        for (p, s) in pri.iter_mut().zip(sec) {
            *p += *s;
        }
    }

    fn finalize(&self, pri_states: Vec<Vec<u64>>) -> Vec<u64> {
        let m = pri_states.len() as u64;
        let mut out = vec![0u64; self.bins as usize];
        for (pe, state) in pri_states.into_iter().enumerate() {
            for (local, count) in state.into_iter().enumerate() {
                let global = local as u64 * m + pe as u64;
                if global < self.bins {
                    out[global as usize] = count;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{UniformGenerator, ZipfGenerator};
    use ditto_core::{ArchConfig, SkewObliviousPipeline};

    #[test]
    fn pipeline_matches_reference_uniform() {
        let app = HistoApp::new(64, 8);
        let data = UniformGenerator::new(1 << 16, 3).take_vec(10_000);
        let expect = app.reference(&data);
        let cfg = ArchConfig::new(4, 8, 0).with_pe_entries(app.pe_entries());
        let out = SkewObliviousPipeline::run_dataset(app, data, &cfg);
        assert_eq!(out.output, expect);
    }

    #[test]
    fn pipeline_matches_reference_with_secpes_under_skew() {
        let app = HistoApp::new(64, 8);
        let data = ZipfGenerator::new(2.5, 1 << 16, 7).take_vec(10_000);
        let expect = app.reference(&data);
        let cfg = ArchConfig::new(4, 8, 7).with_pe_entries(app.pe_entries());
        let out = SkewObliviousPipeline::run_dataset(app, data, &cfg);
        assert_eq!(out.output, expect, "SecPE merge must preserve exact counts");
        assert!(out.report.plans_generated >= 1);
    }

    #[test]
    fn bins_cover_all_counters() {
        let app = HistoApp::new(32, 8);
        let data = UniformGenerator::new(1 << 20, 9).take_vec(32_000);
        let hist = app.reference(&data);
        assert_eq!(hist.iter().sum::<u64>(), 32_000);
        // With murmur3 binning every bin should be populated.
        assert!(hist.iter().all(|&c| c > 0));
    }

    #[test]
    #[should_panic(expected = "multiple of M")]
    fn bins_must_divide() {
        let _ = HistoApp::new(30, 16);
    }
}
