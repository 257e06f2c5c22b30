//! Heavy-hitter detection (HHD) — count-min sketch (Table I).

use std::collections::HashMap;

use ditto_core::{DittoApp, Routed, Tuple};
use sketches::{murmur3_u64, CountMinSketch};

/// Heavy-hitter detection with a count-min sketch.
///
/// The key space is range-partitioned by hash across PriPEs; each PE keeps
/// a private (narrow) count-min sketch plus a candidate table for keys that
/// crossed the report threshold. Since a SecPE helping a PriPE sees the
/// same key range and CMS counters are additive, the merge is element-wise
/// sum followed by re-scoring of candidates.
///
/// # Example
///
/// ```
/// use ditto_apps::HhdApp;
/// use ditto_core::{ArchConfig, SkewObliviousPipeline};
/// use datagen::ZipfGenerator;
///
/// let app = HhdApp::new(4, 256, 200, 8);
/// let cfg = ArchConfig::new(4, 8, 7).with_pe_entries(app.pe_entries());
/// let data = ZipfGenerator::new(2.0, 1 << 16, 3).take_vec(20_000);
/// let hot = ZipfGenerator::new(2.0, 1 << 16, 3).key_of_rank(1);
/// let out = SkewObliviousPipeline::run_dataset(app, data, &cfg);
/// assert!(out.output.iter().any(|&(k, _)| k == hot), "rank-1 key must be reported");
/// ```
#[derive(Debug, Clone)]
pub struct HhdApp {
    depth: usize,
    width_per_pe: usize,
    threshold: u64,
    /// Per-PE candidate-tracking threshold: a key's count can be split
    /// across at most M PEs (its PriPE plus SecPE helpers), so any PE
    /// holding `threshold / M` may be a shard of a true heavy hitter.
    candidate_threshold: u64,
    m_pri: u32,
}

impl HhdApp {
    /// Creates a detector: `depth × width_per_pe` CMS per PE, reporting
    /// keys whose estimated count reaches `threshold`, on `m_pri` PriPEs.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(depth: usize, width_per_pe: usize, threshold: u64, m_pri: u32) -> Self {
        assert!(
            depth > 0 && width_per_pe > 0,
            "CMS geometry must be nonzero"
        );
        assert!(threshold > 0, "threshold must be nonzero");
        assert!(m_pri > 0, "need at least one PriPE");
        let candidate_threshold = threshold.div_ceil(u64::from(m_pri)).max(1);
        HhdApp {
            depth,
            width_per_pe,
            threshold,
            candidate_threshold,
            m_pri,
        }
    }

    /// CMS cells per PE (the BRAM cost driver).
    pub fn pe_entries(&self) -> usize {
        self.depth * self.width_per_pe
    }

    /// The report threshold.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Host-side reference: exact counts, keys at/above threshold.
    pub fn reference(&self, data: &[Tuple]) -> Vec<(u64, u64)> {
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for t in data {
            *counts.entry(t.key).or_insert(0) += 1;
        }
        let mut hitters: Vec<(u64, u64)> = counts
            .into_iter()
            .filter(|&(_, c)| c >= self.threshold)
            .collect();
        hitters.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hitters
    }
}

/// One PE's heavy-hitter state: a CMS slice plus threshold candidates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HhdState {
    sketch: CountMinSketch,
    candidates: HashMap<u64, u64>,
}

impl DittoApp for HhdApp {
    /// The tuple key (counting is by key).
    type Value = u64;
    /// CMS slice + candidates.
    type State = HhdState;
    /// `(key, estimated count)` sorted by estimate descending.
    type Output = Vec<(u64, u64)>;

    fn name(&self) -> &str {
        "HHD"
    }

    fn preprocess(&self, tuple: Tuple, m_pri: u32) -> Routed<u64> {
        debug_assert_eq!(m_pri, self.m_pri, "pipeline M differs from app M");
        let dst = (murmur3_u64(tuple.key, 0x77) % u64::from(m_pri)) as u32;
        Routed::new(dst, tuple.key)
    }

    fn new_state(&self, _pe_entries: usize) -> HhdState {
        HhdState {
            sketch: CountMinSketch::new(self.depth, self.width_per_pe),
            candidates: HashMap::new(),
        }
    }

    fn process(&self, state: &mut HhdState, key: &u64) {
        state.sketch.update(*key, 1);
        let est = state.sketch.query(*key);
        if est >= self.candidate_threshold {
            state.candidates.insert(*key, est);
        }
    }

    fn merge(&self, pri: &mut HhdState, sec: &HhdState) {
        pri.sketch.merge(&sec.sketch);
        // Re-score all candidates against the merged sketch: a key may only
        // cross the threshold once both partial counts are combined.
        let keys: Vec<u64> = pri
            .candidates
            .keys()
            .chain(sec.candidates.keys())
            .copied()
            .collect();
        for key in keys {
            let est = pri.sketch.query(key);
            if est >= self.candidate_threshold {
                pri.candidates.insert(key, est);
            }
        }
    }

    fn finalize(&self, pri_states: Vec<HhdState>) -> Vec<(u64, u64)> {
        let mut hitters: Vec<(u64, u64)> = pri_states
            .into_iter()
            .flat_map(|s| {
                let sketch = s.sketch;
                s.candidates
                    .into_keys()
                    .map(move |k| (k, sketch.query(k)))
                    .collect::<Vec<_>>()
            })
            .filter(|&(_, est)| est >= self.threshold)
            .collect();
        hitters.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hitters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{UniformGenerator, ZipfGenerator};
    use ditto_core::{ArchConfig, SkewObliviousPipeline};

    #[test]
    fn finds_all_true_heavy_hitters() {
        let app = HhdApp::new(4, 512, 300, 8);
        let data = ZipfGenerator::new(1.5, 1 << 14, 5).take_vec(30_000);
        let truth = app.reference(&data);
        assert!(!truth.is_empty(), "test needs at least one heavy hitter");
        let cfg = ArchConfig::new(4, 8, 0).with_pe_entries(app.pe_entries());
        let out = SkewObliviousPipeline::run_dataset(app, data, &cfg);
        for &(key, count) in &truth {
            let found = out.output.iter().find(|&&(k, _)| k == key);
            let (_, est) = found.unwrap_or_else(|| panic!("missing hitter {key}"));
            assert!(*est >= count, "CMS never under-counts: {est} < {count}");
        }
    }

    #[test]
    fn no_heavy_hitters_in_uniform_data() {
        let app = HhdApp::new(4, 1024, 500, 8);
        let data = UniformGenerator::new(1 << 20, 9).take_vec(20_000);
        assert!(app.reference(&data).is_empty());
        let cfg = ArchConfig::new(4, 8, 0).with_pe_entries(app.pe_entries());
        let out = SkewObliviousPipeline::run_dataset(app, data, &cfg);
        assert!(out.output.is_empty(), "got {:?}", out.output);
    }

    #[test]
    fn secpe_merge_combines_partial_counts() {
        // With SecPEs, a hot key's count is split between PriPE and SecPE
        // sketches; only the merged sketch crosses the threshold.
        let app = HhdApp::new(4, 512, 6_000, 8);
        let data = ZipfGenerator::new(3.0, 1 << 14, 21).take_vec(10_000);
        let truth = app.reference(&data);
        assert_eq!(
            truth.len(),
            1,
            "α=3 should leave exactly the rank-1 key above 60%"
        );
        let cfg = ArchConfig::new(4, 8, 7).with_pe_entries(app.pe_entries());
        let out = SkewObliviousPipeline::run_dataset(app, data, &cfg);
        assert!(
            out.output.iter().any(|&(k, _)| k == truth[0].0),
            "split counts must re-combine in the merger"
        );
    }

    #[test]
    fn ordering_is_by_estimate_descending() {
        let app = HhdApp::new(4, 512, 100, 8);
        let data = ZipfGenerator::new(1.2, 1 << 12, 2).take_vec(20_000);
        let cfg = ArchConfig::new(4, 8, 0).with_pe_entries(app.pe_entries());
        let out = SkewObliviousPipeline::run_dataset(app, data, &cfg);
        for w in out.output.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
