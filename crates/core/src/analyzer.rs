//! The skew analyzer (§V-D): Equation 2 over a sampled workload.

use crate::DittoApp;
use datagen::{sample, Tuple};

/// Chooses the number of SecPEs from a random sample of the dataset.
///
/// For offline processing, the analyzer samples a fraction of the dataset
/// (the paper samples 0.1 %, i.e. 256 × 100 points of the 26 M-tuple set),
/// routes the sample through the application's `preprocess` to obtain the
/// per-PriPE workload distribution, and applies Equation 2:
///
/// ```text
/// X = Σ_{i=1..M} ⌈ | M·w_i / Σw − T | ⌉ − M,   clamped to [0, M−1]
/// ```
///
/// where `T` is the tolerance factor ("the performance compromise in terms
/// of percentages"). Uniform data yields X = 0; a single hot PriPE yields
/// X = M−1.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewAnalyzer {
    /// Sampling fraction of the dataset.
    pub sample_fraction: f64,
    /// Tolerance factor T of Equation 2.
    pub tolerance: f64,
    /// Sampling seed (determinism).
    pub seed: u64,
}

impl SkewAnalyzer {
    /// The paper's evaluation settings: 0.1 % sampling, T = 0.01.
    pub fn paper() -> Self {
        SkewAnalyzer {
            sample_fraction: sample::PAPER_SAMPLE_FRACTION,
            tolerance: 0.01,
            seed: 0x5eed,
        }
    }

    /// Creates an analyzer with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sample_fraction` is outside `(0, 1]` or `tolerance` is
    /// negative.
    pub fn new(sample_fraction: f64, tolerance: f64, seed: u64) -> Self {
        assert!(
            sample_fraction > 0.0 && sample_fraction <= 1.0,
            "sample fraction must be in (0, 1]"
        );
        assert!(tolerance >= 0.0, "tolerance must be non-negative");
        SkewAnalyzer {
            sample_fraction,
            tolerance,
            seed,
        }
    }

    /// Estimates the per-PriPE workload of `data` by sampling and routing
    /// each sampled tuple through `app.preprocess`.
    pub fn sampled_workloads<A: DittoApp>(&self, app: &A, data: &[Tuple], m_pri: u32) -> Vec<u64> {
        let sampled = sample::sample_fraction(data, self.sample_fraction, self.seed);
        let mut workloads = vec![0u64; m_pri as usize];
        for &t in &sampled {
            let routed = app.preprocess(t, m_pri);
            workloads[routed.dst as usize] += 1;
        }
        workloads
    }

    /// Equation 2 over an explicit workload histogram.
    ///
    /// Each PriPE with normalised share `sᵢ = M·wᵢ/Σw` needs
    /// `⌈sᵢ − T⌉` PEs (itself plus helpers) for its post-sharing load to
    /// stay within the tolerance of the uniform distribution; summing and
    /// subtracting the M PEs that already exist gives X.
    ///
    /// Two engineering guards around the paper's formula, both needed
    /// because the input is a small random sample:
    ///
    /// * every PE contributes at least one term (it cannot need fewer PEs
    ///   than itself), which is what the paper's `|·|` achieves for
    ///   underloaded PEs;
    /// * the effective tolerance is floored at 3σ of the multinomial share
    ///   estimate (`3·√(M/samples)`), so sampling noise on a uniform
    ///   dataset does not masquerade as skew.
    pub fn recommend_from_workloads(&self, workloads: &[u64], m_pri: u32) -> u32 {
        let total: u64 = workloads.iter().sum();
        if total == 0 || m_pri <= 1 {
            return 0;
        }
        let m = f64::from(m_pri);
        let noise_floor = 3.0 * (m / total as f64).sqrt();
        let tol = self.tolerance.max(noise_floor);
        let sum: f64 = workloads
            .iter()
            .map(|&w| {
                let share = m * w as f64 / total as f64;
                (share - tol).ceil().max(1.0)
            })
            .sum();
        let x = sum - m;
        (x.max(0.0) as u32).min(m_pri - 1)
    }

    /// The full §V-D flow: sample, route, apply Equation 2.
    ///
    /// # Example
    ///
    /// ```
    /// use ditto_core::SkewAnalyzer;
    /// use ditto_core::apps::CountPerKey;
    /// use datagen::UniformGenerator;
    ///
    /// let data = UniformGenerator::new(1 << 20, 2).take_vec(100_000);
    /// let x = SkewAnalyzer::paper().recommend(&CountPerKey::new(16), &data, 16);
    /// assert_eq!(x, 0); // uniform data needs no SecPEs
    /// ```
    pub fn recommend<A: DittoApp>(&self, app: &A, data: &[Tuple], m_pri: u32) -> u32 {
        let workloads = self.sampled_workloads(app, data, m_pri);
        self.recommend_from_workloads(&workloads, m_pri)
    }

    /// The online-processing choice (§V-D): without prior information about
    /// the stream, pick the maximal skew-handling capacity, M−1.
    pub fn recommend_online(&self, m_pri: u32) -> u32 {
        m_pri.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::CountPerKey;
    use datagen::{UniformGenerator, ZipfGenerator};

    #[test]
    fn equation2_uniform_is_zero() {
        let a = SkewAnalyzer::paper();
        assert_eq!(a.recommend_from_workloads(&[100; 16], 16), 0);
    }

    #[test]
    fn equation2_single_hot_pe_is_m_minus_one() {
        let a = SkewAnalyzer::paper();
        let mut w = vec![0u64; 16];
        w[7] = 10_000;
        assert_eq!(a.recommend_from_workloads(&w, 16), 15);
    }

    #[test]
    fn equation2_mild_skew_is_intermediate() {
        let a = SkewAnalyzer::paper();
        // One PE at 3x the fair share.
        let mut w = vec![100u64; 16];
        w[3] = 300;
        let x = a.recommend_from_workloads(&w, 16);
        assert!((1..15).contains(&x), "x = {x}");
    }

    #[test]
    fn equation2_empty_sample_is_zero() {
        let a = SkewAnalyzer::paper();
        assert_eq!(a.recommend_from_workloads(&[0; 16], 16), 0);
    }

    #[test]
    fn recommendation_monotone_in_alpha() {
        let app = CountPerKey::new(16);
        let a = SkewAnalyzer::new(0.05, 0.01, 7);
        let mut prev = 0;
        for &alpha in &[0.0, 0.5, 1.0, 1.5, 2.0, 3.0] {
            let data = ZipfGenerator::new(alpha, 1 << 18, 5).take_vec(50_000);
            let x = a.recommend(&app, &data, 16);
            assert!(
                x + 2 >= prev,
                "recommendation should not drop sharply: α={alpha} x={x} prev={prev}"
            );
            prev = prev.max(x);
        }
        assert!(prev >= 12, "extreme skew must need most SecPEs, got {prev}");
    }

    #[test]
    fn single_hot_key_needs_m_minus_one() {
        // The worst case of §V-C: every tuple goes to the same PriPE.
        let a = SkewAnalyzer::new(0.05, 0.01, 7);
        let data = vec![datagen::Tuple::from_key(42); 100_000];
        let app = CountPerKey::new(16);
        assert_eq!(a.recommend(&app, &data, 16), 15);
    }

    #[test]
    fn uniform_data_needs_nothing() {
        let app = CountPerKey::new(16);
        let data = UniformGenerator::new(1 << 20, 3).take_vec(100_000);
        assert_eq!(SkewAnalyzer::paper().recommend(&app, &data, 16), 0);
    }

    #[test]
    fn online_recommendation_is_maximal() {
        assert_eq!(SkewAnalyzer::paper().recommend_online(16), 15);
        assert_eq!(SkewAnalyzer::paper().recommend_online(1), 0);
    }

    #[test]
    fn sampling_is_deterministic() {
        let app = CountPerKey::new(8);
        let data = ZipfGenerator::new(1.5, 1 << 16, 4).take_vec(30_000);
        let a = SkewAnalyzer::paper();
        assert_eq!(a.recommend(&app, &data, 8), a.recommend(&app, &data, 8));
    }
}
