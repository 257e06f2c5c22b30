//! Stream skew prediction for online implementation selection.
//!
//! §V-D closes with future work: "There are a number of works on predicting
//! the future input of stream processing [16], which can be explored for
//! choosing an implementation that saves more BRAM usage for online
//! processing" — instead of always provisioning the maximal M−1 SecPEs.
//! This module implements that extension: an exponentially-weighted
//! predictor over the per-window Equation 2 recommendation, with a safety
//! margin, so a stream that has been mildly skewed for a while can be
//! served by a smaller (cheaper) implementation.

use ditto_core::SkewAnalyzer;

/// EWMA-based predictor of the SecPE requirement of a stream.
///
/// Feed it one workload histogram per observation window (e.g. per
/// profiling window); it recommends the number of SecPEs to provision for
/// the *next* window as `ceil(ewma + margin·σ)`, clamped to `[0, M−1]`.
///
/// # Example
///
/// ```
/// use ditto_serve::StreamSkewPredictor;
///
/// let mut p = StreamSkewPredictor::new(16, 0.3, 1.0);
/// // A stream that keeps needing ~4 SecPEs...
/// for _ in 0..20 {
///     let mut w = vec![100u64; 16];
///     w[3] = 900; // one PE at ~5x fair share
///     p.observe_workloads(&w);
/// }
/// let x = p.predict();
/// assert!(x >= 4 && x < 15, "prediction {x} should track the stream, not max out");
/// ```
#[derive(Debug, Clone)]
pub struct StreamSkewPredictor {
    m_pri: u32,
    /// EWMA smoothing factor in (0, 1]; higher = more reactive.
    alpha: f64,
    /// Safety margin in standard deviations.
    margin_sigmas: f64,
    analyzer: SkewAnalyzer,
    ewma: Option<f64>,
    /// EWMA of the squared deviation (for the variance estimate).
    ewvar: f64,
    observations: u64,
}

impl StreamSkewPredictor {
    /// Creates a predictor for an `m_pri`-PriPE pipeline.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1` and `margin_sigmas >= 0`.
    pub fn new(m_pri: u32, alpha: f64, margin_sigmas: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(margin_sigmas >= 0.0, "margin must be non-negative");
        StreamSkewPredictor {
            m_pri,
            alpha,
            margin_sigmas,
            analyzer: SkewAnalyzer::new(1.0, 0.01, 0),
            ewma: None,
            ewvar: 0.0,
            observations: 0,
        }
    }

    /// Observes one window's per-PriPE workload histogram.
    pub fn observe_workloads(&mut self, workloads: &[u64]) {
        let x = f64::from(
            self.analyzer
                .recommend_from_workloads(workloads, self.m_pri),
        );
        self.observe_requirement(x);
    }

    /// Observes a directly-measured SecPE requirement.
    pub fn observe_requirement(&mut self, x: f64) {
        self.observations += 1;
        match self.ewma {
            None => self.ewma = Some(x),
            Some(prev) => {
                let next = prev + self.alpha * (x - prev);
                self.ewvar =
                    (1.0 - self.alpha) * (self.ewvar + self.alpha * (x - prev) * (x - prev));
                self.ewma = Some(next);
            }
        }
    }

    /// Number of observations so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Predicts the SecPE count to provision for the next window.
    ///
    /// With no observations this falls back to the paper's online default,
    /// the maximal M−1 ("the skew analyzer currently chooses the
    /// implementation with the maximal number of SecPEs").
    pub fn predict(&self) -> u32 {
        match self.ewma {
            None => self.m_pri.saturating_sub(1),
            Some(mean) => {
                let x = mean + self.margin_sigmas * self.ewvar.sqrt();
                (x.ceil().max(0.0) as u32).min(self.m_pri.saturating_sub(1))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_start_is_conservative() {
        let p = StreamSkewPredictor::new(16, 0.3, 1.0);
        assert_eq!(p.predict(), 15, "no data: provision the paper's maximal X");
    }

    #[test]
    fn steady_uniform_stream_releases_secpes() {
        let mut p = StreamSkewPredictor::new(16, 0.3, 1.0);
        for _ in 0..50 {
            p.observe_workloads(&[500u64; 16]);
        }
        assert_eq!(p.predict(), 0);
    }

    #[test]
    fn hot_stream_keeps_maximal_provisioning() {
        let mut p = StreamSkewPredictor::new(16, 0.3, 1.0);
        let mut w = vec![0u64; 16];
        w[9] = 100_000;
        for _ in 0..20 {
            p.observe_workloads(&w);
        }
        assert_eq!(p.predict(), 15);
    }

    #[test]
    fn margin_covers_variability() {
        // Alternating mild/heavy windows: prediction must cover the heavy
        // ones, not just the mean.
        let mut tight = StreamSkewPredictor::new(16, 0.5, 0.0);
        let mut safe = StreamSkewPredictor::new(16, 0.5, 2.0);
        for i in 0..40 {
            let x = if i % 2 == 0 { 2.0 } else { 10.0 };
            tight.observe_requirement(x);
            safe.observe_requirement(x);
        }
        assert!(safe.predict() > tight.predict());
        assert!(
            safe.predict() >= 10,
            "safe predictor must cover the heavy windows"
        );
    }

    #[test]
    fn reacts_to_regime_change() {
        let mut p = StreamSkewPredictor::new(16, 0.4, 1.0);
        for _ in 0..30 {
            p.observe_requirement(1.0);
        }
        let before = p.predict();
        for _ in 0..30 {
            p.observe_requirement(12.0);
        }
        let after = p.predict();
        assert!(before <= 3, "{before}");
        assert!(after >= 11, "{after}");
    }

    #[test]
    fn observation_count_tracks() {
        let mut p = StreamSkewPredictor::new(8, 0.3, 1.0);
        p.observe_requirement(3.0);
        p.observe_requirement(4.0);
        assert_eq!(p.observations(), 2);
    }
}
