//! Plain data routing without skew handling (Chen et al. \[8\]).
//!
//! The Fig. 8 baseline and the `16P` bar of Fig. 7: the Ditto pipeline with
//! X = 0 SecPEs. Provided as helpers so the experiment harness names the
//! baseline explicitly rather than passing a magic configuration around.

use datagen::Tuple;
use ditto_core::{ArchConfig, DittoApp, RunOutcome, SkewObliviousPipeline};

/// The baseline configuration: same N and M as `config`, no SecPEs, no
/// profiler.
pub fn baseline_config(config: &ArchConfig) -> ArchConfig {
    let mut cfg = ArchConfig::new(config.n_pre, config.m_pri, 0);
    cfg.pe_entries = config.pe_entries;
    cfg.pe_queue_depth = config.pe_queue_depth;
    cfg.word_queue_depth = config.word_queue_depth;
    cfg.lane_queue_depth = config.lane_queue_depth;
    cfg
}

/// Runs the no-skew-handling data-routing design (Chen et al. \[8\]) over a
/// dataset: the architecture the paper's §IV extends.
///
/// # Example
///
/// ```
/// use ditto_baselines::routing_noskew;
/// use ditto_core::{ArchConfig, apps::CountPerKey};
/// use datagen::UniformGenerator;
///
/// let data = UniformGenerator::new(1 << 16, 2).take_vec(4_000);
/// let out = routing_noskew::run(CountPerKey::new(8), data, &ArchConfig::new(4, 8, 5));
/// assert_eq!(out.report.label, "8P"); // X forced to zero
/// ```
pub fn run<A: DittoApp + 'static>(
    app: A,
    data: Vec<Tuple>,
    config: &ArchConfig,
) -> RunOutcome<A::Output> {
    SkewObliviousPipeline::run_dataset(app, data, &baseline_config(config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_core::apps::CountPerKey;

    #[test]
    fn strips_secpes_only() {
        let cfg = ArchConfig::new(8, 16, 9)
            .with_pe_entries(77)
            .with_pe_queue_depth(33);
        let base = baseline_config(&cfg);
        assert_eq!(base.x_sec, 0);
        assert_eq!(base.n_pre, 8);
        assert_eq!(base.m_pri, 16);
        assert_eq!(base.pe_entries, 77);
        assert_eq!(base.pe_queue_depth, 33);
    }

    #[test]
    fn runs_with_same_semantics() {
        let data = datagen::ZipfGenerator::new(1.0, 1 << 12, 5).take_vec(3_000);
        let out = run(CountPerKey::new(8), data, &ArchConfig::new(4, 8, 7));
        assert_eq!(out.output.iter().sum::<u64>(), 3_000);
    }
}
