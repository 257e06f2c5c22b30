//! Order statistics: the better-quartile estimator over repetitions and
//! nearest-rank percentiles over batches.

use crate::spec::Better;

/// Sorts best → worst for the metric's direction.
fn best_first(values: &[f64], better: Better) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if better == Better::Higher {
        v.reverse();
    }
    v
}

/// The better-quartile order statistic: rank ⌈R/4⌉ counted from the best
/// of `R` values (the 2nd best of 8).
///
/// Host noise on a shared box is one-sided — neighbours only ever slow a
/// repetition down — and arrives in bursts of seconds, so the good tail of
/// the repetitions is far steadier between identical runs than their
/// median, while the rank above the minimum keeps one lucky repetition
/// from setting the number.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn better_quartile(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "no repetitions to summarise");
    best_first(values, better)[values.len().div_ceil(4) - 1]
}

/// Nearest-rank percentile (`q` in (0, 1]): the smallest sample with at
/// least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `q` outside (0, 1].
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// How far `candidate` is worse than `base`, as a share of `base`
/// (negative when better).
pub fn worse_by(base: f64, candidate: f64, better: Better) -> f64 {
    if base == 0.0 {
        return if candidate == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (candidate - base) / base.abs(),
        Better::Higher => (base - candidate) / base.abs(),
    }
}
