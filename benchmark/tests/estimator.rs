//! The better-quartile estimator and the nearest-rank percentiles.

use ditto_benchmark::spec::{Better, END_TO_END};
use ditto_benchmark::stats::{better_quartile, median, percentile, worse_by};

#[test]
fn better_quartile_is_rank_ceil_r_over_4_from_the_best() {
    // For a lower-is-better metric the best values are the smallest.
    let eight = [8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0];
    assert_eq!(better_quartile(&eight, Better::Lower), 2.0, "2nd best of 8");
    assert_eq!(
        better_quartile(&eight, Better::Higher),
        7.0,
        "2nd best of 8"
    );
    for (reps, rank) in [
        (1, 1),
        (3, 1),
        (4, 1),
        (5, 2),
        (7, 2),
        (8, 2),
        (9, 3),
        (16, 4),
    ] {
        let values: Vec<f64> = (1..=reps).map(f64::from).collect();
        assert_eq!(
            better_quartile(&values, Better::Lower),
            f64::from(rank),
            "R = {reps}"
        );
        assert_eq!(
            better_quartile(&values, Better::Higher),
            f64::from(reps + 1 - rank),
            "R = {reps}"
        );
    }
}

#[test]
fn every_gated_metric_is_summarised_towards_its_better_side() {
    let reps = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0];
    for metric in &END_TO_END {
        let expected = match metric.better {
            Better::Lower => 11.0,
            Better::Higher => 16.0,
        };
        assert_eq!(
            better_quartile(&reps, metric.better),
            expected,
            "{}",
            metric.name
        );
    }
}

#[test]
fn one_slow_burst_does_not_move_the_estimate() {
    let quiet = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9];
    let mut noisy = quiet;
    noisy[2] = 160.0;
    noisy[5] = 140.0;
    noisy[6] = 131.0;
    let (a, b) = (
        better_quartile(&quiet, Better::Lower),
        better_quartile(&noisy, Better::Lower),
    );
    assert!((a - b).abs() / a < 0.01, "{a} vs {b}");
}

#[test]
fn percentiles_are_nearest_rank() {
    let samples: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&samples, 0.5), 5.0);
    assert_eq!(percentile(&samples, 0.9), 9.0);
    assert_eq!(percentile(&samples, 0.91), 10.0);
    assert_eq!(percentile(&samples, 1.0), 10.0);
    assert_eq!(percentile(&samples, 0.01), 1.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(percentile(&[7.0], 0.9), 7.0);
    // Always a sample, never an interpolation.
    assert_eq!(percentile(&[1.0, 100.0], 0.5), 1.0);
}

#[test]
fn worse_by_follows_the_direction() {
    assert_eq!(worse_by(100.0, 110.0, Better::Lower), 0.1);
    assert_eq!(worse_by(100.0, 110.0, Better::Higher), -0.1);
    assert_eq!(worse_by(100.0, 90.0, Better::Higher), 0.1);
}
