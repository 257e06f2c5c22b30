//! Property test pinning bucketed nearest-rank percentiles against the
//! exact-sample reference on random populations (the ISSUE 7 satellite:
//! migrating serve latencies to `LogHistogram` must keep nearest-rank
//! semantics within the documented quantization bound).

use ditto_obs::hist::{SUB_BUCKETS, SUB_BUCKET_BITS};
use ditto_obs::LogHistogram;

/// xorshift64* — deterministic, dependency-free randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

/// The exact-sample nearest-rank reference: the ⌈q·n⌉-th smallest value.
fn exact_nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
}

fn check_population(name: &str, values: &[u64]) {
    let mut h = LogHistogram::new();
    let mut sorted = values.to_vec();
    for &v in values {
        h.record(v);
    }
    sorted.sort_unstable();
    for q in [0.01, 0.10, 0.50, 0.90, 0.99, 0.999, 1.0] {
        let exact = exact_nearest_rank(&sorted, q);
        let bucketed = h.quantile(q);
        assert!(
            bucketed >= exact,
            "{name} q={q}: bucketed {bucketed} below exact {exact} \
             (bucket upper edges must upper-bound the exact answer)"
        );
        let bound = exact.saturating_add(exact >> SUB_BUCKET_BITS);
        assert!(
            bucketed <= bound,
            "{name} q={q}: bucketed {bucketed} exceeds exact {exact} + 1/{SUB_BUCKETS} bound {bound}"
        );
    }
    assert_eq!(h.count(), values.len() as u64, "{name}: count");
    assert_eq!(h.max(), *sorted.last().unwrap(), "{name}: max is exact");
    assert_eq!(h.min(), sorted[0], "{name}: min is exact");
    let exact_sum: u128 = values.iter().map(|&v| u128::from(v)).sum();
    assert_eq!(h.sum(), exact_sum, "{name}: sum is exact");
}

#[test]
fn random_uniform_populations_stay_within_quantization_bound() {
    let mut rng = Rng(0x9E3779B97F4A7C15);
    for round in 0..50 {
        let n = 1 + (rng.next() % 5_000) as usize;
        // Mix magnitudes: small exact-bucket values through full 48-bit range.
        let mask = (1u64 << (4 + rng.next() % 44)) - 1;
        let values: Vec<u64> = (0..n).map(|_| rng.next() & mask).collect();
        check_population(&format!("uniform round {round} mask {mask:#x}"), &values);
    }
}

#[test]
fn skewed_latency_like_populations_stay_within_bound() {
    // Latency-shaped: a dense body with a long multiplicative tail, the
    // population the serve layer actually records.
    let mut rng = Rng(42);
    for round in 0..50 {
        let n = 1 + (rng.next() % 3_000) as usize;
        let values: Vec<u64> = (0..n)
            .map(|_| {
                let body = 100 + rng.next() % 900;
                let tail_bits = rng.next() % 16;
                body << (if rng.next().is_multiple_of(10) {
                    tail_bits
                } else {
                    0
                })
            })
            .collect();
        check_population(&format!("skewed round {round}"), &values);
    }
}

#[test]
fn degenerate_populations() {
    check_population("single zero", &[0]);
    check_population("single max", &[u64::MAX]);
    check_population("all equal", &vec![777u64; 1000]);
    check_population("two extremes", &[0, u64::MAX]);
}

#[test]
fn merged_shards_match_single_histogram() {
    // Recording a population into one histogram and into four per-shard
    // histograms merged afterwards must agree exactly.
    let mut rng = Rng(7);
    let values: Vec<u64> = (0..4096).map(|_| rng.next() % 1_000_000).collect();
    let mut whole = LogHistogram::new();
    let mut shards = vec![LogHistogram::new(); 4];
    for (i, &v) in values.iter().enumerate() {
        whole.record(v);
        shards[i % 4].record(v);
    }
    let mut merged = LogHistogram::new();
    for s in &shards {
        merged.merge(s);
    }
    assert_eq!(merged, whole);
}
