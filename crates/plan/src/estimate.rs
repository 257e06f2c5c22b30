//! The estimates half of the two-pass planner: throughput prediction from
//! a counts trace.

use ditto_core::SchedulingPlan;
use ditto_obs::CountsTrace;
use fpga_model::PipelineShape;

/// The profiled workload distribution, reduced to per-PriPE shares at the
/// reference shape and refoldable onto any divisor PriPE count.
///
/// Applications route a tuple to PriPE `hash % M`, so the distribution
/// observed at the reference `M_ref` folds *exactly* onto any `M` dividing
/// it: `share'_k = Σ_{j ≡ k (mod M)} share_j`. That one identity is what
/// lets a single profiling slice price every candidate PriPE count instead
/// of re-simulating each.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadModel {
    shares: Vec<f64>,
    reference_m: u32,
}

impl WorkloadModel {
    /// Reduces a counts trace to per-PriPE shares. `reference_m` is the
    /// PriPE count of the profiled pipeline. A trace with no processed
    /// tuples yields the uniform distribution.
    pub fn from_trace(trace: &CountsTrace, reference_m: u32) -> Self {
        Self::from_counts(&trace.pri_workloads(reference_m as usize))
    }

    /// Reduces a per-PriPE tuple histogram to shares; the reference M is
    /// its length. All-zero counts yield the uniform distribution.
    pub(crate) fn from_counts(counts: &[u64]) -> Self {
        let reference_m = counts.len() as u32;
        let total: u64 = counts.iter().sum();
        let shares = if total == 0 {
            vec![1.0 / reference_m as f64; reference_m as usize]
        } else {
            counts.iter().map(|&x| x as f64 / total as f64).collect()
        };
        WorkloadModel {
            shares,
            reference_m,
        }
    }

    /// A synthetic model from explicit shares (tests, what-if analysis).
    pub fn from_shares(shares: Vec<f64>) -> Self {
        let total: f64 = shares.iter().sum();
        assert!(total > 0.0, "shares must sum to a positive value");
        let reference_m = shares.len() as u32;
        WorkloadModel {
            shares: shares.iter().map(|s| s / total).collect(),
            reference_m,
        }
    }

    /// The PriPE count the shares were profiled at.
    pub fn reference_m(&self) -> u32 {
        self.reference_m
    }

    /// `true` if this model can be folded onto `m` PriPEs.
    pub fn supports(&self, m: u32) -> bool {
        m > 0 && m <= self.reference_m && self.reference_m.is_multiple_of(m)
    }

    /// Folds the reference distribution onto `m` PriPEs.
    ///
    /// # Panics
    ///
    /// Panics unless [`supports`](Self::supports)`(m)`.
    pub fn fold(&self, m: u32) -> Vec<f64> {
        assert!(
            self.supports(m),
            "cannot fold M_ref={} onto M={m}",
            self.reference_m
        );
        let mut folded = vec![0.0; m as usize];
        for (j, &s) in self.shares.iter().enumerate() {
            folded[j % m as usize] += s;
        }
        folded
    }

    /// Max-over-mean imbalance of the distribution folded onto `m`.
    pub fn imbalance(&self, m: u32) -> f64 {
        let folded = self.fold(m);
        let max = folded.iter().cloned().fold(0.0f64, f64::max);
        max * m as f64
    }
}

/// A predicted steady-state rate with the bound that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePrediction {
    /// Predicted tuples per cycle: the minimum of the three bounds.
    pub rate: f64,
    /// Input-side bound: `min(N / II_pre, memory tuples/cycle)`.
    pub input_bound: f64,
    /// Skew bound: the slowest effective PriPE after replaying the greedy
    /// SecPE plan, `min_j (1 + h_j) / (II_pri · share_j)`.
    pub pe_bound: f64,
    /// Aggregate PE capacity, `(M + X) / II_pri`.
    pub capacity_bound: f64,
}

impl RatePrediction {
    /// Which bound is binding: `"input"`, `"pe"` or `"capacity"`.
    pub fn binding(&self) -> &'static str {
        if self.rate == self.input_bound {
            "input"
        } else if self.rate == self.pe_bound {
            "pe"
        } else {
            "capacity"
        }
    }
}

/// Fixed-point scale used to hand fractional shares to the integer greedy
/// scheduler.
const SHARE_SCALE: f64 = 1_000_000.0;

/// Predicts the steady-state rate of `shape` over the profiled workload.
///
/// This replays the *actual* runtime plan generator
/// ([`SchedulingPlan::generate`]) on the folded workload — the estimate and
/// the simulated system agree on SecPE placement by construction — then
/// takes the minimum of the input bound, the slowest helped PriPE and the
/// aggregate capacity.
pub fn predict_rate(
    workload: &WorkloadModel,
    shape: PipelineShape,
    ii_pre: u32,
    ii_pri: u32,
    mem_tuples_per_cycle: f64,
) -> RatePrediction {
    assert!(ii_pre > 0 && ii_pri > 0, "IIs are at least 1");
    let shares = workload.fold(shape.m_pri);
    let input_bound = (shape.n_pre as f64 / ii_pre as f64).min(mem_tuples_per_cycle);
    let capacity_bound = shape.destination_pes() as f64 / ii_pri as f64;

    let quantized: Vec<u64> = shares
        .iter()
        .map(|s| (s * SHARE_SCALE).round() as u64)
        .collect();
    let plan = SchedulingPlan::generate(&quantized, shape.m_pri, shape.x_sec);
    let mut helpers = vec![1u64; shares.len()];
    for &(_, pri) in plan.pairs() {
        helpers[pri as usize] += 1;
    }
    let pe_bound = shares
        .iter()
        .zip(&helpers)
        .filter(|(s, _)| **s > 0.0)
        .map(|(&s, &h)| h as f64 / (ii_pri as f64 * s))
        .fold(f64::INFINITY, f64::min);

    let rate = input_bound.min(pe_bound).min(capacity_bound);
    RatePrediction {
        rate,
        input_bound,
        pe_bound,
        capacity_bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_paper_shape_is_input_bound() {
        let w = WorkloadModel::from_shares(vec![1.0; 16]);
        let p = predict_rate(&w, PipelineShape::new(8, 16, 0), 1, 2, 8.0);
        assert_eq!(p.rate, 8.0);
        assert_eq!(p.binding(), "input");
    }

    #[test]
    fn hot_pe_drops_the_rate_and_secpes_recover_it() {
        // One PriPE takes half the stream.
        let mut shares = vec![1.0; 16];
        shares[3] = 15.0; // share 0.5
        let w = WorkloadModel::from_shares(shares);
        let bare = predict_rate(&w, PipelineShape::new(8, 16, 0), 1, 2, 8.0);
        assert!((bare.pe_bound - 1.0).abs() < 1e-6, "{}", bare.pe_bound);
        assert_eq!(bare.binding(), "pe");
        let helped = predict_rate(&w, PipelineShape::new(8, 16, 8), 1, 2, 8.0);
        assert!(helped.rate > 3.0 * bare.rate, "{}", helped.rate);
    }

    #[test]
    fn folding_is_exact_for_divisors() {
        let mut shares = vec![0.0; 32];
        shares[5] = 1.0;
        shares[21] = 3.0; // 21 ≡ 5 (mod 16)
        let w = WorkloadModel::from_shares(shares);
        let folded = w.fold(16);
        assert!((folded[5] - 1.0).abs() < 1e-12);
        assert!(!w.supports(12), "12 does not divide 32");
        assert!(!w.supports(64), "cannot unfold to finer granularity");
    }

    #[test]
    fn memory_interface_caps_wide_configs() {
        let w = WorkloadModel::from_shares(vec![1.0; 32]);
        let p = predict_rate(&w, PipelineShape::new(16, 32, 0), 1, 2, 8.0);
        assert_eq!(p.rate, 8.0, "16 lanes cannot beat the 8-tuple interface");
    }

    #[test]
    fn empty_trace_predicts_uniform() {
        let trace = ditto_obs::CountsTrace::new("empty");
        let w = WorkloadModel::from_trace(&trace, 8);
        assert!((w.imbalance(8) - 1.0).abs() < 1e-9);
    }
}
