//! # ditto-plan — estimator-driven deployment planning
//!
//! The second half of the stack's two-pass planner (the pattern of
//! resource estimators in quantum toolchains: a cheap *counts* pass feeds
//! a separate *estimates* pass that prices many targets without
//! re-executing):
//!
//! 1. **Counts** — `ditto_core::profile_counts` runs a bounded slice of a
//!    live pipeline and reduces it to a
//!    [`CountsTrace`](ditto_obs::CountsTrace): kernel steps by class,
//!    channel occupancy integrals, per-PE workload histograms and
//!    plan/reschedule events, per execution phase.
//! 2. **Estimates** — this crate folds the traced workload onto every
//!    candidate shape ([`WorkloadModel`]), replays the runtime's greedy
//!    SecPE scheduler to predict the steady-state rate ([`predict_rate`]),
//!    prices each shape on each device through `fpga_model` (memoised —
//!    shapes are repeated fragments of the search space, see
//!    [`MemoStats`]), and picks the best point under a utilisation budget
//!    ([`Planner::plan`]).
//!
//! The same search answers the paper's own selection (§V, Fig. 6):
//! [`PlannerOptions::equation1`] is Equation 1's search space — one lane
//! count, one PriPE count M and the M generated variants X = 0..M−1 — and
//! [`Planner::select`] samples the dataset, applies Equation 2
//! (`ditto_core::SkewAnalyzer`) and returns the feasible variant with the
//! fewest SecPEs that covers the recommendation.
//!
//! The output is a ready-to-deploy `ArchConfig` plus a machine-readable
//! [`DeploymentPlan`] report; [`validate`] closes the loop by simulating
//! the chosen point and checking the prediction (the planner goldens pin
//! it within ±7.5 %).
//!
//! ```
//! use ditto_obs::{CountsTrace, PhaseCounts};
//! use ditto_plan::{Planner, PlannerOptions};
//! use fpga_model::AppCostProfile;
//!
//! // A profiled slice (normally from ditto_core::profile_counts).
//! let mut trace = CountsTrace::new("histo-uniform");
//! trace.push(PhaseCounts {
//!     cycles: 1_000,
//!     tuples: 6_400,
//!     per_pe_processed: vec![200; 32],
//!     ..Default::default()
//! });
//!
//! let mut planner = Planner::new();
//! let plan = planner.plan(
//!     &trace,
//!     32,
//!     &AppCostProfile::histo(),
//!     &PlannerOptions::paper_search(),
//! );
//! assert_eq!(plan.chosen.shape.x_sec, 0); // uniform data: no SecPE area
//! assert!(plan.to_json().contains("\"chosen\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod estimate;
mod planner;
mod validate;

pub use estimate::{predict_rate, RatePrediction, WorkloadModel};
pub use planner::{Candidate, DeploymentPlan, MemoStats, Planner, PlannerOptions};
pub use validate::{validate, Validation};
