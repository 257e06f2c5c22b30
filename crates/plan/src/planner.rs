//! The configuration search: price every candidate shape × device against
//! the profiled workload and pick the best deployable point.

use std::collections::HashMap;

use datagen::Tuple;
use ditto_core::{ArchConfig, DittoApp, SkewAnalyzer, MAX_DEST_PES};
use ditto_obs::CountsTrace;
use fpga_model::{
    AppCostProfile, Device, FrequencyModel, PipelineShape, ResourceEstimate, ResourceModel,
};

use crate::estimate::{predict_rate, RatePrediction, WorkloadModel};

/// Search-space and budget options for one planning run.
#[derive(Debug, Clone)]
pub struct PlannerOptions {
    /// Utilisation budget: candidates whose estimated logic/RAM/DSP
    /// utilisation exceeds this fraction on any axis are rejected.
    pub budget: f64,
    /// Candidate PrePE (lane) counts.
    pub lanes: Vec<u32>,
    /// Candidate PriPE counts; only divisors of the trace's reference M
    /// are searched (workload folding is exact there, see
    /// [`WorkloadModel::fold`]).
    pub pri_pes: Vec<u32>,
    /// Candidate SecPE counts; filtered per-M to `x < m` and the wide
    /// word's destination bound.
    pub sec_pes: Vec<u32>,
    /// Devices to price each shape on.
    pub devices: Vec<Device>,
    /// PrePE initiation interval of the application.
    pub ii_pre: u32,
    /// PriPE/SecPE initiation interval of the application.
    pub ii_pri: u32,
    /// Memory-interface tuple bandwidth (8-byte tuples on the paper's
    /// 64-byte interface: 8 tuples/cycle).
    pub mem_tuples_per_cycle: f64,
}

/// Tuples the paper's memory interface supplies per cycle: `Wmem / Wtuple`,
/// 8-byte tuples on a 64-byte (512-bit) interface.
const PAPER_MEM_TUPLES_PER_CYCLE: u32 = 8;

impl PlannerOptions {
    /// The default search: the paper's lane/PE axis (4–16 lanes, 8–32
    /// PriPEs, 0–15 SecPEs) on the paper's Arria 10 GX 1150 under an 85 %
    /// utilisation budget.
    pub fn paper_search() -> Self {
        PlannerOptions {
            budget: 0.85,
            lanes: vec![4, 8, 16],
            pri_pes: vec![8, 16, 32],
            sec_pes: vec![0, 1, 2, 4, 8, 15],
            devices: vec![Device::arria10_gx1150()],
            ii_pre: 1,
            ii_pri: 2,
            mem_tuples_per_cycle: f64::from(PAPER_MEM_TUPLES_PER_CYCLE),
        }
    }

    /// The paper's system generation (§V-C). Equation 1,
    /// `N_pre / II_pre = N_pri / II_pri = Wmem / Wtuple`, fixes one lane
    /// count and one PriPE count M; the search covers the M generated
    /// variants with X = 0..M−1 SecPEs on the GX 1150 at a 100 % budget —
    /// the paper builds every variant the device holds.
    /// [`Planner::select`] picks among them.
    ///
    /// # Panics
    ///
    /// Panics if either II is zero.
    ///
    /// ```
    /// use ditto_plan::PlannerOptions;
    ///
    /// let opts = PlannerOptions::equation1(1, 2); // II_pre = 1, II_pri = 2
    /// assert_eq!((opts.lanes, opts.pri_pes), (vec![8], vec![16]));
    /// assert_eq!(opts.sec_pes, (0..16).collect::<Vec<_>>());
    /// ```
    pub fn equation1(ii_pre: u32, ii_pri: u32) -> Self {
        assert!(
            ii_pre > 0 && ii_pri > 0,
            "initiation intervals must be nonzero"
        );
        let m = PAPER_MEM_TUPLES_PER_CYCLE * ii_pri;
        PlannerOptions {
            budget: 1.0,
            lanes: vec![PAPER_MEM_TUPLES_PER_CYCLE * ii_pre],
            pri_pes: vec![m],
            sec_pes: (0..m).collect(),
            ii_pre,
            ii_pri,
            ..Self::paper_search()
        }
    }

    /// Extends the search across the full device catalog (GX 660,
    /// GX 1150, Stratix 10 GX 2800).
    pub fn with_device_catalog(mut self) -> Self {
        self.devices = Device::catalog();
        self
    }

    /// Overrides the utilisation budget.
    pub fn with_budget(mut self, budget: f64) -> Self {
        assert!(budget > 0.0, "budget must be positive");
        self.budget = budget;
        self
    }
}

impl Default for PlannerOptions {
    fn default() -> Self {
        Self::paper_search()
    }
}

/// One priced point of the search space.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The pipeline shape.
    pub shape: PipelineShape,
    /// Target device name.
    pub device: &'static str,
    /// Modelled resources and frequency.
    pub estimate: ResourceEstimate,
    /// Predicted steady-state rate and its binding bound.
    pub prediction: RatePrediction,
    /// Predicted throughput, million tuples per second.
    pub mtps: f64,
    /// Throughput per thousand ALMs — the area-efficiency objective.
    pub mtps_per_kalm: f64,
    /// `None` if deployable under the budget, else the rejecting axis.
    pub rejected: Option<&'static str>,
}

impl Candidate {
    /// `true` if this candidate survived the budget and capacity checks.
    pub fn feasible(&self) -> bool {
        self.rejected.is_none()
    }
}

/// Memoisation statistics of the repeated-fragment estimate cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Estimate requests issued by the search.
    pub lookups: u64,
    /// Requests served from the cache without re-costing.
    pub hits: u64,
}

/// The planner's output: the chosen configuration plus the full priced
/// candidate list (machine-readable via
/// [`to_json`](DeploymentPlan::to_json)).
#[derive(Debug, Clone)]
pub struct DeploymentPlan {
    /// Application profile the plan was priced for.
    pub app: &'static str,
    /// Label of the counts trace that drove the plan.
    pub trace_label: String,
    /// PriPE count of the profiled pipeline.
    pub reference_m: u32,
    /// Utilisation budget applied.
    pub budget: f64,
    /// The SecPE count Equation 2 recommended, for a
    /// [`select`](Planner::select) query; the chosen X is the smallest
    /// searched X at or above it.
    pub recommended_x: Option<u32>,
    /// The winning candidate.
    pub chosen: Candidate,
    /// Ready-to-deploy configuration for the winner.
    pub config: ArchConfig,
    /// Every priced point, in search order.
    pub candidates: Vec<Candidate>,
    /// Estimate-cache statistics at the end of the run.
    pub memo: MemoStats,
}

impl DeploymentPlan {
    /// The feasible candidates, in search order.
    pub fn feasible(&self) -> impl Iterator<Item = &Candidate> {
        self.candidates.iter().filter(|c| c.feasible())
    }

    /// Renders the plan as a self-contained JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"app\": \"{}\",\n", self.app));
        out.push_str(&format!("  \"trace\": \"{}\",\n", self.trace_label));
        out.push_str(&format!("  \"reference_m\": {},\n", self.reference_m));
        out.push_str(&format!("  \"budget\": {},\n", self.budget));
        if let Some(x) = self.recommended_x {
            out.push_str(&format!("  \"recommended_x\": {x},\n"));
        }
        out.push_str(&format!(
            "  \"memo\": {{\"lookups\": {}, \"hits\": {}}},\n",
            self.memo.lookups, self.memo.hits
        ));
        out.push_str("  \"chosen\": ");
        out.push_str(&candidate_json(&self.chosen));
        out.push_str(",\n  \"candidates\": [\n");
        for (i, c) in self.candidates.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&candidate_json(c));
            out.push_str(if i + 1 < self.candidates.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn candidate_json(c: &Candidate) -> String {
    let rejected = match c.rejected {
        Some(axis) => format!(", \"rejected\": \"{axis}\""),
        None => String::new(),
    };
    format!(
        "{{\"label\": \"{}\", \"device\": \"{}\", \"n_pre\": {}, \"m_pri\": {}, \"x_sec\": {}, \
         \"freq_mhz\": {:.1}, \"alms\": {}, \"ram_blocks\": {}, \"dsps\": {}, \
         \"rate\": {:.4}, \"binding\": \"{}\", \"mtps\": {:.1}, \"mtps_per_kalm\": {:.3}, \
         \"feasible\": {}{rejected}}}",
        c.shape.label(),
        c.device,
        c.shape.n_pre,
        c.shape.m_pri,
        c.shape.x_sec,
        c.estimate.freq_mhz,
        c.estimate.logic_alms,
        c.estimate.ram_blocks,
        c.estimate.dsps,
        c.prediction.rate,
        c.prediction.binding(),
        c.mtps,
        c.mtps_per_kalm,
        c.feasible(),
    )
}

type MemoKey = (PipelineShape, &'static str, &'static str);

/// The estimator-driven deployment planner.
///
/// One planner instance carries a memoised estimate cache across planning
/// calls: shapes are repeated fragments of the search space, so planning a
/// second skew profile of the same application re-prices nothing — only
/// the throughput fold is recomputed. [`memo_stats`](Self::memo_stats)
/// exposes the hit counters.
#[derive(Debug, Default)]
pub struct Planner {
    memo: HashMap<MemoKey, ResourceEstimate>,
    stats: MemoStats,
}

impl Planner {
    /// A planner with an empty estimate cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current cache statistics.
    pub fn memo_stats(&self) -> MemoStats {
        self.stats
    }

    fn estimate_cached(
        &mut self,
        device: &Device,
        shape: PipelineShape,
        profile: &AppCostProfile,
    ) -> ResourceEstimate {
        self.stats.lookups += 1;
        let key: MemoKey = (shape, device.name, profile.name);
        if let Some(hit) = self.memo.get(&key) {
            self.stats.hits += 1;
            return hit.clone();
        }
        let model = ResourceModel::new(device.clone(), FrequencyModel::calibrated());
        let est = model.estimate(shape, profile);
        self.memo.insert(key, est.clone());
        est
    }

    /// Searches `opts`' space for the best deployment of `profile` under
    /// the workload recorded in `trace` (profiled at `reference_m`
    /// PriPEs).
    ///
    /// Objective: maximum predicted throughput; candidates within 1 % of
    /// the leader are tie-broken on throughput per ALM, so the planner
    /// never pays area for rate the memory interface can't deliver.
    ///
    /// # Panics
    ///
    /// Panics if no candidate fits the budget on any device — raise it
    /// with [`with_budget`](PlannerOptions::with_budget) or extend the
    /// device list.
    pub fn plan(
        &mut self,
        trace: &CountsTrace,
        reference_m: u32,
        profile: &AppCostProfile,
        opts: &PlannerOptions,
    ) -> DeploymentPlan {
        let workload = WorkloadModel::from_trace(trace, reference_m);
        let candidates = self.search(&workload, profile, opts);
        let chosen = candidates
            .iter()
            .filter(|c| c.feasible())
            .fold(None::<&Candidate>, |best, c| match best {
                None => Some(c),
                Some(b) if c.mtps > b.mtps * 1.01 => Some(c),
                Some(b) if c.mtps > b.mtps * 0.99 && c.mtps_per_kalm > b.mtps_per_kalm => Some(c),
                Some(b) => Some(b),
            })
            .unwrap_or_else(|| {
                panic!(
                    "no candidate fits the {:.0}% budget on {} device(s); raise it with \
                     `with_budget` or extend the device list",
                    opts.budget * 100.0,
                    opts.devices.len()
                )
            })
            .clone();
        DeploymentPlan {
            app: profile.name,
            trace_label: trace.label.clone(),
            reference_m,
            budget: opts.budget,
            recommended_x: None,
            config: ArchConfig::new(chosen.shape.n_pre, chosen.shape.m_pri, chosen.shape.x_sec),
            chosen,
            candidates,
            memo: self.stats,
        }
    }

    /// The paper's implementation selection (Fig. 6, §V-D): `analyzer`
    /// samples `data` and routes the sample through `app.preprocess` at
    /// the searched PriPE count M, Equation 2 recommends a SecPE count,
    /// and the choice is the feasible candidate with the fewest SecPEs
    /// among those with X ≥ the recommendation — the variant that "saves
    /// the BRAM usage without significantly compromising the
    /// performance". The sampled counts also drive each candidate's rate
    /// prediction; a sample with no tuples predicts the uniform
    /// distribution and recommends X = 0.
    ///
    /// # Panics
    ///
    /// Panics unless `opts` searches exactly one PriPE count (Equation 1
    /// fixes it, see [`PlannerOptions::equation1`]), or if no feasible
    /// candidate provides the recommended SecPEs.
    ///
    /// ```
    /// use datagen::ZipfGenerator;
    /// use ditto_core::{apps::CountPerKey, DittoApp, SkewAnalyzer};
    /// use ditto_plan::{Planner, PlannerOptions};
    /// use fpga_model::AppCostProfile;
    ///
    /// let data = ZipfGenerator::new(0.0, 1 << 20, 9).take_vec(50_000);
    /// let app = CountPerKey::new(16);
    /// let plan = Planner::new().select(
    ///     &app,
    ///     &data,
    ///     &SkewAnalyzer::paper(),
    ///     &AppCostProfile::histo(),
    ///     &PlannerOptions::equation1(app.ii_pre(), app.ii_pri()),
    /// );
    /// assert_eq!(plan.config.x_sec, 0); // uniform data: cheapest variant
    /// ```
    pub fn select<A: DittoApp>(
        &mut self,
        app: &A,
        data: &[Tuple],
        analyzer: &SkewAnalyzer,
        profile: &AppCostProfile,
        opts: &PlannerOptions,
    ) -> DeploymentPlan {
        let &[m] = opts.pri_pes.as_slice() else {
            panic!("selection searches one PriPE count, got {:?}", opts.pri_pes)
        };
        let counts = analyzer.sampled_workloads(app, data, m);
        let recommended_x = analyzer.recommend_from_workloads(&counts, m);
        let candidates = self.search(&WorkloadModel::from_counts(&counts), profile, opts);
        let chosen = candidates
            .iter()
            .filter(|c| c.feasible() && c.shape.x_sec >= recommended_x)
            .min_by_key(|c| c.shape.x_sec)
            .unwrap_or_else(|| panic!("no feasible candidate has X >= {recommended_x}"))
            .clone();
        DeploymentPlan {
            app: profile.name,
            trace_label: format!("{}-tuple sample", counts.iter().sum::<u64>()),
            reference_m: m,
            budget: opts.budget,
            recommended_x: Some(recommended_x),
            config: ArchConfig::new(chosen.shape.n_pre, chosen.shape.m_pri, chosen.shape.x_sec),
            chosen,
            candidates,
            memo: self.stats,
        }
    }

    /// Prices every shape × device point of `opts` against `workload`, in
    /// search order.
    fn search(
        &mut self,
        workload: &WorkloadModel,
        profile: &AppCostProfile,
        opts: &PlannerOptions,
    ) -> Vec<Candidate> {
        let mut candidates = Vec::new();
        for device in &opts.devices {
            for &n in &opts.lanes {
                for &m in &opts.pri_pes {
                    if !workload.supports(m) {
                        continue;
                    }
                    for &x in &opts.sec_pes {
                        if x >= m || (m + x) as usize > MAX_DEST_PES {
                            continue;
                        }
                        let shape = PipelineShape::new(n, m, x);
                        let est = self.estimate_cached(device, shape, profile);
                        let prediction = predict_rate(
                            workload,
                            shape,
                            opts.ii_pre,
                            opts.ii_pri,
                            opts.mem_tuples_per_cycle,
                        );
                        let mtps = fpga_model::mtps(prediction.rate, est.freq_mhz);
                        let mtps_per_kalm = mtps / (est.logic_alms as f64 / 1000.0);
                        let rejected = if est.logic_util > opts.budget {
                            Some("logic")
                        } else if est.ram_util > opts.budget {
                            Some("ram")
                        } else if est.dsp_util > opts.budget {
                            Some("dsp")
                        } else if !device.fits(est.logic_alms, est.ram_blocks, est.dsps) {
                            Some("capacity")
                        } else {
                            None
                        };
                        candidates.push(Candidate {
                            shape,
                            device: device.name,
                            estimate: est,
                            prediction,
                            mtps,
                            mtps_per_kalm,
                            rejected,
                        });
                    }
                }
            }
        }
        candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::ZipfGenerator;
    use ditto_core::apps::CountPerKey;

    fn trace_with_workloads(w: &[u64]) -> CountsTrace {
        let mut t = CountsTrace::new("test");
        t.push(ditto_obs::PhaseCounts {
            phase: 0,
            cycles: 1000,
            tuples: w.iter().sum(),
            per_pe_processed: w.to_vec(),
            ..Default::default()
        });
        t
    }

    #[test]
    fn uniform_workload_avoids_paying_for_secpes() {
        let mut planner = Planner::new();
        let trace = trace_with_workloads(&[100; 32]);
        let plan = planner.plan(
            &trace,
            32,
            &AppCostProfile::histo(),
            &PlannerOptions::paper_search(),
        );
        assert_eq!(plan.chosen.shape.x_sec, 0, "{}", plan.chosen.shape.label());
        // Paper default is 16P+15S: the uniform plan must beat it on area
        // efficiency at equal-or-better throughput.
        let paper = plan
            .candidates
            .iter()
            .find(|c| c.shape == PipelineShape::new(8, 16, 15))
            .expect("paper default searched");
        assert!(plan.chosen.mtps_per_kalm > paper.mtps_per_kalm);
        assert!(plan.chosen.mtps >= paper.mtps * 0.99);
    }

    #[test]
    fn skewed_workload_buys_secpes() {
        let mut w = [50u64; 32];
        w[7] = 3_000; // one PriPE owns ~2/3 of the stream
        let mut planner = Planner::new();
        let plan = planner.plan(
            &trace_with_workloads(&w),
            32,
            &AppCostProfile::histo(),
            &PlannerOptions::paper_search(),
        );
        assert!(plan.chosen.shape.x_sec > 0, "{}", plan.chosen.shape.label());
        let bare = plan
            .candidates
            .iter()
            .find(|c| c.shape == PipelineShape::new(plan.chosen.shape.n_pre, 32, 0))
            .expect("bare shape searched");
        assert!(plan.chosen.mtps > bare.mtps);
    }

    #[test]
    fn budget_rejections_are_reported_not_silent() {
        let mut planner = Planner::new();
        let trace = trace_with_workloads(&[100; 32]);
        let opts = PlannerOptions::paper_search().with_budget(0.55);
        let plan = planner.plan(&trace, 32, &AppCostProfile::pagerank(), &opts);
        assert!(
            plan.candidates.iter().any(|c| c.rejected.is_some()),
            "a 55% budget must reject the big shapes"
        );
        assert!(plan.chosen.estimate.logic_util <= 0.55);
        assert!(plan.chosen.estimate.ram_util <= 0.55);
    }

    #[test]
    #[should_panic(expected = "raise it with `with_budget`")]
    fn an_empty_feasible_set_names_the_budget_override() {
        let opts = PlannerOptions::paper_search().with_budget(0.01);
        let trace = trace_with_workloads(&[100; 32]);
        Planner::new().plan(&trace, 32, &AppCostProfile::histo(), &opts);
    }

    #[test]
    fn memo_reuses_estimates_across_planning_calls() {
        let mut planner = Planner::new();
        let opts = PlannerOptions::paper_search();
        let uniform = trace_with_workloads(&[100; 32]);
        let mut skewed = [50u64; 32];
        skewed[0] = 5_000;
        let first = planner.plan(&uniform, 32, &AppCostProfile::hll(), &opts);
        assert_eq!(first.memo.hits, 0, "cold cache");
        let second = planner.plan(
            &trace_with_workloads(&skewed),
            32,
            &AppCostProfile::hll(),
            &opts,
        );
        assert_eq!(
            second.memo.hits, first.memo.lookups,
            "second skew profile re-prices nothing"
        );
        assert_ne!(
            first.chosen.shape, second.chosen.shape,
            "but the workload still changes the decision"
        );
    }

    #[test]
    fn json_report_is_self_contained() {
        let mut planner = Planner::new();
        let plan = planner.plan(
            &trace_with_workloads(&[100; 32]),
            32,
            &AppCostProfile::histo(),
            &PlannerOptions::paper_search(),
        );
        let json = plan.to_json();
        assert!(json.contains("\"chosen\""));
        assert!(json.contains("\"memo\""));
        assert!(json.contains(&format!("\"{}\"", plan.chosen.shape.label())));
        assert_eq!(
            json.matches("\"label\"").count(),
            plan.candidates.len() + 1,
            "one row per candidate plus the chosen block"
        );
    }

    #[test]
    fn equation1_with_paper_numbers() {
        // 8-byte tuples on a 64-byte interface; II_pre = 1, II_pri = 2:
        // "the system sets the number of PriPEs to 16 on our platform".
        let opts = PlannerOptions::equation1(1, 2);
        assert_eq!((opts.lanes, opts.pri_pes), (vec![8], vec![16]));
        assert_eq!(opts.budget, 1.0);
        let opts = PlannerOptions::equation1(2, 4);
        assert_eq!((opts.lanes, opts.pri_pes), (vec![16], vec![32]));
    }

    #[test]
    #[should_panic(expected = "initiation intervals must be nonzero")]
    fn equation1_rejects_a_zero_ii() {
        let _ = PlannerOptions::equation1(1, 0);
    }

    fn select_for(alpha: f64) -> DeploymentPlan {
        let data = ZipfGenerator::new(alpha, 1 << 18, 21).take_vec(60_000);
        Planner::new().select(
            &CountPerKey::new(16),
            &data,
            &SkewAnalyzer::paper(),
            &AppCostProfile::histo(),
            &PlannerOptions::equation1(1, 2),
        )
    }

    #[test]
    fn selection_searches_the_m_generated_variants() {
        let plan = select_for(0.0);
        let xs: Vec<u32> = plan.candidates.iter().map(|c| c.shape.x_sec).collect();
        assert_eq!(xs, (0..16).collect::<Vec<_>>());
        assert!(plan.candidates.iter().all(|c| c.feasible()));
        // Resource estimates grow with X.
        assert!(plan.candidates[15].estimate.ram_blocks > plan.candidates[0].estimate.ram_blocks);
    }

    #[test]
    fn uniform_selects_base() {
        let plan = select_for(0.0);
        assert_eq!(plan.config.x_sec, 0);
        assert_eq!(plan.recommended_x, Some(0));
        assert!(plan.to_json().contains("\"recommended_x\": 0"));
    }

    #[test]
    fn extreme_skew_selects_nearly_full() {
        // α = 3 concentrates ~83% of tuples on one PriPE; Equation 2 asks
        // for most of the M-1 SecPEs (the all-one-key worst case asks for
        // exactly M-1).
        let plan = select_for(3.0);
        assert!(plan.config.x_sec >= 10, "x = {}", plan.config.x_sec);
    }

    #[test]
    fn selection_never_underprovisions() {
        for &alpha in &[0.0, 0.75, 1.25, 2.0, 3.0] {
            let plan = select_for(alpha);
            let recommended = plan.recommended_x.expect("select records it");
            assert!(
                plan.config.x_sec >= recommended,
                "α={alpha}: x {} < recommended {recommended}",
                plan.config.x_sec
            );
        }
    }

    #[test]
    fn bram_grows_with_selected_x() {
        let base = select_for(0.0);
        let full = select_for(3.0);
        assert!(full.chosen.estimate.ram_blocks > base.chosen.estimate.ram_blocks);
    }

    #[test]
    fn empty_sample_selects_the_base_variant() {
        let plan = Planner::new().select(
            &CountPerKey::new(16),
            &[],
            &SkewAnalyzer::paper(),
            &AppCostProfile::histo(),
            &PlannerOptions::equation1(1, 2),
        );
        assert_eq!(plan.recommended_x, Some(0));
        assert_eq!(plan.config.x_sec, 0);
        assert_eq!(plan.chosen.prediction.binding(), "input", "uniform model");
    }

    #[test]
    #[should_panic(expected = "one PriPE count")]
    fn selection_needs_equation1s_single_m() {
        let _ = Planner::new().select(
            &CountPerKey::new(16),
            &[],
            &SkewAnalyzer::paper(),
            &AppCostProfile::histo(),
            &PlannerOptions::paper_search(),
        );
    }

    #[test]
    fn device_catalog_rescues_over_budget_plans() {
        let mut planner = Planner::new();
        let trace = trace_with_workloads(&[100; 32]);
        // PageRank at 32 PriPEs overflows the GX 660's budgeted RAM; the
        // catalog search must fall over to a bigger part for those shapes
        // while still reporting the rejections.
        let opts = PlannerOptions::paper_search().with_device_catalog();
        let plan = planner.plan(&trace, 32, &AppCostProfile::pagerank(), &opts);
        let gx660_rejects = plan
            .candidates
            .iter()
            .filter(|c| c.device == "Intel Arria 10 GX 660" && c.rejected.is_some())
            .count();
        assert!(gx660_rejects > 0, "small device rejects big shapes");
        assert!(plan.chosen.feasible());
    }
}
