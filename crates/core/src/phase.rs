//! Phase-compiled execution plans.
//!
//! The dataflow-HLS literature compiles static dataflow structure into
//! execution schedules instead of re-discovering it at runtime; the
//! in-simulation analogue is to compile each profiler scheduling plan —
//! together with the workload histogram it was generated from — into a
//! [`PhasePlan`]: the set of destination PEs the coming phase can route
//! tuples to, and therefore which datapath taps are predicted zero-mask
//! ("cold") for the whole phase.
//!
//! The plan is applied to the shared [`Control`](crate::control::Control)
//! block at every reschedule boundary (initial build, plan distribution,
//! drain completion), where serving layers and reports read it. The plan
//! itself moves no data: it is the compiled, queryable description of the
//! phase — snapshots and counts traces expose the predicted active set,
//! and tests assert that the cold taps it names keep consuming zero-mask
//! words in step with the hot ones.

use crate::{PeId, SchedulingPlan};

/// The compiled execution plan of one pipeline phase.
///
/// A *phase* spans the stretch between two reschedule boundaries: from a
/// scheduling plan landing in the mappers to the next drain, or from a
/// drain completing to the next plan. Within a phase the mapping tables
/// are static, so the set of reachable destination PEs — and with it the
/// set of guaranteed-idle datapaths — is fixed and can be compiled once.
///
/// `active` entries for PriPEs are a *prediction* from the profiling
/// window (a PriPE that received nothing while profiling is expected to
/// stay cold); SecPE entries are exact (a SecPE not scheduled to an
/// active PriPE receives nothing while the plan holds, and after a drain
/// no SecPE receives anything at all).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhasePlan {
    /// Phase sequence number, stamped by
    /// [`Control::apply_phase_plan`](crate::control::Control::apply_phase_plan).
    phase: u64,
    /// One flag per destination PE (`M + X` entries): can this PE receive
    /// tuples during the phase?
    active: Vec<bool>,
}

impl PhasePlan {
    /// The phase every pipeline starts in (and returns to after a drain):
    /// every PriPE reachable, every SecPE cold.
    pub fn pri_only(m_pri: u32, x_sec: u32) -> Self {
        let mut active = vec![true; (m_pri + x_sec) as usize];
        active[m_pri as usize..].fill(false);
        PhasePlan { phase: 0, active }
    }

    /// Compiles a profiler scheduling plan into the phase it starts.
    ///
    /// `workloads` is the per-PriPE tuple count of the profiling window
    /// the plan was generated from: a PriPE that received nothing is
    /// predicted cold for the phase, and a SecPE is active exactly when
    /// the PriPE it helps is.
    ///
    /// # Panics
    ///
    /// Panics if a plan pair references an out-of-range PE id.
    pub fn compile(workloads: &[u64], plan: &SchedulingPlan, x_sec: u32) -> Self {
        let m_pri = workloads.len();
        let mut active = vec![false; m_pri + x_sec as usize];
        for (pe, &w) in workloads.iter().enumerate() {
            active[pe] = w > 0;
        }
        for &(sec, pri) in plan.pairs() {
            active[sec as usize] = active[pri as usize];
        }
        PhasePlan { phase: 0, active }
    }

    /// The phase sequence number (0 = initial build).
    pub fn phase(&self) -> u64 {
        self.phase
    }

    pub(crate) fn set_phase(&mut self, phase: u64) {
        self.phase = phase;
    }

    /// Whether destination PE `pe` can receive tuples this phase.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is out of range.
    pub fn is_active(&self, pe: PeId) -> bool {
        self.active[pe as usize]
    }

    /// Number of destination PEs the phase can route to.
    pub fn active_pes(&self) -> u32 {
        self.active.iter().filter(|&&a| a).count() as u32
    }

    /// Total destination PEs covered by the plan (`M + X`), zero for the
    /// default (unapplied) plan.
    pub fn pe_count(&self) -> usize {
        self.active.len()
    }

    /// The datapath taps guaranteed (SecPEs) or predicted (PriPEs) to
    /// carry only zero-mask words this phase, in PE order.
    pub fn cold_taps(&self) -> Vec<PeId> {
        self.active
            .iter()
            .enumerate()
            .filter(|&(_, &a)| !a)
            .map(|(pe, _)| pe as PeId)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pri_only_activates_exactly_the_pripes() {
        let p = PhasePlan::pri_only(4, 3);
        assert_eq!(p.pe_count(), 7);
        assert_eq!(p.active_pes(), 4);
        for pe in 0..4 {
            assert!(p.is_active(pe));
        }
        for pe in 4..7 {
            assert!(!p.is_active(pe));
        }
        assert_eq!(p.cold_taps(), vec![4, 5, 6]);
    }

    #[test]
    fn compile_marks_unfed_pripes_and_their_secs_cold() {
        // One dominant PriPE: the greedy plan sends every SecPE there.
        let workloads = [0u64, 900, 0, 0];
        let plan = SchedulingPlan::generate(&workloads, 4, 3);
        assert!(plan.pairs().iter().all(|&(_, pri)| pri == 1));
        let p = PhasePlan::compile(&workloads, &plan, 3);
        assert_eq!(p.active_pes(), 4, "hot PriPE + its three SecPEs");
        assert!(p.is_active(1));
        assert!(p.is_active(4) && p.is_active(5) && p.is_active(6));
        assert_eq!(p.cold_taps(), vec![0, 2, 3]);
    }

    #[test]
    fn compile_keeps_secs_of_cold_pris_cold() {
        // All-zero window (no traffic while profiling): everything cold.
        let workloads = [0u64, 0, 0, 0];
        let plan = SchedulingPlan::generate(&workloads, 4, 2);
        let p = PhasePlan::compile(&workloads, &plan, 2);
        assert_eq!(p.active_pes(), 0);
        assert_eq!(p.cold_taps().len(), 6);
    }

    #[test]
    fn default_plan_is_empty() {
        let p = PhasePlan::default();
        assert_eq!(p.phase(), 0);
        assert_eq!(p.pe_count(), 0);
        assert_eq!(p.active_pes(), 0);
    }
}
