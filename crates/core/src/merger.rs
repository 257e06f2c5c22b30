//! The merger module (§IV-B): folds SecPE partial buffers into PriPE
//! results according to the SecPE scheduling plan.

use std::sync::Arc;

use hls_sim::{Cycle, Kernel, Progress, SimContext, StateId};

use crate::app::DittoApp;
use crate::control::ControlId;
use crate::SchedulingPlan;

/// The merger kernel.
///
/// Holds the arena handle of the destination PEs' private buffers. On a
/// merge request (raised by the profiler once all SecPEs have drained) it
/// folds each scheduled SecPE's buffer into its PriPE's via the
/// application's `merge`, resets the SecPE buffer for its next assignment,
/// and acknowledges through the control block. All of that goes through the
/// `SimContext`: the PE buffers are one state-arena register, indexed by PE
/// id, that this kernel and the PE banks address by the same `Copy`
/// [`StateId`].
///
/// The same fold ([`fold_sec_states`]) runs once more at end of run before
/// `finalize` (the paper's offline flow: "the results of PriPEs and SecPEs
/// are merged by the merger module according to the SecPE scheduling plan").
pub struct MergerKernel<A: DittoApp> {
    name: String,
    app: Arc<A>,
    states: StateId<Vec<A::State>>,
    m_pri: u32,
    pe_entries: usize,
    plan: StateId<SchedulingPlan>,
    control: ControlId,
    merges_done: u64,
}

impl<A: DittoApp> MergerKernel<A> {
    /// Creates the merger over all `M + X` destination-PE buffers
    /// (`states[0..M]` are PriPEs, the rest SecPEs).
    pub fn new(
        app: Arc<A>,
        states: StateId<Vec<A::State>>,
        m_pri: u32,
        pe_entries: usize,
        plan: StateId<SchedulingPlan>,
        control: ControlId,
    ) -> Self {
        MergerKernel {
            name: "merger".to_owned(),
            app,
            states,
            m_pri,
            pe_entries,
            plan,
            control,
            merges_done: 0,
        }
    }

    /// Performs the fold immediately (also used by the pipeline at end of
    /// run). SecPE buffers are reset to fresh states afterwards.
    pub fn merge_now(&mut self, ctx: &mut SimContext) {
        let plan = ctx.state(self.plan).clone();
        debug_assert!(plan
            .pairs()
            .iter()
            .all(|&(_, pri)| (pri as usize) < self.m_pri as usize));
        let states = ctx.state_mut(self.states);
        fold_sec_states(&*self.app, states, &plan, self.pe_entries);
        self.merges_done += 1;
    }

    /// Number of merge passes executed.
    pub fn merges_done(&self) -> u64 {
        self.merges_done
    }
}

impl<A: DittoApp + 'static> Kernel for MergerKernel<A> {
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, _cy: Cycle, ctx: &mut SimContext) -> Progress {
        if ctx.state_mut(self.control).take_merge_request() {
            self.merge_now(ctx);
            ctx.state_mut(self.control).set_merge_done();
        }
        // Merge requests arrive through the control block, not a channel;
        // the profiler wakes this kernel explicitly whenever it raises one,
        // so the merger parks in between.
        Progress::Sleep
    }

    fn is_idle(&self, _ctx: &SimContext) -> bool {
        true
    }
}

/// Folds each scheduled SecPE buffer into its PriPE's via the application's
/// `merge`, resetting the SecPE buffer to a fresh `pe_entries`-sized state —
/// the one fold used both by mid-run reschedules ([`MergerKernel`]) and the
/// pipeline's end-of-run pass. `states` is indexed by PE id, so the fold is
/// a pair of indexed accesses per plan entry: take the SecPE state out,
/// merge it into the PriPE's.
pub fn fold_sec_states<A: DittoApp>(
    app: &A,
    states: &mut [A::State],
    plan: &SchedulingPlan,
    pe_entries: usize,
) {
    for &(sec, pri) in plan.pairs() {
        let sec_state = std::mem::replace(&mut states[sec as usize], app.new_state(pe_entries));
        app.merge(&mut states[pri as usize], &sec_state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::CountPerKey;
    use crate::control::Control;
    use hls_sim::Engine;

    fn setup(
        plan_pairs: Vec<(u32, u32)>,
    ) -> (
        Engine,
        MergerKernel<CountPerKey>,
        StateId<Vec<u64>>,
        ControlId,
    ) {
        let app = Arc::new(CountPerKey::new(2));
        let mut engine = Engine::new();
        let states = engine.state(vec![0, 10, 20, 30]);
        let plan = engine.state(SchedulingPlan::from_pairs(plan_pairs));
        let control = engine.state(Control::new(2));
        let merger = MergerKernel::new(app, states, 2, 1, plan, control);
        (engine, merger, states, control)
    }

    #[test]
    fn merges_sec_into_pri_and_resets_sec() {
        // PEs 0,1 primary (10*id), PEs 2,3 secondary; plan: 2->0, 3->1.
        let (mut engine, mut merger, states, _) = setup(vec![(2, 0), (3, 1)]);
        merger.merge_now(engine.context_mut());
        assert_eq!(
            engine.context().state(states),
            &[20, 40, 0, 0],
            "SecPEs reset"
        );
    }

    #[test]
    fn merge_request_via_control() {
        let (mut engine, mut merger, states, control) = setup(vec![(2, 1)]);
        engine.context_mut().state_mut(control).request_merge();
        merger.step(0, engine.context_mut());
        assert!(engine.context().state(control).merge_done());
        assert_eq!(engine.context().state(states)[1], 10 + 20);
        // A second step without a request does nothing.
        merger.step(1, engine.context_mut());
        assert_eq!(merger.merges_done(), 1);
    }

    #[test]
    fn empty_plan_merges_nothing() {
        let (mut engine, mut merger, states, _) = setup(vec![]);
        merger.merge_now(engine.context_mut());
        assert_eq!(engine.context().state(states), &[0, 10, 20, 30]);
    }
}
