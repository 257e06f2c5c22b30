//! Shared control state wiring the profiler, mappers, SecPEs and merger.
//!
//! In the paper these are side-band signals between kernels ("the runtime
//! profiler ... informs SecPEs and mappers and exits itself", §IV-B). We
//! model them as a control block living in the engine's **state arena**:
//! every participating kernel holds the same `Copy` [`ControlId`] handle and
//! resolves it through the `&mut SimContext` its `step` receives. All
//! mutations happen inside `step` calls of the owning kernels, so the
//! protocol stays cycle-accurate and deterministic — and because the arena
//! is engine-owned plain data, reading a flag is a field load, not an
//! atomic, and the whole engine stays `Send` for free.

use hls_sim::{Cycle, StateId};

use crate::phase::PhasePlan;
use crate::report::{ProtocolCycles, ProtocolPhase};

/// Handle to a pipeline's [`Control`] block in the engine's state arena.
pub type ControlId = StateId<Control>;

/// Lifecycle of a SecPE kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecPhase {
    /// Enqueued and processing tuples.
    Running,
    /// Told to exit: consume remaining channel items, then exit
    /// ("The SecPEs exit the execution after all the tuples in the channels
    /// whose upstream is the data routing logic are consumed", §IV-B).
    Draining,
    /// Exited; waiting for the host to enqueue it again.
    Exited,
}

/// Control block (one per pipeline), allocated in the state arena via
/// [`Engine::state`](hls_sim::Engine::state).
#[derive(Debug, Clone)]
pub struct Control {
    /// When `false`, mappers route every tuple to its original PriPE —
    /// "the mappers will prevent the tuples from being routed to SecPEs".
    route_to_sec: bool,
    /// When `true`, mappers feed original PriPE ids to the profiler.
    feed_profiler: bool,
    /// Bumped on every reschedule; mappers reset their tables when they
    /// observe a generation change.
    generation: u64,
    /// Per-SecPE phase, indexed by `sec_index = pe_id - M`.
    sec_phases: Vec<SecPhase>,
    /// Tuples routed to each SecPE (by the mappers) and not yet processed.
    /// The drain protocol exits a SecPE only when this reaches zero, which
    /// is the exact form of "all the tuples in the channels whose upstream
    /// is the data routing logic are consumed" (§IV-B).
    sec_inflight: Vec<u64>,
    /// Request flag for the merger to fold SecPE partials.
    merge_request: bool,
    /// Set by the merger once the fold completed.
    merge_done: bool,
    /// Completed reschedules.
    reschedules: u64,
    /// Set by the memory reader once its source is exhausted and staged
    /// tuples are in the lanes: the rate the profiler monitors can only
    /// fall from then on, and that fall is not a skew change.
    source_drained: bool,
    /// Closed protocol-phase intervals, written by the profiler.
    protocol_cycles: ProtocolCycles,
    /// The open protocol phase and the cycle it was entered (`None`
    /// without a profiler).
    protocol_open: Option<(ProtocolPhase, Cycle)>,
    /// The compiled execution plan of the current phase, applied at every
    /// reschedule boundary (see [`PhasePlan`]).
    phase_plan: PhasePlan,
    /// Phase sequence stamped onto the next applied plan.
    next_phase: u64,
}

impl Control {
    /// Creates the control block for `x_sec` SecPEs, with routing enabled.
    pub fn new(x_sec: u32) -> Self {
        Control {
            route_to_sec: true,
            feed_profiler: false,
            generation: 0,
            sec_phases: vec![SecPhase::Running; x_sec as usize],
            sec_inflight: vec![0; x_sec as usize],
            merge_request: false,
            merge_done: false,
            reschedules: 0,
            source_drained: false,
            protocol_cycles: ProtocolCycles::default(),
            protocol_open: None,
            phase_plan: PhasePlan::default(),
            next_phase: 0,
        }
    }

    /// Number of SecPEs.
    pub fn x_sec(&self) -> u32 {
        self.sec_phases.len() as u32
    }

    /// Whether mappers may redirect tuples to SecPEs.
    pub fn route_to_sec(&self) -> bool {
        self.route_to_sec
    }

    /// Enables/disables SecPE routing.
    pub fn set_route_to_sec(&mut self, on: bool) {
        self.route_to_sec = on;
    }

    /// Whether mappers should feed PriPE ids to the profiler.
    pub fn feed_profiler(&self) -> bool {
        self.feed_profiler
    }

    /// Turns the profiler feed on or off.
    pub fn set_feed_profiler(&mut self, on: bool) {
        self.feed_profiler = on;
    }

    /// Current mapper-table generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Starts a new generation (mappers reset to identity on observing it).
    pub fn bump_generation(&mut self) {
        self.generation += 1;
    }

    /// Phase of SecPE `sec_index` (0-based, *not* the PE id).
    ///
    /// # Panics
    ///
    /// Panics if `sec_index` is out of range.
    pub fn sec_phase(&self, sec_index: usize) -> SecPhase {
        self.sec_phases[sec_index]
    }

    /// Sets the phase of SecPE `sec_index`.
    ///
    /// # Panics
    ///
    /// Panics if `sec_index` is out of range.
    pub fn set_sec_phase(&mut self, sec_index: usize, phase: SecPhase) {
        self.sec_phases[sec_index] = phase;
    }

    /// Moves every running SecPE to [`SecPhase::Draining`].
    pub fn drain_all_secs(&mut self) {
        for p in &mut self.sec_phases {
            if *p == SecPhase::Running {
                *p = SecPhase::Draining;
            }
        }
    }

    /// Re-enqueues all SecPEs ([`SecPhase::Running`]).
    pub fn restart_all_secs(&mut self) {
        self.sec_phases.fill(SecPhase::Running);
    }

    /// `true` when every SecPE has exited (vacuously true with X = 0).
    pub fn all_secs_exited(&self) -> bool {
        self.sec_phases.iter().all(|&p| p == SecPhase::Exited)
    }

    /// Records a tuple routed towards SecPE `sec_index` (mapper side).
    ///
    /// # Panics
    ///
    /// Panics if `sec_index` is out of range.
    pub fn sec_inflight_inc(&mut self, sec_index: usize) {
        self.sec_inflight[sec_index] += 1;
    }

    /// Records a tuple consumed by SecPE `sec_index` (PE side).
    ///
    /// # Panics
    ///
    /// Panics if `sec_index` is out of range or the count would go negative.
    pub fn sec_inflight_dec(&mut self, sec_index: usize) {
        let count = &mut self.sec_inflight[sec_index];
        assert!(*count > 0, "in-flight underflow for SecPE {sec_index}");
        *count -= 1;
    }

    /// Tuples currently in flight towards SecPE `sec_index`.
    ///
    /// # Panics
    ///
    /// Panics if `sec_index` is out of range.
    pub fn sec_inflight(&self, sec_index: usize) -> u64 {
        self.sec_inflight[sec_index]
    }

    /// Asks the merger to fold SecPE partials into PriPE buffers.
    pub fn request_merge(&mut self) {
        self.merge_done = false;
        self.merge_request = true;
    }

    /// Consumed by the merger: returns `true` exactly once per request.
    pub fn take_merge_request(&mut self) -> bool {
        std::mem::take(&mut self.merge_request)
    }

    /// Marks the requested merge as complete.
    pub fn set_merge_done(&mut self) {
        self.merge_done = true;
    }

    /// `true` once the last requested merge completed.
    pub fn merge_done(&self) -> bool {
        self.merge_done
    }

    /// The compiled execution plan of the current phase.
    pub fn phase_plan(&self) -> &PhasePlan {
        &self.phase_plan
    }

    /// Installs `plan` as the new phase, stamping it with the next phase
    /// sequence number (0 for the initial build-time plan). Called at
    /// every reschedule boundary: pipeline assembly, plan distribution,
    /// drain completion.
    pub fn apply_phase_plan(&mut self, mut plan: PhasePlan) {
        plan.set_phase(self.next_phase);
        self.next_phase += 1;
        self.phase_plan = plan;
    }

    /// Number of completed reschedules.
    pub fn reschedules(&self) -> u64 {
        self.reschedules
    }

    /// Counts one completed reschedule.
    pub fn count_reschedule(&mut self) {
        self.reschedules += 1;
    }

    /// `true` once the memory reader has drained its source.
    pub fn source_drained(&self) -> bool {
        self.source_drained
    }

    /// Records that the memory reader has drained its source (permanent:
    /// an exhausted source never refills).
    pub fn set_source_drained(&mut self) {
        self.source_drained = true;
    }

    /// Closes the open protocol phase at `cy` and opens `phase` there.
    pub(crate) fn enter_protocol_phase(&mut self, phase: ProtocolPhase, cy: Cycle) {
        if let Some((open, since)) = self.protocol_open {
            *self.protocol_cycles.of_mut(open) += cy - since;
        }
        self.protocol_open = Some((phase, cy));
    }

    /// Cycles per protocol phase up to `now`, the open phase included.
    pub fn protocol_cycles(&self, now: Cycle) -> ProtocolCycles {
        let mut cycles = self.protocol_cycles;
        if let Some((open, since)) = self.protocol_open {
            *cycles.of_mut(open) += now - since;
        }
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sec_phase_lifecycle() {
        let mut c = Control::new(3);
        assert!(!c.all_secs_exited());
        c.drain_all_secs();
        for i in 0..3 {
            assert_eq!(c.sec_phase(i), SecPhase::Draining);
            c.set_sec_phase(i, SecPhase::Exited);
        }
        assert!(c.all_secs_exited());
        c.restart_all_secs();
        assert_eq!(c.sec_phase(0), SecPhase::Running);
    }

    #[test]
    fn drain_does_not_resurrect_exited_secs() {
        let mut c = Control::new(2);
        c.set_sec_phase(0, SecPhase::Exited);
        c.drain_all_secs();
        assert_eq!(c.sec_phase(0), SecPhase::Exited);
        assert_eq!(c.sec_phase(1), SecPhase::Draining);
    }

    #[test]
    fn zero_secpes_are_vacuously_exited() {
        let c = Control::new(0);
        assert!(c.all_secs_exited());
    }

    #[test]
    fn merge_request_is_consumed_once() {
        let mut c = Control::new(1);
        c.request_merge();
        assert!(c.take_merge_request());
        assert!(!c.take_merge_request());
        assert!(!c.merge_done());
        c.set_merge_done();
        assert!(c.merge_done());
    }

    #[test]
    fn phase_plans_stamp_sequential_phases() {
        let mut c = Control::new(2);
        assert_eq!(c.phase_plan().phase(), 0);
        assert_eq!(c.phase_plan().pe_count(), 0, "default plan is empty");
        c.apply_phase_plan(PhasePlan::pri_only(4, 2));
        assert_eq!(c.phase_plan().phase(), 0);
        assert_eq!(c.phase_plan().active_pes(), 4);
        c.apply_phase_plan(PhasePlan::pri_only(4, 2));
        assert_eq!(c.phase_plan().phase(), 1);
    }

    #[test]
    fn generation_bumps() {
        let mut c = Control::new(1);
        assert_eq!(c.generation(), 0);
        c.bump_generation();
        c.bump_generation();
        assert_eq!(c.generation(), 2);
    }

    #[test]
    fn control_in_arena_is_send() {
        fn assert_send<T: Send>(_t: &T) {}
        let mut engine = hls_sim::Engine::new();
        let id = engine.state(Control::new(2));
        assert_send(&engine);
        assert_eq!(engine.context().state(id).x_sec(), 2);
    }
}
