//! The memory access engine (§IV-C4): streams tuples into the PrePE lanes.

use hls_sim::{ChannelBankId, CounterId, Cycle, Kernel, Progress, SimContext, StreamSource};

use crate::control::ControlId;
use crate::Tuple;

/// Streams tuples from a [`StreamSource`] into the N PrePE lanes (the
/// `lane` channel bank), round-robin, respecting the source's bandwidth budget and the lanes'
/// backpressure.
///
/// Models the paper's memory access engine, which "coalesces memory
/// requests and accesses the global memory in a burst manner": the source
/// enforces the `Wmem/Wtuple` per-cycle budget (and burst latency), and a
/// small staging buffer absorbs the mismatch between burst arrival and lane
/// acceptance — when the lanes stall, the staging buffer fills and the
/// engine stops pulling, exactly like DMA backpressure.
pub struct MemoryReaderKernel {
    name: String,
    source: Box<dyn StreamSource<Tuple>>,
    lanes: ChannelBankId<Tuple>,
    /// Staging buffer: `staging[staged..]` are the queued tuples. The
    /// source appends at the tail; the lane distributor consumes from
    /// `staged`, and the vector is reset once fully drained — FIFO
    /// semantics without ring-buffer bookkeeping or an intermediate copy.
    staging: Vec<Tuple>,
    staged: usize,
    staging_cap: usize,
    next_lane: usize,
    issued: CounterId,
    /// Control block told when the source runs dry (see
    /// [`reports_drain_to`](Self::reports_drain_to)).
    control: Option<ControlId>,
    /// Counts the cycles that end with tuples still staged (see
    /// [`counts_lane_waits_to`](Self::counts_lane_waits_to)).
    lane_waits: Option<CounterId>,
}

impl MemoryReaderKernel {
    /// Creates a reader feeding `lanes`; `issued` counts tuples entering
    /// the pipeline (used by the run report).
    pub fn new(
        source: Box<dyn StreamSource<Tuple>>,
        lanes: ChannelBankId<Tuple>,
        issued: CounterId,
    ) -> Self {
        let staging_cap = lanes.members() * 4;
        MemoryReaderKernel {
            name: "memory-reader".to_owned(),
            source,
            lanes,
            staging: Vec::with_capacity(staging_cap),
            staged: 0,
            staging_cap,
            next_lane: 0,
            issued,
            control: None,
            lane_waits: None,
        }
    }

    /// Sets [`Control::set_source_drained`](crate::Control::set_source_drained)
    /// in the cycle the reader drains, so the profiler does not mistake the
    /// end of the input for a skew change.
    pub fn reports_drain_to(mut self, control: ControlId) -> Self {
        self.control = Some(control);
        self
    }

    /// Adds one to `waits` in every cycle that ends with tuples still
    /// staged, i.e. input waiting at the lanes. The pre-armed profiler's
    /// probe triggers only on windows where that held every cycle, so a
    /// starved pipeline cannot pass for a skewed one.
    pub fn counts_lane_waits_to(mut self, waits: CounterId) -> Self {
        self.lane_waits = Some(waits);
        self
    }

    fn staging_len(&self) -> usize {
        self.staging.len() - self.staged
    }

    /// `true` once the source is exhausted and the staging buffer drained.
    pub fn drained(&self) -> bool {
        self.source.exhausted() && self.staging_len() == 0
    }
}

impl Kernel for MemoryReaderKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, cy: Cycle, ctx: &mut SimContext) -> Progress {
        // Reset the drained staging vector so the source appends at the
        // front again, then pull this cycle's burst (the source
        // rate-limits) straight into it — no intermediate buffer.
        if self.staged == self.staging.len() {
            self.staging.clear();
            self.staged = 0;
        } else if self.staged >= self.staging_cap * 4 {
            // Steady-state compaction: shift the few queued tuples to the
            // front so the vector stays bounded (amortised O(1) per tuple).
            self.staging.drain(..self.staged);
            self.staged = 0;
        }
        let room = self.staging_cap - self.staging_len();
        if room > 0 && !self.source.exhausted() {
            self.source.pull(cy, room, &mut self.staging);
        }

        // Distribute round-robin: at most one tuple per lane per cycle
        // (each PrePE reads one tuple per cycle at best).
        let before = self.staged;
        let (staging, staged, next_lane) = (&self.staging, &mut self.staged, &mut self.next_lane);
        ctx.bank_with(self.lanes, |lanes| {
            for _ in 0..lanes.members() {
                let Some(&tuple) = staging.get(*staged) else {
                    break;
                };
                if lanes.try_send(cy, *next_lane, tuple).is_ok() {
                    *staged += 1;
                }
                // Advance even when the lane stalls: hardware lane FIFOs
                // fill independently and a single busy lane must not starve
                // the rest.
                *next_lane = (*next_lane + 1) % lanes.members();
            }
        });
        ctx.counter_add(self.issued, (self.staged - before) as u64);
        if let Some(waits) = self.lane_waits {
            ctx.counter_add(waits, u64::from(self.staging_len() > 0));
        }

        // The reader only parks once the source is exhausted and staging is
        // drained — a permanent condition, so no wake subscription is
        // needed. While staging holds tuples it must retry every cycle so
        // lane stalls keep being counted, exactly like the original engine.
        if self.drained() {
            if let Some(control) = self.control {
                ctx.state_mut(control).set_source_drained();
            }
            Progress::Sleep
        } else {
            Progress::Busy
        }
    }

    fn is_idle(&self, _ctx: &SimContext) -> bool {
        self.drained()
    }

    fn hold_until(&self, cy: Cycle, _ctx: &SimContext) -> Option<Cycle> {
        if self.staging_len() > 0 {
            // Queued tuples retry the lanes every cycle (counting stalls):
            // never skippable.
            return None;
        }
        if self.source.exhausted() {
            return Some(Cycle::MAX);
        }
        // Staging is empty: until the source's next grant, every step is a
        // zero pull followed by an empty distribution loop.
        let next = self.source.next_pull_at(cy);
        (next > cy).then_some(next)
    }

    fn is_quiescence_gate(&self) -> bool {
        // The pipeline cannot drain while the source still has tuples, so
        // the engine can skip the full idle scan until the reader drains.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_sim::{Engine, MemoryModel, SliceSource};

    #[test]
    fn distributes_all_tuples_round_robin() {
        let n = 4;
        let mut engine = Engine::new();
        let lanes = engine.channel_bank::<Tuple>("lane", 0, n, 64);
        let data: Vec<Tuple> = (0..100).map(Tuple::from_key).collect();
        let src = SliceSource::new(data, 8, MemoryModel::new(32, 0)); // 4/cycle
        let issued = engine.counter();
        engine.add_kernel(MemoryReaderKernel::new(Box::new(src), lanes, issued));
        engine.run_cycles(200);
        assert_eq!(engine.context().counter(issued), 100);
        let per_lane: Vec<u64> = engine.channel_stats().iter().map(|s| s.pushes).collect();
        assert_eq!(per_lane, vec![25, 25, 25, 25]);
    }

    #[test]
    fn backpressure_stops_pulling() {
        let mut engine = Engine::new();
        let lane = engine.channel_bank::<Tuple>("lane", 0, 1, 4);
        let data: Vec<Tuple> = (0..1000).map(Tuple::from_key).collect();
        let src = SliceSource::new(data, 8, MemoryModel::new(64, 0));
        let issued = engine.counter();
        let mut reader = MemoryReaderKernel::new(Box::new(src), lane, issued);
        let ctx = engine.context_mut();
        for cy in 0..100 {
            reader.step(cy, ctx);
        }
        // Lane capacity 4, staging 4: nothing downstream consumes, so at
        // most capacity + staging tuples leave the source.
        assert!(ctx.counter(issued) <= 4);
        assert!(!reader.drained());
    }
}
