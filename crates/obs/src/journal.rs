//! The batch-span tracing journal: fixed-capacity ring buffers of
//! structured lifecycle events, exportable as Chrome trace-event JSON.
//!
//! Every layer that touches a batch records a [`SpanEvent`] into its own
//! [`SpanJournal`] (wire: accept/admit/shed/reply; cluster: merge; shard:
//! queue/step/drain). Events are keyed by a span id — the cluster batch id,
//! which the wire layer derives from the client `seq` at admission — so
//! draining all journals and concatenating them reconstructs each batch's
//! full `accept → admit → queue → step → drain → merge → reply` flame row.
//!
//! The ring buffer evicts oldest-first at capacity; the lifetime
//! [`recorded`](SpanJournal::recorded)/[`evicted`](SpanJournal::evicted)
//! counters stay exact across eviction (pinned by test).

use crate::clock;

/// A lifecycle stage of one batch's journey through the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanStage {
    /// Wire: frame received off the socket.
    Accept,
    /// Wire: admission granted, batch id assigned.
    Admit,
    /// Wire: admission refused (load shed). Terminal for its span.
    Shed,
    /// Serve: tuples enqueued onto a shard worker.
    Queue,
    /// Serve: start of the first engine step-poll after the batch's enqueue.
    Step,
    /// Serve: shard watermark reached, batch drained from the shard.
    Drain,
    /// Serve: cluster folded the shard completion into the batch total.
    Merge,
    /// Wire: `Done` dispatched back to the client.
    Reply,
}

impl SpanStage {
    /// Stable wire discriminant.
    pub fn as_u8(self) -> u8 {
        match self {
            SpanStage::Accept => 0,
            SpanStage::Admit => 1,
            SpanStage::Shed => 2,
            SpanStage::Queue => 3,
            SpanStage::Step => 4,
            SpanStage::Drain => 5,
            SpanStage::Merge => 6,
            SpanStage::Reply => 7,
        }
    }

    /// Inverse of [`as_u8`](Self::as_u8).
    pub fn from_u8(v: u8) -> Option<SpanStage> {
        Some(match v {
            0 => SpanStage::Accept,
            1 => SpanStage::Admit,
            2 => SpanStage::Shed,
            3 => SpanStage::Queue,
            4 => SpanStage::Step,
            5 => SpanStage::Drain,
            6 => SpanStage::Merge,
            7 => SpanStage::Reply,
            _ => return None,
        })
    }

    /// The stage's trace label.
    pub fn name(self) -> &'static str {
        match self {
            SpanStage::Accept => "accept",
            SpanStage::Admit => "admit",
            SpanStage::Shed => "shed",
            SpanStage::Queue => "queue",
            SpanStage::Step => "step",
            SpanStage::Drain => "drain",
            SpanStage::Merge => "merge",
            SpanStage::Reply => "reply",
        }
    }
}

/// One structured journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span id: the cluster batch id (sheds use `seq | 1 << 63`).
    pub span: u64,
    /// Which lifecycle stage this event marks.
    pub stage: SpanStage,
    /// Microseconds since the process [`clock`] epoch.
    pub wall_us: u64,
    /// Simulated engine cycle at record time (0 where no engine is in
    /// scope, e.g. wire-side events).
    pub cycle: u64,
    /// Recording shard (`u32::MAX` for cluster/wire-level events).
    pub shard: u32,
    /// Tuples carried by the batch at this stage (0 when unknown).
    pub tuples: u64,
    /// Hosted app id (stamped by the wire layer; 0 for in-process use).
    pub app: u16,
}

/// A shard/cluster/wire-level event with no shard affinity.
pub const NO_SHARD: u32 = u32::MAX;

/// A fixed-capacity ring buffer of [`SpanEvent`]s, oldest-evicted.
///
/// # Example
///
/// ```
/// use ditto_obs::{SpanJournal, SpanStage};
///
/// let mut j = SpanJournal::new(2);
/// j.record(1, SpanStage::Queue, 0, 0, 64);
/// j.record(1, SpanStage::Drain, 10, 0, 64);
/// j.record(2, SpanStage::Queue, 11, 0, 32); // evicts span 1's Queue
/// assert_eq!(j.recorded(), 3);
/// assert_eq!(j.evicted(), 1);
/// let events = j.drain();
/// assert_eq!(events.len(), 2);
/// assert_eq!(events[0].stage, SpanStage::Drain);
/// ```
#[derive(Debug, Clone)]
pub struct SpanJournal {
    capacity: usize,
    events: std::collections::VecDeque<SpanEvent>,
    recorded: u64,
    evicted: u64,
}

impl SpanJournal {
    /// A journal holding at most `capacity` events (capacity 0 disables
    /// recording entirely — every record is an immediate eviction-free
    /// no-op except the lifetime counter).
    pub fn new(capacity: usize) -> Self {
        SpanJournal {
            capacity,
            events: std::collections::VecDeque::with_capacity(capacity.min(4096)),
            recorded: 0,
            evicted: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records an event stamped with the current wall clock.
    pub fn record(&mut self, span: u64, stage: SpanStage, cycle: u64, shard: u32, tuples: u64) {
        self.record_at(span, stage, clock::wall_us_now(), cycle, shard, tuples);
    }

    /// Records an event with an explicit wall timestamp — how the wire
    /// layer back-fills `Accept` (stamped when the frame arrived) once
    /// admission assigns the span id.
    pub fn record_at(
        &mut self,
        span: u64,
        stage: SpanStage,
        wall_us: u64,
        cycle: u64,
        shard: u32,
        tuples: u64,
    ) {
        self.push(SpanEvent {
            span,
            stage,
            wall_us,
            cycle,
            shard,
            tuples,
            app: 0,
        });
    }

    /// Records a fully-formed event (journal-to-journal transfer).
    pub fn push(&mut self, e: SpanEvent) {
        self.recorded += 1;
        if self.capacity == 0 {
            self.evicted += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.evicted += 1;
        }
        self.events.push_back(e);
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Lifetime events recorded (exact across eviction).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Lifetime events evicted by overflow (exact).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Removes and returns all buffered events, oldest first. Lifetime
    /// counters are unaffected.
    pub fn drain(&mut self) -> Vec<SpanEvent> {
        self.events.drain(..).collect()
    }

    /// A copy of the buffered events, oldest first.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.events.iter().copied().collect()
    }
}

/// Renders journal events as Chrome trace-event JSON (the
/// `chrome://tracing` / Perfetto import format).
///
/// Each batch becomes one flame row: consecutive stage events of a span
/// turn into `"X"` (complete) slices named after the *starting* stage, with
/// `pid` = app id and `tid` = span id, so loading the file shows one
/// horizontal `accept → admit → queue → step → drain → merge → reply` lane
/// per batch. The final stage gets a zero-duration terminator slice so it
/// is visible too. Events carry `cycle`/`shard`/`tuples` in `args`.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut by_span: std::collections::BTreeMap<(u16, u64), Vec<&SpanEvent>> =
        std::collections::BTreeMap::new();
    for e in events {
        by_span.entry((e.app, e.span)).or_default().push(e);
    }
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for ((app, span), mut evs) in by_span {
        evs.sort_by_key(|e| (e.wall_us, e.stage));
        for (i, e) in evs.iter().enumerate() {
            let dur = evs.get(i + 1).map_or(0, |n| n.wall_us - e.wall_us);
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"cycle\":{},\"shard\":{},\"tuples\":{}}}}}",
                e.stage.name(),
                app,
                span,
                e.wall_us,
                dur,
                e.cycle,
                if e.shard == NO_SHARD {
                    -1
                } else {
                    e.shard as i64
                },
                e.tuples,
            ));
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_evicts_oldest_and_counts_stay_exact() {
        let mut j = SpanJournal::new(3);
        for span in 0..10u64 {
            j.record(span, SpanStage::Queue, span, 0, 1);
        }
        assert_eq!(j.recorded(), 10);
        assert_eq!(j.evicted(), 7);
        assert_eq!(j.len(), 3);
        let spans: Vec<u64> = j.drain().iter().map(|e| e.span).collect();
        assert_eq!(spans, vec![7, 8, 9], "oldest events must be evicted first");
        assert_eq!(j.recorded(), 10, "drain must not reset lifetime counters");
    }

    #[test]
    fn zero_capacity_disables_buffering_but_counts() {
        let mut j = SpanJournal::new(0);
        j.record(1, SpanStage::Queue, 0, 0, 1);
        assert_eq!(j.recorded(), 1);
        assert_eq!(j.evicted(), 1);
        assert!(j.is_empty());
    }

    #[test]
    fn chrome_trace_groups_by_span_with_durations() {
        let mut j = SpanJournal::new(16);
        j.record_at(5, SpanStage::Queue, 100, 0, 0, 64);
        j.record_at(5, SpanStage::Drain, 160, 900, 0, 64);
        let json = chrome_trace_json(&j.drain());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"queue\""));
        assert!(
            json.contains("\"dur\":60"),
            "queue→drain gap is the slice: {json}"
        );
        assert!(json.contains("\"tid\":5"));
        assert!(json.contains("\"cycle\":900"));
    }

    #[test]
    fn stage_discriminants_roundtrip() {
        for v in 0..8u8 {
            let s = SpanStage::from_u8(v).unwrap();
            assert_eq!(s.as_u8(), v);
        }
        assert_eq!(SpanStage::from_u8(8), None);
    }
}
