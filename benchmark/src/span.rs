//! Spans the benchmark records around its own calls into each layer.
//!
//! A span is `{name, layer, start, end, parent, request}`. They are kept in
//! memory, written out as Chrome trace JSON when the traced run ends, and
//! reduced to self times: a span's duration minus the part of it its
//! children cover. Untraced repetitions use a disabled recorder, which
//! still times the call (the workloads need the durations) but stores
//! nothing.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The module the call went into (`datagen`, `hls-sim`, `wire`, …) or
    /// `bench` for the harness's own scaffolding.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Frame sequence number or slice index; spans of one request share it.
    pub request: Option<u64>,
}

pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn disabled() -> Self {
        Self::new(false)
    }

    pub fn enabled() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Spans {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` and returns its result with the wall time it took; when
    /// enabled, also records the call as a span under the innermost open
    /// one. Spans opened inside `f` become its children.
    pub fn scope<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        if !self.enabled {
            let out = f(self);
            return (out, start.elapsed());
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.ns(start),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[id].end_ns = self.ns(end);
        (out, end - start)
    }

    /// Records a span whose ends were stamped elsewhere — a frame in
    /// flight, a send on the generator thread — under the innermost open
    /// span.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            request,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, in nanoseconds.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut by_layer = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            *by_layer.entry(span.layer).or_insert(0) += own;
        }
        by_layer
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, one track per layer.
    pub fn chrome_trace_json(&self) -> String {
        let mut layers: Vec<&str> = self.spans.iter().map(|s| s.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let tid = layers.binary_search(&s.layer).expect("layer listed") + 1;
                let mut args = format!("\"id\": {id}");
                if let Some(p) = s.parent {
                    args.push_str(&format!(", \"parent\": {p}"));
                }
                if let Some(r) = s.request {
                    args.push_str(&format!(", \"request\": {r}"));
                }
                format!(
                    "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                     \"pid\": 1, \"tid\": {tid}, \"args\": {{{args}}}}}",
                    s.name,
                    s.layer,
                    s.start_ns as f64 / 1e3,
                    s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                )
            })
            .collect();
        format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span (children of one parent may
/// overlap — eight frames in flight under one timed region).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.end_ns.saturating_sub(s.start_ns) - covered
        })
        .collect()
}
