//! Architecture configuration.

/// How the host re-enqueues the profiler and SecPE kernels after a
/// reschedule (§IV-B) — a design axis of the online flow, like X.
///
/// The paper's host dequeues the exited kernels and only then enqueues the
/// next generation, so every reschedule runs PriPE-only for the whole
/// kernel dequeue/enqueue overhead. OpenCL command queues are in-order,
/// though: the host can enqueue generation g+1's profiler and SecPEs behind
/// generation g's while g runs, and they start as soon as g's kernels exit.
///
/// The protocol also decides how the profiler watches for a skew change.
/// Serial keeps the paper's tumbling `monitor_window`. Pre-armed, a false
/// alarm costs only the drain and one profiling window, so the profiler
/// can afford to probe every `profile_cycles` instead, gated on input
/// waiting at the lanes (see the [`profiler`](crate::profiler) module).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Requeue {
    /// The next generation is enqueued while the current one runs: after
    /// the merge at cycle `cy` the SecPEs restart at
    /// `max(cy, armed_at + overhead)`, where `armed_at` is the cycle the
    /// current generation started. The overhead is exposed only when a
    /// reschedule completes less than `overhead` cycles after the last one.
    /// The monitor probes every profiling window and triggers on one whose
    /// rate falls below `threshold × peak` while input waited at the lanes
    /// in each of its cycles.
    #[default]
    PreArmed,
    /// The paper's serial round trip: the SecPEs restart at
    /// `cy + overhead`, every time. The monitor is the paper's tumbling
    /// `monitor_window`.
    Serial,
}

/// Configuration of one generated implementation.
///
/// `n_pre`/`m_pri` come from Equation 1; `x_sec` selects the
/// skew-handling capacity (the paper generates variants with X = 0..M−1
/// and the skew analyzer picks one; `ditto_plan`'s `Planner::select`
/// runs both steps). The remaining knobs model channel depths and the
/// runtime-profiler parameters.
///
/// # Example
///
/// ```
/// use ditto_core::ArchConfig;
///
/// let cfg = ArchConfig::new(8, 16, 4)
///     .with_pe_entries(2048)
///     .with_reschedule(0.5, 100_000);
/// assert_eq!(cfg.label(), "16P+4S");
/// assert_eq!(cfg.words_per_cycle(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArchConfig {
    /// Number of PrePEs (and mapper lanes), N.
    pub n_pre: u32,
    /// Number of PriPEs, M.
    pub m_pri: u32,
    /// Number of SecPEs, X (bounded by M−1).
    pub x_sec: u32,
    /// Entries in each destination PE's private buffer.
    pub pe_entries: usize,
    /// Depth of each PE input queue (filter → PE).
    pub pe_queue_depth: usize,
    /// Depth of the wide-word channels (combiner → filter).
    pub word_queue_depth: usize,
    /// Depth of lane channels (reader → PrePE → mapper → combiner).
    pub lane_queue_depth: usize,
    /// Profiling window, cycles (the paper's example: 256); also the
    /// pre-armed monitor's probe window.
    pub profile_cycles: u64,
    /// Throughput-monitoring window, cycles: the trigger under
    /// [`Requeue::Serial`], the peak's window under [`Requeue::PreArmed`].
    pub monitor_window: u64,
    /// Reschedule threshold as a fraction of peak rate; 0 disables.
    pub reschedule_threshold: f64,
    /// Kernel dequeue/enqueue overhead modelled on reschedule, cycles.
    pub requeue_overhead_cycles: u64,
    /// Whether that overhead overlaps the running generation
    /// ([`Requeue::PreArmed`], the default) or follows the merge
    /// ([`Requeue::Serial`], the paper's protocol), and with it which
    /// monitor triggers a reschedule.
    pub requeue: Requeue,
    /// When `true`, the engine's steady-state fast-forward is enabled:
    /// whenever every awake kernel can prove its next cycles are
    /// observational no-ops, the engine jumps the cycle counter straight
    /// to the next event horizon instead of stepping through the gap.
    /// Bit-identical to cycle stepping (cycles, per-PE workloads, channel
    /// statistics) by construction; defaults to `false` so the
    /// cycle-equivalence goldens pin both modes against each other.
    pub steady_state_fast_forward: bool,
}

impl ArchConfig {
    /// Creates a configuration with the paper-inspired defaults: 512-deep
    /// PE queues, 64-deep wide-word channels (deep enough to absorb
    /// short-term skew bursts, §VI-D), 256-cycle profiling window,
    /// rescheduling disabled (offline mode).
    ///
    /// # Panics
    ///
    /// Panics if `n_pre` or `m_pri` is zero, or `x_sec >= m_pri`.
    pub fn new(n_pre: u32, m_pri: u32, x_sec: u32) -> Self {
        assert!(n_pre > 0, "need at least one PrePE");
        assert!(m_pri > 0, "need at least one PriPE");
        assert!(x_sec < m_pri, "X is bounded by M-1 (§V-C)");
        ArchConfig {
            n_pre,
            m_pri,
            x_sec,
            pe_entries: 1024,
            pe_queue_depth: 512,
            word_queue_depth: 64,
            lane_queue_depth: 8,
            profile_cycles: 256,
            monitor_window: 2_048,
            reschedule_threshold: 0.0,
            requeue_overhead_cycles: 200_000,
            requeue: Requeue::PreArmed,
            steady_state_fast_forward: false,
        }
    }

    /// The paper's evaluation shape: 8 PrePEs, 16 PriPEs (8-byte tuples on
    /// a 64-byte interface, II_pri = 2) and `x_sec` SecPEs.
    pub fn paper(x_sec: u32) -> Self {
        Self::new(8, 16, x_sec)
    }

    /// Sets the per-PE buffer entry count.
    pub fn with_pe_entries(mut self, entries: usize) -> Self {
        self.pe_entries = entries;
        self
    }

    /// Enables online rescheduling with the given threshold fraction and
    /// kernel requeue overhead in cycles.
    pub fn with_reschedule(mut self, threshold: f64, overhead_cycles: u64) -> Self {
        self.reschedule_threshold = threshold;
        self.requeue_overhead_cycles = overhead_cycles;
        self
    }

    /// Sets how the host re-enqueues kernels after a reschedule.
    pub fn with_requeue(mut self, requeue: Requeue) -> Self {
        self.requeue = requeue;
        self
    }

    /// Sets the profiling window length.
    pub fn with_profile_cycles(mut self, cycles: u64) -> Self {
        self.profile_cycles = cycles;
        self
    }

    /// Sets the throughput-monitoring window length.
    pub fn with_monitor_window(mut self, cycles: u64) -> Self {
        self.monitor_window = cycles;
        self
    }

    /// Sets the PE input queue depth.
    pub fn with_pe_queue_depth(mut self, depth: usize) -> Self {
        self.pe_queue_depth = depth;
        self
    }

    /// Enables or disables steady-state fast-forward (see the field docs).
    pub fn with_steady_state_fast_forward(mut self, on: bool) -> Self {
        self.steady_state_fast_forward = on;
        self
    }

    /// Total destination PEs (M + X).
    pub fn destination_pes(&self) -> u32 {
        self.m_pri + self.x_sec
    }

    /// Peak input words (tuples) per cycle the reader injects — equals N
    /// for II_pre = 1.
    pub fn words_per_cycle(&self) -> u32 {
        self.n_pre
    }

    /// Table III style label (`16P`, `16P+4S`, …).
    pub fn label(&self) -> String {
        if self.x_sec == 0 {
            format!("{}P", self.m_pri)
        } else {
            format!("{}P+{}S", self.m_pri, self.x_sec)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shape() {
        let cfg = ArchConfig::paper(15);
        assert_eq!(cfg.n_pre, 8);
        assert_eq!(cfg.m_pri, 16);
        assert_eq!(cfg.destination_pes(), 31);
        assert_eq!(cfg.label(), "16P+15S");
    }

    #[test]
    fn builders_chain() {
        let cfg = ArchConfig::new(4, 8, 2)
            .with_pe_entries(64)
            .with_reschedule(0.4, 1_000)
            .with_requeue(Requeue::Serial)
            .with_profile_cycles(128)
            .with_monitor_window(512)
            .with_pe_queue_depth(32);
        assert_eq!(cfg.pe_entries, 64);
        assert_eq!(cfg.reschedule_threshold, 0.4);
        assert_eq!(cfg.requeue_overhead_cycles, 1_000);
        assert_eq!(cfg.requeue, Requeue::Serial);
        assert_eq!(ArchConfig::paper(1).requeue, Requeue::PreArmed);
        assert_eq!(cfg.profile_cycles, 128);
        assert_eq!(cfg.monitor_window, 512);
        assert_eq!(cfg.pe_queue_depth, 32);
    }

    #[test]
    #[should_panic(expected = "bounded by M-1")]
    fn x_bound() {
        let _ = ArchConfig::new(8, 16, 16);
    }
}
