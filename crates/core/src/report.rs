//! Execution reports.

use hls_sim::ChannelStats;

/// Aggregate channel activity over a whole run — the order-independent
/// fingerprint the cycle-equivalence regression test checks against the
/// original engine's semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelTotals {
    /// Successful pushes summed over every channel.
    pub pushes: u64,
    /// Successful pops summed over every channel.
    pub pops: u64,
    /// Rejected pushes (producer stalls) summed over every channel.
    pub full_stalls: u64,
    /// Sum of each channel's occupancy high-water mark.
    pub max_occupancy_sum: u64,
}

impl ChannelTotals {
    /// Sums a set of per-channel statistics.
    pub fn aggregate(stats: &[ChannelStats]) -> Self {
        let mut t = ChannelTotals::default();
        for s in stats {
            t.pushes += s.pushes;
            t.pops += s.pops;
            t.full_stalls += s.full_stalls;
            t.max_occupancy_sum += s.max_occupancy as u64;
        }
        t
    }
}

/// Cycles the runtime profiler has spent in each phase of the §IV-B
/// reschedule protocol, accumulated at every phase transition plus the
/// phase still open when read. All zero without SecPEs (there is no
/// profiler); otherwise the fields sum to the elapsed cycles.
///
/// Reading them is bookkeeping only: the profiler writes the ledger in the
/// steps it takes anyway, so the schedule is the same whether anyone reads
/// it or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProtocolCycles {
    /// Counting PriPE ids into the profiling hists.
    pub profiling: u64,
    /// Streaming the generated plan to the mappers.
    pub distributing: u64,
    /// Routing to SecPEs under the current plan, watching the throughput
    /// window (and, once rescheduling is off, just routing).
    pub monitoring: u64,
    /// Waiting for every SecPE to drain and exit.
    pub draining: u64,
    /// Waiting for the merger to fold the SecPE partials.
    pub await_merge: u64,
    /// Waiting for the host to re-enqueue the profiler and SecPEs: the
    /// requeue overhead per reschedule under `Requeue::Serial`, only the
    /// part the running generation did not hide under `Requeue::PreArmed`
    /// (one cycle when it hid all of it).
    pub requeue: u64,
}

/// A phase of the §IV-B protocol, naming one [`ProtocolCycles`] field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProtocolPhase {
    Profiling,
    Distributing,
    Monitoring,
    Draining,
    AwaitMerge,
    Requeue,
}

impl ProtocolCycles {
    /// The sum over every phase.
    pub fn total(&self) -> u64 {
        self.profiling
            + self.distributing
            + self.monitoring
            + self.draining
            + self.await_merge
            + self.requeue
    }

    pub(crate) fn of_mut(&mut self, phase: ProtocolPhase) -> &mut u64 {
        match phase {
            ProtocolPhase::Profiling => &mut self.profiling,
            ProtocolPhase::Distributing => &mut self.distributing,
            ProtocolPhase::Monitoring => &mut self.monitoring,
            ProtocolPhase::Draining => &mut self.draining,
            ProtocolPhase::AwaitMerge => &mut self.await_merge,
            ProtocolPhase::Requeue => &mut self.requeue,
        }
    }
}

/// A cheap mid-run statistics snapshot from a live
/// [`PersistentPipeline`](crate::PersistentPipeline).
///
/// Unlike [`ExecutionReport`] it can be taken while the engine is running
/// (no channel-arena scan, no teardown); serving layers poll it to expose
/// live per-shard throughput and workload counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatSnapshot {
    /// Clock cycles simulated so far.
    pub cycles: u64,
    /// Tuples processed by destination PEs so far.
    pub tuples: u64,
    /// Completed reschedules so far.
    pub reschedules: u64,
    /// Scheduling plans generated so far.
    pub plans_generated: u64,
    /// Per-destination-PE processed-tuple counts (`M + X` entries).
    pub per_pe_processed: Vec<u64>,
    /// Kernel step calls executed by the idle-set scheduler so far.
    pub kernel_steps: u64,
    /// Sequence number of the current compiled execution phase (0 = the
    /// initial pri-only phase; +1 per reschedule boundary).
    pub phase: u64,
    /// Destination PEs the current phase plan predicts reachable.
    pub phase_active_pes: u32,
    /// Cycles per phase of the reschedule protocol so far.
    pub protocol_cycles: ProtocolCycles,
}

impl StatSnapshot {
    /// Average throughput in tuples per cycle since engine start.
    pub fn tuples_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.tuples as f64 / self.cycles as f64
    }
}

/// Measurements from one pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Configuration label (`16P+4S`, …).
    pub label: String,
    /// Clock cycles simulated.
    pub cycles: u64,
    /// Tuples processed by destination PEs.
    pub tuples: u64,
    /// Completed reschedules (Fig. 9's right axis).
    pub reschedules: u64,
    /// Scheduling plans generated by the profiler.
    pub plans_generated: u64,
    /// Per-destination-PE processed-tuple counts (`M + X` entries) — the
    /// workload distribution behind Fig. 2a.
    pub per_pe_processed: Vec<u64>,
    /// `true` if the run drained completely (offline mode) or hit its cycle
    /// budget as intended (online mode).
    pub completed: bool,
    /// Aggregate channel activity (pushes, pops, stalls, high-water marks).
    pub channel_totals: ChannelTotals,
    /// Kernel step calls actually executed by the idle-set scheduler
    /// (compare with `cycles × kernel count` for the naive schedule).
    pub kernel_steps: u64,
    /// Cycles per phase of the reschedule protocol.
    pub protocol_cycles: ProtocolCycles,
}

impl ExecutionReport {
    /// Average throughput in tuples per cycle.
    pub fn tuples_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.tuples as f64 / self.cycles as f64
    }

    /// Workload-imbalance ratio: max over mean of the *PriPE* workload
    /// (first `m` entries) — 1.0 is perfectly balanced.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero or exceeds the PE count.
    pub fn imbalance(&self, m: usize) -> f64 {
        assert!(m > 0 && m <= self.per_pe_processed.len(), "invalid M");
        let pri = &self.per_pe_processed[..m];
        let total: u64 = pri.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / m as f64;
        let max = *pri.iter().max().expect("m > 0") as f64;
        max / mean
    }

    /// Per-PE workload normalised to the uniform share across the first `m`
    /// PEs — the quantity plotted in Fig. 2a's heat map.
    pub fn normalized_workload(&self, m: usize) -> Vec<f64> {
        assert!(m > 0 && m <= self.per_pe_processed.len(), "invalid M");
        let pri = &self.per_pe_processed[..m];
        let total: u64 = pri.iter().sum();
        if total == 0 {
            return vec![0.0; m];
        }
        let mean = total as f64 / m as f64;
        pri.iter().map(|&w| w as f64 / mean).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(per_pe: Vec<u64>) -> ExecutionReport {
        ExecutionReport {
            label: "test".into(),
            cycles: 100,
            tuples: per_pe.iter().sum(),
            reschedules: 0,
            plans_generated: 0,
            per_pe_processed: per_pe,
            completed: true,
            channel_totals: ChannelTotals::default(),
            kernel_steps: 0,
            protocol_cycles: ProtocolCycles::default(),
        }
    }

    #[test]
    fn channel_totals_aggregate_sums_fields() {
        let stats = vec![
            ChannelStats {
                name: "a".into(),
                capacity: 4,
                pushes: 10,
                pops: 9,
                full_stalls: 2,
                max_occupancy: 3,
                occupancy: 1,
            },
            ChannelStats {
                name: "b".into(),
                capacity: 4,
                pushes: 5,
                pops: 5,
                full_stalls: 0,
                max_occupancy: 2,
                occupancy: 0,
            },
        ];
        let t = ChannelTotals::aggregate(&stats);
        assert_eq!(t.pushes, 15);
        assert_eq!(t.pops, 14);
        assert_eq!(t.full_stalls, 2);
        assert_eq!(t.max_occupancy_sum, 5);
    }

    #[test]
    fn throughput_math() {
        let r = report(vec![40, 40, 40, 80]);
        assert_eq!(r.tuples, 200);
        assert!((r.tuples_per_cycle() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_of_uniform_is_one() {
        let r = report(vec![50, 50, 50, 50]);
        assert_eq!(r.imbalance(4), 1.0);
    }

    #[test]
    fn imbalance_of_hot_pe() {
        let r = report(vec![160, 0, 0, 0]);
        assert_eq!(r.imbalance(4), 4.0);
    }

    #[test]
    fn normalized_workload_sums_to_m() {
        let r = report(vec![10, 20, 30, 40]);
        let norm = r.normalized_workload(4);
        let sum: f64 = norm.iter().sum();
        assert!((sum - 4.0).abs() < 1e-9);
        assert!((norm[3] - 1.6).abs() < 1e-9);
    }

    #[test]
    fn zero_tuples_is_defined() {
        let r = report(vec![0, 0]);
        assert_eq!(r.imbalance(2), 1.0);
        assert_eq!(r.normalized_workload(2), vec![0.0, 0.0]);
    }
}
