//! Analytic models of the prior designs whose artifacts are not public.
//!
//! Table II marks four rows "Original": their numbers were collected from
//! the papers rather than re-run. We model each design's architecture —
//! dispatch scheme, PE count, II, clock, buffering — and derive throughput
//! under the normalised bandwidth, documenting the parameters per design.

/// Dispatch scheme of a prior design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Static assignment with fully replicated buffers (CPU merge after).
    StaticReplicated,
    /// Dynamic data routing with range-partitioned buffers.
    DataRouting,
    /// One monolithic pipeline.
    SinglePipeline,
}

/// An analytically modelled prior design (a Table II comparison row).
#[derive(Debug, Clone)]
pub struct PriorDesign {
    /// Design name (first author, as in Table II).
    pub name: &'static str,
    /// Application it accelerates.
    pub app: &'static str,
    /// HLS or RTL (Table II's P.L. column).
    pub language: &'static str,
    /// Dispatch scheme.
    pub dispatch: Dispatch,
    /// Parallel PEs.
    pub pes: u32,
    /// Initiation interval per PE.
    pub ii: u32,
    /// Clock, MHz.
    pub freq_mhz: f64,
    /// Buffer replicas each PE keeps, relative to a Ditto PE's single
    /// range-partitioned slice (drives the B.U.-saving column).
    pub buffer_replication: u32,
}

impl PriorDesign {
    /// Jiang et al. \[12\] — HLS HISTO, static dispatch, replicated bins,
    /// double-buffered (hence 2M× per-PE BRAM vs Ditto's interleaved bins).
    pub fn jiang_histo() -> Self {
        PriorDesign {
            name: "Jiang et al.",
            app: "HISTO",
            language: "HLS",
            dispatch: Dispatch::StaticReplicated,
            pes: 16,
            ii: 2,
            freq_mhz: 242.0,
            buffer_replication: 32,
        }
    }

    /// Wang et al. \[18\] — HLS multikernel DP with channels; run-time data
    /// dependency forces II ≈ 2.4 per kernel on skew-free input.
    pub fn wang_dp() -> Self {
        PriorDesign {
            name: "Wang et al.",
            app: "DP",
            language: "HLS",
            dispatch: Dispatch::StaticReplicated,
            pes: 8,
            ii: 2,
            freq_mhz: 200.0,
            buffer_replication: 16,
        }
    }

    /// Kara et al. \[17\] — RTL partitioner on a memory system with different
    /// random-access performance (Table II does not normalise it); 16
    /// cache-line writers at II = 1.
    pub fn kara_dp() -> Self {
        PriorDesign {
            name: "Kara et al.",
            app: "DP",
            language: "RTL",
            dispatch: Dispatch::DataRouting,
            pes: 16,
            ii: 1,
            freq_mhz: 200.0,
            buffer_replication: 8,
        }
    }

    /// Zhou et al. \[21\] — HitGraph, RTL edge-centric PR: partition-at-a-time
    /// processing with full edge streaming.
    pub fn zhou_pr() -> Self {
        PriorDesign {
            name: "Zhou et al.",
            app: "PR",
            language: "RTL",
            dispatch: Dispatch::DataRouting,
            pes: 8,
            ii: 2,
            freq_mhz: 200.0,
            buffer_replication: 1,
        }
    }

    /// Kulkarni et al. \[20\] — RTL HLL: fully unrolled murmur pipelines that
    /// already saturate the memory interface, at the higher clock RTL
    /// closes (hence Ditto's 0.9×).
    pub fn kulkarni_hll() -> Self {
        PriorDesign {
            name: "Kulkami et al.",
            app: "HLL",
            language: "RTL",
            dispatch: Dispatch::SinglePipeline,
            pes: 8,
            ii: 1,
            freq_mhz: 280.0,
            buffer_replication: 10,
        }
    }

    /// Tong et al. \[19\] — RTL sketch design: a few replicated pipelines,
    /// each II = 1, merged in hardware; cannot scale to the full interface
    /// width because the sketch is not range-partitioned.
    pub fn tong_hhd() -> Self {
        PriorDesign {
            name: "Tong et al.",
            app: "HHD",
            language: "RTL",
            dispatch: Dispatch::SinglePipeline,
            pes: 4,
            ii: 1,
            freq_mhz: 250.0,
            buffer_replication: 1,
        }
    }

    /// All Table II rows in paper order.
    pub fn table2_rows() -> Vec<PriorDesign> {
        vec![
            Self::jiang_histo(),
            Self::wang_dp(),
            Self::kara_dp(),
            Self::zhou_pr(),
            Self::kulkarni_hll(),
            Self::tong_hhd(),
        ]
    }

    /// Structural tuples-per-cycle ceiling: PEs/II capped by the memory
    /// interface's words per cycle.
    pub fn tuples_per_cycle(&self, interface_words_per_cycle: f64) -> f64 {
        let compute = f64::from(self.pes) / f64::from(self.ii);
        compute.min(interface_words_per_cycle)
    }

    /// Million tuples per second under the normalised bandwidth.
    pub fn throughput_mtps(&self, interface_words_per_cycle: f64) -> f64 {
        self.tuples_per_cycle(interface_words_per_cycle) * self.freq_mhz
    }

    /// CPU post-processing overhead factor on total runtime (replication
    /// designs must aggregate M partial results on the host).
    pub fn post_processing_factor(&self) -> f64 {
        match self.dispatch {
            Dispatch::StaticReplicated => 1.2,
            Dispatch::DataRouting | Dispatch::SinglePipeline => 1.0,
        }
    }

    /// Effective throughput including post-processing.
    pub fn effective_mtps(&self, interface_words_per_cycle: f64) -> f64 {
        self.throughput_mtps(interface_words_per_cycle) / self.post_processing_factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_count_caps_throughput() {
        let tong = PriorDesign::tong_hhd();
        assert_eq!(tong.tuples_per_cycle(8.0), 4.0);
    }

    #[test]
    fn replication_pays_post_processing() {
        let jiang = PriorDesign::jiang_histo();
        assert!(jiang.effective_mtps(8.0) < jiang.throughput_mtps(8.0));
    }

    #[test]
    fn bandwidth_caps_wide_designs() {
        let jiang = PriorDesign::jiang_histo();
        // 16 PEs / II 2 = 8/cycle, equal to the interface: fully fed.
        assert_eq!(jiang.tuples_per_cycle(8.0), 8.0);
        // Narrower interface caps it.
        assert_eq!(jiang.tuples_per_cycle(4.0), 4.0);
    }

    #[test]
    fn table2_has_six_prior_rows() {
        let rows = PriorDesign::table2_rows();
        assert_eq!(rows.len(), 6);
        let apps: Vec<_> = rows.iter().map(|r| r.app).collect();
        assert_eq!(apps, vec!["HISTO", "DP", "DP", "PR", "HLL", "HHD"]);
    }
}
