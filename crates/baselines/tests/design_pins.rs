//! Cycle pins for the two simulated baselines, captured on the per-kernel
//! engine (one `StaticPe` kernel per lane, reader over plain channels)
//! before they moved onto a `lane` channel bank and one bank kernel: the
//! bank schedule may change `kernel_steps` and nothing else.

use datagen::{Tuple, UniformGenerator, ZipfGenerator};
use ditto_baselines::{SinglePeDesign, StaticReplicationDesign};
use ditto_core::apps::CountPerKey;
use ditto_core::ChannelTotals;

fn datasets() -> [Vec<Tuple>; 2] {
    [
        UniformGenerator::new(1 << 16, 21).take_vec(3_003),
        ZipfGenerator::new(3.0, 1 << 16, 21).take_vec(3_003),
    ]
}

fn totals(pushes: u64, full_stalls: u64, max_occupancy_sum: u64) -> ChannelTotals {
    ChannelTotals {
        pushes,
        pops: pushes,
        full_stalls,
        max_occupancy_sum,
    }
}

#[test]
fn single_pe_matches_per_kernel_engine() {
    for data in datasets() {
        let out = SinglePeDesign::new(1).run(CountPerKey::new(1), data);
        assert_eq!(out.report.cycles, 3_027);
        assert_eq!(out.report.per_pe_processed, vec![3_003]);
        assert_eq!(out.report.channel_totals, totals(3_003, 0, 2));
    }
}

#[test]
fn static_replication_matches_per_kernel_engine() {
    // Static dispatch is skew-immune, so both datasets pin the same numbers.
    for data in datasets() {
        let out = StaticReplicationDesign::new(4, 8, 1).run(CountPerKey::new(1), data);
        assert_eq!(out.report.cycles, 791);
        assert_eq!(
            out.report.per_pe_processed,
            vec![376, 376, 376, 375, 375, 375, 375, 375]
        );
        assert_eq!(out.report.channel_totals, totals(3_003, 2_888, 64));
        for lane in &out.channels {
            assert_eq!(lane.max_occupancy, 8, "{}", lane.name);
        }
    }
}
