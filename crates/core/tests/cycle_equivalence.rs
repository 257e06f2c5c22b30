//! Cycle-equivalence regression: the arena engine (typed channel arena,
//! idle-set scheduler, broadcast wide words) must reproduce the original
//! `Rc<RefCell>`-channel step-everyone engine *bit for bit* — same cycle
//! counts, same per-PE workloads, same per-channel statistics including
//! stall counts and occupancy high-water marks.
//!
//! The golden values below were captured by running these exact scenarios
//! on the seed engine (PR 1, commit that introduced the workspace
//! manifests) before the arena refactor, and re-pinned once since, when
//! each decoder + filter datapath gained room for a second decoded word
//! (the simulated pipeline changed; the stepping did not). Any scheduling
//! or channel-protocol deviation shows up here as a hard mismatch.

use datagen::{EvolvingZipfStream, Tuple, ZipfGenerator};
use ditto_core::apps::{CountPerKey, ModHistogram};
use ditto_core::{ArchConfig, DittoApp, PersistentPipeline, Requeue, SkewObliviousPipeline};
use hls_sim::{ChannelStats, MemoryModel, SliceSource};

fn channel<'a>(channels: &'a [ChannelStats], name: &str) -> &'a ChannelStats {
    channels
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("channel {name}"))
}

#[track_caller]
fn assert_channel(channels: &[ChannelStats], name: &str, golden: (u64, u64, u64, usize)) {
    let s = channel(channels, name);
    assert_eq!(
        (s.pushes, s.pops, s.full_stalls, s.max_occupancy),
        golden,
        "channel {name}: (pushes, pops, stalls, max_occupancy) diverged from seed semantics"
    );
}

/// Offline, moderately skewed, 3 SecPEs: exercises profiling, plan
/// distribution, SecPE routing and the end-of-run merge.
#[test]
fn offline_skewed_with_secpes_matches_seed() {
    let data = ZipfGenerator::new(1.5, 1 << 12, 7).take_vec(6_000);
    let cfg = ArchConfig::new(4, 8, 3).with_pe_entries(8);
    let out = SkewObliviousPipeline::run_dataset(ModHistogram::new(64), data, &cfg);

    assert_eq!(out.report.cycles, 2_134);
    assert_eq!(out.report.tuples, 6_000);
    assert_eq!(out.report.plans_generated, 1);
    assert_eq!(out.report.reschedules, 0);
    assert_eq!(
        out.report.per_pe_processed,
        vec![334, 290, 538, 238, 236, 868, 390, 1053, 700, 653, 700]
    );
    assert_eq!(out.output.iter().sum::<u64>(), 6_000);

    let t = out.report.channel_totals;
    assert_eq!(
        (t.pushes, t.pops, t.full_stalls, t.max_occupancy_sum),
        (41_360, 41_356, 244, 702)
    );

    assert_channel(&out.channels, "lane0", (1_500, 1_500, 61, 8));
    assert_channel(&out.channels, "word5", (1_500, 1_500, 0, 23));
    assert_channel(&out.channels, "word7", (1_500, 1_500, 0, 64));
    assert_channel(&out.channels, "pein7", (1_053, 1_053, 0, 234));
    assert_channel(&out.channels, "feed0", (212, 211, 0, 2));
}

/// The persistent (serving) API — step → snapshot → drain → `finish_states`
/// — must be observationally identical to the one-shot `run_dataset` path
/// over the same dataset: same completion cycle, same per-PE workloads and
/// channel statistics, same post-merge PriPE states, and mid-run snapshots
/// that are exact prefixes of the final counts. Pinned on the same scenario
/// as [`offline_skewed_with_secpes_matches_seed`] so the persistent path is
/// transitively pinned to the seed goldens too.
#[test]
fn persistent_pipeline_matches_run_dataset() {
    let data = ZipfGenerator::new(1.5, 1 << 12, 7).take_vec(6_000);
    let cfg = ArchConfig::new(4, 8, 3).with_pe_entries(8);
    let app = ModHistogram::new(64);

    let oneshot = SkewObliviousPipeline::run_dataset(app.clone(), data.clone(), &cfg);

    let source = SliceSource::new(data, Tuple::PAPER_WIDTH_BYTES, MemoryModel::new(64, 16));
    let mut p = PersistentPipeline::new(app.clone(), Box::new(source), &cfg)
        .with_label_prefix("persistent");
    let mut last_tuples = 0;
    for chunk in 0..4 {
        p.step_cycles(200);
        let snap = p.snapshot();
        assert_eq!(snap.cycles, 200 * (chunk + 1));
        assert!(snap.tuples >= last_tuples, "processed count is monotonic");
        assert_eq!(
            snap.per_pe_processed.iter().sum::<u64>(),
            snap.tuples,
            "per-PE counts always sum to the total"
        );
        last_tuples = snap.tuples;
    }
    assert!(last_tuples < 6_000, "6k tuples cannot finish in 800 cycles");
    p.expect_drained(100_000);
    let final_snap = p.snapshot();
    let (states, report, channels) = p.finish_states();

    // Snapshot at quiescence equals the final report's counters.
    assert_eq!(final_snap.cycles, report.cycles);
    assert_eq!(final_snap.tuples, report.tuples);
    assert_eq!(final_snap.per_pe_processed, report.per_pe_processed);

    // Bit-identical to the one-shot path (and therefore to the seed
    // goldens): completion cycle, workloads, channel statistics, output.
    assert_eq!(report.cycles, oneshot.report.cycles);
    assert_eq!(report.cycles, 2_134, "seed golden");
    assert_eq!(report.tuples, oneshot.report.tuples);
    assert_eq!(report.per_pe_processed, oneshot.report.per_pe_processed);
    assert_eq!(report.plans_generated, oneshot.report.plans_generated);
    assert_eq!(report.reschedules, oneshot.report.reschedules);
    assert_eq!(report.channel_totals, oneshot.report.channel_totals);
    assert!(report.completed);
    for (a, b) in channels.iter().zip(&oneshot.channels) {
        assert_eq!(
            (a.pushes, a.pops, a.full_stalls, a.max_occupancy),
            (b.pushes, b.pops, b.full_stalls, b.max_occupancy),
            "channel {} diverged between persistent and one-shot runs",
            a.name
        );
    }
    assert_eq!(states.len(), 8, "exactly M post-merge PriPE states");
    assert_eq!(
        app.finalize(states),
        oneshot.output,
        "post-merge PriPE states must finalize to the one-shot output"
    );
}

/// Offline, extreme skew, no SecPEs: the pure collapse path with heavy
/// backpressure (lane stalls, hot-PE queue at capacity).
#[test]
fn offline_extreme_skew_without_secpes_matches_seed() {
    let data = ZipfGenerator::new(3.0, 1 << 20, 5).take_vec(6_000);
    let cfg = ArchConfig::new(4, 8, 0);
    let out = SkewObliviousPipeline::run_dataset(CountPerKey::new(8), data, &cfg);

    assert_eq!(out.report.cycles, 9_869);
    assert_eq!(out.report.tuples, 6_000);
    assert_eq!(out.report.plans_generated, 0);
    assert_eq!(
        out.report.per_pe_processed,
        vec![1, 77, 4921, 2, 28, 209, 757, 5]
    );
    assert_eq!(out.output.iter().sum::<u64>(), 6_000);

    let t = out.report.channel_totals;
    assert_eq!(
        (t.pushes, t.pops, t.full_stalls, t.max_occupancy_sum),
        (36_000, 36_000, 30_930, 700)
    );

    assert_channel(&out.channels, "lane0", (1_500, 1_500, 6_758, 8));
    assert_channel(&out.channels, "word2", (1_500, 1_500, 0, 64));
    assert_channel(&out.channels, "pein2", (4_921, 4_921, 3_898, 512));
}

/// The offline skewed golden, re-run with steady-state fast-forward
/// enabled: event-horizon stepping must reproduce the seed goldens bit for
/// bit — same completion cycle, workloads and per-channel statistics.
#[test]
fn offline_skewed_with_fast_forward_matches_seed() {
    let data = ZipfGenerator::new(1.5, 1 << 12, 7).take_vec(6_000);
    let cfg = ArchConfig::new(4, 8, 3)
        .with_pe_entries(8)
        .with_steady_state_fast_forward(true);
    let out = SkewObliviousPipeline::run_dataset(ModHistogram::new(64), data, &cfg);

    assert_eq!(out.report.cycles, 2_134);
    assert_eq!(out.report.tuples, 6_000);
    assert_eq!(out.report.plans_generated, 1);
    assert_eq!(
        out.report.per_pe_processed,
        vec![334, 290, 538, 238, 236, 868, 390, 1053, 700, 653, 700]
    );

    let t = out.report.channel_totals;
    assert_eq!(
        (t.pushes, t.pops, t.full_stalls, t.max_occupancy_sum),
        (41_360, 41_356, 244, 702)
    );

    assert_channel(&out.channels, "lane0", (1_500, 1_500, 61, 8));
    assert_channel(&out.channels, "word7", (1_500, 1_500, 0, 64));
    assert_channel(&out.channels, "pein7", (1_053, 1_053, 0, 234));
}

/// Online, evolving skew, 7 SecPEs with rescheduling: exercises the full
/// §IV-B protocol — drain, merge, requeue — eight times over. The seed
/// engine's requeue was the paper's serial one.
#[test]
fn online_evolving_skew_reschedules_match_seed() {
    let stream = EvolvingZipfStream::new(3.0, 1 << 16, 11, 4_000, 4.0, None);
    let cfg = ArchConfig::new(4, 8, 7)
        .with_reschedule(0.5, 200)
        .with_requeue(Requeue::Serial)
        .with_profile_cycles(64)
        .with_monitor_window(256);
    let out =
        SkewObliviousPipeline::run_stream_for(CountPerKey::new(8), Box::new(stream), &cfg, 40_000);

    assert_eq!(out.report.cycles, 40_000);
    assert_eq!(out.report.tuples, 138_181);
    assert_eq!(out.report.plans_generated, 9);
    assert_eq!(out.report.reschedules, 8);
    assert_eq!(
        out.report.per_pe_processed,
        vec![
            8263, 1489, 5623, 5339, 3478, 2452, 5645, 3677, 15031, 15027, 15023, 15014, 14240,
            13102, 14778
        ]
    );
    assert_eq!(out.output.iter().sum::<u64>(), 138_181);

    let t = out.report.channel_totals;
    assert_eq!(
        (t.pushes, t.pops, t.full_stalls, t.max_occupancy_sum),
        (1_075_102, 1_074_575, 21_854, 3_644)
    );

    assert_channel(&out.channels, "lane0", (34_663, 34_656, 5_337, 8));
    assert_channel(&out.channels, "word0", (34_642, 34_641, 0, 64));
    assert_channel(&out.channels, "pein8", (15_033, 15_031, 0, 4));
    assert_channel(&out.channels, "plan0", (63, 63, 0, 1));
    assert_channel(&out.channels, "feed0", (205, 204, 0, 2));
}

/// The same run with the default pre-armed requeue: the host enqueues each
/// generation's kernels while the previous one runs, so a reschedule that
/// completes more than 200 cycles after the last restart costs no requeue
/// wait, and the monitor probes every 64-cycle profiling window instead of
/// waiting for a 256-cycle one. Same reschedules, 10.1 % more tuples than
/// the serial run. Re-pinned on the change that added the probe, and on the
/// one that double-buffered the filter datapath.
#[test]
fn online_evolving_skew_pre_armed_requeue_matches_golden() {
    let stream = EvolvingZipfStream::new(3.0, 1 << 16, 11, 4_000, 4.0, None);
    let cfg = ArchConfig::new(4, 8, 7)
        .with_reschedule(0.5, 200)
        .with_profile_cycles(64)
        .with_monitor_window(256);
    assert_eq!(cfg.requeue, Requeue::PreArmed);
    let out =
        SkewObliviousPipeline::run_stream_for(CountPerKey::new(8), Box::new(stream), &cfg, 40_000);

    assert_eq!(out.report.cycles, 40_000);
    assert_eq!(out.report.tuples, 152_118);
    assert_eq!(out.report.plans_generated, 9);
    assert_eq!(out.report.reschedules, 8);
    assert_eq!(
        out.report.per_pe_processed,
        vec![
            7951, 1662, 5117, 5462, 4107, 2794, 6223, 3394, 16786, 16778, 16777, 16771, 16764,
            15711, 15821
        ]
    );
    assert_eq!(out.output.iter().sum::<u64>(), 152_118);

    let t = out.report.channel_totals;
    assert_eq!(
        (t.pushes, t.pops, t.full_stalls, t.max_occupancy_sum),
        (1_181_577, 1_181_296, 7_648, 1_812)
    );

    assert_channel(&out.channels, "lane0", (38_088, 38_081, 1_912, 8));
    assert_channel(&out.channels, "word0", (38_067, 38_066, 0, 64));
    assert_channel(&out.channels, "pein8", (16_787, 16_786, 0, 4));
    assert_channel(&out.channels, "plan0", (63, 63, 0, 1));
    assert_channel(&out.channels, "feed0", (279, 279, 0, 2));
}
