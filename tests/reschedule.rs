//! The §IV-B reschedule protocol under evolving skew (the Fig. 9 machine).

use ditto::core::apps::CountPerKey;
use ditto::hls_sim::{PacedSource, StreamSource};
use ditto::prelude::*;

fn online_cfg(threshold: f64, overhead: u64) -> ArchConfig {
    ArchConfig::new(4, 8, 7)
        .with_pe_entries(128)
        .with_reschedule(threshold, overhead)
        .with_profile_cycles(64)
        .with_monitor_window(256)
}

fn rotating_stream(interval: u64) -> EvolvingZipfStream {
    EvolvingZipfStream::new(3.0, 1 << 16, 41, interval, 4.0, None)
}

#[test]
fn reschedules_track_rotations_when_overhead_is_cheap() {
    let out = SkewObliviousPipeline::run_stream_for(
        ditto::core::apps::CountPerKey::new(8),
        Box::new(rotating_stream(5_000)),
        &online_cfg(0.5, 200),
        50_000,
    );
    assert!(
        out.report.reschedules >= 3,
        "10 rotations with cheap requeue should trigger several reschedules, got {}",
        out.report.reschedules
    );
    // Conservation: every processed tuple is accounted for after merges.
    assert_eq!(out.output.iter().sum::<u64>(), out.report.tuples);
}

#[test]
fn threshold_zero_disables_rescheduling() {
    let out = SkewObliviousPipeline::run_stream_for(
        ditto::core::apps::CountPerKey::new(8),
        Box::new(rotating_stream(5_000)),
        &online_cfg(0.0, 200),
        50_000,
    );
    assert_eq!(out.report.reschedules, 0);
    assert!(
        out.report.plans_generated >= 1,
        "the initial plan is still generated"
    );
}

#[test]
fn fast_rotation_auto_disables_rescheduling() {
    // Rotation much faster than the requeue overhead: the system must stop
    // rescheduling (Fig. 9's right region) instead of thrashing.
    let out = SkewObliviousPipeline::run_stream_for(
        ditto::core::apps::CountPerKey::new(8),
        Box::new(rotating_stream(300)),
        &online_cfg(0.5, 5_000),
        120_000,
    );
    assert!(
        out.report.reschedules <= 3,
        "rescheduling should auto-disable, got {}",
        out.report.reschedules
    );
    assert_eq!(out.output.iter().sum::<u64>(), out.report.tuples);
}

#[test]
fn rescheduling_improves_throughput_on_slowly_evolving_skew() {
    let interval = 20_000u64;
    let cycles = 100_000u64;
    let with = SkewObliviousPipeline::run_stream_for(
        ditto::core::apps::CountPerKey::new(8),
        Box::new(rotating_stream(interval)),
        &online_cfg(0.5, 500),
        cycles,
    );
    let without = SkewObliviousPipeline::run_stream_for(
        ditto::core::apps::CountPerKey::new(8),
        Box::new(rotating_stream(interval)),
        &ArchConfig::new(4, 8, 0).with_pe_entries(128),
        cycles,
    );
    assert!(
        with.report.tuples_per_cycle() > 1.5 * without.report.tuples_per_cycle(),
        "with: {} vs without: {}",
        with.report.tuples_per_cycle(),
        without.report.tuples_per_cycle()
    );
}

#[test]
fn evolving_stream_hot_pe_moves_across_epochs() {
    // Underpinning Fig. 9: the overloaded PE changes when the seed rotates.
    let stream = rotating_stream(1_000);
    let mut hot_pes = std::collections::HashSet::new();
    for epoch in 0..8 {
        hot_pes.insert(stream.hot_key(epoch) % 8);
    }
    assert!(hot_pes.len() >= 3, "hot PE should move, saw {hot_pes:?}");
}

#[test]
fn stream_respects_line_rate() {
    let mut s = rotating_stream(1_000);
    let mut got = 0usize;
    let mut buf = Vec::new();
    for cy in 0..10_000 {
        buf.clear();
        s.pull(cy, 64, &mut buf);
        got += buf.len();
    }
    let rate = got as f64 / 10_000.0;
    assert!((3.9..=4.1).contains(&rate), "rate {rate}");
}

#[test]
fn end_of_a_static_dataset_is_not_a_skew_change() {
    // When the input runs dry the monitored rate collapses. That used to
    // trigger one reschedule, and the drain then waited out its requeue.
    let data = ZipfGenerator::new(3.0, 1 << 16, 7).take_vec(400_000);
    let run = |threshold: f64, overhead: u64| {
        let cfg = ArchConfig::new(4, 8, 7)
            .with_reschedule(threshold, overhead)
            .with_monitor_window(256);
        let app = ditto::core::apps::CountPerKey::new(8);
        SkewObliviousPipeline::run_dataset(app, data.clone(), &cfg)
    };
    let off = run(0.0, 0);
    for overhead in [2_000, 20_000, 200_000] {
        let on = run(0.5, overhead);
        assert_eq!(on.report.reschedules, 0, "overhead {overhead}");
        assert_eq!(on.report.cycles, off.report.cycles, "overhead {overhead}");
        assert_eq!(on.output, off.output, "overhead {overhead}");
    }
}

/// Steps a rotating-skew pipeline in `slices` of `slice` cycles, checking
/// at every slice that the protocol phases account for every cycle, and
/// returns the final report.
fn protocol_run(cfg: &ArchConfig, interval: u64, slice: u64, slices: u64) -> ExecutionReport {
    let app = ditto::core::apps::CountPerKey::new(8);
    let mut p = PersistentPipeline::new(app, Box::new(rotating_stream(interval)), cfg);
    for _ in 0..slices {
        p.step_cycles(slice);
        let snap = p.snapshot();
        assert_eq!(snap.protocol_cycles.total(), snap.cycles);
    }
    let report = p.finish().report;
    assert_eq!(report.protocol_cycles.total(), report.cycles);
    report
}

#[test]
fn serial_requeue_waits_the_whole_overhead_every_time() {
    let cfg = online_cfg(0.5, 200).with_requeue(Requeue::Serial);
    let r = protocol_run(&cfg, 5_000, 1_000, 50);
    assert!(r.reschedules >= 3, "{r:?}");
    let p = r.protocol_cycles;
    assert_eq!(p.requeue, r.reschedules * 200, "{p:?}");
    assert!(p.profiling > 0 && p.distributing > 0 && p.draining > 0 && p.await_merge > 0);
    assert!(p.monitoring > r.cycles / 2, "{p:?}");
}

#[test]
fn pre_armed_requeue_hides_the_overhead_behind_long_generations() {
    // Rotations every 20 000 cycles against a 500-cycle requeue: each
    // generation outlives its successor's enqueue, so every requeue costs
    // only the one cycle of the restart step.
    let cfg = online_cfg(0.5, 500);
    assert_eq!(cfg.requeue, Requeue::PreArmed);
    let r = protocol_run(&cfg, 20_000, 4_000, 25);
    assert!(r.reschedules >= 2, "{r:?}");
    assert_eq!(r.protocol_cycles.requeue, r.reschedules);
    let serial = protocol_run(&cfg.with_requeue(Requeue::Serial), 20_000, 4_000, 25);
    assert_eq!(
        serial.protocol_cycles.requeue,
        serial.reschedules * 500,
        "{serial:?}"
    );
    assert!(r.tuples > serial.tuples);
}

#[test]
fn protocol_cycles_are_equal_with_fast_forward_on_and_off() {
    for requeue in [Requeue::Serial, Requeue::PreArmed] {
        let cfg = online_cfg(0.5, 2_000).with_requeue(requeue);
        let stepped = protocol_run(&cfg, 8_000, 2_500, 24);
        let jumped = protocol_run(&cfg.with_steady_state_fast_forward(true), 8_000, 2_500, 24);
        assert!(stepped.reschedules > 0);
        assert_eq!(
            stepped.protocol_cycles, jumped.protocol_cycles,
            "{requeue:?}"
        );
        assert_eq!(stepped.reschedules, jumped.reschedules);
    }
}

/// The `engine_evolving` shape: the paper's 16P+15S, a 20 000-cycle
/// requeue, 256-cycle profiling and a 4 096-cycle monitor window.
fn paper_online(requeue: Requeue) -> ArchConfig {
    ArchConfig::paper(15)
        .with_reschedule(0.5, 20_000)
        .with_requeue(requeue)
        .with_profile_cycles(256)
        .with_monitor_window(4_096)
}

#[test]
fn a_starved_pipeline_never_reschedules() {
    // Zipf(3) tuples in bursts of 2 048 every 2 000 cycles: between bursts
    // the rate falls far below the peak with empty lanes and no change in
    // skew. The pre-armed probe must not read that as a skew change.
    let data = ZipfGenerator::new(3.0, 1 << 16, 7).take_vec(420_000);
    for requeue in [Requeue::Serial, Requeue::PreArmed] {
        let cfg = paper_online(requeue).with_steady_state_fast_forward(true);
        let source = PacedSource::new(data.clone(), 2_048, 2_000, 0);
        let out = SkewObliviousPipeline::run_stream_for(
            CountPerKey::new(16),
            Box::new(source),
            &cfg,
            400_000,
        );
        assert_eq!(out.report.reschedules, 0, "{requeue:?}");
        assert!(out.report.tuples > 400_000, "{requeue:?}: {:?}", out.report);
    }
}

/// Cycles from each hot-set rotation (every 80 000 cycles) to the first
/// 16-cycle slice in which the pipeline starts draining its SecPEs.
fn detection_delays(requeue: Requeue, rotations: u64) -> Vec<u64> {
    let interval = 80_000;
    let stream = EvolvingZipfStream::new(3.0, 1 << 16, 5, interval, 8.0, None);
    let mut p = PersistentPipeline::new(
        CountPerKey::new(16),
        Box::new(stream),
        &paper_online(requeue),
    );
    let (mut delays, mut rotated, mut draining) = (Vec::new(), None, 0);
    while p.cycle() < (rotations + 1) * interval {
        p.step_cycles(16);
        let (cy, now) = (p.cycle(), p.snapshot().protocol_cycles.draining);
        if cy % interval < 16 {
            rotated = Some(cy - cy % interval);
        }
        if now > draining {
            delays.extend(rotated.take().map(|at| cy - at));
        }
        draining = now;
    }
    delays.sort_unstable();
    delays
}

#[test]
fn pre_armed_probe_detects_rotations_within_two_profiling_windows() {
    let profile = paper_online(Requeue::PreArmed).profile_cycles;
    let window = paper_online(Requeue::Serial).monitor_window;
    let probed = detection_delays(Requeue::PreArmed, 4);
    let serial = detection_delays(Requeue::Serial, 4);
    assert!(
        probed.len() >= 3 && serial.len() >= 3,
        "{probed:?} {serial:?}"
    );
    assert!(probed[probed.len() / 2] <= 2 * profile, "{probed:?}");
    assert!(probed[probed.len() - 1] <= 6 * profile, "{probed:?}");
    // The paper's tumbling window is unchanged.
    assert!(serial[serial.len() / 2] >= window / 2, "{serial:?}");
}
