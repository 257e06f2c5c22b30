//! Phase-compiled execution plans, observed end to end: under single-key
//! skew the compiled plan predicts the active set, and the cold datapath
//! taps keep consuming zero-mask words — popped by the filter bank at the
//! cycle they become visible — in step with the hot tap.

use datagen::Tuple;
use ditto_core::apps::CountPerKey;
use ditto_core::{ArchConfig, PersistentPipeline};
use hls_sim::{MemoryModel, SliceSource};

/// Single hot key: every tuple routes to one PriPE, the plan assigns all
/// SecPEs to it, and every other datapath is compiled cold.
#[test]
fn single_hot_key_compiles_the_cold_datapaths() {
    let m = 8u32;
    let x = 3u32;
    let data = vec![Tuple::from_key(5); 40_000];
    let hot_pri = 5 % m; // CountPerKey routes key % M
    let cfg = ArchConfig::new(4, m, x)
        .with_pe_entries(64)
        .with_profile_cycles(64);
    let source = SliceSource::new(data, Tuple::PAPER_WIDTH_BYTES, MemoryModel::new(64, 16));
    let mut p = PersistentPipeline::new(CountPerKey::new(m), Box::new(source), &cfg);

    // Build-time phase: boundary zero, PriPEs only, SecPEs compiled cold.
    let initial = p.phase_plan();
    assert_eq!(initial.phase(), 0);
    assert_eq!(initial.active_pes(), m);
    assert_eq!(initial.cold_taps(), vec![8, 9, 10]);

    // Run past the profiling window into the plan's steady state.
    p.step_cycles(200);
    let snap = p.snapshot();
    assert!(snap.plans_generated >= 1, "plan landed");
    p.step_cycles(2_000);

    // The compiled phase: hot PriPE + its three SecPE helpers.
    let plan = p.phase_plan();
    assert_eq!(plan.phase(), 1, "one reschedule boundary after build");
    assert_eq!(plan.active_pes(), 1 + x, "hot PriPE and its helpers");
    assert!(plan.is_active(hot_pri));
    for sec in m..m + x {
        assert!(plan.is_active(sec), "scheduled SecPE {sec} is active");
    }
    assert_eq!(
        plan.cold_taps().len(),
        (m - 1) as usize,
        "every other PriPE datapath compiled cold"
    );

    let snap = p.snapshot();
    assert_eq!(snap.phase, 1);
    assert_eq!(snap.phase_active_pes, 1 + x);
    assert!(snap.tuples < 40_000, "still mid-stream");

    // The cold taps keep consuming every broadcast word: pops on a cold
    // tap track the hot tap's pops (within the in-flight window).
    let engine = p.engine();
    let stats = engine.context().channel_stats();
    let tap = |pe: u32| {
        stats
            .iter()
            .find(|s| s.name == format!("word{pe}"))
            .unwrap_or_else(|| panic!("word{pe} stats"))
    };
    let hot = tap(hot_pri);
    let cold_pe = (hot_pri + 1) % m;
    let cold = tap(cold_pe);
    assert!(hot.pushes > 1_000, "words flowed ({})", hot.pushes);
    assert_eq!(cold.pushes, hot.pushes, "broadcast pushes are atomic");
    assert!(
        cold.pops + 2 >= cold.pushes,
        "cold tap kept up with the word stream ({} of {})",
        cold.pops,
        cold.pushes
    );
    assert!(
        cold.pops >= hot.pops,
        "a cold tap never trails the hot tap ({} vs {})",
        cold.pops,
        hot.pops
    );

    // Drain and finish: output unaffected by any of the scheduling.
    p.expect_drained(400_000);
    let out = p.finish();
    assert_eq!(out.output.iter().sum::<u64>(), 40_000);
    assert!(out.report.per_pe_processed[hot_pri as usize] > 0);
}

/// The drain boundary (every SecPE exited) compiles a pri-only phase, and
/// the next plan starts a fresh one — phases count reschedule boundaries.
#[test]
fn reschedule_boundaries_advance_the_phase() {
    use datagen::EvolvingZipfStream;
    let cfg = ArchConfig::new(4, 8, 7)
        .with_reschedule(0.5, 200)
        .with_profile_cycles(64)
        .with_monitor_window(256);
    let stream = EvolvingZipfStream::new(3.0, 1 << 16, 11, 4_000, 4.0, None);
    let mut p = PersistentPipeline::new(CountPerKey::new(8), Box::new(stream), &cfg);
    let mut max_phase = 0;
    for _ in 0..40 {
        p.step_cycles(1_000);
        max_phase = max_phase.max(p.snapshot().phase);
    }
    let snap = p.snapshot();
    assert!(snap.reschedules >= 1, "at least one reschedule completed");
    // Each reschedule crosses two boundaries (drain completion + next
    // plan), plus the initial plan's boundary.
    assert!(
        max_phase > 2 * snap.reschedules,
        "phase {} must count boundaries ({} reschedules)",
        max_phase,
        snap.reschedules
    );
}
