//! Fast-forward equivalence: the steady-state fast-forward engine must be
//! *bit-identical* to cycle stepping — same completion cycles, same per-PE
//! workloads, same per-channel statistics including stall counts and
//! occupancy high-water marks — across randomized scenarios (deterministic
//! op-sequence synthesis, same idiom as `hls-sim`'s channel properties;
//! the offline build has no proptest).
//!
//! `kernel_steps` is deliberately NOT compared: skipping no-op cycles is
//! the whole point, so the step count is the one counter allowed to differ.

use datagen::{EvolvingZipfStream, Tuple, ZipfGenerator};
use ditto_core::apps::ModHistogram;
use ditto_core::{ArchConfig, PersistentPipeline, RunOutcome};
use hls_sim::{MemoryModel, PacedSource, SliceSource, StreamSource};

/// Deterministic 64-bit generator for scenario synthesis.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct ModeResult {
    outcome: RunOutcome<Vec<u64>>,
    /// Whether the engine actually ran with fast-forward: the process-wide
    /// `DITTO_FAST_FORWARD` override wins over the configuration flag.
    ff_enabled: bool,
    ff_jumps: u64,
    ff_cycles_skipped: u64,
}

/// Drains one pipeline built from `make_source` with fast-forward on or
/// off, returning the outcome plus the fast-forward counters.
fn drain_mode(
    cfg: &ArchConfig,
    make_source: &dyn Fn() -> Box<dyn StreamSource<Tuple>>,
    fast_forward: bool,
) -> ModeResult {
    let cfg = cfg.clone().with_steady_state_fast_forward(fast_forward);
    let mut p = PersistentPipeline::new(ModHistogram::new(64), make_source(), &cfg);
    p.expect_drained(5_000_000);
    let ff_enabled = p.engine().fast_forward_enabled();
    let ff_jumps = p.engine().ff_jumps();
    let ff_cycles_skipped = p.engine().ff_cycles_skipped();
    ModeResult {
        outcome: p.finish(),
        ff_enabled,
        ff_jumps,
        ff_cycles_skipped,
    }
}

#[track_caller]
fn assert_bit_identical(base: &ModeResult, ff: &ModeResult, label: &str) {
    let (b, f) = (&base.outcome.report, &ff.outcome.report);
    assert_eq!(b.cycles, f.cycles, "{label}: completion cycle diverged");
    assert_eq!(b.tuples, f.tuples, "{label}: tuple count diverged");
    assert_eq!(
        b.per_pe_processed, f.per_pe_processed,
        "{label}: per-PE workloads diverged"
    );
    assert_eq!(
        b.plans_generated, f.plans_generated,
        "{label}: plans diverged"
    );
    assert_eq!(
        b.reschedules, f.reschedules,
        "{label}: reschedules diverged"
    );
    assert_eq!(
        b.channel_totals, f.channel_totals,
        "{label}: channel totals diverged"
    );
    assert_eq!(
        base.outcome.output, ff.outcome.output,
        "{label}: application output diverged"
    );
    for (a, c) in base.outcome.channels.iter().zip(&ff.outcome.channels) {
        assert_eq!(
            (a.pushes, a.pops, a.full_stalls, a.max_occupancy),
            (c.pushes, c.pops, c.full_stalls, c.max_occupancy),
            "{label}: channel {} diverged",
            a.name
        );
    }
}

/// Randomized offline scenarios: skew exponent, SecPE count, dataset size
/// and queue depths all vary; every one must be bit-identical between the
/// cycle-stepped and fast-forward engines.
#[test]
fn random_offline_scenarios_are_bit_identical() {
    let mut s = 0xd17704u64;
    for case in 0..10 {
        let zipf = 1.0 + (splitmix(&mut s) % 21) as f64 / 10.0; // 1.0..3.0
        let seed = splitmix(&mut s);
        let x_sec = (splitmix(&mut s) % 8) as u32; // 0..=7
        let tuples = 1_000 + (splitmix(&mut s) % 4_000) as usize;
        let pe_queue = 32 << (splitmix(&mut s) % 3); // 32, 64, 128
        let data = ZipfGenerator::new(zipf, 1 << 14, seed).take_vec(tuples);
        let cfg = ArchConfig::new(4, 8, x_sec)
            .with_pe_entries(8)
            .with_pe_queue_depth(pe_queue);
        let make = move || -> Box<dyn StreamSource<Tuple>> {
            Box::new(SliceSource::new(
                data.clone(),
                Tuple::PAPER_WIDTH_BYTES,
                MemoryModel::new(64, 16),
            ))
        };
        let base = drain_mode(&cfg, &make, false);
        let ff = drain_mode(&cfg, &make, true);
        let label = format!("case {case} (zipf {zipf}, X={x_sec}, n={tuples})");
        assert_bit_identical(&base, &ff, &label);
        if !base.ff_enabled {
            assert_eq!(base.ff_cycles_skipped, 0, "{label}: baseline must step");
        }
    }
}

/// Bursty (paced) sources leave the pipeline provably idle between bursts:
/// fast-forward must engage there — and still be bit-identical.
#[test]
fn paced_scenarios_fast_forward_and_stay_bit_identical() {
    let mut s = 0xbeefu64;
    for case in 0..4 {
        let zipf = 1.5 + (splitmix(&mut s) % 16) as f64 / 10.0;
        let seed = splitmix(&mut s);
        let burst = 16 + (splitmix(&mut s) % 49) as usize; // 16..=64
        let period = 512 + (splitmix(&mut s) % 1_024); // 512..1536
        let data = ZipfGenerator::new(zipf, 1 << 14, seed).take_vec(2_048);
        let cfg = ArchConfig::new(4, 8, 3).with_pe_entries(8);
        let make = move || -> Box<dyn StreamSource<Tuple>> {
            Box::new(PacedSource::new(data.clone(), burst, period, 16))
        };
        let base = drain_mode(&cfg, &make, false);
        let ff = drain_mode(&cfg, &make, true);
        let label = format!("paced case {case} (burst {burst}, period {period})");
        assert_bit_identical(&base, &ff, &label);
        assert!(
            ff.ff_cycles_skipped > base.outcome.report.cycles / 2,
            "{label}: fast-forward skipped only {} of {} cycles",
            ff.ff_cycles_skipped,
            base.outcome.report.cycles
        );
        assert!(ff.ff_jumps > 0, "{label}: no jumps taken");
    }
}

/// The online reschedule scenario (the full §IV-B protocol, eight times
/// over) must also be bit-identical: the detector refuses to jump across
/// reschedule-boundary phases, so the protocol timing is untouched.
#[test]
fn online_rescheduling_is_bit_identical() {
    let run = |fast_forward: bool| {
        let cfg = ArchConfig::new(4, 8, 7)
            .with_reschedule(0.5, 200)
            .with_profile_cycles(64)
            .with_monitor_window(256)
            .with_steady_state_fast_forward(fast_forward);
        let stream = EvolvingZipfStream::new(3.0, 1 << 16, 11, 4_000, 4.0, None);
        let mut p = PersistentPipeline::new(ModHistogram::new(64), Box::new(stream), &cfg);
        p.step_cycles(40_000);
        let ff_enabled = p.engine().fast_forward_enabled();
        let ff_jumps = p.engine().ff_jumps();
        let ff_cycles_skipped = p.engine().ff_cycles_skipped();
        ModeResult {
            outcome: p.finish(),
            ff_enabled,
            ff_jumps,
            ff_cycles_skipped,
        }
    };
    let base = run(false);
    let ff = run(true);
    assert_bit_identical(&base, &ff, "online reschedule");
    assert_eq!(base.outcome.report.reschedules, 8, "seed golden");
}
