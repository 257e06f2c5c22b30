//! The engine pinned by value. Seeded scenarios across pipeline shapes,
//! sources and queue depths, each folded into four hashes of everything the
//! simulation decides:
//!
//! * `channels` — every `channel_stats()` row at the end of the run;
//! * `slices` — every slice's `StatSnapshot`, except `kernel_steps` (the one
//!   counter a scheduling change may move);
//! * `report` — completion cycle, tuples, reschedules, plans, per-PE
//!   workloads and channel totals;
//! * `output` — the finalized application output.
//!
//! The literals were computed on eb91fe4, where every reschedule paid the
//! paper's serial requeue; the scenarios that reschedule pin
//! `Requeue::Serial` so those literals still hold. Their `pre-armed` twins
//! were computed on the change that introduced `Requeue::PreArmed` and
//! re-pinned on the one that gave its monitor the probe. The N = 1
//! scenarios, where every bank has one member, were computed on 6eb541c,
//! before the one-member bank became the only point-to-point FIFO. A change to how the engine steps, rather than to what it
//! simulates, must leave every one unmodified; a mismatch names the
//! scenario, the first differing hash and the line to paste if the change
//! is a deliberate re-pin.
//!
//! Every scenario above runs `ModHistogram`. The last five run one
//! `ditto-apps` app each (HISTO, DP, PR, HLL, HHD) and hash the `Debug`
//! bytes of its output; they were computed on 1d9b2cc.

use std::fmt::Debug;
use std::sync::Arc;

use ditto::core::apps::ModHistogram;
use ditto::hls_sim::{MemoryModel, PacedSource, SliceSource, StreamSource};
use ditto::prelude::*;

/// The application a scenario runs.
#[derive(Debug, Clone, Copy)]
enum App {
    ModHistogram,
    Histo,
    Dp,
    Pr,
    Hll,
    Hhd,
}

#[derive(Debug, Clone, Copy)]
enum Source {
    Uniform,
    Zipf(f64),
    /// Rotating Zipf(3) skew with online rescheduling.
    Evolving,
    /// Bursts of Zipf(1.5) tuples with idle gaps in between.
    Paced,
    /// The `⟨dst, src⟩` edges of a 256-vertex RMAT graph.
    Graph,
}

#[derive(Debug, Clone, Copy)]
struct Scenario {
    name: &'static str,
    app: App,
    shape: (u32, u32, u32),
    source: Source,
    seed: u64,
    pe_queue_depth: usize,
    word_queue_depth: usize,
    lane_queue_depth: usize,
    fast_forward: bool,
    /// Only the evolving source reschedules, so only there does it matter.
    requeue: Requeue,
}

const UNIVERSE: u64 = 1 << 16;
const SHAPES: [(u32, u32, u32); 5] = [(2, 4, 3), (4, 8, 3), (8, 16, 0), (8, 16, 15), (16, 32, 31)];

fn scenarios() -> Vec<Scenario> {
    let base = |name, shape, source, seed| Scenario {
        name,
        app: App::ModHistogram,
        shape,
        source,
        seed,
        pe_queue_depth: 512,
        word_queue_depth: 64,
        lane_queue_depth: 8,
        fast_forward: false,
        requeue: Requeue::Serial,
    };
    let names = [
        [
            "2-4-3 uniform",
            "2-4-3 zipf1",
            "2-4-3 zipf3 pe2",
            "2-4-3 evolving",
        ],
        [
            "4-8-3 uniform",
            "4-8-3 zipf1",
            "4-8-3 zipf3 pe2",
            "4-8-3 evolving",
        ],
        [
            "8-16-0 uniform",
            "8-16-0 zipf1",
            "8-16-0 zipf3 pe2",
            "8-16-0 evolving",
        ],
        [
            "8-16-15 uniform",
            "8-16-15 zipf1",
            "8-16-15 zipf3 pe2",
            "8-16-15 evolving",
        ],
        [
            "16-32-31 uniform",
            "16-32-31 zipf1",
            "16-32-31 zipf3 pe2",
            "16-32-31 evolving",
        ],
    ];
    let mut out = Vec::new();
    for (i, (&shape, names)) in SHAPES.iter().zip(&names).enumerate() {
        let seed = 101 + 10 * i as u64;
        out.push(base(names[0], shape, Source::Uniform, seed));
        out.push(base(names[1], shape, Source::Zipf(1.0), seed + 1));
        out.push(Scenario {
            pe_queue_depth: 2,
            ..base(names[2], shape, Source::Zipf(3.0), seed + 2)
        });
        out.push(base(names[3], shape, Source::Evolving, seed + 3));
    }
    out.push(Scenario {
        word_queue_depth: 1,
        ..base("4-8-3 zipf1 word1", (4, 8, 3), Source::Zipf(1.0), 7)
    });
    out.push(Scenario {
        lane_queue_depth: 1,
        ..base("8-16-15 zipf1 lane1", (8, 16, 15), Source::Zipf(1.0), 8)
    });
    out.push(Scenario {
        fast_forward: true,
        ..base("8-16-15 evolving ff", (8, 16, 15), Source::Evolving, 9)
    });
    out.push(Scenario {
        fast_forward: true,
        ..base("4-8-3 paced ff", (4, 8, 3), Source::Paced, 10)
    });
    // The rescheduling scenarios again, with the default pre-armed requeue.
    let twins: Vec<Scenario> = out
        .iter()
        .filter(|s| matches!(s.source, Source::Evolving) && s.shape.2 > 0)
        .map(|s| Scenario {
            requeue: Requeue::PreArmed,
            ..*s
        })
        .collect();
    for (twin, name) in twins.into_iter().zip(PRE_ARMED) {
        out.push(Scenario { name, ..twin });
    }
    // N = 1: every lane, pre, map, plan and feed bank has a single member.
    out.push(base("1-2-1 uniform", (1, 2, 1), Source::Uniform, 11));
    out.push(base("1-4-3 zipf1", (1, 4, 3), Source::Zipf(1.0), 12));
    out.push(Scenario {
        pe_queue_depth: 2,
        ..base("1-4-3 zipf3 pe2", (1, 4, 3), Source::Zipf(3.0), 13)
    });
    out.push(base("1-4-3 evolving", (1, 4, 3), Source::Evolving, 14));
    // One scenario per `ditto-apps` app.
    out.push(Scenario {
        app: App::Histo,
        ..base("histo 4-8-3 zipf2", (4, 8, 3), Source::Zipf(2.0), 15)
    });
    out.push(Scenario {
        app: App::Dp,
        pe_queue_depth: 2,
        ..base("dp 8-16-15 zipf1 pe2", (8, 16, 15), Source::Zipf(1.0), 16)
    });
    out.push(Scenario {
        app: App::Pr,
        ..base("pr 4-8-7 rmat", (4, 8, 7), Source::Graph, 17)
    });
    out.push(Scenario {
        app: App::Hll,
        requeue: Requeue::PreArmed,
        ..base(
            "hll 2-4-3 evolving pre-armed",
            (2, 4, 3),
            Source::Evolving,
            18,
        )
    });
    out.push(Scenario {
        app: App::Hhd,
        lane_queue_depth: 1,
        ..base(
            "hhd 8-16-15 zipf3 lane1",
            (8, 16, 15),
            Source::Zipf(3.0),
            19,
        )
    });
    out
}

const PRE_ARMED: [&str; 5] = [
    "2-4-3 evolving pre-armed",
    "4-8-3 evolving pre-armed",
    "8-16-15 evolving pre-armed",
    "16-32-31 evolving pre-armed",
    "8-16-15 evolving ff pre-armed",
];

/// One mixing step of the fold (SplitMix64's multiplier after a rotate).
fn mix(acc: u64, v: u64) -> u64 {
    (acc.rotate_left(23) ^ v).wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

fn mix_all(acc: u64, vs: impl IntoIterator<Item = u64>) -> u64 {
    vs.into_iter().fold(acc, mix)
}

fn mix_snapshot(acc: u64, s: &StatSnapshot) -> u64 {
    let acc = mix_all(
        acc,
        [
            s.cycles,
            s.tuples,
            s.reschedules,
            s.plans_generated,
            s.phase,
            u64::from(s.phase_active_pes),
            s.per_pe_processed.len() as u64,
        ],
    );
    mix_all(acc, s.per_pe_processed.iter().copied())
}

const FIELDS: [&str; 4] = ["channels", "slices", "report", "output"];

/// Hashes an output by its `Debug` bytes.
fn debug_hash<T: Debug>(output: &T) -> u64 {
    mix_all(0, format!("{output:?}").bytes().map(u64::from))
}

/// The four hashes of scenario `s`, on the app it names.
fn hashes(s: &Scenario) -> [u64; 4] {
    let m = s.shape.1;
    let m64 = u64::from(m);
    match s.app {
        App::ModHistogram => run(
            s,
            ModHistogram::new(4 * m64),
            |_| 4,
            |out| mix_all(out.len() as u64, out.iter().copied()),
        ),
        App::Histo => run(
            s,
            HistoApp::new(64 * m64, m),
            HistoApp::pe_entries,
            debug_hash,
        ),
        App::Dp => run(
            s,
            DataPartitionApp::new(4 * m64, m),
            DataPartitionApp::pe_entries,
            debug_hash,
        ),
        App::Pr => {
            let graph = rmat_graph(s.seed);
            let contribs = (0..graph.vertex_count())
                .map(|v| Fixed::from_f64(1.0 / graph.out_degree(v).max(1) as f64))
                .collect();
            let app = PageRankApp::new(Arc::new(contribs), m);
            run(s, app, PageRankApp::pe_entries, debug_hash)
        }
        App::Hll => run(s, HllApp::new(8, m), HllApp::pe_entries, debug_hash),
        App::Hhd => run(s, HhdApp::new(4, 64, 40, m), HhdApp::pe_entries, debug_hash),
    }
}

fn rmat_graph(seed: u64) -> Csr {
    ditto::graph::generate::rmat(8, 8.0, 0.57, 0.19, 0.19, seed)
}

fn run<A: DittoApp + 'static>(
    s: &Scenario,
    app: A,
    pe_entries: fn(&A) -> usize,
    hash_output: fn(&A::Output) -> u64,
) -> [u64; 4] {
    let (n, m, x) = s.shape;
    let mut cfg = ArchConfig::new(n, m, x)
        .with_pe_entries(pe_entries(&app))
        .with_pe_queue_depth(s.pe_queue_depth)
        .with_steady_state_fast_forward(s.fast_forward)
        .with_requeue(s.requeue);
    cfg.word_queue_depth = s.word_queue_depth;
    cfg.lane_queue_depth = s.lane_queue_depth;
    let tuples = 600 * n as usize;
    let mem = MemoryModel::new(8 * n, 16);
    let (source, slice, online): (Box<dyn StreamSource<Tuple>>, u64, bool) = match s.source {
        Source::Uniform => {
            let data = UniformGenerator::new(UNIVERSE, s.seed).take_vec(tuples);
            (Box::new(SliceSource::new(data, 8, mem)), 61, false)
        }
        Source::Zipf(alpha) => {
            let data = ZipfGenerator::new(alpha, UNIVERSE, s.seed).take_vec(tuples);
            (Box::new(SliceSource::new(data, 8, mem)), 97, false)
        }
        Source::Evolving => {
            cfg = cfg
                .with_reschedule(0.5, 150)
                .with_profile_cycles(32)
                .with_monitor_window(128);
            // At least one tuple per cycle, so that a one-lane pipeline
            // still overloads a hot PE and reschedules.
            let rate = (f64::from(n) / 2.0).max(1.0);
            let stream = EvolvingZipfStream::new(3.0, UNIVERSE, s.seed, 900, rate, None);
            (Box::new(stream), 1_000, true)
        }
        Source::Paced => {
            let data = ZipfGenerator::new(1.5, UNIVERSE, s.seed).take_vec(tuples);
            (Box::new(PacedSource::new(data, 24, 300, 16)), 211, false)
        }
        Source::Graph => {
            let edges = PageRankApp::edge_tuples(&rmat_graph(s.seed));
            (Box::new(SliceSource::new(edges, 8, mem)), 89, false)
        }
    };
    let mut p = PersistentPipeline::new(app, source, &cfg);
    let mut slices = 0;
    for _ in 0..if online { 6 } else { 4 } {
        p.step_cycles(slice);
        slices = mix_snapshot(slices, &p.snapshot());
    }
    if !online {
        p.expect_drained(1_000_000);
        slices = mix_snapshot(slices, &p.snapshot());
    }
    let out = p.finish();

    let channels = out.channels.iter().fold(0, |acc, c| {
        let acc = mix_all(acc, c.name.bytes().map(u64::from));
        mix_all(
            acc,
            [
                c.capacity as u64,
                c.pushes,
                c.pops,
                c.full_stalls,
                c.max_occupancy as u64,
                c.occupancy as u64,
            ],
        )
    });
    let r = &out.report;
    let t = r.channel_totals;
    let report = mix_all(
        0,
        [
            r.cycles,
            r.tuples,
            r.reschedules,
            r.plans_generated,
            u64::from(r.completed),
            t.pushes,
            t.pops,
            t.full_stalls,
            t.max_occupancy_sum,
        ],
    );
    let report = mix_all(report, r.per_pe_processed.iter().copied());
    [channels, slices, report, hash_output(&out.output)]
}

const PINS: &[(&str, [u64; 4])] = &[
    (
        "2-4-3 uniform",
        [
            0xffccbc8a75207048,
            0x60e56af84da4c92a,
            0xc8e993cac03ece8d,
            0x12779e3de8201698,
        ],
    ),
    (
        "2-4-3 zipf1",
        [
            0x7d9e2a313ff2ee1f,
            0x8810bab7d924b489,
            0x3e093b0a28e335c8,
            0x1fa1bbbbe4280d2e,
        ],
    ),
    (
        "2-4-3 zipf3 pe2",
        [
            0xc42664efaa875417,
            0x29b4fa7044bb63f8,
            0x1cad7d8747f58b2c,
            0x4f93a4020bf8941f,
        ],
    ),
    (
        "2-4-3 evolving",
        [
            0x68d0b8bed0b04390,
            0x54c54d956300533e,
            0x8b77f94e51889718,
            0xb98ce8f45f5a0b96,
        ],
    ),
    (
        "4-8-3 uniform",
        [
            0x839e4a315a590374,
            0x273d28e7833d9089,
            0xc83e6c85e5d32a1,
            0xf5a7c1449e69bbf5,
        ],
    ),
    (
        "4-8-3 zipf1",
        [
            0x672e11378a72d54b,
            0xbfaf6aa28cf791a0,
            0x17488fa532464b3e,
            0xd76eaf7b6d91940a,
        ],
    ),
    (
        "4-8-3 zipf3 pe2",
        [
            0x6b5db45357d932ff,
            0xa495fb03597e9087,
            0xbf29e306a441b8a,
            0xab1e90de654d5c4f,
        ],
    ),
    (
        "4-8-3 evolving",
        [
            0x12c70ea8673156b8,
            0x31d7f60d702e38e7,
            0x74176298f3de6332,
            0x531db49239ae7a5f,
        ],
    ),
    (
        "8-16-0 uniform",
        [
            0x456b078b03404fe4,
            0x5860289bdc874ad8,
            0xcb73db835327d363,
            0xd0bd980234687739,
        ],
    ),
    (
        "8-16-0 zipf1",
        [
            0xc6c9591d5da9b310,
            0xd8fe677396b94efa,
            0xd316dfe23b606216,
            0xc0047efa7a1d663a,
        ],
    ),
    (
        "8-16-0 zipf3 pe2",
        [
            0xb61dabb9f8d9d38,
            0xce219a406ad86e78,
            0x4e9225a89a196a10,
            0x9b30251ff04b0bee,
        ],
    ),
    (
        "8-16-0 evolving",
        [
            0x78ad1a954462f990,
            0xca7b8735cd14bdf5,
            0x3443b964cc151e3b,
            0xeb6e95b4759b80e1,
        ],
    ),
    (
        "8-16-15 uniform",
        [
            0xcf23782cc5b56612,
            0x1357a63a26e23268,
            0x260824a20ea17bfd,
            0x3c0af6624ad5d5c4,
        ],
    ),
    (
        "8-16-15 zipf1",
        [
            0xe19994892fb02b94,
            0xa8a54e3301fdc901,
            0x62796a0e07daffb9,
            0x87b2d7ee13fb02b0,
        ],
    ),
    (
        "8-16-15 zipf3 pe2",
        [
            0xf9f14c3872e40dd0,
            0xe860e50aba71e3e4,
            0x8fb174b1e1d01fd2,
            0x3c6b0dda319be58a,
        ],
    ),
    (
        "8-16-15 evolving",
        [
            0x1df82faacb9b8b5c,
            0xc5249636eb1267b0,
            0x1546fbae6d79d92c,
            0xaa078f2a4524fc01,
        ],
    ),
    (
        "16-32-31 uniform",
        [
            0x4a3b050783407baa,
            0xa090839ec6f783b6,
            0x4259b7d90672ff94,
            0x469fc67a9d8349de,
        ],
    ),
    (
        "16-32-31 zipf1",
        [
            0xd97b4a6709e86ecd,
            0x840e7b3e08e125fd,
            0x6bd14645207d9180,
            0x5eed548750a714e5,
        ],
    ),
    (
        "16-32-31 zipf3 pe2",
        [
            0x7f41570cbbe8756,
            0xe68eb74fc21deae,
            0x6ca63e50393bc4b6,
            0xc9dcc83947119778,
        ],
    ),
    (
        "16-32-31 evolving",
        [
            0xd239ca9e07b13968,
            0x6164ca04b5525a05,
            0x6dabc609111e5376,
            0xda3bc486b97fc664,
        ],
    ),
    (
        "4-8-3 zipf1 word1",
        [
            0x5d7d04ea5adaa406,
            0xb87cffe9a3b44024,
            0xde2410fc0c55b333,
            0xc2f2f1b251a505b9,
        ],
    ),
    (
        "8-16-15 zipf1 lane1",
        [
            0xf75e395a53f8a3a5,
            0xf65539f5beda5bd7,
            0x85d014284ed5679d,
            0x8c96903b28366e87,
        ],
    ),
    (
        "8-16-15 evolving ff",
        [
            0xe3290bbf5a97a054,
            0x424fdcb66b9dc4b3,
            0xc3546e93efeb1644,
            0x649483cf1a6a291c,
        ],
    ),
    (
        "4-8-3 paced ff",
        [
            0xa2ee8001d39f2063,
            0x60c64fcbf660c981,
            0xcd791baa70f98a6a,
            0xd99149aff1d0762c,
        ],
    ),
    // Re-pinned on the change that gave the pre-armed monitor its probe.
    (
        "2-4-3 evolving pre-armed",
        [
            0x2733696214a060aa,
            0x1718750a39e52fc3,
            0x1a711f0b8354aec8,
            0x5b7a40c66aa91e74,
        ],
    ),
    (
        "4-8-3 evolving pre-armed",
        [
            0xf951745287be46e4,
            0xca0e5cb32c1aca97,
            0x1fed73c01254c097,
            0x17ba75d2034c586d,
        ],
    ),
    (
        "8-16-15 evolving pre-armed",
        [
            0xacaf4a1c083c3f9c,
            0x7a26d9f5370a86ee,
            0xd6de193c0b51b5cd,
            0xa96f9c7e2d5dd20a,
        ],
    ),
    (
        "16-32-31 evolving pre-armed",
        [
            0xc14e442539eff35e,
            0xc210836a6b95eaa8,
            0x7f56092c4443464a,
            0x39221a35de39e1d,
        ],
    ),
    (
        "8-16-15 evolving ff pre-armed",
        [
            0x1b44b95d77238494,
            0x446b7f59585ead15,
            0x7cd733981e23e94b,
            0xf848c0850dd3f030,
        ],
    ),
    (
        "1-2-1 uniform",
        [
            0xb66803764755ff21,
            0x191cac2c2af9f49a,
            0xf91f5a2a2219b1d2,
            0xd86edcc9c79dd80d,
        ],
    ),
    (
        "1-4-3 zipf1",
        [
            0xa74ce14b6297f72f,
            0x4e45986542ff7b2b,
            0xed60e4b07230c0d,
            0x280aec0de0abfc07,
        ],
    ),
    (
        "1-4-3 zipf3 pe2",
        [
            0x38499192c590ea8b,
            0x3bf3eabeff4baeb6,
            0x2f5acb26700f6bbd,
            0xc07caaac44ac2729,
        ],
    ),
    (
        "1-4-3 evolving",
        [
            0x79dd41afaa908f2b,
            0x46baa12ba90b4c5f,
            0x48f425936007bd7b,
            0xd06800f6eb9add8c,
        ],
    ),
    (
        "histo 4-8-3 zipf2",
        [
            0x50bfd3961c93516a,
            0xeba689a98291bdf8,
            0x7029b447cccf1617,
            0xbba19314d2433dc4,
        ],
    ),
    (
        "dp 8-16-15 zipf1 pe2",
        [
            0x8a4bd6c12e9c65c8,
            0xa556922562a39307,
            0x6d79435fe31ac07b,
            0x3c1250c478aa89db,
        ],
    ),
    (
        "pr 4-8-7 rmat",
        [
            0x73d31a7a3ca6a955,
            0xfc2da4fd8d6f7712,
            0xbc2f9c6ee49883aa,
            0x357a8c18ab096e0e,
        ],
    ),
    (
        "hll 2-4-3 evolving pre-armed",
        [
            0x60a455fc26594608,
            0x26e4859028e84767,
            0xc01b55fb96146dc0,
            0xbf2d98b46f0f9c5c,
        ],
    ),
    (
        "hhd 8-16-15 zipf3 lane1",
        [
            0x6447dc5a936a3c54,
            0xd89c25cd75f60f59,
            0xe2858d58ae68c3e2,
            0x321280b4d4b36ae2,
        ],
    ),
];

#[test]
fn engine_is_pinned_by_value() {
    let scenarios = scenarios();
    let mut failures = Vec::new();
    for (k, s) in scenarios.iter().enumerate() {
        // A scenario without a pin (or out of order) compares against zeros
        // and so prints its line.
        let want = PINS
            .get(k)
            .filter(|pin| pin.0 == s.name)
            .map_or([0; 4], |pin| pin.1);
        let got = hashes(s);
        if let Some(i) = (0..4).find(|&i| got[i] != want[i]) {
            failures.push(format!(
                "{s:?}\n  first differing field: {} ({:#x} != pinned {:#x})\n  re-pin line: (\"{}\", [{:#x}, {:#x}, {:#x}, {:#x}]),",
                FIELDS[i], got[i], want[i], s.name, got[0], got[1], got[2], got[3]
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} scenarios diverged:\n{}",
        failures.len(),
        scenarios.len(),
        failures.join("\n")
    );
    assert_eq!(PINS.len(), scenarios.len(), "one pin per scenario");
}
