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
//! bytes of its output; they were computed on 1d9b2cc. The last two run the
//! same paced bursts with rescheduling on, under each protocol, and pin the
//! pre-armed probe's starvation gate; they were computed on 831d61f.
//!
//! Every literal was then re-pinned once, except the four whose pipeline
//! never queues a second word (`1-2-1 uniform`, `1-4-3 zipf1`, `1-4-3
//! evolving`, `hll 2-4-3 evolving pre-armed`), on the change that gave each
//! decoder + filter datapath room for two decoded words. With room for one,
//! that change reproduces every literal before it.

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
    /// The same bursts with online rescheduling on: the pipeline starves
    /// between bursts, which only the pre-armed probe's lane-wait gate
    /// tells apart from a skew change.
    PacedRescheduling,
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
    /// Only the evolving and paced-rescheduling sources reschedule, so only
    /// there does it matter.
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
    // The starvation gate: the same paced bursts under both protocols.
    let paced = base(
        "4-8-3 paced rescheduling",
        (4, 8, 3),
        Source::PacedRescheduling,
        20,
    );
    out.push(paced);
    out.push(Scenario {
        name: "4-8-3 paced rescheduling pre-armed",
        requeue: Requeue::PreArmed,
        ..paced
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
    if matches!(s.source, Source::Evolving | Source::PacedRescheduling) {
        cfg = cfg
            .with_reschedule(0.5, 150)
            .with_profile_cycles(32)
            .with_monitor_window(128);
    }
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
            // At least one tuple per cycle, so that a one-lane pipeline
            // still overloads a hot PE and reschedules.
            let rate = (f64::from(n) / 2.0).max(1.0);
            let stream = EvolvingZipfStream::new(3.0, UNIVERSE, s.seed, 900, rate, None);
            (Box::new(stream), 1_000, true)
        }
        Source::Paced | Source::PacedRescheduling => {
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
            0x70199bc5cdf025c,
            0x3c190266dc3bafb8,
            0x2417abdceff8c0ad,
            0x12779e3de8201698,
        ],
    ),
    (
        "2-4-3 zipf1",
        [
            0xe1f7ff67aa482bbf,
            0x909356fb88e0000c,
            0xf27cab426c96f240,
            0x1fa1bbbbe4280d2e,
        ],
    ),
    (
        "2-4-3 zipf3 pe2",
        [
            0xb675dc4a6327620b,
            0x74cbe60fbb605793,
            0x4fbc9f30636ffb66,
            0x4f93a4020bf8941f,
        ],
    ),
    (
        "2-4-3 evolving",
        [
            0x7bcc07ed8e5546b3,
            0x1dadeb88cf23d5e6,
            0x989ed62df4650b37,
            0x5f500662668838e4,
        ],
    ),
    (
        "4-8-3 uniform",
        [
            0xacdd674acf9e7e2,
            0xde031ea1bf9422fd,
            0x886aad965bcc844c,
            0xf5a7c1449e69bbf5,
        ],
    ),
    (
        "4-8-3 zipf1",
        [
            0xbfb79f687131aa95,
            0xe672376c451947f9,
            0xfc890f5274d3d0bd,
            0xd76eaf7b6d91940a,
        ],
    ),
    (
        "4-8-3 zipf3 pe2",
        [
            0x990526175ecac7f5,
            0x7287c7bd029fea31,
            0xcb14a79c6b86057c,
            0xab1e90de654d5c4f,
        ],
    ),
    (
        "4-8-3 evolving",
        [
            0x3caa4a775a168606,
            0x72fbccd1733e328c,
            0x76bec0e79c8efaba,
            0xc5ffa2b78a86e0e9,
        ],
    ),
    (
        "8-16-0 uniform",
        [
            0x665c042ee587b5e,
            0xbc17afdb3126f3d7,
            0xbdb7d4e6d0fa72bf,
            0xd0bd980234687739,
        ],
    ),
    (
        "8-16-0 zipf1",
        [
            0x4dab0fae0de030d0,
            0x1f577ff330d2d7a7,
            0xd5f90138d84e6a1b,
            0xc0047efa7a1d663a,
        ],
    ),
    (
        "8-16-0 zipf3 pe2",
        [
            0x486dbc40b364aec6,
            0x654e3bcca3df92a4,
            0xef72f7432a05e949,
            0x9b30251ff04b0bee,
        ],
    ),
    (
        "8-16-0 evolving",
        [
            0x2552de6ecc781f37,
            0x37427c60a97b1f43,
            0xd08b118529e161fc,
            0xe6b0621bb9419745,
        ],
    ),
    (
        "8-16-15 uniform",
        [
            0x51698f5b084399b3,
            0x271e9b0c63b2f242,
            0xd33c07102826b428,
            0x3c0af6624ad5d5c4,
        ],
    ),
    (
        "8-16-15 zipf1",
        [
            0x5a9c744bcb745fc5,
            0xee0c360e4e92d4ac,
            0xa12abcd6eabb17cb,
            0x87b2d7ee13fb02b0,
        ],
    ),
    (
        "8-16-15 zipf3 pe2",
        [
            0x338a22476bd4ce3e,
            0x7f337fe6427bf3c5,
            0xb3ba299967024821,
            0x3c6b0dda319be58a,
        ],
    ),
    (
        "8-16-15 evolving",
        [
            0x8ba568f8ad5e47bd,
            0x76663d00979c9e14,
            0x8fcdd25f3b4a72f1,
            0xb22e70ce78b96484,
        ],
    ),
    (
        "16-32-31 uniform",
        [
            0x3f693d5fa7010b0a,
            0x5967c0011bb4a401,
            0x93ebeed777c909cc,
            0x469fc67a9d8349de,
        ],
    ),
    (
        "16-32-31 zipf1",
        [
            0xaa38c29ee6ff0555,
            0xbc69052236f6ab7b,
            0x12380f278765dcff,
            0x5eed548750a714e5,
        ],
    ),
    (
        "16-32-31 zipf3 pe2",
        [
            0xaac4172aeb9ef4e8,
            0x5ea7eb168b5ee7cd,
            0x8a3324114d88e5bc,
            0xc9dcc83947119778,
        ],
    ),
    (
        "16-32-31 evolving",
        [
            0x828494c8f6e69521,
            0x74f505367beb5ee3,
            0x66ede6100962817c,
            0x8281cc512e5f7c8e,
        ],
    ),
    (
        "4-8-3 zipf1 word1",
        [
            0xf7ab2a28afe92b37,
            0x4facb3886ffe267a,
            0x21a8f217cf27eb64,
            0xc2f2f1b251a505b9,
        ],
    ),
    (
        "8-16-15 zipf1 lane1",
        [
            0x114e27df387462fa,
            0xf65539f5beda5bd7,
            0xd07f9739dac33a78,
            0x8c96903b28366e87,
        ],
    ),
    (
        "8-16-15 evolving ff",
        [
            0xb8147a85ac169664,
            0xe0b85b3290b7a49,
            0x26ddec456ea78592,
            0x85384736bfe02643,
        ],
    ),
    (
        "4-8-3 paced ff",
        [
            0xff057fa91692717f,
            0x60c64fcbf660c981,
            0x1bc2538c211d154e,
            0xd99149aff1d0762c,
        ],
    ),
    // Re-pinned on the change that gave the pre-armed monitor its probe.
    (
        "2-4-3 evolving pre-armed",
        [
            0xc3191c1d329fdd8,
            0x6d37facafb92a57d,
            0xf4d9cbcf2b0d23d9,
            0xdd823e4be5489495,
        ],
    ),
    (
        "4-8-3 evolving pre-armed",
        [
            0x17e719aeebcead85,
            0x88c124f7b2e5262b,
            0x765bd4cb90d4a6ca,
            0xdd5683ae21ed4c1c,
        ],
    ),
    (
        "8-16-15 evolving pre-armed",
        [
            0x4c2fce4d64ae1091,
            0xfbe8d3547d6f19e,
            0xa6ad8bfa5a81a85b,
            0x55cdfe3f56e5d0d4,
        ],
    ),
    (
        "16-32-31 evolving pre-armed",
        [
            0x2420424fa789add7,
            0x68975d88504b1935,
            0x7331fe0715603b17,
            0xcca5282c39a5b364,
        ],
    ),
    (
        "8-16-15 evolving ff pre-armed",
        [
            0x551db9e9f70d24a3,
            0xd619db8dbaf72e65,
            0x2dd087a94335d69a,
            0x33f8c82e8a402392,
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
            0x2b1b71020754c6da,
            0x49defab9ae79cd5a,
            0xaecc70359fea6d8c,
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
            0xb2065556463f1879,
            0xfd593c67f5207927,
            0x76fdfbc21d3d8d74,
            0xbba19314d2433dc4,
        ],
    ),
    (
        "dp 8-16-15 zipf1 pe2",
        [
            0x9ef8ef7cfe76ef3c,
            0x4f5eada36650246c,
            0xf58e710dfc1367a0,
            0x6fd996ba8909a63d,
        ],
    ),
    (
        "pr 4-8-7 rmat",
        [
            0x29b28d184b8061d9,
            0x55cf1e64d285146c,
            0xb8253b2ae2349041,
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
            0x4c9298cb801a7b3c,
            0xa3fbc04a2b1db895,
            0x3174a950379e9482,
            0x321280b4d4b36ae2,
        ],
    ),
    // Serial reschedules 50 times on starvation alone; the pre-armed
    // probe's lane-wait gate never fires.
    (
        "4-8-3 paced rescheduling",
        [
            0xe91f3a680f2d35b4,
            0xa0f3d5de7735a41c,
            0x76e23399810339b3,
            0x25ca6166b60dc059,
        ],
    ),
    (
        "4-8-3 paced rescheduling pre-armed",
        [
            0x580e489f2bfe14ec,
            0xdb1aaad8c25123e7,
            0x7a86964d9c4299ad,
            0x25ca6166b60dc059,
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
