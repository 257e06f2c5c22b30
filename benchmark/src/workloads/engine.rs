//! `engine_saturated` and `engine_evolving`: one `PersistentPipeline` on
//! the paper's shape, stepped in the 4096-cycle slices a serve shard polls
//! in. Nothing above `ditto-core` runs.

use std::time::Instant;

use datagen::{EvolvingZipfStream, Tuple, UniformGenerator};
use ditto_apps::HistoApp;
use ditto_core::{ArchConfig, PersistentPipeline, SliceOptions, StatSnapshot};
use ditto_obs::{CountsTrace, KernelClass};
use hls_sim::{MemoryModel, SliceSource, StreamSource};

use super::{fold_hash, LayerValues, Rep, Scale};
use crate::host::process_cpu_seconds;
use crate::span::Spans;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Uniform keys from memory: one steady phase at the interface rate.
    Saturated,
    /// Fig. 9 conditions: a Zipf(3) stream whose hot keys rotate, with
    /// online rescheduling.
    Evolving,
}

/// One batch: the cycle slice a serve shard steps between command polls
/// at its largest, and long enough (≈ 9 ms) to time from outside.
pub const SLICE_CYCLES: u64 = 4096;
const BINS: u64 = 4096;
pub const KEY_UNIVERSE: u64 = 1 << 22;
pub const ZIPF_ALPHA: f64 = 3.0;
const ROTATE_EVERY_CYCLES: u64 = 80_000;
const STREAM_TUPLES_PER_CYCLE: f64 = 8.0;

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Dataset size (saturated only; the evolving stream is unbounded).
    pub tuples: usize,
    pub warm_cycles: u64,
    pub slices: u64,
}

impl Plan {
    pub fn of(kind: Kind, scale: Scale) -> Plan {
        match kind {
            // 65 536 + 160 × 4096 cycles at ≈ 7.3 tuples/cycle leave a
            // short tail for `drain`.
            Kind::Saturated => Plan {
                tuples: scale.of(5_400_000, 1) as usize,
                warm_cycles: scale.of(65_536, 1),
                slices: scale.of(160, 2),
            },
            // Two rotations of warm-up, then ≈ 12 more (≈ 12 reschedules).
            Kind::Evolving => Plan {
                tuples: 0,
                warm_cycles: scale.of(163_840, 1),
                slices: scale.of(230, 2),
            },
        }
    }
}

fn app() -> HistoApp {
    HistoApp::new(BINS, 16)
}

pub fn arch(kind: Kind) -> ArchConfig {
    let arch = ArchConfig::paper(15).with_pe_entries(app().pe_entries());
    match kind {
        Kind::Saturated => arch,
        Kind::Evolving => arch
            .with_reschedule(0.5, 20_000)
            .with_profile_cycles(256)
            .with_monitor_window(4096),
    }
}

pub fn config_json(kind: Kind, scale: Scale) -> String {
    let a = arch(kind);
    let plan = Plan::of(kind, scale);
    format!(
        "{{\"app\": \"HISTO\", \"bins\": {BINS}, \"arch\": \"{}\", \"n_pre\": {}, \"reschedule_threshold\": {}, \
         \"requeue_overhead_cycles\": {}, \"profile_cycles\": {}, \"monitor_window\": {}, \
         \"fast_forward\": {}, \"slice_cycles\": {SLICE_CYCLES}, \"slices\": {}, \"warm_cycles\": {}, \"tuples\": {}}}",
        a.label(),
        a.n_pre,
        a.reschedule_threshold,
        a.requeue_overhead_cycles,
        a.profile_cycles,
        a.monitor_window,
        a.steady_state_fast_forward,
        plan.slices,
        plan.warm_cycles,
        plan.tuples,
    )
}

/// What the traced repetition folds out of its `profile_counts` slices.
#[derive(Default)]
struct SliceLedger {
    steps_by_class: [u64; 10],
    channel_pushes: u64,
    channel_full_stalls: u64,
    /// Cycles of slices in which no reschedule completed and no plan was
    /// generated.
    steady_cycles: u64,
}

impl SliceLedger {
    fn fold(&mut self, counts: &CountsTrace, before: &StatSnapshot, after: &StatSnapshot) {
        for phase in &counts.phases {
            for (sum, n) in self.steps_by_class.iter_mut().zip(phase.steps_by_class) {
                *sum += n;
            }
            self.channel_pushes += phase.channel_pushes;
            self.channel_full_stalls += phase.channel_full_stalls;
        }
        if after.reschedules == before.reschedules
            && after.plans_generated == before.plans_generated
        {
            self.steady_cycles += after.cycles - before.cycles;
        }
    }

    fn publish(&self, layer: &mut LayerValues, cycles: u64) {
        let share = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        };
        let total: u64 = self.steps_by_class.iter().sum();
        for (class, name) in [
            (KernelClass::Reader, "ditto-core.steps_share.reader"),
            (KernelClass::PrePe, "ditto-core.steps_share.prepe"),
            (KernelClass::Mapper, "ditto-core.steps_share.mapper"),
            (KernelClass::Combiner, "ditto-core.steps_share.combiner"),
            (KernelClass::Decoder, "ditto-core.steps_share.decoder"),
            (KernelClass::PriPe, "ditto-core.steps_share.pripe"),
            (KernelClass::SecPe, "ditto-core.steps_share.secpe"),
            (KernelClass::Profiler, "ditto-core.steps_share.profiler"),
            (KernelClass::Merger, "ditto-core.steps_share.merger"),
        ] {
            layer.insert(name, share(self.steps_by_class[class.index()], total));
        }
        layer.insert("hls-sim.channel_pushes", self.channel_pushes as f64);
        layer.insert(
            "hls-sim.channel_full_stalls",
            self.channel_full_stalls as f64,
        );
        layer.insert(
            "hls-sim.full_stall_share",
            share(
                self.channel_full_stalls,
                self.channel_pushes + self.channel_full_stalls,
            ),
        );
        layer.insert(
            "ditto-core.steady_cycle_share",
            share(self.steady_cycles, cycles),
        );
    }
}

/// Nanoseconds per tuple of the evolving stream pulled on its own, eight
/// tuples a cycle as the memory reader does — the stream is lazy, so
/// inside the pipeline its cost cannot be timed from outside.
fn lazy_stream_ns_per_tuple(seed: u64, spans: &mut Spans) -> f64 {
    let mut stream = new_stream(seed);
    let mut out = Vec::with_capacity(16);
    let (pulled, took) = spans.scope("datagen", "evolving_stream_pull", None, |_| {
        let mut pulled = 0usize;
        for cy in 0..65_536u64 {
            out.clear();
            pulled += stream.pull(cy, 8, &mut out);
        }
        std::hint::black_box(&out);
        pulled
    });
    took.as_secs_f64() * 1e9 / pulled.max(1) as f64
}

fn new_stream(seed: u64) -> EvolvingZipfStream {
    EvolvingZipfStream::new(
        ZIPF_ALPHA,
        KEY_UNIVERSE,
        seed,
        ROTATE_EVERY_CYCLES,
        STREAM_TUPLES_PER_CYCLE,
        None,
    )
}

pub fn repetition(kind: Kind, seed: u64, scale: Scale, spans: &mut Spans) -> Rep {
    let (rep, _) = spans.scope("bench", "repetition", None, |spans| {
        run(kind, seed, scale, spans)
    });
    rep
}

fn run(kind: Kind, seed: u64, scale: Scale, spans: &mut Spans) -> Rep {
    let traced = spans.is_enabled();
    let plan = Plan::of(kind, scale);
    let app = app();
    let arch = arch(kind);
    let mut layer = LayerValues::new();

    // Set-up: generate, build, warm up. The host reference is the
    // checker's work, not the system's, and stays outside `setup_s`.
    let mut reference = None;
    let (source, generate): (Box<dyn StreamSource<Tuple>>, _) = match kind {
        Kind::Saturated => {
            let (data, took) = spans.scope("datagen", "uniform_take_vec", None, |_| {
                UniformGenerator::new(KEY_UNIVERSE, seed).take_vec(plan.tuples)
            });
            reference = Some(app.reference(&data));
            let source = SliceSource::new(data, Tuple::PAPER_WIDTH_BYTES, MemoryModel::new(64, 16));
            (Box::new(source), took)
        }
        Kind::Evolving => {
            let (stream, took) =
                spans.scope("datagen", "evolving_stream_new", None, |_| new_stream(seed));
            (Box::new(stream), took)
        }
    };
    let (mut pipeline, build) = spans.scope("ditto-core", "pipeline_new", None, |_| {
        PersistentPipeline::new(app.clone(), source, &arch)
    });
    let (_, warm) = spans.scope("hls-sim", "warm_up", None, |_| {
        pipeline.step_cycles(plan.warm_cycles)
    });
    let setup_s = (generate + build + warm).as_secs_f64();

    // Timed region: the slices, then drain (bounded input only) and finish.
    let cpu_before = process_cpu_seconds();
    let started = Instant::now();
    let before = pipeline.snapshot();
    let mut batch_us = Vec::with_capacity(plan.slices as usize);
    let mut ledger = SliceLedger::default();
    let mut slice_start = before.clone();
    for slice in 0..plan.slices {
        let (counts, took) = spans.scope("hls-sim", "step_slice", Some(slice), |_| {
            if traced {
                Some(pipeline.profile_counts(SliceOptions::new(SLICE_CYCLES)))
            } else {
                pipeline.step_cycles(SLICE_CYCLES);
                None
            }
        });
        batch_us.push(took.as_secs_f64() * 1e6);
        if let Some(counts) = counts {
            let slice_end = pipeline.snapshot();
            ledger.fold(&counts, &slice_start, &slice_end);
            slice_start = slice_end;
        }
    }
    let sliced = started.elapsed();
    let steady = pipeline.snapshot();
    let (drained, drain) = spans.scope("ditto-core", "drain", None, |_| match kind {
        // Everything left after the slices, serialised through one PE at
        // II = 2, would still fit this budget many times over.
        Kind::Saturated => pipeline.drain(4 * plan.tuples as u64 + 1_000_000),
        Kind::Evolving => true,
    });
    let ff_cycles_skipped = pipeline.engine().ff_cycles_skipped();
    let (outcome, finish) = spans.scope("ditto-core", "finish", None, |_| pipeline.finish());
    let timed_s = started.elapsed().as_secs_f64();
    let cpu_s = process_cpu_seconds() - cpu_before;

    let report = &outcome.report;
    let served: u64 = outcome.output.iter().sum();
    let problem = if !drained || !report.completed {
        Some("pipeline failed to drain".to_owned())
    } else if served != report.tuples {
        Some(format!(
            "output holds {served} tuples, engine processed {}",
            report.tuples
        ))
    } else if reference.as_ref().is_some_and(|r| *r != outcome.output) {
        Some("output differs from the host reference".to_owned())
    } else if kind == Kind::Saturated && report.tuples != plan.tuples as u64 {
        Some(format!(
            "{} of {} tuples processed",
            report.tuples, plan.tuples
        ))
    } else {
        None
    };

    let sim_tuples = steady.tuples - before.tuples;
    let sim_cycles = steady.cycles - before.cycles;
    let fingerprint = vec![
        before.cycles,
        before.tuples,
        before.kernel_steps,
        steady.cycles,
        steady.tuples,
        steady.kernel_steps,
        steady.reschedules,
        steady.plans_generated,
        steady.phase,
        report.cycles,
        report.tuples,
        report.kernel_steps,
        report.reschedules,
        report.plans_generated,
        report.channel_totals.pushes,
        report.channel_totals.pops,
        report.channel_totals.full_stalls,
        report.channel_totals.max_occupancy_sum,
        fold_hash(report.per_pe_processed.iter().copied()),
        fold_hash(outcome.output.iter().copied()),
    ];

    let steps = steady.kernel_steps - before.kernel_steps;
    let per = |n: u64| {
        if n == 0 {
            0.0
        } else {
            sliced.as_secs_f64() * 1e9 / n as f64
        }
    };
    layer.insert("hls-sim.cycles", sim_cycles as f64);
    layer.insert("hls-sim.kernel_steps", steps as f64);
    layer.insert(
        "hls-sim.kernel_steps_per_tuple",
        steps as f64 / sim_tuples.max(1) as f64,
    );
    layer.insert("hls-sim.ns_per_kernel_step", per(steps));
    layer.insert("hls-sim.ns_per_cycle", per(sim_cycles));
    layer.insert("hls-sim.ff_cycles_skipped", ff_cycles_skipped as f64);
    layer.insert("ditto-core.build_us", build.as_secs_f64() * 1e6);
    layer.insert("ditto-core.drain_us", drain.as_secs_f64() * 1e6);
    layer.insert("ditto-core.finish_us", finish.as_secs_f64() * 1e6);
    layer.insert(
        "ditto-core.reschedules",
        (steady.reschedules - before.reschedules) as f64,
    );
    layer.insert(
        "ditto-core.plans_generated",
        (steady.plans_generated - before.plans_generated) as f64,
    );
    layer.insert(
        "ditto-core.phases",
        (steady.phase - before.phase + 1) as f64,
    );
    let m = arch.m_pri as usize;
    let sec: u64 = report.per_pe_processed[m..].iter().sum();
    layer.insert("ditto-core.pri_pe_imbalance", report.imbalance(m));
    layer.insert(
        "ditto-core.sec_pe_tuple_share",
        sec as f64 / report.tuples.max(1) as f64,
    );
    match kind {
        Kind::Saturated => {
            layer.insert("datagen.tuples", plan.tuples as f64);
            layer.insert(
                "datagen.ns_per_tuple",
                generate.as_secs_f64() * 1e9 / plan.tuples.max(1) as f64,
            );
        }
        Kind::Evolving => {
            layer.insert("datagen.tuples", report.tuples as f64);
            if traced {
                layer.insert(
                    "datagen.ns_per_tuple",
                    lazy_stream_ns_per_tuple(seed, spans),
                );
            }
        }
    }
    if traced {
        ledger.publish(&mut layer, sim_cycles);
    }

    Rep {
        setup_s,
        timed_s,
        cpu_s,
        tuples: report.tuples - before.tuples,
        batch_us,
        attempted: plan.slices,
        failed: 0,
        problem,
        sim_tuples,
        sim_cycles,
        fingerprint,
        layer,
    }
}
