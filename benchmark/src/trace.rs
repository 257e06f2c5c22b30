//! The traced run: a few untraced repetitions for the baseline, one traced
//! repetition with spans and raised journal capacities, the depth ladder,
//! and the small per-call timings no workload reaches on its own. Emits
//! every per-layer metric; layers a workload never enters read 0.

use std::path::PathBuf;
use std::time::Instant;

use datagen::ZipfGenerator;
use ditto_wire::{AdmissionConfig, AdmissionController};

use crate::ladder;
use crate::run::{self, guarded_repetition, RunResult};
use crate::span::Spans;
use crate::spec::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, worse_by};
use crate::workloads::{LayerValues, Scale, Workload};

/// Untraced repetitions the traced one is compared with.
const BASELINE_REPS: usize = 3;

pub struct TraceResult {
    pub workload: Workload,
    /// One value per `PER_LAYER` metric, in that order.
    pub layer: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Self time of the recorded spans per layer, milliseconds.
    pub self_ms_by_layer: Vec<(&'static str, f64)>,
    /// Where the Chrome trace went, when it could be written.
    pub trace_file: Option<PathBuf>,
}

impl TraceResult {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// What a traced run prints; the result line last.
    pub fn lines(&self) -> Vec<String> {
        let name = self.workload.name();
        let mut lines = vec![format!("# trace {name}")];
        for (metric, value) in PER_LAYER.iter().zip(&self.layer) {
            lines.push(format!(
                "layer {name} {} {} {}",
                metric.name,
                run::json_number(*value),
                metric.unit
            ));
        }
        for (layer, ms) in &self.self_ms_by_layer {
            lines.push(format!("self {name} {layer} {} ms", run::json_number(*ms)));
        }
        for problem in &self.problems {
            lines.push(format!("problem {name} {problem}"));
        }
        if let Some(path) = &self.trace_file {
            lines.push(format!("# chrome trace: {}", path.display()));
        }
        let metrics: Vec<(&str, f64, &str)> = PER_LAYER
            .iter()
            .zip(&self.layer)
            .map(|(m, v)| (m.name, *v, m.unit))
            .collect();
        lines.push(run::result_line(
            self.correct(),
            self.attempted,
            self.failed,
            &metrics,
        ));
        lines
    }
}

/// Nanoseconds per `AdmissionController::evaluate` at the shipped policy.
fn admission_evaluate_ns() -> f64 {
    let controller = AdmissionController::new(AdmissionConfig::new());
    const CALLS: u64 = 1_000_000;
    let started = Instant::now();
    for depth in 0..CALLS {
        std::hint::black_box(controller.evaluate(std::hint::black_box(depth), 0));
    }
    started.elapsed().as_secs_f64() * 1e9 / CALLS as f64
}

/// `benchmark/out/` when run from the root of a checkout, as the driver
/// does, `out/` when run from inside `benchmark/`: found from the working
/// directory at run time, so a copied binary writes where it is run.
fn trace_path(workload: Workload) -> PathBuf {
    let package = PathBuf::from(crate::spec::PATHS[0]);
    let out = if package.join("Cargo.toml").is_file() {
        package.join("out")
    } else {
        PathBuf::from("out")
    };
    out.join(format!("trace-{}.json", workload.name()))
}

fn write_trace(workload: Workload, spans: &Spans) -> Option<PathBuf> {
    let path = trace_path(workload);
    std::fs::create_dir_all(path.parent()?).ok()?;
    std::fs::write(&path, spans.chrome_trace_json()).ok()?;
    Some(path)
}

/// `|median − reported| / reported` of the baseline repetitions: how far
/// the estimator sits from the middle of what it summarised.
fn rep_spread(baseline: &RunResult, metric: &str) -> f64 {
    let values = &baseline.per_rep[metric];
    if values.is_empty() {
        return 0.0;
    }
    worse_by(baseline.reported[metric], median(values), Better::Lower).abs()
}

pub fn trace(workload: Workload, seed: u64, scale: Scale) -> TraceResult {
    let mut layer = LayerValues::new();
    let mut problems = Vec::new();

    // First, while the process is still cold.
    if let Some((alpha, universe)) = workload.zipf_table() {
        let started = Instant::now();
        std::hint::black_box(ZipfGenerator::new(alpha, universe, seed));
        layer.insert(
            "datagen.zipf_table_build_ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
    }

    let baseline = run::run(workload, seed, scale, BASELINE_REPS);
    problems.extend(baseline.problems.iter().cloned());

    let mut spans = Spans::enabled();
    let traced = guarded_repetition(workload, seed, scale, &mut spans);
    if let Some(problem) = &traced.problem {
        problems.push(format!("traced repetition: {problem}"));
    } else if baseline
        .reps
        .first()
        .is_some_and(|r| r.fingerprint != traced.fingerprint)
    {
        problems.push("tracing changed a simulated count".to_owned());
    }
    layer.extend(&traced.layer);

    if let Some(plan) = workload.wire_plan(scale) {
        match ladder::climb(&plan, seed, &mut spans) {
            Ok(rungs) => layer.extend(rungs),
            Err(problem) => problems.push(problem),
        }
        layer.insert("wire.admission_evaluate_ns", admission_evaluate_ns());
    }

    let (estimate, took) = spans.scope("fpga-model", "estimate", None, |_| {
        run::modelled_shape(workload)
    });
    layer.insert("fpga-model.freq_mhz", estimate.freq_mhz);
    layer.insert("fpga-model.estimate_us", took.as_secs_f64() * 1e6);

    // CPU per tuple is the cost tracing can move on every workload, the
    // paced one included, where throughput is pinned by the schedule. One
    // traced repetition against the middle untraced one: like with like.
    let untraced_cpu = &baseline.per_rep["cpu_s_per_mtuple"];
    if traced.problem.is_none() && traced.tuples > 0 && !untraced_cpu.is_empty() {
        let traced_cpu = traced.cpu_s / (traced.tuples as f64 / 1e6);
        layer.insert(
            "bench.tracing_overhead_share",
            worse_by(median(untraced_cpu), traced_cpu, Better::Lower),
        );
    }
    for metric in &END_TO_END {
        let name = PER_LAYER
            .iter()
            .map(|m| m.name)
            .find(|n| n.strip_prefix("bench.rep_spread.") == Some(metric.name))
            .expect("every end-to-end metric has a rep_spread row");
        layer.insert(name, rep_spread(&baseline, metric.name));
    }
    let attempted = baseline.attempted + traced.attempted;
    let failed = baseline.failed + traced.failed;
    layer.insert("bench.reps", (baseline.reps.len() + 1) as f64);
    layer.insert(
        "bench.failed_share",
        failed as f64 / attempted.max(1) as f64,
    );

    TraceResult {
        workload,
        layer: PER_LAYER
            .iter()
            .map(|m| {
                layer
                    .get(m.name)
                    .copied()
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0)
            })
            .collect(),
        attempted,
        failed,
        problems,
        self_ms_by_layer: spans
            .self_ns_by_layer()
            .into_iter()
            .map(|(layer, ns)| (layer, ns as f64 / 1e6))
            .collect(),
        trace_file: write_trace(workload, &spans),
    }
}
