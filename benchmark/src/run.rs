//! A run: repetitions of one workload in one process, each metric
//! computed per repetition and summarised by the better-quartile
//! estimator.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use fpga_model::{mtps, AppCostProfile, PipelineShape, ResourceEstimate, ResourceModel};

use crate::host;
use crate::span::Spans;
use crate::spec::{Metric, END_TO_END};
use crate::stats::{better_quartile, median, percentile};
use crate::workloads::{Rep, Scale, Workload};

/// Repetitions of a measuring run. Fixed, so the better-quartile rank is
/// the same order statistic — the 2nd best of 8 — in every run, however
/// fast the host is that minute.
pub const REPS: usize = 8;

pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
    /// What `--seconds` asked for: recorded, never acted on.
    pub requested_seconds: Option<u64>,
    pub reps: Vec<Rep>,
    /// End-to-end metric → one value per repetition that finished.
    pub per_rep: BTreeMap<&'static str, Vec<f64>>,
    /// End-to-end metric → the reported value.
    pub reported: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// The `fpga-model` estimate of the workload's pipeline shape; its clock
/// turns tuples/cycle into tuples/s.
pub fn modelled_shape(workload: Workload) -> ResourceEstimate {
    let arch = workload.arch();
    ResourceModel::arria10().estimate(
        PipelineShape::new(arch.n_pre, arch.m_pri, arch.x_sec),
        &AppCostProfile::histo(),
    )
}

/// One repetition with panics contained: an expected shard kill never
/// unwinds into here, so anything caught is a real failure and the
/// repetition counts as wholly failed.
pub fn guarded_repetition(workload: Workload, seed: u64, scale: Scale, spans: &mut Spans) -> Rep {
    catch_unwind(AssertUnwindSafe(|| workload.repetition(seed, scale, spans))).unwrap_or_else(
        |payload| {
            let message = host::panic_message(payload.as_ref());
            Rep::dead(
                workload.planned_batches(scale),
                format!("repetition panicked: {message}"),
            )
        },
    )
}

/// The end-to-end metrics of one finished repetition, in `END_TO_END`
/// order.
pub fn end_to_end_values(rep: &Rep, mhz: f64, peak_rss_mib: f64) -> [f64; 8] {
    let tuples_per_cycle = rep.sim_tuples as f64 / rep.sim_cycles.max(1) as f64;
    [
        rep.setup_s,
        rep.tuples as f64 / rep.timed_s,
        rep.cpu_s / (rep.tuples as f64 / 1e6),
        tuples_per_cycle,
        mtps(tuples_per_cycle, mhz),
        percentile(&rep.batch_us, 0.5),
        percentile(&rep.batch_us, 0.9),
        peak_rss_mib,
    ]
}

fn report(metric: &Metric, values: &[f64]) -> f64 {
    match metric.name {
        // The process's high-water mark after one whole repetition. Later
        // repetitions only add what the allocator retains between them.
        "peak_rss_mib" => values[0],
        _ => better_quartile(values, metric.better),
    }
}

/// `reps` repetitions of `workload` at `scale`. A measuring run is
/// `run(workload, seed, Scale::FULL, REPS)`; the traced run's baseline and
/// the tests use fewer and smaller.
pub fn run(workload: Workload, seed: u64, scale: Scale, reps: usize) -> RunResult {
    let mhz = modelled_shape(workload).freq_mhz;
    let mut done: Vec<Rep> = Vec::with_capacity(reps);
    let mut per_rep: BTreeMap<&'static str, Vec<f64>> =
        END_TO_END.iter().map(|m| (m.name, Vec::new())).collect();
    let mut problems = Vec::new();
    for index in 0..reps.max(1) {
        let rep = guarded_repetition(workload, seed, scale, &mut Spans::disabled());
        if let Some(problem) = &rep.problem {
            problems.push(format!("repetition {index}: {problem}"));
        } else {
            let values = end_to_end_values(&rep, mhz, host::peak_rss_mib());
            for (metric, value) in END_TO_END.iter().zip(values) {
                per_rep.get_mut(metric.name).expect("seeded").push(value);
            }
        }
        done.push(rep);
    }
    let reps = done;

    if reps.iter().any(|r| r.fingerprint != reps[0].fingerprint) {
        problems.push("simulated counts differ between repetitions".to_owned());
    }
    let mut reported = BTreeMap::new();
    for metric in &END_TO_END {
        let values = &per_rep[metric.name];
        let value = if values.is_empty() {
            0.0
        } else {
            report(metric, values)
        };
        if !value.is_finite() || value <= 0.0 {
            problems.push(format!("{} reads {value}", metric.name));
        }
        reported.insert(metric.name, if value.is_finite() { value } else { 0.0 });
    }
    RunResult {
        workload,
        seed,
        scale,
        requested_seconds: None,
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        reps,
        per_rep,
        reported,
        problems,
    }
}

fn numbers(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| json_number(*v)).collect();
    format!("[{}]", items.join(", "))
}

/// A JSON number with all its digits; JSON has no NaN or infinity.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        items.join(", ")
    )
}

impl RunResult {
    /// Median of a per-layer value the untraced repetitions collected.
    pub fn layer_median(&self, name: &str) -> Option<f64> {
        let values: Vec<f64> = self
            .reps
            .iter()
            .filter_map(|r| r.layer.get(name).copied())
            .collect();
        (!values.is_empty()).then(|| median(&values))
    }

    /// The full record: what was run, where, with which configuration, and
    /// every repetition's value beside the reported one.
    pub fn record_json(&self) -> String {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"per_rep\": {}}}",
                    m.name,
                    json_number(self.reported[m.name]),
                    m.unit,
                    numbers(&self.per_rep[m.name])
                )
            })
            .collect();
        let problems: Vec<String> = self.problems.iter().map(|p| json_string(p)).collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"scale_divisor\": {}, \"requested_seconds\": {}, \"reps\": {}, \
             \"estimator\": \"better quartile: rank ceil(R/4) from the best\", \"host\": {}, \"config\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \"problems\": [{}]}}",
            self.workload.name(),
            self.seed,
            self.scale.0,
            self.requested_seconds
                .map_or("null".to_owned(), |s| s.to_string()),
            self.reps.len(),
            host::host_json(),
            self.workload.config_json(self.scale),
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", "),
            problems.join(", ")
        )
    }

    /// What a run prints: human-readable lines (`e2e <workload> <metric>
    /// <value> <unit>`, which `agree` parses back), the record, then the
    /// result line.
    pub fn lines(&self) -> Vec<String> {
        let name = self.workload.name();
        let mut lines = vec![format!(
            "# {name} seed={} reps={}",
            self.seed,
            self.reps.len()
        )];
        for m in &END_TO_END {
            lines.push(format!(
                "e2e {name} {} {} {}",
                m.name,
                json_number(self.reported[m.name]),
                m.unit
            ));
        }
        for info in [
            "wire.sender_lateness_p99_us",
            "wire.batch_latency_p99_us",
            "ha.kill_to_first_done_us",
        ] {
            if let Some(value) = self.layer_median(info) {
                lines.push(format!("info {name} {info} {}", json_number(value)));
            }
        }
        for problem in &self.problems {
            lines.push(format!("problem {name} {problem}"));
        }
        lines.push(format!("record {}", self.record_json()));
        let metrics: Vec<(&str, f64, &str)> = END_TO_END
            .iter()
            .map(|m| (m.name, self.reported[m.name], m.unit))
            .collect();
        lines.push(result_line(
            self.correct(),
            self.attempted,
            self.failed,
            &metrics,
        ));
        lines
    }
}
