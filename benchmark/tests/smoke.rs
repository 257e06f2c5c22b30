//! Every workload at 1/50 size: the outputs are still checked against the
//! host reference and simulated counts must repeat exactly across
//! repetitions; plus the traced run, the environment check and what a run
//! prints.

use std::process::Command;

use ditto_benchmark::host::{install_panic_hook, is_injected_kill};
use ditto_benchmark::run::run;
use ditto_benchmark::spec::{END_TO_END, PER_LAYER};
use ditto_benchmark::trace::trace;
use ditto_benchmark::workloads::{Scale, Workload};

const SMOKE: Scale = Scale(50);

fn smoke(workload: Workload) {
    install_panic_hook();
    let result = run(workload, 7, SMOKE, 2);
    assert!(
        result.correct(),
        "{}: {:?}",
        workload.name(),
        result.problems
    );
    assert_eq!(result.reps.len(), 2);
    assert_eq!(result.failed, 0);
    assert_eq!(result.attempted, 2 * workload.planned_batches(SMOKE));
    assert_eq!(
        result.reps[0].fingerprint, result.reps[1].fingerprint,
        "simulated counts repeat exactly"
    );
    for metric in &END_TO_END {
        let value = result.reported[metric.name];
        assert!(
            value.is_finite() && value > 0.0,
            "{} = {value}",
            metric.name
        );
        assert_eq!(result.per_rep[metric.name].len(), 2);
    }
    let (a, b) = (
        &result.per_rep["sim_tuples_per_cycle"],
        &result.per_rep["modelled_mtps"],
    );
    assert_eq!(a[0].to_bits(), a[1].to_bits());
    assert_eq!(b[0].to_bits(), b[1].to_bits());
    // Another seed is another input.
    let other = run(workload, 8, SMOKE, 1);
    assert!(other.correct(), "{:?}", other.problems);
    assert_ne!(other.reps[0].fingerprint, result.reps[0].fingerprint);
}

#[test]
fn engine_saturated_smoke() {
    smoke(Workload::EngineSaturated);
}

#[test]
fn engine_evolving_smoke() {
    smoke(Workload::EngineEvolving);
}

#[test]
fn wire_closed_smoke() {
    smoke(Workload::WireClosed);
}

#[test]
fn wire_paced_ha_smoke() {
    smoke(Workload::WirePacedHa);
}

fn layer(result: &ditto_benchmark::trace::TraceResult, name: &str) -> f64 {
    let index = PER_LAYER.iter().position(|m| m.name == name).expect(name);
    result.layer[index]
}

#[test]
fn traced_engine_run_attributes_every_step() {
    let result = trace(Workload::EngineEvolving, 7, SMOKE);
    assert!(result.correct(), "{:?}", result.problems);
    let shares: f64 = PER_LAYER
        .iter()
        .filter(|m| m.name.starts_with("ditto-core.steps_share."))
        .map(|m| layer(&result, m.name))
        .sum();
    assert!((shares - 1.0).abs() < 1e-9, "step shares sum to {shares}");
    assert!(layer(&result, "hls-sim.kernel_steps") > 0.0);
    assert!(layer(&result, "hls-sim.ns_per_kernel_step") > 0.0);
    assert!(layer(&result, "fpga-model.freq_mhz") > 0.0);
    assert!(layer(&result, "datagen.zipf_table_build_ms") > 0.0);
    for absent in [
        "serve.self_us_per_batch",
        "ha.promotions",
        "wire.bytes_per_tuple",
    ] {
        assert_eq!(
            layer(&result, absent),
            0.0,
            "{absent} on an engine workload"
        );
    }
    let file = result.trace_file.expect("trace written");
    let json = std::fs::read_to_string(file).expect("trace readable");
    assert!(json.contains("step_slice") && json.contains("\"cat\": \"hls-sim\""));
}

#[test]
fn traced_replicated_run_sees_the_kill_and_climbs_the_ladder() {
    install_panic_hook();
    let result = trace(Workload::WirePacedHa, 7, SMOKE);
    assert!(result.correct(), "{:?}", result.problems);
    assert_eq!(result.failed, 0);
    assert_eq!(layer(&result, "ha.promotions"), 1.0);
    assert_eq!(layer(&result, "ha.replicas"), 1.0);
    assert_eq!(layer(&result, "wire.error_frames"), 0.0);
    assert_eq!(layer(&result, "wire.shed_batches"), 0.0);
    assert_eq!(
        layer(&result, "obs.journal_evicted"),
        0.0,
        "capacities were raised"
    );
    assert!(layer(&result, "obs.journal_events") > 0.0);
    assert!(layer(&result, "serve.sub_batches_per_batch") >= 1.0);
    assert!(layer(&result, "wire.bytes_per_tuple") > 16.0);
    assert!(layer(&result, "ha.kill_to_first_done_us") > 0.0);
    assert!(layer(&result, "ha.log_batches") > 0.0);
    assert!(
        layer(&result, "hls-sim.kernel_steps") > 0.0,
        "from the engine rung"
    );
    assert!(layer(&result, "wire.ping_rtt_us_p50") > 0.0);
    assert_eq!(layer(&result, "bench.failed_share"), 0.0);
}

#[test]
fn only_the_injected_kill_is_quiet() {
    assert!(is_injected_kill(
        "DITTO_KILL_SHARD: shard 1 killed after 1300 served batches (fault injection)"
    ));
    assert!(!is_injected_kill(
        "shard 1 died while serving: index out of bounds"
    ));
    assert!(!is_injected_kill("DITTO_KILL_SHARD: something else"));
}

fn benchmark() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ditto-benchmark"))
}

#[test]
fn refuses_to_measure_under_environment_overrides() {
    for command in ["run", "trace"] {
        let output = benchmark()
            .args([command, "engine_saturated"])
            .env("DITTO_FAST_FORWARD", "1")
            .output()
            .expect("spawn");
        assert_eq!(output.status.code(), Some(1));
        assert!(output.stdout.is_empty(), "no result under an override");
        assert!(String::from_utf8_lossy(&output.stderr).contains("DITTO_FAST_FORWARD=1"));
    }
}

/// The last line is the result object with exactly the listed metrics.
fn assert_result_line(lines: &[String], metrics: &[ditto_benchmark::spec::Metric]) {
    let last = lines.last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    for metric in metrics {
        let key = format!("\"{}\": {{\"value\": ", metric.name);
        assert_eq!(last.matches(&key).count(), 1, "{} in {last}", metric.name);
        assert!(last.contains(&format!("\"unit\": \"{}\"}}", metric.unit)));
    }
    assert_eq!(
        last.matches("\"value\"").count(),
        metrics.len(),
        "no other metric"
    );
}

#[test]
fn printed_runs_end_with_the_result_line_and_carry_the_record() {
    let mut result = run(Workload::EngineSaturated, 3, SMOKE, 1);
    result.requested_seconds = Some(20);
    let lines = result.lines();
    assert_result_line(&lines, &END_TO_END);
    let record = lines
        .iter()
        .find(|l| l.starts_with("record "))
        .expect("a record line");
    for key in [
        "\"host\": {\"nproc\": ",
        "\"single_vcpu\": ",
        "\"pinned_cpu\": ",
        "\"seed\": 3",
        "\"scale_divisor\": 50",
        "\"requested_seconds\": 20",
        "\"reps\": 1",
        "\"config\": {",
    ] {
        assert!(record.contains(key), "{key} in {record}");
    }
    assert_result_line(
        &trace(Workload::EngineSaturated, 3, SMOKE).lines(),
        &PER_LAYER,
    );
}

#[test]
fn the_command_line_takes_no_size_or_repetition_knob() {
    for knob in ["--reps", "--scale"] {
        let output = benchmark()
            .args(["run", "engine_saturated", knob, "1"])
            .output()
            .expect("spawn");
        assert_eq!(output.status.code(), Some(1), "{knob}");
        assert!(output.stdout.is_empty());
    }
}

#[test]
fn unknown_input_is_refused() {
    for args in [
        &["run", "nope"][..],
        &["--workload", "nope"],
        &["run", "wire_closed", "--bogus", "1"],
        &[],
    ] {
        let output = benchmark().args(args).output().expect("spawn");
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        assert!(output.stdout.is_empty());
    }
}
