//! `BENCHMARK.json` is what `list --json` prints, and both stay inside the
//! limits the benchmark contract sets.

use std::collections::HashSet;

use ditto_benchmark::spec::{
    benchmark_json, list_text, COMMAND, END_TO_END, PATHS, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use ditto_benchmark::workloads::{Scale, Workload};

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn names_and_units_are_well_formed_and_unique() {
    let mut seen = HashSet::new();
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert!(is_name(name), "{name}");
        assert!(seen.insert(name), "{name} used twice");
    }
    for metric in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            is_unit(metric.unit),
            "{}: unit {}",
            metric.name,
            metric.unit
        );
    }
    for workload in &WORKLOADS {
        assert!(
            workload.why.len() <= 200 && !workload.why.contains('\n'),
            "{}",
            workload.name
        );
    }
}

#[test]
fn every_listed_workload_is_implemented_under_its_name() {
    assert_eq!(Workload::ALL.len(), WORKLOADS.len());
    for (workload, listed) in Workload::ALL.into_iter().zip(&WORKLOADS) {
        assert_eq!(workload.name(), listed.name);
        assert_eq!(Workload::from_name(listed.name), Some(workload));
        // The defining property of each, so a reordering cannot pass.
        assert_eq!(
            workload.name().starts_with("wire_"),
            workload.wire_plan(Scale::FULL).is_some()
        );
    }
    assert!(Workload::WirePacedHa
        .wire_plan(Scale::FULL)
        .is_some_and(|p| p.replicas.is_some()));
    assert!(Workload::EngineSaturated.zipf_table().is_none());
}

#[test]
fn counts_and_bounds_are_within_the_contract() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&RUN_SECONDS));
    assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|c| c.len() <= 200));
    for metric in &END_TO_END {
        let bound = metric.bound.expect("end-to-end metrics are gated");
        assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", metric.name);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.label()), ("s", "lower"));
    let largest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(largest),
        "set-up time carries the largest bound"
    );
    assert!(benchmark_json().len() <= 64 * 1024);
    for path in PATHS {
        assert!(
            COMMAND.iter().any(|c| c.starts_with(path)),
            "the command runs from {path}"
        );
    }
}

#[test]
fn list_output_is_benchmark_json() {
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate with `list --json > BENCHMARK.json`"
    );
    // The human-readable list names the same things with the same
    // units, directions and bounds.
    let text = list_text();
    for workload in &WORKLOADS {
        assert!(text.contains(workload.name) && text.contains(workload.why));
    }
    for metric in END_TO_END.iter().chain(&PER_LAYER) {
        let row = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(metric.name))
            .unwrap_or_else(|| panic!("{} missing from list", metric.name));
        let fields: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(fields[1], metric.unit, "{row}");
        assert_eq!(fields[2], metric.better.label(), "{row}");
        if let Some(bound) = metric.bound {
            assert_eq!(fields[3].parse::<f64>().ok(), Some(bound), "{row}");
        }
    }
}
