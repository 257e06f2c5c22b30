//! `agree`: two sets of runs of the same code must agree within the
//! benchmark's own bounds, or the bounds mean nothing.

use std::collections::BTreeMap;
use std::process::Command;

use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::worse_by;

/// `e2e`/`info` lines of one child run, by metric name.
type Readings = BTreeMap<String, f64>;

/// Runs `run <workload> <flags…>` in a child process — so `peak_rss_mib`
/// is that workload's alone — and parses the `e2e` and `info` lines it
/// prints. `Err` when the child failed or judged its output incorrect.
fn child_run(workload: &str, flags: &[String]) -> Result<Readings, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .arg("run")
        .arg(workload)
        .args(flags)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        let problems: Vec<&str> = stdout
            .lines()
            .filter(|l| l.starts_with("problem "))
            .collect();
        return Err(format!(
            "run {workload} exited with {}: {} {}",
            output.status,
            problems.join("; "),
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(parse_readings(&stdout))
}

/// `e2e <workload> <metric> <value> <unit>` and `info <workload> <metric>
/// <value>` lines → metric → value.
pub fn parse_readings(stdout: &str) -> Readings {
    let mut readings = Readings::new();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [kind, _, metric, value, ..] = fields[..] {
            if kind == "e2e" || kind == "info" {
                if let Ok(v) = value.parse() {
                    readings.insert(metric.to_owned(), v);
                }
            }
        }
    }
    readings
}

/// Runs every workload, then every workload again, prints both sets side
/// by side and returns whether every end-to-end metric of the second set
/// is within its bound of the first, in either direction.
pub fn agree(flags: &[String]) -> bool {
    let mut sets: [Vec<Result<Readings, String>>; 2] = [Vec::new(), Vec::new()];
    for (index, set) in sets.iter_mut().enumerate() {
        for workload in &WORKLOADS {
            eprintln!("agree: set {} {}", index + 1, workload.name);
            set.push(child_run(workload.name, flags));
        }
    }
    let mut agreed = true;
    println!(
        "{:<18} {:<24} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "diff", "bound"
    );
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let (first, second) = match (&sets[0][i], &sets[1][i]) {
            (Ok(first), Ok(second)) => (first, second),
            (a, b) => {
                for failure in [a, b].into_iter().filter_map(|r| r.as_ref().err()) {
                    println!("{:<18} FAILED {failure}", workload.name);
                }
                agreed = false;
                continue;
            }
        };
        for metric in &END_TO_END {
            let (a, b) = (first[metric.name], second[metric.name]);
            let bound = metric.bound.expect("gated");
            let diff = worse_by(a, b, metric.better);
            let within = diff.abs() <= bound;
            agreed &= within;
            println!(
                "{:<18} {:<24} {a:>16.4} {b:>16.4} {:>+8.2}% {:>6.0}% {}",
                workload.name,
                metric.name,
                diff * 100.0,
                bound * 100.0,
                if within { "" } else { "DISAGREE" }
            );
        }
        for (info, a) in first
            .iter()
            .filter(|(name, _)| END_TO_END.iter().all(|m| m.name != *name))
        {
            let b = second.get(info).copied().unwrap_or(0.0);
            println!("{:<18} {info:<24} {a:>16.4} {b:>16.4}", workload.name);
        }
    }
    agreed
}
