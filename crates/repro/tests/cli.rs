//! The binary's contract with CI and shells: exit 0 / 1 / 2, failed claims
//! named on stderr, and no panic when the reader goes away.

use std::process::{Command, Stdio};

/// Runs `repro args…`; returns its exit code, stdout and stderr.
fn repro(args: &[&str]) -> (Option<i32>, String, String) {
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output();
    let out = run.expect("repro binary runs");
    let text = |bytes| String::from_utf8(bytes).expect("utf-8");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn exit_status_tells_holding_claims_from_usage_errors_from_failed_claims() {
    let (code, stdout, stderr) = repro(&["table3"]);
    assert_eq!((code, stderr.as_str()), (Some(0), ""));
    assert!(stdout.starts_with("# Table III") && stdout.ends_with("3 of 3 claims hold.\n"));

    let (code, stdout, stderr) = repro(&["plan_report"]);
    assert_eq!((code, stdout.as_str()), (Some(1), ""));
    assert!(
        stderr.contains("unknown target `plan_report`\nusage: repro"),
        "{stderr}"
    );

    // Eight hundred tuples are all warm-up: the uniform run cannot reach
    // line rate, and the run must say so, not print a table nobody reads.
    let (code, stdout, stderr) = repro(&["fig2", "--tuples", "800"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("repro: claim failed: fig2: tuples/cycle on uniform keys ≥ 7"),
        "{stderr}"
    );
    assert!(stdout.contains("| **NO** |"), "{stdout}");
}

#[test]
fn a_closed_reader_is_not_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("table2")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro binary runs");
    drop(child.stdout.take()); // the `| head` that already left
    let out = child.wait_with_output().expect("repro exits");
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stderr.is_empty(), "{:?}", String::from_utf8(out.stderr));
}
