//! Pins README content that is generated from (or promised by) code, so
//! documentation drift fails the suite instead of shipping.

static README: &str = include_str!("../README.md");
static REPRO: &str = include_str!("../REPRO.md");

/// The env-override table in the README is the verbatim output of
/// [`ditto::obs::env::markdown_table`] — edit `obs::env::KNOWN`, then
/// paste the regenerated table.
#[test]
fn env_override_table_matches_registry() {
    let table = ditto::obs::env::markdown_table();
    assert!(
        README.contains(&table),
        "README env-override table is stale; regenerate it with \
         ditto_obs::env::markdown_table():\n{table}"
    );
}

/// Every `DITTO_*` variable the README mentions anywhere is a registered
/// knob — prose cannot reference an override the catalog doesn't know.
#[test]
fn readme_mentions_only_registered_knobs() {
    let known: Vec<&str> = ditto::obs::env::KNOWN.iter().map(|k| k.name).collect();
    let mut rest = README;
    while let Some(at) = rest.find("DITTO_") {
        let tail = &rest[at..];
        let end = tail
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(tail.len());
        // Bare `DITTO_*` (glob prose) trims to `DITTO`; skip those.
        let var = tail[..end].trim_end_matches('_');
        if var.len() > "DITTO".len() {
            assert!(
                known.contains(&var),
                "README references unregistered env var {var}; add it to \
                 ditto_obs::env::KNOWN"
            );
        }
        rest = &rest[at + end..];
    }
}

/// The wire-protocol section documents the PR 7 telemetry frames with
/// their pinned discriminants.
#[test]
fn wire_protocol_docs_cover_metrics_frames() {
    for needle in ["`Metrics` (`0x05`", "`MetricsDump` (`0x85`"] {
        assert!(
            README.contains(needle),
            "README protocol kinds paragraph is missing {needle}"
        );
    }
}

/// The README shows the paper's claims, not a copy of them that can rot:
/// its summary is the tail of the committed `repro all` output, verbatim.
#[test]
fn readme_claims_summary_is_repro_md_s() {
    let at = REPRO.find("| claim | paper | ours | holds |");
    let summary = &REPRO[at.expect("REPRO.md ends in the claims table")..];
    assert!(summary.ends_with("claims hold.\n"), "{summary}");
    assert!(
        README.contains(summary),
        "README claims summary is stale; paste the tail of REPRO.md:\n{summary}"
    );
}

/// The second perf system is gone; the README must not send anyone to it.
#[test]
fn readme_names_nothing_that_was_retired() {
    let retired = [
        "BENCH_", // result files; `BENCHMARK.json` has no underscore
        "_bench", // the four `<layer>_bench` bins
        "bench_", // the report emitter
        "-p ditto-bench",
        "cargo bench",
        "--bin hotpath",
        "--bin fig",
        "--bin table",
        "ditto-framework", // folded into ditto-plan and ditto-core
        "SystemGenerator",
        "select_implementation",
        "DITTO_PLAN_BUDGET",
        "MergeableOutput", // one merge: `Cluster::finish` through `DittoApp::merge`
        "finish_per_shard",
        "SinglePeDesign", // Table II prices Tong et al. with `PriorDesign`
    ];
    for name in retired {
        assert!(!README.contains(name), "README still mentions `{name}`");
    }
}
