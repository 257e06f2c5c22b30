//! The consolidated `DITTO_*` environment-override catalog.
//!
//! Every knob the stack reads from the environment is registered here
//! with its consumer and default, so there is one place (plus the README
//! table generated from the same data) to discover them, and
//! [`log_active`] lets long-running binaries announce at startup which
//! overrides are in effect — silent env-dependent behaviour is how numbers
//! stop being comparable. `tests/env_catalog.rs` holds the catalog to the
//! source: every name here is read somewhere, and nothing else is read.

/// One documented environment override.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvKnob {
    /// Variable name.
    pub name: &'static str,
    /// The binary/layer that reads it.
    pub consumer: &'static str,
    /// Behaviour when unset.
    pub default: &'static str,
    /// What setting it does.
    pub effect: &'static str,
}

/// Every `DITTO_*` override the stack honours.
pub const KNOWN: &[EnvKnob] = &[
    EnvKnob {
        name: "DITTO_FAST_FORWARD",
        consumer: "ditto-core (all simulations)",
        default: "per-config flag",
        effect: "force steady-state fast-forward on (`1`/`true`) or off (`0`) process-wide, \
                 overriding `ArchConfig`; lets CI re-run goldens under fast-forward; any other \
                 value panics",
    },
    EnvKnob {
        name: "DITTO_REPLICAS",
        consumer: "ditto-ha (replicated serving)",
        default: "per-call argument (examples default to 1)",
        effect: "follower replicas per shard for `HaCluster`-hosted apps; `0` disables \
                 replication and recovery falls back to batch-log replay; a value that is not a \
                 count panics",
    },
    EnvKnob {
        name: "DITTO_KILL_SHARD",
        consumer: "ditto-serve (fault injection)",
        default: "unset (no fault)",
        effect: "`<shard>:<batches>` kills the given shard thread after it serves that many \
                 batches — deterministic failure injection for recovery drills and CI smoke; any \
                 other value panics, so a drill cannot pass without its fault",
    },
    EnvKnob {
        name: "DITTO_TRACE_OUT",
        consumer: "wire loopback test",
        default: "unset (no export)",
        effect: "file path where the loopback telemetry test writes its Chrome trace-event JSON",
    },
    EnvKnob {
        name: "DITTO_PLAN_TRACE_OUT",
        consumer: "plan_deploy example",
        default: "unset (no export)",
        effect: "file path where `plan_deploy` writes the counts trace's phase flame row as \
                 Chrome trace-event JSON (timeline in cycles)",
    },
];

/// The `DITTO_*` overrides currently set, as `(knob, value)` pairs in
/// [`KNOWN`] order.
pub fn active() -> Vec<(EnvKnob, String)> {
    KNOWN
        .iter()
        .filter_map(|k| std::env::var(k.name).ok().map(|v| (*k, v)))
        .collect()
}

/// Logs the active overrides to stderr (one line per knob, nothing when no
/// override is set). Call once at binary startup.
pub fn log_active() {
    for (k, v) in active() {
        eprintln!("ditto-obs: env override {}={v} ({})", k.name, k.consumer);
    }
}

/// The catalog as a GitHub-flavoured Markdown table — the source of the
/// README's env-override section (kept in sync by test).
pub fn markdown_table() -> String {
    let mut out = String::from("| Variable | Read by | Default | Effect |\n|---|---|---|---|\n");
    for k in KNOWN {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            k.name,
            k.consumer,
            k.default,
            k.effect.split_whitespace().collect::<Vec<_>>().join(" ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_names_are_unique_and_prefixed() {
        let mut names: Vec<&str> = KNOWN.iter().map(|k| k.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate knob registered");
        for k in KNOWN {
            assert!(
                k.name.starts_with("DITTO_"),
                "{} not DITTO_-prefixed",
                k.name
            );
        }
    }

    #[test]
    fn markdown_table_has_one_row_per_knob() {
        let table = markdown_table();
        assert_eq!(table.lines().count(), 2 + KNOWN.len());
        for k in KNOWN {
            assert!(table.contains(k.name));
        }
    }
}
