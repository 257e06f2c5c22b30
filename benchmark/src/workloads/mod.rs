//! The four workloads. Each exposes one function that runs one whole
//! repetition — set-up, then the timed region, then the output check —
//! through public functions of the stack only, timing them from outside.

pub mod engine;
pub mod wire;

use std::collections::BTreeMap;

use ditto_core::ArchConfig;

use crate::span::Spans;
use crate::spec::WORKLOADS;

/// Per-layer values a repetition collected, by metric name.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// Divisor applied to every workload size: 1 is the benchmark, 50 the
/// smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale(pub u64);

impl Scale {
    pub const FULL: Scale = Scale(1);

    /// `n / divisor`, never below `floor`.
    pub fn of(self, n: u64, floor: u64) -> u64 {
        (n / self.0).max(floor)
    }
}

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Generation, build and warm-up — CPU-bound, no synchronous round trips.
    pub setup_s: f64,
    pub timed_s: f64,
    /// Process CPU seconds (all threads) spent inside the timed region.
    pub cpu_s: f64,
    /// Tuples the timed region served.
    pub tuples: u64,
    /// One sample per batch of the timed region, microseconds.
    pub batch_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the repetition is not correct — an output that differs from the
    /// host reference, a failed protocol check — when it is not.
    pub problem: Option<String>,
    /// Simulated tuples and cycles: of the steady timed slices on engine
    /// workloads; of [`wire::engines_only`] over a prefix of the timed
    /// frames on wire workloads, whose served shards poll by the wall clock.
    pub sim_tuples: u64,
    pub sim_cycles: u64,
    /// Every simulated count of the repetition; must repeat exactly.
    pub fingerprint: Vec<u64>,
    pub layer: LayerValues,
}

impl Rep {
    /// A repetition that died: every planned batch counts as failed.
    pub fn dead(attempted: u64, problem: String) -> Rep {
        Rep {
            attempted,
            failed: attempted,
            problem: Some(problem),
            ..Rep::default()
        }
    }
}

/// FNV-1a over a sequence of counts — folds an output histogram or a
/// per-PE workload vector into one fingerprint word.
pub fn fold_hash(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EngineSaturated,
    EngineEvolving,
    WireClosed,
    WirePacedHa,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EngineSaturated,
        Workload::EngineEvolving,
        Workload::WireClosed,
        Workload::WirePacedHa,
    ];

    /// The name `BENCHMARK.json` lists it under (same order as `ALL`).
    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].name
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn engine_kind(self) -> Option<engine::Kind> {
        match self {
            Workload::EngineSaturated => Some(engine::Kind::Saturated),
            Workload::EngineEvolving => Some(engine::Kind::Evolving),
            _ => None,
        }
    }

    pub fn wire_plan(self, scale: Scale) -> Option<wire::Plan> {
        match self {
            Workload::WireClosed => Some(wire::Plan::closed(scale)),
            Workload::WirePacedHa => Some(wire::Plan::paced_ha(scale)),
            _ => None,
        }
    }

    /// The Zipf table `(alpha, universe)` the workload's generator builds on
    /// its first construction in a process and caches afterwards.
    pub fn zipf_table(self) -> Option<(f64, u64)> {
        match self {
            Workload::EngineSaturated => None,
            Workload::EngineEvolving => Some((engine::ZIPF_ALPHA, engine::KEY_UNIVERSE)),
            Workload::WireClosed | Workload::WirePacedHa => {
                Some((wire::ZIPF_ALPHA, wire::KEY_UNIVERSE))
            }
        }
    }

    /// The pipeline shape whose modelled clock turns tuples/cycle into
    /// tuples/s.
    pub fn arch(self) -> ArchConfig {
        match self.engine_kind() {
            Some(kind) => engine::arch(kind),
            None => wire::arch(),
        }
    }

    /// Batches one repetition attempts.
    pub fn planned_batches(self, scale: Scale) -> u64 {
        match self.engine_kind() {
            Some(kind) => engine::Plan::of(kind, scale).slices,
            None => self.wire_plan(scale).expect("wire workload").frames as u64,
        }
    }

    /// The effective server/serve/arch configuration, for the record.
    pub fn config_json(self, scale: Scale) -> String {
        match self.engine_kind() {
            Some(kind) => engine::config_json(kind, scale),
            None => self.wire_plan(scale).expect("wire workload").config_json(),
        }
    }

    /// One whole repetition. A disabled `spans` recorder gives the
    /// end-to-end numbers with shipped defaults; an enabled one makes it
    /// the traced repetition.
    pub fn repetition(self, seed: u64, scale: Scale, spans: &mut Spans) -> Rep {
        match self.engine_kind() {
            Some(kind) => engine::repetition(kind, seed, scale, spans),
            None => wire::repetition(&self.wire_plan(scale).expect("wire workload"), seed, spans),
        }
    }
}
