//! # ditto-repro — the paper's §VI evaluation as one checked binary
//!
//! `repro <target> [--tuples N]` regenerates one result of the paper and
//! then checks the claim that result exists to support:
//!
//! `fig2` (workload heat map, throughput collapse), `fig7` (HLL vs SecPE
//! count over the Zipf sweep), `fig8` (PageRank vs Chen et al.), `fig9`
//! (evolving skew and rescheduling), `table1` (applications), `table2`
//! (state-of-the-art comparison), `table3` (HLL resources and clock), or
//! `all` of them in that order.
//!
//! Every run ends with a `claim | paper | ours | holds` table. Exit status:
//! 0 when every claim holds, 1 when the run could not start (usage), 2 when
//! a claim failed (each is named on stderr).
//!
//! Datasets default to 1 % of the paper's 26 M tuples, the size the claim
//! thresholds are calibrated at; `--tuples 26000000` runs paper scale.
//! Throughput *shape* is independent of size once runs are much longer
//! than pipeline warm-up. Output is byte-deterministic: every sweep point
//! is its own seeded engine, and [`par_map`] returns results in input order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fig2;
mod fig7;
mod fig8;
mod fig9;
mod table1;
mod table2;
mod table3;

use std::io::{self, Write};

use datagen::Tuple;
use ditto_core::{DittoApp, SkewAnalyzer};
use ditto_plan::{DeploymentPlan, Planner, PlannerOptions};
use fpga_model::{AppCostProfile, PipelineShape, ResourceEstimate, ResourceModel};

/// The paper's dataset size (26 M tuples, §II).
const PAPER_TUPLES: usize = 26_000_000;

/// Default dataset size: 1 % of the paper's.
const DEFAULT_TUPLES: usize = PAPER_TUPLES / 100;

/// Command-line synopsis, printed with every usage error.
pub const USAGE: &str = "usage: repro <fig2|fig7|fig8|fig9|table1|table2|table3|all> [--tuples N]";

/// One checked statement about a regenerated result.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// What must hold, prefixed by its target (`fig7: 32P never beats 16P`).
    pub text: String,
    /// What the paper reports.
    pub paper: &'static str,
    /// What this run measured.
    pub ours: String,
    /// Whether the run supports the claim.
    pub holds: bool,
}

impl Claim {
    /// The stderr line naming this claim when it fails.
    pub fn failure(&self) -> String {
        format!("claim failed: {} (ours: {})", self.text, self.ours)
    }
}

/// One target's claims, in the order added.
struct Claims {
    target: &'static str,
    list: Vec<Claim>,
}

impl Claims {
    fn of(target: &'static str) -> Self {
        let list = Vec::new();
        Claims { target, list }
    }

    fn add(&mut self, text: &str, paper: &'static str, ours: String, holds: bool) {
        let text = format!("{}: {text}", self.target);
        self.list.push(Claim {
            text,
            paper,
            ours,
            holds,
        });
    }

    /// `value` must reach `min`; the threshold is written once, into both
    /// the claim's text and its test.
    fn at_least(&mut self, what: &str, paper: &'static str, value: f64, min: f64) {
        let text = format!("{what} ≥ {}", number(min));
        self.add(&text, paper, number(value), value >= min);
    }

    /// `value` must stay within `max`.
    fn at_most(&mut self, what: &str, paper: &'static str, value: f64, max: f64) {
        let text = format!("{what} ≤ {}", number(max));
        self.add(&text, paper, number(value), value <= max);
    }
}

/// Two decimals, without trailing zeros: `12.08`, `0.8`, `4`.
fn number(v: f64) -> String {
    let fixed = format!("{v:.2}");
    fixed.trim_end_matches('0').trim_end_matches('.').to_owned()
}

/// One reproducible result: measured, printed, then checked. Checks take
/// the measured data, never the engine, so tests can hand them a violating
/// table.
trait Target: Sized {
    /// Runs the experiment on `tuples`-tuple datasets (targets without a
    /// dataset ignore it).
    fn measure(tuples: usize) -> Self;
    /// Prints the paper-style markdown.
    fn render(&self, out: &mut dyn Write) -> io::Result<()>;
    /// The claims this result supports.
    fn check(&self) -> Vec<Claim>;
}

fn run_target<T: Target>(tuples: usize, out: &mut dyn Write) -> io::Result<Vec<Claim>> {
    let data = T::measure(tuples);
    data.render(out)?;
    Ok(data.check())
}

type Runner = fn(usize, &mut dyn Write) -> io::Result<Vec<Claim>>;

/// Every target, in `all` order.
const TARGETS: [(&str, Runner); 7] = [
    ("fig2", run_target::<fig2::Fig2>),
    ("fig7", run_target::<fig7::Fig7>),
    ("fig8", run_target::<fig8::Fig8>),
    ("fig9", run_target::<fig9::Fig9>),
    ("table1", run_target::<table1::Table1>),
    ("table2", run_target::<table2::Table2>),
    ("table3", run_target::<table3::Table3>),
];

/// A parsed command line: which targets to run, at what dataset size.
#[derive(Debug, PartialEq, Eq)]
pub struct Invocation {
    targets: Vec<usize>,
    tuples: usize,
}

/// Parses `repro`'s arguments (without the program name).
pub fn parse(args: &[String]) -> Result<Invocation, String> {
    let mut targets = None;
    let mut tuples = DEFAULT_TUPLES;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--tuples" {
            let n = args.next().and_then(|n| n.parse().ok()).filter(|&n| n > 0);
            tuples = n.ok_or("--tuples needs a positive integer")?;
        } else if targets.is_some() {
            return Err(format!("unexpected argument `{arg}`"));
        } else if arg == "all" {
            targets = Some((0..TARGETS.len()).collect());
        } else {
            let at = TARGETS.iter().position(|(name, _)| name == arg);
            targets = Some(vec![at.ok_or(format!("unknown target `{arg}`"))?]);
        }
    }
    let targets = targets.ok_or("no target given")?;
    Ok(Invocation { targets, tuples })
}

/// Runs the invocation's targets, prints the claims summary and returns
/// every claim (failed or not). An `Err` is stdout's: the caller decides
/// what a closed pipe means.
pub fn run(invocation: &Invocation, out: &mut dyn Write) -> io::Result<Vec<Claim>> {
    let mut claims = Vec::new();
    for &t in &invocation.targets {
        claims.extend(TARGETS[t].1(invocation.tuples, out)?);
        writeln!(out)?;
    }
    writeln!(out, "# Claims")?;
    header(
        out,
        "What the results above are for",
        "claim | paper | ours | holds",
    )?;
    for c in &claims {
        let holds = if c.holds { "yes" } else { "**NO**" };
        writeln!(out, "| {} | {} | {} | {holds} |", c.text, c.paper, c.ours)?;
    }
    let held = claims.iter().filter(|c| c.holds).count();
    writeln!(out, "\n{held} of {} claims hold.", claims.len())?;
    Ok(claims)
}

/// The Zipf-factor sweep of Figs. 2b and 7: 0 to 3 in steps of 0.25.
fn alpha_sweep() -> Vec<f64> {
    (0..=12).map(|i| f64::from(i) * 0.25).collect()
}

/// The paper's implementation selection (Fig. 6) for `app` over `data`,
/// among Table III's generated variants: Equation 1's shape with
/// X ∈ {0, 1, 2, 4, 8, 15} SecPEs.
fn select_table3<A: DittoApp>(app: &A, data: &[Tuple], profile: &AppCostProfile) -> DeploymentPlan {
    let opts = PlannerOptions {
        sec_pes: vec![0, 1, 2, 4, 8, 15],
        ..PlannerOptions::equation1(app.ii_pre(), app.ii_pri())
    };
    Planner::new().select(app, data, &SkewAnalyzer::paper(), profile, &opts)
}

/// Modelled clock for a configuration running `profile`.
fn freq_of(n: u32, m: u32, x: u32, profile: &AppCostProfile) -> f64 {
    estimate_of(n, m, x, profile).freq_mhz
}

/// Full resource estimate for a configuration.
fn estimate_of(n: u32, m: u32, x: u32, profile: &AppCostProfile) -> ResourceEstimate {
    ResourceModel::arria10().estimate(PipelineShape::new(n, m, x), profile)
}

/// Runs `f` over `items` on the machine's available parallelism, returning
/// results in input order.
///
/// Each scenario point of a sweep (app × Zipf-θ × PE-config) is an
/// independent simulation `Engine`, so sweeps are embarrassingly parallel;
/// workers claim the next unclaimed index, so uneven points balance.
pub fn par_map<T: Sync, R: Send, F: Fn(&T) -> R + Sync>(items: &[T], f: F) -> Vec<R> {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break mine };
            mine.push((i, f(item)));
        }
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..cores.min(items.len()))
            .map(|_| scope.spawn(worker))
            .collect();
        let mut done = worker();
        for w in workers {
            done.extend(w.join().expect("sweep worker panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Formats a markdown table row.
fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Writes a markdown section title and the header of a table whose column
/// names are given ` | `-separated.
fn header(out: &mut dyn Write, title: &str, cols: &str) -> io::Result<()> {
    let rule = vec!["---"; cols.split(" | ").count()].join("|");
    writeln!(out, "\n## {title}\n\n| {cols} |\n|{rule}|")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A way to break a `T`, and a phrase of the one claim that must then fail.
    pub(crate) type Violation<T> = (fn(&mut T), &'static str);

    /// `good()` supports every claim, and each case — one per claim —
    /// breaks it so that exactly the named claim fails: every check can fail.
    pub(crate) fn assert_each_claim_can_fail<T: Target>(
        good: impl Fn() -> T,
        cases: &[Violation<T>],
    ) {
        let failed = |data: &T| -> Vec<String> {
            let failed = data.check().into_iter().filter(|c| !c.holds);
            failed.map(|c| c.failure()).collect()
        };
        assert_eq!(failed(&good()), [""; 0]);
        assert_eq!(cases.len(), good().check().len(), "one case per claim");
        for (violate, claim) in cases {
            let mut data = good();
            violate(&mut data);
            let msgs = failed(&data);
            assert!(
                msgs.len() == 1 && msgs[0].contains(claim),
                "expected exactly `{claim}` to fail: {msgs:?}"
            );
        }
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn sweep_covers_zero_to_three() {
        let s = alpha_sweep();
        assert_eq!((s.len(), s[0], s[12]), (13, 0.0, 3.0));
    }

    #[test]
    fn par_map_preserves_order_and_equals_sequential_map() {
        let items: Vec<u64> = (0..97).collect();
        let f = |&i: &u64| (i, i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7);
        assert_eq!(par_map(&items, f), items.iter().map(f).collect::<Vec<_>>());
        assert!(par_map(&[] as &[u64], f).is_empty());
    }

    #[test]
    fn parse_accepts_one_target_and_one_size_and_nothing_else() {
        let one = parse(&args("fig7 --tuples 4000")).expect("valid");
        assert_eq!((one.targets.as_slice(), one.tuples), (&[1][..], 4000));
        let all = parse(&args("--tuples 9 all")).expect("valid");
        assert_eq!((all.targets.len(), all.tuples), (TARGETS.len(), 9));
        assert_eq!(parse(&args("table1")).expect("valid").tuples, 260_000);
        for bad in "|fig3|fig2 fig7|fig2 --tuples|fig2 --tuples 0|--check all".split('|') {
            assert!(parse(&args(bad)).is_err(), "`{bad}` must be a usage error");
        }
    }
}
