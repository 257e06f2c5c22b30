//! Command line: `list`, `run <workload|all>`, `trace <workload>`, `agree`,
//! and the driver's form `--workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`.

use std::process::Command;

use crate::workloads::{Scale, Workload};
use crate::{agree, host, run, spec, trace};

const USAGE: &str = "usage:
  ditto-benchmark list [--json]
  ditto-benchmark run <workload|all> [--seed N]
  ditto-benchmark trace <workload> [--seed N]
  ditto-benchmark agree [--seed N]
  ditto-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Ran and correct.
const OK: i32 = 0;
/// Could not run: bad usage, environment overrides set.
const REFUSED: i32 = 1;
/// Ran, and an output or a protocol check was wrong.
const INCORRECT: i32 = 2;

struct Options {
    seed: u64,
    /// Recorded only: a run is always `run::REPS` repetitions at full
    /// size, which take about `spec::RUN_SECONDS` on the reference box.
    seconds: Option<u64>,
    traced: bool,
    workload: Option<String>,
    json: bool,
}

/// Parses `--flag value` pairs (and the bare `--json`).
fn parse_flags(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        seed: 1,
        seconds: None,
        traced: false,
        workload: None,
        json: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--json" {
            options.json = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--seed" => options.seed = number()?,
            "--seconds" => options.seconds = Some(number()?),
            "--trace" => options.traced = number()? != 0,
            "--workload" => options.workload = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(options)
}

fn workload_named(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })
}

fn measure(workload: Workload, options: &Options) -> Result<i32, String> {
    host::check_environment_pinned()?;
    host::install_panic_hook();
    if let Err(why) = host::pin_to_one_cpu() {
        eprintln!("ditto-benchmark: measuring unpinned: {why}");
    }
    let (lines, correct) = if options.traced {
        let result = trace::trace(workload, options.seed, Scale::FULL);
        (result.lines(), result.correct())
    } else {
        let mut result = run::run(workload, options.seed, Scale::FULL, run::REPS);
        result.requested_seconds = options.seconds;
        (result.lines(), result.correct())
    };
    for line in lines {
        println!("{line}");
    }
    Ok(if correct { OK } else { INCORRECT })
}

/// One child process per workload, so each `peak_rss_mib` is that
/// workload's own high-water mark.
fn run_all(flags: &[String]) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut worst = OK;
    for workload in &spec::WORKLOADS {
        let status = Command::new(&exe)
            .arg("run")
            .arg(workload.name)
            .args(flags)
            .status()
            .map_err(|e| format!("spawn: {e}"))?;
        worst = worst.max(status.code().unwrap_or(INCORRECT));
    }
    Ok(worst)
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    let Some(first) = args.first() else {
        return Err(USAGE.to_owned());
    };
    if first.starts_with("--") {
        let options = parse_flags(args)?;
        let name = options
            .workload
            .as_deref()
            .ok_or("--workload is required")?;
        return measure(workload_named(name)?, &options);
    }
    match (first.as_str(), args.get(1).map(String::as_str)) {
        ("list", _) => {
            let options = parse_flags(&args[1..])?;
            print!(
                "{}",
                if options.json {
                    spec::benchmark_json()
                } else {
                    spec::list_text()
                }
            );
            Ok(OK)
        }
        ("run", Some("all")) => {
            parse_flags(&args[2..])?;
            run_all(&args[2..])
        }
        ("run" | "trace", Some(name)) if !name.starts_with("--") => {
            let mut options = parse_flags(&args[2..])?;
            options.traced = first == "trace";
            measure(workload_named(name)?, &options)
        }
        ("agree", _) => {
            parse_flags(&args[1..])?;
            host::check_environment_pinned()?;
            Ok(if agree::agree(&args[1..]) {
                OK
            } else {
                INCORRECT
            })
        }
        _ => Err(USAGE.to_owned()),
    }
}

/// Runs the command line; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    dispatch(args).unwrap_or_else(|message| {
        eprintln!("ditto-benchmark: {message}");
        REFUSED
    })
}
