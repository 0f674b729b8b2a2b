//! `memsense-benchmark`: the repository's benchmark. One command, four
//! seeded workloads, end-to-end metrics from untraced runs and per-layer
//! metrics from traced ones.
//!
//! ```text
//! memsense-benchmark run [--workload W]... [--seed N] [--seconds S]
//!                        [--trace [0|1]] [--smoke] [--out results.json]
//! memsense-benchmark compare --parent FILE... --change FILE... [--spec BENCHMARK.json]
//! memsense-benchmark bless
//! ```
//!
//! README.md in the package directory is the reference: the metric table
//! with units, directions and bounds, why each workload exists, which layer
//! should move which metric on which workload, and how to run, compare and
//! read a trace.
//!
//! * [`run`] — the parent/worker orchestration behind `run`.
//! * [`sim`], [`serve`] — the workloads.
//! * [`loadgen`] — the open-loop HTTP load generator.
//! * [`trace`] — spans and self times.
//! * [`compare`] — the parent-vs-change verdicts.
//! * [`golden`] — the committed correctness pins.
//!
//! Everything lives in this binary target: the repository's lint treats
//! library paths as production code on the deterministic output path, and
//! a benchmark reads wall clocks by design.

#![forbid(unsafe_code)]

mod compare;
mod golden;
mod host;
mod job;
mod loadgen;
mod metrics;
mod rng;
mod run;
mod serve;
mod sim;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use job::{Job, Kind};
use run::RunArgs;
use spec::Spec;

const USAGE: &str = "\
usage: memsense-benchmark run [--workload W]... [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out PATH]
       memsense-benchmark compare --parent FILE... --change FILE... [--spec PATH]
       memsense-benchmark bless

workloads: sim-corebound sim-membound serve-hot serve-cold (default: all)";

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("invalid value {value:?} for {flag}"))
}

fn parse_run(args: Vec<String>) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workloads: Vec::new(),
        seed: 1,
        seconds: f64::NAN,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut args = args.into_iter().peekable();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => {
                let name = args.next().ok_or("--workload needs a value")?;
                run.workloads
                    .push(Kind::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => run.seed = parse_num("--seed", args.next())?,
            "--seconds" => {
                run.seconds = parse_num("--seconds", args.next())?;
                if !(run.seconds.is_finite() && run.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                run.trace = args
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--smoke" => run.smoke = true,
            "--out" => run.out = Some(PathBuf::from(args.next().ok_or("--out needs a value")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if run.workloads.is_empty() {
        run.workloads = Kind::ALL.to_vec();
    }
    if run.seconds.is_nan() {
        run.seconds = if run.smoke {
            run::SMOKE_SECONDS
        } else {
            spec::catalogue().run_seconds
        };
    }
    Ok(run)
}

fn parse_worker(args: Vec<String>) -> Result<Job, String> {
    let mut job = Job {
        kind: Kind::SimCorebound,
        seed: 1,
        seconds: spec::catalogue().run_seconds,
        trace: false,
        smoke: false,
        setup_only: false,
        server_cpu: None,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => {
                let name = args.next().unwrap_or_default();
                job.kind =
                    Kind::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
            }
            "--seed" => job.seed = parse_num("--seed", args.next())?,
            "--seconds" => job.seconds = parse_num("--seconds", args.next())?,
            "--trace" => job.trace = true,
            "--smoke" => job.smoke = true,
            "--setup-only" => job.setup_only = true,
            "--server-cpu" => job.server_cpu = Some(parse_num("--server-cpu", args.next())?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(job)
}

fn run_compare(args: Vec<String>) -> Result<bool, String> {
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    let mut spec_path = None;
    let mut side: Option<&mut Vec<String>> = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            "--spec" => {
                spec_path = Some(PathBuf::from(args.next().ok_or("--spec needs a value")?));
                side = None;
            }
            file => side
                .as_mut()
                .ok_or_else(|| format!("{file:?}: name --parent or --change first"))?
                .push(file.to_string()),
        }
    }
    if parent.is_empty() || change.is_empty() {
        return Err("compare needs --parent and --change files".to_string());
    }
    let loaded = spec_path.as_deref().map(Spec::load).transpose()?;
    let rows = compare::compare(
        loaded.as_ref().unwrap_or_else(|| spec::catalogue()),
        &compare::collect(&parent)?,
        &compare::collect(&change)?,
    );
    print!("{}", compare::table(&rows));
    Ok(rows
        .iter()
        .all(|r| r.verdict != compare::Verdict::Regressed))
}

/// Recomputes every golden file from the current code.
fn bless() -> Result<(), String> {
    std::env::set_var("MEMSENSE_THREADS", "1");
    let pins = [
        ("sim-corebound", sim::pinned(Kind::SimCorebound)),
        ("sim-membound", sim::pinned(Kind::SimMembound)),
        ("serve-hot", serve::pinned(Kind::ServeHot)?),
        ("serve-cold", serve::pinned(Kind::ServeCold)?),
    ];
    for (name, json) in pins {
        let path = golden::path(name);
        std::fs::write(&path, json.to_string_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let command = args.remove(0);
    let result = match command.as_str() {
        "run" => match parse_run(args) {
            Ok(run_args) => run::run(&run_args),
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
        "compare" => run_compare(args),
        "bless" => bless().map(|()| true),
        "worker" => match parse_worker(args) {
            Ok(job) => {
                run::worker(&job);
                Ok(true)
            }
            Err(e) => Err(e),
        },
        "serve-child" => run::serve_child().map(|()| true),
        other => {
            eprintln!("error: unknown command {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
