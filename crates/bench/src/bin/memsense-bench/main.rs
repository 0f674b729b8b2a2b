//! `memsense-bench` — record and check the committed performance baselines.
//!
//! ```text
//! memsense-bench sim-baseline                        # record BENCH_sim.json
//! memsense-bench serve-baseline --out path.json      # record elsewhere
//! memsense-bench stream-baseline --check BENCH_stream.json --report gate.json
//! MEMSENSE_THREADS=8 memsense-bench sim-baseline --check BENCH_sim.json --repeats 1
//! memsense-bench sim-baseline --repeats 1 --profile  # add simulator work counters
//! ```
//!
//! Every subcommand measures its subsystem's rows (see `sim.rs`,
//! `serve.rs`, `stream.rs`) together with the host they ran on. Without
//! `--check` it writes them to `--out` (default `BENCH_<subsystem>.json`).
//! With `--check` it reads the recorded file first, so a bad file fails
//! before any measurement, then gates the fresh rows against it (`gate.rs`)
//! at the subsystem's fixed tolerance and exits 1 on any regression.
//! `--repeats` (sim and stream, default 3) keeps each row's best run.
//! `MEMSENSE_THREADS` defaults to 1 so record and check compare like with
//! like. Use a release build; debug timings are not comparable.

mod gate;
mod serve;
mod sim;
mod stream;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gate::{Baseline, Error, Host};

const USAGE: &str = "usage: memsense-bench <sim-baseline|serve-baseline|stream-baseline> \
[--out PATH] [--check PATH] [--repeats N] [--report PATH] [--profile]
  --repeats applies to sim-baseline and stream-baseline, --profile to sim-baseline";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Subsystem {
    Sim,
    Serve,
    Stream,
}

impl Subsystem {
    fn name(self) -> &'static str {
        match self {
            Subsystem::Sim => "sim",
            Subsystem::Serve => "serve",
            Subsystem::Stream => "stream",
        }
    }

    fn tolerance(self) -> f64 {
        match self {
            Subsystem::Sim => sim::TOLERANCE,
            Subsystem::Serve => serve::TOLERANCE,
            Subsystem::Stream => stream::TOLERANCE,
        }
    }
}

struct Args {
    subsystem: Subsystem,
    out: PathBuf,
    check: Option<PathBuf>,
    repeats: Option<usize>,
    report: Option<PathBuf>,
    profile: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let subsystem = match argv.next().as_deref() {
        Some("sim-baseline") => Subsystem::Sim,
        Some("serve-baseline") => Subsystem::Serve,
        Some("stream-baseline") => Subsystem::Stream,
        Some(other) => return Err(format!("unknown command {other:?}")),
        None => return Err("missing command".to_string()),
    };
    let mut args = Args {
        subsystem,
        out: PathBuf::from(format!("BENCH_{}.json", subsystem.name())),
        check: None,
        repeats: None,
        report: None,
        profile: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} requires a value"));
        match flag.as_str() {
            "--out" => args.out = PathBuf::from(value()?),
            "--check" => args.check = Some(PathBuf::from(value()?)),
            "--report" => args.report = Some(PathBuf::from(value()?)),
            "--repeats" if subsystem != Subsystem::Serve => {
                let v = value()?;
                args.repeats = Some(
                    v.parse()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or(format!("invalid --repeats {v:?}"))?,
                );
            }
            "--profile" if subsystem == Subsystem::Sim => args.profile = true,
            _ => return Err(format!("unknown flag {flag:?} for {}", subsystem.name())),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before the executor's thread count is first read.
    if std::env::var_os("MEMSENSE_THREADS").is_none() {
        std::env::set_var("MEMSENSE_THREADS", "1");
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Records or checks one baseline; `Ok(false)` is a failed gate.
fn run(args: &Args) -> Result<bool, Error> {
    let recorded = match &args.check {
        Some(path) => Some(gate::from_json(&read(path)?)?),
        None => None,
    };
    let host = Host::current();
    let repeats = args.repeats.unwrap_or(3);
    eprintln!(
        "measuring the {} baseline at {} thread(s) on {} CPU(s)...",
        args.subsystem.name(),
        host.threads,
        host.nproc
    );
    let rows = match args.subsystem {
        Subsystem::Sim => sim::measure(repeats, args.profile)?,
        Subsystem::Serve => serve::measure()?,
        Subsystem::Stream => stream::measure(repeats)?,
    };
    let current = Baseline { host, rows };

    let Some(recorded) = recorded else {
        write(&args.out, &gate::to_json(&current))?;
        println!(
            "recorded {} ({} rows at {} thread(s))",
            args.out.display(),
            current.rows.len(),
            host.threads
        );
        return Ok(true);
    };
    let comparison = gate::compare(&current, &recorded, args.subsystem.tolerance());
    let title = format!("{} perf gate", args.subsystem.name());
    print!("{}", comparison.to_table(&title).to_ascii());
    for msg in comparison.diagnostics() {
        eprintln!("error: {msg}");
    }
    if !comparison.passed() {
        eprintln!("{title} FAILED (tolerance {:.2})", comparison.tolerance);
    }
    if let Some(path) = &args.report {
        write(path, &comparison.to_json_value().to_string_pretty())?;
        println!("wrote {}", path.display());
    }
    Ok(comparison.passed())
}

fn read(path: &Path) -> Result<String, Error> {
    std::fs::read_to_string(path).map_err(|e| Error(format!("cannot read {}: {e}", path.display())))
}

fn write(path: &Path, text: &str) -> Result<(), Error> {
    std::fs::write(path, text).map_err(|e| Error(format!("cannot write {}: {e}", path.display())))
}
