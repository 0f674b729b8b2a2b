//! `run`: each workload in a fresh child process (this binary re-executed
//! as `worker`), set up several times so set-up time is a median, then
//! measured once; every metric printed by name with its unit.
//!
//! Parent ⇄ worker protocol: the worker prints `ready` on stdout when set
//! up (the parent times spawn → `ready` as set-up time), then one line
//! `result <json>`. A worker whose stdin closes — its parent died — exits,
//! and so does the server child it may hold, so no process outlives a run.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use memsense_experiments::json::Json;

use crate::host::{self, Host};
use crate::job::{Job, Kind};
use crate::loadgen;
use crate::metrics::{self, Outcome};
use crate::spec::{self, SpecMetric};
use crate::stats::median;
use crate::{serve, sim};

/// Seconds a `--smoke` run measures.
pub const SMOKE_SECONDS: f64 = 2.0;

/// Worker processes spawned per workload to time set-up (the last one also
/// measures); `setup_s` is their median.
pub const SETUPS: usize = 7;

/// What `run` was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workloads to run, in order.
    pub workloads: Vec<Kind>,
    /// Input seed.
    pub seed: u64,
    /// Minimum measured seconds per run.
    pub seconds: f64,
    /// Traced run (per-layer metrics).
    pub trace: bool,
    /// Short test run.
    pub smoke: bool,
    /// Results document to write.
    pub out: Option<PathBuf>,
}

/// A child process killed and reaped on drop if still running.
struct Reaped {
    child: Child,
    /// Held open for the child's lifetime; closing it tells the child to go.
    _stdin: Option<ChildStdin>,
}

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What one worker process reported.
struct WorkerReport {
    setup_s: f64,
    outcome: Option<Outcome>,
}

/// Longest a worker may run before the parent kills it.
fn worker_deadline(job: &Job) -> Duration {
    Duration::from_secs_f64(job.seconds * 3.0 + 60.0)
}

fn spawn_worker(job: &Job, setup_only: bool) -> Result<WorkerReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let pinning = host::pinning();
    let configure = |cmd: &mut Command| {
        cmd.arg("worker")
            .args(["--workload", job.kind.name()])
            .args(["--seed", &job.seed.to_string()])
            .args(["--seconds", &job.seconds.to_string()])
            .env("MEMSENSE_THREADS", host::MEMSENSE_THREADS)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some((_, server)) = pinning {
            cmd.args(["--server-cpu", &server.to_string()]);
        }
        if job.trace {
            cmd.arg("--trace");
        }
        if job.smoke {
            cmd.arg("--smoke");
        }
        if setup_only {
            cmd.arg("--setup-only");
        }
    };
    let started = Instant::now();
    let mut child = host::spawn_on(pinning.map(|(worker, _)| worker), &exe, configure)
        .map_err(|e| format!("spawn worker: {e}"))?;
    let stdout = child.stdout.take().ok_or("worker stdout")?;
    let stdin = child.stdin.take();
    let mut worker = Reaped {
        child,
        _stdin: stdin,
    };

    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send((Instant::now(), line)).is_err() {
                break;
            }
        }
    });
    let mut report = WorkerReport {
        setup_s: f64::NAN,
        outcome: None,
    };
    let deadline = started + worker_deadline(job);
    let mut handle = |(at, line): (Instant, String)| {
        if line == "ready" {
            report.setup_s = at.duration_since(started).as_secs_f64();
        } else if let Some(json) = line.strip_prefix("result ") {
            report.outcome = Json::parse(json).ok().as_ref().and_then(Outcome::from_json);
        }
    };
    let status = loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(msg) => handle(msg),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                break worker.child.wait().map_err(|e| format!("wait: {e}"))?;
            }
            Err(mpsc::RecvTimeoutError::Timeout) if Instant::now() > deadline => {
                // Killing the worker closes its stdout, which ends the reader.
                let _ = worker.child.kill();
                let _ = reader.join();
                return Err(format!(
                    "{} worker exceeded {:.0} s; killed",
                    job.kind.name(),
                    worker_deadline(job).as_secs_f64()
                ));
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
        }
    };
    let _ = reader.join();
    if !status.success() {
        return Err(format!("{} worker exited with {status}", job.kind.name()));
    }
    if report.setup_s.is_nan() {
        return Err(format!("{} worker never became ready", job.kind.name()));
    }
    if !setup_only && report.outcome.is_none() {
        return Err(format!("{} worker sent no result", job.kind.name()));
    }
    Ok(report)
}

/// One finished workload run.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// What ran.
    pub job: Job,
    /// What it measured.
    pub outcome: Outcome,
    /// Every set-up time measured, seconds.
    pub setup_samples: Vec<f64>,
}

impl WorkloadRun {
    /// The metrics this run reports, in catalogue order: end-to-end for an
    /// untraced run, per-layer for a traced one.
    ///
    /// # Errors
    ///
    /// A missing, non-finite, or (end-to-end) non-positive value: each
    /// end-to-end metric must be a real measurement on every workload.
    pub fn reported(&self) -> Result<Vec<(&'static SpecMetric, f64)>, String> {
        let spec = spec::catalogue();
        let defs = if self.job.trace {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        defs.iter()
            .map(|d| {
                let v = match (d.name.as_str(), self.job.trace) {
                    ("setup_s", false) => median(&self.setup_samples),
                    (name, false) => self.outcome.metrics.get(name).copied().unwrap_or(f64::NAN),
                    (name, true) => self.outcome.metrics.get(name).copied().unwrap_or(0.0),
                };
                let valid = v.is_finite() && (self.job.trace || v > 0.0);
                if valid {
                    Ok((d, v))
                } else {
                    Err(format!("{}: {} = {v}", self.job.kind.name(), d.name))
                }
            })
            .collect()
    }

    /// The run as a results-document entry.
    pub fn to_json(&self) -> Result<Json, String> {
        let metrics = self
            .reported()?
            .into_iter()
            .map(|(d, v)| {
                (
                    d.name.clone(),
                    Json::obj(vec![("value", Json::num(v)), ("unit", Json::str(&d.unit))]),
                )
            })
            .collect();
        let o = &self.outcome;
        Ok(Json::obj(vec![
            ("workload", Json::str(self.job.kind.name())),
            ("seed", Json::num(self.job.seed as f64)),
            ("seconds", Json::num(self.job.seconds)),
            ("trace", Json::Bool(self.job.trace)),
            ("correct", Json::Bool(o.correct)),
            ("attempted", Json::num(o.attempted as f64)),
            ("failed", Json::num(o.failed as f64)),
            (
                "fail_ratio",
                Json::num(o.failed as f64 / o.attempted.max(1) as f64),
            ),
            ("metrics", Json::Obj(metrics)),
            (
                "setup_samples_s",
                Json::Arr(self.setup_samples.iter().map(|&s| Json::num(s)).collect()),
            ),
            ("details", Json::Obj(o.details.clone())),
            (
                "problems",
                Json::Arr(o.problems.iter().map(Json::str).collect()),
            ),
        ]))
    }
}

/// Runs one workload: set-up trials, then the measured run.
///
/// # Errors
///
/// A worker that failed, hung, or reported nothing.
pub fn run_workload(job: &Job) -> Result<WorkloadRun, String> {
    let setups = if job.smoke { 2 } else { SETUPS };
    let mut setup_samples = Vec::with_capacity(setups);
    for _ in 1..setups {
        setup_samples.push(spawn_worker(job, true)?.setup_s);
    }
    let last = spawn_worker(job, false)?;
    setup_samples.push(last.setup_s);
    Ok(WorkloadRun {
        job: job.clone(),
        outcome: last.outcome.ok_or("no outcome")?,
        setup_samples,
    })
}

/// Refuses load-generator settings the host cannot run without the
/// generator starving the server it measures: more generator threads or
/// connections than CPUs, or no CPU for the generator beside the server's.
///
/// # Errors
///
/// The reason.
pub fn check_host(workloads: &[Kind], nproc: usize) -> Result<(), String> {
    let needed = loadgen::CPUS
        .max(loadgen::THREADS)
        .max(loadgen::CONNECTIONS);
    if workloads.iter().any(|k| k.is_serve()) && nproc < needed {
        return Err(format!(
            "serve workloads need {needed} CPUs (the spinning load generator and the \
             server each get one) but nproc is {nproc}"
        ));
    }
    Ok(())
}

fn print_run(run: &WorkloadRun, metrics: &[(&SpecMetric, f64)], host: &Host) {
    let o = &run.outcome;
    let kind = if run.job.trace {
        "per-layer (traced)"
    } else {
        "end-to-end"
    };
    println!(
        "== {} · seed {} · {} s · {kind} ==",
        run.job.kind.name(),
        run.job.seed,
        run.job.seconds
    );
    for (d, v) in metrics {
        println!("  {:<34} {:>16.6} {}", d.name, v, d.unit);
    }
    let detail = |k: &str| o.detail_value(k).map(Json::to_string);
    if let Some(n) = detail("samples") {
        println!("  latency samples: {n}");
    }
    if let (true, Some(p)) = (run.job.trace, detail("tail_percentile")) {
        println!("  latency.tail_ms is the p{p}");
    }
    println!(
        "  checks: {}; {} attempted, {} failed (fail_ratio {})",
        if o.correct {
            "outputs correct"
        } else {
            "OUTPUT MISMATCH"
        },
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64
    );
    for p in &o.problems {
        println!("  problem: {p}");
    }
    println!("  {}", host.line());
}

/// Runs every requested workload and prints the report; the last stdout
/// line is one JSON object with `correct`, `attempted`, `failed` and
/// `metrics`. Returns whether every output check passed.
///
/// # Errors
///
/// Host refusal, worker failures, or a missing metric.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    check_host(&args.workloads, host::nproc())?;
    let mut host = Host::detect(args.seed);
    let mut runs = Vec::new();
    for &kind in &args.workloads {
        let job = Job {
            kind,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            smoke: args.smoke,
            setup_only: false,
            server_cpu: None,
        };
        let run = run_workload(&job)?;
        let reported = run.reported().map_err(|missing| {
            // A run that could not measure says why in its problems.
            std::iter::once(missing)
                .chain(run.outcome.problems.iter().cloned())
                .collect::<Vec<_>>()
                .join("; ")
        })?;
        if let Some(n) = run
            .outcome
            .detail_value("server_workers")
            .and_then(Json::as_u64)
        {
            host.server_workers = Some(n as usize);
        }
        print_run(&run, &reported, &host);
        runs.push(run);
    }

    let single = runs.len() == 1;
    let mut line_metrics = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for run in &runs {
        correct &= run.outcome.correct;
        attempted += run.outcome.attempted;
        failed += run.outcome.failed;
        for (d, v) in run.reported()? {
            let name = if single {
                d.name.clone()
            } else {
                format!("{}/{}", run.job.kind.name(), d.name)
            };
            line_metrics.push((
                name,
                Json::obj(vec![("value", Json::num(v)), ("unit", Json::str(&d.unit))]),
            ));
        }
    }
    if let Some(path) = &args.out {
        let doc = Json::obj(vec![
            ("schema", Json::str("memsense-benchmark/v1")),
            ("host", host.to_json()),
            (
                "runs",
                Json::Arr(
                    runs.iter()
                        .map(WorkloadRun::to_json)
                        .collect::<Result<_, _>>()?,
                ),
            ),
        ]);
        std::fs::write(path, doc.to_string_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", Json::Obj(line_metrics)),
    ]);
    println!("{}", line.to_string());
    Ok(correct)
}

/// Exits the process when stdin reaches end of file: the parent holding the
/// other end is gone. The watcher thread is never joined; it lives as long
/// as the process.
fn exit_with_parent() {
    std::thread::spawn(|| {
        let mut sink = [0u8; 64];
        let mut stdin = std::io::stdin();
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        std::process::exit(3);
    });
}

/// The `worker` side: runs one job and prints `ready` and `result <json>`.
pub fn worker(job: &Job) {
    exit_with_parent();
    let ready = || println!("ready");
    let outcome = match job.kind {
        Kind::SimCorebound | Kind::SimMembound => sim::run(job, ready),
        Kind::ServeHot | Kind::ServeCold => serve::run(job, ready),
    };
    if !job.setup_only {
        println!("result {}", outcome.to_json().to_string());
    }
}

/// The `serve-child` side: a default-configured server that prints its
/// address and the number of model-solve workers it started, runs until
/// shut down, and stops when its parent goes away.
///
/// # Errors
///
/// The bind error.
pub fn serve_child() -> Result<(), String> {
    use memsense_serve::server::{Server, ServerConfig};
    let mut server =
        Server::start(&ServerConfig::default()).map_err(|e| format!("cannot start server: {e}"))?;
    // `start` adds the reactor and the worker pool to this thread.
    let workers = metrics::threads("self").map_or(0, |n| n.saturating_sub(2));
    println!("listening {} workers {workers}", server.addr());
    exit_with_parent();
    server.join();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_load_needs_a_cpu_for_the_generator() {
        assert!(check_host(&[Kind::ServeHot], 1).is_err());
        assert!(check_host(&[Kind::ServeHot], 2).is_ok());
        assert!(check_host(&[Kind::SimCorebound], 1).is_ok());
    }
}
