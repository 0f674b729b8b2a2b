//! Parallel experiment executor with run-report telemetry.
//!
//! Every independent experiment unit — a (workload × system-config) cell of
//! a sweep, a per-class sensitivity run, a calibration, a characterization
//! series, a whole `repro` stage — is an embarrassingly parallel job, the
//! same shape as the paper's own methodology grid. This module runs those
//! jobs across a pool of `std::thread::scope` workers pulling from a shared
//! queue, while guaranteeing **serial equivalence**: jobs are tagged with
//! their submission index and results are reassembled in submission order,
//! so every rendered table and figure is byte-identical to the serial
//! output regardless of thread count.
//!
//! Concurrency is bounded globally, not per call site: a process-wide permit
//! pool holds `thread_count() − 1` permits, and each [`par_map`] borrows as
//! many as are free (the calling thread always works too). Nested calls —
//! a parallel stage whose body runs a parallel sweep — therefore never
//! oversubscribe the machine; inner calls simply run serially when the
//! outer level has consumed the pool.
//!
//! The thread count comes from the `MEMSENSE_THREADS` environment variable
//! (`1` forces fully serial execution; unset or `0` means "all available
//! cores"), read once per process.
//!
//! Telemetry: each job's label, wall-clock time, and outcome land in a
//! process-wide job log that [`RunReport::from_run`] converts — together
//! with the solver's iteration/regime counters — into the `--report`
//! table/JSON emitted by the `repro` binary.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use memsense_model::solver::telemetry::SolverStats;

use crate::json::Json;
use crate::render::{f, Table};

// ---------------------------------------------------------------------------
// Thread budget
// ---------------------------------------------------------------------------

/// Worker threads the executor may use, resolved once per process from
/// `MEMSENSE_THREADS` (unset or `0` → all available cores, minimum 1).
///
/// A set-but-unparseable value (`abc`, `-2`, `1.5`) is a configuration
/// error; silently falling back to a default would hide it, so the process
/// exits with a one-line diagnostic instead.
pub fn thread_count() -> usize {
    static COUNT: OnceLock<usize> = OnceLock::new();
    *COUNT.get_or_init(|| {
        let all_cores = || {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        match std::env::var("MEMSENSE_THREADS") {
            Err(_) => all_cores(),
            Ok(raw) => match raw.trim().parse::<usize>() {
                Ok(0) => all_cores(),
                Ok(n) => n,
                Err(_) => {
                    eprintln!(
                        "error: invalid MEMSENSE_THREADS value {raw:?} \
                         (expected a non-negative integer; 0 or unset = all cores)"
                    );
                    // memsense-lint: allow(no-process-exit-in-lib) — documented exit-2 contract for malformed MEMSENSE_THREADS, pinned by the seed tests
                    std::process::exit(2);
                }
            },
        }
    })
}

/// Process-wide pool of *extra* worker permits (the calling thread is free).
fn permit_pool() -> &'static AtomicUsize {
    static POOL: OnceLock<AtomicUsize> = OnceLock::new();
    POOL.get_or_init(|| AtomicUsize::new(thread_count().saturating_sub(1)))
}

/// Takes up to `want` permits from the pool, returning how many were taken.
fn acquire_permits(want: usize) -> usize {
    let pool = permit_pool();
    let mut available = pool.load(Ordering::Relaxed);
    loop {
        let take = want.min(available);
        if take == 0 {
            return 0;
        }
        match pool.compare_exchange_weak(
            available,
            available - take,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return take,
            Err(now) => available = now,
        }
    }
}

fn release_permits(n: usize) {
    if n > 0 {
        permit_pool().fetch_add(n, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Job log
// ---------------------------------------------------------------------------

/// One completed job: its label, wall-clock time, and outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    /// Human-readable job identity, e.g. `fig8/Enterprise class`.
    pub label: String,
    /// Wall-clock time the job took.
    pub wall: Duration,
    /// Whether the job returned `Ok`.
    pub ok: bool,
}

fn job_log() -> &'static Mutex<Vec<JobRecord>> {
    static LOG: OnceLock<Mutex<Vec<JobRecord>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(Vec::new()))
}

/// Takes every job record accumulated since the last drain.
pub fn drain_job_log() -> Vec<JobRecord> {
    // memsense-lint: allow(no-panic-in-lib) — push/take cannot panic mid-hold, so the log lock cannot poison
    std::mem::take(&mut *job_log().lock().expect("job log poisoned"))
}

fn log_job(label: String, wall: Duration, ok: bool) {
    job_log()
        .lock()
        // memsense-lint: allow(no-panic-in-lib) — push/take cannot panic mid-hold, so the log lock cannot poison
        .expect("job log poisoned")
        .push(JobRecord { label, wall, ok });
}

// ---------------------------------------------------------------------------
// Core executor
// ---------------------------------------------------------------------------

/// Runs `f` over `items` on the worker pool and returns every outcome in
/// submission order. `label` names each job (for the run report); it is not
/// used for scheduling.
///
/// Jobs are pulled from a shared queue by idle workers (the calling thread
/// included), so long jobs don't convoy behind a static partition. Results
/// carry their submission index and are reassembled in order: the returned
/// vector is identical to what a serial `items.map(f)` would produce.
pub fn par_map_full<I, T, E, F, L>(items: Vec<I>, label: L, f: F) -> Vec<Result<T, E>>
where
    I: Send,
    T: Send,
    E: Send,
    F: Fn(I) -> Result<T, E> + Sync,
    L: Fn(usize, &I) -> String + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let extra = if n > 1 { acquire_permits(n - 1) } else { 0 };

    let queue: Mutex<VecDeque<(usize, I)>> = Mutex::new(items.into_iter().enumerate().collect());
    let mut slots: Vec<Option<Result<T, E>>> = (0..n).map(|_| None).collect();

    let work = |tx: &mpsc::Sender<(usize, Result<T, E>)>| loop {
        // memsense-lint: allow(no-panic-in-lib) — pop_front cannot panic mid-hold, so the queue lock cannot poison
        let job = queue.lock().expect("job queue poisoned").pop_front();
        let Some((index, item)) = job else { break };
        let label = label(index, &item);
        let started = Instant::now();
        let result = f(item);
        log_job(label, started.elapsed(), result.is_ok());
        // Receiver outlives all senders within the scope below.
        let _ = tx.send((index, result));
    };

    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..extra {
            let tx = tx.clone();
            let work = &work;
            scope.spawn(move || work(&tx));
        }
        // The calling thread is a worker too; with zero permits this is
        // exactly the serial execution path.
        work(&tx);
        drop(tx);
        for (index, result) in rx {
            slots[index] = Some(result);
        }
    });
    release_permits(extra);

    slots
        .into_iter()
        // memsense-lint: allow(no-panic-in-lib) — every queued index sends exactly one result before the scope joins
        .map(|slot| slot.expect("executor lost a job result"))
        .collect()
}

/// [`par_map_full`] with short-circuit semantics matching a serial loop: on
/// failure, the error of the **earliest-submitted** failing job is returned,
/// so the error a caller sees is independent of thread interleaving.
///
/// # Errors
///
/// Returns the first (by submission order) job error.
pub fn par_map<I, T, E, F>(label: &str, items: Vec<I>, f: F) -> Result<Vec<T>, E>
where
    I: Send,
    T: Send,
    E: Send,
    F: Fn(I) -> Result<T, E> + Sync,
{
    let outcomes = par_map_full(items, |i, _| format!("{label}[{i}]"), f);
    outcomes.into_iter().collect()
}

// ---------------------------------------------------------------------------
// Run report
// ---------------------------------------------------------------------------

/// Telemetry for one pipeline stage (one `repro` target).
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage name (the `repro` target).
    pub name: String,
    /// Wall-clock time of the stage.
    pub wall: Duration,
    /// Jobs the stage dispatched through the executor (excluding itself).
    pub jobs: usize,
    /// Jobs (or the stage itself) that returned an error.
    pub failures: usize,
}

/// The full run report behind `repro --report`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Worker threads the executor was allowed.
    pub threads: usize,
    /// End-to-end wall-clock time of the run.
    pub total_wall: Duration,
    /// Per-stage telemetry, in deterministic (submission) order.
    pub stages: Vec<StageReport>,
    /// Every non-stage job, as logged (completion order).
    pub jobs: Vec<JobRecord>,
    /// Solver activity during the run (snapshot delta).
    pub solver: SolverStats,
}

/// Label prefix that marks a job record as a whole pipeline stage.
pub const STAGE_LABEL_PREFIX: &str = "stage/";

impl RunReport {
    /// Builds a report from a drained job log. Records labelled
    /// `stage/<name>` become [`StageReport`]s (ordered by `stage_order`);
    /// inner jobs are attributed to a stage when their label starts with
    /// `<name>/`.
    pub fn from_run(
        threads: usize,
        total_wall: Duration,
        log: Vec<JobRecord>,
        stage_order: &[String],
        solver: SolverStats,
    ) -> RunReport {
        let (stage_records, jobs): (Vec<JobRecord>, Vec<JobRecord>) = log
            .into_iter()
            .partition(|r| r.label.starts_with(STAGE_LABEL_PREFIX));
        let stages = stage_order
            .iter()
            .map(|name| {
                let record = stage_records
                    .iter()
                    .find(|r| r.label[STAGE_LABEL_PREFIX.len()..] == *name.as_str());
                let prefix = format!("{name}/");
                let inner: Vec<&JobRecord> = jobs
                    .iter()
                    .filter(|j| j.label.starts_with(&prefix))
                    .collect();
                StageReport {
                    name: name.clone(),
                    wall: record.map(|r| r.wall).unwrap_or_default(),
                    jobs: inner.len(),
                    failures: inner.iter().filter(|j| !j.ok).count()
                        + usize::from(record.is_some_and(|r| !r.ok)),
                }
            })
            .collect();
        RunReport {
            threads,
            total_wall,
            stages,
            jobs,
            solver,
        }
    }

    /// Renders the per-stage table (what `--report` prints).
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Run report: {} stages on {} thread{} in {:.1} ms \
                 ({} solves, {} iterations; regimes: {} core / {} latency / {} bandwidth)",
                self.stages.len(),
                self.threads,
                if self.threads == 1 { "" } else { "s" },
                self.total_wall.as_secs_f64() * 1e3,
                self.solver.solves,
                self.solver.iterations,
                self.solver.core_bound,
                self.solver.latency_limited,
                self.solver.bandwidth_bound,
            ),
            &["stage", "wall_ms", "jobs", "failures"],
        );
        for s in &self.stages {
            t.row(vec![
                s.name.clone(),
                f(s.wall.as_secs_f64() * 1e3, 1),
                s.jobs.to_string(),
                s.failures.to_string(),
            ]);
        }
        t
    }

    /// The report as a [`Json`] value (schema:
    /// `{threads, total_wall_ms, stages[], jobs[], solver{}}`).
    pub fn to_json_value(&self) -> Json {
        let wall_ms = |d: &Duration| {
            // Keep the historical 3-decimal precision of the report file.
            Json::num((d.as_secs_f64() * 1e6).round() / 1e3)
        };
        Json::obj(vec![
            ("threads", Json::num(self.threads as f64)),
            ("total_wall_ms", wall_ms(&self.total_wall)),
            (
                "stages",
                Json::Arr(
                    self.stages
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("name", Json::str(s.name.clone())),
                                ("wall_ms", wall_ms(&s.wall)),
                                ("jobs", Json::num(s.jobs as f64)),
                                ("failures", Json::num(s.failures as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "jobs",
                Json::Arr(
                    self.jobs
                        .iter()
                        .map(|j| {
                            Json::obj(vec![
                                ("label", Json::str(j.label.clone())),
                                ("wall_ms", wall_ms(&j.wall)),
                                ("ok", Json::Bool(j.ok)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "solver",
                Json::obj(vec![
                    ("solves", Json::num(self.solver.solves as f64)),
                    ("iterations", Json::num(self.solver.iterations as f64)),
                    ("core_bound", Json::num(self.solver.core_bound as f64)),
                    (
                        "latency_limited",
                        Json::num(self.solver.latency_limited as f64),
                    ),
                    (
                        "bandwidth_bound",
                        Json::num(self.solver.bandwidth_bound as f64),
                    ),
                ]),
            ),
        ])
    }

    /// Machine-readable form (documented in EXPERIMENTS.md), rendered
    /// through the shared escaping-correct [`crate::json`] module.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_submission_order() {
        // Jobs finish out of order (later jobs are quicker), but results
        // must come back in submission order.
        let items: Vec<u64> = (0..64).collect();
        let out: Vec<u64> = par_map("order", items.clone(), |i| {
            if i % 7 == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
            Ok::<u64, ()>(i * 3)
        })
        .unwrap();
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_returns_earliest_error() {
        let out: Result<Vec<u32>, String> = par_map("err", (0u32..32).collect(), |i| {
            if i == 5 || i == 20 {
                Err(format!("boom {i}"))
            } else {
                Ok(i)
            }
        });
        assert_eq!(out.unwrap_err(), "boom 5");
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Result<Vec<u32>, ()> = par_map("none", Vec::<u32>::new(), Ok);
        assert_eq!(out.unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn job_log_records_labels_and_outcomes() {
        let _ = par_map_full(
            vec![1u32, 2],
            |_, item| format!("logged/{item}"),
            |i| if i == 2 { Err(()) } else { Ok(i) },
        );
        // The log is process-global and sibling tests run concurrently, so
        // keep only this test's own records.
        let mut log = drain_job_log();
        log.retain(|r| r.label.starts_with("logged/"));
        log.sort_by(|a, b| a.label.cmp(&b.label));
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].label, "logged/1");
        assert!(log[0].ok);
        assert_eq!(log[1].label, "logged/2");
        assert!(!log[1].ok);
    }

    #[test]
    fn nested_par_map_completes_and_is_ordered() {
        let out: Vec<Vec<u32>> = par_map("outer", (0u32..8).collect(), |i| {
            par_map("inner", (0u32..8).collect(), move |j| {
                Ok::<u32, ()>(i * 10 + j)
            })
        })
        .unwrap();
        for (i, inner) in out.iter().enumerate() {
            let want: Vec<u32> = (0..8).map(|j| i as u32 * 10 + j).collect();
            assert_eq!(inner, &want);
        }
    }

    #[test]
    fn permits_are_returned_after_use() {
        let before = permit_pool().load(Ordering::Relaxed);
        let _: Vec<u32> = par_map("permits", (0u32..32).collect(), Ok::<u32, ()>).unwrap();
        // Other tests run concurrently, so poll briefly for the pool to
        // settle back to its pre-call level.
        for _ in 0..100 {
            if permit_pool().load(Ordering::Relaxed) >= before {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(permit_pool().load(Ordering::Relaxed) >= before);
    }

    #[test]
    fn run_report_groups_stages_and_jobs() {
        let log = vec![
            JobRecord {
                label: "stage/fig8".into(),
                wall: Duration::from_millis(10),
                ok: true,
            },
            JobRecord {
                label: "fig8/Enterprise class".into(),
                wall: Duration::from_millis(4),
                ok: true,
            },
            JobRecord {
                label: "fig8/HPC class".into(),
                wall: Duration::from_millis(5),
                ok: false,
            },
            JobRecord {
                label: "stage/tab7".into(),
                wall: Duration::from_millis(2),
                ok: false,
            },
        ];
        let report = RunReport::from_run(
            4,
            Duration::from_millis(12),
            log,
            &["fig8".to_string(), "tab7".to_string()],
            SolverStats::default(),
        );
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.stages[0].name, "fig8");
        assert_eq!(report.stages[0].jobs, 2);
        assert_eq!(report.stages[0].failures, 1);
        assert_eq!(report.stages[1].failures, 1);
        let table = report.to_table().to_ascii();
        assert!(table.contains("fig8") && table.contains("tab7"));
        let json = report.to_json();
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"name\": \"fig8\""));
        assert!(json.contains("\"label\": \"fig8/Enterprise class\""));
        assert!(json.contains("\"solver\""));
        // The report is valid JSON by construction (shared json module).
        let parsed = Json::parse(&json).expect("report parses");
        assert_eq!(parsed.get("threads").unwrap().as_u64(), Some(4));
        assert_eq!(
            parsed.get("stages").unwrap().as_arr().unwrap()[0]
                .get("jobs")
                .unwrap()
                .as_u64(),
            Some(2)
        );
    }

    #[test]
    fn report_json_escapes_label_content() {
        let log = vec![JobRecord {
            label: "weird/\"quoted\"\nlabel\\path".into(),
            wall: Duration::from_millis(1),
            ok: true,
        }];
        let report = RunReport::from_run(
            1,
            Duration::from_millis(1),
            log,
            &[],
            SolverStats::default(),
        );
        let json = report.to_json();
        let parsed = Json::parse(&json).expect("escaped report parses");
        let label = parsed.get("jobs").unwrap().as_arr().unwrap()[0]
            .get("label")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert_eq!(label, "weird/\"quoted\"\nlabel\\path");
    }
}
