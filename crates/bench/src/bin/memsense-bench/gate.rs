//! The one baseline format and regression gate every subsystem shares.
//!
//! A `BENCH_*.json` file is a host block plus named metric rows, each with
//! a unit and a direction:
//!
//! ```text
//! {"schema": "memsense-bench/v1",
//!  "host": {"nproc": 1, "threads": 8},
//!  "rows": [{"name": "total_ms", "value": 1152.927, "unit": "ms", "better": "lower"}, ...]}
//! ```
//!
//! [`compare`] gates a fresh measurement against a recorded one. A row
//! fails when it is worse than the recorded value by more than the
//! tolerance in its own direction, and the whole gate fails when a
//! measured row is missing from the file, when the file records a row the
//! build no longer measures (stale), or when the executor thread counts
//! differ (walls at different thread counts are not comparable).

use memsense_experiments::executor::thread_count;
use memsense_experiments::json::Json;
use memsense_experiments::render::{f, Table};

/// Schema tag written into every `BENCH_*.json`.
pub const SCHEMA: &str = "memsense-bench/v1";

/// A failure reading a baseline or taking a measurement.
#[derive(Debug)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt.write_str(&self.0)
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Walls and latencies.
    Lower,
    /// Throughputs.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub better: Better,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str, better: Better) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
            better,
        }
    }
}

/// The machine a baseline was measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Host {
    /// CPUs the process could run on.
    pub nproc: usize,
    /// Executor worker threads (`MEMSENSE_THREADS`).
    pub threads: usize,
}

impl Host {
    pub fn current() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: thread_count(),
        }
    }
}

/// A recorded (or freshly measured) baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    pub host: Host,
    pub rows: Vec<Metric>,
}

fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

/// Serializes a baseline to its canonical file form.
pub fn to_json(baseline: &Baseline) -> String {
    let rows = baseline.rows.iter().map(|m| {
        Json::obj(vec![
            ("name", Json::str(&m.name)),
            ("value", Json::num(round3(m.value))),
            ("unit", Json::str(&m.unit)),
            ("better", Json::str(m.better.as_str())),
        ])
    });
    Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        (
            "host",
            Json::obj(vec![
                ("nproc", Json::num(baseline.host.nproc as f64)),
                ("threads", Json::num(baseline.host.threads as f64)),
            ]),
        ),
        ("rows", Json::Arr(rows.collect())),
    ])
    .to_string_pretty()
}

fn invalid(message: impl std::fmt::Display) -> Error {
    Error(format!("invalid baseline file: {message}"))
}

fn field<'a>(node: &'a Json, name: &str) -> Result<&'a Json, Error> {
    node.get(name)
        .ok_or_else(|| invalid(format!("missing {name}")))
}

fn count(node: &Json, name: &str) -> Result<usize, Error> {
    field(node, name)?
        .as_u64()
        .map(|n| n as usize)
        .ok_or_else(|| invalid(format!("{name} is not a count")))
}

fn text<'a>(node: &'a Json, name: &str) -> Result<&'a str, Error> {
    field(node, name)?
        .as_str()
        .ok_or_else(|| invalid(format!("{name} is not a string")))
}

/// Parses a baseline from [`to_json`] output.
///
/// # Errors
///
/// Malformed JSON, a schema other than [`SCHEMA`], a missing field, or an
/// empty row list.
pub fn from_json(input: &str) -> Result<Baseline, Error> {
    let root = Json::parse(input).map_err(invalid)?;
    let schema = root.get("schema").and_then(Json::as_str);
    if schema != Some(SCHEMA) {
        return Err(invalid(format!("schema {schema:?}, expected {SCHEMA:?}")));
    }
    let host = field(&root, "host")?;
    let host = Host {
        nproc: count(host, "nproc")?,
        threads: count(host, "threads")?,
    };
    let mut rows = Vec::new();
    for row in field(&root, "rows")?.as_arr().unwrap_or_default() {
        let better = match text(row, "better")? {
            "lower" => Better::Lower,
            "higher" => Better::Higher,
            other => return Err(invalid(format!("better {other:?}, expected lower|higher"))),
        };
        rows.push(Metric {
            name: text(row, "name")?.to_string(),
            value: field(row, "value")?
                .as_f64()
                .ok_or_else(|| invalid("value is not a number"))?,
            unit: text(row, "unit")?.to_string(),
            better,
        });
    }
    if rows.is_empty() {
        return Err(invalid("no rows"));
    }
    Ok(Baseline { host, rows })
}

/// How one row fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Regressed,
    /// Measured now, absent from the file.
    Missing,
    /// Recorded in the file, no longer measured.
    Stale,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "REGRESSED",
            Status::Missing => "MISSING",
            Status::Stale => "STALE",
        }
    }
}

/// One row of a comparison; `None` marks the side a row is absent from.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub baseline: Option<f64>,
    pub current: Option<f64>,
    pub status: Status,
}

/// The result of gating a measurement against a recorded baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub tolerance: f64,
    pub baseline_threads: usize,
    pub current_threads: usize,
    pub rows: Vec<Row>,
}

/// Gates `current` against `baseline`. A lower-is-better row passes up to
/// `baseline × (1 + tolerance)`, a higher-is-better row down to
/// `baseline / (1 + tolerance)`.
pub fn compare(current: &Baseline, baseline: &Baseline, tolerance: f64) -> Comparison {
    let limit = 1.0 + tolerance;
    let mut rows: Vec<Row> = current
        .rows
        .iter()
        .map(|m| {
            let recorded = baseline.rows.iter().find(|b| b.name == m.name);
            let status = match (recorded, m.better) {
                (None, _) => Status::Missing,
                (Some(b), Better::Lower) if m.value > b.value * limit => Status::Regressed,
                (Some(b), Better::Higher) if m.value < b.value / limit => Status::Regressed,
                (Some(_), _) => Status::Ok,
            };
            Row {
                name: m.name.clone(),
                unit: m.unit.clone(),
                better: m.better,
                baseline: recorded.map(|b| b.value),
                current: Some(m.value),
                status,
            }
        })
        .collect();
    rows.extend(
        baseline
            .rows
            .iter()
            .filter(|b| current.rows.iter().all(|m| m.name != b.name))
            .map(|b| Row {
                name: b.name.clone(),
                unit: b.unit.clone(),
                better: b.better,
                baseline: Some(b.value),
                current: None,
                status: Status::Stale,
            }),
    );
    Comparison {
        tolerance,
        baseline_threads: baseline.host.threads,
        current_threads: current.host.threads,
        rows,
    }
}

impl Comparison {
    pub fn passed(&self) -> bool {
        self.baseline_threads == self.current_threads
            && self.rows.iter().all(|r| r.status == Status::Ok)
    }

    fn names(&self, status: Status) -> Vec<&str> {
        self.rows
            .iter()
            .filter(|r| r.status == status)
            .map(|r| r.name.as_str())
            .collect()
    }

    /// One line per failure a ratio cannot express: rows present on only
    /// one side, and a thread-count mismatch.
    pub fn diagnostics(&self) -> Vec<String> {
        let mut msgs = Vec::new();
        let missing = self.names(Status::Missing);
        if !missing.is_empty() {
            msgs.push(format!(
                "this build measures {missing:?}, which the baseline does not record; \
                 re-record the baseline with --out"
            ));
        }
        let stale = self.names(Status::Stale);
        if !stale.is_empty() {
            msgs.push(format!(
                "the baseline records {stale:?}, which this build no longer measures; \
                 re-record the baseline with --out"
            ));
        }
        if self.baseline_threads != self.current_threads {
            msgs.push(format!(
                "the baseline was recorded at {} executor thread(s) but this run used {}; \
                 walls are not comparable: re-measure with MEMSENSE_THREADS={} or \
                 re-record the baseline",
                self.baseline_threads, self.current_threads, self.baseline_threads
            ));
        }
        msgs
    }

    /// The human-readable gate table.
    pub fn to_table(&self, title: &str) -> Table {
        let mut t = Table::new(
            format!(
                "{title}: current vs baseline at {} thread(s), tolerance {:.0}% -> {}",
                self.current_threads,
                self.tolerance * 100.0,
                if self.passed() { "PASS" } else { "FAIL" }
            ),
            &[
                "metric", "unit", "better", "baseline", "current", "ratio", "status",
            ],
        );
        let value = |v: Option<f64>| v.map_or("-".to_string(), |v| f(v, 3));
        for r in &self.rows {
            let ratio = match (r.baseline, r.current) {
                (Some(b), Some(c)) if b > 0.0 => f(c / b, 2),
                _ => "-".to_string(),
            };
            t.row(vec![
                r.name.clone(),
                r.unit.clone(),
                r.better.as_str().to_string(),
                value(r.baseline),
                value(r.current),
                ratio,
                r.status.as_str().to_string(),
            ]);
        }
        t
    }

    /// The comparison as the `--report` JSON artifact.
    pub fn to_json_value(&self) -> Json {
        let value = |v: Option<f64>| v.map_or(Json::Null, |v| Json::num(round3(v)));
        let rows = self.rows.iter().map(|r| {
            Json::obj(vec![
                ("name", Json::str(&r.name)),
                ("unit", Json::str(&r.unit)),
                ("better", Json::str(r.better.as_str())),
                ("baseline", value(r.baseline)),
                ("current", value(r.current)),
                ("status", Json::str(r.status.as_str())),
            ])
        });
        Json::obj(vec![
            ("schema", Json::str("memsense-bench-check/v1")),
            ("tolerance", Json::num(self.tolerance)),
            ("passed", Json::Bool(self.passed())),
            ("baseline_threads", Json::num(self.baseline_threads as f64)),
            ("current_threads", Json::num(self.current_threads as f64)),
            ("rows", Json::Arr(rows.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate() {
        use Better::{Higher, Lower};
        let recorded = Baseline {
            host: Host {
                nproc: 1,
                threads: 1,
            },
            rows: vec![
                Metric::new("wall_ms[a]", 100.0, "ms", Lower),
                Metric::new("total_ms", 200.0, "ms", Lower),
                Metric::new("warm_p99_ms", 20.0, "ms", Lower),
                Metric::new("throughput_rps", 1000.0, "1/s", Higher),
                Metric::new("deltas_per_s[batch=8]", 100.0, "1/s", Higher),
            ],
        };
        // (case, current threads, rows set (Some) or dropped (None) from
        // the recorded ones, rows that fail, expected diagnostic)
        type Case = (
            &'static str,
            usize,
            &'static [(&'static str, Option<f64>)],
            &'static [&'static str],
            &'static str,
        );
        #[rustfmt::skip]
        let cases: &[Case] = &[
            ("unchanged", 1, &[], &[], ""),
            ("lower within tolerance", 1, &[("wall_ms[a]", Some(150.0))], &[], ""),
            ("stage regression", 1, &[("wall_ms[a]", Some(151.0))], &["wall_ms[a]"], ""),
            ("total-only regression", 1,
             &[("wall_ms[a]", Some(149.0)), ("total_ms", Some(301.0))], &["total_ms"], ""),
            ("latency rise", 1, &[("warm_p99_ms", Some(31.0))], &["warm_p99_ms"], ""),
            ("higher within tolerance", 1, &[("throughput_rps", Some(667.0))], &[], ""),
            ("throughput drop", 1, &[("throughput_rps", Some(666.0))], &["throughput_rps"], ""),
            ("deltas/s drop", 1,
             &[("deltas_per_s[batch=8]", Some(66.0))], &["deltas_per_s[batch=8]"], ""),
            ("missing row", 1, &[("wall_ms[new]", Some(1.0))], &["wall_ms[new]"], "re-record"),
            ("stale row", 1, &[("wall_ms[a]", None)], &["wall_ms[a]"], "re-record"),
            ("thread mismatch", 8, &[], &[], "MEMSENSE_THREADS=1"),
        ];
        for &(case, threads, changes, failing, diagnostic) in cases {
            let mut current = recorded.clone();
            current.host.threads = threads;
            for &(name, value) in changes {
                let at = current.rows.iter().position(|m| m.name == name);
                match (at, value) {
                    (Some(i), Some(v)) => current.rows[i].value = v,
                    (Some(i), None) => drop(current.rows.remove(i)),
                    (None, Some(v)) => current.rows.push(Metric::new(name, v, "ms", Lower)),
                    (None, None) => {}
                }
            }
            let c = compare(&current, &recorded, 0.5);
            let passes = failing.is_empty() && diagnostic.is_empty();
            assert_eq!(c.passed(), passes, "{case}");
            let failed: Vec<&str> = c
                .rows
                .iter()
                .filter(|r| r.status != Status::Ok)
                .map(|r| r.name.as_str())
                .collect();
            assert_eq!(failed, failing, "{case}");
            let msgs = c.diagnostics().join("\n");
            assert_eq!(msgs.is_empty(), diagnostic.is_empty(), "{case}: {msgs}");
            assert!(msgs.contains(diagnostic), "{case}: {msgs}");
            let table = c.to_table(case).to_ascii();
            assert!(
                table.contains(if passes { "PASS" } else { "FAIL" }),
                "{table}"
            );
            let report = Json::parse(&c.to_json_value().to_string_pretty()).unwrap();
            assert_eq!(report.get("passed").and_then(Json::as_bool), Some(passes));
        }

        // Round trip, host block included.
        let text = to_json(&recorded);
        assert!(text.contains("\"host\""), "{text}");
        assert_eq!(from_json(&text).unwrap(), recorded);

        let old_schema = "{\"schema\": \"memsense-sim-baseline/v1\", \"threads\": 8}";
        let no_rows = "{\"schema\": \"memsense-bench/v1\", \
                       \"host\": {\"nproc\": 1, \"threads\": 1}, \"rows\": []}";
        for (case, text) in [
            ("garbage", "{"),
            ("wrong schema", old_schema),
            ("empty rows", no_rows),
        ] {
            let err = from_json(text).expect_err(case);
            assert!(err.0.starts_with("invalid baseline file"), "{case}: {err}");
        }
    }

    #[test]
    fn committed_baselines_parse_with_their_host() {
        for (text, threads, rows) in [
            (include_str!("../../../../../BENCH_sim.json"), 8, 8),
            (include_str!("../../../../../BENCH_serve.json"), 1, 3),
            (include_str!("../../../../../BENCH_stream.json"), 1, 4),
        ] {
            let b = from_json(text).unwrap();
            assert_eq!(b.host, Host { nproc: 1, threads });
            assert_eq!(b.rows.len(), rows);
            assert_eq!(to_json(&b).trim_end(), text.trim_end(), "canonical form");
        }
    }
}
