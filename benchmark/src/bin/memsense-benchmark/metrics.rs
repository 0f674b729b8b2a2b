//! The outcome one workload run reports, and the process readings behind
//! some of its metrics.

use std::collections::BTreeMap;

use memsense_experiments::json::Json;

use crate::spec;

/// What one workload run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output check passed (goldens and reference comparisons).
    pub correct: bool,
    /// Operations attempted (operating points, requests).
    pub attempted: u64,
    /// Operations that failed or were refused (non-200, transport error).
    pub failed: u64,
    /// Metric values by catalogue name.
    pub metrics: BTreeMap<String, f64>,
    /// Supporting numbers for the results file (sample counts, ladder).
    pub details: Vec<(String, Json)>,
    /// Human-readable descriptions of failed checks.
    pub problems: Vec<String>,
}

impl Outcome {
    /// A passing outcome with nothing measured yet.
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Sets a metric value; the name must be in `BENCHMARK.json`.
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            spec::catalogue().find(name).is_some(),
            "unknown metric {name}"
        );
        self.metrics.insert(name.to_string(), value);
    }

    /// Adds a supporting detail.
    pub fn detail(&mut self, key: &str, value: Json) {
        self.details.push((key.to_string(), value));
    }

    /// A supporting detail by key.
    pub fn detail_value(&self, key: &str) -> Option<&Json> {
        self.details.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Records a failed output check.
    pub fn problem(&mut self, message: String) {
        self.correct = false;
        self.problems.push(message);
    }

    /// Serializes the outcome for the worker → parent pipe.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::num(*v)))
                        .collect(),
                ),
            ),
            ("details", Json::Obj(self.details.clone())),
            (
                "problems",
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
        ])
    }

    /// Parses [`Outcome::to_json`] output.
    pub fn from_json(json: &Json) -> Option<Outcome> {
        let metrics = match json.get("metrics")? {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect::<Option<BTreeMap<_, _>>>()?,
            _ => return None,
        };
        let details = match json.get("details")? {
            Json::Obj(fields) => fields.clone(),
            _ => return None,
        };
        let problems = json
            .get("problems")?
            .as_arr()?
            .iter()
            .map(|p| p.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()?;
        Some(Outcome {
            correct: json.get("correct")?.as_bool()?,
            attempted: json.get("attempted")?.as_u64()?,
            failed: json.get("failed")?.as_u64()?,
            metrics,
            details,
            problems,
        })
    }
}

/// The first number of field `field` of `/proc/<pid>/status`.
fn status_field(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resident-set high-water mark of process `pid` (`self` for this one), MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    Some(status_field(pid, "VmHWM:")? / 1024.0)
}

/// Threads of process `pid` (`self` for this one).
pub fn threads(pid: &str) -> Option<usize> {
    Some(status_field(pid, "Threads:")? as usize)
}

/// CPU time of every thread of process `pid`, seconds: the scheduler's
/// nanosecond run time where the kernel exports it, else user plus system
/// time in 10 ms ticks (`USER_HZ` is 100 on every supported target). Ticks
/// are sampled, so over a few CPU-seconds they carry a few percent of noise.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let run_ns: u64 = std::fs::read_dir(format!("/proc/{pid}/task"))
        .ok()?
        .filter_map(|task| {
            let path = task.ok()?.path().join("schedstat");
            let text = std::fs::read_to_string(path).ok()?;
            text.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum();
    if run_ns > 0 {
        return Some(run_ns as f64 / 1e9);
    }
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesized command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_round_trips_through_json() {
        let mut o = Outcome::new();
        o.attempted = 12;
        o.failed = 1;
        o.set("p50_ms", 0.25);
        o.detail("samples", Json::num(12.0));
        o.problem("golden mismatch".to_string());
        let back = Outcome::from_json(&o.to_json()).expect("parses");
        assert_eq!((back.correct, back.attempted, back.failed), (false, 12, 1));
        assert_eq!(back.metrics, o.metrics);
        assert_eq!(back.problems, o.problems);
    }
}
