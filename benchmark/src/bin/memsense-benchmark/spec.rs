//! `BENCHMARK.json`: the workloads, run length, and every metric with its
//! unit, direction and bound. The copy compiled into the binary is the one
//! metric catalogue; `compare --spec` may read another.

use std::sync::OnceLock;

use memsense_experiments::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latency, set-up time, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// Parses a `BENCHMARK.json` token.
    pub fn from_token(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecMetric {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening as a share of the parent median (end-to-end only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the tools use.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// End-to-end metrics (with bounds), measured with tracing off. Every
    /// workload reports every one of them (README.md defines each per
    /// workload).
    pub end_to_end: Vec<SpecMetric>,
    /// Per-layer metrics (no bounds), measured in a separate traced run. A
    /// workload that does not exercise a layer reports 0 for it.
    pub per_layer: Vec<SpecMetric>,
}

fn metrics(json: &Json, key: &str, bounded: bool) -> Result<Vec<SpecMetric>, String> {
    json.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: missing {key}"))?
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: {key} entry without {k}"))
            };
            let better = text("better")?;
            Ok(SpecMetric {
                name: text("name")?,
                unit: text("unit")?,
                better: Better::from_token(&better)
                    .ok_or_else(|| format!("BENCHMARK.json: bad direction {better:?}"))?,
                bound: if bounded {
                    Some(
                        m.get("bound")
                            .and_then(Json::as_f64)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry without bound"))?,
                    )
                } else {
                    None
                },
            })
        })
        .collect()
}

impl Spec {
    /// Parses `BENCHMARK.json` text.
    ///
    /// # Errors
    ///
    /// Invalid JSON or a missing field.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let json = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Spec {
            workloads: json
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("BENCHMARK.json: missing workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            run_seconds: json
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing run_seconds")?,
            end_to_end: metrics(&json, "end_to_end", true)?,
            per_layer: metrics(&json, "per_layer", false)?,
        })
    }

    /// Reads and parses the file at `path`.
    ///
    /// # Errors
    ///
    /// Unreadable file or [`Spec::parse`] errors.
    pub fn load(path: &std::path::Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Spec::parse(&text)
    }

    /// Every metric, end-to-end first.
    pub fn all(&self) -> impl Iterator<Item = &SpecMetric> {
        self.end_to_end.iter().chain(&self.per_layer)
    }

    /// Looks a metric up in either list.
    pub fn find(&self, name: &str) -> Option<&SpecMetric> {
        self.all().find(|m| m.name == name)
    }
}

/// The `BENCHMARK.json` this binary was built from.
pub fn catalogue() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        Spec::parse(include_str!("../../../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("the compiled-in {e}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Kind;

    #[test]
    fn benchmark_json_names_the_workloads_this_binary_runs() {
        let spec = catalogue();
        let kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(spec.workloads, kinds);
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            spec.find("setup_s").and_then(|m| m.bound),
            Some(largest),
            "setup_s carries the largest bound"
        );
    }
}
