//! `compare`: the choosing-metrics §8 rule over two sets of results files.
//!
//! For every metric × workload pair present on both sides it reports each
//! side's median and quartiles, the fraction of alternating pairs the
//! change won, and a verdict:
//!
//! * **improved** — the change won at least nine tenths of the pairs (ties
//!   count for neither side) and the medians differ, in the better
//!   direction, by more than the parent's interquartile distance;
//! * **regressed** — the change's median is worse than the parent's by more
//!   than the metric's bound (per-layer metrics, which have no bound: the
//!   mirror of the improvement rule);
//! * **unresolved** — neither, but the parent's own spread is wider than
//!   the bound, unless every change run reads better than every parent run;
//! * **unchanged** — otherwise.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use memsense_experiments::json::Json;

use crate::spec::{Better, Spec};
use crate::stats::quartiles;

/// A comparison outcome for one metric × workload pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the gain rule.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse than the bound allows.
    Regressed,
    /// Run-to-run spread too wide to tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of pairs `(parent[i], change[i])` in which the change reads better.
pub fn win_fraction(parent: &[f64], change: &[f64], better: Better) -> f64 {
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| match better {
            Better::Lower => c < p,
            Better::Higher => c > p,
        })
        .count();
    wins as f64 / pairs.max(1) as f64
}

/// Applies the rule to one pair's values.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let [p1, pm, p3] = quartiles(parent);
    let [_, cm, _] = quartiles(change);
    let iqr = p3 - p1;
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    // Positive when the change is worse.
    let worse = sign * (cm - pm);
    let wins = win_fraction(parent, change, better);
    let losses = win_fraction(change, parent, better);
    if wins >= 0.9 && -worse > iqr {
        return Verdict::Improved;
    }
    let Some(bound) = bound else {
        return if losses >= 0.9 && worse > iqr {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        };
    };
    let scale = pm.abs();
    if worse > bound * scale {
        return Verdict::Regressed;
    }
    let all_better = match better {
        Better::Lower => {
            change.iter().cloned().fold(f64::MIN, f64::max)
                < parent.iter().cloned().fold(f64::MAX, f64::min)
        }
        Better::Higher => {
            change.iter().cloned().fold(f64::MAX, f64::min)
                > parent.iter().cloned().fold(f64::MIN, f64::max)
        }
    };
    if iqr > bound * scale && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// Metric values from results files, by `(workload, metric)`, in file order.
pub type Values = BTreeMap<(String, String), Vec<f64>>;

/// Collects every run's metric values from results documents (`run --out`).
///
/// # Errors
///
/// Unreadable or malformed files.
pub fn collect(paths: &[String]) -> Result<Values, String> {
    let mut values = Values::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{path}: not a results file (no \"runs\")"))?;
        for run in runs {
            let workload = run
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: run without workload"))?;
            let Some(Json::Obj(metrics)) = run.get("metrics") else {
                return Err(format!("{path}: run without metrics"));
            };
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    values
                        .entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(values)
}

/// One report row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Metric unit.
    pub unit: String,
    /// Bound, for end-to-end metrics.
    pub bound: Option<f64>,
    /// Parent quartiles.
    pub parent: [f64; 3],
    /// Change quartiles.
    pub change: [f64; 3],
    /// Fraction of pairs the change won.
    pub wins: f64,
    /// Outcome.
    pub verdict: Verdict,
}

/// Compares every metric × workload pair both sides report.
pub fn compare(spec: &Spec, parent: &Values, change: &Values) -> Vec<Row> {
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = parent.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    let mut rows = Vec::new();
    for workload in workloads {
        for m in spec.all() {
            let key = (workload.clone(), m.name.clone());
            let (Some(p), Some(c)) = (parent.get(&key), change.get(&key)) else {
                continue;
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                unit: m.unit.clone(),
                bound: m.bound,
                parent: quartiles(p),
                change: quartiles(c),
                wins: win_fraction(p, c, m.better),
                verdict: verdict(p, c, m.better, m.bound),
            });
        }
    }
    rows
}

/// Renders rows as a fixed-width table.
pub fn table(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<32} {:>34} {:>34} {:>5} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "bound"
    );
    // Six significant digits, whatever the magnitude.
    let n = |v: f64| {
        let digits = 5 - v.abs().max(1e-9).log10().floor() as i32;
        format!("{v:.*}", digits.clamp(0, 9) as usize)
    };
    let q = |v: [f64; 3]| format!("{} [{}, {}]", n(v[1]), n(v[0]), n(v[2]));
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:<32} {:>34} {:>34} {:>4.0}% {:>6}  {}",
            r.workload,
            format!("{} ({})", r.metric, r.unit),
            q(r.parent),
            q(r.change),
            r.wins * 100.0,
            r.bound.map_or("-".to_string(), |b| format!("{b}")),
            r.verdict.label()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sides_are_unchanged() {
        let v = [10.0, 10.5, 9.8, 10.2, 10.1, 9.9, 10.3, 10.0, 10.4, 9.7];
        assert_eq!(
            verdict(&v, &v, Better::Lower, Some(0.1)),
            Verdict::Unchanged
        );
        assert_eq!(win_fraction(&v, &v, Better::Lower), 0.0);
    }

    #[test]
    fn clear_gain_is_improved_and_clear_loss_regressed() {
        let parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.7).collect();
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.3).collect();
        assert_eq!(
            verdict(&parent, &faster, Better::Lower, Some(0.1)),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&parent, &slower, Better::Lower, Some(0.1)),
            Verdict::Regressed
        );
        // Direction matters: for throughput the same numbers flip.
        assert_eq!(
            verdict(&parent, &slower, Better::Higher, Some(0.1)),
            Verdict::Improved
        );
        // Per-layer (no bound) losses use the mirrored gain rule.
        assert_eq!(
            verdict(&parent, &slower, Better::Lower, None),
            Verdict::Regressed
        );
    }

    #[test]
    fn noisy_parent_is_unresolved_within_bound() {
        let parent = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        let change = [10.5, 9.0, 12.0, 8.0, 11.0, 10.0, 9.5, 10.5, 10.0, 10.2];
        assert_eq!(
            verdict(&parent, &change, Better::Lower, Some(0.1)),
            Verdict::Unresolved
        );
    }
}
