//! End-to-end tests of the `memsense-benchmark` binary: a smoke run of every
//! workload, traced and untraced, and the command-line contract. Unit tests
//! (span self time, open-loop accounting, the percentile sample rule, seeded
//! inputs) sit next to the code they test.

use std::path::PathBuf;
use std::process::Command;

use memsense_experiments::json::Json;

const WORKLOADS: [&str; 4] = ["sim-corebound", "sim-membound", "serve-hot", "serve-cold"];

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the binary in a scratch directory (trace files land there).
fn run_binary(args: &[&str]) -> std::process::Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    Command::new(env!("CARGO_BIN_EXE_memsense-benchmark"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("binary runs")
}

/// Checks a run's stdout: the last line is the result object with
/// `correct`, nothing failed, and every metric of every workload present
/// with its unit, each also on a report line.
fn assert_reports(out: &std::process::Output, names: &[(String, String)]) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = Json::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
    let keys: Vec<&str> = match &last {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        last.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(
        last.get("failed").and_then(Json::as_u64),
        Some(0),
        "{stdout}"
    );
    assert!(last.get("attempted").and_then(Json::as_u64).unwrap_or(0) > 0);
    let metrics = last.get("metrics").expect("metrics");
    for workload in WORKLOADS {
        for (name, unit) in names {
            let key = format!("{workload}/{name}");
            let m = metrics.get(&key).unwrap_or_else(|| panic!("missing {key}"));
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{key}"
            );
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{key}");
        }
    }
    for (name, unit) in names {
        assert!(
            stdout.lines().any(|l| {
                l.split_whitespace().next() == Some(name.as_str()) && l.ends_with(unit.as_str())
            }),
            "no report line for {name} ({unit})"
        );
    }
}

#[test]
fn smoke_run_prints_every_metric_with_its_unit_and_passes_goldens() {
    assert_reports(
        &run_binary(&["run", "--smoke", "--seed", "5"]),
        &listed("end_to_end"),
    );
    assert_reports(
        &run_binary(&["run", "--smoke", "--seed", "5", "--trace", "1"]),
        &listed("per_layer"),
    );
}

#[test]
fn one_workload_reports_plain_metric_names() {
    let out = run_binary(&[
        "run",
        "--workload",
        "serve-cold",
        "--smoke",
        "--seed",
        "2",
        "--trace",
        "0",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = Json::parse(stdout.lines().last().expect("output")).expect("JSON");
    for (name, _) in listed("end_to_end") {
        let value = last
            .get("metrics")
            .and_then(|m| m.get(&name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert!(value.is_some_and(|v| v > 0.0), "{name}: {value:?}");
    }
}

#[test]
fn unknown_arguments_are_usage_errors() {
    let out = run_binary(&["run", "--workload", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
