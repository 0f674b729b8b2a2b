//! The `memsense-lint` command-line driver.
//!
//! Exit codes follow the workspace convention (the `MEMSENSE_THREADS`
//! diagnostic convention from the experiments crate): `0` clean, `1` one or
//! more diagnostics (or stale baseline entries), `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use memsense_lint::baseline::Baseline;
use memsense_lint::rules::{rule, RULES};

const USAGE: &str = "\
memsense-lint: workspace static analysis for determinism, panic-freedom, reactor-blocking, and wire-format invariants

USAGE:
    memsense-lint [--root DIR] [--format human|json] [--out FILE] [--graph FILE]
                  [--baseline FILE | --no-baseline] [--write-baseline FILE]
    memsense-lint --list-rules
    memsense-lint --explain <rule-id>

OPTIONS:
    --root DIR             Workspace root to scan (default: .)
    --format FORMAT        Report format: human (default) or json
    --out FILE             Write the report to FILE; diagnostics still print to stdout
    --graph FILE           Dump the workspace call graph as canonical JSON to FILE
    --baseline FILE        Apply the accepted-debt ratchet from FILE
    --no-baseline          Ignore an auto-detected LINT_BASELINE.json at the root
    --write-baseline FILE  Write the current findings as a baseline to FILE
                           (keeps existing justifications; new entries get a
                           TODO placeholder the strict loader rejects)
    --list-rules           List every rule id with a one-line summary
    --explain ID           Explain the invariant behind a rule and how to fix/suppress it

Without --baseline/--no-baseline, a LINT_BASELINE.json at the root is applied
automatically. Baseline entries key on (rule, file, symbol), carry a mandatory
justification, and may only shrink: findings beyond an entry's count fail the
run, and so do stale entries whose debt no longer exists.

Unused public API: each --graph node has a `role` (lib, bin, test, bench,
example), `public`, `test` (inside #[cfg(test)]) and `calls` (resolved callee
ids). A public, non-test `lib` node that no non-test, non-example node calls
has no production caller. Count them with jq (drop `| length` to list them):
    jq '[.nodes[] | select(.role != \"test\" and .role != \"example\" and (.test | not)) | .calls[]] as $live | [.nodes[] | select(.role == \"lib\" and .public and (.test | not)) | .id | select(. as $id | $live | index($id) | not)] | length' graph.json
Method calls resolve by name and only to types the calling file mentions, so
some real calls stay unresolved (e.g. `Report::human`): confirm each hit with
grep before deleting it.

EXIT CODES:
    0  clean tree (modulo the baseline)
    1  one or more diagnostics, or stale baseline entries
    2  usage, I/O, or baseline-format error

Suppression: `// memsense-lint: allow(rule-id)` on the offending line, or on
the line above, with a one-line justification.";

enum Format {
    Human,
    Json,
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut root = PathBuf::from(".");
    let mut format = Format::Human;
    let mut out: Option<PathBuf> = None;
    let mut graph_out: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut no_baseline = false;
    let mut write_baseline: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            "--list-rules" => {
                for r in RULES {
                    println!("{:<32} {}", r.id, r.summary);
                }
                return Ok(ExitCode::SUCCESS);
            }
            "--explain" => {
                let id = args.next().ok_or("--explain requires a rule id")?;
                let r = rule(&id).ok_or_else(|| {
                    format!("unknown rule {id:?}; run --list-rules for the rule set")
                })?;
                println!("{}\n", r.id);
                println!("invariant: {}\n", r.invariant);
                println!("fix: {}\n", r.fix);
                println!("suppress: // memsense-lint: allow({})", r.id);
                return Ok(ExitCode::SUCCESS);
            }
            "--root" => {
                root = PathBuf::from(args.next().ok_or("--root requires a directory")?);
            }
            "--format" => {
                format = match args
                    .next()
                    .ok_or("--format requires human or json")?
                    .as_str()
                {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format {other:?} (human or json)")),
                };
            }
            "--out" => {
                out = Some(PathBuf::from(args.next().ok_or("--out requires a path")?));
            }
            "--graph" => {
                graph_out = Some(PathBuf::from(args.next().ok_or("--graph requires a path")?));
            }
            "--baseline" => {
                baseline_path = Some(PathBuf::from(
                    args.next().ok_or("--baseline requires a path")?,
                ));
            }
            "--no-baseline" => {
                no_baseline = true;
            }
            "--write-baseline" => {
                write_baseline = Some(PathBuf::from(
                    args.next().ok_or("--write-baseline requires a path")?,
                ));
            }
            other => {
                return Err(format!("unknown argument {other:?}\n\n{USAGE}"));
            }
        }
    }
    if no_baseline && baseline_path.is_some() {
        return Err("--baseline and --no-baseline are mutually exclusive".to_string());
    }

    if !root.join("Cargo.toml").exists() {
        return Err(format!(
            "{} does not look like a workspace root (no Cargo.toml)",
            root.display()
        ));
    }
    let (mut report, graph) = memsense_lint::analyze_workspace(&root)
        .map_err(|e| format!("scanning {}: {e}", root.display()))?;

    if let Some(path) = &graph_out {
        let dump = graph.to_canonical_json() + "\n";
        std::fs::write(path, dump).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    // The baseline in force: explicit, or auto-detected at the root.
    let auto = root.join("LINT_BASELINE.json");
    let effective = baseline_path
        .clone()
        .or_else(|| (!no_baseline && auto.exists()).then_some(auto));

    if let Some(path) = &write_baseline {
        // Carry over justifications from the effective baseline, leniently:
        // a half-filled file is exactly what's being regenerated.
        let prev = match &effective {
            Some(p) if p.exists() => Baseline::load(p, false)?,
            _ => Baseline::default(),
        };
        let next = Baseline::from_findings(&report.diagnostics, &prev);
        let todo = next
            .entries
            .iter()
            .filter(|e| e.justification.starts_with("TODO"))
            .count();
        std::fs::write(path, next.to_json() + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "wrote {} baseline entr(ies) to {}{}",
            next.entries.len(),
            path.display(),
            if todo > 0 {
                format!(" ({todo} need a justification before the baseline can gate)")
            } else {
                String::new()
            }
        );
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(path) = &effective {
        let baseline = Baseline::load(path, true)?;
        let applied = baseline.apply(std::mem::take(&mut report.diagnostics));
        report.diagnostics = applied.remaining;
        report.suppressed = applied.suppressed;
        report.stale = applied.stale;
    }

    let rendered = match format {
        Format::Human => report.human(),
        Format::Json => report.to_json(),
    };
    match &out {
        Some(path) => {
            std::fs::write(path, &rendered)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            // Keep the CI log readable even when the artifact is JSON.
            print!("{}", report.human());
        }
        None => print!("{rendered}"),
    }

    Ok(
        if report.diagnostics.is_empty() && report.stale.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        },
    )
}
