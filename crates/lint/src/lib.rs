//! `memsense-lint`: workspace-aware static analysis for the memsense repo.
//!
//! The repo's headline guarantees — byte-identical repro output across
//! thread counts, a canonical JSON wire format with no NaN/`-0.0` leakage,
//! bit-exact sim golden snapshots, and an epoll reactor that never blocks —
//! are enforced dynamically by tests that must happen to exercise the
//! offending path. This crate closes the gap statically, in three layers:
//!
//! 1. a real error-tolerant Rust token scanner ([`lexer`]) feeding the
//!    per-file rule engine ([`rules`]) over every workspace `.rs` file
//!    ([`engine`]);
//! 2. a lightweight item extractor ([`syntax`]) and workspace-wide
//!    over-approximate call graph ([`graph`], dumped by `--graph`);
//! 3. interprocedural reachability rules ([`reach`]): the reactor-blocking,
//!    transitive-panic, and nondeterminism-taint invariants that no single
//!    file can witness.
//!
//! Findings print as `file:line:col rule-id message` ([`report`]), are
//! suppressed inline with `// memsense-lint: allow(rule-id)`, or are
//! accepted as enumerated, justified debt in a shrink-only
//! `LINT_BASELINE.json` ratchet ([`baseline`]).
//!
//! The `memsense-lint` binary drives it; the CI `lint` job gates on a clean
//! tree modulo the committed baseline and uploads the JSON report plus the
//! call-graph dump as artifacts. Run `memsense-lint --list-rules` for the
//! rule set and `--explain <rule-id>` for what each invariant protects.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod engine;
pub mod graph;
pub mod lexer;
pub mod reach;
pub mod report;
pub mod rules;
pub mod syntax;

use std::path::Path;

use engine::{relative, scan_workspace, SourceFile};
use graph::CallGraph;
use report::{Diagnostic, Report};

/// Lints a single file's source text under its workspace-relative path with
/// the **per-file** rules only, returning unsuppressed diagnostics in source
/// order. Interprocedural rules need the whole workspace — use
/// [`lint_sources`] for those.
pub fn lint_source(rel: &str, source: String) -> Vec<Diagnostic> {
    let file = SourceFile::parse(rel, source);
    let mut diags = rules::check_file(&file);
    fill_symbols(std::slice::from_ref(&file), &mut diags);
    diags
}

/// Runs both passes — per-file rules and workspace graph rules — over an
/// in-memory `(rel, source)` file set, returning sorted unsuppressed
/// diagnostics plus the call graph. This is the unit-testable core the
/// binary and the multi-file fixture tests share.
pub fn lint_sources(sources: Vec<(String, String)>) -> (Vec<Diagnostic>, CallGraph) {
    let files: Vec<SourceFile> = sources
        .into_iter()
        .map(|(rel, src)| SourceFile::parse(&rel, src))
        .collect();
    analyze(&files)
}

fn analyze(files: &[SourceFile]) -> (Vec<Diagnostic>, CallGraph) {
    let mut diagnostics = Vec::new();
    for file in files {
        diagnostics.extend(rules::check_file(file));
    }
    let graph = CallGraph::build(files);
    reach::check_graph(files, &graph, &mut diagnostics);
    fill_symbols(files, &mut diagnostics);
    diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    (diagnostics, graph)
}

/// Stamps each diagnostic that has no symbol yet with the display name of
/// the innermost fn whose body covers its line (or `"-"` outside any fn), so
/// baseline keys are line-number-free.
fn fill_symbols(files: &[SourceFile], diags: &mut [Diagnostic]) {
    use std::collections::BTreeMap;
    let mut per_file: BTreeMap<&str, Vec<(u32, u32, String)>> = BTreeMap::new();
    for file in files {
        let spans = per_file.entry(file.rel.as_str()).or_default();
        for item in syntax::extract(file) {
            if let Some((open, close)) = item.body {
                let first = file.code[open].line;
                let last = file.code[close].line;
                spans.push((first, last, item.display()));
            }
        }
    }
    for d in diags.iter_mut().filter(|d| d.symbol.is_empty()) {
        let enclosing = per_file.get(d.file.as_str()).and_then(|spans| {
            spans
                .iter()
                .filter(|(first, last, _)| *first <= d.line && d.line <= *last)
                .min_by_key(|(first, last, _)| last - first)
                .map(|(_, _, name)| name.clone())
        });
        d.symbol = enclosing.unwrap_or_else(|| "-".to_string());
    }
}

/// Lints every `.rs` file under `root` (both passes) and assembles the
/// [`Report`] plus the workspace [`CallGraph`]. The report carries **all**
/// findings; baseline suppression is the caller's move
/// ([`baseline::Baseline::apply`]).
///
/// # Errors
///
/// Returns an I/O error if the tree cannot be walked or a file cannot be
/// read as UTF-8 text.
pub fn analyze_workspace(root: &Path) -> std::io::Result<(Report, CallGraph)> {
    let paths = scan_workspace(root)?;
    let files_scanned = paths.len();
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let source = std::fs::read_to_string(&path)?;
        let rel = relative(root, &path);
        files.push(SourceFile::parse(&rel, source));
    }
    let (diagnostics, graph) = analyze(&files);
    Ok((
        Report {
            root: root.display().to_string(),
            files_scanned,
            diagnostics,
            suppressed: 0,
            stale: Vec::new(),
        },
        graph,
    ))
}
