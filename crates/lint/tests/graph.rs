//! The interprocedural layers: item extraction, call resolution, the
//! reachability rules, and — the reason the whole subsystem exists — the
//! regression proving that reverting the `take_updates` try_lock fix in the
//! real serve sources is caught by `reactor-no-blocking-call`.

use std::path::Path;
use std::process::Command;

use memsense_lint::engine::SourceFile;
use memsense_lint::graph::{CallGraph, CallKind};
use memsense_lint::lint_sources;
use memsense_lint::syntax;

fn parse(rel: &str, src: &str) -> SourceFile {
    SourceFile::parse(rel, src.to_string())
}

fn node(graph: &CallGraph, display: &str) -> usize {
    (0..graph.nodes.len())
        .find(|&n| graph.nodes[n].item.display() == display)
        .unwrap_or_else(|| {
            let names: Vec<String> = graph.nodes.iter().map(|n| n.item.display()).collect();
            panic!("node {display:?} not found in {names:?}")
        })
}

// ---------------------------------------------------------------- syntax --

#[test]
fn extract_names_owners_visibility_and_tests() {
    let src = r#"
pub fn free() {}

pub(crate) fn scoped() {}

struct Widget;

impl Widget {
    pub fn new() -> Widget { Widget }
    fn helper(&self) {}
}

impl std::fmt::Display for Widget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        Ok(())
    }
}

mod inner {
    pub fn nested() {}
}

#[cfg(test)]
mod tests {
    #[test]
    fn covered() {}
}

pub trait Solver {
    fn solve(&self) -> f64;
}
"#;
    let file = parse("crates/model/src/lib.rs", src);
    let items = syntax::extract(&file);
    let find = |display: &str| {
        items
            .iter()
            .find(|i| i.display() == display)
            .unwrap_or_else(|| panic!("{display} missing"))
    };
    assert!(find("free").is_pub);
    assert!(find("free").owner.is_none());
    assert!(
        !find("scoped").is_pub,
        "pub(crate) is not pub to the outside world"
    );
    assert!(find("Widget::new").is_pub);
    assert!(!find("Widget::helper").is_pub);
    assert_eq!(
        find("Widget::fmt").owner.as_deref(),
        Some("Widget"),
        "trait impls attribute to the implementing type"
    );
    assert_eq!(find("nested").modules, vec!["inner".to_string()]);
    assert!(find("covered").is_test);
    let solve = find("Solver::solve");
    assert!(solve.body.is_none(), "trait method decls have no body");
}

// ----------------------------------------------------------- resolution --

#[test]
fn self_and_method_calls_resolve_inside_the_impl() {
    let src = r#"
pub struct Engine;

impl Engine {
    pub fn run(&self) {
        self.step();
        Self::reset();
    }
    fn step(&self) {}
    fn reset() {}
}
"#;
    let files = [parse("crates/sim/src/lib.rs", src)];
    let graph = CallGraph::build(&files);
    let run = node(&graph, "Engine::run");
    let step = node(&graph, "Engine::step");
    let reset = node(&graph, "Engine::reset");
    assert!(graph.edges[run].contains(&step), "self.step() resolves");
    assert!(graph.edges[run].contains(&reset), "Self::reset() resolves");
}

#[test]
fn external_camelcase_qualifiers_do_not_resolve_to_workspace_fns() {
    // VecDeque::new must not edge to every workspace fn named `new`.
    let a = parse(
        "crates/sim/src/lib.rs",
        "pub fn build() { let q: std::collections::VecDeque<u32> = VecDeque::new(); }\n",
    );
    let b = parse(
        "crates/model/src/lib.rs",
        "pub struct Model;\nimpl Model {\n    pub fn new() -> Model { Model }\n}\n",
    );
    let files = [a, b];
    let graph = CallGraph::build(&files);
    let build = node(&graph, "build");
    assert!(
        graph.edges[build].is_empty(),
        "VecDeque is not a workspace type; the call stays unresolved"
    );
    let site = graph.calls[build]
        .iter()
        .find(|s| s.name == "new")
        .expect("call site recorded");
    assert_eq!(site.kind, CallKind::Path("VecDeque".to_string()));
    assert!(site.resolved.is_empty());
}

#[test]
fn method_calls_resolve_only_where_the_owner_type_is_mentioned() {
    let registry = parse(
        "crates/serve/src/registry.rs",
        "pub struct Registry;\nimpl Registry {\n    pub fn tick(&self) {}\n}\n",
    );
    // Mentions Registry: `.tick()` may be Registry::tick.
    let caller = parse(
        "crates/serve/src/server.rs",
        "use crate::registry::Registry;\npub fn pump(r: &Registry) { r.tick(); }\n",
    );
    // Never mentions Registry: its `.tick()` is some other type's method.
    let stranger = parse(
        "crates/sim/src/lib.rs",
        "pub fn advance(clock: &mut std::time::Instant) { clock.tick(); }\n",
    );
    let files = [registry, caller, stranger];
    let graph = CallGraph::build(&files);
    let tick = node(&graph, "Registry::tick");
    let pump = node(&graph, "pump");
    let advance = node(&graph, "advance");
    assert!(graph.edges[pump].contains(&tick));
    assert!(
        !graph.edges[advance].contains(&tick),
        "no Registry mention in the file, no edge"
    );
}

#[test]
fn non_test_callers_do_not_resolve_into_test_helpers() {
    let src = r#"
pub fn run() {
    setup();
}

fn setup() {}

#[cfg(test)]
mod tests {
    pub fn setup() {}
}
"#;
    let files = [parse("crates/model/src/lib.rs", src)];
    let graph = CallGraph::build(&files);
    let run = node(&graph, "run");
    let resolved = &graph.calls[run]
        .iter()
        .find(|s| s.name == "setup")
        .expect("site")
        .resolved;
    assert_eq!(resolved.len(), 1, "only the non-test setup is a candidate");
    assert!(!graph.nodes[resolved[0]].item.is_test);
}

// ----------------------------------------------------------- graph rules --

#[test]
fn reactor_rule_walks_the_chain_and_names_it() {
    let server = r#"
pub struct Reactor;

impl Reactor {
    pub fn run(&self) {
        self.pump();
    }
    fn pump(&self) {
        refresh();
    }
}
"#;
    let store = r#"
use std::sync::Mutex;

static CELL: Mutex<u64> = Mutex::new(0);

pub fn refresh() {
    if let Ok(mut cell) = CELL.lock() {
        *cell += 1;
    }
}
"#;
    let (diags, _) = lint_sources(vec![
        ("crates/serve/src/server.rs".to_string(), server.to_string()),
        ("crates/serve/src/store.rs".to_string(), store.to_string()),
    ]);
    let hit = diags
        .iter()
        .find(|d| d.rule == "reactor-no-blocking-call")
        .unwrap_or_else(|| panic!("no reactor diagnostic in {diags:?}"));
    assert_eq!(hit.file, "crates/serve/src/store.rs");
    assert_eq!(hit.symbol, "refresh");
    assert!(
        hit.message
            .contains("Reactor::run -> Reactor::pump -> refresh"),
        "chain missing from: {}",
        hit.message
    );
}

#[test]
fn transitive_panic_flags_the_public_root_not_the_helper() {
    let (diags, _) = lint_sources(vec![(
        "crates/model/src/lib.rs".to_string(),
        "fn decode(raw: &str) -> u64 {\n    raw.parse().unwrap()\n}\n\npub fn total(raw: &str) -> u64 {\n    decode(raw)\n}\n"
            .to_string(),
    )]);
    let hit = diags
        .iter()
        .find(|d| d.rule == "transitive-panic-in-lib")
        .unwrap_or_else(|| panic!("no transitive diagnostic in {diags:?}"));
    assert_eq!(hit.symbol, "total", "the public entry point is flagged");
    assert!(hit.message.contains("total -> decode"), "{}", hit.message);
    // The helper's own unwrap is the per-file rule's finding, at its line.
    assert!(diags
        .iter()
        .any(|d| d.rule == "no-panic-in-lib" && d.line == 2));
}

#[test]
fn taint_requires_both_a_source_and_a_reachable_sink() {
    let serializer = "pub fn canonical(body: &str) -> String {\n    body.to_string()\n}\n";
    let tainted = "use std::time::Instant;\npub fn stamp() -> String {\n    let t = Instant::now();\n    let _ = t.elapsed();\n    crate::canonical(\"x\")\n}\n";
    let (diags, _) = lint_sources(vec![
        (
            "crates/serve/src/json.rs".to_string(),
            serializer.to_string(),
        ),
        (
            "crates/serve/src/report.rs".to_string(),
            tainted.to_string(),
        ),
    ]);
    assert!(
        diags.iter().any(|d| d.rule == "nondeterminism-taint"),
        "source + sink must fire: {diags:?}"
    );
    // Remove the sink from the workspace: the same source goes quiet.
    let (diags, _) = lint_sources(vec![(
        "crates/serve/src/report.rs".to_string(),
        tainted.replace("crate::canonical(\"x\")", "String::new()"),
    )]);
    assert!(
        !diags.iter().any(|d| d.rule == "nondeterminism-taint"),
        "no reachable serializer, no taint: {diags:?}"
    );
}

// ------------------------------------------------- the PR 8 regression --

fn serve_src(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../serve/src")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The acceptance check: on the **real** serve sources, the shipped
/// `take_updates` is clean, and reverting its try_lock fix back to a
/// blocking `lock()` (the PR 8 bug) brings back a `reactor-no-blocking-call`
/// diagnostic that names the reachability chain.
#[test]
fn reverting_the_take_updates_try_lock_fix_is_caught() {
    let server = serve_src("server.rs");
    let streams = serve_src("streams.rs");
    assert!(
        streams.contains("slot.try_lock()"),
        "take_updates no longer uses slot.try_lock(); update this regression test"
    );

    let sources = |streams: &str| {
        vec![
            ("crates/serve/src/server.rs".to_string(), server.clone()),
            (
                "crates/serve/src/streams.rs".to_string(),
                streams.to_string(),
            ),
        ]
    };
    let (clean, _) = lint_sources(sources(&streams));
    let reactor: Vec<_> = clean
        .iter()
        .filter(|d| d.rule == "reactor-no-blocking-call")
        .collect();
    assert!(
        reactor.is_empty(),
        "shipped serve sources must be reactor-clean: {reactor:?}"
    );

    let reverted = streams.replace("slot.try_lock()", "slot.lock()");
    let (dirty, _) = lint_sources(sources(&reverted));
    let hit = dirty
        .iter()
        .find(|d| d.rule == "reactor-no-blocking-call")
        .unwrap_or_else(|| panic!("revert not caught; diagnostics: {dirty:?}"));
    assert_eq!(hit.file, "crates/serve/src/streams.rs");
    assert_eq!(hit.symbol, "StreamRegistry::take_updates");
    assert!(
        hit.message.contains("Reactor::run") && hit.message.contains("take_updates"),
        "chain should run from the event loop to the revert: {}",
        hit.message
    );
}

/// The same revert, end to end through the binary: a scratch workspace
/// holding the real sources exits 0 as shipped and 1 when reverted, with
/// the diagnostic on stdout.
#[test]
fn reverted_scratch_workspace_fails_the_binary_gate() {
    let dir = std::env::temp_dir().join(format!("memsense-lint-revert-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("crates/serve/src")).expect("scratch dirs");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("marker");
    std::fs::write(
        dir.join("crates/serve/src/server.rs"),
        serve_src("server.rs"),
    )
    .expect("server.rs");
    let streams = serve_src("streams.rs");

    let run = |streams: &str| {
        std::fs::write(dir.join("crates/serve/src/streams.rs"), streams).expect("streams.rs");
        Command::new(env!("CARGO_BIN_EXE_memsense-lint"))
            .args(["--root", dir.to_str().expect("utf-8 temp path")])
            .output()
            .expect("spawn memsense-lint")
    };

    let out = run(&streams);
    assert_eq!(
        out.status.code(),
        Some(0),
        "shipped sources gate clean: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    let out = run(&streams.replace("slot.try_lock()", "slot.lock()"));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(
        out.status.code(),
        Some(1),
        "revert must fail the gate: {text}"
    );
    assert!(
        text.contains("reactor-no-blocking-call") && text.contains("take_updates"),
        "diagnostic names the revert: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
