//! The rule set: each rule guards one repo invariant.
//!
//! | rule id | invariant |
//! |---|---|
//! | `no-unordered-output` | serialized output never iterates hash-ordered collections |
//! | `no-raw-float-format` | wire/CSV floats go through the canonical serializer |
//! | `no-panic-in-lib` | library code returns errors instead of panicking |
//! | `no-wallclock-in-deterministic` | deterministic paths never read wall clocks |
//! | `unsafe-needs-safety-comment` | every `unsafe` carries a `// SAFETY:` justification |
//! | `no-process-exit-in-lib` | only binaries decide process exit codes |
//! | `no-per-op-alloc` | sim hot-loop modules never allocate per op |
//! | `reactor-no-blocking-call` | nothing reachable from the epoll reactor blocks |
//! | `transitive-panic-in-lib` | public lib fns cannot reach a panic site |
//! | `nondeterminism-taint` | wallclock/RNG never flows into canonical JSON |
//!
//! The first seven rules are token-level and file-local by design: they see
//! declarations and uses within one file, which is exactly where the
//! regressions dynamic tests miss tend to appear (a new `HashMap` iterated
//! straight into a report, a stray `unwrap` on a request path). The last
//! three are interprocedural — they run over the workspace call graph
//! ([`crate::graph`]) and are implemented in [`crate::reach`]; this module
//! only registers them. Sites that are provably fine carry
//! `// memsense-lint: allow(rule-id)` with a one-line justification;
//! accepted debt lives in the `LINT_BASELINE.json` ratchet.

use std::collections::BTreeSet;

use crate::engine::{Role, SourceFile};
use crate::lexer::{num_is_float, TokKind};
use crate::report::Diagnostic;

/// Static description of one rule, consumed by `--list-rules`/`--explain`.
pub struct Rule {
    /// The stable diagnostic id.
    pub id: &'static str,
    /// One-line summary for `--list-rules`.
    pub summary: &'static str,
    /// The invariant the rule protects and why (for `--explain`).
    pub invariant: &'static str,
    /// How to fix a diagnostic (for `--explain`).
    pub fix: &'static str,
    /// Fixture stem: `tests/fixtures/bad_<stem>.rs` must fire the rule and
    /// `good_<stem>.rs` must stay quiet (enforced by the registry coverage
    /// test, so a rule cannot land undocumented or untested).
    pub fixture: &'static str,
    /// The workspace-relative path the fixture is linted under (rules scope
    /// themselves by path).
    pub fixture_rel: &'static str,
}

/// Every rule, in the order reports list them.
pub const RULES: &[Rule] = &[
    Rule {
        id: "no-unordered-output",
        summary: "HashMap/HashSet iteration in crates that feed serialized output",
        invariant: "Repro outputs, serve responses, and sim counter reports are \
                    byte-identical across runs and thread counts. HashMap/HashSet \
                    iteration order is randomized per process, so iterating one on \
                    an output path silently breaks that guarantee. Scope: library \
                    code in crates/model, crates/experiments, crates/serve, and \
                    crates/sim.",
        fix: "Use BTreeMap/BTreeSet, or collect and sort before emitting. If the \
              iteration provably cannot reach serialized output, annotate the line \
              with `// memsense-lint: allow(no-unordered-output)` and say why.",
        fixture: "unordered",
        fixture_rel: "crates/serve/src/fake.rs",
    },
    Rule {
        id: "no-raw-float-format",
        summary: "format!/write! with {} or {:?} on f64 expressions in wire/CSV paths",
        invariant: "The wire format canonicalizes floats (shortest round-trip, \
                    -0.0 collapsed, no NaN/inf tokens) via \
                    memsense_experiments::json::fmt_f64. Formatting an f64 with \
                    bare {} or {:?} bypasses that policy and can leak NaN, inf, or \
                    -0.0 into documents keyed byte-for-byte. Scope: library code \
                    in crates/serve and crates/experiments.",
        fix: "Route the value through json::fmt_f64 (or Json::num), or give an \
              explicit deterministic precision such as {:.3}. Annotate the \
              canonical serializer itself with \
              `// memsense-lint: allow(no-raw-float-format)`.",
        fixture: "float_format",
        fixture_rel: "crates/serve/src/fake.rs",
    },
    Rule {
        id: "no-panic-in-lib",
        summary: "unwrap/expect/panic!/unreachable! in library code",
        invariant: "Library crates are consumed by the serve daemon, which must \
                    degrade to an error response rather than kill a worker thread. \
                    A panic in library code is an availability bug, and panic \
                    paths are exactly the ones dynamic tests rarely exercise. \
                    Tests, benches, binaries, and examples are exempt.",
        fix: "Return a Result, or restructure with if-let / let-else so the \
              invariant is checked by construction. For provably infallible sites \
              (validated constants, mutex poisoning), annotate with \
              `// memsense-lint: allow(no-panic-in-lib)` plus a justification.",
        fixture: "panic",
        fixture_rel: "crates/model/src/fake.rs",
    },
    Rule {
        id: "no-wallclock-in-deterministic",
        summary: "SystemTime::now/Instant::now outside the telemetry allowlist",
        invariant: "Model and sim results are pure functions of their inputs; the \
                    determinism CI gate diffs byte-identical outputs across thread \
                    counts. A wall-clock read on a compute path makes output \
                    timing-dependent. Executor job telemetry \
                    (crates/experiments/src/executor.rs) and the serve crate's \
                    request metrics are the deliberate exceptions.",
        fix: "Thread timing through the executor's job telemetry instead of \
              reading clocks inline, or annotate a deliberate telemetry site with \
              `// memsense-lint: allow(no-wallclock-in-deterministic)`.",
        fixture: "wallclock",
        fixture_rel: "crates/sim/src/fake.rs",
    },
    Rule {
        id: "unsafe-needs-safety-comment",
        summary: "unsafe block or fn without a preceding // SAFETY: comment",
        invariant: "Every workspace crate currently carries \
                    #![forbid(unsafe_code)]. If unsafe is ever introduced, the \
                    proof obligation must be written down where the compiler \
                    stops checking: a // SAFETY: comment immediately above the \
                    unsafe site.",
        fix: "Add `// SAFETY: <why the invariants hold>` on the line(s) directly \
              above the unsafe block or fn.",
        fixture: "unsafe",
        fixture_rel: "crates/model/src/fake.rs",
    },
    Rule {
        id: "no-process-exit-in-lib",
        summary: "process::exit/abort in library code",
        invariant: "Exit codes are an interface owned by the binaries (0 clean, \
                    1 diagnostics/failure, 2 usage or configuration error — the \
                    MEMSENSE_THREADS convention). Library code calling \
                    process::exit skips destructors and takes that decision away \
                    from the caller.",
        fix: "Return an error and let the binary map it to an exit code. The \
              documented MEMSENSE_THREADS diagnostic site is annotated with \
              `// memsense-lint: allow(no-process-exit-in-lib)`.",
        fixture: "exit",
        fixture_rel: "crates/model/src/fake.rs",
    },
    Rule {
        id: "no-per-op-alloc",
        summary: "Vec::new/vec![] in simulator hot-loop modules",
        invariant: "The sim's per-op pipeline (`fill_block` stream \
                    generators feeding the engine's per-op TLB/cache loop, \
                    prefetcher, memory controller) runs millions of times \
                    per experiment; the second-2x perf work made those paths \
                    allocation-free via reused scratch buffers. A fresh \
                    `Vec::new()` or `vec![…]` in one of those modules \
                    multiplies across every simulated op. Scope: the hot sim \
                    modules (engine, cache, tlb, trace, prefetch, mem).",
        fix: "Reuse a caller-owned scratch buffer (`clear()` + refill, as \
              `on_miss_into`/`fill_block` do) or pre-size once with \
              `Vec::with_capacity`. One-time construction and other cold \
              paths annotate with \
              `// memsense-lint: allow(no-per-op-alloc)` plus a justification.",
        fixture: "per_op_alloc",
        fixture_rel: "crates/sim/src/engine.rs",
    },
    Rule {
        id: "reactor-no-blocking-call",
        summary: "blocking calls (Mutex::lock, join, recv, blocking I/O, model solves) reachable from the epoll reactor",
        invariant: "The serve daemon's event loop (Reactor::run) is a single \
                    thread multiplexing every connection; one blocking call \
                    freezes them all at once (the PR 8 take_updates bug). This \
                    rule walks the workspace call graph from Reactor::run and \
                    flags every reachable call to Mutex::lock, thread joins, \
                    channel recv, Condvar waits, blocking reads/writes, \
                    thread::sleep, and direct model solves. Method resolution is \
                    name-based and over-approximate: a `.lock()` on any receiver \
                    counts, because the receiver's type is unknown.",
        fix: "Use the try_lock busy-retry discipline (return Busy / retry on \
              contention, as StreamRegistry::take_updates does), or hand the \
              work to the worker pool. Sites that are provably bounded or \
              deliberate (the epoll wait itself, shutdown teardown joins) carry \
              `// memsense-lint: allow(reactor-no-blocking-call)` with the \
              reachability justification.",
        fixture: "reactor_blocking",
        fixture_rel: "crates/serve/src/server.rs",
    },
    Rule {
        id: "transitive-panic-in-lib",
        summary: "public lib fns whose call graph reaches an unannotated unwrap/expect/panic!",
        invariant: "no-panic-in-lib sees a panic only in the file that contains \
                    it; a public library fn three calls above it still hands its \
                    callers an availability bug. This rule walks the call graph \
                    from every public lib fn and flags the ones that can reach a \
                    panic site that carries no allow-justification, naming the \
                    chain. Annotated panic sites (poisoned-mutex expects and \
                    friends) are accepted for every caller — the justification \
                    is written where the panic lives.",
        fix: "Return a Result along the chain, or justify the panic site itself \
              with `// memsense-lint: allow(no-panic-in-lib)`. A public fn whose \
              whole chain is deliberate can carry \
              `// memsense-lint: allow(transitive-panic-in-lib)`.",
        fixture: "transitive_panic",
        fixture_rel: "crates/model/src/fake.rs",
    },
    Rule {
        id: "nondeterminism-taint",
        summary: "wallclock/RNG sources in fns that can reach a canonical-JSON serializer",
        invariant: "Canonical JSON documents are byte-compared: golden tests, \
                    the result cache's content addressing, and the determinism \
                    CI gate all diff them. A fn that reads Instant::now, \
                    SystemTime::now, or an entropy source *and* can reach \
                    Json::canonical/to_string_pretty can leak timing or \
                    randomness into those documents. Unlike the per-file \
                    wallclock rule, this one has no path allowlist — it follows \
                    the call graph to the serializer and only fires when source \
                    and sink actually meet.",
        fix: "Keep timing in telemetry-only structs that never serialize \
              canonically, or split the fn so the clock read cannot flow into \
              the serialized value. Deliberate telemetry documents (metrics \
              bodies, bench tables) carry \
              `// memsense-lint: allow(nondeterminism-taint)` or a justified \
              LINT_BASELINE.json entry.",
        fixture: "nondet_taint",
        fixture_rel: "crates/serve/src/fake.rs",
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Path prefixes whose library code feeds serialized output (tables, CSV,
/// wire JSON, sim counter reports).
const OUTPUT_SCOPES: &[&str] = &[
    "crates/model/src/",
    "crates/experiments/src/",
    "crates/serve/src/",
    "crates/sim/src/",
    "crates/plan/src/",
    "crates/stream/src/",
];

/// Path prefixes that assemble wire or CSV text directly.
const WIRE_SCOPES: &[&str] = &[
    "crates/serve/src/",
    "crates/experiments/src/",
    "crates/plan/src/",
    "crates/stream/src/",
];

/// Simulator hot-loop modules: library code here runs once per simulated
/// op, access, or miss, so a per-call allocation multiplies across millions
/// of ops per run.
const SIM_HOT_SCOPES: &[&str] = &[
    "crates/sim/src/engine.rs",
    "crates/sim/src/cache.rs",
    "crates/sim/src/tlb.rs",
    "crates/sim/src/trace.rs",
    "crates/sim/src/prefetch.rs",
    "crates/sim/src/mem.rs",
];

/// Files and prefixes allowed to read wall clocks: executor job telemetry
/// and the serve daemon's request metrics/benchmarking.
const WALLCLOCK_ALLOW: &[&str] = &["crates/experiments/src/executor.rs", "crates/serve/src/"];

fn in_scope(rel: &str, scopes: &[&str]) -> bool {
    scopes.iter().any(|s| rel == *s || rel.starts_with(s))
}

/// Runs every applicable rule over `file`, returning unsuppressed
/// diagnostics in source order.
pub fn check_file(file: &SourceFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if file.role == Role::Lib {
        no_panic_in_lib(file, &mut diags);
        no_process_exit_in_lib(file, &mut diags);
        if !in_scope(&file.rel, WALLCLOCK_ALLOW) {
            no_wallclock_in_deterministic(file, &mut diags);
        }
        if in_scope(&file.rel, OUTPUT_SCOPES) {
            no_unordered_output(file, &mut diags);
        }
        if in_scope(&file.rel, WIRE_SCOPES) {
            no_raw_float_format(file, &mut diags);
        }
        if in_scope(&file.rel, SIM_HOT_SCOPES) {
            no_per_op_alloc(file, &mut diags);
        }
    }
    unsafe_needs_safety_comment(file, &mut diags);
    diags.retain(|d| !file.is_allowed(d.rule, d.line));
    diags.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    diags
}

fn push(diags: &mut Vec<Diagnostic>, file: &SourceFile, i: usize, rule: &'static str, msg: String) {
    let tok = file.code[i];
    diags.push(Diagnostic {
        file: file.rel.clone(),
        line: tok.line,
        col: tok.col,
        rule,
        symbol: String::new(), // filled from the syntax layer by the caller
        message: msg,
    });
}

fn no_panic_in_lib(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    const RULE: &str = "no-panic-in-lib";
    for i in 0..file.code.len() {
        if file.code[i].kind != TokKind::Ident || file.in_test_item(i) {
            continue;
        }
        match file.txt(i) {
            m @ ("unwrap" | "expect")
                if i > 0 && file.punct_is(i - 1, '.') && file.punct_is(i + 1, '(') =>
            {
                push(
                    diags,
                    file,
                    i,
                    RULE,
                    format!("`.{m}()` can panic in library code; return a Result or restructure"),
                );
            }
            m @ ("panic" | "unreachable" | "todo" | "unimplemented")
                if file.punct_is(i + 1, '!') =>
            {
                push(
                    diags,
                    file,
                    i,
                    RULE,
                    format!("`{m}!` in library code; return an error instead"),
                );
            }
            _ => {}
        }
    }
}

fn no_process_exit_in_lib(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    for i in 3..file.code.len() {
        if file.in_test_item(i) {
            continue;
        }
        let name = match file.code[i].kind {
            TokKind::Ident => file.txt(i),
            _ => continue,
        };
        if matches!(name, "exit" | "abort")
            && file.punct_is(i - 1, ':')
            && file.punct_is(i - 2, ':')
            && file.ident_is(i - 3, "process")
        {
            push(
                diags,
                file,
                i - 3,
                "no-process-exit-in-lib",
                format!("`process::{name}` in library code; return an error and let the binary choose the exit code"),
            );
        }
    }
}

fn no_wallclock_in_deterministic(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    for i in 3..file.code.len() {
        if file.in_test_item(i) || !file.ident_is(i, "now") {
            continue;
        }
        if file.punct_is(i - 1, ':') && file.punct_is(i - 2, ':') {
            for clock in ["Instant", "SystemTime"] {
                if file.ident_is(i - 3, clock) {
                    push(
                        diags,
                        file,
                        i - 3,
                        "no-wallclock-in-deterministic",
                        format!("`{clock}::now()` on a deterministic path; route timing through executor telemetry"),
                    );
                }
            }
        }
    }
}

fn unsafe_needs_safety_comment(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    for i in 0..file.code.len() {
        if !file.ident_is(i, "unsafe") {
            continue;
        }
        let tok = file.code[i];
        let justified = file.toks.iter().any(|c| {
            c.is_comment()
                && c.text(&file.src).contains("SAFETY:")
                && c.start < tok.start
                && c.end_line(&file.src) + 3 >= tok.line
        });
        if !justified {
            push(
                diags,
                file,
                i,
                "unsafe-needs-safety-comment",
                "`unsafe` without a `// SAFETY:` comment on the preceding lines".to_string(),
            );
        }
    }
}

fn no_per_op_alloc(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    const RULE: &str = "no-per-op-alloc";
    for i in 0..file.code.len() {
        if file.code[i].kind != TokKind::Ident || file.in_test_item(i) {
            continue;
        }
        match file.txt(i) {
            "Vec"
                if file.punct_is(i + 1, ':')
                    && file.punct_is(i + 2, ':')
                    && file.ident_is(i + 3, "new")
                    && file.punct_is(i + 4, '(') =>
            {
                push(
                    diags,
                    file,
                    i,
                    RULE,
                    "`Vec::new()` in a sim hot-loop module; reuse a scratch buffer or pre-size with Vec::with_capacity".to_string(),
                );
            }
            "vec" if file.punct_is(i + 1, '!') => {
                push(
                    diags,
                    file,
                    i,
                    RULE,
                    "`vec![…]` in a sim hot-loop module; reuse a scratch buffer or pre-size with Vec::with_capacity".to_string(),
                );
            }
            _ => {}
        }
    }
}

/// Hash-collection iteration methods whose order is nondeterministic.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// Names bound (file-locally) to a `HashMap`/`HashSet`: struct fields,
/// `let`/parameter annotations (`name: HashMap<…>`, `name: &mut HashSet<…>`),
/// and `let name = HashMap::new()` initializers.
/// Names declared with a `HashMap`/`HashSet` type or initializer, minus any
/// name *also* declared as a `BTreeMap`/`BTreeSet` elsewhere in the file.
/// Tracking is name-based and file-local, so a name bound to both families
/// (say, a `counts` parameter in two different functions) is ambiguous — the
/// rule skips it rather than flag ordered iteration, preferring a false
/// negative over blocking CI on a false positive.
fn hash_collection_names(file: &SourceFile) -> BTreeSet<String> {
    let hash = collection_names(file, &["HashMap", "HashSet"]);
    let btree = collection_names(file, &["BTreeMap", "BTreeSet"]);
    hash.difference(&btree).cloned().collect()
}

fn collection_names(file: &SourceFile, types: &[&str]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..file.code.len() {
        if file.code[i].kind != TokKind::Ident || !types.contains(&file.txt(i)) {
            continue;
        }
        // Walk back over a `std :: collections ::`-style path prefix.
        let mut j = i;
        while j >= 3
            && file.punct_is(j - 1, ':')
            && file.punct_is(j - 2, ':')
            && file.code[j - 3].kind == TokKind::Ident
        {
            j -= 3;
        }
        if j == 0 {
            continue;
        }
        // `name : [& mut] HashMap<…>` — field, param, or annotated let.
        let mut k = j - 1;
        while k > 0 && (file.punct_is(k, '&') || file.ident_is(k, "mut")) {
            k -= 1;
        }
        if file.punct_is(k, ':')
            && k >= 1
            && !file.punct_is(k - 1, ':')
            && file.code[k - 1].kind == TokKind::Ident
        {
            names.insert(file.txt(k - 1).to_string());
            continue;
        }
        // `let [mut] name = HashMap::new()`.
        if file.punct_is(j - 1, '=') && j >= 2 && file.code[j - 2].kind == TokKind::Ident {
            names.insert(file.txt(j - 2).to_string());
        }
    }
    names
}

fn no_unordered_output(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    const RULE: &str = "no-unordered-output";
    let names = hash_collection_names(file);
    if names.is_empty() {
        return;
    }
    for i in 0..file.code.len() {
        if file.in_test_item(i) || file.code[i].kind != TokKind::Ident {
            continue;
        }
        let name = file.txt(i);
        // `name.iter()` / `name.keys()` / … method iteration.
        if names.contains(name)
            && file.punct_is(i + 1, '.')
            && file
                .code
                .get(i + 2)
                .is_some_and(|t| t.kind == TokKind::Ident)
            && ITER_METHODS.contains(&file.txt(i + 2))
            && file.punct_is(i + 3, '(')
        {
            let method = file.txt(i + 2).to_string();
            push(
                diags,
                file,
                i,
                RULE,
                format!("`{name}.{method}()` iterates a hash-ordered collection on an output-feeding path; use BTreeMap/BTreeSet or sort first"),
            );
            continue;
        }
        // `for pat in <expr containing a hash collection> {`.
        if name == "for" {
            let Some(in_pos) =
                (i + 1..file.code.len().min(i + 24)).find(|&j| file.ident_is(j, "in"))
            else {
                continue;
            };
            let mut depth = 0i64;
            for j in in_pos + 1..file.code.len().min(in_pos + 48) {
                let t = file.code[j];
                if t.kind == TokKind::Punct {
                    match file.src.as_bytes()[t.start] {
                        b'{' if depth == 0 => break,
                        b'(' | b'[' | b'{' => depth += 1,
                        b')' | b']' | b'}' => depth -= 1,
                        _ => {}
                    }
                } else if t.kind == TokKind::Ident && names.contains(file.txt(j)) {
                    let hash_name = file.txt(j).to_string();
                    push(
                        diags,
                        file,
                        j,
                        RULE,
                        format!("`for … in` over hash-ordered `{hash_name}` on an output-feeding path; use BTreeMap/BTreeSet or sort first"),
                    );
                    break;
                }
            }
        }
    }
}

/// Names bound (file-locally) to `f64`/`f32` values: `name: f64` fields,
/// params, and lets, plus `let name = <float literal>`.
fn float_names(file: &SourceFile) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..file.code.len() {
        if file.code[i].kind == TokKind::Ident && matches!(file.txt(i), "f64" | "f32") && i >= 2 {
            let mut k = i - 1;
            while k > 0 && (file.punct_is(k, '&') || file.ident_is(k, "mut")) {
                k -= 1;
            }
            if file.punct_is(k, ':')
                && k >= 1
                && !file.punct_is(k - 1, ':')
                && file.code[k - 1].kind == TokKind::Ident
            {
                names.insert(file.txt(k - 1).to_string());
            }
        }
        if file.ident_is(i, "let") {
            // `let [mut] name = <float literal>`.
            let mut k = i + 1;
            if file.ident_is(k, "mut") {
                k += 1;
            }
            if file.code.get(k).is_some_and(|t| t.kind == TokKind::Ident)
                && file.punct_is(k + 1, '=')
                && file
                    .code
                    .get(k + 2)
                    .is_some_and(|t| t.kind == TokKind::NumLit)
                && num_is_float(file.txt(k + 2))
            {
                names.insert(file.txt(k).to_string());
            }
        }
    }
    names
}

/// Format-string macros whose output can reach the wire or CSV files.
const FORMAT_MACROS: &[&str] = &[
    "format",
    "format_args",
    "write",
    "writeln",
    "print",
    "println",
    "eprint",
    "eprintln",
];

/// One `{…}` placeholder: optional argument name (or explicit position) and
/// its format spec (the part after `:`).
struct Placeholder {
    name: Option<String>,
    position: Option<usize>,
    spec: String,
}

/// Parses placeholders out of a format string's unquoted content.
fn parse_placeholders(content: &str) -> Vec<Placeholder> {
    let mut out = Vec::new();
    let mut chars = content.chars().peekable();
    let mut implicit = 0usize;
    while let Some(c) = chars.next() {
        match c {
            '{' if chars.peek() == Some(&'{') => {
                chars.next();
            }
            '}' if chars.peek() == Some(&'}') => {
                chars.next();
            }
            '{' => {
                let mut inner = String::new();
                for c in chars.by_ref() {
                    if c == '}' {
                        break;
                    }
                    inner.push(c);
                }
                let (who, spec) = match inner.split_once(':') {
                    Some((w, s)) => (w, s.to_string()),
                    None => (inner.as_str(), String::new()),
                };
                let (name, position) = if who.is_empty() {
                    let p = implicit;
                    implicit += 1;
                    (None, Some(p))
                } else if let Ok(idx) = who.parse::<usize>() {
                    (None, Some(idx))
                } else {
                    (Some(who.to_string()), None)
                };
                out.push(Placeholder {
                    name,
                    position,
                    spec,
                });
            }
            _ => {}
        }
    }
    out
}

/// The unquoted content of a string-literal token's text.
fn str_content(text: &str) -> &str {
    let open = match text.find('"') {
        Some(i) => i,
        None => return text,
    };
    let close = match text.rfind('"') {
        Some(i) if i > open => i,
        _ => return text,
    };
    &text[open + 1..close]
}

/// Whether the code tokens in `range` form a float-valued expression the
/// scanner can prove: a float literal, an `as f64`/`as f32` cast, or a lone
/// identifier with a file-local `f64`/`f32` binding.
fn float_ish(file: &SourceFile, range: core::ops::Range<usize>, floats: &BTreeSet<String>) -> bool {
    if range.len() == 1 {
        let t = file.code[range.start];
        if t.kind == TokKind::Ident && floats.contains(file.txt(range.start)) {
            return true;
        }
    }
    for i in range.clone() {
        let t = file.code[i];
        if t.kind == TokKind::NumLit && num_is_float(file.txt(i)) {
            return true;
        }
        if t.kind == TokKind::Ident
            && file.txt(i) == "as"
            && file
                .code
                .get(i + 1)
                .is_some_and(|n| matches!(n.text(&file.src), "f64" | "f32"))
        {
            return true;
        }
    }
    false
}

fn no_raw_float_format(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    const RULE: &str = "no-raw-float-format";
    let floats = float_names(file);
    for i in 0..file.code.len() {
        if file.in_test_item(i)
            || file.code[i].kind != TokKind::Ident
            || !FORMAT_MACROS.contains(&file.txt(i))
            || !file.punct_is(i + 1, '!')
            || !(file.punct_is(i + 2, '(')
                || file.punct_is(i + 2, '[')
                || file.punct_is(i + 2, '{'))
        {
            continue;
        }
        let Some(close) = file.matching_bracket(i + 2) else {
            continue;
        };
        // Split the macro body at top-level commas.
        let mut args: Vec<core::ops::Range<usize>> = Vec::new();
        let mut depth = 0i64;
        let mut arg_start = i + 3;
        for j in i + 3..close {
            let t = file.code[j];
            if t.kind != TokKind::Punct {
                continue;
            }
            match file.src.as_bytes()[t.start] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b',' if depth == 0 => {
                    args.push(arg_start..j);
                    arg_start = j + 1;
                }
                _ => {}
            }
        }
        if arg_start < close {
            args.push(arg_start..close);
        }
        // The format string: the first argument that is a lone string literal.
        let Some(fmt_idx) = args.iter().position(|r| {
            r.len() == 1
                && matches!(
                    file.code[r.start].kind,
                    TokKind::StrLit | TokKind::RawStrLit
                )
        }) else {
            continue;
        };
        let fmt_tok_idx = args[fmt_idx].start;
        let content = str_content(file.code[fmt_tok_idx].text(&file.src));
        // Positional and named value arguments after the format string.
        let value_args = &args[fmt_idx + 1..];
        let named = |name: &str| -> Option<core::ops::Range<usize>> {
            value_args
                .iter()
                .find(|r| {
                    r.len() >= 3
                        && file.ident_is(r.start, name)
                        && file.punct_is(r.start + 1, '=')
                        && !file.punct_is(r.start + 2, '=')
                })
                .map(|r| r.start + 2..r.end)
        };
        let positional: Vec<&core::ops::Range<usize>> = value_args
            .iter()
            .filter(|r| {
                !(r.len() >= 3
                    && file.punct_is(r.start + 1, '=')
                    && !file.punct_is(r.start + 2, '='))
            })
            .collect();
        for ph in parse_placeholders(content) {
            if !matches!(ph.spec.as_str(), "" | "?" | "#?") {
                continue; // explicit width/precision/format is deterministic
            }
            let fired = match (&ph.name, ph.position) {
                (Some(name), _) => match named(name) {
                    Some(range) => float_ish(file, range, &floats),
                    None => floats.contains(name), // inline capture `{name}`
                },
                (None, Some(idx)) => positional
                    .get(idx)
                    .is_some_and(|r| float_ish(file, (*r).clone(), &floats)),
                (None, None) => false,
            };
            if fired {
                let what = ph.name.as_deref().unwrap_or("argument");
                push(
                    diags,
                    file,
                    fmt_tok_idx,
                    RULE,
                    format!("float `{what}` formatted with bare `{{}}`/`{{:?}}` on a wire/CSV path; use json::fmt_f64 or an explicit precision"),
                );
                break; // one diagnostic per macro call is enough
            }
        }
    }
}
