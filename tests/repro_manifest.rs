//! Byte-identical output, as a test: `repro all`'s stdout and every file it
//! writes under `target/repro/` must match a committed manifest.
//!
//! The manifest (`tests/fixtures/repro_all.manifest`) has one line per
//! output: its byte count, its 64-bit FNV-1a hash in hex, and its name
//! (`<stdout>` for standard output, otherwise the file name). The run report
//! (`run_report.json`) holds wall-clock times and is never pinned; `repro
//! all` without `--report` does not write it anyway.
//!
//! The child inherits `MEMSENSE_THREADS`, so the same manifest is checked at
//! any thread count: `MEMSENSE_THREADS=8 cargo test --test repro_manifest`.
//!
//! The hashes pin this platform's `libm` as well as the code. Generated ops
//! go through `f64::sin` (the phase modulation in
//! `crates/workloads/src/mix.rs`) and `powf` (the Zipf sampler in
//! `crates/workloads/src/patterns.rs`); another `libm` may round their last
//! bits differently, and every simulated output downstream then moves.
//!
//! Regenerate the manifest after an intended output change with
//! `MEMSENSE_REGEN_FIXTURES=1 cargo test --test repro_manifest`, and say in
//! the change which outputs moved and why.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn manifest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/repro_all.manifest")
}

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn entry(bytes: &[u8]) -> String {
    format!("{} {:016x}", bytes.len(), fnv1a64(bytes))
}

/// Parses manifest text into name → "bytes hash".
fn parse(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|line| {
            let mut parts = line.splitn(3, ' ');
            let (len, hash, name) = (parts.next()?, parts.next()?, parts.next()?);
            Some((name.to_string(), format!("{len} {hash}")))
        })
        .collect()
}

fn render(entries: &BTreeMap<String, String>) -> String {
    entries
        .iter()
        .map(|(name, e)| format!("{e} {name}\n"))
        .collect()
}

/// Runs `repro all` in a fresh directory and returns its manifest entries.
fn run_repro_all(work: &Path) -> BTreeMap<String, String> {
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work).expect("create work dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("all")
        .current_dir(work)
        .output()
        .expect("repro binary runs");
    assert!(
        out.status.success(),
        "repro all failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut entries = BTreeMap::new();
    entries.insert("<stdout>".to_string(), entry(&out.stdout));
    let dir = work.join("target/repro");
    for file in std::fs::read_dir(&dir).expect("repro wrote target/repro") {
        let path = file.expect("readable dir entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("UTF-8 file name")
            .to_string();
        if name == "run_report.json" {
            continue;
        }
        let bytes = std::fs::read(&path).expect("readable output");
        entries.insert(name, entry(&bytes));
    }
    entries
}

#[test]
fn fnv1a64_matches_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
}

#[test]
fn repro_all_matches_the_committed_manifest() {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("repro_manifest");
    let actual = run_repro_all(&work);
    if std::env::var_os("MEMSENSE_REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(manifest_path().parent().expect("fixture dir"))
            .expect("create fixtures dir");
        std::fs::write(manifest_path(), render(&actual)).expect("write manifest");
    }
    let committed =
        parse(&std::fs::read_to_string(manifest_path()).expect("committed repro_all.manifest"));
    let mut differing = Vec::new();
    for (name, want) in &committed {
        match actual.get(name) {
            None => differing.push(format!("{name}: missing (manifest {want})")),
            Some(got) if got != want => {
                differing.push(format!("{name}: now {got}, manifest {want}"))
            }
            Some(_) => {}
        }
    }
    for (name, got) in &actual {
        if !committed.contains_key(name) {
            differing.push(format!("{name}: not in the manifest (now {got})"));
        }
    }
    assert!(
        differing.is_empty(),
        "{} of {} outputs differ from the committed manifest (regenerate with \
         MEMSENSE_REGEN_FIXTURES=1 only for an intended change):\n  {}",
        differing.len(),
        committed.len().max(actual.len()),
        differing.join("\n  ")
    );
}
