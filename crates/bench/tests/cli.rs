//! Exit codes of the `memsense-bench` binary on usage errors and unusable
//! baseline files. None of these cases may start a measurement.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_memsense-bench"))
        .args(args)
        .output()
        .expect("spawn memsense-bench")
}

#[test]
fn bad_invocations_exit_before_measuring() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("memsense-bench-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let old_schema = dir.join("old.json");
    std::fs::write(
        &old_schema,
        r#"{"schema": "memsense-sim-baseline/v1", "threads": 8, "repeats": 3,
            "stages": [{"name": "io_pressure", "wall_ms": 244.514}]}"#,
    )
    .unwrap();
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "not json").unwrap();
    let (old_schema, garbage) = (old_schema.to_str().unwrap(), garbage.to_str().unwrap());

    // (arguments, exit code, expected stderr fragment)
    let cases: &[(&[&str], i32, &str)] = &[
        (&[], 2, "missing command"),
        (&["bogus-baseline"], 2, "unknown command"),
        (&["sim-baseline", "--bogus"], 2, "unknown flag"),
        (&["sim-baseline", "--tolerance", "1"], 2, "unknown flag"),
        (&["serve-baseline", "--connections", "8"], 2, "unknown flag"),
        (&["serve-baseline", "--repeats", "2"], 2, "unknown flag"),
        (&["stream-baseline", "--profile"], 2, "unknown flag"),
        (&["sim-baseline", "--repeats", "0"], 2, "invalid --repeats"),
        (&["sim-baseline", "--out"], 2, "requires a value"),
        (&["sim-baseline", "--check", old_schema], 1, "schema"),
        (
            &["serve-baseline", "--check", garbage],
            1,
            "invalid baseline file",
        ),
        (
            &["stream-baseline", "--check", "/nonexistent/b.json"],
            1,
            "cannot read",
        ),
    ];
    for &(args, code, fragment) in cases {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(stderr.contains(fragment), "{args:?}: {stderr}");
        assert!(!stderr.contains("measuring"), "{args:?} measured: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}
