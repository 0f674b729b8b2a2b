//! Committed correctness pins under `golden/`.
//!
//! Each workload run recomputes its pinned output and compares it with the
//! file compiled into the binary; any difference fails the run. After an
//! intended output change, `memsense-benchmark bless` rewrites the files.

use std::path::PathBuf;

use memsense_experiments::json::Json;

/// Golden file contents, by workload name.
pub fn expected(workload: &str) -> &'static str {
    match workload {
        "sim-corebound" => include_str!("../../../golden/sim-corebound.json"),
        "sim-membound" => include_str!("../../../golden/sim-membound.json"),
        "serve-hot" => include_str!("../../../golden/serve-hot.json"),
        "serve-cold" => include_str!("../../../golden/serve-cold.json"),
        _ => "null",
    }
}

/// Where `bless` writes a workload's golden file.
pub fn path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{workload}.json"))
}

/// Compares `actual` with the committed golden of `workload`.
///
/// # Errors
///
/// A one-line description of the first difference.
pub fn check(workload: &str, actual: &Json) -> Result<(), String> {
    let expected = Json::parse(expected(workload))
        .map_err(|e| format!("golden/{workload}.json is not valid JSON: {e}"))?;
    match first_difference(&expected, actual, "") {
        None => Ok(()),
        Some(diff) => Err(format!("golden/{workload}.json mismatch at {diff}")),
    }
}

/// Path and values of the first difference between two documents. Numbers
/// compare exactly: the serializer writes the shortest round-trip form.
pub fn first_difference(expected: &Json, actual: &Json, at: &str) -> Option<String> {
    match (expected, actual) {
        (Json::Obj(a), Json::Obj(b)) => {
            for (key, value) in a {
                let here = format!("{at}.{key}");
                match actual.get(key) {
                    None => return Some(format!("{here}: missing")),
                    Some(other) => {
                        if let Some(d) = first_difference(value, other, &here) {
                            return Some(d);
                        }
                    }
                }
            }
            b.iter()
                .find(|(key, _)| expected.get(key).is_none())
                .map(|(key, _)| format!("{at}.{key}: unexpected"))
        }
        (Json::Arr(a), Json::Arr(b)) => {
            if a.len() != b.len() {
                return Some(format!("{at}: length {} != {}", a.len(), b.len()));
            }
            a.iter()
                .zip(b)
                .enumerate()
                .find_map(|(i, (x, y))| first_difference(x, y, &format!("{at}[{i}]")))
        }
        (x, y) if x == y => None,
        (x, y) => Some(format!(
            "{at}: expected {} got {}",
            x.to_string(),
            y.to_string()
        )),
    }
}

/// FNV-1a, 64-bit: a stable content hash for pinned text outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A hash as the fixed-width hex string goldens store.
pub fn hex(hash: u64) -> String {
    format!("{hash:016x}")
}
