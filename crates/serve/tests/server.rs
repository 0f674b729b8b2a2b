//! End-to-end tests: a real server on a loopback port, driven over TCP.
//!
//! The load-bearing guarantees: responses match direct library calls
//! bit-for-bit, cache hits return byte-identical bodies, sweep responses
//! carry enough precision to reconstruct the repro CLI's CSV output
//! byte-for-byte, and malformed input maps to 4xx JSON errors.

use std::time::Duration;

use memsense_experiments::figures::fig8_table;
use memsense_experiments::json::Json;
use memsense_experiments::render::{f, pct, Table};
use memsense_model::queueing::QueueingCurve;
use memsense_model::sensitivity::equivalence;
use memsense_model::solver::solve_cpi;
use memsense_model::system::SystemConfig;
use memsense_model::workload::WorkloadParams;
use memsense_serve::bench::{self, BenchConfig};
use memsense_serve::cache::ENTRY_OVERHEAD;
use memsense_serve::http::Client;
use memsense_serve::server::{Server, ServerConfig};

fn start() -> Server {
    Server::start(&ServerConfig::default()).expect("bind loopback")
}

fn call(server: &Server, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut client = Client::connect(server.addr()).expect("connect");
    client.request(method, path, body).expect("request")
}

/// Parses a response body, asserting it is valid JSON.
fn parsed(body: &str) -> Json {
    Json::parse(body).unwrap_or_else(|e| panic!("response is not valid JSON ({e}): {body}"))
}

#[test]
fn healthz_metrics_and_error_routes() {
    let mut server = start();

    let (status, body) = call(&server, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"status":"ok"}"#);

    // Unknown route: 404 with a JSON error body.
    let (status, body) = call(&server, "GET", "/no/such/route", "");
    assert_eq!(status, 404);
    assert!(parsed(&body).get("error").is_some(), "{body}");

    // Wrong method on a known route: 405 with a JSON error body.
    let (status, body) = call(&server, "POST", "/healthz", "{}");
    assert_eq!(status, 405);
    assert!(parsed(&body).get("error").is_some(), "{body}");
    let (status, _) = call(&server, "GET", "/v1/solve", "");
    assert_eq!(status, 405);

    // Malformed JSON: 400 with a JSON error body naming the problem.
    let (status, body) = call(&server, "POST", "/v1/solve", "{not json");
    assert_eq!(status, 400);
    let error = parsed(&body);
    assert!(
        error
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("invalid JSON"),
        "{body}"
    );

    // Unknown field: 400, so typos cannot silently fall back to defaults.
    let (status, _) = call(&server, "POST", "/v1/solve", r#"{"workloud": "hpc"}"#);
    assert_eq!(status, 400);

    // /metrics reflects what just happened.
    let (status, body) = call(&server, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let metrics = parsed(&body);
    assert!(
        metrics
            .get("requests_total")
            .and_then(Json::as_u64)
            .unwrap()
            >= 5
    );
    assert!(metrics.get("cache").is_some());

    server.stop();
    server.join();
}

#[test]
fn solve_round_trip_matches_library_bit_for_bit() {
    let mut server = start();
    let (status, body) = call(
        &server,
        "POST",
        "/v1/solve",
        r#"{"workload": "enterprise"}"#,
    );
    assert_eq!(status, 200);
    let response = parsed(&body);

    let direct = solve_cpi(
        &WorkloadParams::enterprise_class(),
        &SystemConfig::paper_baseline(),
        &QueueingCurve::composite_default(),
    )
    .unwrap();
    let solved = response.get("solved").unwrap();
    // f64s survive the wire exactly: the canonical formatter emits the
    // shortest decimal that round-trips to the same bits.
    assert_eq!(
        solved
            .get("cpi_eff")
            .and_then(Json::as_f64)
            .unwrap()
            .to_bits(),
        direct.cpi_eff.to_bits()
    );
    assert_eq!(
        solved
            .get("utilization")
            .and_then(Json::as_f64)
            .unwrap()
            .to_bits(),
        direct.utilization.to_bits()
    );
    assert_eq!(
        solved.get("regime").and_then(Json::as_str),
        Some(direct.regime.token())
    );
    server.stop();
    server.join();
}

#[test]
fn equivalence_round_trip_matches_library() {
    let mut server = start();
    let (status, body) = call(&server, "POST", "/v1/equivalence", "{}");
    assert_eq!(status, 200);
    let rows = parsed(&body);
    let rows = rows.get("workloads").and_then(Json::as_arr).unwrap();
    let classes = WorkloadParams::all_classes();
    assert_eq!(rows.len(), classes.len());
    for (row, class) in rows.iter().zip(&classes) {
        let direct = equivalence(
            class,
            &SystemConfig::paper_baseline(),
            &QueueingCurve::composite_default(),
        )
        .unwrap();
        assert_eq!(
            row.get("workload").and_then(Json::as_str),
            Some(class.name.as_str())
        );
        assert_eq!(
            row.get("benefit_of_latency_pct")
                .and_then(Json::as_f64)
                .unwrap()
                .to_bits(),
            direct.benefit_of_latency_pct.to_bits()
        );
    }
    server.stop();
    server.join();
}

#[test]
fn cache_hit_is_byte_identical_and_ignores_formatting() {
    let mut server = start();
    let first = r#"{"workloads": ["big data"], "steps_ns": [0, 10, 20]}"#;
    // Same request, different key order, whitespace, and float spelling
    // (-0.0 vs 0): must hit the same cache entry.
    let second = r#"{ "steps_ns": [ -0.0, 10.0, 2e1 ], "workloads": ["big data"] }"#;

    let (status, body_a) = call(&server, "POST", "/v1/sweep/latency", first);
    assert_eq!(status, 200);
    let (status, body_b) = call(&server, "POST", "/v1/sweep/latency", second);
    assert_eq!(status, 200);
    assert_eq!(body_a, body_b, "cache hit must be byte-identical");

    let (_, metrics) = call(&server, "GET", "/metrics", "");
    let metrics = parsed(&metrics);
    let cache = metrics.get("cache").unwrap();
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("entries").and_then(Json::as_u64), Some(1));

    server.stop();
    server.join();
}

#[test]
fn repeated_raw_requests_hit_through_charged_aliases() {
    let mut server = start();
    let path = "/v1/sweep/latency";
    let first = r#"{"workloads": ["big data"], "steps_ns": [0, 10, 20]}"#;
    let second = r#"{ "steps_ns": [ -0.0, 10.0, 2e1 ], "workloads": ["big data"] }"#;

    // The first request misses; every later one hits, the second spelling's
    // first request through the canonical key, repeats through their alias.
    let (_, reference) = call(&server, "POST", path, first);
    for body in [first, first, second, second] {
        let (status, response) = call(&server, "POST", path, body);
        assert_eq!(status, 200);
        assert_eq!(response, reference, "a hit must be byte-identical");
    }

    let (_, metrics) = call(&server, "GET", "/metrics", "");
    let cache = parsed(&metrics).get("cache").unwrap().clone();
    let count = |key: &str| cache.get(key).and_then(Json::as_u64).unwrap();
    assert_eq!(
        (count("hits"), count("misses"), count("entries")),
        (4, 1, 1)
    );
    // One entry plus one alias per raw spelling, each charged like an entry.
    let key = format!("POST {path}#{}", parsed(first).canonical());
    let alias = |body: &str| key.len() + format!("POST {path}\n{body}").len() + ENTRY_OVERHEAD;
    let entry = key.len() + reference.len() + ENTRY_OVERHEAD;
    assert_eq!(
        count("bytes"),
        (entry + alias(first) + alias(second)) as u64
    );

    server.stop();
    server.join();
}

#[test]
fn small_cache_budget_evicts_lru_and_keeps_bodies_byte_identical() {
    let bodies = [
        r#"{"workloads": ["big data"]}"#,
        r#"{"workloads": ["enterprise"]}"#,
        r#"{"workloads": ["hpc"]}"#,
        r#"{"workloads": ["spark"]}"#,
    ];
    // Reference responses from a server with the default budget.
    let mut reference = start();
    let firsts: Vec<String> = bodies
        .iter()
        .map(|body| {
            let (status, response) = call(&reference, "POST", "/v1/sweep/bandwidth", body);
            assert_eq!(status, 200, "{response}");
            response
        })
        .collect();
    reference.stop();
    reference.join();

    // A budget that holds any two of the four entries but no three.
    let charges: Vec<usize> = bodies
        .iter()
        .zip(&firsts)
        .map(|(body, response)| {
            let key = format!("POST /v1/sweep/bandwidth#{}", parsed(body).canonical());
            key.len() + response.len() + ENTRY_OVERHEAD
        })
        .collect();
    let budget = 2 * charges.iter().max().unwrap();
    assert!(3 * charges.iter().min().unwrap() > budget, "{charges:?}");
    let mut server = Server::start(&ServerConfig {
        cache_budget: budget,
        ..ServerConfig::default()
    })
    .expect("bind loopback");

    // Round-robin twice: one LRU of two entries misses every time.
    for _ in 0..2 {
        for (body, first) in bodies.iter().zip(&firsts) {
            let (status, response) = call(&server, "POST", "/v1/sweep/bandwidth", body);
            assert_eq!(status, 200);
            assert_eq!(&response, first, "a recomputed body must be byte-identical");
        }
    }
    let (_, metrics) = call(&server, "GET", "/metrics", "");
    let cache = parsed(&metrics).get("cache").unwrap().clone();
    let count = |key: &str| cache.get(key).and_then(Json::as_u64).unwrap();
    assert_eq!(count("hits"), 0);
    assert_eq!(count("misses"), 8);
    assert_eq!(count("evictions"), 6);
    assert_eq!(count("rejected"), 0);
    assert_eq!(count("entries"), 2);
    assert!(count("bytes") <= budget as u64, "{metrics}");

    server.stop();
    server.join();
}

#[test]
fn sweep_response_reconstructs_fig8_csv_byte_for_byte() {
    let mut server = start();
    // Defaults: the three Tab. 6 classes over the paper's Fig. 8 axis —
    // exactly what the repro CLI tabulates.
    let (status, body) = call(&server, "POST", "/v1/sweep/bandwidth", "{}");
    assert_eq!(status, 200);
    let response = parsed(&body);

    let mut table = Table::new(
        "Fig. 8: CPI increase vs per-core bandwidth reduction",
        &[
            "class",
            "delta_gbps_per_core",
            "bw_per_core",
            "cpi",
            "cpi_increase",
            "regime",
        ],
    );
    for class in response.get("workloads").and_then(Json::as_arr).unwrap() {
        let name = class.get("workload").and_then(Json::as_str).unwrap();
        for point in class.get("points").and_then(Json::as_arr).unwrap() {
            let num = |key: &str| point.get(key).and_then(Json::as_f64).unwrap();
            let regime = point.get("regime").and_then(Json::as_str).unwrap();
            table.row(vec![
                name.to_string(),
                f(num("delta"), 1),
                f(num("bandwidth_per_core_gbps"), 2),
                f(num("cpi"), 3),
                pct(num("cpi_ratio") - 1.0, 1),
                regime.replace('_', " "),
            ]);
        }
    }

    let direct = fig8_table(
        &WorkloadParams::all_classes(),
        &SystemConfig::paper_baseline(),
        &QueueingCurve::composite_default(),
    )
    .unwrap();
    assert_eq!(
        table.to_csv(),
        direct.to_csv(),
        "server sweep must reconstruct the repro CSV byte-for-byte"
    );
    server.stop();
    server.join();
}

#[test]
fn plan_round_trip_matches_library_and_caches() {
    let mut server = start();

    // Round trip: the served plan is the library's plan, byte-for-byte.
    let (status, body_a) = call(&server, "POST", "/v1/plan", "{}");
    assert_eq!(status, 200);
    let direct = memsense_plan::planner::plan(&memsense_plan::spec::PlanSpec::example()).unwrap();
    assert_eq!(
        body_a,
        memsense_plan::report::plan_json(&direct).canonical(),
        "served plan must match the library plan byte-for-byte"
    );

    // Re-query: byte-identical body from the result cache.
    let (status, body_b) = call(&server, "POST", "/v1/plan", "{}");
    assert_eq!(status, 200);
    assert_eq!(body_a, body_b, "cached re-query must be byte-identical");
    let (_, metrics) = call(&server, "GET", "/metrics", "");
    let metrics = parsed(&metrics);
    let cache = metrics.get("cache").unwrap();
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));

    // /metrics carries latency percentiles under the /v1/plan label.
    let endpoints = metrics.get("endpoints").and_then(Json::as_arr).unwrap();
    let plan_row = endpoints
        .iter()
        .find(|e| e.get("endpoint").and_then(Json::as_str) == Some("/v1/plan"))
        .expect("/v1/plan endpoint row in /metrics");
    assert_eq!(plan_row.get("requests").and_then(Json::as_u64), Some(2));
    assert!(plan_row
        .get("latency_ms_p99")
        .and_then(Json::as_f64)
        .is_some());

    // Invalid spec: 400 whose canonical-JSON body names the field.
    let (status, body) = call(
        &server,
        "POST",
        "/v1/plan",
        r#"{"traffic": [{"workload": "big data", "mreq_per_s": 1, "instructions_per_request": 1e6}],
            "hardware": [{"channels": 4, "mega_transfers": 1866.7, "unloaded_latency_ns": 75,
                          "capacity_gb": 256, "cost": -1}]}"#,
    );
    assert_eq!(status, 400);
    let error = parsed(&body);
    assert_eq!(
        error.get("field").and_then(Json::as_str),
        Some("hardware[0].cost")
    );
    assert!(
        error.get("error").and_then(Json::as_str).is_some(),
        "{body}"
    );

    server.stop();
    server.join();
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let mut server = start();
    let (status, body) = call(&server, "POST", "/v1/admin/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("shutting-down"));
    server.join(); // returns because the accept loop observed the flag
    assert!(server.shutdown_requested());
}

/// Reads one full HTTP response (head + Content-Length body) from a raw
/// stream, returning (status, body).
fn read_raw_response(stream: &mut std::net::TcpStream) -> (u16, String) {
    use std::io::Read;
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    let (mut head_end, mut length) = (None, None);
    loop {
        if let (Some(end), Some(len)) = (head_end, length) {
            if raw.len() >= end + len {
                break;
            }
        }
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0 || head_end.is_some(), "connection closed mid-head");
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&chunk[..n]);
        if head_end.is_none() {
            if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
                head_end = Some(pos + 4);
                let head = String::from_utf8_lossy(&raw[..pos]).to_string();
                for line in head.lines() {
                    if let Some((name, value)) = line.split_once(':') {
                        if name.trim().eq_ignore_ascii_case("content-length") {
                            length = Some(value.trim().parse::<usize>().expect("length"));
                        }
                    }
                }
            }
        }
    }
    let head_end = head_end.expect("response head");
    let head = String::from_utf8_lossy(&raw[..head_end]).to_string();
    let status: u16 = head
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = String::from_utf8_lossy(&raw[head_end..]).to_string();
    (status, body)
}

#[test]
fn concurrent_identical_requests_coalesce_to_one_cache_miss() {
    let mut server = start();
    // A heavy body (dense Fig. 8-style axis) so the solve is slow enough for
    // later arrivals to find the flight still open — though the assertions
    // below hold for ANY interleaving: an arrival during the flight joins
    // (coalesced), an arrival after it hits the cache. Only the lead may
    // ever miss.
    const N: usize = 8;
    let body = r#"{"deltas": [0, -0.05, -0.1, -0.15, -0.2, -0.25, -0.3, -0.35, -0.4, -0.45, -0.5, -0.55, -0.6, -0.65, -0.7, -0.75, -0.8, -0.85, -0.9, -0.95, -1.0], "tag": "single-flight-test"}"#;
    let addr = server.addr();
    let barrier = std::sync::Barrier::new(N);
    let mut bodies: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..N {
            handles.push(scope.spawn(|| {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                client
                    .request("POST", "/v1/sweep/bandwidth", body)
                    .expect("request")
            }));
        }
        for handle in handles {
            let (status, text) = handle.join().expect("thread");
            assert_eq!(status, 200, "{text}");
            bodies.push(text);
        }
    });
    for text in &bodies[1..] {
        assert_eq!(
            text, &bodies[0],
            "coalesced responses must be byte-identical"
        );
    }

    let (_, metrics) = call(&server, "GET", "/metrics", "");
    let metrics = parsed(&metrics);
    let cache = metrics.get("cache").unwrap();
    let flight = metrics.get("single_flight").unwrap();
    let misses = cache.get("misses").and_then(Json::as_u64).unwrap();
    let hits = cache.get("hits").and_then(Json::as_u64).unwrap();
    let coalesced = flight.get("coalesced").and_then(Json::as_u64).unwrap();
    assert_eq!(
        misses, 1,
        "exactly one cache miss for {N} identical requests"
    );
    assert_eq!(
        hits + coalesced,
        (N - 1) as u64,
        "every non-lead request either joined the flight or hit the cache"
    );
    assert_eq!(flight.get("in_flight").and_then(Json::as_u64), Some(0));

    server.stop();
    server.join();
}

#[test]
fn duplicate_content_length_is_rejected_on_the_wire() {
    use std::io::Write;
    let mut server = start();
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(b"POST /v1/solve HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\nokok")
        .expect("write");
    stream.flush().expect("flush");
    let (status, body) = read_raw_response(&mut stream);
    assert_eq!(status, 400);
    assert!(body.contains("duplicate Content-Length"), "{body}");
    // Smuggling hygiene: the server must tear the connection down rather
    // than guess where the next request starts.
    let mut rest = Vec::new();
    std::io::Read::read_to_end(&mut stream, &mut rest).expect("drain");
    assert!(rest.is_empty(), "connection must be closed after the 400");
    server.stop();
    server.join();
}

#[test]
fn over_capacity_connections_get_a_503() {
    let mut server = Server::start(&ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    // Occupy the single slot with a live keep-alive connection.
    let mut occupant = Client::connect(server.addr()).expect("connect");
    let (status, _) = occupant.request("GET", "/healthz", "").expect("request");
    assert_eq!(status, 200);
    // The next connection is turned away at accept time.
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let (status, body) = read_raw_response(&mut stream);
    assert_eq!(status, 503);
    assert!(body.contains("connection limit reached"), "{body}");
    // The occupant keeps working.
    let (status, _) = occupant.request("GET", "/healthz", "").expect("request");
    assert_eq!(status, 200);
    server.stop();
    server.join();
}

#[test]
fn request_arriving_in_dribbles_is_reassembled() {
    use std::io::Write;
    let mut server = start();
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let body = r#"{"workload": "enterprise"}"#;
    let head = format!(
        "POST /v1/solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    // Trickle the request: head in three fragments, body in two, with
    // pauses long enough that each fragment is a separate readiness edge.
    let mut pieces: Vec<&[u8]> = vec![&head.as_bytes()[..7], &head.as_bytes()[7..20]];
    pieces.push(&head.as_bytes()[20..]);
    pieces.push(&body.as_bytes()[..9]);
    pieces.push(&body.as_bytes()[9..]);
    for piece in pieces {
        stream.write_all(piece).expect("write");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(20));
    }
    let (status, text) = read_raw_response(&mut stream);
    assert_eq!(status, 200, "{text}");
    // Same bytes as the all-at-once path.
    let (_, direct) = call(&server, "POST", "/v1/solve", body);
    assert_eq!(text, direct);
    server.stop();
    server.join();
}

#[test]
fn bench_measures_a_cache_speedup_in_process() {
    let report = bench::run(&BenchConfig {
        connections: 2,
        duration: Duration::from_millis(500),
        max_requests: Some(200),
        ..BenchConfig::default()
    })
    .expect("bench run");
    assert!(report.requests > 0);
    assert!(report.cold_ms > 0.0);
    assert!(
        report.cache_speedup > 1.0,
        "cache hits should beat the cold solve (got {:.2}x)",
        report.cache_speedup
    );
}
