//! The serve baseline: sustained throughput and warm latency of the epoll
//! reactor under the built-in load generator.
//!
//! A dedicated in-process server takes 512 keep-alive connections for 3 s
//! against the dense bandwidth sweep: one heavy solve, then pure cache
//! traffic. Latencies are nearest-rank percentiles, so short runs gate on
//! latencies a request actually observed.

use std::time::Duration;

use memsense_serve::bench::{self, BenchConfig};
use memsense_serve::server::{Server, ServerConfig};

use crate::gate::{Better, Error, Metric};

/// Serve walls mix scheduler, TCP and allocator noise, so the gate allows
/// down to half the recorded throughput and up to twice the latency.
pub const TOLERANCE: f64 = 1.0;

const CONNECTIONS: usize = 512;
const DURATION: Duration = Duration::from_secs(3);
const PATH: &str = "/v1/sweep/bandwidth";

/// Drives the load generator and returns `throughput_rps`, `warm_p50_ms`
/// and `warm_p99_ms`.
pub fn measure() -> Result<Vec<Metric>, Error> {
    let failed = |e: std::io::Error| Error(format!("serve measurement failed: {e}"));
    // Room above the load so the generator itself is never 503'd.
    let mut server = Server::start(&ServerConfig {
        max_connections: CONNECTIONS + 64,
        ..ServerConfig::default()
    })
    .map_err(failed)?;
    let report = bench::run(&BenchConfig {
        addr: Some(server.addr().to_string()),
        connections: CONNECTIONS,
        duration: DURATION,
        path: PATH.to_string(),
        ..BenchConfig::default()
    });
    server.stop();
    server.join();
    let report = report.map_err(failed)?;
    Ok(vec![
        Metric::new(
            "throughput_rps",
            report.throughput_rps,
            "1/s",
            Better::Higher,
        ),
        Metric::new("warm_p50_ms", report.warm_p50_ms, "ms", Better::Lower),
        Metric::new("warm_p99_ms", report.warm_p99_ms, "ms", Better::Lower),
    ])
}
