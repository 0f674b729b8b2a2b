//! Request telemetry: per-endpoint counts and latency percentiles.
//!
//! Each handled request records its endpoint label, status class, and
//! service time. Latencies are kept in a bounded per-endpoint ring (newest
//! samples win) and summarized with `memsense-stats` **nearest-rank**
//! percentiles on demand, so `/metrics` costs are paid by the scraper, not
//! the request path. Nearest-rank matters for small sample counts: a p99
//! over fewer than 100 samples clamps to the maximum observed latency
//! instead of interpolating to a value no request ever saw (or, in the
//! classic off-by-one formulation, indexing past the sorted sample).

use std::collections::BTreeMap;
use std::time::Duration;

use memsense_experiments::json::Json;
use memsense_stats::descriptive::{mean, percentile_nearest_rank};

use crate::cache::CacheStats;
use crate::flight::FlightSnapshot;
use crate::streams::StreamSnapshot;

/// Per-endpoint latency samples retained for percentile estimates.
const MAX_SAMPLES_PER_ENDPOINT: usize = 4096;

#[derive(Debug, Default)]
struct EndpointStats {
    requests: u64,
    errors: u64,
    /// Service times in milliseconds; bounded ring, `next` is the write head.
    samples: Vec<f64>,
    next: usize,
}

/// Registry of per-endpoint request telemetry, owned by the server's
/// reactor thread (the only place requests are recorded), so it takes no
/// lock.
#[derive(Debug, Default)]
pub struct Metrics {
    endpoints: BTreeMap<&'static str, EndpointStats>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records one handled request for `endpoint` with the given response
    /// `status` and service time.
    pub fn record(&mut self, endpoint: &'static str, status: u16, elapsed: Duration) {
        let stats = self.endpoints.entry(endpoint).or_default();
        stats.requests += 1;
        if status >= 400 {
            stats.errors += 1;
        }
        let ms = elapsed.as_secs_f64() * 1e3;
        if stats.samples.len() < MAX_SAMPLES_PER_ENDPOINT {
            stats.samples.push(ms);
        } else {
            stats.samples[stats.next] = ms;
            stats.next = (stats.next + 1) % MAX_SAMPLES_PER_ENDPOINT;
        }
    }

    /// Renders the registry (plus `cache`, single-flight, and stream-session
    /// counters) as the `/metrics` body.
    pub fn to_json(
        &self,
        cache: CacheStats,
        flight: FlightSnapshot,
        stream: StreamSnapshot,
    ) -> Json {
        let per_endpoint: Vec<Json> = self
            .endpoints
            .iter()
            .map(|(name, stats)| {
                let mut fields = vec![
                    ("endpoint", Json::str(*name)),
                    ("requests", Json::num(stats.requests as f64)),
                    ("errors", Json::num(stats.errors as f64)),
                ];
                if !stats.samples.is_empty() {
                    let quantile = |p: f64| {
                        // memsense-lint: allow(no-panic-in-lib) — guarded by the is_empty check above; percentile/mean only fail on empty input
                        percentile_nearest_rank(&stats.samples, p).expect("non-empty samples")
                    };
                    fields.push((
                        "latency_ms_mean",
                        // memsense-lint: allow(no-panic-in-lib) — same non-empty guard
                        Json::num(round3(mean(&stats.samples).expect("non-empty samples"))),
                    ));
                    fields.push(("latency_ms_p50", Json::num(round3(quantile(50.0)))));
                    fields.push(("latency_ms_p90", Json::num(round3(quantile(90.0)))));
                    fields.push(("latency_ms_p99", Json::num(round3(quantile(99.0)))));
                }
                Json::obj(fields)
            })
            .collect();
        Json::obj(vec![
            (
                "requests_total",
                Json::num(self.endpoints.values().map(|s| s.requests).sum::<u64>() as f64),
            ),
            ("endpoints", Json::Arr(per_endpoint)),
            (
                "cache",
                Json::obj(vec![
                    ("hits", Json::num(cache.hits as f64)),
                    ("misses", Json::num(cache.misses as f64)),
                    ("evictions", Json::num(cache.evictions as f64)),
                    ("rejected", Json::num(cache.rejected as f64)),
                    ("entries", Json::num(cache.entries as f64)),
                    ("bytes", Json::num(cache.bytes as f64)),
                ]),
            ),
            (
                "single_flight",
                Json::obj(vec![
                    ("in_flight", Json::num(flight.in_flight as f64)),
                    ("coalesced", Json::num(flight.coalesced as f64)),
                ]),
            ),
            (
                "stream",
                Json::obj(vec![
                    ("sessions", Json::num(stream.sessions as f64)),
                    ("deltas", Json::num(stream.deltas as f64)),
                    ("cells_resolved", Json::num(stream.cells_resolved as f64)),
                    ("cells_skipped", Json::num(stream.cells_skipped as f64)),
                ]),
            ),
        ])
    }
}

/// Rounds to 3 decimals: enough for millisecond latencies, and keeps the
/// JSON bodies free of 17-digit float noise.
fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_counts_errors_and_percentiles() {
        let mut metrics = Metrics::new();
        for i in 0..10 {
            metrics.record("/v1/solve", 200, Duration::from_millis(i + 1));
        }
        metrics.record("/v1/solve", 400, Duration::from_millis(100));
        metrics.record("/healthz", 200, Duration::from_micros(50));

        let json = metrics.to_json(
            CacheStats::default(),
            FlightSnapshot::default(),
            StreamSnapshot::default(),
        );
        assert_eq!(json.get("requests_total").and_then(Json::as_u64), Some(12));
        let endpoints = json.get("endpoints").and_then(Json::as_arr).unwrap();
        assert_eq!(endpoints.len(), 2);
        let solve = endpoints
            .iter()
            .find(|e| e.get("endpoint").and_then(Json::as_str) == Some("/v1/solve"))
            .unwrap();
        assert_eq!(solve.get("requests").and_then(Json::as_u64), Some(11));
        assert_eq!(solve.get("errors").and_then(Json::as_u64), Some(1));
        let p99 = solve.get("latency_ms_p99").and_then(Json::as_f64).unwrap();
        let p50 = solve.get("latency_ms_p50").and_then(Json::as_f64).unwrap();
        assert!(p99 >= p50);
        assert!(p99 <= 100.0 + 1e-9);
    }

    #[test]
    fn sample_ring_is_bounded() {
        let mut metrics = Metrics::new();
        for _ in 0..(MAX_SAMPLES_PER_ENDPOINT + 100) {
            metrics.record("/v1/sweep/bandwidth", 200, Duration::from_millis(1));
        }
        let stats = metrics.endpoints.get("/v1/sweep/bandwidth").unwrap();
        assert_eq!(stats.samples.len(), MAX_SAMPLES_PER_ENDPOINT);
        assert_eq!(stats.requests, (MAX_SAMPLES_PER_ENDPOINT + 100) as u64);
    }

    #[test]
    fn metrics_json_is_byte_stable_and_endpoint_sorted() {
        // Pins the no-unordered-output audit: the registry is a BTreeMap, so
        // the /metrics body must not depend on recording order and must list
        // endpoints in sorted order.
        let record_all = |order: &[&'static str]| {
            let mut metrics = Metrics::new();
            for name in order {
                metrics.record(name, 200, Duration::from_millis(2));
            }
            metrics
                .to_json(
                    CacheStats::default(),
                    FlightSnapshot::default(),
                    StreamSnapshot::default(),
                )
                .canonical()
        };
        let a = record_all(&["/v1/solve", "/healthz", "/v1/sweep/bandwidth"]);
        let b = record_all(&["/v1/sweep/bandwidth", "/v1/solve", "/healthz"]);
        assert_eq!(a, b, "insertion order must not leak into the body");

        let json = Json::parse(&a).unwrap();
        let names: Vec<String> = json
            .get("endpoints")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| {
                e.get("endpoint")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "endpoints are emitted in sorted order");
    }

    #[test]
    fn cache_stats_are_embedded() {
        let metrics = Metrics::new();
        let json = metrics.to_json(
            CacheStats {
                hits: 3,
                misses: 5,
                evictions: 1,
                rejected: 7,
                entries: 2,
                bytes: 1234,
            },
            FlightSnapshot {
                in_flight: 2,
                coalesced: 9,
            },
            StreamSnapshot {
                sessions: 4,
                deltas: 17,
                cells_resolved: 210,
                cells_skipped: 630,
            },
        );
        let cache = json.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(3));
        assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(5));
        assert_eq!(cache.get("rejected").and_then(Json::as_u64), Some(7));
        assert_eq!(cache.get("bytes").and_then(Json::as_u64), Some(1234));
        let flight = json.get("single_flight").unwrap();
        assert_eq!(flight.get("in_flight").and_then(Json::as_u64), Some(2));
        assert_eq!(flight.get("coalesced").and_then(Json::as_u64), Some(9));
        let stream = json.get("stream").unwrap();
        assert_eq!(stream.get("sessions").and_then(Json::as_u64), Some(4));
        assert_eq!(stream.get("deltas").and_then(Json::as_u64), Some(17));
        assert_eq!(
            stream.get("cells_resolved").and_then(Json::as_u64),
            Some(210)
        );
        assert_eq!(
            stream.get("cells_skipped").and_then(Json::as_u64),
            Some(630)
        );
    }

    #[test]
    fn small_sample_p99_is_the_maximum_latency() {
        // The small-n off-by-one regression: with fewer than 100 samples the
        // p99 must clamp to the maximum observed latency, never interpolate
        // below it or index past the sorted ring.
        let mut metrics = Metrics::new();
        for ms in [1u64, 2, 3] {
            metrics.record("/v1/solve", 200, Duration::from_millis(ms));
        }
        let json = metrics.to_json(
            CacheStats::default(),
            FlightSnapshot::default(),
            StreamSnapshot::default(),
        );
        let endpoints = json.get("endpoints").and_then(Json::as_arr).unwrap();
        let solve = &endpoints[0];
        let p99 = solve.get("latency_ms_p99").and_then(Json::as_f64).unwrap();
        assert!(
            (p99 - 3.0).abs() < 1e-9,
            "p99 of [1,2,3] ms is 3 ms, got {p99}"
        );
    }

    #[test]
    fn plan_endpoint_percentiles_clamp_at_small_n() {
        // `/v1/plan` rides the same registry as every other endpoint; pin
        // that its percentiles obey the small-n nearest-rank clamp too (a
        // plan solve is the slowest endpoint, so an interpolated p99 below
        // the observed maximum would be the most misleading here).
        let mut metrics = Metrics::new();
        for ms in [40u64, 55] {
            metrics.record("/v1/plan", 200, Duration::from_millis(ms));
        }
        let json = metrics.to_json(
            CacheStats::default(),
            FlightSnapshot::default(),
            StreamSnapshot::default(),
        );
        let endpoints = json.get("endpoints").and_then(Json::as_arr).unwrap();
        let plan = endpoints
            .iter()
            .find(|e| e.get("endpoint").and_then(Json::as_str) == Some("/v1/plan"))
            .unwrap();
        assert_eq!(plan.get("requests").and_then(Json::as_u64), Some(2));
        for key in ["latency_ms_p90", "latency_ms_p99"] {
            let v = plan.get(key).and_then(Json::as_f64).unwrap();
            assert!(
                (v - 55.0).abs() < 1e-9,
                "{key} of [40,55] ms must clamp to the 55 ms maximum, got {v}"
            );
        }
    }

    #[test]
    fn stream_endpoint_percentiles_clamp_at_small_n() {
        // The stream endpoints are new labels in the same registry; a fresh
        // session typically records only a handful of open/delta/updates
        // requests, so small-n clamping is their *normal* operating regime,
        // not a corner case. Pin the nearest-rank clamp for all three.
        let mut metrics = Metrics::new();
        for (label, ms) in [
            ("/v1/stream/open", [12u64, 30]),
            ("/v1/stream/delta", [3, 8]),
            ("/v1/stream/updates", [1, 2]),
        ] {
            for m in ms {
                metrics.record(label, 200, Duration::from_millis(m));
            }
        }
        let json = metrics.to_json(
            CacheStats::default(),
            FlightSnapshot::default(),
            StreamSnapshot::default(),
        );
        let endpoints = json.get("endpoints").and_then(Json::as_arr).unwrap();
        for (label, max_ms) in [
            ("/v1/stream/open", 30.0),
            ("/v1/stream/delta", 8.0),
            ("/v1/stream/updates", 2.0),
        ] {
            let entry = endpoints
                .iter()
                .find(|e| e.get("endpoint").and_then(Json::as_str) == Some(label))
                .unwrap();
            assert_eq!(entry.get("requests").and_then(Json::as_u64), Some(2));
            for key in ["latency_ms_p90", "latency_ms_p99"] {
                let v = entry.get(key).and_then(Json::as_f64).unwrap();
                assert!(
                    (v - max_ms).abs() < 1e-9,
                    "{label} {key} must clamp to the {max_ms} ms maximum at n=2, got {v}"
                );
            }
        }
    }
}
