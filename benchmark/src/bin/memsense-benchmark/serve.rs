//! `serve-hot` and `serve-cold`: open-loop HTTP traffic against a
//! `memsense-serve` server running as a separate child process.
//!
//! The server starts with `ServerConfig::default()`. The load generator
//! (this process) offers Poisson arrivals over one pipelined connection
//! ([`crate::loadgen`]): an untraced run holds the reference rate in
//! slices, a traced run climbs a ladder of rates. After the load, a seeded
//! sample of the responses is byte-compared with the same request run
//! through the `api` handlers in this process, and a pinned request sample
//! is compared with `golden/<workload>.json`. An *operation* is one HTTP
//! request.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use memsense_experiments::json::Json;
use memsense_model::solver::telemetry as solver_telemetry;
use memsense_serve::api::{self, ApiError, SweepKind};
use memsense_serve::cache::{ResultCache, DEFAULT_BUDGET_BYTES};
use memsense_serve::http::{parse_request, Client, Parse};
use memsense_workloads::patterns::ZipfSampler;

use crate::golden;
use crate::host;
use crate::job::{Job, Kind};
use crate::loadgen::{self, Planned, Summary};
use crate::metrics::{cpu_seconds, peak_rss_mb, Outcome};
use crate::rng::{derive, Rng};
use crate::stats::{median, percentile, quartiles, supports};
use crate::trace::{SpanId, Tracer};

/// Distinct request bodies in the `serve-hot` key set.
pub const HOT_KEYS: usize = 1024;

/// Responses kept per run for the byte comparison.
pub const SAMPLE: usize = 256;

/// Tail percentile for request latency.
pub const TAIL_PERCENTILE: f64 = 99.0;

/// The seed of the pinned request sample.
const PINNED_SEED: u64 = 0;

/// A workload's offered-rate ladder and latency limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ladder {
    /// Offered rates, requests per second, ascending.
    pub rates: [f64; 5],
    /// Rung of the reference rate: untraced runs offer it throughout, and
    /// its rung of the traced ladder gives the latency tail.
    pub reference: usize,
    /// p99 limit a rung must meet to count toward `serve.max_rps`, ms.
    pub slo_ms: f64,
}

impl Ladder {
    /// The reference rate, requests per second.
    pub fn reference_rate(&self) -> f64 {
        self.rates[self.reference]
    }

    /// Seconds rung `i` runs when the ladder has `seconds` in total: the
    /// reference rung gets 40%, so its latency averages over more time.
    pub fn rung_seconds(&self, i: usize, seconds: f64) -> f64 {
        if i == self.reference {
            0.4 * seconds
        } else {
            0.6 * seconds / (self.rates.len() - 1) as f64
        }
    }
}

/// The ladder of a serve workload.
pub fn ladder(kind: Kind) -> Ladder {
    match kind {
        Kind::ServeHot => Ladder {
            rates: [4_000.0, 8_000.0, 16_000.0, 24_000.0, 32_000.0],
            reference: 1,
            slo_ms: 2.0,
        },
        // The server spends ~0.18 ms of CPU per cold request, so the 4000
        // rps rung keeps its one CPU ~70% busy: a slower miss path pushes
        // that rung past the limit and `serve.max_rps` down.
        _ => Ladder {
            rates: [250.0, 500.0, 1_000.0, 2_000.0, 4_000.0],
            reference: 1,
            slo_ms: 20.0,
        },
    }
}

/// A model endpoint the benchmark sends to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/solve`.
    Solve,
    /// `POST /v1/sweep/bandwidth`.
    SweepBandwidth,
    /// `POST /v1/sweep/latency`.
    SweepLatency,
    /// `POST /v1/equivalence`.
    Equivalence,
    /// `POST /v1/plan`.
    Plan,
}

impl Endpoint {
    /// Request path.
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Solve => "/v1/solve",
            Endpoint::SweepBandwidth => "/v1/sweep/bandwidth",
            Endpoint::SweepLatency => "/v1/sweep/latency",
            Endpoint::Equivalence => "/v1/equivalence",
            Endpoint::Plan => "/v1/plan",
        }
    }

    /// Runs the endpoint's handler, as the server's workers do.
    ///
    /// # Errors
    ///
    /// The handler's [`ApiError`].
    pub fn handle(self, body: &Json) -> Result<Json, ApiError> {
        match self {
            Endpoint::Solve => api::solve(body),
            Endpoint::SweepBandwidth => api::sweep(SweepKind::Bandwidth, body),
            Endpoint::SweepLatency => api::sweep(SweepKind::Latency, body),
            Endpoint::Equivalence => api::equivalence_endpoint(body),
            Endpoint::Plan => api::plan_endpoint(body),
        }
    }
}

/// One request: an endpoint and a JSON body.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Target endpoint.
    pub endpoint: Endpoint,
    /// Body text.
    pub body: String,
}

impl Request {
    /// The request as it goes on the wire.
    pub fn wire(&self) -> Vec<u8> {
        format!(
            "POST {} HTTP/1.1\r\nHost: memsense\r\nContent-Length: {}\r\n\r\n{}",
            self.endpoint.path(),
            self.body.len(),
            self.body
        )
        .into_bytes()
    }

    /// The response body the server must send, computed in process.
    ///
    /// # Errors
    ///
    /// A parse or handler error, as text.
    pub fn expected(&self) -> Result<String, String> {
        let body = Json::parse(&self.body).map_err(|e| e.to_string())?;
        self.endpoint
            .handle(&body)
            .map(|json| json.to_string())
            .map_err(|e| e.message)
    }
}

const WORKLOAD_NAMES: [&str; 12] = [
    "big data",
    "enterprise",
    "hpc",
    "nits",
    "spark",
    "proximity",
    "structured data",
    "oltp",
    "jvm",
    "web caching",
    "bwaves",
    "milc",
];

/// Seeded overrides of the paper baseline. Every combination leaves more
/// than 3.5 GB/s per core, the deepest cut the bandwidth sweeps ask for, so
/// every request is feasible.
fn system(rng: &mut Rng) -> Json {
    Json::obj(vec![
        ("core_clock_ghz", Json::num(rng.pick(&[2.1, 2.4, 2.7, 3.1]))),
        ("channels_per_socket", Json::num(rng.pick(&[4.0, 6.0]))),
        (
            "channel_mega_transfers",
            Json::num(rng.pick(&[1600.0, 1866.7])),
        ),
        (
            "unloaded_latency_ns",
            Json::num(70.0 + 5.0 * rng.below(7) as f64),
        ),
    ])
}

fn workloads(rng: &mut Rng, n: usize) -> Json {
    let mut names = WORKLOAD_NAMES.to_vec();
    rng.shuffle(&mut names);
    Json::Arr(names[..n].iter().map(|&s| Json::str(s)).collect())
}

fn axis(rng: &mut Rng, lo: f64, hi: f64) -> Json {
    let n = 8 + rng.below(17);
    Json::Arr(
        (0..n)
            .map(|i| Json::num(lo + (hi - lo) * i as f64 / (n - 1) as f64))
            .collect(),
    )
}

/// A seeded request to `endpoint`. A `varied` request draws how many
/// workloads it names and its sweep axes, so bodies differ in size and
/// cost; otherwise it names three workloads and sweeps the paper's axes,
/// and only the values differ.
fn request(endpoint: Endpoint, rng: &mut Rng, tag: String, varied: bool) -> Request {
    let count = if varied { 1 + rng.below(3) as usize } else { 3 };
    let mut fields = match endpoint {
        Endpoint::Solve => vec![
            ("workload", Json::str(rng.pick(&WORKLOAD_NAMES))),
            ("system", system(rng)),
        ],
        Endpoint::SweepBandwidth | Endpoint::SweepLatency | Endpoint::Equivalence => {
            vec![
                ("workloads", workloads(rng, count)),
                ("system", system(rng)),
            ]
        }
        Endpoint::Plan => Vec::new(),
    };
    if varied {
        match endpoint {
            Endpoint::SweepBandwidth => fields.push(("deltas", axis(rng, -3.0, 0.0))),
            Endpoint::SweepLatency => fields.push(("steps_ns", axis(rng, 0.0, 90.0))),
            _ => {}
        }
    }
    fields.push(("tag", Json::Str(tag)));
    Request {
        endpoint,
        body: Json::obj(fields).to_string(),
    }
}

/// The model endpoints both serve workloads send to.
const MODEL_ENDPOINTS: [Endpoint; 4] = [
    Endpoint::Solve,
    Endpoint::SweepBandwidth,
    Endpoint::SweepLatency,
    Endpoint::Equivalence,
];

/// The `serve-hot` key set: 1024 distinct bodies in Zipf rank order (rank
/// 0 is the hottest). Rank `r` goes to solve, the bandwidth sweep, the
/// latency sweep and equivalence in turn, so every seed offers each
/// endpoint the same share of traffic with bodies of the same shape.
pub fn hot_keys(seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(derive(seed, 0x407));
    (0..HOT_KEYS)
        .map(|k| {
            let endpoint = MODEL_ENDPOINTS[k % MODEL_ENDPOINTS.len()];
            request(endpoint, &mut rng, format!("hot-{seed}-{k}"), false)
        })
        .collect()
}

/// The `i`-th unique `serve-cold` request, with seeded systems and axes:
/// one in twenty is a capacity plan, the rest go to the four `serve-hot`
/// endpoints in equal shares.
pub fn cold_request(seed: u64, i: u64) -> Request {
    let mut rng = Rng::new(derive(seed, 0xc01d_0000 + i));
    let endpoint = if rng.below(20) == 0 {
        Endpoint::Plan
    } else {
        rng.pick(&MODEL_ENDPOINTS)
    };
    request(endpoint, &mut rng, format!("cold-{seed}-{i}"), true)
}

/// The pinned request sample of a workload: the first 256 requests it
/// would generate under seed 0.
fn pinned_requests(kind: Kind) -> Vec<Request> {
    match kind {
        Kind::ServeHot => hot_keys(PINNED_SEED).into_iter().take(SAMPLE).collect(),
        _ => (0..SAMPLE as u64)
            .map(|i| cold_request(PINNED_SEED, i))
            .collect(),
    }
}

/// The pinned sample's expected bodies, hashed (for `bless` and the check).
pub fn pinned(kind: Kind) -> Result<Json, String> {
    let mut all = String::new();
    for r in pinned_requests(kind) {
        all.push_str(&r.expected()?);
        all.push('\n');
    }
    Ok(Json::obj(vec![
        ("requests", Json::num(SAMPLE as f64)),
        (
            "bodies_fnv1a",
            Json::str(golden::hex(golden::fnv1a(all.as_bytes()))),
        ),
    ]))
}

/// A `memsense-serve` server in a child process (this binary's
/// `serve-child` command); killed and reaped on drop if still running.
/// The child exits on its own if this process dies and its stdin closes.
struct ServerProcess {
    child: Child,
    _stdin: Option<ChildStdin>,
    addr: String,
    /// Model-solve workers the server reported starting.
    workers: usize,
}

impl ServerProcess {
    fn spawn(cpu: Option<usize>) -> Result<ServerProcess, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = host::spawn_on(cpu, &exe, |cmd| {
            cmd.arg("serve-child")
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
        })
        .map_err(|e| format!("spawn server: {e}"))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let mut server = ServerProcess {
            _stdin: child.stdin.take(),
            child,
            addr: String::new(),
            workers: 0,
        };
        let announced = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|rest| rest.split_once(" workers "))
            .and_then(|(addr, n)| Some((addr, n.parse().ok()?)));
        match (read, announced) {
            (Some(Ok(_)), Some((addr, workers))) => {
                server.addr = addr.to_string();
                server.workers = workers;
            }
            _ => return Err(format!("server did not start: {line:?}")),
        }
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn get(&self, path: &str) -> Result<Json, String> {
        let (status, body) = Client::connect(&self.addr)
            .and_then(|mut c| c.request("GET", path, ""))
            .map_err(|e| format!("GET {path}: {e}"))?;
        if status != 200 {
            return Err(format!("GET {path}: status {status}"));
        }
        Json::parse(&body).map_err(|e| format!("GET {path}: {e}"))
    }

    /// Asks the server to shut down and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.addr)
            .and_then(|mut c| c.request("POST", "/v1/admin/shutdown", ""));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && asked.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
        Err("server did not shut down within 10 s".to_string())
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Starts the server and makes it ready: `/healthz` answers, and on
/// `serve-hot` every key has been requested once, so the cache holds it.
fn set_up(job: &Job, keys: &[Request]) -> Result<ServerProcess, String> {
    let server = ServerProcess::spawn(job.server_cpu)?;
    let health = server.get("/healthz")?;
    if health.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("unhealthy: {}", health.to_string()));
    }
    if job.kind == Kind::ServeHot {
        let mut client = Client::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
        for key in keys {
            let (status, body) = client
                .request("POST", key.endpoint.path(), &key.body)
                .map_err(|e| format!("pre-warm: {e}"))?;
            if status != 200 {
                return Err(format!("pre-warm {}: {status} {body}", key.endpoint.path()));
            }
        }
    }
    Ok(server)
}

/// Seconds one slice of an untraced run lasts, about.
pub const SLICE_SECONDS: f64 = 2.0;

/// One stretch of open-loop load at a fixed offered rate: a rung of the
/// traced ladder, or a slice of an untraced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Seconds over which requests are scheduled.
    pub seconds: f64,
}

/// The load a run offers. An untraced run holds the reference rate for all
/// of `--seconds`, in equal slices of about [`SLICE_SECONDS`]; a traced run
/// climbs the ladder.
pub fn segments(job: &Job) -> Vec<Segment> {
    let ladder = ladder(job.kind);
    if job.trace {
        return (0..ladder.rates.len())
            .map(|i| Segment {
                rate: ladder.rates[i],
                seconds: ladder.rung_seconds(i, job.seconds),
            })
            .collect();
    }
    let n = (job.seconds / SLICE_SECONDS).round().max(1.0) as usize;
    let slice = Segment {
        rate: ladder.reference_rate(),
        seconds: job.seconds / n as f64,
    };
    vec![slice; n]
}

/// One segment's plan plus the wire bytes it indexes.
struct SegmentPlan {
    plan: Vec<Planned>,
    wires: Vec<Vec<u8>>,
    /// The request behind each wire entry.
    requests: Vec<Request>,
}

/// Plans segment `index`: seeded Poisson arrivals; on `serve-hot` each
/// picks a key by Zipf rank, on `serve-cold` each is the next unique
/// request.
fn plan_segment(
    job: &Job,
    index: usize,
    segment: Segment,
    keys: &[Request],
    keep_share: f64,
    next_cold: &mut u64,
) -> SegmentPlan {
    let seed = job.seed;
    let mut rng = Rng::new(derive(seed, 0x1add_0000 + index as u64));
    let due = loadgen::poisson_schedule(segment.rate, segment.seconds, &mut rng);
    match job.kind {
        Kind::ServeHot => {
            let mut zipf =
                ZipfSampler::new(keys.len(), 1.0, derive(seed, 0x21bf_0000 + index as u64));
            SegmentPlan {
                plan: due
                    .iter()
                    .map(|&due_ns| Planned {
                        due_ns,
                        wire: zipf.sample(),
                        keep: rng.unit() < keep_share,
                    })
                    .collect(),
                wires: keys.iter().map(Request::wire).collect(),
                requests: keys.to_vec(),
            }
        }
        _ => {
            let requests: Vec<Request> = due
                .iter()
                .map(|_| {
                    *next_cold += 1;
                    cold_request(seed, *next_cold - 1)
                })
                .collect();
            SegmentPlan {
                plan: due
                    .iter()
                    .enumerate()
                    .map(|(i, &due_ns)| Planned {
                        due_ns,
                        wire: i,
                        keep: rng.unit() < keep_share,
                    })
                    .collect(),
                wires: requests.iter().map(Request::wire).collect(),
                requests,
            }
        }
    }
}

/// One segment driven over a fresh pipelined connection.
fn drive_segment(addr: &str, plan: &SegmentPlan) -> Result<loadgen::Rung, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_nonblocking(true))
        .map_err(|e| format!("socket setup: {e}"))?;
    Ok(loadgen::drive(&stream, &plan.plan, &plan.wires))
}

/// `/metrics` numbers scraped after a segment.
#[derive(Debug, Clone, Copy, Default)]
struct Scrape {
    hits: f64,
    misses: f64,
    evictions: f64,
    bytes: f64,
    coalesced: f64,
    /// Request-weighted mean of the model endpoints' p50 service times.
    service_p50_ms: f64,
}

fn scrape(server: &ServerProcess) -> Result<Scrape, String> {
    let m = server.get("/metrics")?;
    let num = |a: &str, b: &str| m.get(a).and_then(|o| o.get(b)).and_then(Json::as_f64);
    let (mut weighted, mut requests) = (0.0, 0.0);
    for e in m.get("endpoints").and_then(Json::as_arr).unwrap_or(&[]) {
        let is_model = e
            .get("endpoint")
            .and_then(Json::as_str)
            .is_some_and(|p| p.starts_with("/v1/"));
        let n = e.get("requests").and_then(Json::as_f64).unwrap_or(0.0);
        if let (true, Some(p50)) = (is_model, e.get("latency_ms_p50").and_then(Json::as_f64)) {
            weighted += p50 * n;
            requests += n;
        }
    }
    Ok(Scrape {
        hits: num("cache", "hits").unwrap_or(0.0),
        misses: num("cache", "misses").unwrap_or(0.0),
        evictions: num("cache", "evictions").unwrap_or(0.0),
        bytes: num("cache", "bytes").unwrap_or(0.0),
        coalesced: num("single_flight", "coalesced").unwrap_or(0.0),
        service_p50_ms: weighted / requests.max(1.0),
    })
}

/// What one segment produced.
struct SegmentRun {
    segment: Segment,
    summary: Summary,
    /// Server CPU seconds spent while the segment was driven.
    server_cpu_s: f64,
    /// `/metrics` after the segment.
    scrape: Scrape,
}

impl SegmentRun {
    /// Requests answered per second of server CPU time.
    fn ops_per_cpu_s(&self) -> f64 {
        self.summary.ok as f64 / self.server_cpu_s
    }
}

/// Everything a run's load produced.
struct LoadRun {
    segments: Vec<SegmentRun>,
    /// Kept (request, response body) pairs.
    kept: Vec<(Request, Vec<u8>)>,
    /// Server memory high-water mark after the last segment at the
    /// reference rate, MB.
    server_rss_mb: f64,
    /// Wire spans of the kept requests: (start, end, id).
    wire_spans: Vec<(Instant, Instant, u64)>,
}

fn run_load(job: &Job, server: &ServerProcess, keys: &[Request]) -> Result<LoadRun, String> {
    let segments = segments(job);
    let reference = ladder(job.kind).reference_rate();
    let offered: f64 = segments.iter().map(|s| s.rate * s.seconds).sum();
    let keep_share = SAMPLE as f64 / offered;
    let server_cpu = || cpu_seconds(&server.pid()).ok_or("cannot read server CPU time");
    let mut run = LoadRun {
        segments: Vec::new(),
        kept: Vec::new(),
        server_rss_mb: 0.0,
        wire_spans: Vec::new(),
    };
    let mut next_cold = 0;
    for (i, &segment) in segments.iter().enumerate() {
        let plan = plan_segment(job, i, segment, keys, keep_share, &mut next_cold);
        let cpu_before = server_cpu()?;
        let driven = drive_segment(&server.addr, &plan)?;
        let server_cpu_s = server_cpu()? - cpu_before;
        let summary = loadgen::summarize(&driven.records, (segment.seconds * 1e9) as u64);
        let start = driven.started;
        for (index, body) in driven.kept {
            let r = driven.records[index];
            let id = run.kept.len() as u64;
            if let Some(done) = r.done_ns {
                run.wire_spans.push((
                    start + Duration::from_nanos(r.due_ns),
                    start + Duration::from_nanos(done),
                    id,
                ));
            }
            run.kept
                .push((plan.requests[plan.plan[index].wire].clone(), body));
        }
        // Memory is read at the reference rate: above it, transient
        // pipelined backlogs in the server's buffers swing the peak by 20%.
        if segment.rate == reference {
            run.server_rss_mb = peak_rss_mb(&server.pid()).ok_or("cannot read server memory")?;
        }
        run.segments.push(SegmentRun {
            segment,
            summary,
            server_cpu_s,
            scrape: scrape(server)?,
        });
    }
    Ok(run)
}

/// Byte-compares every kept response with the in-process handler output.
fn check_sample(run: &LoadRun, out: &mut Outcome) {
    let mut expected: BTreeMap<&str, Result<String, String>> = BTreeMap::new();
    let mut mismatches = 0;
    for (request, body) in &run.kept {
        let want = expected
            .entry(request.body.as_str())
            .or_insert_with(|| request.expected());
        match want {
            Ok(w) if w.as_bytes() == body.as_slice() => {}
            Ok(_) => mismatches += 1,
            Err(e) => out.problem(format!("in-process {}: {e}", request.endpoint.path())),
        }
    }
    if mismatches > 0 {
        out.problem(format!(
            "{mismatches} of {} sampled responses differ from the in-process handler output",
            run.kept.len()
        ));
    }
    if run.kept.is_empty() {
        out.problem("no responses sampled".to_string());
    }
}

/// Runs a serve workload.
pub fn run(job: &Job, ready: impl FnOnce()) -> Outcome {
    let mut out = Outcome::new();
    let keys = if job.kind == Kind::ServeHot {
        hot_keys(job.seed)
    } else {
        Vec::new()
    };
    let server = match set_up(job, &keys) {
        Ok(s) => s,
        Err(e) => {
            out.problem(e);
            return out;
        }
    };
    ready();
    out.detail("server_workers", Json::num(server.workers as f64));
    if job.setup_only {
        if let Err(e) = server.shutdown() {
            out.problem(e);
        }
        return out;
    }
    let load = run_load(job, &server, &keys);
    let stopped = server.shutdown();
    let load = match (load, stopped) {
        (Ok(run), Ok(())) => run,
        (Err(e), _) | (_, Err(e)) => {
            out.problem(e);
            return out;
        }
    };
    check_sample(&load, &mut out);
    match pinned(job.kind) {
        Ok(json) => {
            if let Err(e) = golden::check(job.kind.name(), &json) {
                out.problem(e);
            }
        }
        Err(e) => out.problem(format!("pinned sample: {e}")),
    }
    account(job, &load, &mut out);
    if job.trace {
        report_traced(job, &load, &keys, &mut out);
    } else {
        report_untraced(&load, &mut out);
    }
    out
}

/// Whether a segment counts toward `serve.max_rps`: p99 within the limit,
/// nothing failed, and at most 1% of sent requests outstanding when its
/// schedule ended.
fn meets_slo(kind: Kind, s: &Summary) -> bool {
    s.failed == 0 && s.outstanding_at_end <= 0.01 && s.latency(99.0) <= ladder(kind).slo_ms
}

/// Counts requests, records every segment in the details, and fails a run
/// whose generator typically sent late at the reference rate.
fn account(job: &Job, run: &LoadRun, out: &mut Outcome) {
    let reference = ladder(job.kind).reference_rate();
    let (mut latencies, mut lags) = (Vec::new(), Vec::new());
    for s in &run.segments {
        out.attempted += s.summary.latencies_ms.len() as u64 + s.summary.failed as u64;
        out.failed += s.summary.failed as u64;
        if s.segment.rate == reference {
            latencies.extend_from_slice(&s.summary.latencies_ms);
            lags.extend_from_slice(&s.summary.lag_ms);
        }
    }
    let rows = run
        .segments
        .iter()
        .map(|s| {
            let m = &s.summary;
            Json::obj(vec![
                ("rate", Json::num(s.segment.rate)),
                ("seconds", Json::num(s.segment.seconds)),
                ("sent", Json::num(m.sent as f64)),
                ("ok", Json::num(m.ok as f64)),
                ("failed", Json::num(m.failed as f64)),
                ("p50_ms", Json::num(m.latency(50.0))),
                ("p99_ms", Json::num(m.latency(99.0))),
                ("lag_p50_ms", Json::num(m.lag(50.0))),
                ("lag_p99_ms", Json::num(m.lag(99.0))),
                ("outstanding_max", Json::num(m.outstanding_max as f64)),
                ("outstanding_at_end", Json::num(m.outstanding_at_end)),
                ("server_cpu_s", Json::num(s.server_cpu_s)),
                ("ops_per_cpu_s", Json::num(s.ops_per_cpu_s())),
                ("meets_slo", Json::Bool(meets_slo(job.kind, m))),
            ])
        })
        .collect();
    out.detail("segments", Json::Arr(rows));
    out.detail("reference_rate", Json::num(reference));
    // A generator that typically sends late measures itself, not the server.
    let (lag_p50, p50) = (percentile(&lags, 50.0), percentile(&latencies, 50.0));
    if lag_p50 >= 0.1 * p50 {
        out.problem(format!(
            "invalid run: median send lag {lag_p50:.4} ms reaches 10% of p50 {p50:.4} ms"
        ));
    }
}

/// End-to-end metrics: each is the quartile of its per-slice values on the
/// fast side. Every slice offers the same rate with the same kind of
/// inputs, and other tenants of a shared host can only slow a slice down,
/// so the fast slices are the estimate least disturbed by them; a quartile
/// rather than the single fastest slice, because each slice's median is
/// itself a sample.
fn report_untraced(run: &LoadRun, out: &mut Outcome) {
    let p50s: Vec<f64> = run
        .segments
        .iter()
        .map(|s| s.summary.latency(50.0))
        .collect();
    let rates: Vec<f64> = run.segments.iter().map(SegmentRun::ops_per_cpu_s).collect();
    out.set("p50_ms", quartiles(&p50s)[0]);
    out.set("ops_per_s", quartiles(&rates)[2]);
    out.set("peak_rss_mb", run.server_rss_mb);
    let samples: usize = run
        .segments
        .iter()
        .map(|s| s.summary.latencies_ms.len())
        .sum();
    out.detail("slices", Json::num(run.segments.len() as f64));
    out.detail("samples", Json::num(samples as f64));
}

fn report_traced(job: &Job, run: &LoadRun, keys: &[Request], out: &mut Outcome) {
    let ladder = ladder(job.kind);
    let reference = &run.segments[ladder.reference].summary;
    let max_rps = run
        .segments
        .iter()
        .filter(|s| meets_slo(job.kind, &s.summary))
        .map(|s| s.segment.rate)
        .fold(0.0, f64::max);
    out.detail("samples", Json::num(reference.latencies_ms.len() as f64));
    out.detail("tail_percentile", Json::num(TAIL_PERCENTILE));
    out.detail(
        "tail_supported",
        Json::Bool(supports(reference.latencies_ms.len(), TAIL_PERCENTILE)),
    );
    out.set("latency.tail_ms", reference.latency(TAIL_PERCENTILE));
    out.set("latency.samples", reference.latencies_ms.len() as f64);
    let last = run.segments.last().map(|s| s.scrape).unwrap_or_default();
    out.set("serve.cache.hits", last.hits);
    out.set("serve.cache.misses", last.misses);
    out.set(
        "serve.cache.hit_ratio",
        last.hits / (last.hits + last.misses).max(1.0),
    );
    out.set("serve.cache.evictions", last.evictions);
    out.set("serve.cache.bytes", last.bytes);
    out.set("serve.flight.coalesced", last.coalesced);
    out.set(
        "serve.server.service_p50_ms",
        run.segments[ladder.reference].scrape.service_p50_ms,
    );
    out.set("serve.max_rps", max_rps);
    out.set(
        "loadgen.sent",
        run.segments.iter().map(|s| s.summary.sent).sum::<usize>() as f64,
    );
    out.set("loadgen.lag_p99_ms", reference.lag(99.0));
    out.set(
        "loadgen.outstanding_max",
        run.segments
            .iter()
            .map(|s| s.summary.outstanding_max)
            .max()
            .unwrap_or(0) as f64,
    );
    replay_layers(job, run, keys, reference.latency(50.0), out);
}

/// The request-path layers, in the order the server runs them.
const LAYERS: [&str; 6] = [
    "serve.http.parse",
    "serve.key.canonical",
    "serve.cache.get",
    "serve.api.handler",
    "serve.api.encode",
    "serve.cache.put",
];

/// Runs the kept requests' bytes through the same public functions the
/// server calls — parse, canonical key, cache lookup, and on a miss the
/// handler, encode and cache insert — once untraced and once traced.
/// `serve-hot` replays against a cache holding every key (all hits),
/// `serve-cold` against an empty one (all misses).
fn replay_layers(
    job: &Job,
    run: &LoadRun,
    keys: &[Request],
    client_p50_ms: f64,
    out: &mut Outcome,
) {
    let requests: Vec<&Request> = run.kept.iter().map(|(r, _)| r).collect();
    let wires: Vec<Vec<u8>> = requests.iter().map(|r| r.wire()).collect();
    let entries: Vec<(String, Arc<str>)> = keys
        .iter()
        .filter_map(|key| {
            let json = Json::parse(&key.body).ok()?;
            let body = key.expected().ok()?;
            let k = format!("POST {}#{}", key.endpoint.path(), json.canonical());
            Some((k, Arc::from(body.as_str())))
        })
        .collect();
    let fresh_cache = || {
        let cache = ResultCache::new(DEFAULT_BUDGET_BYTES);
        for (key, body) in &entries {
            cache.put(key, body);
        }
        cache
    };
    let plain = replay_pass(&requests, &wires, &fresh_cache(), &mut Tracer::new(false));
    let mut tracer = Tracer::new(true);
    for &(start, end, id) in &run.wire_spans {
        tracer.record("loadgen.request", start, end, id);
    }
    let spans_before = tracer.spans().len();
    let solver = solver_telemetry::snapshot();
    let traced = replay_pass(&requests, &wires, &fresh_cache(), &mut tracer);
    let solver = solver_telemetry::snapshot().since(&solver);

    let self_ns = tracer.self_times();
    let mut per_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut covered = 0.0;
    for (span, ns) in tracer.spans().iter().zip(&self_ns).skip(spans_before) {
        per_layer
            .entry(span.name)
            .or_default()
            .push(*ns as f64 / 1e3);
        covered += *ns as f64 / 1e9;
    }
    let layer_us = |name: &str| per_layer.get(name).map_or(0.0, |v| median(v));
    let names = [
        "serve.http.parse_us",
        "serve.key.canonical_us",
        "serve.cache.get_us",
        "serve.api.handler_us",
        "serve.api.encode_us",
        "serve.cache.put_us",
    ];
    let mut path_us = 0.0;
    for (metric, layer) in names.iter().zip(LAYERS) {
        let v = layer_us(layer);
        path_us += v;
        out.set(metric, v);
    }
    let n = requests.len().max(1) as f64;
    out.set("serve.wire_other_us", client_p50_ms * 1e3 - path_us);
    out.set("model.solver.solves_per_req", solver.solves as f64 / n);
    out.set(
        "model.solver.iters_per_solve",
        solver.iterations as f64 / solver.solves.max(1) as f64,
    );
    out.set("trace.overhead_ratio", traced / plain - 1.0);
    out.set("trace.coverage", covered / traced);
    tracer.write(job.kind.name());
}

/// One replay pass; returns its wall time in seconds.
fn replay_pass(
    requests: &[&Request],
    wires: &[Vec<u8>],
    cache: &ResultCache,
    tracer: &mut Tracer,
) -> f64 {
    let started = Instant::now();
    for (id, (request, wire)) in requests.iter().zip(wires).enumerate() {
        let id = id as u64;
        let span = tracer.enter("serve.http.parse", id);
        let span = replay_request(request, wire, cache, tracer, span, id);
        tracer.exit(span);
    }
    started.elapsed().as_secs_f64()
}

/// One request through the layers, each span handing over to the next;
/// returns the last span, still open.
fn replay_request(
    request: &Request,
    wire: &[u8],
    cache: &ResultCache,
    tracer: &mut Tracer,
    span: SpanId,
    id: u64,
) -> SpanId {
    let Parse::Complete(parsed, _) = parse_request(wire) else {
        return span;
    };
    let span = tracer.switch(span, "serve.key.canonical", id);
    let Some(body) = std::str::from_utf8(&parsed.body)
        .ok()
        .and_then(|text| Json::parse(text).ok())
    else {
        return span;
    };
    let key = format!("{} {}#{}", parsed.method, parsed.path, body.canonical());
    let span = tracer.switch(span, "serve.cache.get", id);
    let hit = cache.get(&key);
    let mut span = span;
    if hit.is_none() {
        span = tracer.switch(span, "serve.api.handler", id);
        let Ok(json) = request.endpoint.handle(&body) else {
            return span;
        };
        span = tracer.switch(span, "serve.api.encode", id);
        let text: Arc<str> = Arc::from(json.to_string());
        span = tracer.switch(span, "serve.cache.put", id);
        cache.put(&key, &text);
    }
    // Freeing the request's allocations is work the server does too.
    let span = tracer.switch(span, "serve.request.free", id);
    drop((parsed, body, key, hit));
    span
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_requests_repeat_and_are_all_served() {
        assert_eq!(hot_keys(4), hot_keys(4));
        assert_ne!(hot_keys(4), hot_keys(5));
        assert_eq!(cold_request(4, 17), cold_request(4, 17));
        for r in hot_keys(9).iter().take(64) {
            r.expected().expect("hot request is served");
        }
        for i in 0..200 {
            cold_request(9, i)
                .expected()
                .expect("cold request is served");
        }
    }

    #[test]
    fn untraced_runs_hold_the_reference_rate_and_traced_runs_climb() {
        let job = |trace, seconds| Job {
            kind: Kind::ServeCold,
            seed: 1,
            seconds,
            trace,
            smoke: false,
            setup_only: false,
            server_cpu: None,
        };
        let reference = ladder(Kind::ServeCold).reference_rate();
        let slices = segments(&job(false, 27.0));
        assert_eq!(slices.len(), 14);
        assert!(slices.iter().all(|s| s.rate == reference));
        let total: f64 = slices.iter().map(|s| s.seconds).sum();
        assert!((total - 27.0).abs() < 1e-9, "{total}");
        assert_eq!(segments(&job(false, 0.5)).len(), 1);
        let rungs = segments(&job(true, 20.0));
        let rates: Vec<f64> = rungs.iter().map(|s| s.rate).collect();
        assert_eq!(rates, ladder(Kind::ServeCold).rates);
    }

    #[test]
    fn hot_keys_give_every_seed_the_same_endpoint_mix() {
        let endpoints =
            |seed| -> Vec<Endpoint> { hot_keys(seed).iter().map(|k| k.endpoint).collect() };
        assert_eq!(endpoints(1), endpoints(2));
    }

    #[test]
    fn replay_hits_a_warm_cache_and_fills_a_cold_one() {
        let keys = hot_keys(2);
        let requests: Vec<&Request> = keys.iter().take(8).collect();
        let wires: Vec<Vec<u8>> = requests.iter().map(|r| r.wire()).collect();
        let cache = ResultCache::new(DEFAULT_BUDGET_BYTES);
        let mut tracer = Tracer::new(true);
        replay_pass(&requests, &wires, &cache, &mut tracer);
        assert_eq!(cache.stats().misses, 8);
        assert_eq!(cache.stats().entries, 8);
        replay_pass(&requests, &wires, &cache, &mut tracer);
        assert_eq!(cache.stats().hits, 8);
        let handled = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "serve.api.handler")
            .count();
        assert_eq!(handled, 8, "only the cold pass runs the handler");
    }
}
