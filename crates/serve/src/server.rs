//! The daemon: a nonblocking epoll reactor, a small worker pool for model
//! solves, and the cache/metrics/single-flight glue.
//!
//! One **reactor thread** owns every connection. It waits on an
//! [`Epoll`] instance (via `memsense-epoll`, raw syscalls, no external
//! crates) with the listener registered level-triggered and every accepted
//! connection registered edge-triggered (`EPOLLIN | EPOLLOUT | EPOLLRDHUP |
//! EPOLLET`). Each connection is a small state machine: bytes accumulate in
//! a read buffer and are parsed incrementally with
//! [`parse_request`](crate::http::parse_request) (partial heads and bodies
//! simply wait for more bytes), responses accumulate in a write queue that
//! is flushed as far as the socket allows. A blocked keep-alive connection
//! therefore costs one map entry — not a parked thread, which is what the
//! previous thread-per-connection design paid (and why it collapsed under
//! hundreds of concurrent connections on small machines: the kernel spent
//! its time context-switching stacks, not serving requests).
//!
//! Model endpoints (`POST /v1/*`) never run on the reactor thread. On a
//! cache miss the request is handed to a fixed **worker pool** over a
//! channel; workers push completions into a vector and ring an
//! [`EventFd`] the reactor waits on. Fast endpoints (`/healthz`,
//! `/metrics`, cache hits, 4xx/5xx) are answered inline.
//!
//! The reactor thread alone admits requests, so it owns the request state
//! outright — the single-flight table, the result cache, and the metrics
//! registry — and touches none of it through a shared lock. Workers share
//! only the stream-session registry and the shutdown flag.
//!
//! Every model request derives its cache key one way: parse the body, then
//! canonicalize it, giving `"{method} {path}#{canonical body}"`. A
//! [`SingleFlight`] table keyed by that key guarantees that N concurrent
//! identical requests perform **exactly one** model solve (and exactly one
//! cache miss) — the first admission leads, the rest join and share the
//! lead's response behind an `Arc<str>`, byte-identical and copy-free.
//!
//! Caching: successful `POST /v1/*` responses are stored in the
//! content-addressed [`ResultCache`] under the same key. A hit skips the
//! model entirely and returns the original body byte-for-byte, and aliases
//! the request's raw bytes to the entry: a byte-identical repeat is then
//! answered before its body is parsed at all.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use memsense_epoll::{Epoll, EventFd, EPOLLET, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use memsense_experiments::json::Json;

use crate::api::{self, error_body, ApiError, SweepKind};
use crate::cache::{ResultCache, DEFAULT_BUDGET_BYTES};
use crate::flight::{Admission, SingleFlight};
use crate::http::{
    chunk_frame, chunked_head, is_idle_read_error, parse_request, response_head, write_response,
    Parse, Request, Response, CHUNKED_TERMINATOR,
};
use crate::metrics::Metrics;
use crate::streams::{StreamRegistry, UpdatesPoll, SESSION_IDLE_TIMEOUT};

/// Accept backlog requested at startup (kernel-capped by
/// `net.core.somaxconn`); sized for synchronized herds of benchmark clients.
const LISTEN_BACKLOG: u32 = 1024;

/// How long a keep-alive connection may sit idle before being dropped.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long shutdown waits for queued response bytes to drain before the
/// reactor exits anyway.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// epoll token of the listener (level-triggered).
const TOKEN_LISTENER: u64 = 0;
/// epoll token of the cross-thread wakeup eventfd (level-triggered).
const TOKEN_WAKE: u64 = 1;
/// First token handed to an accepted connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Most simultaneously open connections; excess get a 503. `0` = 256.
    pub max_connections: usize,
    /// Result-cache byte budget.
    pub cache_budget: usize,
    /// Model-solve worker threads. `0` = auto: the machine's available
    /// parallelism clamped to `2..=8` (the reactor needs at least one worker
    /// making progress while another is mid-solve, and past a handful the
    /// sweep fan-out inside `memsense_experiments::executor` is the real
    /// parallelism knob).
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 0,
            cache_budget: DEFAULT_BUDGET_BYTES,
            workers: 0,
        }
    }
}

/// State shared by the reactor, the workers, and the [`Server`] handle.
struct State {
    streams: StreamRegistry,
    shutdown: AtomicBool,
}

/// A running daemon; dropping the handle does not stop it — call
/// [`Server::stop`] or POST `/v1/admin/shutdown`.
pub struct Server {
    addr: SocketAddr,
    state: Arc<State>,
    wake: Arc<EventFd>,
    reactor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the reactor thread and the worker pool, and returns.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener or creating the epoll/eventfd
    /// kernel objects (including `Unsupported` on non-Linux targets).
    pub fn start(config: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        // std hardcodes a listen backlog of 128, which a synchronized herd of
        // a few hundred connects overflows before the reactor is scheduled
        // (the victims see RST on their first write). Widen it; best-effort
        // because the stub syscall layer reports Unsupported off Linux and
        // the bound-but-short backlog still works for small fleets.
        let _ = memsense_epoll::widen_listen_backlog(&listener, LISTEN_BACKLOG);
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let max_connections = if config.max_connections == 0 {
            256
        } else {
            config.max_connections
        };
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .clamp(2, 8)
        } else {
            config.workers
        };

        let state = Arc::new(State {
            streams: StreamRegistry::new(),
            shutdown: AtomicBool::new(false),
        });
        let wake = Arc::new(EventFd::new()?);
        let epoll = Epoll::new(512)?;
        epoll.add(&listener, TOKEN_LISTENER, EPOLLIN)?;
        epoll.add(wake.as_ref(), TOKEN_WAKE, EPOLLIN)?;

        let (jobs, job_rx) = std::sync::mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
        let mut worker_handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let job_rx = Arc::clone(&job_rx);
            let completions = Arc::clone(&completions);
            let wake = Arc::clone(&wake);
            let state = Arc::clone(&state);
            worker_handles.push(std::thread::spawn(move || {
                worker_loop(&job_rx, &completions, &wake, &state);
            }));
        }

        let reactor = Reactor {
            epoll,
            wake: Arc::clone(&wake),
            listener: Some(listener),
            conns: BTreeMap::new(),
            next_token: TOKEN_FIRST_CONN,
            max_connections,
            requests: Requests {
                state: Arc::clone(&state),
                flight: SingleFlight::new(),
                cache: ResultCache::new(config.cache_budget),
                metrics: Metrics::new(),
                jobs,
            },
            completions,
            workers: worker_handles,
        };
        let handle = std::thread::spawn(move || reactor.run());

        Ok(Server {
            addr,
            state,
            wake,
            reactor: Some(handle),
        })
    }

    /// The bound address (useful with `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and wakes the reactor so it notices immediately.
    pub fn stop(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.wake.notify();
    }

    /// Waits for the reactor thread to finish. The reactor drains in-flight
    /// model work and flushes queued response bytes (bounded by a grace
    /// period) before exiting, and joins its worker pool on the way out.
    pub fn join(&mut self) {
        if let Some(handle) = self.reactor.take() {
            // memsense-lint: allow(reactor-no-blocking-call) — name-resolution over-approximation: Server::join runs on the owner thread, never on the reactor (the reactor cannot join itself)
            let _ = handle.join();
        }
    }

    /// Whether shutdown has been requested (via [`Server::stop`] or the
    /// `/v1/admin/shutdown` endpoint).
    pub fn shutdown_requested(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }
}

/// A computation handed to the worker pool.
struct Job {
    reply: Reply,
    work: Work,
}

/// Where a finished computation's response goes.
///
/// Cacheable model work fans out through the single-flight table by key;
/// stream work is sessionful (two identical requests mutate state twice), so
/// its response goes straight back to the one connection that asked —
/// never near the cache or the flight table.
enum Reply {
    /// Fan out to every waiter admitted under this single-flight key.
    Flight(String),
    /// Deliver directly to one connection token.
    Conn(u64),
}

/// What the worker actually runs.
enum Work {
    /// A stateless model endpoint (cacheable, single-flighted).
    Model { body: Json, endpoint: Endpoint },
    /// `POST /v1/stream/open` — may solve a full grid; too slow for the
    /// reactor thread.
    StreamOpen { body: Json },
    /// `POST /v1/stream/{id}/delta` — may re-solve dirty cells.
    StreamDelta { id: u64, body: Json },
}

/// A finished computation, pushed by a worker for the reactor to fan out.
struct Completion {
    reply: Reply,
    status: u16,
    body: String,
}

/// The model-backed endpoints (everything the worker pool can run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Solve,
    SweepBandwidth,
    SweepLatency,
    Equivalence,
    Capacity,
    Plan,
}

impl Endpoint {
    fn from_path(path: &str) -> Option<Endpoint> {
        match path {
            "/v1/solve" => Some(Endpoint::Solve),
            "/v1/sweep/bandwidth" => Some(Endpoint::SweepBandwidth),
            "/v1/sweep/latency" => Some(Endpoint::SweepLatency),
            "/v1/equivalence" => Some(Endpoint::Equivalence),
            "/v1/capacity" => Some(Endpoint::Capacity),
            "/v1/plan" => Some(Endpoint::Plan),
            _ => None,
        }
    }

    /// Metrics label (the request path).
    fn label(self) -> &'static str {
        match self {
            Endpoint::Solve => "/v1/solve",
            Endpoint::SweepBandwidth => "/v1/sweep/bandwidth",
            Endpoint::SweepLatency => "/v1/sweep/latency",
            Endpoint::Equivalence => "/v1/equivalence",
            Endpoint::Capacity => "/v1/capacity",
            Endpoint::Plan => "/v1/plan",
        }
    }

    /// Runs the model for this endpoint (worker-pool side).
    fn run(self, body: &Json) -> Result<Json, ApiError> {
        match self {
            Endpoint::Solve => api::solve(body),
            Endpoint::SweepBandwidth => api::sweep(SweepKind::Bandwidth, body),
            Endpoint::SweepLatency => api::sweep(SweepKind::Latency, body),
            Endpoint::Equivalence => api::equivalence_endpoint(body),
            Endpoint::Capacity => api::capacity(body),
            Endpoint::Plan => api::plan_endpoint(body),
        }
    }
}

/// One queued slice of response bytes. Large cached bodies are shared
/// (`Arc<str>` refcount bump), never copied per connection.
enum Chunk {
    Owned(Vec<u8>),
    Shared(Arc<str>),
}

impl Chunk {
    fn as_bytes(&self) -> &[u8] {
        match self {
            Chunk::Owned(bytes) => bytes,
            Chunk::Shared(text) => text.as_bytes(),
        }
    }
}

/// Bookkeeping for a request parked on the worker pool (lead or joined).
struct Waiting {
    keep_alive: bool,
    started: Instant,
    /// Metrics label (the endpoint path).
    label: &'static str,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed by a complete request.
    rbuf: Vec<u8>,
    /// Response bytes not yet accepted by the socket.
    out: VecDeque<Chunk>,
    /// Progress into `out.front()`.
    out_pos: usize,
    /// `Some` while a model solve for this connection is in flight; request
    /// handling is serial per connection, so parsing pauses until fan-out.
    waiting: Option<Waiting>,
    /// Close once `out` drains (error teardown or `Connection: close`).
    close_after_flush: bool,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            out: VecDeque::new(),
            out_pos: 0,
            waiting: None,
            close_after_flush: false,
            last_activity: Instant::now(),
        }
    }
}

/// The reactor: owns the epoll instance, every connection, and the request
/// state. Runs on its own thread until shutdown.
struct Reactor {
    epoll: Epoll,
    wake: Arc<EventFd>,
    listener: Option<TcpListener>,
    conns: BTreeMap<u64, Conn>,
    next_token: u64,
    max_connections: usize,
    requests: Requests,
    completions: Arc<Mutex<Vec<Completion>>>,
    workers: Vec<JoinHandle<()>>,
}

/// What request handling needs besides the connection: held apart from
/// `Reactor::conns` so a connection and this state can be borrowed at once.
/// Only the reactor thread uses it; of its parts, only `state` is shared
/// with the workers.
struct Requests {
    state: Arc<State>,
    flight: SingleFlight,
    cache: ResultCache,
    metrics: Metrics,
    jobs: Sender<Job>,
}

impl Requests {
    /// Records metrics for an inline response and queues its bytes.
    fn respond(
        &mut self,
        conn: &mut Conn,
        endpoint: &'static str,
        response: &Response,
        started: Instant,
        keep_alive: bool,
    ) {
        self.metrics
            .record(endpoint, response.status, started.elapsed());
        queue_response(conn, response, keep_alive);
        if !keep_alive {
            conn.close_after_flush = true;
        }
    }

    /// Records metrics for a cache hit and queues the shared body.
    fn answer_hit(
        &mut self,
        conn: &mut Conn,
        endpoint: &'static str,
        body: &Arc<str>,
        started: Instant,
        keep_alive: bool,
    ) {
        self.metrics.record(endpoint, 200, started.elapsed());
        queue_shared(conn, 200, body, keep_alive);
        if !keep_alive {
            conn.close_after_flush = true;
        }
    }
}

impl Reactor {
    fn run(mut self) {
        let mut events = Vec::new();
        let mut last_sweep = Instant::now();
        let mut shutdown_at: Option<Instant> = None;
        loop {
            // memsense-lint: allow(reactor-no-blocking-call) — epoll_wait is the event loop's one designed block point: parked here means idle, not stalled
            if self.epoll.wait(&mut events, 1000).is_err() {
                break;
            }
            for event in &events {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => {
                        self.wake.drain();
                    }
                    token => self.pump(token),
                }
            }
            self.drain_completions();

            if self.requests.state.shutdown.load(Ordering::SeqCst) {
                // Stop accepting; deliver what is owed, then leave.
                if let Some(listener) = self.listener.take() {
                    let _ = self.epoll.delete(&listener);
                }
                let deadline = *shutdown_at.get_or_insert_with(Instant::now);
                let owes = !self.requests.flight.is_empty()
                    || self
                        .conns
                        .values()
                        .any(|c| !c.out.is_empty() || c.waiting.is_some());
                if !owes || deadline.elapsed() > SHUTDOWN_GRACE {
                    break;
                }
            }

            if last_sweep.elapsed() >= Duration::from_secs(1) {
                last_sweep = Instant::now();
                let stale: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| {
                        c.waiting.is_none() && c.last_activity.elapsed() > IDLE_TIMEOUT
                    })
                    .map(|(&token, _)| token)
                    .collect();
                for token in stale {
                    self.conns.remove(&token);
                }
                // Stream sessions ride the same sweep, on their own (much
                // longer) timeout: clients poll updates between batches, so
                // a session outlives any one connection.
                self.requests.state.streams.evict_idle(SESSION_IDLE_TIMEOUT);
            }
        }
        // Teardown: dropping the job sender makes every worker's `recv` fail,
        // so the pool drains and exits; join it so no thread outlives `run`.
        let Reactor {
            requests,
            workers,
            conns,
            ..
        } = self;
        drop(conns);
        drop(requests);
        for handle in workers {
            // memsense-lint: allow(reactor-no-blocking-call) — shutdown teardown: the event loop has already exited and the dropped job queue unblocks every worker
            let _ = handle.join();
        }
    }

    /// Accepts until the listener would block. Over-cap connections get a
    /// one-shot 503 on the still-blocking socket and are dropped.
    fn accept_ready(&mut self) {
        loop {
            let accepted = match self.listener.as_ref() {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((mut stream, _)) => {
                    if self.requests.state.shutdown.load(Ordering::SeqCst) {
                        continue;
                    }
                    if self.conns.len() >= self.max_connections {
                        let response = Response {
                            status: 503,
                            body: error_body("connection limit reached"),
                        };
                        let _ = write_response(&mut stream, &response, false);
                        continue;
                    }
                    // Responses are written as head + body; without nodelay,
                    // Nagle plus delayed ACKs can add ~40 ms per response.
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .epoll
                        .add(&stream, token, EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(token, Conn::new(stream));
                    // Edge-triggered: data may already be buffered; pump now.
                    self.pump(token);
                }
                Err(e) if is_idle_read_error(&e) => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Drives one connection as far as it can go without blocking: flush
    /// queued output, parse and dispatch buffered requests, read fresh
    /// bytes. Drops the connection on transport errors or clean teardown.
    fn pump(&mut self, token: u64) {
        let Reactor {
            conns,
            requests,
            wake,
            ..
        } = self;
        let Some(conn) = conns.get_mut(&token) else {
            return;
        };

        let mut alive = flush(conn);
        while alive && conn.waiting.is_none() && !conn.close_after_flush {
            match parse_request(&conn.rbuf) {
                Parse::Partial => match read_some(conn) {
                    ReadOutcome::Data => continue,
                    ReadOutcome::WouldBlock => break,
                    ReadOutcome::Closed => {
                        if conn.rbuf.iter().any(|&b| b != b'\r' && b != b'\n') {
                            // Mid-request hangup of the write half: the read
                            // side may still be open, so report it.
                            queue_response(
                                conn,
                                &Response {
                                    status: 400,
                                    body: error_body("truncated request head"),
                                },
                                false,
                            );
                        }
                        conn.close_after_flush = true;
                        break;
                    }
                    ReadOutcome::Error => {
                        alive = false;
                        break;
                    }
                },
                Parse::Bad(status, message) => {
                    conn.rbuf.clear();
                    queue_response(
                        conn,
                        &Response {
                            status,
                            body: error_body(message),
                        },
                        false,
                    );
                    conn.close_after_flush = true;
                }
                Parse::Complete(request, consumed) => {
                    conn.rbuf.drain(..consumed);
                    dispatch(conn, token, &request, requests, wake);
                }
            }
        }
        if alive {
            alive = flush(conn);
        }
        if !alive || (conn.out.is_empty() && conn.close_after_flush) {
            // Dropping the stream closes the fd, which deregisters it from
            // epoll implicitly.
            conns.remove(&token);
        }
    }

    /// Fans finished worker computations out to their waiters (lead and
    /// joined alike share one `Arc<str>` body) and resumes those
    /// connections.
    fn drain_completions(&mut self) {
        let completions = {
            // memsense-lint: allow(reactor-no-blocking-call) — workers hold this lock only to push one completion record; the exchange is a bounded Vec swap
            let Ok(mut guard) = self.completions.lock() else {
                return;
            };
            std::mem::take(&mut *guard)
        };
        for done in completions {
            match done.reply {
                Reply::Flight(key) => self.fan_out(&key, done.status, &done.body),
                Reply::Conn(token) => self.deliver(token, done.status, &done.body),
            }
        }
    }

    /// Completes a single-flight key: caches a 200, then hands the shared
    /// body to every admitted waiter.
    fn fan_out(&mut self, key: &str, status: u16, body: &str) {
        let body: Arc<str> = Arc::from(body);
        if status == 200 {
            self.requests.cache.put(key, &body);
        }
        let waiters = self.requests.flight.complete(key);
        for &waiter in &waiters {
            let Some(conn) = self.conns.get_mut(&waiter) else {
                continue;
            };
            let Some(waiting) = conn.waiting.take() else {
                continue;
            };
            self.requests
                .metrics
                .record(waiting.label, status, waiting.started.elapsed());
            queue_shared(conn, status, &body, waiting.keep_alive);
            if !waiting.keep_alive {
                conn.close_after_flush = true;
            }
            conn.last_activity = Instant::now();
        }
        for waiter in waiters {
            self.pump(waiter);
        }
    }

    /// Delivers a sessionful (stream) completion straight to its one
    /// connection — no caching, no fan-out.
    fn deliver(&mut self, token: u64, status: u16, body: &str) {
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let Some(waiting) = conn.waiting.take() else {
                return;
            };
            self.requests
                .metrics
                .record(waiting.label, status, waiting.started.elapsed());
            queue_response(
                conn,
                &Response {
                    status,
                    body: body.to_string(),
                },
                waiting.keep_alive,
            );
            if !waiting.keep_alive {
                conn.close_after_flush = true;
            }
            conn.last_activity = Instant::now();
        }
        self.pump(token);
    }
}

/// Routes one parsed request. Fast endpoints (and every error) are answered
/// inline; model endpoints consult the cache and otherwise enter the
/// single-flight table, parking the connection until a worker completes.
fn dispatch(
    conn: &mut Conn,
    token: u64,
    request: &Request,
    requests: &mut Requests,
    wake: &EventFd,
) {
    // Decided before any route side effect: the response that *requests*
    // shutdown still says keep-alive; every request parsed after the flag is
    // set closes.
    let state = &requests.state;
    let keep_alive = !request.wants_close() && !state.shutdown.load(Ordering::SeqCst);
    let started = Instant::now();
    let path = request.path.as_str();

    // Session-bearing endpoints are routed around the result cache and the
    // single-flight table entirely: their responses depend on mutable
    // session state, so byte-identical requests must each execute.
    if bypasses_result_cache(path) {
        dispatch_stream(conn, token, request, requests, keep_alive, started);
        return;
    }
    if let Some(endpoint) = Endpoint::from_path(path).filter(|_| request.method == "POST") {
        dispatch_model(
            conn, token, request, requests, endpoint, keep_alive, started,
        );
        return;
    }

    let (label, response) = match (request.method.as_str(), path) {
        ("GET", "/healthz") => (
            "/healthz",
            Response::ok(Json::obj(vec![("status", Json::str("ok"))]).to_string()),
        ),
        ("GET", "/metrics") => (
            "/metrics",
            Response::ok(
                requests
                    .metrics
                    .to_json(
                        requests.cache.stats(),
                        requests.flight.snapshot(),
                        state.streams.snapshot(),
                    )
                    .to_string(),
            ),
        ),
        ("POST", "/v1/admin/shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            wake.notify();
            (
                "/v1/admin/shutdown",
                Response::ok(Json::obj(vec![("status", Json::str("shutting-down"))]).to_string()),
            )
        }
        (_, "/healthz" | "/metrics") | ("GET" | "PUT" | "DELETE" | "HEAD" | "PATCH", _)
            if known_path(path) =>
        {
            (
                "other",
                Response {
                    status: 405,
                    body: error_body("method not allowed for this endpoint"),
                },
            )
        }
        _ => (
            "other",
            Response {
                status: 404,
                body: error_body(&format!("no such endpoint: {path}")),
            },
        ),
    };
    requests.respond(conn, label, &response, started, keep_alive);
}

/// Routes one model-endpoint request: answers a cached raw-bytes alias
/// inline, else parses and canonicalizes the body into the cache key,
/// answers a cache hit inline, and otherwise joins or leads a single flight.
fn dispatch_model(
    conn: &mut Conn,
    token: u64,
    request: &Request,
    requests: &mut Requests,
    endpoint: Endpoint,
    keep_alive: bool,
    started: Instant,
) {
    let label = endpoint.label();
    // A byte-identical repeat of a request whose response is cached is
    // answered by its alias, skipping the parse and the canonical key.
    let raw = [
        request.method.as_bytes(),
        b" ",
        request.path.as_bytes(),
        b"\n",
        &request.body,
    ]
    .concat();
    if let Some(hit) = requests.cache.get_alias(&raw) {
        requests.answer_hit(conn, label, &hit, started, keep_alive);
        return;
    }
    let body = match parse_model_body(&request.body) {
        Ok(body) => body,
        Err(response) => {
            requests.respond(conn, label, &response, started, keep_alive);
            return;
        }
    };
    let key = format!("{} {}#{}", request.method, request.path, body.canonical());
    let waiting = Waiting {
        keep_alive,
        started,
        label,
    };
    // In-flight check BEFORE the cache: joiners must not touch the cache at
    // all, so N concurrent identical requests record exactly one miss (the
    // lead's) no matter how they interleave.
    if requests.flight.is_inflight(&key) {
        let admission = requests.flight.admit(&key, token);
        debug_assert_eq!(admission, Admission::Joined);
        conn.waiting = Some(waiting);
        return;
    }
    if let Some(hit) = requests.cache.get(&key) {
        requests.cache.alias(&raw, &key);
        requests.answer_hit(conn, label, &hit, started, keep_alive);
        return;
    }
    if requests.flight.admit(&key, token) == Admission::Lead
        && requests
            .jobs
            .send(Job {
                reply: Reply::Flight(key.clone()),
                work: Work::Model { body, endpoint },
            })
            .is_err()
    {
        // Worker pool gone (shutdown race): answer directly.
        requests.flight.complete(&key);
        let response = Response {
            status: 503,
            body: error_body("server is shutting down"),
        };
        requests.respond(conn, label, &response, started, keep_alive);
        return;
    }
    conn.waiting = Some(waiting);
}

/// Whether `path` belongs to the session-bearing route family that must
/// never be served from the result cache or coalesced by the single-flight
/// table. Stream requests mutate per-session state, so two byte-identical
/// `POST .../delta` requests must both execute — serving the second from
/// the cache (or joining it to the first's solve) would silently drop ops.
pub fn bypasses_result_cache(path: &str) -> bool {
    path == "/v1/stream" || path.starts_with("/v1/stream/")
}

/// A parsed `/v1/stream/...` route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamRoute {
    Open,
    Delta(u64),
    Updates(u64),
}

impl StreamRoute {
    fn from_path(path: &str) -> Option<StreamRoute> {
        let rest = path.strip_prefix("/v1/stream/")?;
        if rest == "open" {
            return Some(StreamRoute::Open);
        }
        let (id, tail) = rest.split_once('/')?;
        let id: u64 = id.parse().ok()?;
        match tail {
            "delta" => Some(StreamRoute::Delta(id)),
            "updates" => Some(StreamRoute::Updates(id)),
            _ => None,
        }
    }
}

/// Routes one `/v1/stream/...` request. Open/delta run on the worker pool
/// (they solve grid cells) with the response delivered straight back to
/// this connection; updates drains the session's buffer inline and streams
/// it as chunked NDJSON — the first consumer of the reactor's queued-write
/// machinery that is not a single `Content-Length` body.
fn dispatch_stream(
    conn: &mut Conn,
    token: u64,
    request: &Request,
    requests: &mut Requests,
    keep_alive: bool,
    started: Instant,
) {
    let route = StreamRoute::from_path(&request.path);
    let method = request.method.as_str();
    let (label, work) = match (method, route) {
        ("POST", Some(StreamRoute::Open)) => ("/v1/stream/open", None),
        ("POST", Some(StreamRoute::Delta(id))) => ("/v1/stream/delta", Some(id)),
        ("GET", Some(StreamRoute::Updates(id))) => {
            // Served inline on the reactor thread, so the drain must never
            // wait on the session lock (a worker mid-delta holds it across
            // the whole solve): the registry uses try_lock and a busy
            // session answers 503 retry instead of stalling every
            // connection on the server.
            let response = match requests.state.streams.take_updates(id) {
                UpdatesPoll::Unknown => {
                    requests.respond(
                        conn,
                        "/v1/stream/updates",
                        &Response {
                            status: 404,
                            body: error_body(&format!("no such session: {id}")),
                        },
                        started,
                        keep_alive,
                    );
                    return;
                }
                UpdatesPoll::Busy => {
                    requests.respond(
                        conn,
                        "/v1/stream/updates",
                        &Response {
                            status: 503,
                            body: error_body(&format!(
                                "session {id} is busy applying a delta; retry"
                            )),
                        },
                        started,
                        keep_alive,
                    );
                    return;
                }
                UpdatesPoll::Drained(updates) => updates,
            };
            let mut bytes = chunked_head(200, keep_alive).into_bytes();
            for update in &response {
                bytes.extend_from_slice(chunk_frame(&format!("{}\n", update.body)).as_bytes());
            }
            bytes.extend_from_slice(CHUNKED_TERMINATOR.as_bytes());
            requests
                .metrics
                .record("/v1/stream/updates", 200, started.elapsed());
            conn.out.push_back(Chunk::Owned(bytes));
            if !keep_alive {
                conn.close_after_flush = true;
            }
            return;
        }
        (_, Some(_)) => {
            requests.respond(
                conn,
                "other",
                &Response {
                    status: 405,
                    body: error_body("method not allowed for this endpoint"),
                },
                started,
                keep_alive,
            );
            return;
        }
        (_, None) => {
            requests.respond(
                conn,
                "other",
                &Response {
                    status: 404,
                    body: error_body(&format!("no such endpoint: {}", request.path)),
                },
                started,
                keep_alive,
            );
            return;
        }
    };

    let body = match parse_model_body(&request.body) {
        Ok(body) => body,
        Err(response) => {
            requests.respond(conn, label, &response, started, keep_alive);
            return;
        }
    };
    let job = Job {
        reply: Reply::Conn(token),
        work: match work {
            None => Work::StreamOpen { body },
            Some(id) => Work::StreamDelta { id, body },
        },
    };
    if requests.jobs.send(job).is_err() {
        let response = Response {
            status: 503,
            body: error_body("server is shutting down"),
        };
        requests.respond(conn, label, &response, started, keep_alive);
        return;
    }
    conn.waiting = Some(Waiting {
        keep_alive,
        started,
        label,
    });
}

/// Parses a model-endpoint request body (empty = `{}`), mapping failures to
/// the exact 400 responses the route has always produced.
fn parse_model_body(raw: &[u8]) -> Result<Json, Response> {
    if raw.is_empty() {
        return Ok(Json::obj(Vec::new()));
    }
    let text = std::str::from_utf8(raw).map_err(|_| Response {
        status: 400,
        body: error_body("request body must be UTF-8"),
    })?;
    Json::parse(text).map_err(|e| Response {
        status: 400,
        body: error_body(&format!("invalid JSON: {e}")),
    })
}

fn known_path(path: &str) -> bool {
    matches!(
        path,
        "/healthz"
            | "/metrics"
            | "/v1/solve"
            | "/v1/sweep/bandwidth"
            | "/v1/sweep/latency"
            | "/v1/equivalence"
            | "/v1/capacity"
            | "/v1/plan"
            | "/v1/admin/shutdown"
    )
}

/// Queues head + body as one owned chunk (inline responses are small).
fn queue_response(conn: &mut Conn, response: &Response, keep_alive: bool) {
    let mut bytes = response_head(response.status, response.body.len(), keep_alive).into_bytes();
    bytes.extend_from_slice(response.body.as_bytes());
    conn.out.push_back(Chunk::Owned(bytes));
}

/// Queues a (possibly large, possibly multiply-fanned-out) shared body:
/// only the head is owned; the body is an `Arc<str>` refcount bump.
fn queue_shared(conn: &mut Conn, status: u16, body: &Arc<str>, keep_alive: bool) {
    // Small responses go out as one owned chunk: a ≤16 KiB memcpy costs less
    // than the extra write(2) the split head/body representation would take.
    const INLINE_BODY_LIMIT: usize = 16 * 1024;
    let head = response_head(status, body.len(), keep_alive);
    if body.len() <= INLINE_BODY_LIMIT {
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(body.as_bytes());
        conn.out.push_back(Chunk::Owned(bytes));
    } else {
        conn.out.push_back(Chunk::Owned(head.into_bytes()));
        conn.out.push_back(Chunk::Shared(Arc::clone(body)));
    }
}

/// Writes queued chunks until the socket would block or the queue drains.
/// Returns `false` when the connection died.
fn flush(conn: &mut Conn) -> bool {
    while let Some(front) = conn.out.front() {
        let bytes = front.as_bytes();
        match conn.stream.write(&bytes[conn.out_pos..]) {
            Ok(0) => return false,
            Ok(n) => {
                conn.out_pos += n;
                conn.last_activity = Instant::now();
                if conn.out_pos == bytes.len() {
                    conn.out.pop_front();
                    conn.out_pos = 0;
                }
            }
            Err(e) if is_idle_read_error(&e) => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

/// Outcome of one nonblocking read attempt.
enum ReadOutcome {
    /// Fresh bytes landed in `rbuf`.
    Data,
    /// Nothing buffered; wait for the next readiness edge.
    WouldBlock,
    /// Peer closed its write half (clean end-of-stream).
    Closed,
    /// Transport failure; tear the connection down.
    Error,
}

/// Reads once into the connection's buffer.
fn read_some(conn: &mut Conn) -> ReadOutcome {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Closed,
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                conn.last_activity = Instant::now();
                return ReadOutcome::Data;
            }
            Err(e) if is_idle_read_error(&e) => return ReadOutcome::WouldBlock,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::Error,
        }
    }
}

/// Worker-pool body: pull jobs until the channel closes, run the work, and
/// post the completion for the reactor to fan out.
fn worker_loop(
    jobs: &Mutex<Receiver<Job>>,
    completions: &Mutex<Vec<Completion>>,
    wake: &EventFd,
    state: &State,
) {
    loop {
        let job = {
            let Ok(rx) = jobs.lock() else { return };
            match rx.recv() {
                Ok(job) => job,
                Err(_) => return,
            }
        };
        let (status, body) = match job.work {
            Work::Model { body, endpoint } => match endpoint.run(&body) {
                Ok(json) => (200, json.to_string()),
                Err(e) => (e.status, e.body()),
            },
            Work::StreamOpen { body } => state.streams.open(&body),
            Work::StreamDelta { id, body } => state.streams.delta(id, &body),
        };
        if let Ok(mut done) = completions.lock() {
            done.push(Completion {
                reply: job.reply,
                status,
                body,
            });
        }
        wake.notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_bypass_covers_exactly_the_stream_family() {
        // Session-bearing endpoints must never be cache-served or coalesced.
        assert!(bypasses_result_cache("/v1/stream/open"));
        assert!(bypasses_result_cache("/v1/stream/7/delta"));
        assert!(bypasses_result_cache("/v1/stream/7/updates"));
        // Even unroutable stream-prefixed paths bypass: they 404 in the
        // stream dispatcher, not through the cached route.
        assert!(bypasses_result_cache("/v1/stream"));
        assert!(bypasses_result_cache("/v1/stream/nope"));
        // Stateless endpoints keep the cache.
        assert!(!bypasses_result_cache("/v1/solve"));
        assert!(!bypasses_result_cache("/v1/sweep/bandwidth"));
        assert!(!bypasses_result_cache("/v1/plan"));
        assert!(!bypasses_result_cache("/metrics"));
        // Prefix means path segments, not string prefix of another route.
        assert!(!bypasses_result_cache("/v1/streaming"));
    }

    #[test]
    fn stream_routes_parse_ids_and_reject_junk() {
        assert_eq!(
            StreamRoute::from_path("/v1/stream/open"),
            Some(StreamRoute::Open)
        );
        assert_eq!(
            StreamRoute::from_path("/v1/stream/42/delta"),
            Some(StreamRoute::Delta(42))
        );
        assert_eq!(
            StreamRoute::from_path("/v1/stream/1/updates"),
            Some(StreamRoute::Updates(1))
        );
        assert_eq!(StreamRoute::from_path("/v1/stream"), None);
        assert_eq!(StreamRoute::from_path("/v1/stream/"), None);
        assert_eq!(StreamRoute::from_path("/v1/stream/x/delta"), None);
        assert_eq!(StreamRoute::from_path("/v1/stream/1/nope"), None);
        assert_eq!(StreamRoute::from_path("/v1/stream/1"), None);
    }
}
