//! `memsense-serve` — the calibrated model as a service.
//!
//! The ROADMAP's north star is a system that answers memory-subsystem
//! what-if queries for heavy interactive traffic; hyperscalers ask exactly
//! these latency/bandwidth-sensitivity and capacity-planning questions as an
//! online service over calibrated models. The Eq. 1–5 machinery in
//! `memsense-model` solves in microseconds, so this crate puts it behind a
//! dependency-free HTTP/1.1 daemon:
//!
//! | endpoint                  | answers                                        |
//! |---------------------------|------------------------------------------------|
//! | `POST /v1/solve`          | fixed-point CPI solve with regime + CPI stack  |
//! | `POST /v1/sweep/bandwidth`| Fig. 8-style per-core bandwidth sweep          |
//! | `POST /v1/sweep/latency`  | Fig. 10-style compulsory-latency sweep         |
//! | `POST /v1/equivalence`    | Tab. 7 latency ⇄ bandwidth equivalence         |
//! | `POST /v1/capacity`       | capacity planning over candidate memory configs|
//! | `POST /v1/plan`           | fleet-scale plan: design-space search vs SLAs  |
//! | `POST /v1/stream/open`    | open an incremental sweep session              |
//! | `POST /v1/stream/{id}/delta` | submit batched grid deltas to a session     |
//! | `GET /v1/stream/{id}/updates`| drain per-batch updates (chunked NDJSON)    |
//! | `GET /healthz`            | liveness                                       |
//! | `GET /metrics`            | request counts, latency percentiles, cache     |
//! | `POST /v1/admin/shutdown` | clean shutdown                                 |
//!
//! Architecture (all `std`; the only non-`std` code is the raw-syscall
//! `memsense-epoll` workspace crate):
//!
//! * [`http`] — a minimal, limit-enforcing HTTP/1.1 codec with two front
//!   ends over one head parser: a blocking reader (bench client, tests) and
//!   an incremental parser the reactor drives over accumulating buffers
//!   (partial heads/bodies simply wait for more bytes).
//! * [`server`] — a nonblocking epoll reactor: one thread owns every
//!   connection as an edge-triggered state machine, and model solves run on
//!   a small worker pool so the reactor never blocks. Model fan-out inside
//!   a request (sweeps over many workloads, capacity grids) still goes
//!   through `memsense_experiments::executor`, so `MEMSENSE_THREADS` bounds
//!   model parallelism process-wide no matter how many connections are in
//!   flight.
//! * [`flight`] — single-flight coalescing: N concurrent identical requests
//!   trigger exactly one model solve (and exactly one cache miss); the
//!   joiners share the lead's response behind an `Arc<str>`.
//! * [`api`] — JSON request/response conversion over the model, via the
//!   shared `memsense_experiments::json` module (escaping-correct, canonical
//!   floats).
//! * [`cache`] — a content-addressed in-memory result cache:
//!   canonicalized request (method + path + key-sorted body) → response
//!   body behind `Arc<str>`, one LRU under one byte budget (keys, bodies,
//!   and per-entry overhead all charged); repeated sweep queries are
//!   served without re-solving and return byte-identical bodies. A raw
//!   request-bytes alias, charged and evicted with its entry, lets a
//!   byte-identical repeat skip the parse and canonicalization.
//! * [`metrics`] — per-endpoint request counts and nearest-rank latency
//!   percentiles (via `memsense-stats`), plus cache and single-flight
//!   counters.
//! * [`streams`] — the sessionful layer over `memsense-stream`: a registry
//!   of incremental sweep sessions (capped, idle-evicted). Stream endpoints
//!   are the one route family that *bypasses* the result cache and
//!   single-flight table — their responses depend on mutable session state,
//!   not just request bytes (see `server::bypasses_result_cache`).
//! * [`bench`] — a built-in load generator (`memsense-serve bench`) that
//!   drives the server and reports throughput, latency percentiles, and the
//!   cache-hit speedup, so the service layer is self-benchmarkable.
//!   `memsense-bench serve-baseline` drives it to record and gate
//!   `BENCH_serve.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod bench;
pub mod cache;
pub mod flight;
pub mod http;
pub mod metrics;
pub mod server;
pub mod streams;
