//! Open-loop HTTP load over one pipelined keep-alive connection.
//!
//! Requests are sent on a seeded Poisson schedule whether or not earlier
//! ones were answered, as independent users would send them. Latency is
//! timed from the *due* time, so a stall of the server — or of the
//! generator itself — is charged to every request that had to wait for it,
//! and the generator reports how late it sent (`lag`).
//!
//! One thread drives the connection without blocking: it spins, writing
//! each request the moment it is due and reading responses the moment they
//! arrive. A sleeping generator would wake tens of microseconds late (the
//! kernel's timer slack), which is the size of a cache-hit request, so the
//! generator instead needs a CPU of its own beside the server's.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

use crate::rng::Rng;
use crate::stats::percentile;

/// Threads the generator runs.
pub const THREADS: usize = 1;

/// Keep-alive connections the generator holds at once.
pub const CONNECTIONS: usize = 1;

/// CPUs a serve workload needs: one for the spinning generator, one for
/// the server.
pub const CPUS: usize = 2;

/// How long a rung waits for bytes from a server with requests outstanding
/// before counting them failed.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(3);

/// One planned request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// When the request is due, ns after the rung starts.
    pub due_ns: u64,
    /// Index of its bytes in the wire table.
    pub wire: usize,
    /// Keep the response body for the correctness sample.
    pub keep: bool,
}

/// What happened to one request (times in ns after the rung starts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Record {
    /// Due time.
    pub due_ns: u64,
    /// When the write that handed its last byte to the kernel started
    /// (`None`: never sent).
    pub sent_ns: Option<u64>,
    /// When its whole response had arrived (`None`: never answered).
    pub done_ns: Option<u64>,
    /// Response status (0 when unanswered).
    pub status: u16,
}

/// Poisson arrivals at `rate` per second over `duration_s`, as due times.
pub fn poisson_schedule(rate: f64, duration_s: f64, rng: &mut Rng) -> Vec<u64> {
    let mut due = Vec::with_capacity((rate * duration_s * 1.1) as usize + 16);
    let mut t = rng.exp_gap(rate);
    while t < duration_s {
        due.push((t * 1e9) as u64);
        t += rng.exp_gap(rate);
    }
    due
}

/// Everything one rung produced: per-request records, plus the bodies of
/// the requests marked `keep`, as `(plan index, body)`.
#[derive(Debug)]
pub struct Rung {
    /// Index-aligned with the plan.
    pub records: Vec<Record>,
    /// Kept response bodies.
    pub kept: Vec<(usize, Vec<u8>)>,
    /// When the rung started.
    pub started: Instant,
}

/// A complete response at the front of `buf`: `(status, head length, body
/// length)`, or `None` while bytes are missing.
///
/// # Errors
///
/// A head that is not an HTTP/1.1 status line with a `Content-Length`.
pub fn parse_response(buf: &[u8]) -> io::Result<Option<(u16, usize, usize)>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_ascii_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .ok_or_else(|| bad("response without Content-Length"))?;
    let head_len = end + 4;
    Ok((buf.len() >= head_len + length).then_some((status, head_len, length)))
}

/// Drives one rung over `conn`, which must be nonblocking: each `plan[i]`
/// (bytes `wires[plan[i].wire]`) is written when due and its response read
/// as soon as it is complete. Requests still unanswered when the server has
/// sent nothing for [`IDLE_TIMEOUT`], or when the connection fails, are
/// left without `done_ns`.
pub fn drive<T: Read + Write>(mut conn: T, plan: &[Planned], wires: &[Vec<u8>]) -> Rung {
    let started = Instant::now();
    let now = || started.elapsed().as_nanos() as u64;
    let mut records: Vec<Record> = plan
        .iter()
        .map(|p| Record {
            due_ns: p.due_ns,
            ..Record::default()
        })
        .collect();
    let mut kept = Vec::new();
    // Bytes queued for the socket, and where each queued request ends.
    let (mut out, mut out_pos, mut ends) = (Vec::new(), 0, VecDeque::new());
    let (mut inbuf, mut in_pos) = (Vec::with_capacity(1 << 17), 0);
    let mut chunk = vec![0u8; 1 << 16];
    let (mut next_send, mut next_done) = (0, 0);
    let mut last_read = Instant::now();
    while next_done < plan.len() {
        while next_send < plan.len() && plan[next_send].due_ns <= now() {
            out.extend_from_slice(&wires[plan[next_send].wire]);
            ends.push_back((out.len(), next_send));
            next_send += 1;
        }
        if out_pos < out.len() {
            // A loopback write runs the receiver's TCP path too, so the
            // send is stamped when the write starts, not when it returns.
            let t = now();
            match conn.write(&out[out_pos..]) {
                Ok(n) => out_pos += n,
                Err(e) if retryable(&e) => {}
                Err(_) => break,
            }
            while let Some(&(end, i)) = ends.front() {
                if end > out_pos {
                    break;
                }
                records[i].sent_ns = Some(t);
                ends.pop_front();
            }
            if out_pos == out.len() {
                out.clear();
                out_pos = 0;
            }
        }
        match conn.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                inbuf.extend_from_slice(&chunk[..n]);
                last_read = Instant::now();
                let t = now();
                loop {
                    match parse_response(&inbuf[in_pos..]) {
                        Ok(Some((status, head, body))) if next_done < plan.len() => {
                            records[next_done].done_ns = Some(t);
                            records[next_done].status = status;
                            if plan[next_done].keep {
                                let at = in_pos + head;
                                kept.push((next_done, inbuf[at..at + body].to_vec()));
                            }
                            in_pos += head + body;
                            next_done += 1;
                        }
                        Ok(None) => break,
                        _ => return finish(records, kept, started),
                    }
                }
                if in_pos > inbuf.len() / 2 {
                    inbuf.drain(..in_pos);
                    in_pos = 0;
                }
            }
            Err(e) if retryable(&e) => {
                if next_done < next_send && last_read.elapsed() > IDLE_TIMEOUT {
                    break;
                }
            }
            Err(_) => break,
        }
        std::hint::spin_loop();
    }
    finish(records, kept, started)
}

fn retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
    )
}

fn finish(records: Vec<Record>, kept: Vec<(usize, Vec<u8>)>, started: Instant) -> Rung {
    Rung {
        records,
        kept,
        started,
    }
}

/// Accounting for one rung.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Requests sent.
    pub sent: usize,
    /// Requests answered 200.
    pub ok: usize,
    /// Requests not answered 200 (error status, or no answer at all).
    pub failed: usize,
    /// Latencies from due time of the 200 responses, ms, in request order.
    pub latencies_ms: Vec<f64>,
    /// Send lateness (sent − due), ms, in request order.
    pub lag_ms: Vec<f64>,
    /// Most requests sent but not yet answered at any instant.
    pub outstanding_max: usize,
    /// Share of sent requests still unanswered when the rung's schedule
    /// ended.
    pub outstanding_at_end: f64,
}

impl Summary {
    /// Nearest-rank latency percentile, ms.
    pub fn latency(&self, p: f64) -> f64 {
        percentile(&self.latencies_ms, p)
    }

    /// Nearest-rank lag percentile, ms.
    pub fn lag(&self, p: f64) -> f64 {
        percentile(&self.lag_ms, p)
    }
}

/// Summarizes a rung whose schedule ran for `duration_ns`.
pub fn summarize(records: &[Record], duration_ns: u64) -> Summary {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut events: Vec<(u64, i64)> = Vec::with_capacity(records.len() * 2);
    let (mut sent, mut ok, mut unanswered_at_end) = (0, 0, 0);
    let mut latencies = Vec::with_capacity(records.len());
    let mut lags = Vec::with_capacity(records.len());
    for r in records {
        let Some(s) = r.sent_ns else { continue };
        sent += 1;
        lags.push(ms(s.saturating_sub(r.due_ns)));
        events.push((s, 1));
        match r.done_ns {
            Some(d) => {
                events.push((d, -1));
                if r.status == 200 {
                    ok += 1;
                    latencies.push(ms(d.saturating_sub(r.due_ns)));
                }
                if s <= duration_ns && d > duration_ns {
                    unanswered_at_end += 1;
                }
            }
            None if s <= duration_ns => unanswered_at_end += 1,
            None => {}
        }
    }
    events.sort_unstable();
    let (mut level, mut outstanding_max) = (0i64, 0i64);
    for (_, delta) in events {
        level += delta;
        outstanding_max = outstanding_max.max(level);
    }
    Summary {
        sent,
        ok,
        failed: records.len() - ok,
        latencies_ms: latencies,
        lag_ms: lags,
        outstanding_max: outstanding_max as usize,
        outstanding_at_end: unanswered_at_end as f64 / sent.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_is_close_to_nominal() {
        let due = poisson_schedule(1000.0, 10.0, &mut Rng::new(1));
        assert!((9_500..10_500).contains(&due.len()), "{}", due.len());
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn parse_response_waits_for_whole_pipelined_responses() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}HTTP/1.1 404 Not Found\r\ncontent-length: 3\r\n\r\nabc";
        assert_eq!(parse_response(wire).unwrap(), Some((200, 38, 2)));
        assert_eq!(parse_response(&wire[40..]).unwrap(), Some((404, 45, 3)));
        assert_eq!(parse_response(&wire[40..87]).unwrap(), None);
        assert_eq!(parse_response(&wire[..20]).unwrap(), None);
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }

    #[test]
    fn accounting_charges_waiting_from_the_due_time() {
        // Due every 10 ms; the first two are answered promptly, the rest
        // wait out a server stall that ends at 130 ms (ns values).
        let ms = 1_000_000;
        let mut records: Vec<Record> = (0..10)
            .map(|i| Record {
                due_ns: i * 10 * ms,
                sent_ns: Some(i * 10 * ms),
                done_ns: Some(i * 10 * ms + ms),
                status: 200,
            })
            .collect();
        for r in &mut records[2..] {
            r.done_ns = Some(130 * ms + r.due_ns / 10);
        }
        let s = summarize(&records, 100 * ms);
        assert_eq!((s.sent, s.ok, s.failed), (10, 10, 0));
        // The request due at 20 ms waited out the stall: ~112 ms from due.
        assert!(s.latency(100.0) > 110.0, "{:?}", s.latencies_ms);
        assert_eq!(s.latency(0.0), 1.0);
        assert!(s.outstanding_max >= 8);
        assert!(s.outstanding_at_end > 0.7);
        // A generator that sent late shows in the lag.
        let mut late = records.clone();
        late[5].sent_ns = Some(late[5].due_ns + 40 * ms);
        assert_eq!(summarize(&late, 100 * ms).lag(100.0), 40.0);
        // An unanswered request is a failure, not a latency sample.
        late[9].done_ns = None;
        late[9].status = 0;
        assert_eq!(summarize(&late, 100 * ms).failed, 1);
    }

    /// A one-connection HTTP server answering `{}` to every request that
    /// stalls for `stall` before answering request number `stall_at`.
    fn fake_server(stall_at: usize, stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = io::BufReader::new(stream);
            let mut n = 0;
            while memsense_serve::http::read_request(&mut reader).is_ok() {
                if n == stall_at {
                    std::thread::sleep(stall);
                }
                n += 1;
                let ok = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}";
                if writer.write_all(ok).is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    /// A connection whose 10th write blocks for 80 ms: a descheduled
    /// generator.
    struct Stalling<'a> {
        inner: &'a std::net::TcpStream,
        writes: usize,
        stall: bool,
    }

    impl Write for Stalling<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            if self.stall && self.writes == 10 {
                std::thread::sleep(Duration::from_millis(80));
            }
            self.inner.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl Read for Stalling<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.inner.read(buf)
        }
    }

    /// Forty requests due every 5 ms against the fake server.
    fn drive_fake(stall_at: usize, generator_stalls: bool) -> Summary {
        let (addr, server) = fake_server(stall_at, Duration::from_millis(80));
        let stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream.set_nonblocking(true).expect("nonblocking");
        let plan: Vec<Planned> = (0..40)
            .map(|i| Planned {
                due_ns: i * 5_000_000,
                wire: 0,
                keep: i % 10 == 0,
            })
            .collect();
        let wires = vec![b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}".to_vec()];
        let conn = Stalling {
            inner: &stream,
            writes: 0,
            stall: generator_stalls,
        };
        let rung = drive(conn, &plan, &wires);
        drop(stream);
        server.join().expect("server thread");
        assert_eq!(rung.kept.len(), 4);
        assert!(rung.kept.iter().all(|(_, body)| body == b"{}"));
        summarize(&rung.records, 200_000_000)
    }

    #[test]
    fn stalled_server_raises_latency_measured_from_due_time() {
        let s = drive_fake(10, false);
        assert_eq!(s.failed, 0);
        // Requests due during the 80 ms stall queue behind it; a closed loop
        // would have stopped sending and hidden the wait.
        assert!(s.latency(90.0) > 30.0, "{:?}", s.latencies_ms);
        assert!(s.lag(50.0) < 5.0, "the generator itself kept its schedule");
    }

    #[test]
    fn stalled_generator_shows_in_lag_and_latency() {
        let s = drive_fake(usize::MAX, true);
        assert_eq!(s.failed, 0);
        assert!(s.lag(99.0) > 50.0, "{:?}", s.lag_ms);
        assert!(s.latency(99.0) >= s.lag(99.0));
    }
}
