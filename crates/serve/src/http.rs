//! Minimal HTTP/1.1 codec over `TcpStream`.
//!
//! Supports exactly what the daemon needs: request-line + headers +
//! `Content-Length` bodies, keep-alive, and a handful of response status
//! codes — with hard limits on header and body size so untrusted input
//! cannot exhaust memory. Chunked transfer encoding is rejected on
//! *requests* (411/413-class errors) but supported on *responses*: the
//! stream-updates endpoint emits `Transfer-Encoding: chunked` NDJSON frames
//! ([`chunked_head`] / [`chunk_frame`]), and [`Client`] reads both framings.
//! Requests carrying duplicate or conflicting `Content-Length` headers are
//! rejected with 400 (request-smuggling hygiene).
//!
//! Two front ends share one head parser:
//!
//! * [`read_request`] — blocking, over any [`BufRead`] (the bench client and
//!   tests).
//! * [`parse_request`] — incremental, over an in-memory byte buffer: returns
//!   [`Parse::Partial`] until a full request (head + declared body) has
//!   accumulated. This is what the nonblocking reactor drives; it never
//!   blocks and reports how many bytes each complete request consumed so
//!   pipelined bytes stay in the buffer.

use std::io::{self, BufRead, Write};

/// Maximum accepted size of the request line plus all headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Maximum accepted request body size.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercased (`GET`, `POST`, …).
    pub method: String,
    /// Request path (no query-string splitting; the API does not use one).
    pub path: String,
    /// Headers as `(lowercased-name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == lower)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this request.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection before sending a request (normal for
    /// keep-alive teardown).
    Eof,
    /// The request was malformed or exceeded a limit; the enclosed response
    /// status/message should be sent before closing.
    Bad(u16, &'static str),
    /// Transport error.
    Io(io::Error),
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Whether an I/O error is the "no data yet" outcome of reading a socket —
/// either a nonblocking read with nothing buffered or an expired
/// `set_read_timeout`. Platforms disagree on the kind: Unix surfaces both as
/// `WouldBlock` (`EAGAIN`), while Windows reports timeouts as `TimedOut`.
/// Treating only one kind as idle turns routine keep-alive teardown into a
/// hard error on the other platform family.
pub fn is_idle_read_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Parses the header block text (request line + header lines, blank line
/// stripped), returning the request (empty body) and the declared body
/// length.
fn parse_head(text: &str) -> Result<(Request, usize), (u16, &'static str)> {
    let mut lines = text.split("\r\n").flat_map(|l| l.split('\n'));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m, p, v),
        _ => return Err((400, "malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err((505, "unsupported HTTP version"));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err((400, "malformed header"));
        };
        headers.push((name.trim().to_lowercase(), value.trim().to_string()));
    }

    let request = Request {
        method: method.to_uppercase(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
    };

    if request.header("transfer-encoding").is_some() {
        return Err((411, "chunked bodies are not supported"));
    }
    // Request-smuggling hygiene: a request must declare its body length at
    // most once. Two frames disagreeing about where the body ends is exactly
    // the ambiguity smuggling attacks exploit, so duplicates are rejected
    // even when the values agree.
    let mut lengths = request
        .headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .map(|(_, v)| v.as_str());
    let length = match lengths.next() {
        None => 0,
        Some(v) => {
            if lengths.next().is_some() {
                return Err((400, "duplicate Content-Length"));
            }
            v.parse::<usize>()
                .map_err(|_| (400, "invalid Content-Length"))?
        }
    };
    if length > MAX_BODY_BYTES {
        return Err((413, "request body too large"));
    }
    Ok((request, length))
}

/// Outcome of [`parse_request`] over an accumulating buffer.
#[derive(Debug)]
pub enum Parse {
    /// More bytes are needed before a full request is available.
    Partial,
    /// One complete request, and how many buffer bytes it consumed
    /// (pipelined followers start at that offset).
    Complete(Request, usize),
    /// The buffered bytes are malformed or over-limit; send the enclosed
    /// status/message and close.
    Bad(u16, &'static str),
}

/// Incrementally parses the front of `buf` (bytes read so far from one
/// connection) into at most one request. Never blocks; call again with more
/// bytes after [`Parse::Partial`].
pub fn parse_request(buf: &[u8]) -> Parse {
    // Tolerate leading blank lines (RFC 9112 §2.2), but charge them to the
    // head limit: a flood of them must not grow the buffer without bound.
    let start = buf
        .iter()
        .position(|&b| b != b'\r' && b != b'\n')
        .unwrap_or(buf.len());
    let buf = &buf[start..];
    let Some(head_len) = find_head_end(buf) else {
        if start + buf.len() > MAX_HEAD_BYTES {
            return Parse::Bad(431, "request head too large");
        }
        return Parse::Partial;
    };
    if start + head_len > MAX_HEAD_BYTES {
        return Parse::Bad(431, "request head too large");
    }
    let Ok(text) = std::str::from_utf8(&buf[..head_len]) else {
        return Parse::Bad(400, "non-UTF-8 head");
    };
    match parse_head(text) {
        Err((status, message)) => Parse::Bad(status, message),
        Ok((request, length)) => {
            if buf.len() < head_len + length {
                return Parse::Partial;
            }
            let body = buf[head_len..head_len + length].to_vec();
            Parse::Complete(Request { body, ..request }, start + head_len + length)
        }
    }
}

/// Offset one past the blank line ending the header block (`\n\n` or
/// `\n\r\n`), if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] != b'\n' {
            i += 1;
            continue;
        }
        match buf.get(i + 1) {
            Some(b'\n') => return Some(i + 2),
            Some(b'\r') if buf.get(i + 2) == Some(&b'\n') => return Some(i + 3),
            _ => i += 1,
        }
    }
    None
}

/// Reads one request from a buffered stream.
///
/// # Errors
///
/// [`ReadError::Eof`] on clean end-of-stream before any bytes,
/// [`ReadError::Bad`] for malformed or over-limit requests, and
/// [`ReadError::Io`] for transport failures (including read timeouts).
pub fn read_request(stream: &mut impl BufRead) -> Result<Request, ReadError> {
    let mut head = Vec::with_capacity(256);
    // Read up to the blank line terminating the header block.
    loop {
        let mut line = Vec::with_capacity(64);
        let n = read_limited_line(stream, &mut line, MAX_HEAD_BYTES + 2)?;
        if n == 0 {
            if head.is_empty() {
                return Err(ReadError::Eof);
            }
            return Err(ReadError::Bad(400, "truncated request head"));
        }
        if head.len() + line.len() > MAX_HEAD_BYTES {
            return Err(ReadError::Bad(431, "request head too large"));
        }
        let is_blank = line == b"\r\n" || line == b"\n";
        head.extend_from_slice(&line);
        if is_blank && !head_is_only_blank(&head) {
            break;
        }
        if is_blank {
            // Tolerate leading blank lines (RFC 9112 §2.2), keep reading.
            head.clear();
        }
    }

    let text = std::str::from_utf8(&head).map_err(|_| ReadError::Bad(400, "non-UTF-8 head"))?;
    let (request, length) =
        parse_head(text).map_err(|(status, msg)| ReadError::Bad(status, msg))?;
    let mut body = vec![0u8; length];
    if length > 0 {
        io::Read::read_exact(stream, &mut body)
            .map_err(|_| ReadError::Bad(400, "truncated request body"))?;
    }
    Ok(Request { body, ..request })
}

/// Reads one `\n`-terminated line, erroring out past `max` bytes.
fn read_limited_line(
    stream: &mut impl BufRead,
    out: &mut Vec<u8>,
    max: usize,
) -> Result<usize, ReadError> {
    let mut total = 0;
    loop {
        let buf = stream.fill_buf()?;
        if buf.is_empty() {
            return Ok(total);
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map(|i| i + 1).unwrap_or(buf.len());
        if total + take > max {
            return Err(ReadError::Bad(431, "header line too long"));
        }
        out.extend_from_slice(&buf[..take]);
        stream.consume(take);
        total += take;
        if newline.is_some() {
            return Ok(total);
        }
    }
}

fn head_is_only_blank(head: &[u8]) -> bool {
    head.iter().all(|&b| b == b'\r' || b == b'\n')
}

/// An HTTP response: status code plus a JSON body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (always `application/json` in this daemon).
    pub body: String,
}

impl Response {
    /// A 200 response with the given JSON body.
    pub fn ok(body: String) -> Response {
        Response { status: 200, body }
    }
}

/// Reason phrase for the handful of status codes the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Renders the response head (status line + headers + blank line) for a
/// JSON body of `body_len` bytes.
pub fn response_head(status: u16, body_len: usize, keep_alive: bool) -> String {
    format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status,
        reason(status),
        body_len,
        if keep_alive { "keep-alive" } else { "close" },
    )
}

/// Renders a chunked-transfer response head (status line + headers + blank
/// line). The body follows as [`chunk_frame`]s closed by
/// [`CHUNKED_TERMINATOR`]; each frame carries one newline-terminated JSON
/// record (NDJSON), so consumers can parse records without buffering the
/// whole stream.
pub fn chunked_head(status: u16, keep_alive: bool) -> String {
    format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: {}\r\n\r\n",
        status,
        reason(status),
        if keep_alive { "keep-alive" } else { "close" },
    )
}

/// Frames `data` as one HTTP/1.1 chunk: hex length, CRLF, data, CRLF.
pub fn chunk_frame(data: &str) -> String {
    format!("{:x}\r\n{}\r\n", data.len(), data)
}

/// The zero-length chunk ending a chunked response body.
pub const CHUNKED_TERMINATOR: &str = "0\r\n\r\n";

/// Writes `response`, setting `Connection: close` unless `keep_alive`.
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_response(
    stream: &mut impl Write,
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    let head = response_head(response.status, response.body.len(), keep_alive);
    // memsense-lint: allow(reactor-no-blocking-call) — reactor-side callers only use this for one-shot over-capacity 503s on a fresh socket whose tiny body fits the kernel send buffer; normal responses go through the non-blocking Conn write queue
    stream.write_all(head.as_bytes())?;
    // memsense-lint: allow(reactor-no-blocking-call) — same one-shot 503 rationale as the head write above
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

/// A minimal keep-alive HTTP/1.1 client for the bench tool and tests.
#[derive(Debug)]
pub struct Client {
    reader: io::BufReader<std::net::TcpStream>,
}

impl Client {
    /// Connects to `addr` (anything `ToSocketAddrs` accepts).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> io::Result<Client> {
        let stream = std::net::TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: io::BufReader::new(stream),
        })
    }

    /// Sends one request and reads the response, reusing the connection.
    ///
    /// # Errors
    ///
    /// Transport failures, or `InvalidData` for malformed responses.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: memsense\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let stream = self.reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;

        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length: Option<usize> = None;
        let mut chunked = false;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(bad("truncated response head"));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let name = name.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().ok();
                } else if name.eq_ignore_ascii_case("transfer-encoding") {
                    chunked = value.trim().eq_ignore_ascii_case("chunked");
                }
            }
        }
        let body = if chunked {
            self.read_chunked_body()?
        } else {
            let length = length.ok_or_else(|| bad("response without Content-Length"))?;
            let mut body = vec![0u8; length];
            io::Read::read_exact(&mut self.reader, &mut body)?;
            body
        };
        String::from_utf8(body)
            .map(|text| (status, text))
            .map_err(|_| bad("non-UTF-8 response body"))
    }

    /// Reads a chunked response body through the terminating zero chunk,
    /// returning the dechunked bytes.
    fn read_chunked_body(&mut self) -> io::Result<Vec<u8>> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut body = Vec::new();
        loop {
            let mut size_line = String::new();
            if self.reader.read_line(&mut size_line)? == 0 {
                return Err(bad("truncated chunked body"));
            }
            // Chunk extensions (";...") are legal; this daemon never sends
            // them but tolerating them costs one split.
            let size_text = size_line.trim_end();
            let size_text = size_text.split(';').next().unwrap_or(size_text);
            let size =
                usize::from_str_radix(size_text, 16).map_err(|_| bad("malformed chunk size"))?;
            if size == 0 {
                // Trailer section: read lines through the blank terminator.
                loop {
                    let mut trailer = String::new();
                    if self.reader.read_line(&mut trailer)? == 0 {
                        return Err(bad("truncated chunked trailer"));
                    }
                    if trailer == "\r\n" || trailer == "\n" {
                        return Ok(body);
                    }
                }
            }
            let start = body.len();
            body.resize(start + size, 0);
            io::Read::read_exact(&mut self.reader, &mut body[start..])?;
            let mut crlf = [0u8; 2];
            io::Read::read_exact(&mut self.reader, &mut crlf)?;
            if &crlf != b"\r\n" {
                return Err(bad("chunk not CRLF-terminated"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get_without_body() {
        let r = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert_eq!(r.header("host"), Some("x"));
        assert!(r.body.is_empty());
        assert!(!r.wants_close());
    }

    #[test]
    fn parses_post_with_content_length() {
        let r = parse("POST /v1/solve HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}").unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"{\"a\":1}");
    }

    #[test]
    fn header_lookup_is_case_insensitive_and_close_detected() {
        let r = parse("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap();
        assert!(r.wants_close());
        assert_eq!(r.header("CONNECTION"), Some("Close"));
    }

    #[test]
    fn eof_before_request_is_clean() {
        assert!(matches!(parse(""), Err(ReadError::Eof)));
    }

    #[test]
    fn malformed_requests_are_4xx() {
        assert!(matches!(parse("NOPE\r\n\r\n"), Err(ReadError::Bad(400, _))));
        assert!(matches!(
            parse("GET / HTTP/2\r\n\r\n"),
            Err(ReadError::Bad(505, _))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(ReadError::Bad(400, _))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(ReadError::Bad(400, _))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(ReadError::Bad(411, _))
        ));
    }

    #[test]
    fn oversized_inputs_are_rejected() {
        let huge_header = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "y".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(parse(&huge_header), Err(ReadError::Bad(431, _))));
        let huge_body = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(&huge_body), Err(ReadError::Bad(413, _))));
    }

    #[test]
    fn response_writes_headers_and_body() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::ok("{}".into()), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let mut out = Vec::new();
        write_response(
            &mut out,
            &Response {
                status: 404,
                body: String::new(),
            },
            false,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }

    #[test]
    fn tolerates_leading_blank_lines() {
        let r = parse("\r\n\r\nGET / HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
    }

    // --- duplicate Content-Length (request-smuggling hygiene) ---
    //
    // Parse twins: the bad variants differ from the good one only in the
    // duplicated/conflicting header, so a regression reintroducing
    // first-header-wins parsing flips exactly these assertions.

    #[test]
    fn single_content_length_is_accepted_twin() {
        let r = parse("POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\nok").unwrap();
        assert_eq!(r.body, b"ok");
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        // Conflicting values: classic smuggling shape.
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\nokok"),
            Err(ReadError::Bad(400, "duplicate Content-Length"))
        ));
        // Agreeing values are rejected too: the request is still ambiguous
        // to any intermediary that picks a different one.
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok"),
            Err(ReadError::Bad(400, "duplicate Content-Length"))
        ));
        // Comma-folded duplicate in a single field value is not a number.
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 2, 2\r\n\r\nok"),
            Err(ReadError::Bad(400, "invalid Content-Length"))
        ));
    }

    #[test]
    fn incremental_parser_rejects_duplicate_content_length() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\nokok";
        assert!(matches!(
            parse_request(raw),
            Parse::Bad(400, "duplicate Content-Length")
        ));
    }

    // --- incremental parser ---

    #[test]
    fn incremental_parser_waits_for_full_head_and_body() {
        let full = b"POST /v1/solve HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        // Every strict prefix is Partial; the full buffer parses.
        for cut in 0..full.len() {
            assert!(
                matches!(parse_request(&full[..cut]), Parse::Partial),
                "prefix of {cut} bytes must be partial"
            );
        }
        let Parse::Complete(request, consumed) = parse_request(full) else {
            panic!("full request must parse");
        };
        assert_eq!(request.method, "POST");
        assert_eq!(request.body, b"{\"a\":1}");
        assert_eq!(consumed, full.len());
    }

    #[test]
    fn incremental_parser_reports_consumed_bytes_for_pipelining() {
        let mut buf = b"GET /healthz HTTP/1.1\r\n\r\n".to_vec();
        buf.extend_from_slice(b"GET /metrics HTTP/1.1\r\n\r\n");
        let Parse::Complete(first, consumed) = parse_request(&buf) else {
            panic!("first pipelined request must parse");
        };
        assert_eq!(first.path, "/healthz");
        let Parse::Complete(second, consumed2) = parse_request(&buf[consumed..]) else {
            panic!("second pipelined request must parse");
        };
        assert_eq!(second.path, "/metrics");
        assert_eq!(consumed + consumed2, buf.len());
    }

    #[test]
    fn incremental_parser_tolerates_leading_blanks_and_bare_lf() {
        let Parse::Complete(r, consumed) = parse_request(b"\r\n\nGET / HTTP/1.1\n\n") else {
            panic!("must parse");
        };
        assert_eq!(r.method, "GET");
        assert_eq!(consumed, b"\r\n\nGET / HTTP/1.1\n\n".len());
    }

    #[test]
    fn incremental_parser_enforces_limits() {
        let huge_head = format!("GET / HTTP/1.1\r\nX-Pad: {}", "y".repeat(MAX_HEAD_BYTES));
        assert!(matches!(
            parse_request(huge_head.as_bytes()),
            Parse::Bad(431, _)
        ));
        let huge_body = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse_request(huge_body.as_bytes()),
            Parse::Bad(413, _)
        ));
        assert!(matches!(parse_request(b"NOPE\r\n\r\n"), Parse::Bad(400, _)));
        // Leading blank lines count against the head limit.
        let blank_flood = vec![b'\n'; MAX_HEAD_BYTES + 1];
        assert!(matches!(parse_request(&blank_flood), Parse::Bad(431, _)));
    }

    // --- idle-read classification (keep-alive teardown portability) ---

    #[test]
    fn idle_read_errors_cover_both_platform_kinds() {
        // `set_read_timeout` expiry: EAGAIN/`WouldBlock` on Unix,
        // `TimedOut` on Windows. Both must be classified as idle, or
        // keep-alive teardown turns into a hard error on one family.
        let wouldblock = io::Error::new(io::ErrorKind::WouldBlock, "EAGAIN");
        let timedout = io::Error::new(io::ErrorKind::TimedOut, "read timeout");
        assert!(is_idle_read_error(&wouldblock));
        assert!(is_idle_read_error(&timedout));
        // Real transport failures stay fatal.
        let reset = io::Error::new(io::ErrorKind::ConnectionReset, "RST");
        assert!(!is_idle_read_error(&reset));
        let eof = io::Error::new(io::ErrorKind::UnexpectedEof, "closed");
        assert!(!is_idle_read_error(&eof));
    }

    // --- chunked transfer framing (stream-updates responses) ---

    #[test]
    fn chunk_frames_use_hex_lengths_and_crlf() {
        assert_eq!(chunk_frame("hello\n"), "6\r\nhello\n\r\n");
        // 26 bytes → 0x1a: the length really is hex.
        assert_eq!(
            chunk_frame("abcdefghijklmnopqrstuvwxyz"),
            "1a\r\nabcdefghijklmnopqrstuvwxyz\r\n"
        );
        assert_eq!(CHUNKED_TERMINATOR, "0\r\n\r\n");
        let head = chunked_head(200, true);
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(head.contains("Transfer-Encoding: chunked\r\n"));
        assert!(head.contains("Content-Type: application/x-ndjson\r\n"));
        assert!(!head.contains("Content-Length"));
    }

    #[test]
    fn client_reads_chunked_responses() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Drain the request head (the client always sends one request).
            let mut buf = [0u8; 1024];
            let _ = io::Read::read(&mut stream, &mut buf).unwrap();
            let payload = format!(
                "{}{}{}{}",
                chunked_head(200, true),
                chunk_frame("{\"seq\":0}\n"),
                chunk_frame("{\"seq\":1}\n"),
                CHUNKED_TERMINATOR
            );
            stream.write_all(payload.as_bytes()).unwrap();
        });
        let mut client = Client::connect(addr).unwrap();
        let (status, body) = client.request("GET", "/v1/stream/1/updates", "").unwrap();
        server.join().unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"seq\":0}\n{\"seq\":1}\n");
    }

    #[test]
    fn response_head_matches_write_response() {
        let mut out = Vec::new();
        let response = Response::ok("{\"x\":1}".into());
        write_response(&mut out, &response, true).unwrap();
        let head = response_head(200, response.body.len(), true);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            format!("{head}{}", response.body)
        );
    }
}
