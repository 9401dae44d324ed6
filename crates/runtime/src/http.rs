//! The one HTTP/1.1 layer of `cf-runtime`: every byte of HTTP framing
//! the [`StatusServer`](crate::StatusServer), the
//! [`RouterServer`](crate::RouterServer) and the
//! [`FaultProxy`](crate::FaultProxy) read, write or parse goes through
//! this module.
//!
//! * **Server side.** `read_request` reads one request off an accepted
//!   connection through the incremental [`parse_request`]: torn reads
//!   ask for more bytes, malformed heads are typed [`HttpParseError`]s
//!   the server answers `400`, and a `Content-Length` beyond the
//!   configured bound fails *before* the body arrives (`413`), so no
//!   reader ever buffers more than `--max-body-bytes`. Every answer is
//!   one [`Response`], written by [`Response::write_to`] with an exact
//!   `Content-Length`, `Connection: close` and an `X-CF-Digest` FNV-1a
//!   over the body — parse errors included.
//! * **Client side.** The router reaches its backends through the
//!   [`Connector`] seam: one blocking exchange returning the raw reply
//!   bytes, so a decorator (`netfault::FaultConnector`) can
//!   mangle them like a real network would. `request` renders what the
//!   router sends; [`parse_reply`] holds every reply to the same
//!   header-line and `Content-Length` rules as [`parse_request`], and
//!   [`digest_ok`] checks the body against its `X-CF-Digest`.
//!
//! Connections are one-shot: the server closes after its response, the
//! client reads to EOF, and `Content-Length` tells a complete body from
//! a torn one. See DESIGN.md §8–§11.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::fault::fnv1a;
use crate::serve::json_str;
use crate::sync;

/// Request-head bound: the request line plus headers must fit here.
const MAX_HEAD_BYTES: usize = 8192;

/// Per-read/write timeout on a served connection: a stalled peer must
/// not wedge a connection thread forever.
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// Total time a client gets to deliver one complete request.
const READ_DEADLINE: Duration = Duration::from_secs(5);

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One parsed HTTP/1.x request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// The request method (`GET`, `POST`, …).
    pub method: String,
    /// The raw request target, query string included.
    pub target: String,
    /// Header `(name, value)` pairs in arrival order; folded
    /// continuation lines are already joined into their header's value.
    pub headers: Vec<(String, String)>,
    /// The request body (`Content-Length` bytes; empty without one).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// The target's path component (query string stripped).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The target's query string, if any (without the `?`).
    pub(crate) fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// The first header named `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

/// Why a request did not parse (each maps to one HTTP error status).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpParseError {
    /// The request line is not `METHOD SP TARGET SP HTTP/…`.
    BadRequestLine,
    /// The head (request line + headers) exceeds `MAX_HEAD_BYTES` (8 KiB).
    HeadTooLarge,
    /// A header line has no `:` or an empty/spaced name.
    BadHeader,
    /// `Content-Length` is not a single unsigned integer.
    BadContentLength,
    /// `Content-Length` exceeds the configured body bound.
    BodyTooLarge {
        /// The declared body length.
        length: u64,
        /// The configured bound.
        max: usize,
    },
}

impl HttpParseError {
    /// The HTTP status line this error maps to.
    pub(crate) fn status(&self) -> &'static str {
        match self {
            HttpParseError::BodyTooLarge { .. } => "413 Payload Too Large",
            _ => "400 Bad Request",
        }
    }
}

impl std::fmt::Display for HttpParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpParseError::BadRequestLine => write!(f, "malformed request line"),
            HttpParseError::HeadTooLarge => {
                write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            HttpParseError::BadHeader => write!(f, "malformed header line"),
            HttpParseError::BadContentLength => write!(f, "malformed Content-Length"),
            HttpParseError::BodyTooLarge { length, max } => {
                write!(f, "body of {length} bytes exceeds the {max}-byte bound")
            }
        }
    }
}

impl std::error::Error for HttpParseError {}

/// Incrementally parses one request from the bytes read so far.
///
/// `Ok(None)` means the request is not complete yet — read more and
/// call again (a torn read mid-head or mid-body is not an error).
/// Errors are terminal for the connection: the head will never parse no
/// matter how many more bytes arrive, or the declared body exceeds
/// `max_body` (detected from the header alone, so the caller never
/// buffers an oversized body).
///
/// # Errors
///
/// See [`HttpParseError`]; each variant maps to a 400/413 response.
pub fn parse_request(buf: &[u8], max_body: usize) -> Result<Option<HttpRequest>, HttpParseError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpParseError::HeadTooLarge);
        }
        return Ok(None);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(HttpParseError::HeadTooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| HttpParseError::BadRequestLine)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpParseError::BadRequestLine)?;
    let (method, target) = parse_request_line(request_line)?;
    let (headers, length) = parse_headers(lines)?;
    let length = length.unwrap_or(0);
    if length > max_body as u64 {
        return Err(HttpParseError::BodyTooLarge { length, max: max_body });
    }
    let body_start = head_end + 4;
    let body_end = body_start + length as usize;
    if buf.len() < body_end {
        return Ok(None);
    }
    Ok(Some(HttpRequest { method, target, headers, body: buf[body_start..body_end].to_vec() }))
}

/// Byte offset of the head's final line (start of `\r\n\r\n`), if the
/// terminator has arrived. The only head-terminator search in the crate.
pub(crate) fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_request_line(line: &str) -> Result<(String, String), HttpParseError> {
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpParseError::BadRequestLine);
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpParseError::BadRequestLine);
    }
    if !target.starts_with('/') || !version.starts_with("HTTP/") {
        return Err(HttpParseError::BadRequestLine);
    }
    Ok((method.to_string(), target.to_string()))
}

/// Header `(name, value)` pairs in arrival order.
type Headers = Vec<(String, String)>;

/// Parses the header lines after a start line, shared by requests and
/// replies: RFC 7230 obs-fold continuation lines join their header's
/// value, a line without `:` or with an empty/spaced name is an error,
/// and the declared `Content-Length` (`None` without one) must be one
/// unsigned integer — repeats must agree.
fn parse_headers<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<(Headers, Option<u64>), HttpParseError> {
    let mut headers = Headers::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if line.starts_with(' ') || line.starts_with('\t') {
            let (_, value) = headers.last_mut().ok_or(HttpParseError::BadHeader)?;
            value.push(' ');
            value.push_str(line.trim());
            continue;
        }
        let (name, value) = line.split_once(':').ok_or(HttpParseError::BadHeader)?;
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return Err(HttpParseError::BadHeader);
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }

    let mut length: Option<u64> = None;
    for (name, value) in &headers {
        if name.eq_ignore_ascii_case("content-length") {
            let parsed: u64 = value.parse().map_err(|_| HttpParseError::BadContentLength)?;
            if length.is_some_and(|seen| seen != parsed) {
                return Err(HttpParseError::BadContentLength);
            }
            length = Some(parsed);
        }
    }
    Ok((headers, length))
}

fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
}

/// Reads one complete request off a served connection, returning it
/// with the exact bytes consumed from the socket (the fault proxy
/// fingerprints and forwards those verbatim).
///
/// Arms the connection's 500 ms per-read and per-write timeouts and
/// gives the client 5 s in total. `Ok(None)` is a connection that sent
/// no bytes at all (a port probe, or the accept loop's wake-up): nothing
/// to answer.
///
/// # Errors
///
/// A malformed, overlong, truncated or too-slow request: the caller
/// answers it with [`Response::error`] rather than silently dropping it.
pub(crate) fn read_request(
    stream: &mut TcpStream,
    max_body: usize,
) -> Result<Option<(HttpRequest, Vec<u8>)>, HttpParseError> {
    // A socket that refuses timeouts cannot be served without risking a
    // wedged thread: treat it like a connection that never spoke.
    let armed = stream.set_read_timeout(Some(IO_TIMEOUT)).is_ok()
        && stream.set_write_timeout(Some(IO_TIMEOUT)).is_ok();
    if !armed {
        return Ok(None);
    }
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 4096];
    let deadline = Instant::now() + READ_DEADLINE;
    loop {
        if let Some(request) = parse_request(&buf, max_body)? {
            return Ok(Some((request, buf)));
        }
        if Instant::now() > deadline {
            return Err(HttpParseError::BadRequestLine);
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) if buf.is_empty() => return Ok(None),
            Ok(0) | Err(_) => return Err(HttpParseError::BadRequestLine),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

/// Renders one request the router sends a backend: the request line,
/// `Host: cfrouter`, `headers` in order, `Content-Length` when there is
/// a `body`, and `Connection: close` (the reply is read to EOF).
pub(crate) fn request(
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
) -> Vec<u8> {
    let mut raw = format!("{method} {target} HTTP/1.1\r\nHost: cfrouter\r\n");
    for (name, value) in headers {
        raw.push_str(&format!("{name}: {value}\r\n"));
    }
    if let Some(body) = body {
        raw.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    raw.push_str("Connection: close\r\n\r\n");
    raw.push_str(body.unwrap_or(""));
    raw.into_bytes()
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One server response, ready to write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status after the protocol version, e.g. `"200 OK"`.
    pub status: &'static str,
    /// The `Content-Type` value.
    pub content_type: &'static str,
    /// `Allow` header for 405s.
    pub allow: Option<&'static str>,
    /// `Retry-After` seconds for 503 sheds.
    pub retry_after: Option<u64>,
    /// Extra response headers (`X-CF-Trace`, `X-CF-Attribution`, …):
    /// trace identity and latency attribution ride as headers only, so
    /// record bodies stay byte-identical across fleet shapes.
    pub extra: Vec<(&'static str, String)>,
    /// The body.
    pub body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: &'static str, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            allow: None,
            retry_after: None,
            extra: Vec::new(),
            body,
        }
    }

    /// A JSON `{"error":…}` response.
    pub(crate) fn error(status: &'static str, message: &str) -> Response {
        Response::json(status, format!("{{\"error\":{}}}", json_str(message)))
    }

    /// What `respond` returns, or a `500` if it panics: a handler bug
    /// costs its request an error reply, never an empty one.
    pub(crate) fn guarded(respond: impl FnOnce() -> Response) -> Response {
        panic::catch_unwind(AssertUnwindSafe(respond)).unwrap_or_else(|_| {
            Response::error("500 Internal Server Error", "internal error: the handler panicked")
        })
    }

    /// A `405` naming the one method `allow`ed on the route.
    pub(crate) fn method_not_allowed(allow: &'static str, message: &str) -> Response {
        Response { allow: Some(allow), ..Response::error("405 Method Not Allowed", message) }
    }

    /// A `200` Prometheus text exposition.
    pub(crate) fn prometheus(body: String) -> Response {
        Response {
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            ..Response::json("200 OK", body)
        }
    }

    /// Writes the response: the status line, `Content-Type`, the exact
    /// `Content-Length`, `Connection: close`, an `X-CF-Digest` FNV-1a
    /// over the body (so any client can reject bytes the wire mangled —
    /// DESIGN.md §11), then `Allow`, `Retry-After` and the extra
    /// headers, then the body.
    ///
    /// # Errors
    ///
    /// Write failures, unchanged.
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\nX-CF-Digest: {:016x}\r\n",
            self.status,
            self.content_type,
            self.body.len(),
            fnv1a(self.body.as_bytes()),
        );
        if let Some(allow) = self.allow {
            head.push_str(&format!("Allow: {allow}\r\n"));
        }
        if let Some(secs) = self.retry_after {
            head.push_str(&format!("Retry-After: {secs}\r\n"));
        }
        for (name, value) in &self.extra {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        out.write_all(head.as_bytes())?;
        out.write_all(self.body.as_bytes())?;
        out.flush()
    }
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// One parsed reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The status code.
    pub status: u16,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Exactly `Content-Length` body bytes.
    pub body: Vec<u8>,
}

impl Reply {
    /// The first header named `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// The body as text (invalid UTF-8 replaced).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Parses raw reply bytes read to EOF.
///
/// Header lines follow the [`parse_request`] rules. Read-to-EOF framing
/// cannot tell a complete body from a torn one on its own, so the reply
/// must declare its `Content-Length`; a shorter body is torn, and bytes
/// past the declared length are dropped, not trusted.
///
/// # Errors
///
/// `InvalidData` for a missing head terminator, a status line that does
/// not lead with `HTTP/`, a malformed header line, a missing, malformed
/// or conflicting `Content-Length`, or a torn body.
pub fn parse_reply(bytes: &[u8]) -> std::io::Result<Reply> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let head_end = find_head_end(bytes).ok_or_else(|| bad("truncated reply"))?;
    let head = std::str::from_utf8(&bytes[..head_end]).map_err(|_| bad("non-UTF-8 reply head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty reply"))?;
    // A real peer always leads with the protocol version; anything else
    // is line noise (a garbled status line must not parse as a reply).
    if !status_line.starts_with("HTTP/") {
        return Err(bad("malformed status line"));
    }
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let (headers, length) = parse_headers(lines).map_err(|e| bad(&format!("reply: {e}")))?;
    let length = length.ok_or_else(|| bad("reply declares no Content-Length"))?;
    let body = &bytes[head_end + 4..];
    if (body.len() as u64) < length {
        return Err(bad("torn reply: body shorter than Content-Length"));
    }
    Ok(Reply { status, headers, body: body[..length as usize].to_vec() })
}

/// Whether the reply's `X-CF-Digest` header (when present) matches its
/// body bytes. Replies without the header pass — the check is for peers
/// that stamp it (every `cfserve` does).
pub fn digest_ok(reply: &Reply) -> bool {
    match reply.header("x-cf-digest") {
        Some(h) => {
            u64::from_str_radix(h.trim(), 16).map(|d| d == fnv1a(&reply.body)).unwrap_or(false)
        }
        None => true,
    }
}

/// A handle the hedging path uses to abort the losing request: the
/// in-flight stream is registered here, and `cancel` shuts it down so
/// the loser unblocks instead of riding out its read timeout. Public
/// only because it appears in the [`Connector`] seam's signature; a
/// fault decorator just passes it through to the real dialer.
#[derive(Debug, Default)]
pub struct CancelSlot {
    stream: Mutex<Option<TcpStream>>,
    cancelled: AtomicBool,
}

impl CancelSlot {
    fn arm(&self, stream: &TcpStream) {
        let clone = stream.try_clone().ok();
        *sync::lock(&self.stream) = clone;
        if self.cancelled.load(Ordering::SeqCst) {
            self.cancel();
        }
    }

    pub(crate) fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        if let Some(s) = sync::lock(&self.stream).take() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// The router's wire seam: one blocking HTTP/1.1 exchange returning the
/// **raw response bytes** (parsing happens above the seam, so a
/// decorator — `netfault::FaultConnector` — can refuse, delay,
/// tear, garble, or corrupt at the byte level exactly like a real
/// network would).
pub trait Connector: Send + Sync + std::fmt::Debug {
    /// Dials `addr`, writes `raw`, reads the response to EOF (the peer
    /// closes the connection after its response, which frames the
    /// body). `cancel`, when present, lets a hedging caller abort the
    /// exchange mid-flight.
    ///
    /// # Errors
    ///
    /// Connect/read/write failures, unchanged from the socket layer.
    fn exchange(
        &self,
        addr: &str,
        raw: &[u8],
        connect_timeout: Duration,
        read_timeout: Duration,
        cancel: Option<&CancelSlot>,
    ) -> std::io::Result<Vec<u8>>;

    /// [`exchange`](Connector::exchange), then [`parse_reply`].
    ///
    /// # Errors
    ///
    /// The exchange's socket errors, or the reply's framing errors.
    fn fetch(
        &self,
        addr: &str,
        raw: &[u8],
        connect_timeout: Duration,
        read_timeout: Duration,
        cancel: Option<&CancelSlot>,
    ) -> std::io::Result<Reply> {
        let bytes = self.exchange(addr, raw, connect_timeout, read_timeout, cancel)?;
        parse_reply(&bytes)
    }
}

/// The real dialer: plain blocking TCP, no faults.
#[derive(Debug, Default)]
pub struct TcpConnector;

impl Connector for TcpConnector {
    fn exchange(
        &self,
        addr: &str,
        raw: &[u8],
        connect_timeout: Duration,
        read_timeout: Duration,
        cancel: Option<&CancelSlot>,
    ) -> std::io::Result<Vec<u8>> {
        let sock: SocketAddr = addr.parse().map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("{addr}: {e}"))
        })?;
        let mut stream = TcpStream::connect_timeout(&sock, connect_timeout)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_write_timeout(Some(connect_timeout))?;
        if let Some(slot) = cancel {
            slot.arm(&stream);
        }
        stream.write_all(raw)?;
        let mut bytes = Vec::with_capacity(1024);
        match stream.read_to_end(&mut bytes) {
            // A failure after some bytes arrived still hands them back:
            // `parse_reply` judges whether they make a whole reply.
            Err(e) if bytes.is_empty() => Err(e),
            _ => Ok(bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // -- requests -----------------------------------------------------------

    #[test]
    fn parses_a_simple_get() {
        let req =
            parse_request(b"GET /healthz?x=1 HTTP/1.1\r\nHost: a\r\n\r\n", 1024).unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/healthz");
        assert_eq!(req.query(), Some("x=1"));
        assert_eq!(req.header("host"), Some("a"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn torn_reads_ask_for_more() {
        let full = b"POST /jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        for cut in 0..full.len() {
            assert_eq!(parse_request(&full[..cut], 1024).unwrap(), None, "cut={cut}");
        }
        let req = parse_request(full, 1024).unwrap().unwrap();
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn folded_headers_join_values() {
        let req =
            parse_request(b"GET / HTTP/1.1\r\nX-Long: first\r\n  second\r\n\tthird\r\n\r\n", 1024)
                .unwrap()
                .unwrap();
        assert_eq!(req.header("x-long"), Some("first second third"));
    }

    #[test]
    fn malformed_heads_are_typed_errors() {
        assert_eq!(parse_request(b"garbage\r\n\r\n", 1024), Err(HttpParseError::BadRequestLine));
        assert_eq!(
            parse_request(b"get / HTTP/1.1\r\n\r\n", 1024),
            Err(HttpParseError::BadRequestLine)
        );
        assert_eq!(
            parse_request(b"GET nopath HTTP/1.1\r\n\r\n", 1024),
            Err(HttpParseError::BadRequestLine)
        );
        assert_eq!(
            parse_request(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n", 1024),
            Err(HttpParseError::BadHeader)
        );
        assert_eq!(
            parse_request(b"GET / HTTP/1.1\r\nContent-Length: pony\r\n\r\n", 1024),
            Err(HttpParseError::BadContentLength)
        );
    }

    #[test]
    fn oversized_bodies_fail_before_arriving() {
        // The body has not arrived at all — the header alone rejects.
        let head = b"POST /jobs HTTP/1.1\r\nContent-Length: 4096\r\n\r\n";
        assert_eq!(
            parse_request(head, 1024),
            Err(HttpParseError::BodyTooLarge { length: 4096, max: 1024 })
        );
    }

    #[test]
    fn zero_length_bodies_are_fine() {
        let req = parse_request(b"POST /jobs HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 1024)
            .unwrap()
            .unwrap();
        assert!(req.body.is_empty());
    }

    // -- responses ----------------------------------------------------------

    #[test]
    fn response_head_bytes_are_pinned() {
        let mut r = Response::error("503 Service Unavailable", "busy");
        r.allow = Some("POST");
        r.retry_after = Some(3);
        r.extra.push(("X-CF-Trace", "abc-def".to_string()));
        r.extra.push(("X-CF-Attribution", "total_us=5".to_string()));
        let mut out = Vec::new();
        r.write_to(&mut out).unwrap();
        let body = "{\"error\":\"busy\"}";
        let expected = format!(
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Content-Length: 16\r\nConnection: close\r\nX-CF-Digest: {:016x}\r\n\
             Allow: POST\r\nRetry-After: 3\r\nX-CF-Trace: abc-def\r\n\
             X-CF-Attribution: total_us=5\r\n\r\n{body}",
            fnv1a(body.as_bytes()),
        );
        assert_eq!(String::from_utf8(out).unwrap(), expected);

        let mut out = Vec::new();
        Response::prometheus("m 1\n".to_string()).write_to(&mut out).unwrap();
        // The writer's output is exactly what the reply parser accepts.
        let reply = parse_reply(&out).unwrap();
        assert_eq!(reply.body, b"m 1\n");
        assert!(digest_ok(&reply));
    }

    #[test]
    fn a_panicking_handler_answers_a_stamped_500() {
        let ok = Response::guarded(|| Response::json("200 OK", "{}".to_string()));
        assert_eq!(ok.status, "200 OK");
        let mut out = Vec::new();
        Response::guarded(|| panic!("handler bug")).write_to(&mut out).unwrap();
        let reply = parse_reply(&out).unwrap();
        assert_eq!(reply.status, 500);
        assert!(reply.header("x-cf-digest").is_some());
        assert!(digest_ok(&reply));
        assert!(reply.text().contains("panicked"), "{}", reply.text());
    }

    // -- replies ------------------------------------------------------------

    #[test]
    fn parse_reply_rejects_garbage_and_torn_bodies() {
        // Garbled status line: not a reply at all.
        assert!(parse_reply(b"GARBAGE! 200 OK\r\nContent-Length: 2\r\n\r\n{}").is_err());
        // Body shorter than the declared Content-Length: torn.
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}").is_err());
        // Non-numeric, conflicting duplicate, or missing Content-Length:
        // the body's extent is unknown.
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\nContent-Length: two\r\n\r\n{}").is_err());
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\nContent-Length: -2\r\n\r\n{}").is_err());
        assert!(parse_reply(
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 1\r\n\r\n{}"
        )
        .is_err());
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\n\r\n{}").is_err());
        // A header line without a colon breaks the head.
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nnope\r\n\r\n{}").is_err());
        // Agreeing duplicates are fine; trailing bytes past
        // Content-Length are dropped, not trusted.
        let r =
            parse_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\n{}junk")
                .unwrap();
        assert_eq!(r.body, b"{}");
    }

    #[test]
    fn digest_header_verifies_the_body() {
        let body = b"{\"id\":0}".to_vec();
        let good = Reply {
            status: 202,
            headers: vec![("X-CF-Digest".to_string(), format!("{:016x}", fnv1a(&body)))],
            body: body.clone(),
        };
        assert!(digest_ok(&good));
        let bad = Reply {
            status: 202,
            headers: vec![("X-CF-Digest".to_string(), format!("{:016x}", fnv1a(&body) ^ 1))],
            body: body.clone(),
        };
        assert!(!digest_ok(&bad));
        let unstamped = Reply { status: 202, headers: Vec::new(), body };
        assert!(digest_ok(&unstamped), "plain upstreams without the header still pass");
    }

    #[test]
    fn reply_parsing_reads_status_headers_and_body() {
        let reply = parse_reply(
            b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 7\r\nContent-Length: 2\r\n\r\n{}",
        )
        .unwrap();
        assert_eq!(reply.status, 503);
        assert_eq!(reply.header("retry-after"), Some("7"));
        assert_eq!(reply.text(), "{}");
        assert!(parse_reply(b"HTTP/1.1 200").is_err());
    }
}
