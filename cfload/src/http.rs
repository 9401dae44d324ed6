//! A one-request-per-connection HTTP/1.1 client: the fleet answers every
//! request with `Connection: close`, so a reply ends at EOF.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One parsed reply.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }
}

/// Sends `request` on a fresh connection and reads the reply to EOF;
/// `timeout` bounds the connect and every read and write.
pub fn exchange(addr: &str, request: &[u8], timeout: Duration) -> io::Result<Reply> {
    let sock = addr.parse().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(request)?;
    let mut bytes = Vec::with_capacity(1024);
    stream.read_to_end(&mut bytes)?;
    parse(&bytes)
}

pub fn get(addr: &str, path: &str, timeout: Duration) -> io::Result<Reply> {
    exchange(addr, format!("GET {path} HTTP/1.1\r\nHost: cfload\r\n\r\n").as_bytes(), timeout)
}

/// The raw `POST /jobs` request for `body` (also what the in-process
/// parser is timed on).
pub fn post_jobs_request(body: &str) -> String {
    format!(
        "POST /jobs HTTP/1.1\r\nHost: cfload\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn parse(bytes: &[u8]) -> io::Result<Reply> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let text = std::str::from_utf8(bytes).map_err(|_| bad("non-UTF-8 reply"))?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or_else(|| bad("truncated reply"))?;
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        .collect();
    Ok(Reply { status, headers, body: body.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_headers_and_body() {
        let r = parse(
            b"HTTP/1.1 202 Accepted\r\nX-CF-Trace: abc\r\nContent-Length: 8\r\n\r\n{\"id\":3}",
        )
        .unwrap();
        assert_eq!(r.status, 202);
        assert_eq!(r.header("x-cf-trace"), Some("abc"));
        assert_eq!(r.body, "{\"id\":3}");
        assert!(parse(b"HTTP/1.1 200 OK\r\n").is_err());
    }
}
