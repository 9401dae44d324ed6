//! Property tests for `cf_runtime::http`, the one HTTP/1.1 layer.
//!
//! Requests: any well-formed request parses identically no matter how
//! the bytes are torn across reads, header obs-folding joins values,
//! bodies honor the configured bound (oversized declared lengths fail
//! before the body arrives, zero-length bodies are fine), and arbitrary
//! garbage is a typed error or "need more" — never a panic.
//!
//! Replies (untrusted bytes off the wire): arbitrary bytes, truncations
//! and single-byte flips of a real response never panic the parser, and
//! every reply it accepts carries exactly its declared `Content-Length`
//! of body; a flipped reply that still passes its digest check carries
//! the original body.

use cf_runtime::http::{digest_ok, parse_reply, parse_request, HttpParseError, Reply, Response};
use proptest::prelude::*;

/// Characters header values and bodies are built from: plain ASCII,
/// bytes that look like framing (`\r`-free — a raw CR inside a value
/// would change the head structure), and multi-byte UTF-8.
const VALUE_CHARS: &[char] = &['a', 'Z', '0', ' ', '_', '"', ':', '/', 'é', '界', ';', '='];

fn value_from(indices: &[usize]) -> String {
    let s: String = indices.iter().map(|&i| VALUE_CHARS[i % VALUE_CHARS.len()]).collect();
    s.trim().to_string()
}

/// Token characters for paths: no whitespace, no `?`.
const PATH_CHARS: &[char] = &['a', 'b', 'z', '0', '9', '.', '-', '_', '/'];

fn path_from(indices: &[usize]) -> String {
    let tail: String = indices.iter().map(|&i| PATH_CHARS[i % PATH_CHARS.len()]).collect();
    format!("/{tail}")
}

proptest! {
    /// A well-formed request parses to the same result from the full
    /// buffer and from every torn prefix: prefixes are `Ok(None)`
    /// ("read more"), the complete buffer parses exactly, and trailing
    /// extra bytes don't leak into the body.
    #[test]
    fn torn_reads_converge_to_the_same_parse(
        path_idx in prop::collection::vec(0usize..64, 0..12),
        header_count in 0usize..4,
        value_idx in prop::collection::vec(0usize..64, 0..10),
        body in prop::collection::vec(any::<u8>(), 0..200),
        post in any::<bool>(),
        cut in 0usize..400,
    ) {
        let method = if post { "POST" } else { "GET" };
        let path = path_from(&path_idx);
        let value = value_from(&value_idx);
        let mut raw = format!("{method} {path} HTTP/1.1\r\n");
        for i in 0..header_count {
            raw.push_str(&format!("X-H{i}: {value}\r\n"));
        }
        raw.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        let mut bytes = raw.into_bytes();
        bytes.extend_from_slice(&body);

        let full = parse_request(&bytes, 4096).expect("well-formed").expect("complete");
        prop_assert_eq!(&full.method, method);
        prop_assert_eq!(full.path(), path.as_str());
        prop_assert_eq!(&full.body, &body);
        for i in 0..header_count {
            prop_assert_eq!(full.header(&format!("x-h{i}")), Some(value.as_str()));
        }

        // Any torn prefix asks for more bytes; nothing errors, nothing
        // parses early.
        let cut = cut.min(bytes.len().saturating_sub(1));
        prop_assert_eq!(parse_request(&bytes[..cut], 4096).expect("prefix"), None);

        // Extra trailing bytes (a pipelined next request) do not leak
        // into this request's body.
        bytes.extend_from_slice(b"GET / HTTP/1.1\r\n\r\n");
        let again = parse_request(&bytes, 4096).expect("well-formed").expect("complete");
        prop_assert_eq!(&again.body, &body);
    }

    /// Folded continuation lines join into the previous header's value
    /// with single spaces, regardless of how many folds and which
    /// whitespace leads them.
    #[test]
    fn header_folding_joins_values(
        parts in prop::collection::vec(prop::collection::vec(0usize..64, 1..6), 1..5),
        tabs in any::<bool>(),
    ) {
        let rendered: Vec<String> = parts
            .iter()
            .map(|p| {
                let v = value_from(p);
                if v.is_empty() { "v".to_string() } else { v }
            })
            .collect();
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        raw.push_str(&format!("X-Folded: {}\r\n", rendered[0]));
        for part in &rendered[1..] {
            raw.push_str(if tabs { "\t" } else { "  " });
            raw.push_str(part);
            raw.push_str("\r\n");
        }
        raw.push_str("\r\n");
        let req = parse_request(raw.as_bytes(), 4096).expect("parses").expect("complete");
        let joined = rendered.join(" ");
        prop_assert_eq!(req.header("x-folded"), Some(joined.as_str()));
    }

    /// A declared Content-Length over the bound fails with the typed
    /// 413 error from the head alone — before any body bytes arrive —
    /// and at or under the bound it parses once the body is complete.
    #[test]
    fn body_bound_is_enforced_from_the_header(
        declared in 0u64..10_000,
        max in 0usize..4096,
    ) {
        let head = format!("POST /jobs HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n");
        let parsed = parse_request(head.as_bytes(), max);
        if declared > max as u64 {
            prop_assert_eq!(
                parsed,
                Err(HttpParseError::BodyTooLarge { length: declared, max })
            );
        } else {
            // Head alone: need the body. With the body: complete.
            prop_assert_eq!(parsed, Ok(None));
            let mut bytes = head.into_bytes();
            bytes.extend(vec![b'x'; declared as usize]);
            let req = parse_request(&bytes, max).expect("parses").expect("complete");
            prop_assert_eq!(req.body.len() as u64, declared);
        }
    }

    /// Arbitrary garbage never panics: every outcome is a typed error
    /// or "need more bytes".
    #[test]
    fn garbage_is_typed_errors_not_panics(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = parse_request(&bytes, 1024);
    }

    /// Malformed request lines are errors, not silent acceptance:
    /// lowercase methods, missing parts and relative targets all fail.
    #[test]
    fn malformed_request_lines_are_rejected(
        variant in 0u8..4,
        path_idx in prop::collection::vec(0usize..64, 0..8),
    ) {
        let path = path_from(&path_idx);
        let line = match variant {
            0 => format!("get {path} HTTP/1.1"),
            1 => format!("GET {path}"),
            2 => format!("GET {} HTTP/1.1", path.trim_start_matches('/')),
            _ => format!("GET {path} FTP/1.1"),
        };
        // Variant 2 with an empty tail would produce "GET  HTTP/1.1",
        // still malformed (empty target) — every variant must fail.
        let raw = format!("{line}\r\n\r\n");
        prop_assert_eq!(parse_request(raw.as_bytes(), 1024), Err(HttpParseError::BadRequestLine));
    }

    /// Arbitrary bytes never panic the reply parser, and an accepted
    /// reply's body is exactly its declared `Content-Length`.
    #[test]
    fn garbage_replies_are_errors_or_exactly_framed(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
        lead in any::<bool>(),
    ) {
        // Half the cases start like a reply, so parsing gets past the
        // status line and into the headers.
        let mut raw = if lead { b"HTTP/1.1 200 OK\r\n".to_vec() } else { Vec::new() };
        raw.extend_from_slice(&bytes);
        if let Ok(reply) = parse_reply(&raw) {
            prop_assert_eq!(Some(reply.body.len()), declared_length(&reply));
        }
    }

    /// Truncating a real response anywhere short of its end is an error
    /// (no head terminator, or a body shorter than declared); flipping
    /// any one byte never panics, and whatever still parses is exactly
    /// framed — and, if it passes its digest, carries the original body.
    /// Every prefix and every byte position is tried.
    #[test]
    fn torn_or_flipped_replies_never_pass_as_intact(
        body_idx in prop::collection::vec(0usize..64, 0..120),
        extra in 0usize..3,
        flip in 1u8..255,
    ) {
        let body = value_from(&body_idx);
        let mut response = Response::json("200 OK", body.clone());
        response.retry_after = if extra > 0 { Some(3) } else { None };
        for i in 0..extra {
            response.extra.push(("X-Extra", format!("v{i}")));
        }
        let mut raw = Vec::new();
        response.write_to(&mut raw).expect("write to a Vec");

        let whole = parse_reply(&raw).expect("the writer's output parses");
        prop_assert_eq!(whole.body.as_slice(), body.as_bytes());
        prop_assert!(digest_ok(&whole));

        for cut in 0..raw.len() {
            prop_assert!(parse_reply(&raw[..cut]).is_err(), "prefix of {} bytes parsed", cut);
        }
        for at in 0..raw.len() {
            let mut flipped = raw.clone();
            flipped[at] ^= flip;
            if let Ok(reply) = parse_reply(&flipped) {
                prop_assert_eq!(Some(reply.body.len()), declared_length(&reply));
                if digest_ok(&reply) {
                    prop_assert_eq!(reply.body.as_slice(), body.as_bytes());
                }
            }
        }
    }
}

/// The reply's declared `Content-Length`, if it parses.
fn declared_length(reply: &Reply) -> Option<usize> {
    reply.header("content-length").and_then(|v| v.parse().ok())
}
