//! Distributed trace contexts: the fleet-wide identity a job carries
//! across process boundaries.
//!
//! A [`TraceContext`] is a W3C-traceparent-shaped triple — a 128-bit
//! trace id naming one end-to-end story, a 64-bit span id naming one
//! actor's chapter of it, and (optionally) the parent span that caused
//! this one. The router mints a fresh context per accepted `POST /jobs`
//! and propagates it to the owning backend as the
//! [`TRACE_HEADER`] (`X-CF-Trace`) request header; every failover
//! retry, hedged duplicate and poll-failure resubmission derives its
//! own [`child`](TraceContext::child) span (labelled with its *cause*),
//! so the backend's scheduler/cache/journal spans — attached to the
//! incoming context by `Tracer::attach` —
//! parent cleanly under the exact attempt that carried them.
//!
//! Propagation rules (DESIGN.md §16):
//!
//! 1. The **router** mints the root context per accepted submission and
//!    sends each delivery *attempt* a distinct child span id.
//! 2. A **backend** receiving `X-CF-Trace` derives one child per
//!    accepted job and attaches it to its span ring keyed by the
//!    scheduler token; a backend receiving no header mints its own
//!    root, so a lone `cfserve` traces the same way a fleet does.
//! 3. Responses echo the context back (`X-CF-Trace` on the `202` and
//!    on `GET /jobs/<id>`), and finished records additionally carry
//!    the [`ATTRIBUTION_HEADER`] latency breakdown. Both ride as HTTP
//!    headers — never in record bodies, which stay byte-identical to a
//!    fleet-less run.
//!
//! The wire encoding is strict on purpose:
//! `<32 hex trace-id>-<16 hex span-id>[-<16 hex parent-span-id>]`, all
//! three values nonzero. [`TraceContext::parse`] rejects anything else
//! without panicking (property-tested in `tests/trace_props.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// The HTTP request/response header carrying a [`TraceContext`].
pub const TRACE_HEADER: &str = "X-CF-Trace";

/// The HTTP response header carrying a finished job's [`Attribution`].
pub const ATTRIBUTION_HEADER: &str = "X-CF-Attribution";

/// One hop of a distributed trace: which story (`trace_id`), which
/// chapter (`span_id`), and which chapter caused it (`parent`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// The 128-bit end-to-end trace identity (nonzero).
    pub trace_id: u128,
    /// This hop's 64-bit span identity (nonzero).
    pub span_id: u64,
    /// The causing span, when this hop has one (nonzero when present).
    pub parent: Option<u64>,
}

/// Why a `X-CF-Trace` header value failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceParseError(&'static str);

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad trace context: {}", self.0)
    }
}

impl std::error::Error for TraceParseError {}

/// Process-wide mint counter: guarantees distinct ids even when two
/// mints land on the same clock nanosecond.
static MINT_COUNTER: AtomicU64 = AtomicU64::new(0);

/// SplitMix64: the id mixer (full-period, avalanching; no RNG crate
/// needed on the job path).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Fresh mint entropy: wall-clock nanos, a process-wide counter and the
/// pid, so concurrent mints in one process and simultaneous mints in
/// two processes both diverge.
fn entropy() -> u64 {
    let nanos =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0x5EED);
    let count = MINT_COUNTER.fetch_add(1, Ordering::Relaxed);
    nanos ^ count.rotate_left(32) ^ u64::from(std::process::id()).rotate_left(48)
}

/// Mixes `seed` into a nonzero 64-bit id.
fn nonzero_id(seed: u64) -> u64 {
    let mut x = splitmix64(seed);
    if x == 0 {
        x = 1;
    }
    x
}

impl TraceContext {
    /// Mints a fresh root context (no parent).
    pub fn mint() -> TraceContext {
        let e = entropy();
        let hi = splitmix64(e);
        let lo = splitmix64(e ^ 0xA5A5_5A5A_C3C3_3C3C);
        let mut trace_id = (u128::from(hi) << 64) | u128::from(lo);
        if trace_id == 0 {
            trace_id = 1;
        }
        TraceContext { trace_id, span_id: nonzero_id(hi ^ lo.rotate_left(17)), parent: None }
    }

    /// Derives a child span of this context: same trace, fresh span id,
    /// parent pointing back here.
    pub fn child(&self) -> TraceContext {
        let seed = entropy() ^ self.span_id ^ (self.trace_id as u64);
        TraceContext {
            trace_id: self.trace_id,
            span_id: nonzero_id(seed),
            parent: Some(self.span_id),
        }
    }

    /// The strict wire form:
    /// `<32 hex trace-id>-<16 hex span-id>[-<16 hex parent>]`.
    pub fn encode(&self) -> String {
        match self.parent {
            Some(p) => format!("{:032x}-{:016x}-{:016x}", self.trace_id, self.span_id, p),
            None => format!("{:032x}-{:016x}", self.trace_id, self.span_id),
        }
    }

    /// Parses the wire form back. Strict: exactly 2 or 3 `-`-separated
    /// fields of exactly 32/16/16 hex digits, every value nonzero.
    /// Never panics — malformed input is an `Err`, not a crash
    /// (property-tested).
    ///
    /// # Errors
    ///
    /// [`TraceParseError`] naming the first grammar rule the input broke.
    pub fn parse(s: &str) -> Result<TraceContext, TraceParseError> {
        let mut parts = s.split('-');
        let trace_part = parts.next().unwrap_or("");
        let Some(span_part) = parts.next() else {
            return Err(TraceParseError("expected <trace>-<span>[-<parent>]"));
        };
        let parent_part = parts.next();
        if parts.next().is_some() {
            return Err(TraceParseError("too many fields"));
        }
        let trace_id = parse_hex_u128(trace_part)?;
        let span_id = parse_hex_u64(span_part)?;
        let parent = parent_part.map(parse_hex_u64).transpose()?;
        if trace_id == 0 {
            return Err(TraceParseError("trace id must be nonzero"));
        }
        if span_id == 0 || parent == Some(0) {
            return Err(TraceParseError("span id must be nonzero"));
        }
        Ok(TraceContext { trace_id, span_id, parent })
    }
}

fn parse_hex_u128(s: &str) -> Result<u128, TraceParseError> {
    if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(TraceParseError("trace id must be 32 hex digits"));
    }
    u128::from_str_radix(s, 16).map_err(|_| TraceParseError("trace id must be 32 hex digits"))
}

fn parse_hex_u64(s: &str) -> Result<u64, TraceParseError> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(TraceParseError("span id must be 16 hex digits"));
    }
    u64::from_str_radix(s, 16).map_err(|_| TraceParseError("span id must be 16 hex digits"))
}

// ---------------------------------------------------------------------------
// Latency attribution
// ---------------------------------------------------------------------------

/// The `total_us` attribution key: the job's measured accept→settle
/// end-to-end latency on its backend.
pub(crate) const TOTAL_KEY: &str = "total_us";

/// A finished job's latency breakdown: ordered `key=value` components,
/// carried on the [`ATTRIBUTION_HEADER`] response header (never in the
/// record body, which stays byte-identical across fleet shapes).
///
/// Key conventions:
///
/// * `total_us` — the backend-measured accept→settle wall time.
/// * *Execution* components (`admission_us`, `queue_us`, `run_us`,
///   `other_us`, …) decompose `total_us`; the backend computes
///   `other_us` as the unattributed remainder, so
///   [`execution_sum_us`](Attribution::execution_sum_us) equals
///   `total_us` by construction.
/// * `net_*_us` / `backoff_us` — router-side network and retry overhead
///   *outside* the job's execution window (excluded from the execution
///   sum); [`push_router_view`](Attribution::push_router_view) makes
///   them partition the router's accept → stream time with `total_us`.
/// * Keys not ending in `_us` (e.g. `cached=0|1`) are flags, not
///   durations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Attribution {
    components: Vec<(String, u64)>,
}

impl Attribution {
    /// An empty breakdown.
    pub fn new() -> Attribution {
        Attribution::default()
    }

    /// Appends one component (last write wins on
    /// [`get`](Attribution::get) lookups of duplicate keys).
    pub fn push(&mut self, key: &str, value: u64) {
        self.components.push((key.to_string(), value));
    }

    /// The last value recorded under `key`.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.components.iter().rev().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// All components in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.components.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// The `total_us` component (0 when absent).
    pub fn total_us(&self) -> u64 {
        self.get(TOTAL_KEY).unwrap_or(0)
    }

    /// Sum of the *execution* duration components: every `_us` key
    /// except `total_us` and the router-overhead `net_*` / `backoff_*`
    /// families. Equals `total_us` by construction on records the
    /// backend stamped (the `other_us` remainder closes the gap).
    pub fn execution_sum_us(&self) -> u64 {
        self.components
            .iter()
            .filter(|(k, _)| {
                k.ends_with("_us")
                    && k != TOTAL_KEY
                    && !k.starts_with("net_")
                    && !k.starts_with("backoff")
            })
            .map(|&(_, v)| v)
            .sum()
    }

    /// Appends the router's `net_submit_us`, `net_poll_us` and
    /// `backoff_us` so that, with `total_us`, they sum to `router_us`,
    /// the router's accept → stream time (exactly, whenever `total_us +
    /// backoff_us` fits in it). `submit_us` overlaps `total_us` at its
    /// tail, so `net_submit_us` is capped at what those two leave over
    /// (DESIGN.md §16). Returns `(net_submit_us, net_poll_us)`.
    pub fn push_router_view(
        &mut self,
        router_us: u64,
        submit_us: u64,
        backoff_us: u64,
    ) -> (u64, u64) {
        let net = router_us.saturating_sub(self.total_us()).saturating_sub(backoff_us);
        let net_submit = submit_us.min(net);
        self.push("net_submit_us", net_submit);
        self.push("net_poll_us", net - net_submit);
        self.push("backoff_us", backoff_us);
        (net_submit, net - net_submit)
    }

    /// The `key=value,key=value` header form.
    pub fn encode(&self) -> String {
        let parts: Vec<String> = self.components.iter().map(|(k, v)| format!("{k}={v}")).collect();
        parts.join(",")
    }

    /// Parses the header form back; `None` for anything that is not a
    /// comma-separated list of `ident=uint` pairs.
    pub fn parse(s: &str) -> Option<Attribution> {
        let mut out = Attribution::new();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part.split_once('=')?;
            let key = key.trim();
            if key.is_empty() || !key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') {
                return None;
            }
            out.push(key, value.trim().parse().ok()?);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_is_nonzero_and_distinct() {
        let a = TraceContext::mint();
        let b = TraceContext::mint();
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.span_id, 0);
        assert_eq!(a.parent, None);
        assert_ne!((a.trace_id, a.span_id), (b.trace_id, b.span_id));
    }

    #[test]
    fn child_keeps_the_trace_and_points_back() {
        let root = TraceContext::mint();
        let child = root.child();
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent, Some(root.span_id));
        assert_ne!(child.span_id, root.span_id);
        let grand = child.child();
        assert_eq!(grand.parent, Some(child.span_id));
    }

    #[test]
    fn encode_parse_round_trips() {
        for ctx in [
            TraceContext { trace_id: 1, span_id: 2, parent: None },
            TraceContext { trace_id: u128::MAX, span_id: u64::MAX, parent: Some(7) },
            TraceContext::mint(),
            TraceContext::mint().child(),
        ] {
            let encoded = ctx.encode();
            assert_eq!(TraceContext::parse(&encoded), Ok(ctx), "{encoded}");
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "-",
            "abc",
            "zz",
            &"0".repeat(32),                                   // lone trace id
            &format!("{}-{}", "0".repeat(32), "0".repeat(16)), // zero ids
            &format!("{}-{}", "1".repeat(31), "2".repeat(16)), // short trace
            &format!("{}-{}", "1".repeat(33), "2".repeat(16)), // long trace
            &format!("{}-{}", "1".repeat(32), "2".repeat(15)), // short span
            &format!("{}-{}-{}", "1".repeat(32), "2".repeat(16), "0".repeat(16)), // zero parent
            &format!("{}-{}-{}-{}", "1".repeat(32), "2".repeat(16), "3".repeat(16), "4".repeat(16)),
            &format!("{}-{}", "g".repeat(32), "2".repeat(16)), // non-hex
        ] {
            assert!(TraceContext::parse(bad).is_err(), "{bad:?} must not parse");
        }
        // Uppercase hex is accepted (header values survive proxies that
        // normalise case); it re-encodes lowercase.
        let upper = format!("{}-{}", "A".repeat(32), "B".repeat(16));
        let ctx = TraceContext::parse(&upper).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(ctx.encode(), upper.to_lowercase());
    }

    #[test]
    fn attribution_round_trips_and_sums_execution_components() {
        let mut a = Attribution::new();
        a.push(TOTAL_KEY, 1000);
        a.push("admission_us", 100);
        a.push("queue_us", 300);
        a.push("run_us", 500);
        a.push("other_us", 100);
        a.push("cached", 1);
        a.push("net_submit_us", 40);
        a.push("backoff_us", 10);
        assert_eq!(a.total_us(), 1000);
        assert_eq!(a.execution_sum_us(), 1000, "net_/backoff_/flags are excluded");
        let encoded = a.encode();
        assert_eq!(Attribution::parse(&encoded), Some(a), "{encoded}");
        assert!(Attribution::parse("queue_us=abc").is_none());
        assert!(Attribution::parse("=1").is_none());
        assert!(Attribution::parse("k v=1").is_none());
        assert_eq!(Attribution::parse(""), Some(Attribution::new()));
    }
}
