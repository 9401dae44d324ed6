//! `cfrouter` — a fault-tolerant HTTP front door over a fleet of
//! `cfserve` backends: one more fractal level, with the router as the
//! parent node.
//!
//! Jobs are **consistent-hashed by canonical spec** (the hash of the
//! `POST /jobs` body's canonical spec line without its label or keys
//! spelled at their defaults, from
//! [`api::routing_fingerprint`]; the router never builds the program)
//! onto a [`Ring`] of backends, so every instance's plan cache stays
//! warm for the specs it owns. Robustness
//! is the headline:
//!
//! * a **health prober** polls each backend's `/healthz` on a background
//!   thread, ejecting instances that answer `503` or time out
//!   (`Ejected`) and re-admitting them after
//!   consecutive successes; a backend reporting `"draining"` is treated
//!   as *planned removal* (`Draining`), not failure;
//! * failed or ejected-backend requests **fail over** to the next ring
//!   replica with bounded retries and jittered exponential backoff
//!   (reusing [`next_retry`]); a job whose owner died mid-run is
//!   resubmitted from the router's retained spec, so its record still
//!   streams — byte-identical, because records are deterministic;
//! * submissions slower than a **latency quantile** (p95 over the
//!   router's own submit histogram, floored by
//!   [`RouterConfig::hedge_floor`]) get one **hedged duplicate** to the
//!   next replica: first answer wins, the loser's connection is shut
//!   down;
//! * a per-backend **circuit breaker** (the
//!   [`supervisor`](crate::supervisor) state machine) stops hammering a
//!   dying instance between probe passes;
//! * every backend response is **integrity-checked** before the router
//!   trusts it: the `X-CF-Digest` header over the body, plus the
//!   per-record digest field on streamed records (see
//!   [`crate::serve::verify_record_json`]). A mismatch counts as a
//!   failure ([`RouterStats::corrupt_responses`]), feeds the breaker, and
//!   fails over; repeated corruption moves the backend to
//!   `Quarantined` — answering probes but untrusted —
//!   until the quarantine window elapses. All backend traffic flows
//!   through the [`Connector`] seam, so the seeded
//!   [`crate::netfault`] chaos layer can stand in for a lying network.
//!
//! The router's own endpoints: `/healthz` (healthy while ≥ 1 backend is
//! routable), `/stats` (the [`RouterStats`] counters plus the live
//! backend table), `/ring` (the routing table), and `/metrics` — every
//! backend's Prometheus exposition merged into one fleet view (the
//! per-backend `instance` label keeps series distinct) plus the
//! router's own `cf_router_*` and `cf_slo_*` series (unlabelled). The
//! `/stats` counters and the `cf_router_*` counter families render from
//! one declaration each (`RouterStats::COUNTERS`). `POST /jobs`,
//! `GET /jobs/<id>` and `GET /jobs/<id>/status` proxy to the owning
//! backend with the backend-local job id translated to the router's
//! fleet-wide id, so a client cannot tell the fleet from one big
//! instance. [`RouterServer`] serves it all on the shared blocking
//! [`AcceptLoop`], so no idle poll sits between a client and the
//! router, and no request starts a thread. HTTP framing in both
//! directions — reading client requests, writing digest-stamped
//! responses, rendering backend requests, parsing backend replies — is
//! [`crate::http`]'s. See DESIGN.md §10.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use serde_json::{Map, Value};

use crate::api;
use crate::fault::{fnv1a, FaultPlan};
use crate::http::{
    self, digest_ok, CancelSlot, Connector, HttpRequest, Reply, Response, TcpConnector,
};
use crate::listener::AcceptLoop;
use crate::metrics::{self, Family};
use crate::netfault::FaultConnector;
use crate::obs::LatencyHistogram;
use crate::parked;
use crate::serve::{json_str, verify_record_json};
use crate::stats::RouterStats;
use crate::supervisor::{next_retry, BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
use crate::sync;
use crate::trace::{Attribution, TraceContext, ATTRIBUTION_HEADER, TRACE_HEADER};

/// Minimum submit-latency samples before the hedge threshold trusts the
/// histogram's quantile over the configured floor.
const HEDGE_MIN_SAMPLES: u64 = 20;

/// The quantile a submission must exceed before it is hedged.
const HEDGE_QUANTILE: f64 = 0.95;

/// Router-side span retention: the most recent spans kept for
/// `GET /trace/<trace-id>` assembly (old spans fall off the front).
const ROUTER_SPAN_CAP: usize = 4096;

/// Bucket count of each SLO burn-rate window ring (60 × 5 s = 5 m,
/// 60 × 60 s = 1 h).
const SLO_SLOTS: usize = 60;

// ---------------------------------------------------------------------------
// Consistent-hash ring
// ---------------------------------------------------------------------------

/// A consistent-hash ring over backend indices: each backend owns
/// `vnodes` pseudo-random points on a `u64` circle, and
/// a key belongs to the first point at or after its hash. Removing one
/// backend only remaps the keys that backend owned (its points vanish;
/// everyone else's stay put) — the minimal-disruption property the ring
/// proptests pin down.
#[derive(Debug, Clone)]
pub struct Ring {
    vnodes: usize,
    backends: usize,
    /// `(point, backend index)`, sorted by point.
    points: Vec<(u64, usize)>,
}

impl Ring {
    /// A ring over `names` with `vnodes` points per backend (minimum 1).
    /// Points derive from the backend *name*, so the same name owns the
    /// same arc regardless of which other backends exist.
    pub fn new(names: &[String], vnodes: usize) -> Ring {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(names.len() * vnodes);
        for (i, name) in names.iter().enumerate() {
            for v in 0..vnodes {
                points.push((fnv1a(format!("{name}#{v}").as_bytes()), i));
            }
        }
        points.sort_unstable();
        Ring { vnodes, backends: names.len(), points }
    }

    /// Points per backend.
    pub(crate) fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// The sorted `(point, backend index)` table (the `/ring` payload).
    pub(crate) fn points(&self) -> &[(u64, usize)] {
        &self.points
    }

    /// Re-spreads a fingerprint over the point space (fingerprints are
    /// already hashes, but XOR-folded ones cluster; one more FNV pass
    /// decorrelates them from the vnode points).
    fn spread(key: u64) -> u64 {
        fnv1a(&key.to_le_bytes())
    }

    /// The backend that owns `key` (`None` for an empty ring).
    pub fn primary(&self, key: u64) -> Option<usize> {
        self.replicas(key).first().copied()
    }

    /// Every backend in ring-walk order from `key`'s point: the owner
    /// first, then each distinct successor — the failover order.
    pub fn replicas(&self, key: u64) -> Vec<usize> {
        if self.points.is_empty() {
            return Vec::new();
        }
        let h = Self::spread(key);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let mut seen = vec![false; self.backends];
        let mut out = Vec::with_capacity(self.backends);
        for i in 0..self.points.len() {
            let (_, b) = self.points[(start + i) % self.points.len()];
            if !seen[b] {
                seen[b] = true;
                out.push(b);
                if out.len() == self.backends {
                    break;
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Backend state
// ---------------------------------------------------------------------------

/// A backend's routable state, as maintained by the health prober.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BackendHealth {
    /// Routable: answering `/healthz` with 200.
    Up,
    /// Ejected after consecutive probe failures (503 / timeout);
    /// re-admitted after consecutive successes.
    Ejected,
    /// Reported `"draining"`: planned removal, not failure. No new work
    /// is routed here, but in-flight polls may still complete.
    Draining,
    /// Quarantined after repeated *corrupt* responses (digest mismatch):
    /// the backend answers probes — it is not dead — but its data cannot
    /// be trusted, so no work routes here until the quarantine window
    /// elapses **and** probes stay healthy.
    Quarantined,
}

impl BackendHealth {
    /// The state's stable wire name (`/stats`, `/ring`, `/metrics`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            BackendHealth::Up => "up",
            BackendHealth::Ejected => "ejected",
            BackendHealth::Draining => "draining",
            BackendHealth::Quarantined => "quarantined",
        }
    }
}

/// What one `/healthz` probe observed (`Failed` retains the error text
/// for the `/stats` backend table).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Probe {
    Ok,
    Draining,
    Failed(String),
}

#[derive(Debug)]
struct Backend {
    addr: String,
    health: BackendHealth,
    consecutive_failures: u32,
    consecutive_successes: u32,
    /// Digest-mismatch streak; `quarantine_after` of these while `Up`
    /// moves the backend to [`BackendHealth::Quarantined`].
    consecutive_corruptions: u32,
    /// When the quarantine started (release is time- *and* probe-gated).
    quarantined_at: Option<Instant>,
    /// Last probe failure, kept sticky across recovery so an ejection is
    /// debuggable from `/stats` after the backend comes back.
    last_probe_error: Option<String>,
    last_probe_error_at: Option<Instant>,
    breaker: CircuitBreaker,
    /// Hedged races this backend answered first (as primary or as the
    /// hedged duplicate's target).
    hedges_won: u64,
    /// Hedged races where this backend's in-flight request was cancelled
    /// because the other side answered first.
    hedges_cancelled: u64,
}

impl Backend {
    fn new(addr: String, breaker: BreakerConfig) -> Backend {
        Backend {
            addr,
            health: BackendHealth::Up,
            consecutive_failures: 0,
            consecutive_successes: 0,
            consecutive_corruptions: 0,
            quarantined_at: None,
            last_probe_error: None,
            last_probe_error_at: None,
            breaker: CircuitBreaker::new(breaker),
            hedges_won: 0,
            hedges_cancelled: 0,
        }
    }

    /// Folds one probe observation into the health state machine.
    /// Returns `(ejected, readmitted)` transitions for the counters.
    fn note_probe(
        &mut self,
        probe: Probe,
        eject_after: u32,
        readmit_after: u32,
        quarantine_for: Duration,
    ) -> (bool, bool) {
        match probe {
            Probe::Ok => {
                self.consecutive_failures = 0;
                self.consecutive_successes += 1;
                if self.health != BackendHealth::Up && self.consecutive_successes >= readmit_after {
                    // A quarantined backend additionally sits out its
                    // full window: healthy probes alone do not prove the
                    // data path is trustworthy again.
                    let held = self.health == BackendHealth::Quarantined
                        && self.quarantined_at.is_some_and(|t| t.elapsed() < quarantine_for);
                    if !held {
                        self.health = BackendHealth::Up;
                        self.quarantined_at = None;
                        self.consecutive_corruptions = 0;
                        self.breaker.record_success();
                        return (false, true);
                    }
                }
            }
            Probe::Draining => {
                // Planned removal: not a failure, but not routable.
                self.consecutive_failures = 0;
                self.consecutive_successes = 0;
                self.health = BackendHealth::Draining;
                self.quarantined_at = None;
            }
            Probe::Failed(error) => {
                self.last_probe_error = Some(error);
                self.last_probe_error_at = Some(Instant::now());
                self.consecutive_successes = 0;
                self.consecutive_failures += 1;
                if self.health != BackendHealth::Ejected && self.consecutive_failures >= eject_after
                {
                    // Ejection supersedes quarantine: the backend is no
                    // longer answering at all, so the corruption
                    // evidence resets with the stronger verdict.
                    self.health = BackendHealth::Ejected;
                    self.quarantined_at = None;
                    self.consecutive_corruptions = 0;
                    return (true, false);
                }
            }
        }
        (false, false)
    }
}

// ---------------------------------------------------------------------------
// Router configuration
// ---------------------------------------------------------------------------

/// Construction parameters for a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Backend `host:port` status addresses, in ring order.
    pub backends: Vec<String>,
    /// Backend names, one per address: what the ring places and wire
    /// faults draw under, so both outlive the ports. Without one name per
    /// address, each backend is named by its address.
    pub names: Vec<String>,
    /// Consistent-hash points per backend (default 64).
    pub vnodes: usize,
    /// Health-probe cadence (default 250 ms).
    pub probe_interval: Duration,
    /// Per-probe connect/read timeout (default 500 ms).
    pub probe_timeout: Duration,
    /// Consecutive probe failures that eject a backend (default 2).
    pub eject_after: u32,
    /// Consecutive probe successes that re-admit one (default 3).
    pub readmit_after: u32,
    /// Failover retry budget and backoff for proxied requests.
    pub retry: RetryPolicy,
    /// Hedge a submission after this long even while the latency
    /// histogram is cold; `ZERO` disables hedging (default 250 ms).
    pub hedge_floor: Duration,
    /// Per-backend circuit-breaker thresholds (default: open after 4
    /// consecutive request failures for 1 s).
    pub breaker: BreakerConfig,
    /// Proxy connect timeout (default 500 ms).
    pub connect_timeout: Duration,
    /// Proxy read timeout; must exceed the longest `/jobs/<id>`
    /// long-poll (default 150 s).
    pub read_timeout: Duration,
    /// Client request-body bound, as on `cfserve` (default 1 MiB).
    pub max_body: usize,
    /// Consecutive corrupt (digest-mismatch) responses that quarantine a
    /// backend (default 3).
    pub quarantine_after: u32,
    /// Minimum time a quarantined backend sits out before healthy probes
    /// can re-admit it (default 5 s).
    pub quarantine_for: Duration,
    /// Seeded wire-fault plan decorating the dialer (chaos testing);
    /// `None` dials straight TCP.
    pub netfault: Option<FaultPlan>,
    /// End-to-end latency target for SLO accounting: a streamed record
    /// counts *good* when its attributed latency (backend `total_us`
    /// plus router submit network and backoff overhead — poll wait
    /// excluded, since it depends on client timing) is within the
    /// target. `None` disables SLO accounting (the `cf_slo_*` families
    /// are still declared, sample-less).
    pub slo_target: Option<Duration>,
    /// The SLO objective: the fraction of records that must be good
    /// (default 0.99). A burn rate of 1.0 means bad records arrive at
    /// exactly the rate that exhausts the error budget on schedule.
    pub slo_objective: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            backends: Vec::new(),
            names: Vec::new(),
            vnodes: 64,
            probe_interval: Duration::from_millis(250),
            probe_timeout: Duration::from_millis(500),
            eject_after: 2,
            readmit_after: 3,
            retry: RetryPolicy {
                max_retries: 6,
                base_backoff: Duration::from_millis(25),
                max_backoff: Duration::from_millis(400),
                total_deadline: None,
            },
            hedge_floor: Duration::from_millis(250),
            breaker: BreakerConfig { failure_threshold: 4, open_for: Duration::from_secs(1) },
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(150),
            max_body: api::DEFAULT_MAX_BODY_BYTES,
            quarantine_after: 3,
            quarantine_for: Duration::from_secs(5),
            netfault: None,
            slo_target: None,
            slo_objective: 0.99,
        }
    }
}

/// One resolved (possibly hedged) submit attempt: which backend
/// answered first, under which attempt trace context and cause, fired
/// when, with what reply.
struct AttemptReply {
    backend: usize,
    ctx: TraceContext,
    cause: &'static str,
    fired_at: Instant,
    reply: std::io::Result<Reply>,
}

/// The raw `POST /jobs` request for one attempt, stamped with the
/// attempt's trace context so the backend's per-job spans parent to it.
fn submit_raw(text: &str, ctx: TraceContext) -> Vec<u8> {
    http::request("POST", "/jobs", &[(TRACE_HEADER, &ctx.encode())], Some(text))
}

/// One backend `/trace` event that belongs to the requested trace:
/// decoded just far enough to merge (times in µs on the *backend's*
/// clock — rebased into the parent attempt's window at render time).
struct BackendTraceEvent {
    kind: String,
    detail: String,
    at_us: u64,
    duration_us: Option<u64>,
    span: u64,
    parent: Option<u64>,
}

/// Decodes a backend `/trace` body, keeping only events stamped with
/// `trace_id`. `None` when the body is not the expected JSON shape.
fn parse_backend_trace(body: &str, trace_id: u128) -> Option<Vec<BackendTraceEvent>> {
    let value = serde_json::from_str(body).ok()?;
    let events = value.get("events")?.as_array()?;
    let want = format!("{trace_id:032x}");
    let mut out = Vec::new();
    for e in events {
        if e.get("trace").and_then(|t| t.as_str()) != Some(want.as_str()) {
            continue;
        }
        let Some(span) =
            e.get("span").and_then(|s| s.as_str()).and_then(|s| u64::from_str_radix(s, 16).ok())
        else {
            continue;
        };
        let parent =
            e.get("parent").and_then(|p| p.as_str()).and_then(|p| u64::from_str_radix(p, 16).ok());
        let at_us =
            e.get("at_s").and_then(|v| v.as_f64()).map(|s| (s * 1e6).max(0.0) as u64).unwrap_or(0);
        let duration_us =
            e.get("duration_s").and_then(|v| v.as_f64()).map(|s| (s * 1e6).max(0.0) as u64);
        out.push(BackendTraceEvent {
            kind: e.get("kind").and_then(|k| k.as_str()).unwrap_or("event").to_string(),
            detail: e.get("detail").and_then(|d| d.as_str()).unwrap_or("").to_string(),
            at_us,
            duration_us,
            span,
            parent,
        });
    }
    Some(out)
}

/// Renders the merged Chrome-trace document: router spans on pid 0
/// (dispatch on tid 0, each attempt on its own lane — hedge races
/// overlap in time, so they must not share one), then each backend's
/// events on pid `i + 1`, grouped under the attempt span that caused
/// them. Backend timestamps are offsets from a different clock, so
/// each group is re-based into its attempt's `[start, start + dur)`
/// window and clamped to keep parent/child intervals strictly nested.
fn render_merged_trace(
    trace_id: u128,
    router_spans: &[RouterSpan],
    scraped: &[(usize, Vec<BackendTraceEvent>)],
    addrs: &[String],
) -> String {
    use cf_core::profile::{trace_complete_event, trace_process_name, trace_thread_name};

    let mut evs: Vec<Value> = Vec::new();
    evs.push(trace_process_name(0, "cfrouter"));
    let mut router_end = 0u64;
    let mut attempt_windows: HashMap<u64, (u64, u64, &'static str)> = HashMap::new();
    let mut next_tid = 1u64;
    for s in router_spans {
        let tid = if s.name == "dispatch" {
            evs.push(trace_thread_name(0, 0, "dispatch"));
            0
        } else {
            let tid = next_tid;
            next_tid += 1;
            evs.push(trace_thread_name(0, tid, &format!("attempt {tid}")));
            attempt_windows.insert(s.span_id, (s.start_us, s.dur_us.max(2), s.cause));
            tid
        };
        let mut args = Map::new();
        args.insert("cause", s.cause);
        args.insert("outcome", s.outcome);
        args.insert("span", format!("{:016x}", s.span_id));
        if let Some(p) = s.parent {
            args.insert("parent", format!("{p:016x}"));
        }
        if let Some(b) = s.backend {
            args.insert("backend", b as u64);
        }
        let mut ev = trace_complete_event(
            &format!("{} ({})", s.name, s.cause),
            "router",
            0,
            tid,
            s.start_us as f64,
            s.dur_us.max(1) as f64,
        );
        if let Value::Object(m) = &mut ev {
            m.insert("args", Value::Object(args));
        }
        evs.push(ev);
        router_end = router_end.max(s.start_us + s.dur_us.max(1));
    }

    for &(i, ref events) in scraped {
        if events.is_empty() {
            continue;
        }
        let pid = i as u64 + 1;
        let addr = addrs.get(i).map(String::as_str).unwrap_or("?");
        evs.push(trace_process_name(pid, &format!("cfserve {addr}")));
        // Group this backend's events by the router attempt span they
        // parent to; events with no (known) parent merge into one
        // "unparented" group after the router's own timeline.
        let mut groups: HashMap<Option<u64>, Vec<&BackendTraceEvent>> = HashMap::new();
        for e in events {
            let key = e.parent.filter(|p| attempt_windows.contains_key(p));
            groups.entry(key).or_default().push(e);
        }
        let mut keys: Vec<Option<u64>> = groups.keys().copied().collect();
        keys.sort_unstable();
        let mut tid = 0u64;
        for key in keys {
            let Some(group) = groups.get(&key) else { continue };
            let min_at = group.iter().map(|e| e.at_us).min().unwrap_or(0);
            let (base, limit) = match key.and_then(|p| attempt_windows.get(&p)) {
                Some(&(wstart, wdur, cause)) => {
                    // The attempt box re-rendered on the backend's pid,
                    // so its children visually nest under it.
                    evs.push(trace_complete_event(
                        &format!("attempt ({cause})"),
                        "backend",
                        pid,
                        tid,
                        wstart as f64,
                        wdur as f64,
                    ));
                    (wstart + 1, wstart + wdur - 1)
                }
                None => (router_end + 10, u64::MAX),
            };
            for e in group {
                let ts = base.saturating_add(e.at_us - min_at).min(limit);
                let mut args = Map::new();
                args.insert("detail", e.detail.as_str());
                args.insert("span", format!("{:016x}", e.span));
                if let Some(p) = e.parent {
                    args.insert("parent", format!("{p:016x}"));
                }
                if let Some(d) = e.duration_us {
                    args.insert("duration_us", d);
                }
                let mut ev = trace_complete_event(&e.kind, "backend", pid, tid, ts as f64, 0.0);
                if let Value::Object(m) = &mut ev {
                    m.insert("args", Value::Object(args));
                }
                evs.push(ev);
            }
            tid += 1;
        }
    }

    format!("{{\"trace\":\"{trace_id:032x}\",\"traceEvents\":{}}}", Value::Array(evs))
}

/// Maps a relayed backend status code to a status line the router can
/// answer with (unknown codes degrade to 502).
fn status_line(code: u16) -> &'static str {
    match code {
        200 => "200 OK",
        202 => "202 Accepted",
        400 => "400 Bad Request",
        404 => "404 Not Found",
        405 => "405 Method Not Allowed",
        413 => "413 Payload Too Large",
        500 => "500 Internal Server Error",
        503 => "503 Service Unavailable",
        _ => "502 Bad Gateway",
    }
}

// ---------------------------------------------------------------------------
// Distributed-trace spans and SLO accounting
// ---------------------------------------------------------------------------

/// One router-side span: the dispatch of a submission, or a single
/// attempt against one backend (primary, hedge, failover, resubmit).
/// Retained in a bounded ring for `GET /trace/<trace-id>` assembly.
#[derive(Debug, Clone)]
struct RouterSpan {
    trace_id: u128,
    span_id: u64,
    parent: Option<u64>,
    /// `"dispatch"` (the whole routed submission) or `"attempt"` (one
    /// exchange against one backend).
    name: &'static str,
    /// Why the span exists: `"submit"` for dispatch; `"primary"`,
    /// `"hedge"`, `"eject-failover"`, `"corrupt-failover"` or
    /// `"resubmit"` for attempts.
    cause: &'static str,
    /// Target backend index (attempts only).
    backend: Option<usize>,
    /// Start offset, µs since the router started.
    start_us: u64,
    dur_us: u64,
    /// `"ok"`, `"failed"`, or `"cancelled"` (a hedged race's loser).
    outcome: &'static str,
}

/// One burn-rate window bucket (`slot` disambiguates ring reuse: a
/// bucket whose slot is stale belongs to a previous revolution and is
/// reset on the next write, ignored on reads outside the window).
#[derive(Debug, Clone, Copy, Default)]
struct SloBucket {
    slot: u64,
    good: u64,
    bad: u64,
}

/// SLO accounting over streamed records: lifetime good/bad counters
/// plus two bucket rings for the 5-minute (60 × 5 s) and 1-hour
/// (60 × 60 s) burn-rate windows. Burn rate is
/// `(bad_w / total_w) / (1 − objective)` over the window — the rate at
/// which the error budget is being spent, 1.0 meaning "on schedule to
/// exhaust it exactly".
#[derive(Debug)]
struct SloTracker {
    target: Duration,
    objective: f64,
    good: AtomicU64,
    bad: AtomicU64,
    w5m: Mutex<[SloBucket; SLO_SLOTS]>,
    w1h: Mutex<[SloBucket; SLO_SLOTS]>,
}

impl SloTracker {
    fn new(target: Duration, objective: f64) -> SloTracker {
        SloTracker {
            target,
            // An objective of 1.0 would make every burn rate infinite;
            // clamp just below so the math stays finite.
            objective: objective.clamp(0.0, 0.999_999),
            good: AtomicU64::new(0),
            bad: AtomicU64::new(0),
            w5m: Mutex::new([SloBucket::default(); SLO_SLOTS]),
            w1h: Mutex::new([SloBucket::default(); SLO_SLOTS]),
        }
    }

    /// Books one streamed record at router-uptime `uptime`.
    fn record(&self, latency: Duration, uptime: Duration) {
        let good = latency <= self.target;
        if good {
            self.good.fetch_add(1, Ordering::Relaxed);
        } else {
            self.bad.fetch_add(1, Ordering::Relaxed);
        }
        Self::bump(&self.w5m, uptime.as_secs() / 5, good);
        Self::bump(&self.w1h, uptime.as_secs() / 60, good);
    }

    fn bump(ring: &Mutex<[SloBucket; SLO_SLOTS]>, slot: u64, good: bool) {
        let mut ring = sync::lock(ring);
        let b = &mut ring[(slot as usize) % SLO_SLOTS];
        if b.slot != slot {
            *b = SloBucket { slot, good: 0, bad: 0 };
        }
        if good {
            b.good += 1;
        } else {
            b.bad += 1;
        }
    }

    fn window(ring: &Mutex<[SloBucket; SLO_SLOTS]>, now_slot: u64) -> (u64, u64) {
        let ring = sync::lock(ring);
        let lo = now_slot.saturating_sub(SLO_SLOTS as u64 - 1);
        ring.iter()
            .filter(|b| b.slot >= lo && b.slot <= now_slot)
            .fold((0, 0), |(g, bd), b| (g + b.good, bd + b.bad))
    }

    fn burn_rate(&self, ring: &Mutex<[SloBucket; SLO_SLOTS]>, now_slot: u64) -> f64 {
        let (good, bad) = Self::window(ring, now_slot);
        let total = good + bad;
        let allowed = 1.0 - self.objective;
        if total == 0 {
            return 0.0;
        }
        (bad as f64 / total as f64) / allowed
    }

    /// Lifetime error budget remaining, 1.0 (untouched) → 0.0 (spent).
    fn budget_remaining(&self) -> f64 {
        let good = self.good.load(Ordering::Relaxed);
        let bad = self.bad.load(Ordering::Relaxed);
        let total = good + bad;
        if total == 0 {
            return 1.0;
        }
        let allowed = (1.0 - self.objective) * total as f64;
        (1.0 - bad as f64 / allowed).clamp(0.0, 1.0)
    }
}

/// `Duration` → whole µs, saturating (the span/attribution unit).
fn dur_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// The router
// ---------------------------------------------------------------------------

/// Where an accepted job lives: enough to proxy polls and to resubmit
/// the job elsewhere if its backend dies.
#[derive(Debug, Clone)]
struct JobRoute {
    /// The single-job spec body, retained for failover resubmission.
    spec: String,
    /// The ring fingerprint the job was routed by.
    fingerprint: u64,
    /// Owning backend index.
    backend: usize,
    /// The job's id *on that backend* (backend-local ids are translated
    /// to fleet-wide router ids at the edge).
    backend_id: u64,
    /// The submission's root trace context — the router's dispatch
    /// span; every attempt (and the backend's per-job span) descends
    /// from it.
    trace: TraceContext,
    /// When the router accepted the submission (attribution clock).
    accepted_at: Instant,
    /// Accept → booking time minus submit-side backoff sleeps, µs.
    submit_us: u64,
    /// Failover/backoff sleeps attributed to this job so far, µs.
    backoff_us: u64,
}

/// The shard router (see the module docs). Construct with
/// [`Router::new`], serve with [`RouterServer::bind`], and start the
/// health prober with `Router::start_prober`.
#[derive(Debug)]
pub struct Router {
    config: RouterConfig,
    ring: Ring,
    backends: Mutex<Vec<Backend>>,
    jobs: Mutex<HashMap<u64, JobRoute>>,
    next_id: AtomicU64,
    stats: RouterStats,
    submit_latency: LatencyHistogram,
    /// Set by [`stop`](Router::stop), which signals `stop_signal`.
    stopping: Mutex<bool>,
    stop_signal: Condvar,
    prober: Mutex<Option<thread::JoinHandle<()>>>,
    connector: Arc<dyn Connector>,
    /// The router's span clock zero (span offsets are µs since this).
    started: Instant,
    /// Bounded ring of router-side spans for trace assembly.
    spans: Mutex<VecDeque<RouterSpan>>,
    /// SLO accounting, when a target is configured.
    slo: Option<SloTracker>,
}

impl Router {
    /// A router over `config.backends` (at least one required). A
    /// `config.netfault` plan decorates the dialer with seeded wire
    /// faults (chaos testing — see [`crate::netfault`]).
    pub fn new(config: RouterConfig) -> Arc<Router> {
        let named = config.names.len() == config.backends.len();
        let names = if named { &config.names } else { &config.backends };
        let ring = Ring::new(names, config.vnodes);
        let backends = config
            .backends
            .iter()
            .map(|a| Backend::new(a.clone(), config.breaker.clone()))
            .collect();
        let connector: Arc<dyn Connector> = match &config.netfault {
            Some(plan) => Arc::new(
                FaultConnector::new(Arc::new(TcpConnector), plan.clone())
                    .with_names(config.backends.iter().cloned().zip(names.iter().cloned())),
            ),
            None => Arc::new(TcpConnector),
        };
        let slo = config.slo_target.map(|t| SloTracker::new(t, config.slo_objective));
        Arc::new(Router {
            ring,
            backends: Mutex::new(backends),
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            stats: RouterStats::default(),
            submit_latency: LatencyHistogram::default(),
            stopping: Mutex::new(false),
            stop_signal: Condvar::new(),
            prober: Mutex::new(None),
            connector,
            started: Instant::now(),
            spans: Mutex::new(VecDeque::new()),
            slo,
            config,
        })
    }

    /// The router's counters.
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// Appends one span to the bounded store (oldest falls off).
    fn record_span(&self, span: RouterSpan) {
        let mut spans = sync::lock(&self.spans);
        if spans.len() >= ROUTER_SPAN_CAP {
            spans.pop_front();
        }
        spans.push_back(span);
    }

    /// Records one finished attempt span against `backend` (fired at
    /// `fired_at`, ending now).
    fn record_attempt(
        &self,
        ctx: TraceContext,
        cause: &'static str,
        backend: usize,
        fired_at: Instant,
        outcome: &'static str,
    ) {
        self.record_span(RouterSpan {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent: ctx.parent,
            name: "attempt",
            cause,
            backend: Some(backend),
            start_us: dur_us(fired_at.duration_since(self.started)),
            dur_us: dur_us(fired_at.elapsed()),
            outcome,
        });
    }

    /// Starts the background health prober (idempotent).
    pub(crate) fn start_prober(self: &Arc<Self>) {
        let mut slot = sync::lock(&self.prober);
        if slot.is_some() {
            return;
        }
        let router = Arc::clone(self);
        let spawned =
            thread::Builder::new().name("cf-router-prober".to_string()).spawn(move || {
                while !*sync::lock(&router.stopping) {
                    router.probe_once();
                    // Sleep out the probe interval unless `stop` signals.
                    let stopping = sync::lock(&router.stopping);
                    let interval = router.config.probe_interval;
                    drop(router.stop_signal.wait_timeout_while(stopping, interval, |s| !*s));
                }
            });
        if let Ok(handle) = spawned {
            *slot = Some(handle);
        }
    }

    /// Stops the prober thread (also done when a [`RouterServer`] shuts
    /// down).
    pub(crate) fn stop(&self) {
        *sync::lock(&self.stopping) = true;
        self.stop_signal.notify_all();
        if let Some(handle) = sync::lock(&self.prober).take() {
            let _ = handle.join();
        }
    }

    /// Runs one health-probe pass over every backend (the prober thread
    /// calls this on its cadence; tests call it directly).
    pub(crate) fn probe_once(&self) {
        let addrs: Vec<(usize, String)> = {
            let backends = sync::lock(&self.backends);
            backends.iter().enumerate().map(|(i, b)| (i, b.addr.clone())).collect()
        };
        for (idx, addr) in addrs {
            let raw = http::request("GET", "/healthz", &[], None);
            let reply = self.connector.fetch(
                &addr,
                &raw,
                self.config.probe_timeout,
                self.config.probe_timeout,
                None,
            );
            let probe = match reply {
                Ok(r) if r.status == 200 => Probe::Ok,
                Ok(r) if r.text().contains("\"status\":\"draining\"") => Probe::Draining,
                Ok(r) => Probe::Failed(format!("healthz answered {}", r.status)),
                Err(e) => Probe::Failed(e.to_string()),
            };
            if matches!(probe, Probe::Failed(_)) {
                self.stats.probe_failures.fetch_add(1, Ordering::Relaxed);
            }
            let mut backends = sync::lock(&self.backends);
            if let Some(b) = backends.get_mut(idx) {
                let (ejected, readmitted) = b.note_probe(
                    probe,
                    self.config.eject_after,
                    self.config.readmit_after,
                    self.config.quarantine_for,
                );
                if ejected {
                    self.stats.ejections.fetch_add(1, Ordering::Relaxed);
                }
                if readmitted {
                    self.stats.readmissions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Whether new work may be routed to backend `idx` right now:
    /// healthy per the prober *and* admitted by its circuit breaker.
    fn routable(&self, idx: usize) -> bool {
        let backends = sync::lock(&self.backends);
        match backends.get(idx) {
            Some(b) => b.health == BackendHealth::Up && b.breaker.allow(),
            None => false,
        }
    }

    fn backend_addr(&self, idx: usize) -> String {
        let backends = sync::lock(&self.backends);
        backends.get(idx).map(|b| b.addr.clone()).unwrap_or_default()
    }

    fn note_request_outcome(&self, idx: usize, ok: bool) {
        let mut backends = sync::lock(&self.backends);
        if let Some(b) = backends.get_mut(idx) {
            if ok {
                b.breaker.record_success();
                // An intact, verified response clears the corruption
                // streak: quarantine needs *consecutive* evidence.
                b.consecutive_corruptions = 0;
            } else {
                b.breaker.record_failure();
            }
        }
    }

    /// Books one corrupt (digest-mismatch) response from backend `idx`:
    /// counts it, feeds the circuit breaker, and — past
    /// `quarantine_after` consecutive corruptions while `Up` — moves
    /// the backend to [`BackendHealth::Quarantined`].
    fn note_corruption(&self, idx: usize) {
        self.stats.corrupt_responses.fetch_add(1, Ordering::Relaxed);
        let mut backends = sync::lock(&self.backends);
        if let Some(b) = backends.get_mut(idx) {
            b.breaker.record_failure();
            b.consecutive_corruptions = b.consecutive_corruptions.saturating_add(1);
            if b.health == BackendHealth::Up
                && b.consecutive_corruptions >= self.config.quarantine_after
            {
                b.health = BackendHealth::Quarantined;
                b.quarantined_at = Some(Instant::now());
                self.stats.quarantines.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The candidate order for `fingerprint`: ring replicas with the
    /// routable ones first (relative ring order preserved in both
    /// halves), so failover prefers live backends but can still try a
    /// possibly-recovered one as a last resort.
    fn candidates(&self, fingerprint: u64) -> Vec<usize> {
        let order = self.ring.replicas(fingerprint);
        let (alive, dead): (Vec<usize>, Vec<usize>) =
            order.into_iter().partition(|&i| self.routable(i));
        let mut out = alive;
        out.extend(dead);
        out
    }

    /// The current hedge threshold: the p95 of observed submit latencies
    /// once enough samples exist, floored by `hedge_floor`.
    fn hedge_threshold(&self) -> Duration {
        let floor = self.config.hedge_floor;
        let count = self.submit_latency.count();
        if count < HEDGE_MIN_SAMPLES {
            return floor;
        }
        let counts = self.submit_latency.bucket_counts();
        let target = (count as f64 * HEDGE_QUANTILE).ceil() as u64;
        let mut cumulative = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                let micros = 1u64 << (i + 1).min(63);
                return Duration::from_micros(micros).max(floor);
            }
        }
        floor
    }

    /// Fires one submit attempt at `primary` — with its own child trace
    /// context, so the backend's spans parent to this attempt — hedging
    /// one duplicate to `secondary` if no answer arrives within the
    /// hedge threshold. Attempts run on parked threads; this one keeps
    /// the timer and both cancel slots. First answer wins; the loser's
    /// stream is shut down at once, its span recorded as `cancelled`,
    /// and the hedge outcome booked on both backends' counters.
    fn exchange_hedged(
        &self,
        root: TraceContext,
        cause: &'static str,
        primary: usize,
        secondary: Option<usize>,
        text: &str,
    ) -> AttemptReply {
        let threshold = self.hedge_threshold();
        let (tx, rx) = mpsc::channel::<(usize, std::io::Result<Reply>)>();
        let fire = |idx: usize, ctx: TraceContext| {
            let slot = Arc::new(CancelSlot::default());
            let task_slot = Arc::clone(&slot);
            let addr = self.backend_addr(idx);
            let raw = submit_raw(text, ctx);
            let (connect, read) = (self.config.connect_timeout, self.config.read_timeout);
            let connector = Arc::clone(&self.connector);
            let task_tx = tx.clone();
            let started = parked::run(move || {
                let reply = connector.fetch(&addr, &raw, connect, read, Some(&task_slot));
                let _ = task_tx.send((idx, reply));
            });
            if let Err(e) = started {
                let _ = tx.send((idx, Err(e)));
            }
            slot
        };

        let primary_ctx = root.child();
        let primary_fired = Instant::now();
        let primary_slot = fire(primary, primary_ctx);
        let hedge_target = match secondary {
            Some(s) if !threshold.is_zero() && s != primary => Some(s),
            _ => None,
        };
        let mut hedge_fired: Option<(usize, TraceContext, Instant, Arc<CancelSlot>)> = None;
        let first = match hedge_target {
            Some(s) => match rx.recv_timeout(threshold) {
                Ok(first) => Ok(first),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    self.stats.hedges.fetch_add(1, Ordering::Relaxed);
                    let hedge_ctx = root.child();
                    hedge_fired = Some((s, hedge_ctx, Instant::now(), fire(s, hedge_ctx)));
                    // Only the attempts hold senders now: if both die
                    // unanswered, the receive fails instead of blocking.
                    drop(tx);
                    rx.recv()
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => Err(mpsc::RecvError),
            },
            None => {
                drop(tx);
                rx.recv()
            }
        };
        let Ok((idx, reply)) = first else {
            let lost = std::io::Error::other("proxy channel lost");
            return AttemptReply {
                backend: primary,
                ctx: primary_ctx,
                cause,
                fired_at: primary_fired,
                reply: Err(lost),
            };
        };
        // Resolve the race: the loser's span closes as `cancelled`,
        // and the per-backend hedge outcome lands on both sides.
        let (ctx, win_cause, fired_at) = match hedge_fired {
            Some((hedge_idx, hedge_ctx, hedge_at, hedge_slot)) => {
                // The loser is shut down now rather than left to ride out
                // its read timeout against a slow backend; one that has
                // already answered is unaffected, and its reply is dropped
                // with the channel.
                let (loser_idx, loser_ctx, loser_cause, loser_at, loser_slot) = if idx == primary {
                    (hedge_idx, hedge_ctx, "hedge", hedge_at, hedge_slot)
                } else {
                    (primary, primary_ctx, cause, primary_fired, primary_slot)
                };
                loser_slot.cancel();
                self.record_attempt(loser_ctx, loser_cause, loser_idx, loser_at, "cancelled");
                {
                    let mut backends = sync::lock(&self.backends);
                    if let Some(b) = backends.get_mut(idx) {
                        b.hedges_won += 1;
                    }
                    if let Some(b) = backends.get_mut(loser_idx) {
                        b.hedges_cancelled += 1;
                    }
                }
                if idx == primary {
                    (primary_ctx, cause, primary_fired)
                } else {
                    (hedge_ctx, "hedge", hedge_at)
                }
            }
            None => (primary_ctx, cause, primary_fired),
        };
        if idx != primary {
            self.stats.hedge_wins.fetch_add(1, Ordering::Relaxed);
        }
        AttemptReply { backend: idx, ctx, cause: win_cause, fired_at, reply }
    }

    /// Deterministic backoff jitter for failover attempt `attempt` of
    /// `key` (no RNG dependency; reproduces under test).
    fn failover_jitter(key: u64, attempt: u32) -> f64 {
        let h = fnv1a(&(key ^ u64::from(attempt)).to_le_bytes());
        (h % 1024) as f64 / 1024.0
    }

    // -- POST /jobs ---------------------------------------------------------

    /// Routes a `POST /jobs` body: consistent-hash, forward with
    /// failover + hedging, translate backend ids to router ids. The
    /// whole dispatch becomes the trace's root router span — parented
    /// to the client's context when one was propagated in — and the
    /// response echoes the root on `X-CF-Trace`.
    fn submit(&self, body: &[u8], client: Option<TraceContext>) -> Response {
        let root = match client {
            Some(c) => c.child(),
            None => TraceContext::mint(),
        };
        let t0 = Instant::now();
        let mut response = self.submit_routed(body, root, t0);
        self.record_span(RouterSpan {
            trace_id: root.trace_id,
            span_id: root.span_id,
            parent: root.parent,
            name: "dispatch",
            cause: "submit",
            backend: None,
            start_us: dur_us(t0.duration_since(self.started)),
            dur_us: dur_us(t0.elapsed()),
            outcome: if response.status.starts_with("202") { "ok" } else { "failed" },
        });
        response.extra.push((TRACE_HEADER, root.encode()));
        response
    }

    /// The submit failover loop under the dispatch span `root`.
    fn submit_routed(&self, body: &[u8], root: TraceContext, t0: Instant) -> Response {
        let Ok(text) = std::str::from_utf8(body) else {
            return Response::error("400 Bad Request", "body is not UTF-8");
        };
        let fingerprint = api::routing_fingerprint(text);
        let started = Instant::now();
        let mut failures = 0u32;
        let mut cause: &'static str = "primary";
        let mut backoff_total = Duration::ZERO;
        loop {
            let candidates = self.candidates(fingerprint);
            let Some(&target) = candidates.get(failures as usize % candidates.len().max(1)) else {
                return Response::error("502 Bad Gateway", "no backends configured");
            };
            let hedge = hedge_pick(&candidates, target, |c| self.routable(c));
            let attempt = self.exchange_hedged(root, cause, target, hedge, text);
            let winner = attempt.backend;
            let (error, next_cause) = match attempt.reply {
                Ok(r) if r.status == 202 && digest_ok(&r) => {
                    let booked =
                        self.accept(text, fingerprint, winner, &r, root, t0, dur_us(backoff_total));
                    match booked {
                        Ok(response) => {
                            self.note_request_outcome(winner, true);
                            self.record_attempt(
                                attempt.ctx,
                                attempt.cause,
                                winner,
                                attempt.fired_at,
                                "ok",
                            );
                            self.submit_latency.observe(t0.elapsed());
                            return response;
                        }
                        // An accept body the router cannot book is as
                        // bad as a corrupt one: fail over.
                        Err(response) => {
                            self.note_request_outcome(winner, false);
                            (response, "eject-failover")
                        }
                    }
                }
                Ok(r) if (r.status == 400 || r.status == 413) && digest_ok(&r) => {
                    // The spec itself is bad: every backend would agree.
                    self.note_request_outcome(winner, true);
                    self.record_attempt(attempt.ctx, attempt.cause, winner, attempt.fired_at, "ok");
                    return relay(&r);
                }
                Ok(r) if !digest_ok(&r) => {
                    // The reply does not match its own digest: the wire
                    // (or the backend) is lying. Never trust it.
                    self.note_corruption(winner);
                    let error = Response::error(
                        "502 Bad Gateway",
                        &format!("backend {}: corrupt response", self.backend_addr(winner)),
                    );
                    (error, "corrupt-failover")
                }
                Ok(r) => {
                    // 503 (shed / draining) or 5xx: try the next replica.
                    self.note_request_outcome(winner, false);
                    (relay(&r), "eject-failover")
                }
                Err(e) => {
                    self.note_request_outcome(winner, false);
                    let error = Response::error(
                        "502 Bad Gateway",
                        &format!("backend {}: {e}", self.backend_addr(winner)),
                    );
                    (error, "eject-failover")
                }
            };
            self.record_attempt(attempt.ctx, attempt.cause, winner, attempt.fired_at, "failed");
            cause = next_cause;
            failures += 1;
            let jitter = Self::failover_jitter(fingerprint, failures);
            match next_retry(&self.config.retry, failures, started.elapsed(), jitter) {
                Some(backoff) => {
                    self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                    thread::sleep(backoff);
                    backoff_total += backoff;
                }
                // Budget exhausted: the last error is the answer.
                None => return error,
            }
        }
    }

    /// Books an accepted submission: allocate fleet-wide ids, retain
    /// per-job specs for failover, answer with the translated ids.
    /// `Err` carries the response for an accept body the router cannot
    /// book — the caller treats it as a backend failure and fails over.
    #[allow(clippy::too_many_arguments)]
    fn accept(
        &self,
        body: &str,
        fingerprint: u64,
        backend: usize,
        reply: &Reply,
        root: TraceContext,
        accepted_at: Instant,
        backoff_us: u64,
    ) -> Result<Response, Response> {
        let text = String::from_utf8_lossy(&reply.body);
        let Ok(value) = serde_json::from_str(&text) else {
            return Err(Response::error("502 Bad Gateway", "unparseable backend accept"));
        };
        // Per-element specs: an array submission retains each element as
        // its own resubmittable body.
        let specs: Vec<String> = match serde_json::from_str(body) {
            Ok(parsed) => match parsed.as_array() {
                Some(items) => items.iter().map(|v| v.to_string()).collect(),
                None => vec![body.to_string()],
            },
            Err(_) => vec![body.to_string()],
        };
        let backend_ids: Vec<u64> = if let Some(id) = value.get("id").and_then(|v| v.as_u64()) {
            vec![id]
        } else if let Some(ids) = value.get("ids").and_then(|v| v.as_array()) {
            ids.iter().filter_map(|v| v.as_u64()).collect()
        } else {
            return Err(Response::error("502 Bad Gateway", "backend accept carries no id"));
        };
        let base = self.next_id.fetch_add(backend_ids.len() as u64, Ordering::Relaxed);
        {
            let mut jobs = sync::lock(&self.jobs);
            for (offset, &backend_id) in backend_ids.iter().enumerate() {
                let spec = specs.get(offset).cloned().unwrap_or_else(|| body.to_string());
                jobs.insert(
                    base + offset as u64,
                    JobRoute {
                        spec,
                        fingerprint,
                        backend,
                        backend_id,
                        trace: root,
                        accepted_at,
                        submit_us: dur_us(accepted_at.elapsed()).saturating_sub(backoff_us),
                        backoff_us,
                    },
                );
            }
        }
        self.stats.routed.fetch_add(backend_ids.len() as u64, Ordering::Relaxed);
        let body = if backend_ids.len() == 1 && value.get("id").is_some() {
            format!("{{\"id\":{base}}}")
        } else {
            let ids: Vec<String> =
                (0..backend_ids.len() as u64).map(|o| (base + o).to_string()).collect();
            format!("{{\"ids\":[{}]}}", ids.join(","))
        };
        Ok(Response::json("202 Accepted", body))
    }

    // -- GET /jobs/<id>[/status] --------------------------------------------

    /// Proxies a job poll to the owning backend, translating ids both
    /// ways; a dead owner triggers resubmission to the next replica.
    fn poll(&self, rid: u64, status_only: bool, query: Option<&str>) -> Response {
        let started = Instant::now();
        let mut failures = 0u32;
        loop {
            let Some(route) = sync::lock(&self.jobs).get(&rid).cloned() else {
                return Response::error("404 Not Found", "no such job");
            };
            let suffix = if status_only { "/status" } else { "" };
            let q = query.map(|q| format!("?{q}")).unwrap_or_default();
            let target = format!("/jobs/{}{suffix}{q}", route.backend_id);
            let raw = http::request("GET", &target, &[], None);
            let addr = self.backend_addr(route.backend);
            let reply = self.connector.fetch(
                &addr,
                &raw,
                self.config.connect_timeout,
                self.config.read_timeout,
                None,
            );
            match reply {
                Ok(r)
                    if (r.status == 200 || r.status == 202)
                        && self.reply_intact(&r, &route, status_only) =>
                {
                    self.note_request_outcome(route.backend, true);
                    if r.status == 200 && !status_only {
                        self.stats.records_streamed.fetch_add(1, Ordering::Relaxed);
                    }
                    let mut response = translate_ids(&r, route.backend_id, rid, status_only);
                    // Trace/attribution ride only as headers, never in
                    // the record body: byte-identity is preserved.
                    if let Some(trace) = r.header(TRACE_HEADER) {
                        response.extra.push((TRACE_HEADER, trace.to_string()));
                    }
                    if r.status == 200 {
                        if let Some(attr) =
                            r.header(ATTRIBUTION_HEADER).and_then(Attribution::parse)
                        {
                            response
                                .extra
                                .push((ATTRIBUTION_HEADER, self.finish_attribution(&route, attr)));
                        }
                    }
                    return response;
                }
                Ok(r) if r.status == 400 && digest_ok(&r) => {
                    self.note_request_outcome(route.backend, true);
                    return relay(&r);
                }
                // A digest mismatch (header or record field) means the
                // payload cannot be trusted: count it, feed the
                // quarantine state machine, and fail over — the corrupt
                // bytes never reach the client.
                Ok(r) if !self.reply_intact(&r, &route, status_only) => {
                    self.note_corruption(route.backend);
                }
                // 404 (restarted backend lost the job), 5xx, or a dead
                // connection: the owner cannot answer — fail over.
                Ok(_) | Err(_) => self.note_request_outcome(route.backend, false),
            }
            failures += 1;
            let jitter = Self::failover_jitter(route.fingerprint ^ rid, failures);
            let Some(backoff) = next_retry(&self.config.retry, failures, started.elapsed(), jitter)
            else {
                return Response::error(
                    "502 Bad Gateway",
                    &format!("job {rid}: backend {addr} unreachable and failover exhausted"),
                );
            };
            thread::sleep(backoff);
            {
                // Retry backoff is the client's time too: accrue it so
                // the final attribution can name it.
                let mut jobs = sync::lock(&self.jobs);
                if let Some(r) = jobs.get_mut(&rid) {
                    r.backoff_us = r.backoff_us.saturating_add(dur_us(backoff));
                }
            }
            if let Some((backend, backend_id)) = self.resubmit(&route) {
                self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                let mut jobs = sync::lock(&self.jobs);
                if let Some(r) = jobs.get_mut(&rid) {
                    r.backend = backend;
                    r.backend_id = backend_id;
                }
            }
        }
    }

    /// Whether a poll reply survives both integrity checks: the
    /// `X-CF-Digest` response header over the whole body, and — for a
    /// streamed record — the per-record digest field, bound to the
    /// backend-local id the router expects.
    fn reply_intact(&self, reply: &Reply, route: &JobRoute, status_only: bool) -> bool {
        if !digest_ok(reply) {
            return false;
        }
        if reply.status == 200 && !status_only {
            let body = String::from_utf8_lossy(&reply.body);
            return verify_record_json(body.trim_end_matches('\n'), Some(route.backend_id));
        }
        true
    }

    /// Extends a backend's attribution with the router-side components
    /// (see [`Attribution::push_router_view`]: the full sum equals the
    /// router's accept → stream time), folds the result into the
    /// `/stats` aggregates, and classifies the job against the SLO.
    /// Returns the encoded header value.
    fn finish_attribution(&self, route: &JobRoute, mut attr: Attribution) -> String {
        let total = attr.total_us();
        let router_us = dur_us(route.accepted_at.elapsed());
        let (net_submit, net_poll) =
            attr.push_router_view(router_us, route.submit_us, route.backoff_us);
        self.stats.attr_records.fetch_add(1, Ordering::Relaxed);
        self.stats.attr_total_us.fetch_add(total, Ordering::Relaxed);
        self.stats
            .attr_admission_us
            .fetch_add(attr.get("admission_us").unwrap_or(0), Ordering::Relaxed);
        self.stats.attr_queue_us.fetch_add(attr.get("queue_us").unwrap_or(0), Ordering::Relaxed);
        self.stats.attr_run_us.fetch_add(attr.get("run_us").unwrap_or(0), Ordering::Relaxed);
        self.stats.attr_net_us.fetch_add(net_submit + net_poll, Ordering::Relaxed);
        self.stats.attr_backoff_us.fetch_add(route.backoff_us, Ordering::Relaxed);
        if let Some(slo) = &self.slo {
            // SLO latency: backend execution + submit network + backoff,
            // each counted once. Poll wait is excluded — it measures the
            // client's polling cadence, not the fleet's service quality.
            let latency = total.saturating_add(net_submit).saturating_add(route.backoff_us);
            slo.record(Duration::from_micros(latency), self.started.elapsed());
        }
        attr.encode()
    }

    /// Resubmits a lost job's retained spec to the next live replica
    /// (skipping the dead owner); simulation is deterministic, so the
    /// re-run's record is byte-identical to the one the dead backend
    /// would have produced.
    fn resubmit(&self, route: &JobRoute) -> Option<(usize, u64)> {
        let candidates: Vec<usize> = self
            .candidates(route.fingerprint)
            .into_iter()
            .filter(|&c| c != route.backend && self.routable(c))
            .collect();
        for target in candidates {
            // Each resubmission attempt is its own child span under
            // the job's dispatch span, cause "resubmit".
            let ctx = route.trace.child();
            let fired_at = Instant::now();
            let raw = submit_raw(&route.spec, ctx);
            let addr = self.backend_addr(target);
            let reply = self.connector.fetch(
                &addr,
                &raw,
                self.config.connect_timeout,
                self.config.read_timeout,
                None,
            );
            match reply {
                Ok(r) if r.status == 202 && !digest_ok(&r) => {
                    self.note_corruption(target);
                    self.record_attempt(ctx, "resubmit", target, fired_at, "failed");
                }
                Ok(r) if r.status == 202 => {
                    self.note_request_outcome(target, true);
                    let text = String::from_utf8_lossy(&r.body);
                    let id = serde_json::from_str(&text)
                        .ok()
                        .and_then(|v: serde_json::Value| v.get("id").and_then(|i| i.as_u64()));
                    if let Some(id) = id {
                        self.record_attempt(ctx, "resubmit", target, fired_at, "ok");
                        return Some((target, id));
                    }
                    self.record_attempt(ctx, "resubmit", target, fired_at, "failed");
                }
                Ok(_) | Err(_) => {
                    self.note_request_outcome(target, false);
                    self.record_attempt(ctx, "resubmit", target, fired_at, "failed");
                }
            }
        }
        None
    }

    // -- Router-local endpoints ---------------------------------------------

    /// The router's `/healthz`: healthy while at least one backend is
    /// routable.
    fn healthz(&self) -> Response {
        let backends = sync::lock(&self.backends);
        let mut up = 0usize;
        let mut draining = 0usize;
        let mut ejected = 0usize;
        let mut quarantined = 0usize;
        for b in backends.iter() {
            match b.health {
                BackendHealth::Up => up += 1,
                BackendHealth::Draining => draining += 1,
                BackendHealth::Ejected => ejected += 1,
                BackendHealth::Quarantined => quarantined += 1,
            }
        }
        let healthy = up > 0;
        let body = format!(
            "{{\"status\":{},\"backends\":{},\"up\":{up},\"draining\":{draining},\"ejected\":{ejected},\"quarantined\":{quarantined}}}",
            if healthy { "\"ok\"" } else { "\"no-backends\"" },
            backends.len(),
        );
        Response::json(if healthy { "200 OK" } else { "503 Service Unavailable" }, body)
    }

    /// The router's `/stats`: counters plus the live backend table.
    pub fn stats_json(&self) -> String {
        let backends = sync::lock(&self.backends);
        let jobs = sync::lock(&self.jobs);
        let mut per_backend = vec![0u64; backends.len()];
        for route in jobs.values() {
            if let Some(n) = per_backend.get_mut(route.backend) {
                *n += 1;
            }
        }
        let rows: Vec<Value> = backends
            .iter()
            .zip(&per_backend)
            .map(|(b, &n)| {
                let breaker = match b.breaker.state() {
                    BreakerState::Closed => "closed",
                    BreakerState::Open => "open",
                    BreakerState::HalfOpen => "half-open",
                };
                let probe_error = match (&b.last_probe_error, b.last_probe_error_at) {
                    (Some(e), Some(at)) => Some((e.as_str(), at.elapsed().as_secs())),
                    _ => None,
                };
                let mut row = Map::new();
                row.insert("addr", b.addr.as_str());
                row.insert("health", b.health.name());
                row.insert("breaker", breaker);
                row.insert("jobs", n);
                row.insert("consecutive_failures", b.consecutive_failures);
                row.insert("consecutive_successes", b.consecutive_successes);
                row.insert("consecutive_corruptions", b.consecutive_corruptions);
                row.insert("hedges_won", b.hedges_won);
                row.insert("hedges_cancelled", b.hedges_cancelled);
                row.insert("last_probe_error", probe_error.map(|(e, _)| e));
                row.insert("last_probe_error_age_s", probe_error.map(|(_, age)| age));
                Value::Object(row)
            })
            .collect();
        let mut m = Map::new();
        for stat in RouterStats::COUNTERS {
            m.insert(stat.key, (stat.value)(&self.stats));
        }
        m.insert("jobs", jobs.len());
        m.insert("spans", sync::lock(&self.spans).len());
        m.insert("attribution", self.stats.attribution());
        m.insert("backends", rows);
        Value::Object(m).to_string()
    }

    /// The `/ring` routing table: vnode count, the backend list with
    /// each instance's live health state, and every `(point, backend)`
    /// pair in ring order.
    pub(crate) fn ring_json(&self) -> String {
        let backends = sync::lock(&self.backends);
        let names: Vec<String> = backends
            .iter()
            .map(|b| {
                format!(
                    "{{\"addr\":{},\"health\":{}}}",
                    json_str(&b.addr),
                    json_str(b.health.name())
                )
            })
            .collect();
        let points: Vec<String> = self
            .ring
            .points()
            .iter()
            .map(|&(p, b)| format!("{{\"point\":{p},\"backend\":{b}}}"))
            .collect();
        format!(
            "{{\"vnodes\":{},\"backends\":[{}],\"points\":[{}]}}",
            self.ring.vnodes(),
            names.join(","),
            points.join(","),
        )
    }

    /// GETs `target` from every backend in parallel: the backend
    /// addresses, plus the `200` bodies that pass their digest in
    /// backend order. A corrupt or unreachable instance is simply absent
    /// from the bodies; a corrupt one also counts against its backend.
    fn scrape(&self, target: &str) -> (Vec<String>, Vec<(usize, String)>) {
        let addrs: Vec<String> = {
            let backends = sync::lock(&self.backends);
            backends.iter().map(|b| b.addr.clone()).collect()
        };
        let raw = http::request("GET", target, &[], None);
        let (tx, rx) = mpsc::channel::<(usize, Option<String>, bool)>();
        let mut expected = 0usize;
        for (i, addr) in addrs.iter().enumerate() {
            let (tx, addr, raw) = (tx.clone(), addr.clone(), raw.clone());
            let connector = Arc::clone(&self.connector);
            let connect = self.config.connect_timeout;
            let read = self.config.probe_timeout.max(Duration::from_secs(2));
            let started = parked::run(move || {
                let reply = connector
                    .fetch(&addr, &raw, connect, read, None)
                    .ok()
                    .filter(|r| r.status == 200);
                let corrupt = reply.as_ref().is_some_and(|r| !digest_ok(r));
                let body = reply.filter(digest_ok).map(|r| r.text());
                let _ = tx.send((i, body, corrupt));
            });
            if started.is_ok() {
                expected += 1;
            }
        }
        drop(tx);
        let mut bodies: Vec<(usize, String)> = Vec::new();
        for _ in 0..expected {
            match rx.recv() {
                Ok((i, Some(body), _)) => bodies.push((i, body)),
                Ok((i, None, true)) => self.note_corruption(i),
                Ok((_, None, false)) => {}
                Err(_) => break,
            }
        }
        bodies.sort_by_key(|&(i, _)| i);
        (addrs, bodies)
    }

    /// Assembles the fleet-wide trace for `trace_id`: the router's own
    /// spans plus matching spans scraped from every backend's `/trace`,
    /// merged into one Chrome-trace (`traceEvents`) document. The
    /// router is pid 0; each backend is pid `i + 1`. Backend events are
    /// re-based into their parent attempt's router-clock window (their
    /// `at_s` stamps are relative to the *backend's* tracer birth, a
    /// different clock), preserving order and strict nesting.
    pub(crate) fn trace_json(&self, trace_id: u128) -> String {
        let router_spans: Vec<RouterSpan> =
            sync::lock(&self.spans).iter().filter(|s| s.trace_id == trace_id).cloned().collect();
        let (addrs, bodies) = self.scrape(&format!("/trace?trace={trace_id:032x}&limit=4096"));
        let scraped: Vec<(usize, Vec<BackendTraceEvent>)> = bodies
            .into_iter()
            .filter_map(|(i, body)| parse_backend_trace(&body, trace_id).map(|events| (i, events)))
            .collect();
        render_merged_trace(trace_id, &router_spans, &scraped, &addrs)
    }

    /// The aggregated `/metrics` body: every live backend's exposition
    /// merged (comment headers kept once — the renderer is
    /// schema-stable, so families align), plus the router's own
    /// `cf_router_*` series.
    pub fn metrics(&self) -> String {
        let (_, bodies) = self.scrape("/metrics");
        let mut out = String::with_capacity(32 * 1024);
        for (n, (_, body)) in bodies.iter().enumerate() {
            if n == 0 {
                out.push_str(body);
            } else {
                for line in body.lines().filter(|l| !l.starts_with('#')) {
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
        out.push_str(&self.own_metrics());
        out
    }

    /// The router's own `cf_router_*` and `cf_slo_*` series (no
    /// `instance` label: there is one router per fleet).
    fn own_metrics(&self) -> String {
        let mut out = String::with_capacity(2048);
        metrics::write_stats(&mut out, RouterStats::COUNTERS, Some(&self.stats), &[]);
        let mut up = Family::new(
            &mut out,
            "cf_router_backend_up",
            "gauge",
            "Backend routability as seen by the prober \
             (1 = up, 0 = ejected, draining or quarantined).",
        );
        for b in sync::lock(&self.backends).iter() {
            let value = if b.health == BackendHealth::Up { "1" } else { "0" };
            up.sample(&[("backend", &b.addr), ("state", b.health.name())], value);
        }
        self.slo_metrics(&mut out);
        out
    }

    /// Appends the `cf_slo_*` families. HELP/TYPE lines are always
    /// emitted so dashboards can discover the series; samples appear
    /// only when an SLO target is configured (`--slo-ms`).
    fn slo_metrics(&self, out: &mut String) {
        let slo = self.slo.as_ref();
        let uptime = self.started.elapsed();
        let series: [(&'static str, &str, &str, Option<Value>); 7] = [
            (
                "cf_slo_good_total",
                "counter",
                "Finished jobs whose SLO latency met the target.",
                slo.map(|s| s.good.load(Ordering::Relaxed).into()),
            ),
            (
                "cf_slo_bad_total",
                "counter",
                "Finished jobs whose SLO latency missed the target.",
                slo.map(|s| s.bad.load(Ordering::Relaxed).into()),
            ),
            (
                "cf_slo_error_budget_remaining",
                "gauge",
                "Fraction of the error budget still unspent (1 = untouched, 0 = exhausted).",
                slo.map(|s| s.budget_remaining().into()),
            ),
            (
                "cf_slo_burn_rate_5m",
                "gauge",
                "Error-budget burn rate over the trailing 5 minutes (1 = burning exactly at budget).",
                slo.map(|s| s.burn_rate(&s.w5m, uptime.as_secs() / 5).into()),
            ),
            (
                "cf_slo_burn_rate_1h",
                "gauge",
                "Error-budget burn rate over the trailing hour (1 = burning exactly at budget).",
                slo.map(|s| s.burn_rate(&s.w1h, uptime.as_secs() / 60).into()),
            ),
            (
                "cf_slo_target_seconds",
                "gauge",
                "Configured SLO latency target.",
                slo.map(|s| s.target.as_secs_f64().into()),
            ),
            (
                "cf_slo_objective",
                "gauge",
                "Configured SLO availability objective (e.g. 0.99).",
                slo.map(|s| s.objective.into()),
            ),
        ];
        for (name, kind, help, value) in series {
            let mut f = Family::new(out, name, kind, help);
            if let Some(value) = value {
                f.sample(&[], &value.to_string());
            }
        }
    }

    // -- Request dispatch ---------------------------------------------------

    /// Routes one parsed client request (the [`RouterServer`] accept
    /// loop calls this per connection).
    fn dispatch(&self, request: &HttpRequest) -> Response {
        let path = request.path();
        match path {
            "/healthz" | "/stats" | "/ring" | "/metrics" => {
                if request.method != "GET" {
                    return Response::method_not_allowed("GET", "only GET is supported");
                }
                match path {
                    "/healthz" => self.healthz(),
                    "/stats" => Response::json("200 OK", self.stats_json()),
                    "/ring" => Response::json("200 OK", self.ring_json()),
                    _ => Response::prometheus(self.metrics()),
                }
            }
            "/jobs" => {
                if request.method != "POST" {
                    return Response::method_not_allowed("POST", "submit jobs with POST");
                }
                // A client-supplied trace context parents the router's
                // dispatch span; a malformed one is the client's bug
                // and gets a 400, not a silent re-mint.
                let client = match request.header(TRACE_HEADER) {
                    Some(h) => match TraceContext::parse(h) {
                        Ok(c) => Some(c),
                        Err(e) => {
                            return Response::error(
                                "400 Bad Request",
                                &format!("malformed {TRACE_HEADER} header: {e}"),
                            );
                        }
                    },
                    None => None,
                };
                self.submit(&request.body, client)
            }
            _ => match path.strip_prefix("/trace/") {
                Some(rest) => {
                    if request.method != "GET" {
                        return Response::method_not_allowed("GET", "fetch traces with GET");
                    }
                    match u128::from_str_radix(rest, 16) {
                        Ok(id) if rest.len() <= 32 && id != 0 => {
                            Response::json("200 OK", self.trace_json(id))
                        }
                        _ => Response::error(
                            "400 Bad Request",
                            "trace id must be 1-32 hex digits, nonzero",
                        ),
                    }
                }
                None => self.dispatch_jobs(request, path),
            },
        }
    }

    /// The `/jobs/<id>` poll routes plus the 404 fallthrough.
    fn dispatch_jobs(&self, request: &HttpRequest, path: &str) -> Response {
        match path.strip_prefix("/jobs/") {
            Some(rest) => {
                if request.method != "GET" {
                    return Response::method_not_allowed("GET", "poll jobs with GET");
                }
                let (id_part, status_only) = match rest.strip_suffix("/status") {
                    Some(id_part) => (id_part, true),
                    None => (rest, false),
                };
                match id_part.parse::<u64>() {
                    Ok(id) => self.poll(id, status_only, request.query()),
                    Err(_) => {
                        Response::error("400 Bad Request", "job id must be an unsigned integer")
                    }
                }
            }
            None => Response::json(
                "404 Not Found",
                "{\"error\":\"not found\",\"routes\":[\"/healthz\",\"/stats\",\"/ring\",\
                 \"/metrics\",\"/jobs\",\"/jobs/<id>\",\"/jobs/<id>/status\",\
                 \"/trace/<trace-id>\"]}"
                    .to_string(),
            ),
        }
    }
}

/// Picks the hedge target for `target` from the ring candidates: `None`
/// unless at least two **live** (routable) backends exist — with a lone
/// live backend the duplicate would land on the very instance already
/// serving the primary, a pure waste.
fn hedge_pick(
    candidates: &[usize],
    target: usize,
    routable: impl Fn(usize) -> bool,
) -> Option<usize> {
    let live: Vec<usize> = candidates.iter().copied().filter(|&c| routable(c)).collect();
    if live.len() > 1 {
        live.into_iter().find(|&c| c != target)
    } else {
        None
    }
}

/// Relays a backend response verbatim (status, body, `Retry-After`).
fn relay(reply: &Reply) -> Response {
    let mut r = Response::json(status_line(reply.status), reply.text());
    if let Some(after) = reply.header("retry-after").and_then(|v| v.parse().ok()) {
        r.retry_after = Some(after);
    }
    r
}

/// Rewrites the backend-local id in a poll response to the router's
/// fleet-wide id: records lead with `{"job":N,`, status JSON with
/// `{"id":N,` — both exact prefixes of the deterministic renderers.
fn translate_ids(reply: &Reply, backend_id: u64, rid: u64, status_only: bool) -> Response {
    let body = reply.text();
    let rewritten = if reply.status == 200 && !status_only {
        let from = format!("{{\"job\":{backend_id},");
        let to = format!("{{\"job\":{rid},");
        if body.starts_with(&from) {
            body.replacen(&from, &to, 1)
        } else {
            body
        }
    } else {
        let from = format!("{{\"id\":{backend_id},");
        let to = format!("{{\"id\":{rid},");
        if body.starts_with(&from) {
            body.replacen(&from, &to, 1)
        } else {
            body
        }
    };
    Response::json(status_line(reply.status), rewritten)
}

// ---------------------------------------------------------------------------
// The router's HTTP server
// ---------------------------------------------------------------------------

/// The router's HTTP/1.1 listener: the shared [`AcceptLoop`], whose
/// resident threads each serve the connection they accepted:
/// `http::read_request`, dispatch (a panic answers `500`),
/// [`Response::write_to`]. Submit attempts and scrapes run on parked,
/// reused threads, so a request starts no thread. Binds 127.0.0.1 only.
#[derive(Debug)]
pub struct RouterServer {
    listener: AcceptLoop,
    router: Arc<Router>,
}

impl RouterServer {
    /// Binds `127.0.0.1:port` (0 picks a free port), starts the accept
    /// loop and the router's health prober.
    ///
    /// # Errors
    ///
    /// Any socket bind failure, unchanged.
    pub fn bind(port: u16, router: Arc<Router>) -> std::io::Result<RouterServer> {
        let handler = Arc::clone(&router);
        let listener = AcceptLoop::bind(port, "cf-router", move |stream, _| {
            let _ = serve_connection(stream, &handler);
        })?;
        router.start_prober();
        Ok(RouterServer { listener, router })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Stops the accept loop and joins the prober (also done on drop).
    /// Requests already being served finish on their own threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.listener.stop();
        self.router.stop();
    }
}

impl Drop for RouterServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Reads one request, dispatches it, writes one response. The router
/// stamps its own responses too — parse errors included — so a client
/// can hold the whole chain (backend → router → client) to one digest
/// check.
fn serve_connection(mut stream: TcpStream, router: &Router) -> std::io::Result<()> {
    let response = match http::read_request(&mut stream, router.config.max_body) {
        Ok(Some((request, _))) => Response::guarded(|| router.dispatch(&request)),
        Ok(None) => return Ok(()),
        Err(e) => Response::error(e.status(), &e.to_string()),
    };
    response.write_to(&mut stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9100 + i)).collect()
    }

    #[test]
    fn ring_is_deterministic_and_covers_all_backends() {
        let ring = Ring::new(&names(3), 64);
        assert_eq!(ring.points().len(), 3 * 64);
        for key in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            let a = ring.replicas(key);
            let b = ring.replicas(key);
            assert_eq!(a, b);
            assert_eq!(a.len(), 3, "{a:?}");
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "replicas must be distinct: {a:?}");
        }
    }

    #[test]
    fn removing_a_backend_keeps_surviving_assignments() {
        let all = names(4);
        let ring = Ring::new(&all, 64);
        let survivors: Vec<String> = all.iter().filter(|n| *n != &all[2]).cloned().collect();
        let smaller = Ring::new(&survivors, 64);
        for key in 0..500u64 {
            let before = match ring.primary(key) {
                Some(b) => b,
                None => panic!("empty ring"),
            };
            let after = match smaller.primary(key) {
                Some(b) => b,
                None => panic!("empty ring"),
            };
            if before != 2 {
                assert_eq!(&all[before], &survivors[after], "key {key} moved needlessly");
            }
        }
    }

    fn failed() -> Probe {
        Probe::Failed("connection refused".to_string())
    }

    #[test]
    fn probe_transitions_eject_and_readmit() {
        let q = Duration::ZERO;
        let mut b = Backend::new(
            "127.0.0.1:1".to_string(),
            BreakerConfig { failure_threshold: 2, open_for: Duration::from_millis(10) },
        );
        assert_eq!(b.health, BackendHealth::Up);
        assert_eq!(b.note_probe(failed(), 2, 3, q), (false, false));
        assert_eq!(b.health, BackendHealth::Up);
        assert_eq!(b.note_probe(failed(), 2, 3, q), (true, false));
        assert_eq!(b.health, BackendHealth::Ejected);
        // The failure that ejected the backend stays visible afterwards.
        assert_eq!(b.last_probe_error.as_deref(), Some("connection refused"));
        // Two successes are not enough at readmit_after = 3.
        assert_eq!(b.note_probe(Probe::Ok, 2, 3, q), (false, false));
        assert_eq!(b.note_probe(Probe::Ok, 2, 3, q), (false, false));
        assert_eq!(b.health, BackendHealth::Ejected);
        assert_eq!(b.note_probe(Probe::Ok, 2, 3, q), (false, true));
        assert_eq!(b.health, BackendHealth::Up);
        assert_eq!(b.last_probe_error.as_deref(), Some("connection refused"));
        // Draining is planned removal: no ejection counted.
        assert_eq!(b.note_probe(Probe::Draining, 2, 3, q), (false, false));
        assert_eq!(b.health, BackendHealth::Draining);
        // A draining backend that stops answering ends up ejected.
        assert_eq!(b.note_probe(failed(), 2, 3, q), (false, false));
        assert_eq!(b.note_probe(failed(), 2, 3, q), (true, false));
        assert_eq!(b.health, BackendHealth::Ejected);
    }

    #[test]
    fn quarantine_requires_consecutive_corruptions_and_sits_out_its_window() {
        let router = Router::new(RouterConfig {
            backends: names(2),
            quarantine_after: 3,
            quarantine_for: Duration::from_millis(40),
            ..RouterConfig::default()
        });
        // Two corruptions, then a good response: streak resets.
        router.note_corruption(0);
        router.note_corruption(0);
        router.note_request_outcome(0, true);
        router.note_corruption(0);
        router.note_corruption(0);
        assert!(router.routable(0), "streak of 2 must not quarantine at threshold 3");
        router.note_corruption(0);
        {
            let backends = sync::lock(&router.backends);
            assert_eq!(backends[0].health, BackendHealth::Quarantined);
        }
        assert!(!router.routable(0));
        assert_eq!(router.stats.quarantines.load(Ordering::Relaxed), 1);
        assert_eq!(router.stats.corrupt_responses.load(Ordering::Relaxed), 5);
        // Healthy probes inside the window do not release the backend...
        {
            let mut backends = sync::lock(&router.backends);
            for _ in 0..3 {
                backends[0].note_probe(Probe::Ok, 2, 3, Duration::from_millis(40));
            }
            assert_eq!(backends[0].health, BackendHealth::Quarantined);
        }
        // ...but once it elapses, the next healthy probe does.
        thread::sleep(Duration::from_millis(45));
        {
            let mut backends = sync::lock(&router.backends);
            assert_eq!(
                backends[0].note_probe(Probe::Ok, 2, 3, Duration::from_millis(40)),
                (false, true)
            );
            assert_eq!(backends[0].health, BackendHealth::Up);
            assert_eq!(backends[0].consecutive_corruptions, 0);
        }
        // The transition is visible in /stats, /ring and /healthz.
        router.note_corruption(1);
        router.note_corruption(1);
        router.note_corruption(1);
        let stats = router.stats_json();
        assert!(stats.contains("\"health\":\"quarantined\""), "{stats}");
        assert!(stats.contains("\"quarantines\":2"), "{stats}");
        let ring = router.ring_json();
        assert!(ring.contains("\"health\":\"quarantined\""), "{ring}");
        let h = router.healthz();
        assert!(h.body.contains("\"quarantined\":1"), "{}", h.body);
    }

    #[test]
    fn hedge_pick_skips_lone_live_backend() {
        // Two live backends: hedge to the other one.
        assert_eq!(hedge_pick(&[0, 1, 2], 0, |c| c < 2), Some(1));
        // Only the primary is live: no hedge — the duplicate would land
        // on the same instance.
        assert_eq!(hedge_pick(&[0, 1, 2], 0, |c| c == 0), None);
        // Nothing live at all: no hedge either.
        assert_eq!(hedge_pick(&[0, 1, 2], 0, |_| false), None);
        // Primary dead, two live replicas: hedge picks a live one.
        assert_eq!(hedge_pick(&[0, 1, 2], 0, |c| c > 0), Some(1));
    }

    /// A hedge that wins shuts the slow primary's connection down at
    /// once, instead of leaving it to ride out the read timeout.
    #[test]
    fn a_winning_hedge_cancels_the_in_flight_primary() {
        use std::io::Read;
        use std::net::TcpListener;

        // The primary accepts, reads, and never answers; it reports when
        // the router closes the connection.
        let stub = TcpListener::bind("127.0.0.1:0").unwrap();
        let stub_addr = stub.local_addr().unwrap().to_string();
        let (closed_tx, closed_rx) = mpsc::channel();
        let stub_thread = thread::spawn(move || {
            let (mut conn, _) = stub.accept().unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut buf = [0u8; 4096];
            while matches!(conn.read(&mut buf), Ok(n) if n > 0) {}
            let _ = closed_tx.send(Instant::now());
        });
        let obs = crate::Obs::new(64);
        let runtime = Arc::new(crate::Runtime::new(crate::RuntimeConfig {
            workers: 1,
            ..Default::default()
        }));
        obs.publish(runtime.stats_arc(), runtime.load_policy());
        obs.publish_api(crate::JobApi::new(Arc::clone(&runtime), 4096));
        let hedge = crate::StatusServer::bind(0, obs).unwrap();
        let router = Router::new(RouterConfig {
            backends: vec![stub_addr, hedge.local_addr().to_string()],
            hedge_floor: Duration::from_millis(10),
            ..RouterConfig::default()
        });
        // A spec the ring places on the stub first.
        let spec = (16u32..)
            .map(|order| {
                format!("{{\"workload\":\"matmul\",\"order\":{order},\"machine\":\"tiny\"}}")
            })
            .find(|spec| router.ring.replicas(api::routing_fingerprint(spec))[0] == 0)
            .unwrap();

        let response = router.submit(spec.as_bytes(), None);
        let answered = Instant::now();
        assert_eq!(response.status, "202 Accepted", "{}", response.body);
        assert_eq!(router.stats.hedge_wins.load(Ordering::Relaxed), 1);
        let closed = closed_rx
            .recv_timeout(Duration::from_secs(1))
            .expect("the losing primary's connection stayed open");
        assert!(closed.saturating_duration_since(answered) < Duration::from_secs(1));
        assert_eq!(sync::lock(&router.backends)[0].hedges_cancelled, 1);
        stub_thread.join().unwrap();
        hedge.shutdown();
    }

    #[test]
    fn relayed_status_codes_map_to_status_lines() {
        assert_eq!(status_line(202), "202 Accepted");
        assert_eq!(status_line(999), "502 Bad Gateway");
        let reply = Reply {
            status: 503,
            headers: vec![("Retry-After".to_string(), "7".to_string())],
            body: b"{}".to_vec(),
        };
        let relayed = relay(&reply);
        assert_eq!(relayed.status, "503 Service Unavailable");
        assert_eq!(relayed.retry_after, Some(7));
        assert_eq!(relayed.body, "{}");
    }

    #[test]
    fn id_translation_rewrites_exact_prefixes_only() {
        let record = Reply {
            status: 200,
            headers: Vec::new(),
            body: b"{\"job\":3,\"label\":\"x\",\"ok\":true}".to_vec(),
        };
        let out = translate_ids(&record, 3, 17, false);
        assert_eq!(out.body, "{\"job\":17,\"label\":\"x\",\"ok\":true}");
        let status = Reply {
            status: 202,
            headers: Vec::new(),
            body: b"{\"id\":0,\"state\":\"running\"}".to_vec(),
        };
        let out = translate_ids(&status, 0, 5, false);
        assert_eq!(out.body, "{\"id\":5,\"state\":\"running\"}");
        // A body whose prefix does not match is left alone.
        let odd = Reply { status: 200, headers: Vec::new(), body: b"{\"jobs\":3}".to_vec() };
        let out = translate_ids(&odd, 3, 17, false);
        assert_eq!(out.body, "{\"jobs\":3}");
    }

    #[test]
    fn hedge_threshold_floors_then_tracks_the_quantile() {
        let router = Router::new(RouterConfig {
            backends: names(2),
            hedge_floor: Duration::from_millis(10),
            ..RouterConfig::default()
        });
        assert_eq!(router.hedge_threshold(), Duration::from_millis(10));
        // 30 fast samples: p95 lands in a low bucket, clamped up to the floor.
        for _ in 0..30 {
            router.submit_latency.observe(Duration::from_micros(64));
        }
        assert_eq!(router.hedge_threshold(), Duration::from_millis(10));
        // A slow tail drags the p95 above the floor.
        for _ in 0..300 {
            router.submit_latency.observe(Duration::from_millis(80));
        }
        assert!(router.hedge_threshold() >= Duration::from_millis(80));
    }

    #[test]
    fn router_healthz_reflects_backend_states() {
        let router = Router::new(RouterConfig { backends: names(2), ..RouterConfig::default() });
        let r = router.healthz();
        assert_eq!(r.status, "200 OK");
        assert!(r.body.contains("\"up\":2"), "{}", r.body);
        {
            let mut backends = sync::lock(&router.backends);
            backends[0].health = BackendHealth::Ejected;
            backends[1].health = BackendHealth::Draining;
        }
        let r = router.healthz();
        assert_eq!(r.status, "503 Service Unavailable");
        assert!(r.body.contains("\"no-backends\""), "{}", r.body);
        assert!(r.body.contains("\"draining\":1"), "{}", r.body);
        let stats = router.stats_json();
        assert!(stats.contains("\"health\":\"ejected\""), "{stats}");
        assert!(stats.contains("\"health\":\"draining\""), "{stats}");
    }

    #[test]
    fn slo_tracker_burn_rate_and_budget() {
        let slo = SloTracker::new(Duration::from_millis(100), 0.99);
        // 99 good + 1 bad at a 99% objective: budget exactly spent,
        // 5m burn rate exactly 1.0.
        for i in 0..100u64 {
            let latency =
                if i == 0 { Duration::from_millis(200) } else { Duration::from_millis(10) };
            slo.record(latency, Duration::from_secs(i / 10));
        }
        assert_eq!(slo.good.load(Ordering::Relaxed), 99);
        assert_eq!(slo.bad.load(Ordering::Relaxed), 1);
        let burn = slo.burn_rate(&slo.w5m, 9 / 5);
        assert!((burn - 1.0).abs() < 1e-9, "burn={burn}");
        let budget = slo.budget_remaining();
        assert!(budget.abs() < 1e-9, "budget={budget}");
        // An empty window burns nothing; an untouched tracker has a
        // full budget.
        let fresh = SloTracker::new(Duration::from_millis(100), 0.99);
        assert_eq!(fresh.burn_rate(&fresh.w5m, 0), 0.0);
        assert_eq!(fresh.budget_remaining(), 1.0);
        // Old slots age out of the 5-minute window: book one bad job
        // at slot 0, look 60+ slots later.
        let aged = SloTracker::new(Duration::from_millis(100), 0.99);
        aged.record(Duration::from_millis(200), Duration::ZERO);
        assert!(aged.burn_rate(&aged.w5m, 0) > 0.0);
        assert_eq!(aged.burn_rate(&aged.w5m, 100), 0.0);
    }

    /// The five requests the router sends its backends, pinned byte for
    /// byte: the fault connector keys every decision on
    /// `fnv1a(raw request)`, so one changed byte would reshuffle every
    /// seeded chaos schedule.
    #[test]
    fn submit_raw_stamps_the_trace_header() {
        let ctx = TraceContext::mint();
        let raw = submit_raw("{\"x\":1}", ctx);
        let expected = format!(
            "POST /jobs HTTP/1.1\r\nHost: cfrouter\r\nX-CF-Trace: {}\r\nContent-Length: 7\r\nConnection: close\r\n\r\n{{\"x\":1}}",
            ctx.encode()
        );
        assert_eq!(String::from_utf8(raw).unwrap(), expected);

        let get =
            |target: &str| String::from_utf8(http::request("GET", target, &[], None)).unwrap();
        assert_eq!(
            get("/healthz"),
            "GET /healthz HTTP/1.1\r\nHost: cfrouter\r\nConnection: close\r\n\r\n"
        );
        assert_eq!(
            get("/jobs/3/status?timeout_s=5"),
            "GET /jobs/3/status?timeout_s=5 HTTP/1.1\r\nHost: cfrouter\r\nConnection: close\r\n\r\n"
        );
        let trace_id = 0xabc_u128;
        assert_eq!(
            get(&format!("/trace?trace={trace_id:032x}&limit=4096")),
            "GET /trace?trace=00000000000000000000000000000abc&limit=4096 HTTP/1.1\r\nHost: cfrouter\r\nConnection: close\r\n\r\n"
        );
        assert_eq!(
            get("/metrics"),
            "GET /metrics HTTP/1.1\r\nHost: cfrouter\r\nConnection: close\r\n\r\n"
        );
    }

    #[test]
    fn merged_trace_nests_backend_events_inside_attempt_windows() {
        let root = TraceContext::mint();
        let attempt = root.child();
        let spans = vec![
            RouterSpan {
                trace_id: root.trace_id,
                span_id: attempt.span_id,
                parent: attempt.parent,
                name: "attempt",
                cause: "primary",
                backend: Some(0),
                start_us: 100,
                dur_us: 5_000,
                outcome: "ok",
            },
            RouterSpan {
                trace_id: root.trace_id,
                span_id: root.span_id,
                parent: None,
                name: "dispatch",
                cause: "submit",
                backend: None,
                start_us: 50,
                dur_us: 6_000,
                outcome: "ok",
            },
        ];
        let events = vec![BackendTraceEvent {
            kind: "job-settle".to_string(),
            detail: "job 0".to_string(),
            at_us: 777,
            duration_us: Some(42),
            span: attempt.span_id + 1,
            parent: Some(attempt.span_id),
        }];
        let addrs = vec!["127.0.0.1:9000".to_string()];
        let body = render_merged_trace(root.trace_id, &spans, &[(0usize, events)], &addrs);
        let parsed = serde_json::from_str(&body).expect("merged trace parses");
        assert_eq!(
            parsed.get("trace").and_then(|t| t.as_str()),
            Some(format!("{:032x}", root.trace_id).as_str())
        );
        let evs = parsed.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents");
        // The backend's settle event lands strictly inside its
        // attempt's [100, 5100) window, on the backend's pid 1.
        let settle = evs
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("job-settle"))
            .expect("settle event present");
        assert_eq!(settle.get("pid").and_then(|p| p.as_u64()), Some(1));
        let ts = settle.get("ts").and_then(|t| t.as_f64()).expect("ts");
        assert!(ts > 100.0 && ts < 5_100.0, "ts={ts}");
        // The attempt window is re-rendered on the backend pid so the
        // children nest under a visible parent box.
        assert!(
            evs.iter().any(|e| {
                e.get("pid").and_then(|p| p.as_u64()) == Some(1)
                    && e.get("name").and_then(|n| n.as_str()) == Some("attempt (primary)")
            }),
            "{body}"
        );
    }
}
