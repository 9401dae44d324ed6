//! cf-netfault: the wire seams of the one fault model in
//! [`crate::fault`] — seeded *network* faults between router and
//! backends.
//!
//! Every wire decision is `FaultPlan::fires_at` on a wire
//! [`FaultSite`], drawn by [`WireFaults::draw`]. The token is
//! `mix(fnv1a(backend address), identity)`, where the request's identity
//! hashes its method, target, headers and body with the `X-CF-Trace`
//! line left out: the router stamps a freshly minted span on every
//! submit attempt, so the raw bytes of a retried request differ while
//! its identity does not. The attempt numbers repeated exchanges of the
//! same `(backend, identity)` pair — so one seed reproduces the same
//! fault *schedule* at any concurrency: the n-th identical request to a
//! backend always draws the n-th decision, no matter how other traffic
//! interleaves. Retries therefore draw fresh decisions (faults heal
//! under failover) while a replayed run replays the same schedule.
//!
//! The attempt ledger stays because the byte-level proxy sees only wire
//! bytes, and they carry no attempt index; adding one would change the
//! router's request bytes.
//!
//! Faults (see [`NetFault`]), at most one per exchange, in priority
//! order refusal > garbage > tear > corruption > connect latency >
//! trickle:
//!
//! * **Refuse** — the connect is refused outright;
//! * **Garbage** — the status line is overwritten with garbage;
//! * **Tear** — the connection tears mid-body: the reply truncates and
//!   the declared `Content-Length` no longer matches;
//! * **Corrupt** — one deterministic body byte flips, which the
//!   end-to-end record digest must catch (see
//!   [`crate::serve::verify_record_json`]);
//! * **ConnectLatency** — the connect/first byte stalls for
//!   [`FaultSpec::connect_latency`](crate::FaultSpec) (timing-only);
//! * **Trickle** — the response bytes trickle in over
//!   [`FaultSpec::trickle`](crate::FaultSpec) (slow-loris; timing-only).
//!
//! Two deployment shapes share the same draw: the in-process
//! `FaultConnector` decorating the router's real dialer (the
//! [`Connector`] seam in [`crate::http`]), and the standalone
//! byte-level [`FaultProxy`] (`cfrouter --fault-proxy`, on the shared
//! blocking [`AcceptLoop`]) for black-box end-to-end runs where the
//! victim must not even link the fault code. The proxy reads each
//! request with `http::read_request` and draws on the exact bytes it
//! consumed — the same bytes the router's dialer draws on — then
//! forwards them through [`TcpConnector`].
//! See DESIGN.md §11.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use crate::api;
use crate::fault::{fnv1a, mix, FaultPlan, FaultSite};
use crate::http::{self, find_head_end, CancelSlot, Connector, TcpConnector};
use crate::listener::AcceptLoop;
use crate::sync;
use crate::trace::TRACE_HEADER;

/// One wire fault the plan decided to inject on one exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Refuse the connect.
    Refuse,
    /// Sleep this long before dialing.
    ConnectLatency(Duration),
    /// Deliver the response over this much extra time.
    Trickle(Duration),
    /// Truncate the reply mid-body.
    Tear,
    /// Overwrite the status line.
    Garbage,
    /// Flip one body byte, at a position this key seeds.
    Corrupt(u64),
}

/// Deterministically mangles raw reply bytes in place for the payload
/// fault families (the timing and refusal faults leave them alone).
pub(crate) fn mangle(bytes: &mut Vec<u8>, fault: NetFault) {
    let head_end = find_head_end(bytes);
    match fault {
        NetFault::Tear => {
            // Keep the head but cut the body short (or halve a headless
            // blob): the declared Content-Length no longer matches.
            let keep = match head_end {
                Some(h) if bytes.len() > h + 4 => h + 4 + (bytes.len() - h - 4) / 2,
                _ => bytes.len() / 2,
            };
            bytes.truncate(keep);
        }
        NetFault::Garbage => {
            for (i, b) in bytes.iter_mut().take(8).enumerate() {
                *b = b"GARBAGE!"[i];
            }
        }
        NetFault::Corrupt(key) => {
            let body_start = head_end.map(|h| h + 4).unwrap_or(0);
            if bytes.len() > body_start {
                let span = bytes.len() - body_start;
                let at = body_start + (mix(key, 0x77) % span as u64) as usize;
                bytes[at] ^= 0x55;
            } else if let Some(last) = bytes.last_mut() {
                // No body: break the head terminator instead.
                *last ^= 0x55;
            }
        }
        NetFault::Refuse | NetFault::ConnectLatency(_) | NetFault::Trickle(_) => {}
    }
}

/// A request's stable identity: its head lines and body, hashed with
/// the `X-CF-Trace` line left out.
fn identity(raw: &[u8]) -> u64 {
    let head_len = find_head_end(raw).map_or(raw.len(), |h| h + 4);
    let (head, body) = raw.split_at(head_len);
    let name = TRACE_HEADER.as_bytes();
    let is_trace = |line: &[u8]| {
        line.get(..name.len()).is_some_and(|n| n.eq_ignore_ascii_case(name))
            && line.get(name.len()) == Some(&b':')
    };
    head.split(|&b| b == b'\n')
        .filter(|line| !is_trace(line))
        .fold(fnv1a(body), |h, line| mix(h, fnv1a(line)))
}

/// Numbers repeated exchanges of the same `(backend, identity)` pair:
/// the n-th call returns n-1.
#[derive(Debug, Default)]
pub(crate) struct AttemptLedger {
    seen: Mutex<HashMap<(u64, u64), u32>>,
}

impl AttemptLedger {
    pub(crate) fn next(&self, backend: u64, identity: u64) -> u32 {
        let mut seen = sync::lock(&self.seen);
        let slot = seen.entry((backend, identity)).or_insert(0);
        let attempt = *slot;
        *slot = slot.saturating_add(1);
        attempt
    }
}

/// A fault plan and its attempt ledger: the one wire-fault draw that
/// both `FaultConnector` and [`FaultProxy`] call.
#[derive(Debug)]
pub struct WireFaults {
    plan: FaultPlan,
    ledger: AttemptLedger,
}

impl WireFaults {
    /// Draws wire faults from `plan`'s wire sites.
    pub fn new(plan: FaultPlan) -> WireFaults {
        WireFaults { plan, ledger: AttemptLedger::default() }
    }

    /// The fault (if any) to inject on the next exchange of request
    /// `raw` with the backend named `backend`: the first wire site, in
    /// priority order, that fires for this `(backend, identity)` attempt.
    /// Name backends by something that outlives a run (a ring name, an
    /// `--instance` name), not by a port, so a seed replays anywhere.
    pub fn draw(&self, backend: &str, raw: &[u8]) -> Option<NetFault> {
        let (backend, identity) = (fnv1a(backend.as_bytes()), identity(raw));
        let token = mix(backend, identity);
        let attempt = self.ledger.next(backend, identity);
        let spec = self.plan.spec();
        [
            (FaultSite::Refuse, NetFault::Refuse),
            (FaultSite::Garbage, NetFault::Garbage),
            (FaultSite::Tear, NetFault::Tear),
            (FaultSite::WireCorrupt, NetFault::Corrupt(token)),
            (FaultSite::ConnectLatency, NetFault::ConnectLatency(spec.connect_latency)),
            (FaultSite::Trickle, NetFault::Trickle(spec.trickle)),
        ]
        .into_iter()
        .find(|&(site, _)| self.plan.fires_at(site, token, attempt, 0))
        .map(|(_, fault)| fault)
    }
}

/// A [`Connector`] decorator injecting the plan's wire faults over the
/// real dialer — the router-side deployment of the netfault layer.
#[derive(Debug)]
pub(crate) struct FaultConnector {
    inner: Arc<dyn Connector>,
    faults: WireFaults,
    /// Each dialled address's backend name; an unnamed address draws
    /// under itself.
    names: HashMap<String, String>,
}

impl FaultConnector {
    /// Decorates `inner` with faults drawn from `plan`, each backend
    /// drawing under its address.
    pub(crate) fn new(inner: Arc<dyn Connector>, plan: FaultPlan) -> FaultConnector {
        FaultConnector { inner, faults: WireFaults::new(plan), names: HashMap::new() }
    }

    /// Draws each `(address, name)` pair's faults under its name.
    pub(crate) fn with_names(mut self, names: impl IntoIterator<Item = (String, String)>) -> Self {
        self.names.extend(names);
        self
    }
}

impl Connector for FaultConnector {
    fn exchange(
        &self,
        addr: &str,
        raw: &[u8],
        connect_timeout: Duration,
        read_timeout: Duration,
        cancel: Option<&CancelSlot>,
    ) -> std::io::Result<Vec<u8>> {
        let name = self.names.get(addr).map_or(addr, String::as_str);
        let fault = self.faults.draw(name, raw);
        match fault {
            Some(NetFault::Refuse) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "netfault: connect refused",
                ))
            }
            Some(NetFault::ConnectLatency(d)) => thread::sleep(d),
            _ => {}
        }
        let mut bytes = self.inner.exchange(addr, raw, connect_timeout, read_timeout, cancel)?;
        match fault {
            Some(NetFault::Trickle(d)) => thread::sleep(d),
            Some(f) => mangle(&mut bytes, f),
            None => {}
        }
        Ok(bytes)
    }
}

/// Proxy-side connect timeout against the upstream.
const PROXY_CONNECT: Duration = Duration::from_secs(2);
/// Proxy-side read timeout: must outlast a `/jobs/<id>` long-poll.
const PROXY_READ: Duration = Duration::from_secs(150);
/// Trickle chunk size: small enough that a trickled record crosses many
/// writes, large enough to finish inside a test timeout.
const TRICKLE_CHUNK: usize = 256;

/// A standalone byte-level fault proxy: listens on a local port,
/// forwards each complete request to `upstream`, and applies the plan's
/// faults to the raw response bytes on the way back. Black-box: the
/// process under test just dials the proxy's address as if it were the
/// backend (`cfrouter --fault-proxy`). Runs on the shared blocking
/// [`AcceptLoop`]: each proxied connection is served, upstream exchange
/// included, on the resident thread that accepted it.
#[derive(Debug)]
pub struct FaultProxy {
    listener: AcceptLoop,
}

impl FaultProxy {
    /// Binds `127.0.0.1:port` (0 picks a free port) proxying to
    /// `upstream` under `plan`, drawing faults under the backend name
    /// `name` (see [`WireFaults::draw`]).
    ///
    /// # Errors
    ///
    /// Any socket bind failure, unchanged.
    pub fn bind(
        port: u16,
        upstream: &str,
        name: &str,
        plan: FaultPlan,
    ) -> std::io::Result<FaultProxy> {
        let faults = WireFaults::new(plan);
        let (upstream, name) = (upstream.to_string(), name.to_string());
        let listener = AcceptLoop::bind(port, "cf-fault-proxy", move |stream, _| {
            let _ = proxy_connection(stream, &upstream, &name, &faults);
        })?;
        Ok(FaultProxy { listener })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Stops the accept loop (also done on drop); connections already
    /// being proxied finish on their own threads.
    pub fn shutdown(mut self) {
        self.listener.stop();
    }
}

/// Reads one complete request off `client`, draws its fault (under the
/// backend name `name`), forwards, mangles, answers.
fn proxy_connection(
    mut client: TcpStream,
    upstream: &str,
    name: &str,
    faults: &WireFaults,
) -> std::io::Result<()> {
    // Unparseable or empty request: forward nothing, drop the client.
    let Ok(Some((_, raw))) = http::read_request(&mut client, api::DEFAULT_MAX_BODY_BYTES) else {
        return Ok(());
    };
    let fault = faults.draw(name, &raw);
    match fault {
        // Connect refusal, black-box style: close without a byte.
        Some(NetFault::Refuse) => return Ok(()),
        Some(NetFault::ConnectLatency(d)) => thread::sleep(d),
        _ => {}
    }

    let mut bytes = TcpConnector.exchange(upstream, &raw, PROXY_CONNECT, PROXY_READ, None)?;

    match fault {
        Some(NetFault::Trickle(total)) => {
            let chunks = bytes.chunks(TRICKLE_CHUNK).len().max(1);
            let pause = total / chunks as u32;
            for piece in bytes.chunks(TRICKLE_CHUNK) {
                client.write_all(piece)?;
                client.flush()?;
                thread::sleep(pause);
            }
        }
        Some(f) => {
            mangle(&mut bytes, f);
            client.write_all(&bytes)?;
        }
        None => client.write_all(&bytes)?,
    }
    client.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;
    use crate::trace::TraceContext;

    fn mixed() -> FaultSpec {
        FaultSpec {
            refuse_rate: 0.1,
            connect_latency_rate: 0.05,
            trickle_rate: 0.05,
            tear_rate: 0.1,
            garbage_rate: 0.05,
            wire_corrupt_rate: 0.1,
            ..FaultSpec::none()
        }
    }

    fn submit(body: &str, ctx: TraceContext) -> Vec<u8> {
        http::request("POST", "/jobs", &[(TRACE_HEADER, &ctx.encode())], Some(body))
    }

    /// An upstream that always answers 200.
    #[derive(Debug)]
    struct Always200;

    impl Connector for Always200 {
        fn exchange(
            &self,
            _: &str,
            _: &[u8],
            _: Duration,
            _: Duration,
            _: Option<&CancelSlot>,
        ) -> std::io::Result<Vec<u8>> {
            Ok(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok".to_vec())
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = WireFaults::new(FaultPlan::new(7, mixed()));
        let b = WireFaults::new(FaultPlan::new(7, mixed()));
        let c = WireFaults::new(FaultPlan::new(8, mixed()));
        let mut diverged = false;
        for backend in 0..10 {
            let addr = format!("127.0.0.1:{}", 9000 + backend);
            for job in 0..50 {
                let raw = http::request("GET", &format!("/jobs/{job}"), &[], None);
                for _ in 0..3 {
                    let d = a.draw(&addr, &raw);
                    assert_eq!(d, b.draw(&addr, &raw));
                    diverged |= d != c.draw(&addr, &raw);
                }
            }
        }
        assert!(diverged, "different seeds never diverged across 1500 decisions");
    }

    #[test]
    fn retried_submits_draw_from_a_stable_identity() {
        // Every router submit attempt carries a freshly minted trace
        // span; the draw must not see it, and the n-th exchange of the
        // same request must draw decision n.
        const ADDR: &str = "127.0.0.1:9001";
        const BODY: &str = r#"{"workload":"matmul","order":64,"machine":"f1"}"#;
        let plan = FaultPlan::new(5, FaultSpec { refuse_rate: 0.5, ..FaultSpec::none() });
        let refusals = |ctx: &dyn Fn() -> TraceContext| -> Vec<bool> {
            let connector = FaultConnector::new(Arc::new(Always200), plan.clone());
            let wait = Duration::from_secs(1);
            (0..32)
                .map(|_| connector.exchange(ADDR, &submit(BODY, ctx()), wait, wait, None).is_err())
                .collect()
        };
        let fresh = refusals(&TraceContext::mint);
        let fixed = TraceContext::mint();
        assert_eq!(fresh, refusals(&|| fixed), "a fresh trace span changed the draws");
        assert_eq!(fresh, refusals(&TraceContext::mint), "two connectors drew differently");
        let token = mix(fnv1a(ADDR.as_bytes()), identity(&submit(BODY, fixed)));
        let expected: Vec<bool> =
            (0..32).map(|n| plan.fires(FaultSite::Refuse, token, n)).collect();
        assert_eq!(fresh, expected, "exchange n must draw attempt n");
        assert!(fresh.contains(&true) && fresh.contains(&false), "{fresh:?}");
    }

    #[test]
    fn identity_ignores_only_the_trace_line() {
        let a = submit("{}", TraceContext::mint());
        let b = submit("{}", TraceContext::mint());
        assert_ne!(a, b);
        assert_eq!(identity(&a), identity(&b));
        let lower = String::from_utf8(a.clone()).unwrap().replace(TRACE_HEADER, "x-cf-trace");
        assert_eq!(identity(lower.as_bytes()), identity(&a), "header names are case-blind");
        assert_ne!(identity(&submit("{ }", TraceContext::mint())), identity(&a));
        let poll = |target: &str| identity(&http::request("GET", target, &[], None));
        assert_ne!(poll("/jobs/1"), poll("/jobs/2"));
    }

    #[test]
    fn wire_spec_parses_and_rejects() {
        let spec =
            FaultSpec::parse_wire("refuse=0.1, tear=0.2,corrupt=0.05,latency_ms=7,trickle_ms=9")
                .unwrap();
        assert_eq!(spec.refuse_rate, 0.1);
        assert_eq!(spec.tear_rate, 0.2);
        assert_eq!(spec.wire_corrupt_rate, 0.05);
        assert_eq!(spec.connect_latency, Duration::from_millis(7));
        assert_eq!(spec.trickle, Duration::from_millis(9));
        assert_eq!(spec.corrupt_rate, 0.0, "wire corrupt is not the cache site");
        assert_eq!(FaultSpec::parse_wire("bogus=1").unwrap_err(), "unknown netfault site `bogus`");
        assert_eq!(
            FaultSpec::parse_wire("panic=0.1").unwrap_err(),
            "unknown netfault site `panic`"
        );
        assert_eq!(
            FaultSpec::parse_wire("refuse=2.0").unwrap_err(),
            "netfault rate `refuse` must be in [0, 1], got 2"
        );
        assert_eq!(FaultSpec::parse_wire("refuse").unwrap_err(), "bad netfault-spec item `refuse`");
        assert_eq!(
            FaultSpec::parse_wire("trickle_ms=x").unwrap_err(),
            "bad netfault-spec value `x` for `trickle_ms`"
        );
        assert_eq!(FaultSpec::parse_wire("").unwrap(), FaultSpec::none());
    }

    #[test]
    fn mangle_tear_truncates_body_and_garbage_breaks_status() {
        let reply = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n0123456789".to_vec();
        let mut torn = reply.clone();
        mangle(&mut torn, NetFault::Tear);
        assert!(torn.len() < reply.len(), "tear must shorten the reply");
        assert!(find_head_end(&torn).is_some(), "tear keeps the head");

        let mut garbled = reply.clone();
        mangle(&mut garbled, NetFault::Garbage);
        assert_eq!(&garbled[..8], b"GARBAGE!");
        assert_eq!(garbled.len(), reply.len());

        let mut flipped = reply.clone();
        mangle(&mut flipped, NetFault::Corrupt(42));
        assert_eq!(flipped.len(), reply.len());
        let diff = reply.iter().zip(&flipped).filter(|(a, b)| a != b).count();
        assert_eq!(diff, 1, "corrupt flips exactly one byte");
        let head_end = find_head_end(&reply).unwrap() + 4;
        assert_eq!(&flipped[..head_end], &reply[..head_end], "corrupt stays in the body");
    }

    #[test]
    fn attempt_ledger_numbers_repeats_per_point() {
        let ledger = AttemptLedger::default();
        assert_eq!(ledger.next(1, 10), 0);
        assert_eq!(ledger.next(1, 10), 1);
        assert_eq!(ledger.next(2, 10), 0, "distinct backends count separately");
        assert_eq!(ledger.next(1, 11), 0, "distinct requests count separately");
        assert_eq!(ledger.next(1, 10), 2);
    }
}
