//! cf-netfault: deterministic, seeded *network* fault injection for the
//! fleet — the wire-level sibling of [`crate::fault`].
//!
//! A [`NetFaultPlan`] decides, purely from a hash of `(seed, site,
//! backend token, request fingerprint, attempt)`, whether a given wire
//! fault fires on a given exchange. The backend token is the FNV-1a of
//! the dialed address, the request fingerprint is the FNV-1a of the raw
//! request bytes, and the attempt numbers repeated exchanges of the
//! same `(backend, request)` pair — so one seed reproduces the same
//! fault *schedule* at any concurrency: the n-th identical request to a
//! backend always draws the n-th decision, no matter how other traffic
//! interleaves. Retries therefore draw fresh decisions (faults heal
//! under failover) while a replayed run replays the same schedule.
//!
//! Sites (see [`NetFaultSite`]):
//!
//! * **Refuse** — the connect is refused outright;
//! * **ConnectLatency** — the connect/first byte stalls for
//!   [`NetFaultSpec::latency`] (timing-only);
//! * **Trickle** — the response bytes trickle in over
//!   [`NetFaultSpec::trickle`] (slow-loris; timing-only);
//! * **Tear** — the connection tears mid-body: the reply truncates and
//!   the declared `Content-Length` no longer matches;
//! * **Garbage** — the status line is overwritten with garbage;
//! * **Corrupt** — one deterministic body byte flips, which the
//!   end-to-end record digest must catch (see
//!   [`crate::serve::verify_record_json`]).
//!
//! Two deployment shapes share the same plan: the in-process
//! [`FaultConnector`] decorating the router's real dialer (the
//! [`Connector`] seam in [`crate::router`]), and the standalone
//! byte-level [`FaultProxy`] (`cfrouter --fault-proxy`, on the shared
//! blocking [`AcceptLoop`]) for black-box end-to-end runs where the
//! victim must not even link the fault code.
//! See DESIGN.md §11.

use std::collections::HashMap;
use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::api;
use crate::fault::{fnv1a, mix};
use crate::listener::AcceptLoop;
use crate::router::{CancelSlot, Connector};
use crate::sync;

/// Where a wire fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetFaultSite {
    /// Refuse the connect outright.
    Refuse,
    /// Stall the connect / first response byte.
    ConnectLatency,
    /// Trickle the response bytes out slowly (slow-loris).
    Trickle,
    /// Tear the connection mid-body (truncated reply).
    Tear,
    /// Overwrite the status line with garbage.
    Garbage,
    /// Flip one deterministic body byte.
    Corrupt,
}

impl NetFaultSite {
    /// Decision-hash tag; disjoint from [`crate::fault::FaultSite`]
    /// tags so a shared seed never correlates job and wire faults.
    fn tag(self) -> u64 {
        match self {
            NetFaultSite::Refuse => 0x11,
            NetFaultSite::ConnectLatency => 0x12,
            NetFaultSite::Trickle => 0x13,
            NetFaultSite::Tear => 0x14,
            NetFaultSite::Garbage => 0x15,
            NetFaultSite::Corrupt => 0x16,
        }
    }

    /// Every site, in decision-priority order (at most one fault fires
    /// per exchange; connection-level faults outrank payload ones).
    pub const ALL: [NetFaultSite; 6] = [
        NetFaultSite::Refuse,
        NetFaultSite::Garbage,
        NetFaultSite::Tear,
        NetFaultSite::Corrupt,
        NetFaultSite::ConnectLatency,
        NetFaultSite::Trickle,
    ];
}

/// Per-site injection rates (each a probability in `[0, 1]`) plus the
/// timing-fault durations.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFaultSpec {
    /// Rate of refused connects (per exchange).
    pub refuse_rate: f64,
    /// Rate of stalled connects (per exchange).
    pub connect_latency_rate: f64,
    /// How long a stalled connect waits.
    pub latency: Duration,
    /// Rate of trickled responses (per exchange).
    pub trickle_rate: f64,
    /// Total extra time a trickled response takes to deliver.
    pub trickle: Duration,
    /// Rate of mid-body connection tears (per exchange).
    pub tear_rate: f64,
    /// Rate of garbage status lines (per exchange).
    pub garbage_rate: f64,
    /// Rate of single-byte body corruption (per exchange).
    pub corrupt_rate: f64,
}

impl NetFaultSpec {
    /// All rates zero: a plan that never fires.
    pub fn none() -> Self {
        NetFaultSpec {
            refuse_rate: 0.0,
            connect_latency_rate: 0.0,
            latency: Duration::from_millis(25),
            trickle_rate: 0.0,
            trickle: Duration::from_millis(50),
            tear_rate: 0.0,
            garbage_rate: 0.0,
            corrupt_rate: 0.0,
        }
    }

    /// Parses a `--netfault-spec` string: comma-separated `site=rate`
    /// pairs, e.g.
    /// `refuse=0.1,connect_latency=0.05,latency_ms=25,trickle=0.1,trickle_ms=50,tear=0.1,garbage=0.05,corrupt=0.1`.
    ///
    /// # Errors
    ///
    /// A message naming the unparseable pair or out-of-range rate.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut spec = NetFaultSpec::none();
        for pair in text.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) =
                pair.split_once('=').ok_or_else(|| format!("bad netfault-spec item `{pair}`"))?;
            let rate = |v: &str| {
                v.parse::<f64>().map_err(|_| format!("bad netfault-spec value `{v}` for `{key}`"))
            };
            let millis = |v: &str| {
                v.parse::<u64>()
                    .map(Duration::from_millis)
                    .map_err(|_| format!("bad netfault-spec value `{v}` for `{key}`"))
            };
            match key {
                "refuse" => spec.refuse_rate = rate(value)?,
                "connect_latency" => spec.connect_latency_rate = rate(value)?,
                "latency_ms" => spec.latency = millis(value)?,
                "trickle" => spec.trickle_rate = rate(value)?,
                "trickle_ms" => spec.trickle = millis(value)?,
                "tear" => spec.tear_rate = rate(value)?,
                "garbage" => spec.garbage_rate = rate(value)?,
                "corrupt" => spec.corrupt_rate = rate(value)?,
                other => return Err(format!("unknown netfault site `{other}`")),
            }
        }
        for (name, rate) in [
            ("refuse", spec.refuse_rate),
            ("connect_latency", spec.connect_latency_rate),
            ("trickle", spec.trickle_rate),
            ("tear", spec.tear_rate),
            ("garbage", spec.garbage_rate),
            ("corrupt", spec.corrupt_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("netfault rate `{name}` must be in [0, 1], got {rate}"));
            }
        }
        Ok(spec)
    }

    fn rate(&self, site: NetFaultSite) -> f64 {
        match site {
            NetFaultSite::Refuse => self.refuse_rate,
            NetFaultSite::ConnectLatency => self.connect_latency_rate,
            NetFaultSite::Trickle => self.trickle_rate,
            NetFaultSite::Tear => self.tear_rate,
            NetFaultSite::Garbage => self.garbage_rate,
            NetFaultSite::Corrupt => self.corrupt_rate,
        }
    }
}

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
    /// Flip one body byte.
    Corrupt,
}

/// A seeded, stateless wire-fault decider (see the module docs for the
/// determinism argument).
#[derive(Clone, PartialEq)]
pub struct NetFaultPlan {
    seed: u64,
    spec: NetFaultSpec,
}

impl fmt::Debug for NetFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetFaultPlan").field("seed", &self.seed).field("spec", &self.spec).finish()
    }
}

impl NetFaultPlan {
    /// A plan that injects per `spec`, decided by hashing against `seed`.
    pub fn new(seed: u64, spec: NetFaultSpec) -> Self {
        NetFaultPlan { seed, spec }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-site rates.
    pub fn spec(&self) -> &NetFaultSpec {
        &self.spec
    }

    /// Whether `site` fires for decision point
    /// `(backend, fingerprint, attempt)`.
    pub fn fires(&self, site: NetFaultSite, backend: u64, fingerprint: u64, attempt: u32) -> bool {
        let rate = self.spec.rate(site);
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let h = mix(mix(mix(mix(self.seed, site.tag()), backend), fingerprint), u64::from(attempt));
        // Map the hash to [0, 1) with 53 bits of precision.
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        unit < rate
    }

    /// The fault (if any) to inject on one exchange: sites are checked
    /// in [`NetFaultSite::ALL`] priority order and the first firing one
    /// wins, so at most one fault applies per exchange.
    pub fn decide(&self, backend: u64, fingerprint: u64, attempt: u32) -> Option<NetFault> {
        for site in NetFaultSite::ALL {
            if self.fires(site, backend, fingerprint, attempt) {
                return Some(match site {
                    NetFaultSite::Refuse => NetFault::Refuse,
                    NetFaultSite::ConnectLatency => NetFault::ConnectLatency(self.spec.latency),
                    NetFaultSite::Trickle => NetFault::Trickle(self.spec.trickle),
                    NetFaultSite::Tear => NetFault::Tear,
                    NetFaultSite::Garbage => NetFault::Garbage,
                    NetFaultSite::Corrupt => NetFault::Corrupt,
                });
            }
        }
        None
    }
}

/// Deterministically mangles raw reply bytes in place for the payload
/// fault families. `key` seeds byte-position choices so the same
/// decision point mangles the same way on every run.
pub fn mangle(bytes: &mut Vec<u8>, fault: NetFault, key: u64) {
    let head_end = bytes.windows(4).position(|w| w == b"\r\n\r\n");
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
        NetFault::Corrupt => {
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

/// Numbers repeated exchanges of the same `(backend, fingerprint)`
/// pair: the n-th call returns n-1. Shared by the connector decorator
/// and the proxy so both key decisions the same way.
#[derive(Debug, Default)]
struct AttemptLedger {
    seen: Mutex<HashMap<(u64, u64), u32>>,
}

impl AttemptLedger {
    fn next(&self, backend: u64, fingerprint: u64) -> u32 {
        let mut seen = sync::lock(&self.seen);
        let slot = seen.entry((backend, fingerprint)).or_insert(0);
        let attempt = *slot;
        *slot = slot.saturating_add(1);
        attempt
    }
}

/// A [`Connector`] decorator injecting the plan's wire faults over the
/// real dialer — the router-side deployment of the netfault layer.
#[derive(Debug)]
pub struct FaultConnector {
    inner: Arc<dyn Connector>,
    plan: NetFaultPlan,
    ledger: AttemptLedger,
    injected: AtomicU64,
}

impl FaultConnector {
    /// Decorates `inner` with faults drawn from `plan`.
    pub fn new(inner: Arc<dyn Connector>, plan: NetFaultPlan) -> FaultConnector {
        FaultConnector {
            inner,
            plan,
            ledger: AttemptLedger::default(),
            injected: AtomicU64::new(0),
        }
    }

    /// Faults injected so far (tests assert the plan actually fired).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
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
        let backend = fnv1a(addr.as_bytes());
        let fingerprint = fnv1a(raw);
        let attempt = self.ledger.next(backend, fingerprint);
        let Some(fault) = self.plan.decide(backend, fingerprint, attempt) else {
            return self.inner.exchange(addr, raw, connect_timeout, read_timeout, cancel);
        };
        self.injected.fetch_add(1, Ordering::Relaxed);
        match fault {
            NetFault::Refuse => Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "netfault: connect refused",
            )),
            NetFault::ConnectLatency(d) => {
                thread::sleep(d);
                self.inner.exchange(addr, raw, connect_timeout, read_timeout, cancel)
            }
            NetFault::Trickle(d) => {
                let bytes =
                    self.inner.exchange(addr, raw, connect_timeout, read_timeout, cancel)?;
                thread::sleep(d);
                Ok(bytes)
            }
            NetFault::Tear | NetFault::Garbage | NetFault::Corrupt => {
                let mut bytes =
                    self.inner.exchange(addr, raw, connect_timeout, read_timeout, cancel)?;
                mangle(&mut bytes, fault, mix(backend, fingerprint));
                Ok(bytes)
            }
        }
    }
}

/// Proxy-side connect timeout against the upstream.
const PROXY_CONNECT: Duration = Duration::from_secs(2);
/// Proxy-side read timeout: must outlast a `/jobs/<id>` long-poll.
const PROXY_READ: Duration = Duration::from_secs(150);
/// Time a proxied client gets to deliver one complete request.
const PROXY_CLIENT_READ: Duration = Duration::from_secs(10);
/// Trickle chunk size: small enough that a trickled record crosses many
/// writes, large enough to finish inside a test timeout.
const TRICKLE_CHUNK: usize = 256;

/// A standalone byte-level fault proxy: listens on a local port,
/// forwards each complete request to `upstream`, and applies the plan's
/// faults to the raw response bytes on the way back. Black-box: the
/// process under test just dials the proxy's address as if it were the
/// backend (`cfrouter --fault-proxy`). Runs on the shared blocking
/// [`AcceptLoop`], one thread per proxied connection.
#[derive(Debug)]
pub struct FaultProxy {
    listener: AcceptLoop,
}

impl FaultProxy {
    /// Binds `127.0.0.1:port` (0 picks a free port) proxying to
    /// `upstream` under `plan`.
    ///
    /// # Errors
    ///
    /// Any socket bind failure, unchanged.
    pub fn bind(port: u16, upstream: &str, plan: NetFaultPlan) -> std::io::Result<FaultProxy> {
        let ledger = AttemptLedger::default();
        let upstream = upstream.to_string();
        let listener = AcceptLoop::bind(port, "cf-fault-proxy", move |stream, _| {
            let _ = proxy_connection(stream, &upstream, &plan, &ledger);
        })?;
        Ok(FaultProxy { listener })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Stops the accept loop and joins its thread (also done on drop).
    pub fn shutdown(mut self) {
        self.listener.stop();
    }
}

/// Reads one complete request off `client`, decides the fault for its
/// `(upstream, request-bytes)` point, forwards, mangles, answers.
fn proxy_connection(
    mut client: TcpStream,
    upstream: &str,
    plan: &NetFaultPlan,
    ledger: &AttemptLedger,
) -> std::io::Result<()> {
    client.set_read_timeout(Some(Duration::from_millis(500)))?;
    client.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 4096];
    let deadline = Instant::now() + PROXY_CLIENT_READ;
    loop {
        match api::parse_request(&buf, api::DEFAULT_MAX_BODY_BYTES) {
            Ok(Some(_)) => break,
            Ok(None) => {}
            // Unparseable request: forward nothing, drop the client.
            Err(_) => return Ok(()),
        }
        if Instant::now() > deadline {
            return Ok(());
        }
        match client.read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return Ok(()),
        }
    }

    let backend = fnv1a(upstream.as_bytes());
    let fingerprint = fnv1a(&buf);
    let attempt = ledger.next(backend, fingerprint);
    let fault = plan.decide(backend, fingerprint, attempt);
    if fault == Some(NetFault::Refuse) {
        // Connect refusal, black-box style: close without a byte.
        return Ok(());
    }
    if let Some(NetFault::ConnectLatency(d)) = fault {
        thread::sleep(d);
    }

    let sock: SocketAddr = upstream.parse().map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("{upstream}: {e}"))
    })?;
    let mut up = TcpStream::connect_timeout(&sock, PROXY_CONNECT)?;
    up.set_read_timeout(Some(PROXY_READ))?;
    up.set_write_timeout(Some(PROXY_CONNECT))?;
    up.write_all(&buf)?;
    let mut bytes = Vec::with_capacity(1024);
    loop {
        match up.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => bytes.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }

    match fault {
        Some(f @ (NetFault::Tear | NetFault::Garbage | NetFault::Corrupt)) => {
            mangle(&mut bytes, f, mix(backend, fingerprint));
            client.write_all(&bytes)?;
        }
        Some(NetFault::Trickle(total)) => {
            let chunks = bytes.chunks(TRICKLE_CHUNK).len().max(1);
            let pause = total / chunks as u32;
            for piece in bytes.chunks(TRICKLE_CHUNK) {
                client.write_all(piece)?;
                client.flush()?;
                thread::sleep(pause);
            }
        }
        _ => client.write_all(&bytes)?,
    }
    client.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed() -> NetFaultSpec {
        NetFaultSpec {
            refuse_rate: 0.1,
            connect_latency_rate: 0.05,
            trickle_rate: 0.05,
            tear_rate: 0.1,
            garbage_rate: 0.05,
            corrupt_rate: 0.1,
            ..NetFaultSpec::none()
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = NetFaultPlan::new(7, mixed());
        let b = NetFaultPlan::new(7, mixed());
        let c = NetFaultPlan::new(8, mixed());
        let mut diverged = false;
        for backend in 0..10u64 {
            for fp in 0..50u64 {
                for attempt in 0..3 {
                    let d = a.decide(backend, fp, attempt);
                    assert_eq!(d, b.decide(backend, fp, attempt));
                    diverged |= d != c.decide(backend, fp, attempt);
                }
            }
        }
        assert!(diverged, "different seeds never diverged across 1500 decisions");
    }

    #[test]
    fn retries_draw_fresh_decisions() {
        let plan = NetFaultPlan::new(3, NetFaultSpec { refuse_rate: 0.5, ..NetFaultSpec::none() });
        let healed = (0..200u64).any(|fp| {
            plan.fires(NetFaultSite::Refuse, 1, fp, 0)
                && !plan.fires(NetFaultSite::Refuse, 1, fp, 1)
        });
        assert!(healed, "no decision point healed on retry at 50%");
    }

    #[test]
    fn spec_parses_and_rejects() {
        let spec =
            NetFaultSpec::parse("refuse=0.1, tear=0.2,corrupt=0.05,latency_ms=7,trickle_ms=9")
                .unwrap();
        assert_eq!(spec.refuse_rate, 0.1);
        assert_eq!(spec.tear_rate, 0.2);
        assert_eq!(spec.corrupt_rate, 0.05);
        assert_eq!(spec.latency, Duration::from_millis(7));
        assert_eq!(spec.trickle, Duration::from_millis(9));
        assert!(NetFaultSpec::parse("bogus=1").is_err());
        assert!(NetFaultSpec::parse("refuse=2.0").is_err());
        assert!(NetFaultSpec::parse("refuse").is_err());
        assert_eq!(NetFaultSpec::parse("").unwrap(), NetFaultSpec::none());
    }

    #[test]
    fn mangle_tear_truncates_body_and_garbage_breaks_status() {
        let reply = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n0123456789".to_vec();
        let mut torn = reply.clone();
        mangle(&mut torn, NetFault::Tear, 42);
        assert!(torn.len() < reply.len(), "tear must shorten the reply");
        assert!(torn.windows(4).any(|w| w == b"\r\n\r\n"), "tear keeps the head");

        let mut garbled = reply.clone();
        mangle(&mut garbled, NetFault::Garbage, 42);
        assert_eq!(&garbled[..8], b"GARBAGE!");
        assert_eq!(garbled.len(), reply.len());

        let mut flipped = reply.clone();
        mangle(&mut flipped, NetFault::Corrupt, 42);
        assert_eq!(flipped.len(), reply.len());
        let diff = reply.iter().zip(&flipped).filter(|(a, b)| a != b).count();
        assert_eq!(diff, 1, "corrupt flips exactly one byte");
        let head_end = reply.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
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
