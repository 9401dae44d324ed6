//! Lifecycle tests for the shared blocking accept loop
//! ([`cf_runtime::listener::AcceptLoop`]) and the three servers built on
//! it — [`StatusServer`], [`RouterServer`] and [`FaultProxy`]:
//!
//! * an idle `shutdown()` returns within 100 ms (no poll interval or
//!   probe interval is waited out);
//! * the wake connection `stop` makes never reaches a handler;
//! * a request accepted just before shutdown is still answered in full;
//! * after shutdown the port refuses connections;
//! * a malformed request line gets a `400` whose digest verifies, from
//!   the router as from the status server;
//! * a handler that panics costs its own connection, not the loop: the
//!   next connection is still answered.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cf_runtime::http::{digest_ok, parse_reply, Connector, Reply, TcpConnector};
use cf_runtime::listener::AcceptLoop;
use cf_runtime::obs::{Obs, SpanKind};
use cf_runtime::{FaultPlan, FaultProxy, FaultSpec, Router, RouterConfig, RouterServer};
use cf_runtime::{StatusServer, Tracer};

/// The idle-shutdown budget.
const PROMPT: Duration = Duration::from_millis(100);

/// Idle time before a shutdown (a polling loop would be mid-sleep), and
/// grace for a wrongly served wake connection to show up.
const SETTLE: Duration = Duration::from_millis(50);

/// Patience of the test client.
const WAIT: Duration = Duration::from_secs(10);

fn http(addr: SocketAddr, raw: &str) -> Reply {
    TcpConnector.fetch(&addr.to_string(), raw.as_bytes(), WAIT, WAIT, None).unwrap()
}

fn get_healthz(addr: SocketAddr) -> u16 {
    http(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").status
}

/// The four lifecycle checks against a server `bind` starts fresh each
/// time; `shutdown` consumes it.
fn check_lifecycle<S>(bind: impl Fn() -> S, addr: impl Fn(&S) -> SocketAddr, shutdown: fn(S)) {
    // Serve one request, go idle, shut down: prompt, and the port
    // closes behind it.
    let server = bind();
    let at = addr(&server);
    assert_eq!(get_healthz(at), 200);
    thread::sleep(SETTLE);
    let t0 = Instant::now();
    shutdown(server);
    let took = t0.elapsed();
    assert!(took < PROMPT, "idle shutdown took {took:?}");
    assert!(TcpStream::connect(at).is_err(), "{at} still accepts after shutdown");

    // A connection accepted before shutdown finishes its request after
    // it, and still gets the whole response. The accept queue is FIFO,
    // so a second connection answered in full proves the first one was
    // accepted.
    let server = bind();
    let at = addr(&server);
    let mut peer = TcpStream::connect(at).unwrap();
    peer.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    assert_eq!(get_healthz(at), 200);
    shutdown(server);
    peer.write_all(b"Host: t\r\n\r\n").unwrap();
    let mut raw = Vec::new();
    peer.read_to_end(&mut raw).unwrap();
    assert_eq!(parse_reply(&raw).unwrap().status, 200);
    assert!(TcpStream::connect(at).is_err(), "{at} still accepts after shutdown");
}

/// Every `ApiRequest` span the tracer holds: one per request a status
/// server handled.
fn api_requests(tracer: &Tracer) -> Vec<String> {
    tracer
        .recent(usize::MAX)
        .into_iter()
        .filter(|e| e.kind == SpanKind::ApiRequest)
        .map(|e| e.detail)
        .collect()
}

#[test]
fn accept_loop_never_hands_the_wake_connection_to_its_handler() {
    let served = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&served);
    let mut listener = AcceptLoop::bind(0, "cf-test-echo", move |mut stream, _| {
        counter.fetch_add(1, Ordering::SeqCst);
        let mut byte = [0u8; 1];
        if stream.read_exact(&mut byte).is_ok() {
            let _ = stream.write_all(&byte);
        }
    })
    .unwrap();
    let at = listener.local_addr();
    for _ in 0..3 {
        let mut peer = TcpStream::connect(at).unwrap();
        peer.write_all(b"x").unwrap();
        let mut echo = [0u8; 1];
        peer.read_exact(&mut echo).unwrap();
        assert_eq!(&echo, b"x");
    }
    thread::sleep(SETTLE);
    let t0 = Instant::now();
    listener.stop();
    assert!(t0.elapsed() < PROMPT, "stop took {:?}", t0.elapsed());
    thread::sleep(SETTLE);
    assert_eq!(served.load(Ordering::SeqCst), 3, "the wake connection reached the handler");
    assert!(TcpStream::connect(at).is_err());
    // Idempotent: the drop runs it again.
    listener.stop();
}

#[test]
fn status_server_lifecycle() {
    let obs = Obs::new(256);
    check_lifecycle(
        || StatusServer::bind(0, Arc::clone(&obs)).unwrap(),
        StatusServer::local_addr,
        StatusServer::shutdown,
    );
    // Exactly the three real requests were handled; no wake connection
    // showed up as a request or an unparsed one.
    thread::sleep(SETTLE);
    let spans = api_requests(obs.tracer());
    assert_eq!(spans, vec!["GET /healthz -> 200 OK"; 3], "{spans:?}");
}

#[test]
fn router_server_lifecycle() {
    let obs = Obs::new(256);
    let backend = StatusServer::bind(0, Arc::clone(&obs)).unwrap();
    let config = RouterConfig {
        backends: vec![backend.local_addr().to_string()],
        // A prober that would sleep through any test unless woken.
        probe_interval: Duration::from_secs(3600),
        ..RouterConfig::default()
    };
    check_lifecycle(
        || RouterServer::bind(0, Router::new(config.clone())).unwrap(),
        RouterServer::local_addr,
        RouterServer::shutdown,
    );
    // The backend only ever saw the probers' health checks.
    thread::sleep(SETTLE);
    let spans = api_requests(obs.tracer());
    assert!(spans.iter().all(|s| s == "GET /healthz -> 200 OK"), "{spans:?}");
    backend.shutdown();
}

#[test]
fn fault_proxy_lifecycle() {
    let obs = Obs::new(256);
    let upstream = StatusServer::bind(0, Arc::clone(&obs)).unwrap();
    let target = upstream.local_addr().to_string();
    check_lifecycle(
        || FaultProxy::bind(0, &target, &target, FaultPlan::new(1, FaultSpec::none())).unwrap(),
        FaultProxy::local_addr,
        FaultProxy::shutdown,
    );
    // Each proxied request reached the upstream once; nothing else did.
    thread::sleep(SETTLE);
    let spans = api_requests(obs.tracer());
    assert_eq!(spans, vec!["GET /healthz -> 200 OK"; 3], "{spans:?}");
    upstream.shutdown();
}

#[test]
fn malformed_requests_get_a_digest_stamped_400_from_every_server() {
    let obs = Obs::new(256);
    let backend = StatusServer::bind(0, Arc::clone(&obs)).unwrap();
    let router = RouterServer::bind(
        0,
        Router::new(RouterConfig {
            backends: vec![backend.local_addr().to_string()],
            probe_interval: Duration::from_secs(3600),
            ..RouterConfig::default()
        }),
    )
    .unwrap();
    for addr in [backend.local_addr(), router.local_addr()] {
        for raw in ["garbage\r\n\r\n", "get /healthz HTTP/1.1\r\n\r\n"] {
            let reply = http(addr, raw);
            assert_eq!(reply.status, 400, "{addr} {raw:?}: {reply:?}");
            assert!(reply.header("x-cf-digest").is_some(), "{addr} {raw:?}: unstamped {reply:?}");
            assert!(digest_ok(&reply), "{addr} {raw:?}: {reply:?}");
            assert!(reply.text().contains("malformed request line"), "{}", reply.text());
        }
    }
    router.shutdown();
    backend.shutdown();
}

#[test]
fn a_panicking_handler_leaves_the_loop_serving() {
    let mut listener = AcceptLoop::bind(0, "cf-test-panic", |mut stream, token| {
        let mut byte = [0u8; 1];
        if stream.read_exact(&mut byte).is_ok() {
            assert!(token > 0, "handler bug on connection {token}");
            let _ = stream.write_all(&byte);
        }
    })
    .unwrap();
    let at = listener.local_addr();
    // The first connection's handler panics: the peer sees the
    // connection close without an answer.
    let mut first = TcpStream::connect(at).unwrap();
    first.write_all(b"x").unwrap();
    let mut raw = Vec::new();
    first.read_to_end(&mut raw).unwrap();
    assert!(raw.is_empty(), "{raw:?}");
    // Every later connection is answered, by the same loop.
    for _ in 0..3 {
        let mut peer = TcpStream::connect(at).unwrap();
        peer.write_all(b"y").unwrap();
        let mut echo = [0u8; 1];
        peer.read_exact(&mut echo).unwrap();
        assert_eq!(&echo, b"y");
    }
    let t0 = Instant::now();
    listener.stop();
    assert!(t0.elapsed() < PROMPT, "stop took {:?}", t0.elapsed());
}
