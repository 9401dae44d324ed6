//! Integration tests for the observability layer end to end: a real
//! serve run publishes into an [`Obs`] hub behind a live [`StatusServer`]
//! on an ephemeral port, and plain TCP HTTP GETs observe `/healthz`
//! readiness, `/stats` counters moving, `/trace` spans, and the
//! overload flip to 503 when [`LoadPolicy`] headroom is exhausted.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cf_runtime::http::{Connector, TcpConnector};
use cf_runtime::obs::Obs;
use cf_runtime::serve::{serve_manifest, ServeOptions};
use cf_runtime::status::StatusServer;
use cf_runtime::{LoadPolicy, Runtime, RuntimeConfig};

/// The repo's example manifest (19 jobs), program paths made absolute.
fn manifest_text() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = format!("{root}/assets/serve.jobs");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    text.replace("program=assets/", &format!("program={root}/assets/"))
}

/// One GET against `addr`: (status code, body).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let raw = format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n");
    let wait = Duration::from_secs(30);
    let reply = TcpConnector.fetch(&addr.to_string(), raw.as_bytes(), wait, wait, None).unwrap();
    (reply.status, reply.text())
}

/// Polls `path` until `want(status, body)` holds or the deadline
/// passes; returns the last `(status, body)` seen.
fn poll(
    addr: SocketAddr,
    path: &str,
    want: impl Fn(u16, &str) -> bool,
    deadline: Duration,
) -> (u16, String) {
    let t0 = Instant::now();
    loop {
        let (status, body) = http_get(addr, path);
        if want(status, &body) || t0.elapsed() > deadline {
            return (status, body);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Extracts `"key":<u64>` from a flat JSON object.
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = body.find(&needle)? + needle.len();
    let rest = &body[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

#[test]
fn stats_counters_move_over_a_real_serve_run() {
    let obs = Obs::new(4096);
    let server = StatusServer::bind(0, Arc::clone(&obs)).unwrap();
    let addr = server.local_addr();

    // Before the run: the server is up, permissive, and /stats is 503.
    let (status, body) = poll(addr, "/healthz", |s, _| s == 200, Duration::from_secs(5));
    assert_eq!(status, 200, "{status} {body}");
    let (status, _) = http_get(addr, "/stats");
    assert_eq!(status, 503, "stats must be 503 before a run publishes: {status}");

    let text = manifest_text();
    let opts = ServeOptions { workers: 2, obs: Some(Arc::clone(&obs)), ..Default::default() };
    let handle = std::thread::spawn(move || serve_manifest(&text, &opts));

    // The serve engine publishes as soon as its pool exists: /stats
    // flips to 200 and its counters start moving.
    let (status, body) =
        poll(addr, "/stats", |s, b| s == 200 && json_u64(b, "submitted") > Some(0), {
            Duration::from_secs(30)
        });
    assert_eq!(status, 200, "{status} {body}");
    assert!(json_u64(&body, "submitted") > Some(0), "{body}");

    let report = handle.join().unwrap().unwrap();
    assert_eq!(report.records.len(), 19);
    assert_eq!(report.failures(), 0);

    // After the run the hub still serves the final counters.
    let (status, body) = http_get(addr, "/stats");
    assert_eq!(status, 200, "{status}");
    assert_eq!(json_u64(&body, "submitted"), Some(19), "{body}");
    assert_eq!(json_u64(&body, "completed"), Some(19), "{body}");

    // The tracer saw the run: /trace has submit/settle spans.
    let (status, body) = http_get(addr, "/trace");
    assert_eq!(status, 200, "{status}");
    assert!(body.contains("job-submit") && body.contains("job-settle"), "{body}");
    assert!(body.contains("\"histograms\""), "{body}");

    server.shutdown();
}

#[test]
fn healthz_flips_to_overloaded_when_headroom_is_exhausted() {
    let obs = Obs::new(64);
    let server = StatusServer::bind(0, Arc::clone(&obs)).unwrap();
    let addr = server.local_addr();

    // A 1-slot pool whose only slot is held by a job we control.
    let runtime = Runtime::new(RuntimeConfig {
        workers: 1,
        load: LoadPolicy::max_in_flight(1),
        ..Default::default()
    });
    obs.publish(runtime.stats_arc(), runtime.load_policy());

    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "idle pool must be healthy: {status} {body}");
    assert!(body.contains("\"headroom\":1"), "{body}");

    let (release_tx, release_rx) = mpsc::channel::<()>();
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let handle = runtime.submit_task(move || {
        started_tx.send(()).ok();
        release_rx.recv().ok();
        42u32
    });
    started_rx.recv_timeout(Duration::from_secs(10)).unwrap();

    // The slot is taken: headroom 0, /healthz 503 "overloaded".
    let (status, body) = poll(addr, "/healthz", |s, _| s == 503, Duration::from_secs(10));
    assert_eq!(status, 503, "{status} {body}");
    assert!(body.contains("overloaded"), "{body}");
    assert!(body.contains("\"headroom\":0"), "{body}");

    // Releasing the job restores health.
    release_tx.send(()).unwrap();
    assert_eq!(handle.join().unwrap(), 42);
    let (status, body) = poll(addr, "/healthz", |s, _| s == 200, Duration::from_secs(10));
    assert_eq!(status, 200, "{status} {body}");

    runtime.shutdown();
    server.shutdown();
}
