//! End-to-end test of `cfserve --status-port`: spawn the real binary on
//! a slow manifest, scrape the announced ephemeral port off stderr, and
//! probe `/healthz`, `/stats` and `/trace` over plain TCP while the run
//! is live.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use cambricon_f::runtime::{Connector, TcpConnector};

/// One GET against `addr`: (status code, body).
fn http_get(addr: &str, path: &str) -> (u16, String) {
    let raw = format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n");
    let wait = Duration::from_secs(30);
    let reply = TcpConnector.fetch(addr, raw.as_bytes(), wait, wait, None).expect("http");
    (reply.status, reply.text())
}

#[test]
fn cfserve_status_port_serves_health_stats_and_trace() {
    let root = env!("CARGO_MANIFEST_DIR");
    // One worker grinding big uncached matmuls keeps the run alive for
    // seconds — long enough to probe every endpoint mid-flight.
    let manifest = std::env::temp_dir().join(format!("cf-status-cli-{}.jobs", std::process::id()));
    std::fs::write(&manifest, "workload=matmul order=2048 repeat=40\n").unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_cfserve"))
        .arg(&manifest)
        .args(["--status-port", "0", "--no-cache", "--workers", "1"])
        .current_dir(root)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cfserve");

    // The binary announces the bound port on stderr before serving.
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("cfserve exited before announcing its status port")
            .expect("read stderr");
        if let Some(rest) = line.strip_prefix("cfserve: status on http://") {
            break rest.split_whitespace().next().expect("address").to_string();
        }
    };
    // Drain the rest of stderr in the background so the child never
    // blocks on a full pipe.
    let drain = std::thread::spawn(move || for _ in lines.by_ref() {});

    // /healthz answers while jobs are in flight.
    let t0 = Instant::now();
    let (status, body) = loop {
        let (status, body) = http_get(&addr, "/healthz");
        if status == 200 || t0.elapsed() > Duration::from_secs(20) {
            break (status, body);
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status, 200, "{status} {body}");
    assert!(body.contains("\"status\""), "{body}");

    // /stats shows the live run's counters.
    let (status, body) = http_get(&addr, "/stats");
    assert!(status == 200 || status == 503, "{status}");
    if status == 200 {
        assert!(body.contains("\"submitted\""), "{body}");
    }

    // /trace serves the span ring.
    let (status, body) = http_get(&addr, "/trace");
    assert_eq!(status, 200, "{status}");
    assert!(body.contains("\"events\""), "{body}");

    // Done probing: the run itself can finish or be cut short.
    child.kill().ok();
    child.wait().ok();
    drain.join().ok();
    std::fs::remove_file(&manifest).ok();
}
