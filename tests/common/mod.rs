//! Checks shared by the fleet end-to-end tests (`fleet`, `fleet_chaos`,
//! `fleet_trace`).

use std::time::{Duration, Instant};

use cambricon_f::runtime::{Connector, TcpConnector};
use serde_json::Value;

/// Asserts that no job left a backend's counters: once its `in_flight`
/// and `queued_bytes` gauges settle to 0 (polled for up to 5 s), every
/// submitted job is completed, failed, cancelled or expired. `addr` is
/// the backend's own status address — never a fault proxy in front of
/// it — and each scrape is one plain `GET /stats`.
pub fn assert_jobs_conserved(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let wait = Duration::from_secs(5);
        let reply = TcpConnector
            .fetch(addr, b"GET /stats HTTP/1.1\r\n\r\n", wait, wait, None)
            .unwrap_or_else(|e| panic!("{addr}: GET /stats: {e}"));
        assert_eq!(reply.status, 200, "{addr}: {}", reply.text());
        let stats: Value = serde_json::from_str(&reply.text())
            .unwrap_or_else(|e| panic!("{addr}: /stats is not JSON: {e}"));
        let count = |key: &str| match stats.get(key).and_then(Value::as_u64) {
            Some(n) => n,
            None => panic!("{addr}: no `{key}` in /stats: {stats}"),
        };
        let settled = count("in_flight") == 0 && count("queued_bytes") == 0;
        let terminal = count("completed") + count("failed") + count("cancelled") + count("expired");
        if settled && count("submitted") == terminal {
            return;
        }
        if Instant::now() > deadline {
            assert!(settled, "{addr}: work never settled: {stats}");
            assert_eq!(count("submitted"), terminal, "{addr}: jobs left the counters: {stats}");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}
