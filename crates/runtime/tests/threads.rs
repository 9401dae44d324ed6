//! No thread is spawned per request. 200 sequential submit + poll pairs
//! go through an in-process [`RouterServer`] → [`StatusServer`] pair;
//! every hop runs on the listeners' resident threads and on reused parked
//! threads. So few threads start over the whole run, and afterwards the
//! live threads of each loop stay under a small constant. Linux only:
//! thread ids and names come from `/proc`.

#![cfg(target_os = "linux")]

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use cf_runtime::http::{Connector, Reply, TcpConnector};
use cf_runtime::StatusServer;
use cf_runtime::{JobApi, Obs, Router, RouterConfig, RouterServer, Runtime, RuntimeConfig};

/// Sequential submit + poll pairs.
const PAIRS: usize = 200;

/// Live threads allowed under each loop's name once the pairs are done.
const MAX_LIVE_PER_LOOP: usize = 8;

/// Thread ids allowed to be handed out over the whole run: the resident
/// threads the first requests start, plus slack for other processes in
/// the pid namespace; far below one per request.
const MAX_STARTED: u64 = PAIRS as u64 / 4;

/// Patience of the test client.
const WAIT: Duration = Duration::from_secs(30);

fn http(addr: SocketAddr, raw: &str) -> Reply {
    TcpConnector.fetch(&addr.to_string(), raw.as_bytes(), WAIT, WAIT, None).unwrap()
}

/// The id of a thread started just now. Linux hands out thread ids from
/// the pid namespace's cyclic counter, so the gap between two of these
/// bounds how many threads and processes started in between.
fn fresh_tid() -> u64 {
    std::thread::spawn(|| {
        let link = std::fs::read_link("/proc/thread-self").unwrap();
        link.file_name().and_then(|n| n.to_str()).and_then(|n| n.parse().ok()).unwrap()
    })
    .join()
    .unwrap()
}

/// The name of every live thread of this process.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|entry| std::fs::read_to_string(entry.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

#[test]
fn sequential_requests_run_on_resident_threads() {
    let obs = Obs::new(256);
    let runtime = Arc::new(Runtime::new(RuntimeConfig { workers: 1, ..Default::default() }));
    obs.publish(runtime.stats_arc(), runtime.load_policy());
    obs.publish_api(JobApi::new(Arc::clone(&runtime), 4096));
    let backend = StatusServer::bind(0, obs).unwrap();
    let router = RouterServer::bind(
        0,
        Router::new(RouterConfig {
            backends: vec![backend.local_addr().to_string()],
            probe_interval: Duration::from_secs(3600),
            ..RouterConfig::default()
        }),
    )
    .unwrap();
    let at = router.local_addr();
    let spec = r#"{"workload":"matmul","order":32,"machine":"tiny","label":"threads"}"#;
    let submit = format!("POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{spec}", spec.len());

    let first = fresh_tid();
    for _ in 0..PAIRS {
        let accepted = http(at, &submit);
        assert_eq!(accepted.status, 202, "{}", accepted.text());
        let body: serde_json::Value = serde_json::from_str(&accepted.text()).unwrap();
        let id = body.get("id").and_then(|v| v.as_u64()).unwrap();
        let record = http(at, &format!("GET /jobs/{id} HTTP/1.1\r\nHost: t\r\n\r\n"));
        assert_eq!(record.status, 200, "{}", record.text());
    }
    let last = fresh_tid();

    let mut live: BTreeMap<String, usize> = BTreeMap::new();
    for name in thread_names() {
        *live.entry(name).or_default() += 1;
    }
    for name in ["cf-router", "cf-status", "cf-parked"] {
        let n = live.get(name).copied().unwrap_or(0);
        assert!(n <= MAX_LIVE_PER_LOOP, "{n} live {name} threads: {live:?}");
    }
    // A counter that wrapped during the run proves nothing either way.
    if let Some(gap) = last.checked_sub(first) {
        let started = gap - 1;
        assert!(started <= MAX_STARTED, "{started} threads started over {PAIRS} pairs");
    }
    router.shutdown();
    backend.shutdown();
}
