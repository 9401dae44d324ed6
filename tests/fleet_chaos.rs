//! Fleet chaos end-to-end tests: a real `cfrouter` over three real
//! `cfserve` backends with the seeded wire-fault layer
//! (`cf_runtime::netfault`) turned on — connect refusals, connect
//! latency, slow-loris trickle, mid-body tears, garbage status lines,
//! single-byte body corruption, and a mixed plan of all six. The
//! ISSUE-level guarantee under test: for every fault family the merged,
//! id-ordered fleet output is **byte-identical** to a fault-free
//! single-instance run, every streamed record passes its end-to-end
//! digest client-side (corruption never reaches a client), and the
//! damage is visible only in `cf_router_corrupt_responses` /
//! quarantine counters. One case replays the refusal and tear
//! scenarios on one seed, each run on fresh backend ports, and requires
//! the same router counters. One scenario drives the standalone
//! `cfrouter --fault-proxy` byte-mangler in front of a single backend
//! to prove repeated corruption moves it into the `quarantined` state
//! (distinct from `ejected`) in `/stats` and `/ring`.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cambricon_f::runtime::serve::verify_record_json;
use cambricon_f::runtime::{Connector, TcpConnector};

mod common;

/// The chaos manifest (`assets/serve.jobs`) expanded client-side, in
/// manifest order — so router id K corresponds to baseline `"job":K`.
fn chaos_specs() -> Vec<String> {
    let lines: [(&str, usize); 7] = [
        (r#"{"workload":"vgg16","batch":1,"machine":"f1"}"#, 4),
        (r#"{"workload":"resnet152","batch":1,"machine":"f1"}"#, 4),
        (r#"{"workload":"matmul","order":1024,"machine":"f100"}"#, 4),
        (r#"{"workload":"mlp3","batch":4,"machine":"embedded"}"#, 2),
        (r#"{"workload":"knn","size":"small","machine":"f1"}"#, 2),
        (r#"{"program":"assets/demo.cfasm","machine":"tiny","label":"demo"}"#, 2),
        (r#"{"workload":"kmeans","size":"small","mode":"exec","seed":42,"machine":"tiny"}"#, 1),
    ];
    let mut specs = Vec::new();
    for (spec, repeat) in lines {
        for _ in 0..repeat {
            specs.push(spec.to_string());
        }
    }
    assert_eq!(specs.len(), 19, "the chaos manifest is 19 jobs");
    specs
}

/// The fault-free ground truth, computed once per test binary: one
/// `cfserve` run over the manifest itself, stdout captured as the
/// byte-exact expected output.
fn baseline() -> &'static str {
    static BASELINE: OnceLock<String> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let out = Command::new(env!("CARGO_BIN_EXE_cfserve"))
            .args(["assets/serve.jobs", "--workers", "2"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("run cfserve on the chaos manifest");
        assert!(out.status.success(), "baseline run failed");
        let text = String::from_utf8(out.stdout).expect("utf-8 records");
        assert_eq!(text.lines().count(), 19, "baseline:\n{text}");
        text
    })
}

/// A spawned process with its announced listen address and a stderr
/// drain thread (so the child never blocks on a full pipe).
struct Proc {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Proc {
    /// Spawns `bin` and scrapes the first stderr line starting with
    /// `announce` for the `http://<addr>` it carries.
    fn spawn(bin: &str, args: &[String], announce: &str) -> Proc {
        let mut child = Command::new(bin)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
        let stderr = child.stderr.take().expect("stderr piped");
        let mut lines = BufReader::new(stderr).lines();
        let addr = loop {
            let line = lines
                .next()
                .unwrap_or_else(|| panic!("{bin} exited before announcing"))
                .expect("read stderr");
            if line.starts_with(announce) {
                let rest = line.split("http://").nth(1).expect("http:// in announce");
                break rest
                    .split_whitespace()
                    .next()
                    .expect("address")
                    .trim_end_matches('/')
                    .split(['(', ','])
                    .next()
                    .expect("address")
                    .to_string();
            }
        };
        let drain = std::thread::spawn(move || for _ in lines.by_ref() {});
        Proc { child, addr, drain: Some(drain) }
    }

    fn kill(mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
        if let Some(drain) = self.drain.take() {
            drain.join().ok();
        }
    }
}

/// Spawns one `cfserve` backend on `port` (0 picks a free one).
fn spawn_backend(journal: &std::path::Path) -> Proc {
    let args: Vec<String> = vec![
        "-".into(),
        "--status-port".into(),
        "0".into(),
        "--journal".into(),
        journal.display().to_string(),
        "--workers".into(),
        "2".into(),
    ];
    Proc::spawn(env!("CARGO_BIN_EXE_cfserve"), &args, "cfserve: status on http://")
}

/// Spawns `cfrouter` over the given backend addresses with a fast
/// prober, hedging disabled (determinism), a generous failover budget
/// (chaos heals through retries), and any extra flags appended.
fn spawn_router(backends: &[&str], extra: &[&str]) -> Proc {
    let mut args: Vec<String> = Vec::new();
    for addr in backends {
        args.push("--backend".into());
        args.push((*addr).into());
    }
    args.extend(["--probe-interval-ms".into(), "100".into()]);
    args.extend(["--hedge-after-ms".into(), "0".into()]);
    args.extend(["--failover-retries".into(), "5".into()]);
    args.extend(extra.iter().map(|s| (*s).to_string()));
    Proc::spawn(env!("CARGO_BIN_EXE_cfrouter"), &args, "cfrouter: routing ")
}

/// Spawns `cfrouter --fault-proxy` — the standalone byte-level fault
/// proxy — in front of `upstream` with the given seeded spec.
fn spawn_fault_proxy(upstream: &str, seed: u64, spec: &str) -> Proc {
    let args: Vec<String> = vec![
        "--fault-proxy".into(),
        upstream.into(),
        "--netfault-seed".into(),
        seed.to_string(),
        "--netfault-spec".into(),
        spec.into(),
    ];
    Proc::spawn(env!("CARGO_BIN_EXE_cfrouter"), &args, "cfrouter: fault proxy for ")
}

/// One HTTP exchange against `addr`: (status code, body). Long-polls
/// hold the line for a while, hence the generous timeout.
fn http(addr: &str, request: &str) -> (u16, String) {
    let wait = Duration::from_secs(150);
    let reply = TcpConnector.fetch(addr, request.as_bytes(), wait, wait, None).expect("http");
    (reply.status, reply.text())
}

/// Submits one spec through the router, asserting acceptance, and
/// returns the fleet-wide id.
fn submit(addr: &str, spec: &str) -> u64 {
    let request =
        format!("POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{spec}", spec.len());
    let (status, body) = http(addr, &request);
    assert_eq!(status, 202, "{status} {body}");
    let digits: String = body.chars().filter(|c| c.is_ascii_digit()).collect();
    digits.parse().expect("job id")
}

/// Long-polls one job through the router until its record streams back.
fn stream_record(addr: &str, id: u64) -> String {
    let (status, body) = http(addr, &format!("GET /jobs/{id}?timeout_s=120 HTTP/1.1\r\n\r\n"));
    assert_eq!(status, 200, "job {id}: {status} {body}");
    body
}

/// Scrapes one top-level counter off the router's `/stats` JSON.
fn stat(body: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\":");
    let at = body.find(&needle).unwrap_or_else(|| panic!("no {name} in {body}"));
    body[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("counter value")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cf-chaos-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Submits the 19 chaos jobs through the router (asserting sequential
/// fleet-wide ids), streams them all back **verifying every record's
/// end-to-end digest client-side** — no corrupt record may ever reach
/// a client — and returns the merged id-ordered output.
fn run_chaos_verified(router: &str) -> String {
    for (i, spec) in chaos_specs().iter().enumerate() {
        assert_eq!(submit(router, spec), i as u64, "fleet ids are sequential");
    }
    let mut merged = String::new();
    for id in 0..19u64 {
        let record = stream_record(router, id);
        assert!(
            verify_record_json(record.trim_end_matches('\n'), Some(id)),
            "record {id} reached the client with a bad digest: {record}"
        );
        merged.push_str(&record);
        merged.push('\n');
    }
    merged
}

/// What one chaos run leaves behind: the router's final `/stats` and
/// `/metrics` bodies.
struct ChaosRun {
    stats: String,
    metrics: String,
}

/// One full chaos scenario: three backends on free ports, named `b0`..
/// `b2` on the ring (so routing and fault draws do not depend on the
/// ports), a router with the given seeded wire-fault spec on its dialer
/// (plus `extra` flags, which override the defaults here), the 19-job
/// manifest run through it with per-record digest verification, and
/// the merged output asserted byte-identical to the fault-free
/// baseline.
fn chaos_run(tag: &str, seed: u64, spec: &str, extra: &[&str]) -> ChaosRun {
    let expected = baseline();
    let dir = temp_dir(tag);
    let backends: Vec<Proc> =
        (0..3).map(|i| spawn_backend(&dir.join(format!("b{i}.wal")))).collect();
    let named: Vec<String> =
        backends.iter().enumerate().map(|(i, b)| format!("b{i}={}", b.addr)).collect();
    let addrs: Vec<&str> = named.iter().map(String::as_str).collect();
    let seed = seed.to_string();
    let mut flags = vec![
        "--netfault-seed",
        &seed,
        "--netfault-spec",
        spec,
        // Probes flow through the fault connector too; a generous
        // ejection threshold keeps unlucky probe streaks from
        // perturbing routing mid-scenario.
        "--eject-after",
        "5",
        "--breaker-failures",
        "99",
    ];
    flags.extend(extra);
    let router = spawn_router(&addrs, &flags);

    let merged = run_chaos_verified(&router.addr);
    assert_eq!(merged, expected, "[{tag}] merged fleet output must match the fault-free run");

    let (status, stats) = http(&router.addr, "GET /stats HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200, "[{tag}] {status}");
    assert_eq!(stat(&stats, "records_streamed"), 19, "[{tag}] {stats}");
    let (status, metrics) = http(&router.addr, "GET /metrics HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200, "[{tag}] {status}");
    assert!(metrics.contains("cf_router_corrupt_responses"), "[{tag}] {metrics}");

    for b in &backends {
        common::assert_jobs_conserved(&b.addr);
    }

    router.kill();
    for b in backends {
        b.kill();
    }
    std::fs::remove_dir_all(&dir).ok();
    ChaosRun { stats, metrics }
}

/// [`chaos_run`] on free ports with the default flags: the router's
/// final `/stats` and `/metrics` bodies, for family-specific assertions.
fn chaos_scenario(tag: &str, seed: u64, spec: &str) -> (String, String) {
    let run = chaos_run(tag, seed, spec, &[]);
    (run.stats, run.metrics)
}

/// Connect refusals: the dialer's refused attempts fail over to ring
/// replicas and the retried exchanges (fresh attempt numbers) heal.
#[test]
fn refusal_chaos_keeps_output_byte_identical() {
    let (stats, _) = chaos_scenario("refuse", 11, "refuse=0.2");
    assert!(stat(&stats, "failovers") >= 1, "refusals must fail over: {stats}");
    assert_eq!(stat(&stats, "corrupt_responses"), 0, "refusal is not corruption: {stats}");
}

/// Connect latency: stalled dials slow exchanges down but change no
/// bytes — the run is merely slower, never wrong.
#[test]
fn connect_latency_chaos_keeps_output_byte_identical() {
    let (stats, _) = chaos_scenario("latency", 12, "connect_latency=0.25,latency_ms=40");
    assert_eq!(stat(&stats, "corrupt_responses"), 0, "latency is not corruption: {stats}");
}

/// Slow-loris trickle: responses dribble back in small chunks well
/// inside the read timeout — again slower, never wrong.
#[test]
fn trickle_chaos_keeps_output_byte_identical() {
    let (stats, _) = chaos_scenario("trickle", 13, "trickle=0.25,trickle_ms=40");
    assert_eq!(stat(&stats, "corrupt_responses"), 0, "trickle is not corruption: {stats}");
}

/// Mid-body connection tears: the reply dies short of its declared
/// Content-Length; the router detects the torn frame and fails over.
#[test]
fn tear_chaos_keeps_output_byte_identical() {
    let (stats, _) = chaos_scenario("tear", 14, "tear=0.2");
    assert!(stat(&stats, "failovers") >= 1, "torn replies must fail over: {stats}");
}

/// Garbage status lines: the reply no longer starts with `HTTP/`; the
/// router rejects the frame and fails over.
#[test]
fn garbage_chaos_keeps_output_byte_identical() {
    let (stats, _) = chaos_scenario("garbage", 15, "garbage=0.2");
    assert!(stat(&stats, "failovers") >= 1, "garbage replies must fail over: {stats}");
}

/// Single-byte body corruption: the frame is well-formed but the
/// payload lies — only the end-to-end digest catches it. The router
/// must count every corrupt response and never let one through.
#[test]
fn corruption_chaos_keeps_output_byte_identical() {
    let (stats, metrics) = chaos_scenario("corrupt", 16, "corrupt=0.2");
    let corrupt = stat(&stats, "corrupt_responses");
    assert!(corrupt >= 1, "corruption must be caught and counted: {stats}");
    // The counter is also on the Prometheus exposition.
    let line = metrics
        .lines()
        .find(|l| l.starts_with("cf_router_corrupt_responses "))
        .unwrap_or_else(|| panic!("no cf_router_corrupt_responses sample: {metrics}"));
    let sample: u64 = line.split_whitespace().nth(1).expect("sample").parse().expect("u64");
    assert!(sample >= corrupt, "metrics sample lags /stats: {line} vs {corrupt}");
}

/// The mixed seeded plan: all six fault families at once, still
/// byte-identical output and zero corrupt records delivered.
#[test]
fn mixed_chaos_plan_keeps_output_byte_identical() {
    let spec = "refuse=0.06,connect_latency=0.08,latency_ms=25,trickle=0.08,trickle_ms=25,\
                tear=0.06,garbage=0.06,corrupt=0.06";
    chaos_scenario("mixed", 17, spec);
}

/// A chaos seed replays: the `refuse` and `tear` scenarios, each run
/// twice on one seed against backends on fresh ports (the backend's ring
/// name, not its address, is part of every draw's token), stream the
/// same output and leave the same routing, failover, corruption and
/// quarantine counts.
#[test]
fn a_chaos_seed_replays_identical_output_and_counters() {
    // `spawn_router` already disables hedging (`--hedge-after-ms 0`);
    // the ejection threshold here is one no probe streak reaches. A
    // timing-driven hedge or probe ejection would send an exchange to
    // another backend, and so change the `(backend, request)` pairs
    // whose attempts the fault ledger numbers.
    let extra = ["--eject-after", "1000000"];
    let scenarios = [("replay-refuse", 11, "refuse=0.2"), ("replay-tear", 14, "tear=0.2")];
    for (tag, seed, spec) in scenarios {
        let first = chaos_run(tag, seed, spec, &extra);
        // Each run's merged output already equals the fault-free
        // baseline (`chaos_run` asserts it), so the two are identical.
        let second = chaos_run(tag, seed, spec, &extra);
        assert!(stat(&first.stats, "failovers") >= 1, "[{tag}] no fault fired: {}", first.stats);
        for name in ["routed", "failovers", "corrupt_responses", "quarantines"] {
            assert_eq!(
                stat(&first.stats, name),
                stat(&second.stats, name),
                "[{tag}] `{name}` differs between replays:\n{}\n{}",
                first.stats,
                second.stats
            );
        }
    }
}

/// The standalone fault proxy corrupting **every** byte stream from one
/// of three backends: the router's digest verification catches each
/// corrupt response, moves the backend into `quarantined` (distinct
/// from `ejected` — its `/healthz` still answers 200 through the
/// proxy), and serves the full manifest byte-identically from the two
/// trustworthy replicas.
#[test]
fn always_corrupting_proxy_gets_quarantined_and_output_stays_byte_identical() {
    let expected = baseline();
    let dir = temp_dir("quarantine");
    let backends: Vec<Proc> =
        (0..3).map(|i| spawn_backend(&dir.join(format!("b{i}.wal")))).collect();
    // Backend 0 is reachable only through an always-corrupting proxy.
    let proxy = spawn_fault_proxy(&backends[0].addr, 99, "corrupt=1.0");
    let router = spawn_router(
        &[&proxy.addr, &backends[1].addr, &backends[2].addr],
        &["--quarantine-after", "2", "--quarantine-ms", "60000"],
    );

    // Two fleet /metrics scrapes exchange with every backend; both
    // answers through the proxy fail their digest — two consecutive
    // corruptions, which is the quarantine threshold.
    for _ in 0..2 {
        let (status, _) = http(&router.addr, "GET /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200, "{status}");
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let (_, stats) = http(&router.addr, "GET /stats HTTP/1.1\r\n\r\n");
        if stat(&stats, "quarantines") >= 1 {
            break stats;
        }
        assert!(Instant::now() < deadline, "proxy-fronted backend never quarantined: {stats}");
        std::thread::sleep(Duration::from_millis(100));
    };
    assert!(stat(&stats, "corrupt_responses") >= 2, "{stats}");
    assert!(stats.contains("\"health\":\"quarantined\""), "{stats}");
    assert!(!stats.contains("\"health\":\"ejected\""), "quarantine, not ejection: {stats}");
    let (_, ring) = http(&router.addr, "GET /ring HTTP/1.1\r\n\r\n");
    assert!(ring.contains("\"health\":\"quarantined\""), "{ring}");

    // The fleet still serves the whole manifest — from the two
    // trustworthy replicas — byte-identically, and no corrupt record
    // ever reaches the client.
    let merged = run_chaos_verified(&router.addr);
    assert_eq!(merged, expected, "merged fleet output must match the fault-free run");

    // The quarantined backend took no jobs, and the damage is on the
    // Prometheus exposition too.
    let (_, stats) = http(&router.addr, "GET /stats HTTP/1.1\r\n\r\n");
    assert_eq!(stat(&stats, "records_streamed"), 19, "{stats}");
    assert!(stats.contains("\"health\":\"quarantined\""), "still quarantined: {stats}");
    let (_, metrics) = http(&router.addr, "GET /metrics HTTP/1.1\r\n\r\n");
    let line = metrics
        .lines()
        .find(|l| l.starts_with("cf_router_quarantines_total "))
        .unwrap_or_else(|| panic!("no cf_router_quarantines_total sample: {metrics}"));
    let sample: u64 = line.split_whitespace().nth(1).expect("sample").parse().expect("u64");
    assert!(sample >= 1, "{line}");
    // Scraped directly, not through the corrupting proxy.
    for b in &backends {
        common::assert_jobs_conserved(&b.addr);
    }

    router.kill();
    proxy.kill();
    for b in backends {
        b.kill();
    }
    std::fs::remove_dir_all(&dir).ok();
}
