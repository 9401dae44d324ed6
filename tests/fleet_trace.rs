//! Fleet distributed-tracing end-to-end tests: a real `cfrouter` over
//! three real `cfserve` backends under seeded wire faults, with every
//! job traced from `POST /jobs` to its streamed record. Under test:
//!
//! * every accepted job gets an `X-CF-Trace` context, and the record
//!   that finally streams back carries the **same trace id** — even
//!   when the wire tore mid-body and the job failed over;
//! * `GET /trace/<trace-id>` merges the router's dispatch/attempt
//!   spans with the backends' spans into one Chrome-trace JSON
//!   document with strictly nested parent/child intervals;
//! * the `X-CF-Attribution` latency breakdown sums to the
//!   client-measured end-to-end latency within 5%;
//! * with `--slo-ms` set, the merged `/metrics` carries the `cf_slo_*`
//!   burn-rate families and classifies every streamed record.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cambricon_f::runtime::trace::{Attribution, TraceContext};
use cambricon_f::runtime::{Connector, Reply, TcpConnector};

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
/// prober, hedging disabled (determinism), and any extra flags.
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

/// One HTTP exchange against `addr`; the trace tests read response
/// headers. Long-polls hold the line, hence the generous timeout.
fn http(addr: &str, request: &str) -> Reply {
    let wait = Duration::from_secs(150);
    TcpConnector.fetch(addr, request.as_bytes(), wait, wait, None).expect("http")
}

/// Submits one spec, returning the fleet-wide id and the minted trace
/// context echoed on `X-CF-Trace`.
fn submit_traced(addr: &str, spec: &str) -> (u64, TraceContext) {
    let request =
        format!("POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{spec}", spec.len());
    let reply = http(addr, &request);
    assert_eq!(reply.status, 202, "{}", reply.text());
    let trace =
        reply.header("X-CF-Trace").unwrap_or_else(|| panic!("no X-CF-Trace on accept: {reply:?}"));
    let ctx = TraceContext::parse(trace).expect("parseable trace header");
    let digits: String = reply.text().chars().filter(|c| c.is_ascii_digit()).collect();
    (digits.parse().expect("job id"), ctx)
}

/// Long-polls one record, returning (body, trace header, attribution).
fn stream_traced(addr: &str, id: u64) -> (String, TraceContext, Attribution) {
    let reply = http(addr, &format!("GET /jobs/{id}?timeout_s=120 HTTP/1.1\r\n\r\n"));
    assert_eq!(reply.status, 200, "job {id}: {}", reply.text());
    let trace = reply
        .header("X-CF-Trace")
        .unwrap_or_else(|| panic!("job {id}: no X-CF-Trace on record: {reply:?}"));
    let ctx = TraceContext::parse(trace).expect("parseable trace header");
    let attr = reply
        .header("X-CF-Attribution")
        .and_then(Attribution::parse)
        .unwrap_or_else(|| panic!("job {id}: no parseable X-CF-Attribution: {reply:?}"));
    (reply.text(), ctx, attr)
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

/// One Prometheus sample value by exact series name.
fn sample(metrics: &str, name: &str) -> f64 {
    let line = metrics
        .lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .unwrap_or_else(|| panic!("no {name} sample in metrics"));
    line.split_whitespace().nth(1).expect("sample").parse().expect("f64 sample")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cf-trace-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The `(ts, dur)` of a Chrome-trace `X` event.
fn interval(e: &serde_json::Value) -> (f64, f64) {
    (
        e.get("ts").and_then(|t| t.as_f64()).expect("ts"),
        e.get("dur").and_then(|d| d.as_f64()).unwrap_or(0.0),
    )
}

/// Validates one merged `GET /trace/<id>` document: parses as JSON,
/// carries the requested trace id, has at least one router dispatch
/// and one attempt span, and every child interval nests strictly
/// inside its parent — backend events inside their attempt's window,
/// attempt spans inside the dispatch span. Returns the parsed doc.
fn validate_merged_trace(router: &str, ctx: TraceContext) -> serde_json::Value {
    let reply = http(router, &format!("GET /trace/{:032x} HTTP/1.1\r\n\r\n", ctx.trace_id));
    assert_eq!(reply.status, 200, "{}", reply.text());
    let body = reply.text();
    let doc = serde_json::from_str(&body).expect("merged trace parses as JSON");
    assert_eq!(
        doc.get("trace").and_then(|t| t.as_str()),
        Some(format!("{:032x}", ctx.trace_id).as_str()),
        "{body}"
    );
    let evs = doc.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents array");
    let xs: Vec<&serde_json::Value> =
        evs.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")).collect();
    let name_of =
        |e: &serde_json::Value| e.get("name").and_then(|n| n.as_str()).unwrap_or("").to_string();
    let pid_of = |e: &serde_json::Value| e.get("pid").and_then(|p| p.as_u64()).unwrap_or(0);
    let tid_of = |e: &serde_json::Value| e.get("tid").and_then(|t| t.as_u64()).unwrap_or(0);

    // Router spans: one dispatch, ≥ 1 attempt, attempts nested inside
    // the dispatch interval.
    let dispatch: Vec<&&serde_json::Value> =
        xs.iter().filter(|e| pid_of(e) == 0 && name_of(e).starts_with("dispatch")).collect();
    assert_eq!(dispatch.len(), 1, "exactly one dispatch span: {body}");
    let (d_ts, d_dur) = interval(dispatch[0]);
    let attempts: Vec<&&serde_json::Value> =
        xs.iter().filter(|e| pid_of(e) == 0 && name_of(e).starts_with("attempt")).collect();
    assert!(!attempts.is_empty(), "at least one attempt span: {body}");
    for a in &attempts {
        let (ts, dur) = interval(a);
        assert!(
            ts >= d_ts && ts + dur <= d_ts + d_dur,
            "attempt [{ts}, {}] escapes dispatch [{d_ts}, {}]: {body}",
            ts + dur,
            d_ts + d_dur,
        );
    }

    // Backend lanes: each lane's attempt box strictly contains every
    // other event in the lane.
    let mut backend_events = 0usize;
    let lanes: std::collections::BTreeSet<(u64, u64)> =
        xs.iter().filter(|e| pid_of(e) > 0).map(|e| (pid_of(e), tid_of(e))).collect();
    for (pid, tid) in lanes {
        let lane: Vec<&&serde_json::Value> =
            xs.iter().filter(|e| pid_of(e) == pid && tid_of(e) == tid).collect();
        let Some(parent) = lane.iter().find(|e| name_of(e).starts_with("attempt (")) else {
            continue;
        };
        let (p_ts, p_dur) = interval(parent);
        for e in &lane {
            if name_of(e).starts_with("attempt (") {
                continue;
            }
            backend_events += 1;
            let (ts, dur) = interval(e);
            assert!(
                ts > p_ts && ts + dur < p_ts + p_dur,
                "backend event [{ts}, {}] not strictly inside attempt [{p_ts}, {}]: {body}",
                ts + dur,
                p_ts + p_dur,
            );
        }
    }
    assert!(backend_events > 0, "merged trace carries backend spans: {body}");
    doc
}

/// The tentpole end-to-end: 19 jobs through a 3-backend fleet under a
/// (byte-safe) seeded netfault, every job traced, every record's
/// attribution summing to the measured end-to-end latency within 5%,
/// the merged trace strictly nested, and the `cf_slo_*` families live
/// in the fleet `/metrics`.
#[test]
fn traced_fleet_run_attributes_latency_and_burns_no_budget() {
    let dir = temp_dir("e2e");
    let backends: Vec<Proc> =
        (0..3).map(|i| spawn_backend(&dir.join(format!("b{i}.wal")))).collect();
    let addrs: Vec<&str> = backends.iter().map(|b| b.addr.as_str()).collect();
    let router = spawn_router(
        &addrs,
        &[
            // Byte-safe chaos: dials stall but nothing tears or lies,
            // so no failovers perturb the attribution windows.
            "--netfault-seed",
            "21",
            "--netfault-spec",
            "connect_latency=0.15,latency_ms=20",
            "--eject-after",
            "5",
            // A generous latency target: every job should be good, so
            // the burn rate stays 0 and the budget stays whole.
            "--slo-ms",
            "60000",
            "--slo-objective",
            "0.9",
        ],
    );

    let mut submitted: Vec<(u64, TraceContext, Instant)> = Vec::new();
    for (i, spec) in chaos_specs().iter().enumerate() {
        let t0 = Instant::now();
        let (id, ctx) = submit_traced(&router.addr, spec);
        assert_eq!(id, i as u64, "fleet ids are sequential");
        // Every submission minted a fresh root: no parent, distinct
        // trace ids.
        assert_eq!(ctx.parent, None, "router roots the trace");
        assert!(
            submitted.iter().all(|&(_, c, _)| c.trace_id != ctx.trace_id),
            "trace ids are unique per job"
        );
        submitted.push((id, ctx, t0));
    }

    for &(id, ctx, t0) in &submitted {
        let (record, record_ctx, attr) = stream_traced(&router.addr, id);
        let measured = t0.elapsed();
        assert!(record.starts_with(&format!("{{\"job\":{id},")), "{record}");
        // The trace id survives from accept to record — same trace.
        assert_eq!(record_ctx.trace_id, ctx.trace_id, "job {id}: trace id changed");

        // The attribution carries the router-side components and sums
        // to the client-measured end-to-end latency within 5% (plus a
        // small absolute floor for loopback scheduling noise).
        for key in ["total_us", "net_submit_us", "net_poll_us", "backoff_us"] {
            assert!(attr.get(key).is_some(), "job {id}: no {key} in {}", attr.encode());
        }
        let full_sum = attr.total_us()
            + attr.get("net_submit_us").unwrap_or(0)
            + attr.get("net_poll_us").unwrap_or(0)
            + attr.get("backoff_us").unwrap_or(0);
        let measured_us = measured.as_micros() as u64;
        let diff = measured_us.abs_diff(full_sum);
        let slack = (measured_us / 20).max(30_000);
        assert!(
            diff <= slack,
            "job {id}: attribution sum {full_sum}µs vs measured {measured_us}µs (diff {diff}µs > {slack}µs): {}",
            attr.encode(),
        );
        // The backend's execution components account for its total
        // exactly (the backend guarantees the partition).
        assert_eq!(
            attr.execution_sum_us(),
            attr.total_us(),
            "job {id}: execution components must partition total_us: {}",
            attr.encode(),
        );
    }

    // Satellite: per-backend hedge outcome detail is in /stats (zero
    // here — hedging is disabled — but the fields must render).
    let reply = http(&router.addr, "GET /stats HTTP/1.1\r\n\r\n");
    assert_eq!(reply.status, 200);
    let stats = reply.text();
    assert_eq!(stat(&stats, "records_streamed"), 19, "{stats}");
    assert!(stats.contains("\"hedges_won\":"), "{stats}");
    assert!(stats.contains("\"hedges_cancelled\":"), "{stats}");
    // The /stats attribution aggregate booked all 19 records.
    assert!(stats.contains("\"attribution\":"), "{stats}");
    let attr_at = stats.find("\"attribution\":").expect("attribution object");
    assert_eq!(stat(&stats[attr_at..], "records"), 19, "{stats}");

    // SLO series: every record classified, all good under the generous
    // target, budget untouched, burn rate zero.
    let metrics = http(&router.addr, "GET /metrics HTTP/1.1\r\n\r\n").text();
    assert!(sample(&metrics, "cf_slo_good_total") as u64 >= 19, "{metrics}");
    assert_eq!(sample(&metrics, "cf_slo_bad_total") as u64, 0, "bad jobs under a 60s target");
    assert!((sample(&metrics, "cf_slo_error_budget_remaining") - 1.0).abs() < 1e-9);
    assert!((sample(&metrics, "cf_slo_burn_rate_5m")).abs() < 1e-9);
    assert!(metrics.contains("# TYPE cf_slo_burn_rate_1h gauge"), "{metrics}");
    assert!((sample(&metrics, "cf_slo_objective") - 0.9).abs() < 1e-9);
    // The backends' own tracer counters merge in too.
    assert!(metrics.contains("cf_trace_attached_total"), "{metrics}");

    // The merged trace for the first and last job: parses, nests
    // strictly, carries backend spans.
    validate_merged_trace(&router.addr, submitted[0].1);
    validate_merged_trace(&router.addr, submitted[18].1);

    for b in &backends {
        common::assert_jobs_conserved(&b.addr);
    }
    router.kill();
    for b in backends {
        b.kill();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Mid-body tears force failovers (submit-time retries and poll-time
/// resubmissions); the trace id still survives from accept to record,
/// and at least one merged trace shows **both** attempts — the failed
/// or superseded one and the one that recovered.
#[test]
fn trace_id_survives_tear_failover_and_shows_both_attempts() {
    let dir = temp_dir("tear");
    let backends: Vec<Proc> =
        (0..3).map(|i| spawn_backend(&dir.join(format!("b{i}.wal")))).collect();
    let addrs: Vec<&str> = backends.iter().map(|b| b.addr.as_str()).collect();
    // Seed 14 tear=0.2 is the fleet_chaos scenario known to force at
    // least one failover while the merged output stays byte-identical.
    let router = spawn_router(
        &addrs,
        &[
            "--netfault-seed",
            "14",
            "--netfault-spec",
            "tear=0.2",
            "--eject-after",
            "5",
            "--breaker-failures",
            "99",
        ],
    );

    let mut submitted: Vec<(u64, TraceContext)> = Vec::new();
    for (i, spec) in chaos_specs().iter().enumerate() {
        let (id, ctx) = submit_traced(&router.addr, spec);
        assert_eq!(id, i as u64);
        submitted.push((id, ctx));
    }
    for &(id, ctx) in &submitted {
        let (_, record_ctx, _) = stream_traced(&router.addr, id);
        assert_eq!(
            record_ctx.trace_id, ctx.trace_id,
            "job {id}: trace id must survive tears and failovers"
        );
    }
    let stats = http(&router.addr, "GET /stats HTTP/1.1\r\n\r\n").text();
    assert!(stat(&stats, "failovers") >= 1, "torn replies must fail over: {stats}");

    // Some trace carries more than one attempt span — the torn attempt
    // and its recovery — and a non-ok outcome is visible on one of
    // them.
    let mut multi_attempt = 0usize;
    let mut non_ok = 0usize;
    for &(_, ctx) in &submitted {
        let reply =
            http(&router.addr, &format!("GET /trace/{:032x} HTTP/1.1\r\n\r\n", ctx.trace_id));
        assert_eq!(reply.status, 200);
        let body = reply.text();
        let doc: serde_json::Value = serde_json::from_str(&body).expect("trace parses");
        let evs = doc.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents");
        let attempts: Vec<&serde_json::Value> = evs
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("X")
                    && e.get("pid").and_then(|p| p.as_u64()) == Some(0)
                    && e.get("name").and_then(|n| n.as_str()).unwrap_or("").starts_with("attempt")
            })
            .collect();
        if attempts.len() >= 2 {
            multi_attempt += 1;
        }
        non_ok += attempts
            .iter()
            .filter(|a| {
                let outcome = a
                    .get("args")
                    .and_then(|args| args.get("outcome"))
                    .and_then(|o| o.as_str())
                    .unwrap_or("ok");
                outcome != "ok"
            })
            .count();
    }
    assert!(
        multi_attempt >= 1,
        "at least one trace must show both the torn attempt and its recovery: {stats}"
    );
    assert!(non_ok >= 1, "the torn attempt's failed span must be visible");

    for b in &backends {
        common::assert_jobs_conserved(&b.addr);
    }
    router.kill();
    for b in backends {
        b.kill();
    }
    std::fs::remove_dir_all(&dir).ok();
}
