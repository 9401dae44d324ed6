//! Fleet end-to-end tests: a real `cfrouter` over three real `cfserve`
//! backends serving the 19-job chaos manifest (`assets/serve.jobs`)
//! through `POST /jobs`. The ISSUE-level guarantee under test: killing
//! one backend mid-run (SIGKILL) — and, separately, draining one
//! gracefully (SIGTERM) — leaves the merged, id-ordered output
//! byte-identical to a fault-free single-instance run of the same
//! manifest; the loss is visible only in the router's `/stats`
//! counters. Plus the drain protocol on a lone `cfserve`: `POST /drain`
//! stops admissions, flips `/healthz` to draining, and the process
//! exits 0 once in-flight work settles.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cambricon_f::runtime::{Connector, TcpConnector};

mod common;

/// The chaos manifest (`assets/serve.jobs`) expanded client-side: one
/// JSON spec per job, `repeat=N` flattened to N identical submissions,
/// in manifest order — so router id K corresponds to baseline record
/// `"job":K`.
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

/// The fault-free ground truth: one `cfserve` run over the manifest
/// itself, stdout captured as the byte-exact expected output.
fn baseline() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cfserve"))
        .args(["assets/serve.jobs", "--workers", "2"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run cfserve on the chaos manifest");
    assert!(out.status.success(), "baseline run failed");
    let text = String::from_utf8(out.stdout).expect("utf-8 records");
    assert_eq!(text.lines().count(), 19, "baseline:\n{text}");
    text
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

    fn sigterm(&self) {
        let pid = self.child.id().to_string();
        let ok = Command::new("kill").args(["-TERM", &pid]).status().expect("run kill");
        assert!(ok.success(), "kill -TERM {pid}");
    }

    /// Waits up to `limit` for the child to exit, returning whether it
    /// exited cleanly (code 0).
    fn wait_clean(&mut self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => return status.success(),
                None if Instant::now() > deadline => return false,
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
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

/// Spawns `cfrouter` over the given backends with a fast prober and
/// hedging disabled (determinism: exactly one backend runs each job
/// unless the router decides to fail over).
fn spawn_router(backends: &[&Proc]) -> Proc {
    let mut args: Vec<String> = Vec::new();
    for b in backends {
        args.push("--backend".into());
        args.push(b.addr.clone());
    }
    args.extend(["--probe-interval-ms".into(), "100".into()]);
    args.extend(["--hedge-after-ms".into(), "0".into()]);
    Proc::spawn(env!("CARGO_BIN_EXE_cfrouter"), &args, "cfrouter: routing ")
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

/// Per-backend routed-job counts from the `"backends":[...]` table, in
/// spawn order.
fn backend_job_counts(stats: &str) -> Vec<u64> {
    let table = stats.split("\"backends\":[").nth(1).expect("backends table");
    table
        .split("\"jobs\":")
        .skip(1)
        .map(|rest| {
            rest.chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .expect("jobs")
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cf-fleet-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Submits the 19 chaos jobs through the router (asserting sequential
/// fleet-wide ids), then streams them all back and returns the merged
/// id-ordered output.
fn run_chaos<F: FnOnce(&str)>(router: &str, mid_run: F) -> String {
    for (i, spec) in chaos_specs().iter().enumerate() {
        assert_eq!(submit(router, spec), i as u64, "fleet ids are sequential");
    }
    mid_run(router);
    let mut merged = String::new();
    for id in 0..19u64 {
        merged.push_str(&stream_record(router, id));
        merged.push('\n');
    }
    merged
}

/// SIGKILL one of three backends after every job is accepted: the
/// router fails lost jobs over to the surviving replicas (re-running
/// them deterministically), the prober ejects the corpse, and the
/// merged output is byte-identical to the fault-free single-instance
/// run — the loss shows up only in `/stats`.
#[test]
fn killing_one_of_three_backends_keeps_output_byte_identical() {
    let expected = baseline();
    let dir = temp_dir("kill");
    let backends: Vec<Proc> =
        (0..3).map(|i| spawn_backend(&dir.join(format!("b{i}.wal")))).collect();
    let router = spawn_router(&backends.iter().collect::<Vec<_>>());

    let mut backends = backends;
    let merged = run_chaos(&router.addr, |addr| {
        // Kill the backend that owns the most jobs — maximum damage.
        let (status, stats) = http(addr, "GET /stats HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200, "{status}");
        let counts = backend_job_counts(&stats);
        assert_eq!(counts.len(), 3, "{stats}");
        assert_eq!(counts.iter().sum::<u64>(), 19, "{stats}");
        let busiest = (0..3).max_by_key(|&i| counts[i]).unwrap();
        assert!(counts[busiest] > 0, "{stats}");
        let victim = backends.remove(busiest);
        victim.kill();
    });
    assert_eq!(merged, expected, "merged fleet output must match the single-instance run");

    // The damage is visible in the router's counters: lost jobs failed
    // over, and the prober ejected the dead backend.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, stats) = http(&router.addr, "GET /stats HTTP/1.1\r\n\r\n");
        if stat(&stats, "failovers") >= 1 && stat(&stats, "ejections") >= 1 {
            assert_eq!(stat(&stats, "records_streamed"), 19, "{stats}");
            break;
        }
        assert!(Instant::now() < deadline, "no failover/ejection recorded: {stats}");
        std::thread::sleep(Duration::from_millis(100));
    }
    let (status, _) = http(&router.addr, "GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200, "router stays healthy on two survivors: {status}");

    for b in &backends {
        common::assert_jobs_conserved(&b.addr);
    }

    router.kill();
    for b in backends {
        b.kill();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGTERM one of three backends after every job is accepted: the
/// backend drains — stops admitting, finishes in-flight work, fsyncs
/// its journal — and exits 0; the router re-runs whatever it can no
/// longer answer, and the merged output is still byte-identical.
#[cfg(unix)]
#[test]
fn draining_one_of_three_backends_keeps_output_byte_identical() {
    let expected = baseline();
    let dir = temp_dir("drain");
    let backends: Vec<Proc> =
        (0..3).map(|i| spawn_backend(&dir.join(format!("b{i}.wal")))).collect();
    let router = spawn_router(&backends.iter().collect::<Vec<_>>());

    let mut backends = backends;
    let mut drained: Option<Proc> = None;
    let merged = run_chaos(&router.addr, |addr| {
        let (_, stats) = http(addr, "GET /stats HTTP/1.1\r\n\r\n");
        let counts = backend_job_counts(&stats);
        let busiest = (0..3).max_by_key(|&i| counts[i]).unwrap();
        let victim = backends.remove(busiest);
        victim.sigterm();
        drained = Some(victim);
    });
    assert_eq!(merged, expected, "merged fleet output must match the single-instance run");

    // A planned removal is a *clean* exit: in-flight work settled, the
    // journal synced, exit code 0.
    let mut victim = drained.expect("drained backend");
    assert!(victim.wait_clean(Duration::from_secs(60)), "drained backend must exit 0");
    victim.kill();

    for b in &backends {
        common::assert_jobs_conserved(&b.addr);
    }

    router.kill();
    for b in backends {
        b.kill();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The drain protocol on a lone `cfserve`: `POST /drain` answers with
/// the pending count, `/healthz` flips to a 503 `"draining"` (distinct
/// from overload), new submissions bounce with 503, `GET /drain` is a
/// 405 — and once in-flight work settles the process exits 0.
#[test]
fn post_drain_stops_admissions_and_exits_cleanly() {
    let dir = temp_dir("lone");
    let mut backend = spawn_backend(&dir.join("b.wal"));

    // One answered job proves the instance was live and admitting.
    let id =
        submit(&backend.addr, r#"{"workload":"matmul","order":256,"machine":"tiny","label":"w"}"#);
    assert_eq!(id, 0);
    let record = stream_record(&backend.addr, 0);
    assert!(record.starts_with("{\"job\":0,"), "{record}");

    // GET /drain is not a drain.
    let (status, _) = http(&backend.addr, "GET /drain HTTP/1.1\r\n\r\n");
    assert_eq!(status, 405, "{status}");
    let (status, _) = http(&backend.addr, "GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200, "still healthy after GET /drain: {status}");

    // POST /drain flips the instance into draining.
    let (status, body) = http(&backend.addr, "POST /drain HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(status, 200, "{status} {body}");
    assert!(body.contains("\"status\":\"draining\""), "{body}");

    // Draining is distinct from overload, and the front door is closed.
    let (status, body) = http(&backend.addr, "GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status, 503, "{status}");
    assert!(body.contains("\"status\":\"draining\""), "{body}");
    assert!(!body.contains("overloaded"), "{body}");
    let spec = r#"{"workload":"matmul","order":256,"machine":"tiny","label":"late"}"#;
    let request =
        format!("POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{spec}", spec.len());
    let (status, body) = http(&backend.addr, &request);
    assert_eq!(status, 503, "{status} {body}");
    assert!(body.contains("draining"), "{body}");

    // Nothing pending: the process settles and exits 0 on its own.
    assert!(backend.wait_clean(Duration::from_secs(30)), "drained cfserve must exit 0");
    backend.kill();
    std::fs::remove_dir_all(&dir).ok();
}
