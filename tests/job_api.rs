//! End-to-end tests of the HTTP job API: spawn the real `cfserve` binary
//! in API-only mode (`-` manifest) with a write-ahead journal, submit
//! jobs over plain TCP, and prove the ISSUE-level guarantees — a
//! `POST /jobs` job renders byte-identically to the same manifest line,
//! a kill mid-computation loses nothing (`--resume` replays the answered
//! job verbatim and re-runs the accepted-but-unanswered one), concurrent
//! identical submits coalesce to one computation, overload sheds at the
//! front door with `Retry-After`, and the `cf_api_*` metrics agree with
//! the journal's JSONL records.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Duration;

use cambricon_f::runtime::trace::Attribution;
use cambricon_f::runtime::{Connector, Reply, TcpConnector};

/// A spawned `cfserve` with its announced status address and a stderr
/// drain (so the child never blocks on a full pipe). Dropping it kills
/// the child, so a failed assertion leaves no server running.
struct Serve {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Serve {
    fn spawn(args: &[&str]) -> Serve {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cfserve"))
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn cfserve");
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
        let drain = std::thread::spawn(move || for _ in lines.by_ref() {});
        Serve { child, addr, drain: Some(drain) }
    }

    fn kill(self) {
        drop(self);
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
        if let Some(drain) = self.drain.take() {
            drain.join().ok();
        }
    }
}

/// One HTTP exchange against `addr`. Long-polls can hold the line for
/// a while, hence the generous timeout.
fn http(addr: &str, request: &str) -> Reply {
    let wait = Duration::from_secs(150);
    TcpConnector.fetch(addr, request.as_bytes(), wait, wait, None).expect("http")
}

/// POSTs one job spec and returns the reply.
fn post_job(addr: &str, spec: &str) -> Reply {
    let request =
        format!("POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{spec}", spec.len());
    http(addr, &request)
}

/// POSTs a spec that must be accepted, returning its job id.
fn submit(addr: &str, spec: &str) -> u64 {
    let reply = post_job(addr, spec);
    assert_eq!(reply.status, 202, "{}", reply.text());
    let digits: String = reply.text().chars().filter(|c| c.is_ascii_digit()).collect();
    digits.parse().expect("job id")
}

/// Long-polls one job to completion and returns its record body.
fn stream_record(addr: &str, id: u64) -> String {
    let reply = http(addr, &format!("GET /jobs/{id}?timeout_s=120 HTTP/1.1\r\n\r\n"));
    assert_eq!(reply.status, 200, "job {id}: {}", reply.text());
    reply.text()
}

/// Scrapes one counter off `/metrics`.
fn metric(addr: &str, name: &str) -> u64 {
    let reply = http(addr, "GET /metrics HTTP/1.1\r\n\r\n");
    assert_eq!(reply.status, 200);
    let body = reply.text();
    body.lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {name} in /metrics:\n{body}"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cf-job-api-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn journal_args(journal: &Path) -> Vec<String> {
    vec![
        "-".into(),
        "--status-port".into(),
        "0".into(),
        "--journal".into(),
        journal.display().to_string(),
        "--workers".into(),
        "1".into(),
    ]
}

/// A job accepted over HTTP renders the same record bytes as the same
/// manifest line; killing the server mid-computation loses nothing —
/// `--resume` re-serves the answered job byte-identically and re-runs
/// the accepted-but-unanswered one under its original id.
#[test]
fn resume_re_serves_journaled_jobs_byte_identically() {
    let dir = temp_dir("resume");
    let journal = dir.join("j.wal");
    let args = journal_args(&journal);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();

    // Life 1: answer job 0, accept job 1, die mid-computation.
    let serve = Serve::spawn(&args);
    let id =
        submit(&serve.addr, r#"{"workload":"matmul","order":256,"machine":"tiny","label":"w"}"#);
    assert_eq!(id, 0);
    let record = stream_record(&serve.addr, 0);
    assert!(record.starts_with("{\"job\":0,\"label\":\"w\""), "{record}");
    assert!(record.contains("\"ok\":true"), "{record}");
    // A slow job: accepted (and durably journaled) but killed long
    // before its simulation finishes.
    let slow =
        submit(&serve.addr, r#"{"workload":"matmul","order":4608,"machine":"f1","label":"slow"}"#);
    assert_eq!(slow, 1);
    serve.kill();

    // Life 2: --resume replays the answered job verbatim and re-runs the
    // unanswered accept under its original id.
    let mut resumed: Vec<&str> = args.clone();
    resumed.push("--resume");
    let serve = Serve::spawn(&resumed);
    let replayed = stream_record(&serve.addr, 0);
    assert_eq!(replayed, record, "resumed record must be byte-identical");
    let rerun = stream_record(&serve.addr, 1);
    assert!(rerun.starts_with("{\"job\":1,\"label\":\"slow\""), "{rerun}");
    assert!(rerun.contains("\"ok\":true"), "{rerun}");
    serve.kill();

    // The identical manifest line produces the identical record bytes on
    // the classic one-shot path.
    let manifest = dir.join("same.jobs");
    std::fs::write(&manifest, "workload=matmul order=256 machine=tiny label=w\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_cfserve"))
        .arg(&manifest)
        .args(["--workers", "1"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run cfserve on manifest");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout.lines().next().expect("one record line");
    assert_eq!(line, record, "HTTP record and manifest record must be byte-identical");

    std::fs::remove_dir_all(&dir).ok();
}

/// Concurrent identical submits coalesce to one computation (both
/// subscribers get complete responses), a distinct compatible job rides
/// the same pool, overload sheds with 503 + Retry-After, and the
/// `cf_api_*` counters agree with the journal's JSONL records.
#[test]
fn coalesce_and_shed_with_metrics_agreeing_with_the_journal() {
    let dir = temp_dir("coalesce");
    let journal = dir.join("j.wal");
    let mut args = journal_args(&journal);
    // Every job attempt sleeps 2 s on its worker before it runs (a
    // timing-only fault that leaves records unchanged), so the leader
    // holds the one worker while the identical follower, the queued job
    // and the shed probe all land — however fast the simulator is.
    args.extend(
        ["--max-inflight", "2", "--fault-spec", "latency=1,latency_ms=2000"].map(String::from),
    );
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let serve = Serve::spawn(&args);

    let big = r#"{"workload":"matmul","order":4608,"machine":"f1","label":"lead"}"#;
    let lead = submit(&serve.addr, big);
    let follow = submit(&serve.addr, big);
    assert_eq!((lead, follow), (0, 1));
    let queued = submit(
        &serve.addr,
        r#"{"workload":"matmul","order":2048,"machine":"f1","label":"queued"}"#,
    );
    assert_eq!(queued, 2);

    // In-flight is now 2 (leader running, queued job waiting; the
    // follower subscribed instead of submitting), so the front door
    // sheds the next spec before journaling anything.
    let shed = post_job(
        &serve.addr,
        r#"{"workload":"matmul","order":1024,"machine":"f1","label":"shed"}"#,
    );
    assert_eq!(shed.status, 503, "{}", shed.text());
    let retry: u64 = shed.header("retry-after").expect("Retry-After").parse().unwrap();
    assert!((1..=30).contains(&retry), "{retry}");
    assert!(shed.text().contains("\"retry_after_s\""), "{}", shed.text());

    // Every accepted job completes; leader and follower records differ
    // only in their id.
    let lead_rec = stream_record(&serve.addr, 0);
    let follow_rec = stream_record(&serve.addr, 1);
    let queued_rec = stream_record(&serve.addr, 2);
    assert_eq!(follow_rec.replacen("\"job\":1", "\"job\":0", 1), lead_rec);
    assert!(queued_rec.contains("\"label\":\"queued\""), "{queued_rec}");

    // Counters tell the same story: 3 accepted, 1 coalesced, 1 shed, and
    // exactly the three streamed record bodies.
    assert_eq!(metric(&serve.addr, "cf_api_accepted_total"), 3);
    assert_eq!(metric(&serve.addr, "cf_api_coalesced_total"), 1);
    assert_eq!(metric(&serve.addr, "cf_api_shed_total"), 1);
    let streamed = metric(&serve.addr, "cf_api_streamed_bytes_total");
    assert_eq!(streamed, (lead_rec.len() + follow_rec.len() + queued_rec.len()) as u64);
    serve.kill();

    // The journal agrees with the metrics: one accept and one completion
    // per accepted job, nothing for the shed one.
    let text = std::fs::read_to_string(dir.join("j.wal.api")).expect("api journal");
    let accepts = text.lines().filter(|l| l.contains("\"type\":\"accept\"")).count();
    let jobs = text.lines().filter(|l| l.contains("\"type\":\"job\"")).count();
    assert_eq!((accepts, jobs), (3, 3), "journal:\n{text}");
    for id in 0..3 {
        assert!(text.contains(&format!("\"job\":{id},")), "journal missing job {id}:\n{text}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A job's settle span is recorded before its handle resolves, so the
/// completion that renders its `X-CF-Attribution` always finds the run:
/// every simulate job that ran reports a non-zero `run_us`.
#[test]
fn every_job_that_ran_attributes_its_run_time() {
    let serve = Serve::spawn(&["-", "--status-port", "0", "--workers", "1", "--no-cache"]);
    for order in 64..264 {
        let id = submit(
            &serve.addr,
            &format!(r#"{{"workload":"matmul","machine":"f1","order":{order}}}"#),
        );
        let reply = http(&serve.addr, &format!("GET /jobs/{id}?timeout_s=120 HTTP/1.1\r\n\r\n"));
        assert_eq!(reply.status, 200, "job {id}: {}", reply.text());
        let attr = reply
            .header("X-CF-Attribution")
            .and_then(Attribution::parse)
            .unwrap_or_else(|| panic!("job {id}: no parseable X-CF-Attribution: {reply:?}"));
        assert!(attr.get("run_us").is_some_and(|us| us > 0), "job {id} (order {order}): {attr:?}");
    }
    serve.kill();
}
