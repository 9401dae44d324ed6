//! End-to-end: a job spec with a zero-sized dimension (`order=0`,
//! `batch=0`) or an unknown `size=` is refused at parse time by both
//! entry points that share `manifest::parse_line` — a manifest line makes
//! `cfserve` exit 3 with a typed message instead of panicking its main
//! thread, and `POST /jobs` answers 400 without journaling anything while
//! the server keeps serving.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::Duration;

use cambricon_f::runtime::{Connector, Reply, TcpConnector};

const BAD_LINES: [(&str, &str); 3] = [
    ("workload=matmul order=0", "`order` must be at least 1"),
    ("workload=vgg16 batch=0", "`batch` must be at least 1"),
    ("workload=knn size=0", "bad value `0` for `size`"),
];

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cf-bad-input-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn zero_dimension_manifest_lines_exit_3_without_a_panic() {
    let dir = temp_dir("manifest");
    for (line, message) in BAD_LINES {
        let manifest = dir.join("bad.jobs");
        std::fs::write(&manifest, format!("workload=matmul order=32 label=ok\n{line}\n")).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_cfserve"))
            .arg(&manifest)
            .args(["--workers", "1"])
            .output()
            .expect("run cfserve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{line}: {stderr}");
        assert!(stderr.contains(message) && stderr.contains("line 2"), "{line}: {stderr}");
        assert!(!stderr.contains("panicked"), "{line}: {stderr}");
        assert!(out.stdout.is_empty(), "{line}: nothing may run");
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn post_job(addr: &str, spec: &str) -> Reply {
    let request =
        format!("POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{spec}", spec.len());
    let wait = Duration::from_secs(60);
    TcpConnector.fetch(addr, request.as_bytes(), wait, wait, None).expect("http")
}

#[test]
fn zero_dimension_api_specs_answer_400_and_are_never_journaled() {
    let dir = temp_dir("api");
    let journal = dir.join("api.wal");
    let mut child = Command::new(env!("CARGO_BIN_EXE_cfserve"))
        .args(["-", "--status-port", "0", "--workers", "1", "--journal"])
        .arg(&journal)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cfserve");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let addr = loop {
        let mut line = String::new();
        assert!(stderr.read_line(&mut line).expect("read stderr") > 0, "no status address");
        if let Some(rest) = line.strip_prefix("cfserve: status on http://") {
            break rest.split_whitespace().next().expect("address").to_string();
        }
    };
    let drain = std::thread::spawn(move || {
        let mut rest = String::new();
        stderr.read_to_string(&mut rest).ok();
        rest
    });

    for spec in [
        r#"{"workload":"matmul","order":0}"#,
        r#"{"workload":"vgg16","batch":0}"#,
        r#"{"workload":"knn","size":"0"}"#,
        r#"[{"workload":"matmul","order":32},{"workload":"matmul","order":0}]"#,
    ] {
        let reply = post_job(&addr, spec);
        assert_eq!(reply.status, 400, "{spec}: {}", reply.text());
    }
    // The server is still up and accepts a good job.
    let reply = post_job(&addr, r#"{"workload":"matmul","order":32,"machine":"tiny"}"#);
    assert_eq!(reply.status, 202, "{}", reply.text());

    child.kill().ok();
    child.wait().ok();
    let stderr = drain.join().unwrap();
    assert!(!stderr.contains("panicked"), "{stderr}");
    // The API journals next to the manifest journal, at `<PATH>.api`.
    let journaled = std::fs::read_to_string(dir.join("api.wal.api")).expect("api journal");
    assert!(journaled.contains("order=32"), "the good job is journaled: {journaled}");
    for bad in ["order=0", "batch=0", "size=0"] {
        assert!(!journaled.contains(bad), "{bad} was journaled: {journaled}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
