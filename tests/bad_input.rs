//! End-to-end: a job spec with a zero-sized dimension (`order=0`,
//! `batch=0`), an extent whose element count overflows 64 bits, an
//! unknown `size=`, or an exec footprint over the host memory cap is
//! refused at parse time by both entry points that share
//! `manifest::parse_line` and `manifest::check_exec_footprint` — a
//! manifest line makes `cfserve` exit 3 with a typed message instead of
//! panicking its main thread (or aborting it on a huge allocation), and
//! `POST /jobs` answers 400 without journaling anything while the
//! server keeps serving. A `program=` path over the API must name a
//! regular file under the server's working directory: an absolute path,
//! a `..` path or a directory is refused the same way, and so is a
//! program with no instructions, from a manifest or over the API.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::Duration;

use cambricon_f::runtime::{Connector, Reply, TcpConnector};

const BAD_LINES: [(&str, &str); 6] = [
    ("workload=matmul order=0", "`order` must be at least 1"),
    ("workload=vgg16 batch=0", "`batch` must be at least 1"),
    ("workload=knn size=0", "bad value `0` for `size`"),
    ("workload=matmul order=200000 mode=exec", "exec job needs 480000000000 bytes"),
    (
        "workload=matmul order=4294967296 machine=f1",
        "`order` overflows the program's element count",
    ),
    ("workload=mlp3 batch=18446744073709551615", "`batch` overflows the program's element count"),
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

#[test]
fn a_manifest_program_with_no_instructions_exits_3_without_a_panic() {
    let dir = temp_dir("empty");
    let manifest = dir.join("empty.jobs");
    let program = concat!(env!("CARGO_MANIFEST_DIR"), "/assets/empty.cfasm");
    std::fs::write(&manifest, format!("workload=matmul order=32 label=ok\nprogram={program}\n"))
        .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_cfserve")).arg(&manifest).output().expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("holds no instructions"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may run");
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
        r#"{"workload":"matmul","order":200000,"mode":"exec"}"#,
        r#"{"workload":"matmul","order":4294967296,"machine":"f1"}"#,
        r#"{"workload":"mlp3","batch":18446744073709551615}"#,
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
    for bad in [
        "order=0",
        "batch=0",
        "size=0",
        "order=200000",
        "order=4294967296",
        "batch=18446744073709551615",
    ] {
        assert!(!journaled.contains(bad), "{bad} was journaled: {journaled}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Boots `cfserve` in API-only mode from the repository root, journaling
/// to `journal`; returns the child, its status address and a thread
/// collecting the rest of its stderr.
fn spawn_api_server(
    journal: &std::path::Path,
) -> (std::process::Child, String, std::thread::JoinHandle<String>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cfserve"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["-", "--status-port", "0", "--workers", "1", "--journal"])
        .arg(journal)
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
    (child, addr, drain)
}

#[test]
fn api_program_paths_outside_the_working_directory_answer_400_and_are_never_journaled() {
    let dir = temp_dir("paths");
    let journal = dir.join("api.wal");
    let (mut child, addr, drain) = spawn_api_server(&journal);

    let absolute = concat!(env!("CARGO_MANIFEST_DIR"), "/assets/demo.cfasm");
    for (label, path) in [
        ("absolute", absolute),
        ("dotdot", "assets/../assets/demo.cfasm"),
        ("directory", "assets"),
        ("empty", "assets/empty.cfasm"),
    ] {
        let spec = format!(r#"{{"program":"{path}","machine":"tiny","label":"{label}"}}"#);
        let reply = post_job(&addr, &spec);
        assert_eq!(reply.status, 400, "{spec}: {}", reply.text());
        assert!(reply.text().contains("program `"), "{spec}: {}", reply.text());
    }
    // The file the fleet tests post, named relative to the working
    // directory, is still served.
    let reply = post_job(&addr, r#"{"program":"assets/demo.cfasm","machine":"tiny","label":"ok"}"#);
    assert_eq!(reply.status, 202, "{}", reply.text());

    child.kill().ok();
    child.wait().ok();
    let stderr = drain.join().unwrap();
    assert!(!stderr.contains("panicked"), "{stderr}");
    let journaled = std::fs::read_to_string(dir.join("api.wal.api")).expect("api journal");
    assert!(journaled.contains("label=ok"), "the good job is journaled: {journaled}");
    for bad in ["label=absolute", "label=dotdot", "label=directory", "label=empty"] {
        assert!(!journaled.contains(bad), "{bad} was journaled: {journaled}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
