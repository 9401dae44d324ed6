//! Integration test for the Prometheus `/metrics` endpoint: a real
//! serve run (the repo's 19-job manifest, two jobs profiled) publishes
//! into an [`Obs`] hub behind a live [`StatusServer`], and every fetch
//! — idle, mid-run and final — must pass a strict test-side exposition
//! parser: `# HELP`/`# TYPE` before any sample of a family, no
//! duplicate series, an `instance` label everywhere, and cumulative
//! histogram buckets closed by `+Inf` that agree with `_count`. A
//! profiled job posted to the HTTP job API feeds the same profile
//! aggregate a profiled manifest line does.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cf_runtime::api::{JobApi, DEFAULT_MAX_BODY_BYTES};
use cf_runtime::http::{Connector, Reply, TcpConnector};
use cf_runtime::obs::Obs;
use cf_runtime::serve::{serve_manifest, ServeOptions};
use cf_runtime::status::StatusServer;
use cf_runtime::{Runtime, RuntimeConfig, StatsSnapshot};

/// The repo's example manifest (19 jobs), program paths made absolute
/// and two of the simulate lines switched to `profile=true` so the
/// profile aggregate families gain samples.
fn manifest_text() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = format!("{root}/assets/serve.jobs");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    text.replace("program=assets/", &format!("program={root}/assets/"))
        .replace("workload=knn size=small machine=f1 repeat=2", {
            "workload=knn size=small machine=f1 repeat=2 profile=true"
        })
        .replace(
            "machine=tiny label=demo repeat=2",
            "machine=tiny label=demo repeat=2 profile=true",
        )
}

/// One GET against `addr`.
fn http_get(addr: SocketAddr, path: &str) -> Reply {
    let raw = format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n");
    let wait = Duration::from_secs(30);
    TcpConnector.fetch(&addr.to_string(), raw.as_bytes(), wait, wait, None).unwrap()
}

/// One parsed sample line.
#[derive(Debug, Clone)]
struct Sample {
    name: String,
    labels: BTreeMap<String, String>,
    value: f64,
}

/// Parses `key="value",…` with the exposition escapes (`\\`, `\"`,
/// `\n`).
fn parse_labels(text: &str, line: &str) -> BTreeMap<String, String> {
    let mut labels = BTreeMap::new();
    let mut chars = text.chars().peekable();
    loop {
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        assert!(!key.is_empty(), "empty label name in {line:?}");
        assert_eq!(chars.next(), Some('"'), "label value must be quoted in {line:?}");
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => panic!("bad escape {other:?} in {line:?}"),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => panic!("unterminated label value in {line:?}"),
            }
        }
        assert!(labels.insert(key, value).is_none(), "duplicate label name in {line:?}");
        match chars.next() {
            Some(',') => continue,
            None => break,
            other => panic!("expected ',' or end after label, got {other:?} in {line:?}"),
        }
    }
    labels
}

fn parse_sample(line: &str) -> Sample {
    let (name_and_labels, value) = line.rsplit_once(' ').unwrap_or_else(|| {
        panic!("sample line has no value: {line:?}");
    });
    let (name, labels) = match name_and_labels.split_once('{') {
        Some((name, rest)) => {
            let body = rest.strip_suffix('}').unwrap_or_else(|| {
                panic!("unterminated label set: {line:?}");
            });
            (name.to_string(), parse_labels(body, line))
        }
        None => (name_and_labels.to_string(), BTreeMap::new()),
    };
    assert!(
        name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "bad metric name in {line:?}"
    );
    let value: f64 = value.parse().unwrap_or_else(|e| panic!("bad value in {line:?}: {e}"));
    Sample { name, labels, value }
}

/// The family a sample belongs to: histogram samples drop their
/// `_bucket`/`_sum`/`_count` suffix when the base name is typed.
fn family_of<'a>(name: &'a str, types: &BTreeMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return base;
            }
        }
    }
    name
}

/// Strictly validates one exposition body; panics on any violation and
/// returns every sample for content assertions.
fn validate_exposition(body: &str, instance: &str) -> Vec<Sample> {
    let mut helps: BTreeSet<String> = BTreeSet::new();
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut series: BTreeSet<String> = BTreeSet::new();
    let mut samples: Vec<Sample> = Vec::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("HELP has a name");
            assert!(helps.insert(name.to_string()), "duplicate HELP for {name}");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut words = rest.split_whitespace();
            let name = words.next().expect("TYPE has a name");
            let kind = words.next().expect("TYPE has a kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown TYPE {kind} for {name}"
            );
            assert!(
                types.insert(name.to_string(), kind.to_string()).is_none(),
                "duplicate TYPE for {name}"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment line: {line:?}");
        let sample = parse_sample(line);
        let family = family_of(&sample.name, &types);
        assert!(types.contains_key(family), "sample {} has no # TYPE", sample.name);
        assert!(helps.contains(family), "sample {} has no # HELP", sample.name);
        if types[family] == "counter" {
            assert!(family.ends_with("_total"), "counter {family} must end in _total");
            assert!(sample.value >= 0.0, "negative counter {}", sample.name);
        }
        assert_eq!(
            sample.labels.get("instance").map(String::as_str),
            Some(instance),
            "sample {} lacks the instance label",
            sample.name
        );
        let key = format!("{}{:?}", sample.name, sample.labels);
        assert!(series.insert(key), "duplicate series: {line:?}");
        samples.push(sample);
    }
    // Histogram coherence: per bucket series (labels minus `le`) the
    // cumulative counts are non-decreasing over increasing `le`, the
    // last bucket is `+Inf`, and it equals the matching `_count`.
    let mut bucket_rows: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.name.ends_with("_bucket")) {
        let le = s.labels.get("le").expect("bucket sample has le");
        let le = if le == "+Inf" { f64::INFINITY } else { le.parse().expect("le parses") };
        let mut rest = s.labels.clone();
        rest.remove("le");
        bucket_rows.entry(format!("{}{rest:?}", s.name)).or_default().push((le, s.value));
    }
    for (row, buckets) in &bucket_rows {
        for pair in buckets.windows(2) {
            assert!(pair[0].0 < pair[1].0, "{row}: le not increasing");
            assert!(pair[0].1 <= pair[1].1, "{row}: bucket counts not cumulative");
        }
        let (last_le, last_count) = *buckets.last().expect("non-empty row");
        assert!(last_le.is_infinite(), "{row}: last bucket must be +Inf");
        let count_name = row.split('{').next().unwrap().replace("_bucket", "_count");
        let count = samples
            .iter()
            .find(|s| {
                s.name == count_name && {
                    let mut rest = s.labels.clone();
                    rest.remove("le");
                    row.ends_with(&format!("{rest:?}"))
                }
            })
            .unwrap_or_else(|| panic!("{row}: no matching _count"));
        assert_eq!(count.value, last_count, "{row}: +Inf bucket != _count");
    }
    samples
}

fn value_of(samples: &[Sample], name: &str, label: Option<(&str, &str)>) -> Option<f64> {
    samples
        .iter()
        .find(|s| {
            s.name == name
                && label.is_none_or(|(k, v)| s.labels.get(k).map(String::as_str) == Some(v))
        })
        .map(|s| s.value)
}

#[test]
fn metrics_endpoint_serves_a_valid_exposition_over_a_live_run() {
    let obs = Obs::new(4096);
    obs.set_instance("metrics-it");
    let server = StatusServer::bind(0, Arc::clone(&obs)).unwrap();
    let addr = server.local_addr();

    // Idle: /metrics is already a valid exposition (families with no
    // samples yet, spans_dropped always present) with the right
    // content type.
    let reply = http_get(addr, "/metrics");
    assert_eq!(reply.status, 200);
    let content_type = reply.header("content-type").unwrap_or_default();
    assert!(content_type.starts_with("text/plain; version=0.0.4"), "{reply:?}");
    let body = reply.text();
    let samples = validate_exposition(&body, "metrics-it");
    assert_eq!(value_of(&samples, "cf_spans_dropped_total", None), Some(0.0), "{body}");
    assert!(value_of(&samples, "cf_jobs_submitted_total", None).is_none(), "{body}");

    let text = manifest_text();
    let opts = ServeOptions { workers: 2, obs: Some(Arc::clone(&obs)), ..Default::default() };
    let handle = std::thread::spawn(move || serve_manifest(&text, &opts));

    // Mid-run: every poll must already be a valid exposition; stop once
    // the submission counter moves.
    let t0 = Instant::now();
    loop {
        let reply = http_get(addr, "/metrics");
        assert_eq!(reply.status, 200);
        let body = reply.text();
        let samples = validate_exposition(&body, "metrics-it");
        if value_of(&samples, "cf_jobs_submitted_total", None).unwrap_or(0.0) > 0.0 {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(30), "counters never moved");
        std::thread::sleep(Duration::from_millis(10));
    }

    let report = handle.join().unwrap().unwrap();
    assert_eq!(report.records.len(), 19);
    assert_eq!(report.failures(), 0);

    // Final: every declared counter and gauge family has its sample, the two
    // profiled manifest lines fed the per-machine profile series, and
    // the stage histograms are coherent (validated above).
    let reply = http_get(addr, "/metrics");
    assert_eq!(reply.status, 200);
    let body = reply.text();
    let samples = validate_exposition(&body, "metrics-it");
    assert_eq!(value_of(&samples, "cf_jobs_submitted_total", None), Some(19.0), "{body}");
    assert_eq!(value_of(&samples, "cf_jobs_completed_total", None), Some(19.0), "{body}");
    let declared = StatsSnapshot::STATS.iter().map(|stat| stat.family);
    for family in declared.chain(["cf_spans_dropped_total", "cf_uptime_seconds"]) {
        assert!(value_of(&samples, family, None).is_some(), "missing {family}: {body}");
    }
    assert!(value_of(&samples, "cf_worker_jobs_total", Some(("worker", "0"))).is_some(), "{body}");
    // knn ran twice profiled on f1, demo twice on tiny.
    assert_eq!(
        value_of(&samples, "cf_profile_jobs_total", Some(("machine", "f1"))),
        Some(2.0),
        "{body}"
    );
    assert_eq!(
        value_of(&samples, "cf_profile_jobs_total", Some(("machine", "tiny"))),
        Some(2.0),
        "{body}"
    );
    let stage_rows = samples
        .iter()
        .filter(|s| s.name == "cf_profile_stage_seconds_total")
        .filter(|s| s.labels.contains_key("level") && s.labels.contains_key("stage"))
        .count();
    assert!(stage_rows > 0, "no per-stage profile attribution rows: {body}");
    assert!(
        samples.iter().any(|s| s.name == "cf_stage_latency_seconds_bucket"),
        "no latency histogram buckets: {body}"
    );

    server.shutdown();
}

#[test]
fn api_profiled_jobs_feed_the_profile_aggregate() {
    let obs = Obs::new(256);
    obs.set_instance("metrics-api");
    let runtime = Arc::new(Runtime::new(RuntimeConfig {
        workers: 1,
        tracer: Some(Arc::clone(obs.tracer())),
        ..Default::default()
    }));
    obs.publish(runtime.stats_arc(), runtime.load_policy());
    obs.publish_api(JobApi::new(Arc::clone(&runtime), DEFAULT_MAX_BODY_BYTES));
    let server = StatusServer::bind(0, Arc::clone(&obs)).unwrap();
    let addr = server.local_addr();

    let spec = r#"{"workload":"matmul","order":32,"machine":"tiny","profile":true}"#;
    let raw = format!("POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{spec}", spec.len());
    let wait = Duration::from_secs(30);
    let accepted = TcpConnector.fetch(&addr.to_string(), raw.as_bytes(), wait, wait, None).unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.text());
    let body: serde_json::Value = serde_json::from_str(&accepted.text()).unwrap();
    let id = body.get("id").and_then(|v| v.as_u64()).unwrap();
    let record = http_get(addr, &format!("/jobs/{id}"));
    assert_eq!(record.status, 200, "{}", record.text());
    assert!(record.text().contains("\"ok\":true"), "{}", record.text());

    // The profiled API job counts like a profiled manifest job.
    let body = http_get(addr, "/metrics").text();
    let samples = validate_exposition(&body, "metrics-api");
    assert_eq!(
        value_of(&samples, "cf_profile_jobs_total", Some(("machine", "tiny"))),
        Some(1.0),
        "{body}"
    );
    assert!(samples.iter().any(|s| s.name == "cf_profile_stage_seconds_total"), "{body}");
    server.shutdown();
}
