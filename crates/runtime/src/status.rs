//! A minimal, dependency-free HTTP/1.1 server over an [`Obs`] hub:
//! read-only status endpoints plus the job-ingestion API.
//!
//! | route               | method | payload | status |
//! |---------------------|--------|---------|--------|
//! | `/healthz`          | GET    | liveness + admission headroom | `200`, `503` when overloaded |
//! | `/stats`            | GET    | the live [`StatsSnapshot`](crate::StatsSnapshot) JSON | `200` once a run published, `503 "starting"` before |
//! | `/trace`            | GET    | recent span events + per-stage latency histograms; `?limit=N` caps events, `?stage=` filters by stage/kind name, `?trace=<hex>` filters to one distributed trace | `200` |
//! | `/metrics`          | GET    | Prometheus text exposition (see [`crate::metrics`]) | `200`, always |
//! | `/version`          | GET    | crate version + git describe | `200`, always |
//! | `/jobs`             | POST   | JSON job spec (object or array) → `{"id":…}` | `202`, `400`, `413`, `503` + `Retry-After` |
//! | `/jobs/<id>`        | GET    | the finished record (blocking long-poll, `?timeout_s=`) | `200`, `202` still running, `404` |
//! | `/jobs/<id>/status` | GET    | non-blocking job status JSON | `200`, `404` |
//! | `/drain`            | POST   | begin graceful drain: stop admitting, finish in-flight, flip `/healthz` to `"draining"` | `200` |
//!
//! Each connection is `http::read_request`, then routing, then
//! [`Response::write_to`], so every response carries an exact
//! `Content-Length`, `Connection: close` and an `X-CF-Digest` — errors
//! included — and `curl` and load-balancer probes need no keep-alive
//! handling. A wrong method on a known route answers `405` with an
//! `Allow` header instead of a silent drop; malformed request heads
//! answer `400`; a `Content-Length` beyond the configured bound answers
//! `413` before the body is read; a route that panics answers `500`. The
//! shared blocking [`AcceptLoop`] takes a connect the instant it lands and
//! serves it on the resident thread that accepted it, keeping another
//! thread waiting in `accept()`, so a long-poll on `GET /jobs/<id>` never
//! blocks probes. Each request records one [`SpanKind::ApiRequest`] span
//! and a [`Stage::ApiRequest`] latency sample on the hub's tracer. The
//! server binds 127.0.0.1 only. See DESIGN.md §8–9.
//!
//! **Distributed tracing.** `POST /jobs` reads the `X-CF-Trace` request
//! header (minting a fresh root context when absent — a lone backend
//! traces like a fleet member) and echoes the context on the `202`;
//! `GET /jobs/<id>` echoes it again and adds the `X-CF-Attribution`
//! latency breakdown once the record is done. Both ride as *headers*
//! only — record bodies stay byte-identical across fleet shapes. In
//! `/trace` responses, each event's `seq` is the tracer's monotonic
//! record counter: a gap between consecutive events means the bounded
//! span ring dropped the missing events under pressure (the top-level
//! `dropped` field counts them for the run's lifetime). See
//! DESIGN.md §16.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{self, JobWait, SubmitError, SubmitOk};
use crate::http::{self, HttpRequest, Response};
use crate::listener::AcceptLoop;
use crate::metrics;
use crate::obs::{Obs, SpanKind, Stage};
use crate::serve::json_str;
use crate::trace::{TraceContext, ATTRIBUTION_HEADER, TRACE_HEADER};

/// Events returned by `/trace` per request.
const TRACE_LIMIT: usize = 256;

/// Default `GET /jobs/<id>` long-poll patience.
const DEFAULT_POLL: Duration = Duration::from_secs(30);

/// Upper bound a client can raise the long-poll to via `?timeout_s=`.
const MAX_POLL_SECS: u64 = 120;

/// The status-and-jobs HTTP server (see the module docs).
#[derive(Debug)]
pub struct StatusServer {
    listener: AcceptLoop,
}

impl StatusServer {
    /// Binds `127.0.0.1:port` (`port` 0 picks a free port — read it back
    /// via [`local_addr`](StatusServer::local_addr)) and starts the
    /// accept loop's first thread.
    ///
    /// # Errors
    ///
    /// Any socket bind failure, unchanged.
    pub fn bind(port: u16, obs: Arc<Obs>) -> std::io::Result<StatusServer> {
        // One slow or malformed peer must not kill the server:
        // per-connection errors are dropped with the connection.
        let listener = AcceptLoop::bind(port, "cf-status", move |stream, token| {
            let _ = serve_connection(stream, &obs, token);
        })?;
        Ok(StatusServer { listener })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Stops the accept loop (also done on drop). Requests already being
    /// served finish on their own threads.
    pub fn shutdown(mut self) {
        self.listener.stop();
    }
}

/// Reads one request, routes it, writes one response.
fn serve_connection(mut stream: TcpStream, obs: &Arc<Obs>, token: u64) -> std::io::Result<()> {
    let max_body = obs.api().map_or(api::DEFAULT_MAX_BODY_BYTES, |a| a.max_body());
    let t0 = Instant::now();
    let (request, response) = match http::read_request(&mut stream, max_body) {
        Ok(Some((request, _))) => {
            let response = Response::guarded(|| route(&request, obs));
            (Some(request), response)
        }
        // Empty connect-and-close probe: nothing to answer.
        Ok(None) => return Ok(()),
        Err(e) => (None, Response::error(e.status(), &e.to_string())),
    };

    let tracer = obs.tracer();
    tracer.observe(Stage::ApiRequest, t0.elapsed());
    tracer.record(SpanKind::ApiRequest, token, Some(t0.elapsed()), || match &request {
        Some(r) => format!("{} {} -> {}", r.method, r.path(), response.status),
        None => format!("unparsed -> {}", response.status),
    });
    response.write_to(&mut stream)
}

fn route(request: &HttpRequest, obs: &Arc<Obs>) -> Response {
    let path = request.path();
    match path {
        "/healthz" | "/stats" | "/trace" | "/metrics" | "/version" => {
            if request.method != "GET" {
                return Response::method_not_allowed("GET", "only GET is supported");
            }
            match path {
                "/healthz" => {
                    let (healthy, body) = obs.healthz();
                    Response::json(if healthy { "200 OK" } else { "503 Service Unavailable" }, body)
                }
                "/stats" => {
                    let (ready, body) = obs.stats_json();
                    Response::json(if ready { "200 OK" } else { "503 Service Unavailable" }, body)
                }
                "/trace" => {
                    let (limit, stage, trace) = trace_query(request);
                    Response::json(
                        "200 OK",
                        obs.tracer().render_json_filtered(limit, stage.as_deref(), trace),
                    )
                }
                "/version" => {
                    let (version, git) = metrics::build_info();
                    Response::json(
                        "200 OK",
                        format!(
                            "{{\"name\":\"cf-serve\",\"version\":{},\"git\":{}}}",
                            json_str(version),
                            json_str(git),
                        ),
                    )
                }
                _ => Response::prometheus(obs.metrics()),
            }
        }
        "/jobs" => route_submit(request, obs),
        "/drain" => route_drain(request, obs),
        _ => match path.strip_prefix("/jobs/") {
            Some(rest) => route_job(request, rest, obs),
            None => Response::json(
                "404 Not Found",
                "{\"error\":\"not found\",\"routes\":[\"/healthz\",\"/stats\",\"/trace\",\
                 \"/metrics\",\"/version\",\"/jobs\",\"/jobs/<id>\",\"/jobs/<id>/status\",\
                 \"/drain\"]}"
                    .to_string(),
            ),
        },
    }
}

/// `POST /drain`: flip the hub into draining. The serve loop (cfserve)
/// watches [`Obs::draining`], finishes in-flight work, fsyncs the
/// journal and exits; this handler only initiates and reports.
fn route_drain(request: &HttpRequest, obs: &Arc<Obs>) -> Response {
    if request.method != "POST" {
        return Response::method_not_allowed("POST", "initiate a drain with POST");
    }
    obs.begin_drain();
    let pending = obs.api().map_or("null".to_string(), |api| api.pending().to_string());
    Response::json("200 OK", format!("{{\"status\":\"draining\",\"pending\":{pending}}}"))
}

/// `POST /jobs`: validate, journal the accept, answer the id.
fn route_submit(request: &HttpRequest, obs: &Arc<Obs>) -> Response {
    if request.method != "POST" {
        return Response::method_not_allowed("POST", "submit jobs with POST");
    }
    if obs.draining() {
        return Response::json(
            "503 Service Unavailable",
            "{\"error\":\"draining\",\"status\":\"draining\"}".to_string(),
        );
    }
    let Some(api) = obs.api() else {
        return Response::error(
            "503 Service Unavailable",
            "job api disabled (start cfserve with --status-port and a journal)",
        );
    };
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return Response::error("400 Bad Request", "body is not UTF-8");
    };
    // Join the fleet trace the caller propagated (a router's attempt
    // span), or mint a root context so a lone backend traces the same
    // way a fleet member does. The context is echoed on the 202.
    let trace = match request.header(TRACE_HEADER) {
        Some(value) => match TraceContext::parse(value) {
            Ok(ctx) => ctx,
            Err(e) => return Response::error("400 Bad Request", &e.to_string()),
        },
        None => TraceContext::mint(),
    };
    match api.submit_body(body, Some(trace)) {
        Ok(SubmitOk::One(id)) => {
            let mut r = Response::json("202 Accepted", format!("{{\"id\":{id}}}"));
            r.extra.push((TRACE_HEADER, trace.encode()));
            r
        }
        Ok(SubmitOk::Many(ids)) => {
            let ids = ids.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
            let mut r = Response::json("202 Accepted", format!("{{\"ids\":[{ids}]}}"));
            r.extra.push((TRACE_HEADER, trace.encode()));
            r
        }
        Err(SubmitError::Bad(message)) => Response::error("400 Bad Request", &message),
        Err(SubmitError::Shed { retry_after_s, message }) => {
            let mut r = Response::json(
                "503 Service Unavailable",
                format!("{{\"error\":{},\"retry_after_s\":{retry_after_s}}}", json_str(&message)),
            );
            r.retry_after = Some(retry_after_s);
            r
        }
        Err(SubmitError::Journal(message)) => {
            Response::error("500 Internal Server Error", &message)
        }
    }
}

/// `GET /jobs/<id>` (long-poll) and `GET /jobs/<id>/status`.
fn route_job(request: &HttpRequest, rest: &str, obs: &Arc<Obs>) -> Response {
    if request.method != "GET" {
        return Response::method_not_allowed("GET", "poll jobs with GET");
    }
    let Some(api) = obs.api() else {
        return Response::error("503 Service Unavailable", "job api disabled");
    };
    let (id_part, status_only) = match rest.strip_suffix("/status") {
        Some(id_part) => (id_part, true),
        None => (rest, false),
    };
    let Ok(id) = id_part.parse::<u64>() else {
        return Response::error("400 Bad Request", "job id must be an unsigned integer");
    };
    if status_only {
        return match api.status_json(id) {
            Some(body) => Response::json("200 OK", body),
            None => Response::error("404 Not Found", "no such job"),
        };
    }
    let timeout = poll_timeout(request);
    // The job's trace context and (once settled) latency attribution
    // ride as response *headers*: record bodies must stay byte-identical
    // to a fleet-less run (clients digest-verify them).
    let trace_header = api.trace_of(id).map(|ctx| ctx.encode());
    match api.wait(id, timeout) {
        Some(JobWait::Done(record)) => {
            api.note_streamed(record.len() as u64);
            let mut r = Response::json("200 OK", record);
            if let Some(value) = trace_header {
                r.extra.push((TRACE_HEADER, value));
            }
            if let Some(attribution) = api.attribution_of(id) {
                r.extra.push((ATTRIBUTION_HEADER, attribution));
            }
            r
        }
        Some(JobWait::Running(status)) => {
            let mut r = Response::json("202 Accepted", status);
            if let Some(value) = trace_header {
                r.extra.push((TRACE_HEADER, value));
            }
            r
        }
        None => Response::error("404 Not Found", "no such job"),
    }
}

/// The `GET /trace` query filters: `?limit=N` (events returned;
/// non-numeric values fall back to [`TRACE_LIMIT`]), `?stage=name`
/// (stage or kind wire name) and `?trace=hex` (a distributed trace id,
/// up to 32 hex digits). Unknown parameters are ignored.
fn trace_query(request: &HttpRequest) -> (usize, Option<String>, Option<u128>) {
    let mut limit = TRACE_LIMIT;
    let mut stage = None;
    let mut trace = None;
    if let Some(query) = request.query() {
        for pair in query.split('&') {
            if let Some(value) = pair.strip_prefix("limit=") {
                if let Ok(n) = value.parse::<usize>() {
                    limit = n;
                }
            } else if let Some(value) = pair.strip_prefix("stage=") {
                if !value.is_empty() {
                    stage = Some(value.to_string());
                }
            } else if let Some(value) = pair.strip_prefix("trace=") {
                if (1..=32).contains(&value.len()) {
                    if let Ok(id) = u128::from_str_radix(value, 16) {
                        trace = Some(id);
                    }
                }
            }
        }
    }
    (limit, stage, trace)
}

/// The long-poll patience: `?timeout_s=N` clamped to `0..=120`,
/// [`DEFAULT_POLL`] without one.
fn poll_timeout(request: &HttpRequest) -> Duration {
    let Some(query) = request.query() else { return DEFAULT_POLL };
    for pair in query.split('&') {
        if let Some(value) = pair.strip_prefix("timeout_s=") {
            if let Ok(secs) = value.parse::<u64>() {
                return Duration::from_secs(secs.min(MAX_POLL_SECS));
            }
        }
    }
    DEFAULT_POLL
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::JobApi;
    use crate::http::{Connector, Reply, TcpConnector};
    use crate::scheduler::{LoadPolicy, Runtime, RuntimeConfig};
    use crate::stats::RuntimeStats;
    use std::sync::atomic::Ordering;
    use std::thread;

    /// Connect/read patience of the test client (long-polls included).
    const WAIT: Duration = Duration::from_secs(60);

    fn http(addr: SocketAddr, raw: &str) -> Reply {
        TcpConnector.fetch(&addr.to_string(), raw.as_bytes(), WAIT, WAIT, None).unwrap()
    }

    fn http_get(addr: SocketAddr, path: &str) -> Reply {
        http(addr, &format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n"))
    }

    fn http_post(addr: SocketAddr, path: &str, body: &str) -> Reply {
        http(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    #[test]
    fn routes_health_stats_trace_and_404() {
        let obs = Obs::new(64);
        let server = StatusServer::bind(0, Arc::clone(&obs)).unwrap();
        let addr = server.local_addr();

        // Before any run publishes: healthz is permissive, stats is 503.
        let r = http_get(addr, "/healthz");
        assert_eq!(r.status, 200);
        assert!(r.text().contains("starting"), "{}", r.text());
        let r = http_get(addr, "/stats");
        assert_eq!(r.status, 503);
        assert!(r.text().contains("starting"), "{}", r.text());

        // After a publish: stats serves the snapshot, healthz headroom.
        let stats = Arc::new(RuntimeStats::new(1));
        stats.submitted.fetch_add(5, Ordering::Relaxed);
        obs.publish(Arc::clone(&stats), LoadPolicy::max_in_flight(3));
        let r = http_get(addr, "/stats");
        assert_eq!(r.status, 200);
        assert!(r.text().contains("\"submitted\":5"), "{}", r.text());
        let r = http_get(addr, "/healthz");
        assert_eq!(r.status, 200);
        assert!(r.text().contains("\"headroom\":3"), "{}", r.text());

        // Overload flips healthz to 503.
        stats.in_flight.fetch_add(3, Ordering::Relaxed);
        let r = http_get(addr, "/healthz");
        assert_eq!(r.status, 503);
        assert!(r.text().contains("overloaded"), "{}", r.text());

        let r = http_get(addr, "/trace?limit=ignored");
        assert_eq!(r.status, 200);
        assert!(r.text().contains("\"events\""), "{}", r.text());

        let r = http_get(addr, "/metrics");
        assert_eq!(r.status, 200);
        let body = r.text();
        assert!(body.contains("# TYPE cf_jobs_submitted_total counter"), "{body}");
        assert!(body.contains("cf_jobs_submitted_total{instance=\"cf-serve\"} 5"), "{body}");
        assert!(body.contains("cf_max_in_flight{instance=\"cf-serve\"} 3"), "{body}");

        let r = http_get(addr, "/nope");
        assert_eq!(r.status, 404);
        let body = r.text();
        assert!(body.contains("/healthz"), "{body}");
        assert!(body.contains("/version"), "{body}");
        assert!(body.contains("/jobs"), "{body}");

        server.shutdown();
    }

    #[test]
    fn version_and_method_not_allowed() {
        let obs = Obs::new(64);
        let server = StatusServer::bind(0, Arc::clone(&obs)).unwrap();
        let addr = server.local_addr();

        let r = http_get(addr, "/version");
        assert_eq!(r.status, 200);
        let (version, git) = metrics::build_info();
        assert!(r.text().contains(&format!("\"version\":\"{version}\"")), "{}", r.text());
        assert!(r.text().contains(&format!("\"git\":\"{git}\"")), "{}", r.text());

        for path in ["/healthz", "/stats", "/trace", "/metrics", "/version"] {
            let r = http_post(addr, path, "{}");
            assert_eq!(r.status, 405, "{path}");
            assert_eq!(r.header("allow"), Some("GET"), "{path}: {r:?}");
            assert_eq!(r.header("connection"), Some("close"), "{path}: {r:?}");
            assert!(r.text().contains("error"), "{path}: {}", r.text());
        }

        // Malformed request line: 400, not a silent drop.
        let r = http(addr, "garbage\r\n\r\n");
        assert_eq!(r.status, 400);
        assert!(r.text().contains("malformed"), "{}", r.text());

        server.shutdown();
    }

    #[test]
    fn jobs_over_http_submit_poll_and_shed() {
        let obs = Obs::new(64);
        let runtime = Arc::new(Runtime::new(RuntimeConfig { workers: 1, ..Default::default() }));
        let api = JobApi::new(Arc::clone(&runtime), 4096);
        obs.publish(runtime.stats_arc(), runtime.load_policy());
        obs.publish_api(Arc::clone(&api));
        let server = StatusServer::bind(0, Arc::clone(&obs)).unwrap();
        let addr = server.local_addr();

        // Submit, long-poll the record, check status.
        let r = http_post(
            addr,
            "/jobs",
            r#"{"workload":"matmul","order":32,"machine":"tiny","label":"http"}"#,
        );
        assert_eq!(r.status, 202, "{}", r.text());
        assert_eq!(r.text(), "{\"id\":0}");
        let r = http_get(addr, "/jobs/0?timeout_s=60");
        assert_eq!(r.status, 200, "{}", r.text());
        assert!(r.text().starts_with("{\"job\":0,\"label\":\"http\""), "{}", r.text());
        assert!(r.text().contains("\"ok\":true"), "{}", r.text());
        let r = http_get(addr, "/jobs/0/status");
        assert_eq!(r.status, 200);
        assert!(r.text().contains("\"state\":\"done\""), "{}", r.text());
        assert_eq!(http_get(addr, "/jobs/7").status, 404);
        let streamed = runtime.stats().api_streamed_bytes.load(Ordering::Relaxed);
        assert!(streamed > 0, "streamed bytes not accounted");

        // Malformed spec: 400. Oversized body: 413 from the header alone.
        let r = http_post(addr, "/jobs", r#"{"workload":"nope"}"#);
        assert_eq!(r.status, 400, "{}", r.text());
        let big = "x".repeat(5000);
        assert_eq!(http_post(addr, "/jobs", &big).status, 413);

        // Wrong method on /jobs and /jobs/<id>.
        let r = http(addr, "DELETE /jobs HTTP/1.1\r\n\r\n");
        assert_eq!(r.status, 405);
        assert_eq!(r.header("allow"), Some("POST"));
        let r = http(addr, "DELETE /jobs/0 HTTP/1.1\r\n\r\n");
        assert_eq!(r.status, 405);
        assert_eq!(r.header("allow"), Some("GET"));

        server.shutdown();
    }

    #[test]
    fn submit_echoes_trace_context_and_attribution_headers() {
        let obs = Obs::new(64);
        let runtime = Arc::new(Runtime::new(RuntimeConfig {
            workers: 1,
            tracer: Some(Arc::clone(obs.tracer())),
            ..Default::default()
        }));
        let api = JobApi::new(Arc::clone(&runtime), 4096);
        obs.publish(runtime.stats_arc(), runtime.load_policy());
        obs.publish_api(Arc::clone(&api));
        let server = StatusServer::bind(0, Arc::clone(&obs)).unwrap();
        let addr = server.local_addr();

        // A propagated X-CF-Trace context is echoed verbatim on the 202.
        let ctx = crate::trace::TraceContext::mint();
        let spec = r#"{"workload":"matmul","order":32,"machine":"tiny"}"#;
        let r = http(
            addr,
            &format!(
                "POST /jobs HTTP/1.1\r\nHost: l\r\nX-CF-Trace: {}\r\nContent-Length: {}\r\n\r\n{spec}",
                ctx.encode(),
                spec.len(),
            ),
        );
        assert_eq!(r.status, 202, "{}", r.text());
        assert_eq!(r.header("x-cf-trace"), Some(ctx.encode().as_str()), "{r:?}");

        // The finished poll carries the per-job child context plus the
        // attribution breakdown — as headers; the body is unchanged.
        let r = http(addr, "GET /jobs/0?timeout_s=60 HTTP/1.1\r\nHost: l\r\n\r\n");
        assert_eq!(r.status, 200, "{}", r.text());
        let trace = r.header("x-cf-trace").unwrap_or_else(|| panic!("no trace header: {r:?}"));
        assert!(trace.starts_with(&format!("{:032x}-", ctx.trace_id)), "{trace}");
        assert!(trace.ends_with(&format!("-{:016x}", ctx.span_id)), "child parent: {trace}");
        let attribution = r
            .header("x-cf-attribution")
            .unwrap_or_else(|| panic!("no attribution header in {r:?}"));
        let a = crate::trace::Attribution::parse(attribution).unwrap();
        assert_eq!(a.execution_sum_us(), a.total_us(), "{attribution}");
        assert!(!r.text().contains("total_us="), "attribution must not leak into the body");
        assert!(r.text().starts_with("{\"job\":0,"), "{}", r.text());

        // A malformed header is a 400, not a panic or a silent drop.
        let r = http(
            addr,
            &format!(
                "POST /jobs HTTP/1.1\r\nHost: l\r\nX-CF-Trace: garbage\r\nContent-Length: {}\r\n\r\n{spec}",
                spec.len(),
            ),
        );
        assert_eq!(r.status, 400, "{}", r.text());

        // Without the header the backend mints its own root context.
        let r = http_post(addr, "/jobs", spec);
        assert_eq!(r.status, 202);
        assert!(r.header("x-cf-trace").is_some(), "{r:?}");

        // /trace?trace= narrows to this trace's events (the settle event
        // lands moments after the poll returns, so retry briefly).
        let mut body = String::new();
        for _ in 0..500 {
            body = http_get(addr, &format!("/trace?trace={:032x}", ctx.trace_id)).text();
            if body.contains("job-settle") {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        assert!(body.contains("\"kind\":\"job-settle\""), "{body}");
        assert!(body.contains(&format!("\"trace\":\"{:032x}\"", ctx.trace_id)), "{body}");

        // ?stage= narrows events and histograms; ?limit= caps events.
        let body = http_get(addr, "/trace?stage=run").text();
        assert!(body.contains("\"run\":{\"count\""), "{body}");
        assert!(!body.contains("\"cache_lookup\""), "{body}");
        let body = http_get(addr, "/trace?limit=1").text();
        assert_eq!(body.matches("\"kind\":").count(), 1, "{body}");

        server.shutdown();
    }

    #[test]
    fn overloaded_submissions_shed_with_retry_after() {
        let obs = Obs::new(64);
        let runtime = Arc::new(Runtime::new(RuntimeConfig {
            workers: 1,
            load: LoadPolicy::max_in_flight(1),
            ..Default::default()
        }));
        let api = JobApi::new(Arc::clone(&runtime), 4096);
        obs.publish(runtime.stats_arc(), runtime.load_policy());
        obs.publish_api(Arc::clone(&api));
        let server = StatusServer::bind(0, Arc::clone(&obs)).unwrap();
        let addr = server.local_addr();

        // Fill the only admission slot, then submit over HTTP.
        let (hold_tx, hold_rx) = std::sync::mpsc::channel::<()>();
        let blocker = runtime.submit_task(move || {
            let _ = hold_rx.recv();
        });
        let r = http_post(addr, "/jobs", r#"{"workload":"matmul","order":32,"machine":"tiny"}"#);
        assert_eq!(r.status, 503, "{}", r.text());
        assert!(r.header("retry-after").is_some(), "{r:?}");
        assert!(r.text().contains("retry_after_s"), "{}", r.text());
        assert_eq!(runtime.stats().api_shed.load(Ordering::Relaxed), 1);
        hold_tx.send(()).unwrap();
        blocker.join().unwrap();

        server.shutdown();
    }

    #[test]
    fn drain_flips_healthz_and_refuses_submissions() {
        let obs = Obs::new(64);
        let runtime = Arc::new(Runtime::new(RuntimeConfig { workers: 1, ..Default::default() }));
        let api = JobApi::new(Arc::clone(&runtime), 4096);
        obs.publish(runtime.stats_arc(), runtime.load_policy());
        obs.publish_api(Arc::clone(&api));
        let server = StatusServer::bind(0, Arc::clone(&obs)).unwrap();
        let addr = server.local_addr();

        // GET on /drain is a 405 — a probe must not trigger a drain.
        let r = http(addr, "GET /drain HTTP/1.1\r\n\r\n");
        assert_eq!(r.status, 405);
        assert_eq!(r.header("allow"), Some("POST"));
        assert!(!obs.draining());

        // Initiate: 200 with the pending count, healthz flips to
        // draining (distinct from overloaded), submissions refuse.
        let r = http_post(addr, "/drain", "");
        assert_eq!(r.status, 200, "{}", r.text());
        assert!(r.text().contains("\"status\":\"draining\""), "{}", r.text());
        assert!(r.text().contains("\"pending\":0"), "{}", r.text());
        assert!(obs.draining());
        let r = http_get(addr, "/healthz");
        assert_eq!(r.status, 503);
        assert!(r.text().contains("\"status\":\"draining\""), "{}", r.text());
        assert!(!r.text().contains("overloaded"), "{}", r.text());
        let r = http_post(addr, "/jobs", r#"{"workload":"matmul","order":32,"machine":"tiny"}"#);
        assert_eq!(r.status, 503);
        assert!(r.text().contains("draining"), "{}", r.text());

        // Already-submitted jobs still poll fine; metrics report the gauge.
        let r = http_get(addr, "/metrics");
        assert_eq!(r.status, 200);
        assert!(r.text().contains("cf_draining{instance=\"cf-serve\"} 1"), "{}", r.text());

        server.shutdown();
    }

    #[test]
    fn jobs_without_a_published_api_are_503() {
        let obs = Obs::new(64);
        let server = StatusServer::bind(0, Arc::clone(&obs)).unwrap();
        let addr = server.local_addr();
        let r = http_post(addr, "/jobs", "{}");
        assert_eq!(r.status, 503);
        assert!(r.text().contains("disabled"), "{}", r.text());
        server.shutdown();
    }
}
