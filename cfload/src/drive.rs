//! The open-loop driver (wrk2-style): client threads share one arrival
//! schedule, each holding at most one connection at a time. A job's
//! latency runs from its request's *intended* send time until its record
//! has been received, so a stall is charged to every request that fell
//! due during it, not only to the one it hit (no coordinated omission).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cambricon_f::runtime::trace::{Attribution, ATTRIBUTION_HEADER};

use crate::gen::{Arrival, Spec};
use crate::http;
use crate::oracle::{Oracle, Verdict};
use crate::spans::{Recorder, Span, PID_CLIENT};

/// Client threads, each holding at most one connection. Four keep the
/// generator's own queueing negligible (send lag p95 under 1 ms) at every
/// workload's rate; with two, ~5% of `hot` requests and more of
/// `cold-unique`'s waited for a free client, which put the latency tail
/// on the generator instead of the fleet.
pub const CLIENTS: usize = 4;

/// Patience for one submit exchange.
const SUBMIT_TIMEOUT: Duration = Duration::from_secs(10);

/// A job whose record has not arrived this long after its intended send
/// time counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Server-side long-poll bound per `GET /jobs/<id>`, and the matching
/// client read timeout.
const POLL_SECS: u64 = 30;
const POLL_TIMEOUT: Duration = Duration::from_secs(POLL_SECS + 10);

/// Why a job did not yield a correct record.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// A non-2xx reply, or a transport error.
    Http(String),
    /// The record's digest does not verify.
    Digest(String),
    /// The record differs from the in-process reference.
    Mismatch { got: String, expected: String },
    /// No record within the job timeout.
    Timeout,
}

/// One job's outcome.
#[derive(Debug, Clone)]
pub struct JobSample {
    /// Intended send time → record received (measured before checking).
    pub latency: Duration,
    /// Time spent in this job's poll exchanges.
    pub poll_rtt: Duration,
    pub attribution: Option<Attribution>,
    pub failure: Option<Failure>,
}

/// One request's outcome.
#[derive(Debug, Clone)]
pub struct RequestSample {
    /// Actual minus intended send time: how late the generator ran.
    pub lag: Duration,
    pub submit_rtt: Duration,
    pub jobs: Vec<JobSample>,
}

/// One client thread's samples (tagged with their schedule index) and
/// spans.
type ThreadOut = (Vec<(usize, RequestSample)>, Vec<Span>);

/// Drives `arrivals` (offsets from `start`) against `router` with
/// `clients` threads and returns the samples in schedule order, plus the
/// client spans when `trace` is set.
pub fn drive(
    router: &str,
    arrivals: &[Arrival],
    oracle: &Oracle,
    clients: usize,
    start: Instant,
    trace: bool,
) -> (Vec<RequestSample>, Vec<Span>) {
    let next = AtomicUsize::new(0);
    let per_thread: Vec<ThreadOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|tid| {
                let next = &next;
                s.spawn(move || {
                    let mut rec = trace.then(|| Recorder::new(PID_CLIENT, tid as u64));
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(arrival) = arrivals.get(i) else { break };
                        let due = start + Duration::from_secs_f64(arrival.at);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        out.push((i, request(router, arrival, due, oracle, rec.as_mut())));
                    }
                    (out, rec.map(|r| r.spans).unwrap_or_default())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client threads do not panic")).collect()
    });
    let mut samples = Vec::with_capacity(arrivals.len());
    let mut spans = Vec::new();
    for (out, s) in per_thread {
        samples.extend(out);
        spans.extend(s);
    }
    samples.sort_by_key(|(i, _)| *i);
    (samples.into_iter().map(|(_, s)| s).collect(), spans)
}

fn request(
    router: &str,
    arrival: &Arrival,
    due: Instant,
    oracle: &Oracle,
    mut rec: Option<&mut Recorder>,
) -> RequestSample {
    let sent = Instant::now();
    let lag = sent.saturating_duration_since(due);
    let root = rec.as_mut().map(|r| r.open());
    let reply =
        http::exchange(router, http::post_jobs_request(&arrival.body()).as_bytes(), SUBMIT_TIMEOUT);
    let submit_rtt = sent.elapsed();
    let ids = match reply {
        Ok(r) if r.status == 202 => job_ids(&r.body)
            .filter(|ids| ids.len() == arrival.specs.len())
            .ok_or_else(|| Failure::Http(format!("submit: unexpected accept {}", r.body))),
        Ok(r) => Err(Failure::Http(format!("submit: {} {}", r.status, r.body.trim()))),
        Err(e) => Err(Failure::Http(format!("submit: {e}"))),
    };
    if let Some(r) = rec.as_mut() {
        r.record(root, "submit", sent, vec![("specs", arrival.specs.len().to_string())]);
    }
    let jobs = match ids {
        Ok(ids) => arrival
            .specs
            .iter()
            .zip(ids)
            .map(|(spec, id)| poll(router, spec, id, due, oracle, rec.as_deref_mut(), root))
            .collect(),
        Err(failure) => arrival
            .specs
            .iter()
            .map(|_| JobSample {
                latency: due.elapsed(),
                poll_rtt: Duration::ZERO,
                attribution: None,
                failure: Some(failure.clone()),
            })
            .collect(),
    };
    if let (Some(r), Some(id)) = (rec, root) {
        let args = vec![("lag_us", lag.as_micros().to_string())];
        r.close(id, None, "request", due, args);
    }
    RequestSample { lag, submit_rtt, jobs }
}

/// Long-polls fleet job `id` until its record arrives, then checks it.
fn poll(
    router: &str,
    spec: &Spec,
    id: u64,
    due: Instant,
    oracle: &Oracle,
    rec: Option<&mut Recorder>,
    root: Option<u64>,
) -> JobSample {
    let started = Instant::now();
    let path = format!("/jobs/{id}?timeout_s={POLL_SECS}");
    let (latency, outcome) = loop {
        let reply = http::get(router, &path, POLL_TIMEOUT);
        let latency = due.elapsed();
        match reply {
            Ok(r) if r.status == 202 && latency < JOB_TIMEOUT => continue,
            Ok(r) if r.status == 202 => break (latency, Err(Failure::Timeout)),
            Ok(r) if r.status == 200 => break (latency, Ok(r)),
            Ok(r) => break (latency, Err(Failure::Http(format!("poll: {} {}", r.status, r.body)))),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                break (latency, Err(Failure::Timeout))
            }
            Err(e) => break (latency, Err(Failure::Http(format!("poll: {e}")))),
        }
    };
    let poll_rtt = started.elapsed();
    let (attribution, failure) = match outcome {
        Ok(r) => {
            let attribution = r.header(ATTRIBUTION_HEADER).and_then(Attribution::parse);
            let failure = match oracle.check(spec, id, &r.body) {
                Verdict::Ok => None,
                Verdict::Digest => Some(Failure::Digest(r.body.clone())),
                Verdict::Mismatch { expected } => Some(Failure::Mismatch { got: r.body, expected }),
            };
            (attribution, failure)
        }
        Err(f) => (None, Some(f)),
    };
    if let Some(r) = rec {
        let mut args = vec![("job", id.to_string()), ("spec", spec.line())];
        if let Some(a) = &attribution {
            args.push(("attribution", a.encode()));
        }
        r.record(root, "poll", started, args);
    }
    JobSample { latency, poll_rtt, attribution, failure }
}

/// The fleet-wide ids of a `202` accept: `{"id":N}` or `{"ids":[…]}`.
fn job_ids(body: &str) -> Option<Vec<u64>> {
    let value = serde_json::from_str(body).ok()?;
    if let Some(id) = value.get("id").and_then(|v| v.as_u64()) {
        return Some(vec![id]);
    }
    value.get("ids")?.as_array()?.iter().map(|v| v.as_u64()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::{Arc, Mutex};

    /// Reads one request head plus its `Content-Length` body.
    fn read_request(stream: &mut TcpStream) -> String {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            let n = stream.read(&mut chunk).unwrap();
            buf.extend_from_slice(&chunk[..n]);
            let text = String::from_utf8_lossy(&buf).to_string();
            if let Some((head, body)) = text.split_once("\r\n\r\n") {
                let len = head
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .map_or(0, |v| v.parse().unwrap());
                if body.len() >= len || n == 0 {
                    return text;
                }
            }
        }
    }

    fn respond(stream: &mut TcpStream, status: &str, body: &str) {
        let head = format!(
            "HTTP/1.1 {status}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body.as_bytes()).unwrap();
    }

    /// A one-connection-at-a-time fleet stand-in that stalls for
    /// `stall` before serving connection number `stall_at`, recording
    /// when the stall began.
    fn stub(
        listener: TcpListener,
        connections: usize,
        stall_at: usize,
        stall: Duration,
        record: String,
        stalled: Arc<Mutex<Option<Instant>>>,
    ) {
        let mut next_id = 0u64;
        for n in 0..connections {
            let (mut stream, _) = listener.accept().unwrap();
            if n == stall_at {
                *stalled.lock().unwrap() = Some(Instant::now());
                std::thread::sleep(stall);
            }
            let request = read_request(&mut stream);
            if request.starts_with("POST /jobs ") {
                respond(&mut stream, "202 Accepted", &format!("{{\"id\":{next_id}}}"));
                next_id += 1;
            } else {
                let id: u64 =
                    request["GET /jobs/".len()..].split('?').next().unwrap().parse().unwrap();
                respond(&mut stream, "200 OK", &format!("{{\"job\":{id},{record}"));
            }
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_request_due_during_it() {
        let spec = crate::gen::hot_specs().remove(0);
        let oracle = Oracle::build([&spec]).unwrap();
        let record = oracle.get(&spec).unwrap().core.clone();
        let arrivals: Vec<Arrival> = (0..50)
            .map(|i| Arrival { at: 0.02 * f64::from(i), specs: vec![spec.clone()] })
            .collect();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stall = Duration::from_millis(500);
        let stalled = Arc::new(Mutex::new(None));
        let server = {
            let stalled = Arc::clone(&stalled);
            std::thread::spawn(move || stub(listener, 100, 20, stall, record, stalled))
        };
        let start = Instant::now() + Duration::from_millis(20);
        let (samples, _) = drive(&addr, &arrivals, &oracle, CLIENTS, start, false);
        server.join().unwrap();

        let began = stalled.lock().unwrap().expect("the stub stalled");
        let ended = began + stall;
        let mut charged = 0;
        let mut waited_for_a_client = false;
        for (a, s) in arrivals.iter().zip(&samples) {
            assert!(s.jobs.iter().all(|j| j.failure.is_none()), "{:?}", s.jobs);
            let due = start + Duration::from_secs_f64(a.at);
            if due >= began && due < ended {
                charged += 1;
                let owed = ended - due;
                let latency = s.jobs[0].latency;
                assert!(latency + Duration::from_millis(1) >= owed, "{latency:?} < {owed:?}");
                waited_for_a_client |= s.lag >= Duration::from_millis(100);
            }
        }
        assert!(charged >= 20, "{charged} requests fell due during the stall");
        assert!(waited_for_a_client, "requests due during the stall were sent late");
    }
}
