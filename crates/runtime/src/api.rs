//! The HTTP job API: `POST /jobs` ingestion over the status server.
//!
//! [`StatusServer`](crate::StatusServer) started read-only; this module
//! promotes it to a full ingestion path. A client POSTs a JSON job spec
//! (the same fields as one manifest line), gets a job id back
//! immediately, and streams the finished record from `GET /jobs/<id>`
//! (a blocking long-poll) or checks `GET /jobs/<id>/status`. Three
//! properties drive the design:
//!
//! * **Durability before acknowledgement.** An accepted job is written
//!   to the API's write-ahead journal — an acceptance record
//!   carrying the canonical manifest line — and fsync'd *before* the id
//!   is returned. A crash between acceptance and completion leaves the
//!   accept on disk; `cfserve --resume` replays it, re-runs the job
//!   under the same id, and serves the identical record over HTTP.
//! * **Shedding at the front door.** Admission control
//!   ([`LoadPolicy`](crate::LoadPolicy)) is consulted before anything
//!   is journaled; an overloaded pool answers `503` with a
//!   `Retry-After` derived from how far past the limit the pool is,
//!   instead of queueing unboundedly.
//! * **Cross-request coalescing.** Two concurrent submissions of the
//!   same `(machine fingerprint, program content hash)` pair — the plan
//!   cache key — run as *one* computation: the second joins the first
//!   as a subscriber, gets its own durable id and record, and the
//!   `cf_api_coalesced_total` counter ticks once per joined request.
//!
//! The byte-exact record contract: a job submitted over the API and the
//! identical manifest line produce byte-identical result records (both
//! go through [`serve::render_record_json`](crate::serve::render_record_json)
//! from the same deterministic [`JobOutput`]).
//!
//! The module also owns the dependency-free incremental HTTP/1.1
//! request parser ([`parse_request`]) the server reads with: torn reads
//! return `Ok(None)` (read more), malformed request lines and headers
//! are typed errors the server maps to `400`, and a `Content-Length`
//! beyond the configured bound fails *before* the body arrives, so the
//! reader never buffers more than `--max-body-bytes`. See DESIGN.md §9.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cf_core::MachineConfig;
use cf_isa::Program;

use crate::cache::CacheKey;
use crate::fault::fnv1a;
use crate::job::{JobError, JobOptions};
use crate::journal::{AcceptedEntry, JobEntry, Journal, JournalError, RunHeader, JOURNAL_VERSION};
use crate::manifest::{self, JobKind};
use crate::obs::{SpanKind, Tracer};
use crate::scheduler::Runtime;
use crate::serve::{exec_output, json_str, render_record_json, sim_output, JobOutput, JobRecord};
use crate::sync;
use crate::trace::{Attribution, TraceContext, TOTAL_KEY};

/// Default request-body bound (`cfserve --max-body-bytes`).
pub const DEFAULT_MAX_BODY_BYTES: usize = 1 << 20;

/// Request-head bound: the request line plus headers must fit here.
const MAX_HEAD_BYTES: usize = 8192;

/// Hottest-signature count for profiled API jobs (matches the manifest
/// serving path so profiled records stay identical).
const PROFILE_TOP_SIGNATURES: usize = 16;

/// Submission retries absorbed when admission capacity is raced away
/// between the front-door check and the actual submit.
const SUBMIT_RACE_RETRIES: u32 = 3;

// ---------------------------------------------------------------------------
// HTTP request parsing
// ---------------------------------------------------------------------------

/// One parsed HTTP/1.x request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// The request method (`GET`, `POST`, …).
    pub method: String,
    /// The raw request target, query string included.
    pub target: String,
    /// Header `(name, value)` pairs in arrival order; folded
    /// continuation lines are already joined into their header's value.
    pub headers: Vec<(String, String)>,
    /// The request body (`Content-Length` bytes; empty without one).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// The target's path component (query string stripped).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The target's query string, if any (without the `?`).
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// The first header named `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }
}

/// Why a request did not parse (each maps to one HTTP error status).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpParseError {
    /// The request line is not `METHOD SP TARGET SP HTTP/…`.
    BadRequestLine,
    /// The head (request line + headers) exceeds `MAX_HEAD_BYTES` (8 KiB).
    HeadTooLarge,
    /// A header line has no `:` or an empty/spaced name.
    BadHeader,
    /// `Content-Length` is not a single unsigned integer.
    BadContentLength,
    /// `Content-Length` exceeds the configured body bound.
    BodyTooLarge {
        /// The declared body length.
        length: u64,
        /// The configured bound.
        max: usize,
    },
}

impl HttpParseError {
    /// The HTTP status line this error maps to.
    pub fn status(&self) -> &'static str {
        match self {
            HttpParseError::BodyTooLarge { .. } => "413 Payload Too Large",
            _ => "400 Bad Request",
        }
    }
}

impl std::fmt::Display for HttpParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpParseError::BadRequestLine => write!(f, "malformed request line"),
            HttpParseError::HeadTooLarge => {
                write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            HttpParseError::BadHeader => write!(f, "malformed header line"),
            HttpParseError::BadContentLength => write!(f, "malformed Content-Length"),
            HttpParseError::BodyTooLarge { length, max } => {
                write!(f, "body of {length} bytes exceeds the {max}-byte bound")
            }
        }
    }
}

impl std::error::Error for HttpParseError {}

/// Incrementally parses one request from the bytes read so far.
///
/// `Ok(None)` means the request is not complete yet — read more and
/// call again (a torn read mid-head or mid-body is not an error).
/// Errors are terminal for the connection: the head will never parse no
/// matter how many more bytes arrive, or the declared body exceeds
/// `max_body` (detected from the header alone, so the caller never
/// buffers an oversized body).
///
/// # Errors
///
/// See [`HttpParseError`]; each variant maps to a 400/413 response.
pub fn parse_request(buf: &[u8], max_body: usize) -> Result<Option<HttpRequest>, HttpParseError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpParseError::HeadTooLarge);
        }
        return Ok(None);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(HttpParseError::HeadTooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| HttpParseError::BadRequestLine)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpParseError::BadRequestLine)?;
    let (method, target) = parse_request_line(request_line)?;

    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if line.starts_with(' ') || line.starts_with('\t') {
            // RFC 7230 obs-fold: a continuation line extends the
            // previous header's value.
            let (_, value) = headers.last_mut().ok_or(HttpParseError::BadHeader)?;
            value.push(' ');
            value.push_str(line.trim());
            continue;
        }
        let (name, value) = line.split_once(':').ok_or(HttpParseError::BadHeader)?;
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return Err(HttpParseError::BadHeader);
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }

    let mut length: u64 = 0;
    let mut seen_length = false;
    for (name, value) in &headers {
        if name.eq_ignore_ascii_case("content-length") {
            let parsed: u64 = value.parse().map_err(|_| HttpParseError::BadContentLength)?;
            if seen_length && parsed != length {
                return Err(HttpParseError::BadContentLength);
            }
            length = parsed;
            seen_length = true;
        }
    }
    if length > max_body as u64 {
        return Err(HttpParseError::BodyTooLarge { length, max: max_body });
    }
    let body_start = head_end + 4;
    let body_end = body_start + length as usize;
    if buf.len() < body_end {
        return Ok(None);
    }
    Ok(Some(HttpRequest { method, target, headers, body: buf[body_start..body_end].to_vec() }))
}

/// Byte offset of the head's final line (start of `\r\n\r\n`), if the
/// terminator has arrived.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_request_line(line: &str) -> Result<(String, String), HttpParseError> {
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpParseError::BadRequestLine);
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpParseError::BadRequestLine);
    }
    if !target.starts_with('/') || !version.starts_with("HTTP/") {
        return Err(HttpParseError::BadRequestLine);
    }
    Ok((method.to_string(), target.to_string()))
}

// ---------------------------------------------------------------------------
// Job API
// ---------------------------------------------------------------------------

/// Why a submission was rejected (each maps to one HTTP error status).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The spec is malformed (`400`).
    Bad(String),
    /// Admission control shed the job at the front door (`503`).
    Shed {
        /// Suggested `Retry-After` seconds, derived from how far past
        /// its limit the pool is (clamped to `1..=30`), then jittered
        /// into the upper half of that window so shed clients don't
        /// retry in a thundering herd.
        retry_after_s: u64,
        /// The shed rendering (limit, in-flight count, queued bytes).
        message: String,
    },
    /// The write-ahead journal rejected the acceptance record (`500`);
    /// an unacknowledged job must not run without a durable accept.
    Journal(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Bad(m) => write!(f, "{m}"),
            SubmitError::Shed { message, .. } => write!(f, "{message}"),
            SubmitError::Journal(m) => write!(f, "journal: {m}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What a successful `POST /jobs` accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOk {
    /// A single spec object: one job id.
    One(u64),
    /// A spec array: one id per element, in array order.
    Many(Vec<u64>),
}

/// What [`JobApi::wait`] observed within its timeout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobWait {
    /// The finished record, rendered byte-identically to the manifest
    /// serving path.
    Done(String),
    /// Still running at the deadline: the status JSON to long-poll with.
    Running(String),
}

/// What a journal resume recovered for the API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ApiResume {
    /// Completed jobs replayed from the journal (answered without
    /// re-running).
    pub replayed: usize,
    /// Journaled-but-unanswered accepts re-submitted under their
    /// original ids.
    pub resubmitted: usize,
}

/// One fully-validated submission, ready to run.
struct ParsedJob {
    /// The canonical manifest line (journaled in the accept record).
    line: String,
    label: String,
    machine_name: String,
    mode: &'static str,
    machine: MachineConfig,
    program: Arc<Program>,
    kind: JobKind,
    profile: bool,
    /// Admission cost (the program's external-memory footprint).
    cost: usize,
    /// Plan-cache identity for coalescible (simulate, non-profiled)
    /// jobs.
    coalesce_key: Option<(u64, u64)>,
}

/// One tracked API job.
struct ApiJob {
    label: String,
    machine: String,
    mode: &'static str,
    /// `None` while running; errors are stored as their rendered
    /// message (exactly what the journal persists), replayed as
    /// [`JobError::Journaled`] so records stay byte-identical.
    outcome: Option<Result<JobOutput, String>>,
    /// Coalesced subscriber ids to settle when this (leader) job
    /// finishes.
    followers: Vec<u64>,
    /// This job's distributed trace context (a per-job child of the
    /// `X-CF-Trace` request context), echoed on every response about
    /// the job.
    trace: Option<TraceContext>,
    /// When the accept was acknowledged (attribution time base).
    accepted_at: Instant,
    /// Accept → scheduler-admission microseconds.
    admission_us: u64,
    /// The scheduler job id this API job ran under — the span-ring
    /// token its queue/run/retry durations are recorded against.
    sched_token: Option<u64>,
    /// The encoded latency [`Attribution`], computed once at settle
    /// time and served as the `X-CF-Attribution` response header.
    attribution: Option<String>,
}

impl ApiJob {
    fn new(label: String, machine: String, mode: &'static str) -> ApiJob {
        ApiJob {
            label,
            machine,
            mode,
            outcome: None,
            followers: Vec::new(),
            trace: None,
            accepted_at: Instant::now(),
            admission_us: 0,
            sched_token: None,
            attribution: None,
        }
    }
}

struct ApiState {
    next_id: u64,
    jobs: HashMap<u64, ApiJob>,
    journal: Option<Journal>,
    /// Live coalescing leaders by plan-cache identity.
    leaders: HashMap<(u64, u64), u64>,
}

impl ApiState {
    /// Journals a completion; a failed append loses durability for this
    /// record but must not take down the completion path (the in-memory
    /// outcome still answers the client).
    fn journal_entry(&mut self, entry: &JobEntry) {
        if let Some(journal) = self.journal.as_mut() {
            let _ = journal.append(entry);
        }
    }
}

/// The HTTP job subsystem: validates specs, journals acceptance before
/// acknowledging, coalesces identical concurrent submissions, runs jobs
/// on the shared [`Runtime`], and renders finished records (see the
/// module docs).
pub struct JobApi {
    runtime: Arc<Runtime>,
    state: Mutex<ApiState>,
    done: Condvar,
    max_body: usize,
}

impl std::fmt::Debug for JobApi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobApi").field("max_body", &self.max_body).finish_non_exhaustive()
    }
}

/// The run-identity header of an API journal. API jobs have no
/// manifest, so the identity is a fixed tag; `jobs: u64::MAX` keeps
/// every id inside the scan contract's bound.
fn api_header() -> RunHeader {
    RunHeader {
        version: JOURNAL_VERSION,
        manifest: fnv1a(b"cf-api"),
        machines: 0,
        fault_seed: None,
        fault_spec: 0,
        jobs: u64::MAX,
    }
}

impl JobApi {
    /// A journal-less API over `runtime` (accepted jobs are not durable
    /// across a crash; tests and ad-hoc serving).
    pub fn new(runtime: Arc<Runtime>, max_body: usize) -> Arc<JobApi> {
        Arc::new(JobApi {
            runtime,
            state: Mutex::new(ApiState {
                next_id: 0,
                jobs: HashMap::new(),
                journal: None,
                leaders: HashMap::new(),
            }),
            done: Condvar::new(),
            max_body,
        })
    }

    /// An API whose acceptance handshake is durable in the journal at
    /// `path`. With `resume`, an existing journal is replayed first:
    /// completed jobs answer from disk, journaled-but-unanswered accepts
    /// are re-submitted under their original ids.
    ///
    /// # Errors
    ///
    /// Journal create/resume failures (I/O, header mismatch).
    pub fn with_journal(
        runtime: Arc<Runtime>,
        path: &Path,
        resume: bool,
        compact_threshold: u64,
        max_body: usize,
    ) -> Result<(Arc<JobApi>, ApiResume), JournalError> {
        let header = api_header();
        let mut summary = ApiResume::default();
        let mut jobs: HashMap<u64, ApiJob> = HashMap::new();
        let mut next_id = 0u64;
        let mut pending: Vec<AcceptedEntry> = Vec::new();
        let journal = if resume && path.exists() {
            let (journal, recovery) = Journal::resume_opts(path, &header, compact_threshold)?;
            for entry in recovery.entries {
                next_id = next_id.max(entry.index + 1);
                let mut job = ApiJob::new(entry.label, entry.machine, entry.mode);
                job.outcome = Some(entry.outcome);
                jobs.insert(entry.index, job);
            }
            summary.replayed = jobs.len();
            for accept in recovery.accepted {
                next_id = next_id.max(accept.index + 1);
                if !jobs.contains_key(&accept.index) {
                    pending.push(accept);
                }
            }
            journal
        } else {
            Journal::create(path, &header)?
        };

        let api = Arc::new(JobApi {
            runtime,
            state: Mutex::new(ApiState {
                next_id,
                jobs,
                journal: Some(journal),
                leaders: HashMap::new(),
            }),
            done: Condvar::new(),
            max_body,
        });

        // Re-run every journaled-but-unanswered accept under its
        // original id: the client was acknowledged, so the record must
        // eventually exist. The accept is already durable — no re-journal.
        for accept in pending {
            summary.resubmitted += 1;
            match parse_spec_line(&accept.spec) {
                Ok(job) => {
                    {
                        let mut st = sync::lock(&api.state);
                        st.jobs.insert(
                            accept.index,
                            ApiJob::new(job.label.clone(), job.machine_name.clone(), job.mode),
                        );
                    }
                    api.run_job(accept.index, job, None);
                }
                Err(message) => {
                    // The journaled spec no longer parses (foreign edit,
                    // version skew): settle the id with the error so the
                    // client's poll terminates.
                    let mut st = sync::lock(&api.state);
                    st.jobs.insert(
                        accept.index,
                        ApiJob::new("unparsed".to_string(), "unknown".to_string(), "simulate"),
                    );
                    drop(st);
                    api.complete(accept.index, Err(message), None);
                }
            }
        }
        Ok((api, summary))
    }

    /// The configured request-body bound.
    pub fn max_body(&self) -> usize {
        self.max_body
    }

    /// The runtime the API submits to (its stats carry the `cf_api_*`
    /// counters).
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// Accounts bytes of a finished record streamed to a client
    /// (`cf_api_streamed_bytes_total`).
    pub fn note_streamed(&self, bytes: u64) {
        self.runtime.stats().api_streamed_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Submits a `POST /jobs` body: a single spec object or an array of
    /// spec objects (an array is validated as a whole — one malformed
    /// element rejects the request before anything is journaled — and
    /// its compatible members are submitted as one scheduler batch).
    ///
    /// # Errors
    ///
    /// See [`SubmitError`]; each variant maps to one HTTP status.
    pub fn submit_body(self: &Arc<Self>, body: &str) -> Result<SubmitOk, SubmitError> {
        self.submit_body_traced(body, None)
    }

    /// [`submit_body`](JobApi::submit_body) under a distributed trace:
    /// every accepted job gets its own child span of `trace` (so a
    /// multi-job array fans out into per-job spans of one request
    /// context), attached to the runtime's tracer for span joining and
    /// echoed back as the job's `X-CF-Trace`.
    ///
    /// # Errors
    ///
    /// See [`SubmitError`]; each variant maps to one HTTP status.
    pub fn submit_body_traced(
        self: &Arc<Self>,
        body: &str,
        trace: Option<TraceContext>,
    ) -> Result<SubmitOk, SubmitError> {
        let value: serde_json::Value = serde_json::from_str(body)
            .map_err(|e| SubmitError::Bad(format!("invalid JSON: {e}")))?;
        if let Some(items) = value.as_array() {
            if items.is_empty() {
                return Err(SubmitError::Bad("empty job array".to_string()));
            }
            let mut parsed = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let job = parse_spec_value(item)
                    .map_err(|e| SubmitError::Bad(format!("jobs[{i}]: {e}")))?;
                parsed.push(job);
            }
            self.submit_parsed_batch(parsed, trace).map(SubmitOk::Many)
        } else {
            let job = parse_spec_value(&value).map_err(SubmitError::Bad)?;
            self.submit_parsed_batch(vec![job], trace).map(|ids| SubmitOk::One(ids[0]))
        }
    }

    /// Accepts a batch of validated jobs: front-door admission on the
    /// total cost, then per job either coalesce onto a live leader or
    /// journal an accept and run. Compatible fresh jobs (simulate,
    /// non-profiled, same machine) go through
    /// [`batch::group_compatible`](crate::batch::group_compatible) into
    /// one scheduler batch submission.
    fn submit_parsed_batch(
        self: &Arc<Self>,
        parsed: Vec<ParsedJob>,
        trace: Option<TraceContext>,
    ) -> Result<Vec<u64>, SubmitError> {
        // Shed before journaling: the whole batch is admitted or none of
        // it is (a partial accept would ack ids the pool cannot take).
        let total_cost: usize = parsed.iter().map(|j| j.cost).sum();
        if let Err(e) = self.runtime.check_admission(total_cost) {
            self.runtime.stats().api_shed.fetch_add(parsed.len() as u64, Ordering::Relaxed);
            return Err(shed_error(&self.runtime, e));
        }

        let mut ids = Vec::with_capacity(parsed.len());
        // (id, job, trace) triples that did not coalesce and must
        // actually run.
        let mut fresh: Vec<(u64, ParsedJob, Option<TraceContext>)> = Vec::new();
        {
            let mut st = sync::lock(&self.state);
            // Durability before acknowledgement: every accept is on disk
            // (fsync'd per record) before any id leaves this call. An
            // append failure mid-batch rejects the whole request — the
            // already-journaled accepts were never acknowledged and hold
            // no in-memory job; a later resume runs them as unanswered.
            let base = st.next_id;
            for (offset, job) in parsed.iter().enumerate() {
                let accept = AcceptedEntry { index: base + offset as u64, spec: job.line.clone() };
                if let Some(journal) = st.journal.as_mut() {
                    journal
                        .append_accept(&accept)
                        .map_err(|e| SubmitError::Journal(e.to_string()))?;
                }
            }
            st.next_id = base + parsed.len() as u64;
            for (offset, job) in parsed.into_iter().enumerate() {
                let id = base + offset as u64;
                let live_leader = job.coalesce_key.and_then(|key| {
                    let leader = *st.leaders.get(&key)?;
                    st.jobs.get(&leader).filter(|j| j.outcome.is_none())?;
                    Some(leader)
                });
                let job_trace = trace.map(|t| t.child());
                let mut tracked =
                    ApiJob::new(job.label.clone(), job.machine_name.clone(), job.mode);
                tracked.trace = job_trace;
                st.jobs.insert(id, tracked);
                let stats = self.runtime.stats();
                stats.api_accepted.fetch_add(1, Ordering::Relaxed);
                match live_leader {
                    Some(leader) => {
                        if let Some(l) = st.jobs.get_mut(&leader) {
                            l.followers.push(id);
                        }
                        stats.api_coalesced.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        if let Some(key) = job.coalesce_key {
                            st.leaders.insert(key, id);
                        }
                        fresh.push((id, job, job_trace));
                    }
                }
                ids.push(id);
            }
        }

        // Group compatible fresh jobs into one scheduler batch; the rest
        // submit individually (exec jobs, profiled jobs, lone machines).
        let keys: Vec<(u64, bool)> = fresh
            .iter()
            .map(|(_, j, _)| (j.machine.fingerprint(), j.kind == JobKind::Simulate && !j.profile))
            .collect();
        for group in crate::batch::group_compatible(&keys) {
            if group.len() > 1 {
                let specs: Vec<(MachineConfig, Arc<Program>)> = group
                    .iter()
                    .map(|&i| (fresh[i].1.machine.clone(), Arc::clone(&fresh[i].1.program)))
                    .collect();
                let handles = self.runtime.simulate_batch(specs);
                for (&i, handle) in group.iter().zip(handles) {
                    let id = fresh[i].0;
                    // The batch path has no per-job JobOptions seam, so
                    // the trace attaches directly by scheduler token.
                    if let Some(ctx) = fresh[i].2 {
                        self.runtime.tracer().attach(handle.id(), ctx);
                    }
                    self.note_scheduled(id, handle.id());
                    self.spawn_completion(id, move || {
                        handle.join().map(|sim| (sim_output(&sim.report), Some(sim.cache_hit)))
                    });
                }
            } else {
                for &i in &group {
                    let id = fresh[i].0;
                    let job = clone_job(&fresh[i].1);
                    self.run_job(id, job, fresh[i].2);
                }
            }
        }
        Ok(ids)
    }

    /// Records that API job `id` was admitted to the scheduler as
    /// `token`: the span-ring key its stage durations are mined under,
    /// and the end of the accept → admission window.
    fn note_scheduled(&self, id: u64, token: u64) {
        let mut st = sync::lock(&self.state);
        if let Some(job) = st.jobs.get_mut(&id) {
            job.sched_token = Some(token);
            job.admission_us = duration_us(job.accepted_at.elapsed());
        }
    }

    /// Submits one job to the runtime and spawns its completion thread.
    /// Admission was already checked at the front door; a capacity race
    /// between that check and this submit is absorbed with a few
    /// retries, after which the shed becomes the job's terminal outcome
    /// (the accept is durable, so the id must settle either way).
    fn run_job(self: &Arc<Self>, id: u64, job: ParsedJob, trace: Option<TraceContext>) {
        let mut attempt = 0u32;
        let opts = JobOptions { trace, ..Default::default() };
        loop {
            let admitted = match job.kind {
                JobKind::Simulate if job.profile => {
                    let (h, admitted) = self.runtime.submit_simulate_profiled_checked(
                        opts,
                        job.machine.clone(),
                        Arc::clone(&job.program),
                        PROFILE_TOP_SIGNATURES,
                    );
                    if admitted.is_ok() {
                        self.note_scheduled(id, h.id());
                        self.spawn_completion(id, move || {
                            h.join().map(|p| (sim_output(&p.report), None))
                        });
                        return;
                    }
                    admitted
                }
                JobKind::Simulate => {
                    let (h, admitted) = self.runtime.submit_simulate_checked(
                        opts,
                        job.machine.clone(),
                        Arc::clone(&job.program),
                    );
                    if admitted.is_ok() {
                        self.note_scheduled(id, h.id());
                        self.spawn_completion(id, move || {
                            h.join().map(|sim| (sim_output(&sim.report), Some(sim.cache_hit)))
                        });
                        return;
                    }
                    admitted
                }
                JobKind::Exec { seed } => {
                    let (h, admitted) = self.runtime.submit_exec_checked(
                        opts,
                        job.machine.clone(),
                        Arc::clone(&job.program),
                        seed,
                    );
                    if admitted.is_ok() {
                        self.note_scheduled(id, h.id());
                        self.spawn_completion(id, move || {
                            h.join().map(|exec| (exec_output(&exec.memory), None))
                        });
                        return;
                    }
                    admitted
                }
            };
            match admitted {
                Ok(()) => return,
                Err(JobError::Shed { .. }) if attempt < SUBMIT_RACE_RETRIES => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => {
                    self.complete(id, Err(e.to_string()), None);
                    return;
                }
            }
        }
    }

    /// Joins `join` on a background thread and settles job `id` (and its
    /// coalesced followers) with the outcome. The closure's second slot
    /// reports whether the result came from the plan cache (when the
    /// path knows), feeding the attribution's `cached` flag.
    fn spawn_completion<F>(self: &Arc<Self>, id: u64, join: F)
    where
        F: FnOnce() -> Result<(JobOutput, Option<bool>), JobError> + Send + 'static,
    {
        let api = Arc::clone(self);
        let spawned = std::thread::Builder::new().name(format!("cf-api-job-{id}")).spawn(
            move || match join() {
                Ok((output, cached)) => api.complete(id, Ok(output), cached),
                Err(e) => api.complete(id, Err(e.to_string()), None),
            },
        );
        if spawned.is_err() {
            self.complete(id, Err("completion thread spawn failed".to_string()), None);
        }
    }

    /// Settles job `id` and every coalesced follower: compute the
    /// latency attribution from the job's own spans, journal the
    /// completion records, store the outcome, wake long-pollers.
    fn complete(&self, id: u64, outcome: Result<JobOutput, String>, cached: Option<bool>) {
        let tracer = Arc::clone(self.runtime.tracer());
        let mut st = sync::lock(&self.state);
        let leader_token = st.jobs.get(&id).and_then(|job| job.sched_token);
        let Some(entry) = ({
            let job = st.jobs.get_mut(&id);
            job.map(|job| {
                job.outcome = Some(outcome.clone());
                if job.trace.is_some() {
                    job.attribution = Some(render_attribution(
                        &tracer,
                        job.accepted_at,
                        job.admission_us,
                        job.sched_token,
                        cached,
                    ));
                }
                JobEntry {
                    index: id,
                    label: job.label.clone(),
                    machine: job.machine.clone(),
                    mode: job.mode,
                    outcome: outcome.clone(),
                }
            })
        }) else {
            return;
        };
        let followers = match st.jobs.get_mut(&id) {
            Some(job) => std::mem::take(&mut job.followers),
            None => Vec::new(),
        };
        st.leaders.retain(|_, leader| *leader != id);
        st.journal_entry(&entry);
        for fid in followers {
            let follower_entry = st.jobs.get_mut(&fid).map(|f| {
                f.outcome = Some(outcome.clone());
                if f.trace.is_some() {
                    // Coalesced followers rode the leader's computation:
                    // their stage durations are the leader's spans, their
                    // wait is their own accept window.
                    f.attribution = Some(render_attribution(
                        &tracer,
                        f.accepted_at,
                        f.admission_us,
                        leader_token,
                        cached,
                    ));
                }
                JobEntry {
                    index: fid,
                    label: f.label.clone(),
                    machine: f.machine.clone(),
                    mode: f.mode,
                    outcome: outcome.clone(),
                }
            });
            if let Some(fe) = follower_entry {
                st.journal_entry(&fe);
            }
        }
        drop(st);
        self.done.notify_all();
    }

    /// The distributed trace context job `id` runs under, if any.
    pub fn trace_of(&self, id: u64) -> Option<TraceContext> {
        let st = sync::lock(&self.state);
        st.jobs.get(&id).and_then(|job| job.trace)
    }

    /// The encoded latency attribution of a settled job (the
    /// `X-CF-Attribution` header value); `None` while running or when
    /// the job was not traced.
    pub fn attribution_of(&self, id: u64) -> Option<String> {
        let st = sync::lock(&self.state);
        st.jobs.get(&id).and_then(|job| job.attribution.clone())
    }

    /// Long-polls job `id` up to `timeout`: the finished record when it
    /// settles in time, the status JSON otherwise, `None` for an unknown
    /// id.
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobWait> {
        let deadline = Instant::now() + timeout;
        let mut st = sync::lock(&self.state);
        loop {
            match st.jobs.get(&id) {
                None => return None,
                Some(job) => match &job.outcome {
                    Some(_) => return Some(JobWait::Done(render_done(id, job))),
                    None => {
                        let remaining = deadline.saturating_duration_since(Instant::now());
                        if remaining.is_zero() {
                            return Some(JobWait::Running(render_status(id, job)));
                        }
                        st = sync::wait_timeout(&self.done, st, remaining);
                    }
                },
            }
        }
    }

    /// The non-blocking status JSON for job `id` (`None` for unknown).
    pub fn status_json(&self, id: u64) -> Option<String> {
        let st = sync::lock(&self.state);
        st.jobs.get(&id).map(|job| render_status(id, job))
    }

    /// Accepted API jobs that have not settled yet (the drain path
    /// waits for this to reach zero before exiting).
    pub fn pending(&self) -> usize {
        let st = sync::lock(&self.state);
        st.jobs.values().filter(|job| job.outcome.is_none()).count()
    }

    /// Forces the API journal to durable storage (a no-op without one).
    /// Appends fsync record-by-record already; drain calls this as a
    /// final barrier before the process exits.
    pub fn sync_journal(&self) {
        let mut st = sync::lock(&self.state);
        if let Some(journal) = st.journal.as_mut() {
            let _ = journal.sync();
        }
    }
}

/// Renders a settled job byte-identically to the manifest serving path:
/// the same [`JobRecord`] through the same
/// [`render_record_json`]; journaled errors replay as
/// [`JobError::Journaled`], whose rendering is the original message
/// verbatim.
fn render_done(id: u64, job: &ApiJob) -> String {
    let outcome = match &job.outcome {
        Some(Ok(output)) => Ok(output.clone()),
        Some(Err(message)) => Err(JobError::Journaled(message.clone())),
        None => Err(JobError::Shutdown),
    };
    render_record_json(&JobRecord {
        index: id as usize,
        label: job.label.clone(),
        machine: job.machine.clone(),
        mode: job.mode,
        outcome,
    })
}

fn duration_us(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// Computes a settled job's latency [`Attribution`] from its own spans:
/// `total_us` is the measured accept → settle wall time; `queue_us`,
/// `run_us` and `retry_us` are mined from the span ring by scheduler
/// token and clipped into that window latest-first (a coalesced
/// follower owns only the tail of its leader's spans); `other_us` is
/// the remainder, so the execution components sum to `total_us`
/// exactly. With tracing disabled the mined stages read 0 and
/// `other_us` absorbs the whole window.
fn render_attribution(
    tracer: &Tracer,
    accepted_at: Instant,
    admission_us: u64,
    sched_token: Option<u64>,
    cached: Option<bool>,
) -> String {
    let total_us = duration_us(accepted_at.elapsed());
    let (mut queue_us, mut run_us, mut retry_us) = (0u64, 0u64, 0u64);
    if let Some(token) = sched_token {
        for e in tracer.recent(usize::MAX) {
            if e.token != token {
                continue;
            }
            let us = e.duration.map_or(0, duration_us);
            match e.kind {
                SpanKind::JobStart => queue_us = us,
                SpanKind::JobSettle => run_us = us,
                SpanKind::JobRetry => retry_us += us,
                _ => {}
            }
        }
    }
    let admission_us = admission_us.min(total_us);
    let mut other_us = total_us - admission_us;
    for stage in [&mut run_us, &mut retry_us, &mut queue_us] {
        *stage = (*stage).min(other_us);
        other_us -= *stage;
    }
    let mut a = Attribution::new();
    a.push(TOTAL_KEY, total_us);
    a.push("admission_us", admission_us);
    a.push("queue_us", queue_us);
    a.push("run_us", run_us);
    a.push("retry_us", retry_us);
    a.push("other_us", other_us);
    if let Some(cached) = cached {
        a.push("cached", u64::from(cached));
    }
    a.encode()
}

fn render_status(id: u64, job: &ApiJob) -> String {
    let state = match &job.outcome {
        Some(Ok(_)) => "\"state\":\"done\",\"ok\":true",
        Some(Err(_)) => "\"state\":\"done\",\"ok\":false",
        None => "\"state\":\"running\"",
    };
    format!(
        "{{\"id\":{id},{state},\"label\":{},\"machine\":{},\"mode\":\"{}\"}}",
        json_str(&job.label),
        json_str(&job.machine),
        job.mode,
    )
}

/// Maps an admission failure to a 503 with a `Retry-After` derived from
/// headroom: how many multiples of the limit are outstanding, clamped
/// to `1..=30` seconds and then jittered (see [`jittered_retry_after`])
/// so a crowd of shed clients — or a router fanning retries across a
/// fleet — does not come back in lockstep.
fn shed_error(runtime: &Runtime, e: JobError) -> SubmitError {
    let load = runtime.load_policy();
    let nominal = match &e {
        JobError::Shed { limit, in_flight, queued_bytes } => {
            let ratio = if *limit == "queued-bytes" {
                *queued_bytes / load.max_queued_bytes.max(1)
            } else {
                *in_flight / load.max_in_flight.max(1)
            };
            (ratio as u64).clamp(1, 30)
        }
        _ => 1,
    };
    SubmitError::Shed {
        retry_after_s: jittered_retry_after(nominal, shed_salt()),
        message: e.to_string(),
    }
}

/// Jitters a nominal `Retry-After` into `[⌈nominal/2⌉, nominal]`: never
/// later than the headroom-derived suggestion (so the contract that
/// values stay within `1..=30` holds), never more than halved (so an
/// overloaded pool still gets breathing room), and spread across the
/// window by an FNV hash of `salt`.
fn jittered_retry_after(nominal: u64, salt: u64) -> u64 {
    let nominal = nominal.max(1);
    let lo = nominal.div_ceil(2);
    lo + fnv1a(&salt.to_le_bytes()) % (nominal - lo + 1)
}

/// A per-process jitter salt: a monotone counter XORed with the clock's
/// subsecond nanoseconds, so concurrent shed responses — and separate
/// processes shed at the same instant — land on different values.
fn shed_salt() -> u64 {
    static SHED_SALT: AtomicU64 = AtomicU64::new(0);
    let n = SHED_SALT.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()))
        .unwrap_or(0);
    n ^ nanos
}

/// The fleet-routing fingerprint of a `POST /jobs` body: the plan-cache
/// identity `(machine fingerprint, program hash)` folded to one `u64`
/// (exactly [`CacheKey::digest`](crate::cache::CacheKey::digest)), so a
/// router shards jobs onto the backend whose plan cache is already warm
/// for that machine × program pair. Array submissions route by their
/// first element (all-or-nothing batches stay on one backend);
/// non-coalescible jobs (exec mode, profiled) fold the machine
/// fingerprint with the canonical line's content hash; anything that
/// does not parse falls back to a content hash of the raw body, so
/// routing is total — invalid specs still map onto a backend, which
/// answers with the authoritative 400.
pub fn routing_fingerprint(body: &str) -> u64 {
    let fallback = || fnv1a(body.as_bytes());
    let Ok(value) = serde_json::from_str(body) else {
        return fallback();
    };
    let first = match value.as_array() {
        Some([first, ..]) => first.clone(),
        Some([]) => return fallback(),
        None => value,
    };
    let Ok(line) = canonical_line(&first) else {
        return fallback();
    };
    let Ok(job) = parse_spec_line(&line) else {
        return fallback();
    };
    match job.coalesce_key {
        Some((machine, program)) => machine ^ program.rotate_left(32),
        None => job.machine.fingerprint() ^ fnv1a(line.as_bytes()).rotate_left(32),
    }
}

/// Clones a parsed job (the program is `Arc`-shared, so this is cheap);
/// batch grouping refers to jobs by index, so they cannot be moved out.
fn clone_job(job: &ParsedJob) -> ParsedJob {
    ParsedJob {
        line: job.line.clone(),
        label: job.label.clone(),
        machine_name: job.machine_name.clone(),
        mode: job.mode,
        machine: job.machine.clone(),
        program: Arc::clone(&job.program),
        kind: job.kind,
        profile: job.profile,
        cost: job.cost,
        coalesce_key: job.coalesce_key,
    }
}

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

/// The canonical key order of a rendered spec line: deterministic
/// regardless of JSON key order, so identical specs produce identical
/// journal records and coalesce keys.
const SPEC_KEYS: [&str; 10] = [
    "workload", "program", "machine", "mode", "seed", "batch", "order", "size", "label", "profile",
];

/// Renders a JSON spec object as its canonical manifest line.
fn canonical_line(value: &serde_json::Value) -> Result<String, String> {
    let Some(object) = value.as_object() else {
        return Err("job spec must be a JSON object".to_string());
    };
    let mut fields: HashMap<&str, String> = HashMap::new();
    for (key, val) in object.iter() {
        let key: &str = key;
        if key == "trace_json" {
            return Err("trace_json is not supported over the job API".to_string());
        }
        if key == "repeat" {
            match val.as_u64() {
                Some(1) => continue,
                _ => {
                    return Err(
                        "repeat must be 1 over the job API (submit an array instead)".to_string()
                    )
                }
            }
        }
        if !SPEC_KEYS.contains(&key) {
            return Err(format!("unknown spec key `{key}`"));
        }
        let rendered = if let Some(s) = val.as_str() {
            s.to_string()
        } else if let Some(n) = val.as_u64() {
            n.to_string()
        } else if let Some(b) = val.as_bool() {
            b.to_string()
        } else {
            return Err(format!("`{key}` must be a string, unsigned integer or boolean"));
        };
        if rendered.is_empty() || rendered.chars().any(|c| c.is_whitespace() || c == '#') {
            return Err(format!("bad value for `{key}`"));
        }
        fields.insert(key, rendered);
    }
    let line = SPEC_KEYS
        .iter()
        .filter_map(|k| fields.get(k).map(|v| format!("{k}={v}")))
        .collect::<Vec<_>>()
        .join(" ");
    if line.is_empty() {
        return Err("empty job spec".to_string());
    }
    Ok(line)
}

/// Parses one JSON spec object into a validated, fully-resolved job.
fn parse_spec_value(value: &serde_json::Value) -> Result<ParsedJob, String> {
    parse_spec_line(&canonical_line(value)?)
}

/// Parses a canonical manifest line into a validated, fully-resolved
/// job (also the resume path for journaled accepts).
fn parse_spec_line(line: &str) -> Result<ParsedJob, String> {
    let specs = manifest::parse_manifest(line).map_err(|e| e.to_string())?;
    let [spec] = specs.as_slice() else {
        return Err("spec must describe exactly one job".to_string());
    };
    let program = Arc::new(manifest::resolve_program(&spec.source).map_err(|e| e.to_string())?);
    let machine = manifest::machine_by_name(&spec.machine)
        .ok_or_else(|| format!("unknown machine `{}`", spec.machine))?;
    let mode = match spec.kind {
        JobKind::Simulate => "simulate",
        JobKind::Exec { .. } => "exec",
    };
    let coalesce_key = (spec.kind == JobKind::Simulate && !spec.profile).then(|| {
        let key = CacheKey::new(&machine, &program);
        (key.machine, key.program)
    });
    Ok(ParsedJob {
        line: line.to_string(),
        label: spec.label.clone(),
        machine_name: spec.machine.clone(),
        mode,
        cost: program.extern_elems() as usize * std::mem::size_of::<f32>(),
        machine,
        program,
        kind: spec.kind,
        profile: spec.profile,
        coalesce_key,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{LoadPolicy, RuntimeConfig};
    use std::sync::atomic::Ordering;
    use std::sync::mpsc;

    // -- HTTP parser --------------------------------------------------------

    #[test]
    fn parses_a_simple_get() {
        let req =
            parse_request(b"GET /healthz?x=1 HTTP/1.1\r\nHost: a\r\n\r\n", 1024).unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/healthz");
        assert_eq!(req.query(), Some("x=1"));
        assert_eq!(req.header("host"), Some("a"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn torn_reads_ask_for_more() {
        let full = b"POST /jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        for cut in 0..full.len() {
            assert_eq!(parse_request(&full[..cut], 1024).unwrap(), None, "cut={cut}");
        }
        let req = parse_request(full, 1024).unwrap().unwrap();
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn folded_headers_join_values() {
        let req =
            parse_request(b"GET / HTTP/1.1\r\nX-Long: first\r\n  second\r\n\tthird\r\n\r\n", 1024)
                .unwrap()
                .unwrap();
        assert_eq!(req.header("x-long"), Some("first second third"));
    }

    #[test]
    fn malformed_heads_are_typed_errors() {
        assert_eq!(parse_request(b"garbage\r\n\r\n", 1024), Err(HttpParseError::BadRequestLine));
        assert_eq!(
            parse_request(b"get / HTTP/1.1\r\n\r\n", 1024),
            Err(HttpParseError::BadRequestLine)
        );
        assert_eq!(
            parse_request(b"GET nopath HTTP/1.1\r\n\r\n", 1024),
            Err(HttpParseError::BadRequestLine)
        );
        assert_eq!(
            parse_request(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n", 1024),
            Err(HttpParseError::BadHeader)
        );
        assert_eq!(
            parse_request(b"GET / HTTP/1.1\r\nContent-Length: pony\r\n\r\n", 1024),
            Err(HttpParseError::BadContentLength)
        );
    }

    #[test]
    fn oversized_bodies_fail_before_arriving() {
        // The body has not arrived at all — the header alone rejects.
        let head = b"POST /jobs HTTP/1.1\r\nContent-Length: 4096\r\n\r\n";
        assert_eq!(
            parse_request(head, 1024),
            Err(HttpParseError::BodyTooLarge { length: 4096, max: 1024 })
        );
    }

    #[test]
    fn zero_length_bodies_are_fine() {
        let req = parse_request(b"POST /jobs HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 1024)
            .unwrap()
            .unwrap();
        assert!(req.body.is_empty());
    }

    // -- canonical lines ----------------------------------------------------

    #[test]
    fn canonical_line_is_key_order_independent() {
        let a =
            serde_json::from_str(r#"{"machine":"tiny","workload":"matmul","order":64}"#).unwrap();
        let b =
            serde_json::from_str(r#"{"order":64,"workload":"matmul","machine":"tiny"}"#).unwrap();
        assert_eq!(canonical_line(&a).unwrap(), canonical_line(&b).unwrap());
        assert_eq!(canonical_line(&a).unwrap(), "workload=matmul machine=tiny order=64");
    }

    #[test]
    fn canonical_line_rejects_bad_specs() {
        for (spec, needle) in [
            (r#"{"workload":"matmul","repeat":3}"#, "repeat"),
            (r#"{"workload":"matmul","trace_json":"x.json"}"#, "trace_json"),
            (r#"{"workload":"mat mul"}"#, "bad value"),
            (r#"{"workload":"matmul","color":"red"}"#, "unknown spec key"),
            (r#"[1,2]"#, "object"),
            (r#"{}"#, "empty"),
        ] {
            let v = serde_json::from_str(spec).unwrap();
            let err = canonical_line(&v).unwrap_err();
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    // -- shed jitter and routing --------------------------------------------

    #[test]
    fn jittered_retry_after_stays_in_the_upper_half_window() {
        for nominal in 1..=30u64 {
            let lo = nominal.div_ceil(2);
            for salt in 0..64u64 {
                let v = jittered_retry_after(nominal, salt);
                assert!((lo..=nominal).contains(&v), "nominal {nominal} salt {salt} -> {v}");
            }
        }
        // Degenerate nominals still answer at least one second.
        assert_eq!(jittered_retry_after(0, 7), 1);
    }

    #[test]
    fn jittered_retry_after_actually_spreads() {
        let values: std::collections::HashSet<u64> =
            (0..256u64).map(|salt| jittered_retry_after(30, salt)).collect();
        // 30 seconds gives a [15, 30] window; the hash should hit most
        // of it rather than collapsing to one value.
        assert!(values.len() >= 8, "only {} distinct values", values.len());
    }

    #[test]
    fn routing_fingerprint_matches_plan_cache_identity() {
        let a = routing_fingerprint(r#"{"workload":"matmul","order":32,"machine":"tiny"}"#);
        let b = routing_fingerprint(r#"{"order":32,"machine":"tiny","workload":"matmul"}"#);
        assert_eq!(a, b, "key order must not change the route");
        let c = routing_fingerprint(r#"{"workload":"matmul","order":64,"machine":"tiny"}"#);
        assert_ne!(a, c, "different programs must be able to shard apart");
        // Labels ride along without moving the job off its warm cache.
        let d =
            routing_fingerprint(r#"{"workload":"matmul","order":32,"machine":"tiny","label":"x"}"#);
        assert_eq!(a, d);
    }

    #[test]
    fn routing_fingerprint_is_total() {
        // Arrays route by first element, matching the object route.
        let single = routing_fingerprint(r#"{"workload":"matmul","order":32,"machine":"tiny"}"#);
        let batch = routing_fingerprint(
            r#"[{"workload":"matmul","order":32,"machine":"tiny"},{"workload":"mlp3","batch":1,"machine":"tiny"}]"#,
        );
        assert_eq!(single, batch);
        // Garbage still routes (content hash), deterministically.
        assert_eq!(routing_fingerprint("not json"), routing_fingerprint("not json"));
        assert_eq!(routing_fingerprint("[]"), routing_fingerprint("[]"));
        // Non-coalescible (exec) jobs still get a machine-dependent route.
        let exec = routing_fingerprint(
            r#"{"workload":"kmeans","size":"small","mode":"exec","seed":42,"machine":"tiny"}"#,
        );
        let exec2 = routing_fingerprint(
            r#"{"seed":42,"size":"small","machine":"tiny","mode":"exec","workload":"kmeans"}"#,
        );
        assert_eq!(exec, exec2);
    }

    // -- JobApi -------------------------------------------------------------

    fn test_runtime(load: LoadPolicy) -> Arc<Runtime> {
        Arc::new(Runtime::new(RuntimeConfig { workers: 1, load, ..Default::default() }))
    }

    #[test]
    fn submit_wait_roundtrip_renders_a_record() {
        let api = JobApi::new(test_runtime(LoadPolicy::default()), DEFAULT_MAX_BODY_BYTES);
        let ok = api
            .submit_body(r#"{"workload":"matmul","order":32,"machine":"tiny","label":"t"}"#)
            .unwrap();
        let SubmitOk::One(id) = ok else { panic!("{ok:?}") };
        let JobWait::Done(record) = api.wait(id, Duration::from_secs(30)).unwrap() else {
            panic!("timed out")
        };
        assert!(record.starts_with(&format!("{{\"job\":{id},\"label\":\"t\"")), "{record}");
        assert!(record.contains("\"ok\":true"), "{record}");
        assert!(record.contains("\"makespan_s\""), "{record}");
        assert!(api.status_json(id).unwrap().contains("\"state\":\"done\""));
        assert!(api.wait(99, Duration::ZERO).is_none());
    }

    #[test]
    fn traced_submit_attaches_contexts_and_attributes_latency() {
        let runtime = Arc::new(Runtime::new(RuntimeConfig {
            workers: 1,
            tracer: Some(Arc::new(Tracer::new(64))),
            ..Default::default()
        }));
        let api = JobApi::new(Arc::clone(&runtime), DEFAULT_MAX_BODY_BYTES);
        let root = TraceContext::mint();
        let ok = api
            .submit_body_traced(r#"{"workload":"matmul","order":32,"machine":"tiny"}"#, Some(root))
            .unwrap();
        let SubmitOk::One(id) = ok else { panic!("{ok:?}") };

        // The job got its own child span of the request context.
        let ctx = api.trace_of(id).unwrap();
        assert_eq!(ctx.trace_id, root.trace_id);
        assert_eq!(ctx.parent, Some(root.span_id));

        let JobWait::Done(_) = api.wait(id, Duration::from_secs(30)).unwrap() else {
            panic!("timed out")
        };
        let attribution = api.attribution_of(id).unwrap();
        let a = Attribution::parse(&attribution).unwrap();
        assert_eq!(a.execution_sum_us(), a.total_us(), "{attribution}");
        assert!(a.get("queue_us").is_some(), "{attribution}");
        assert_eq!(a.get("cached"), Some(0), "cold run: {attribution}");

        // The scheduler attached the per-job context, so a trace-filtered
        // /trace render joins the job's events. The settle event lands
        // moments after the join wakes, so poll briefly.
        let mut json = String::new();
        for _ in 0..500 {
            json = runtime.tracer().render_json_filtered(100, None, Some(root.trace_id));
            if json.contains("\"kind\":\"job-settle\"") {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(json.contains("\"kind\":\"job-settle\""), "{json}");

        // Untraced submissions carry no context and no attribution.
        let SubmitOk::One(plain) =
            api.submit_body(r#"{"workload":"matmul","order":48,"machine":"tiny"}"#).unwrap()
        else {
            panic!()
        };
        api.wait(plain, Duration::from_secs(30)).unwrap();
        assert!(api.trace_of(plain).is_none());
        assert!(api.attribution_of(plain).is_none());
    }

    #[test]
    fn concurrent_identical_submits_coalesce_to_one_computation() {
        let runtime = test_runtime(LoadPolicy::default());
        // Block the single worker so the leader cannot finish before the
        // follower arrives.
        let (hold_tx, hold_rx) = mpsc::channel::<()>();
        let blocker = runtime.submit_task(move || {
            let _ = hold_rx.recv();
        });
        let api = JobApi::new(Arc::clone(&runtime), DEFAULT_MAX_BODY_BYTES);
        let spec = r#"{"workload":"matmul","order":32,"machine":"tiny"}"#;
        let SubmitOk::One(a) = api.submit_body(spec).unwrap() else { panic!() };
        let SubmitOk::One(b) = api.submit_body(spec).unwrap() else { panic!() };
        assert_ne!(a, b);
        let stats = runtime.stats();
        assert_eq!(stats.api_accepted.load(Ordering::Relaxed), 2);
        assert_eq!(stats.api_coalesced.load(Ordering::Relaxed), 1);
        hold_tx.send(()).unwrap();
        blocker.join().unwrap();
        let JobWait::Done(ra) = api.wait(a, Duration::from_secs(30)).unwrap() else { panic!() };
        let JobWait::Done(rb) = api.wait(b, Duration::from_secs(30)).unwrap() else { panic!() };
        // Same computation, own records: only the id differs.
        assert!(ra.contains("\"ok\":true"), "{ra}");
        assert_eq!(
            ra.replace(&format!("\"job\":{a}"), "\"job\":X"),
            rb.replace(&format!("\"job\":{b}"), "\"job\":X"),
        );
        // Exactly one cold simulation ran for the pair.
        assert_eq!(stats.api_accepted.load(Ordering::Relaxed), 2);
        assert_eq!(stats.api_coalesced.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn overload_sheds_with_retry_after_before_journaling() {
        let runtime = test_runtime(LoadPolicy::max_in_flight(1));
        let (hold_tx, hold_rx) = mpsc::channel::<()>();
        let blocker = runtime.submit_task(move || {
            let _ = hold_rx.recv();
        });
        let api = JobApi::new(Arc::clone(&runtime), DEFAULT_MAX_BODY_BYTES);
        let err =
            api.submit_body(r#"{"workload":"matmul","order":32,"machine":"tiny"}"#).unwrap_err();
        let SubmitError::Shed { retry_after_s, message } = err else { panic!("{err:?}") };
        assert!(retry_after_s >= 1);
        assert!(message.contains("shed"), "{message}");
        assert_eq!(runtime.stats().api_shed.load(Ordering::Relaxed), 1);
        assert_eq!(runtime.stats().api_accepted.load(Ordering::Relaxed), 0);
        hold_tx.send(()).unwrap();
        blocker.join().unwrap();
    }

    #[test]
    fn array_bodies_batch_compatible_jobs() {
        let api = JobApi::new(test_runtime(LoadPolicy::default()), DEFAULT_MAX_BODY_BYTES);
        let body = r#"[
            {"workload":"matmul","order":32,"machine":"tiny","label":"a"},
            {"workload":"matmul","order":48,"machine":"tiny","label":"b"},
            {"workload":"matmul","order":32,"machine":"tiny","mode":"exec","seed":7,"label":"c"}
        ]"#;
        let SubmitOk::Many(ids) = api.submit_body(body).unwrap() else { panic!() };
        assert_eq!(ids.len(), 3);
        for (&id, label) in ids.iter().zip(["a", "b", "c"]) {
            let JobWait::Done(record) = api.wait(id, Duration::from_secs(30)).unwrap() else {
                panic!("{label} timed out")
            };
            assert!(record.contains(&format!("\"label\":\"{label}\"")), "{record}");
            assert!(record.contains("\"ok\":true"), "{record}");
        }
        // One malformed element rejects the whole array, accepting none.
        let before = api.runtime().stats().api_accepted.load(Ordering::Relaxed);
        let err = api.submit_body(r#"[{"workload":"matmul"},{"workload":"nope"}]"#).unwrap_err();
        assert!(matches!(err, SubmitError::Bad(ref m) if m.contains("jobs[1]")), "{err:?}");
        assert_eq!(api.runtime().stats().api_accepted.load(Ordering::Relaxed), before);
    }

    #[test]
    fn journal_accepts_then_resumes_unanswered_jobs() {
        let dir = std::env::temp_dir().join(format!(
            "cf-api-test-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("api.wal");
        let _ = std::fs::remove_file(&path);

        // First life: accept a job but "crash" before completion by
        // writing the accept record directly.
        {
            let mut journal = Journal::create(&path, &api_header()).unwrap();
            journal
                .append_accept(&AcceptedEntry {
                    index: 0,
                    spec: "workload=matmul machine=tiny order=32 label=redo".to_string(),
                })
                .unwrap();
        }

        // Second life: resume re-runs the accept under id 0.
        let runtime = test_runtime(LoadPolicy::default());
        let (api, resume) =
            JobApi::with_journal(Arc::clone(&runtime), &path, true, 0, DEFAULT_MAX_BODY_BYTES)
                .unwrap();
        assert_eq!(resume, ApiResume { replayed: 0, resubmitted: 1 });
        let JobWait::Done(record) = api.wait(0, Duration::from_secs(30)).unwrap() else {
            panic!("resubmitted job never settled")
        };
        assert!(record.contains("\"label\":\"redo\""), "{record}");
        assert!(record.contains("\"ok\":true"), "{record}");
        drop(api);

        // Third life: the completion is journaled; resume replays it
        // without re-running, byte-identically.
        let runtime2 = test_runtime(LoadPolicy::default());
        let (api2, resume2) =
            JobApi::with_journal(runtime2, &path, true, 0, DEFAULT_MAX_BODY_BYTES).unwrap();
        assert_eq!(resume2.replayed, 1);
        assert_eq!(resume2.resubmitted, 0);
        let JobWait::Done(replayed) = api2.wait(0, Duration::ZERO).unwrap() else {
            panic!("replayed job not settled")
        };
        assert_eq!(replayed, record);
        std::fs::remove_file(&path).unwrap();
    }
}
