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
//! * **Cross-request coalescing.** A submission whose
//!   `(machine fingerprint, program content hash)` pair — the plan cache
//!   key — is already queued or running parks in the [`Runtime`]'s
//!   single-flight, like a repeated manifest line: it takes no worker,
//!   runs once the job ahead of it settles, and answers from the cache
//!   that job filled, under its own durable id and record. The
//!   [`RuntimeStats::api_coalesced`](crate::RuntimeStats::api_coalesced)
//!   counter ticks once per submission that parked.
//!
//! The byte-exact record contract: a job submitted over the API and the
//! identical manifest line produce byte-identical result records. Both
//! take one path: the spec's canonical line resolves through
//! [`manifest::resolve`] to a [`Job`], every fresh job (each element of
//! an array too) runs through [`Runtime::submit_job`], and the record
//! renders through
//! [`serve::render_record_json`](crate::serve::render_record_json) from
//! the same deterministic [`JobOutput`]. A `program=` path from the
//! network must name a regular file under the server's working
//! directory.
//!
//! HTTP framing — reading requests, bounding bodies, writing responses —
//! lives in [`crate::http`] (its request parser stays reachable here as
//! [`parse_request`]); this module only sees parsed requests' bodies and
//! hands back the JSON the status server answers with. See DESIGN.md §9.

use std::collections::HashMap;
use std::path::{Component, Path};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::fault::fnv1a;
use crate::job::{JobError, JobHandle, JobOptions};
use crate::journal::{AcceptedEntry, JobEntry, Journal, JournalError, RunHeader, JOURNAL_VERSION};
use crate::manifest::{self, Job, ProgramSource};
use crate::obs::{SpanKind, Tracer};
use crate::scheduler::{JobDone, Runtime};
use crate::serve::{json_str, render_record_json, JobOutput, JobRecord};
use crate::sync;
use crate::trace::{Attribution, TraceContext, TOTAL_KEY};

pub use crate::http::parse_request;

/// Default request-body bound (`cfserve --max-body-bytes`).
pub const DEFAULT_MAX_BODY_BYTES: usize = 1 << 20;

/// Submission retries absorbed when admission capacity is raced away
/// between the front-door check and the actual submit.
const SUBMIT_RACE_RETRIES: u32 = 3;

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

/// One tracked API job.
struct ApiJob {
    label: String,
    machine: String,
    mode: &'static str,
    /// `None` while running; errors are stored as their rendered
    /// message (exactly what the journal persists), replayed as
    /// [`JobError::Journaled`] so records stay byte-identical.
    outcome: Option<Result<JobOutput, String>>,
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
}

/// The HTTP job subsystem: validates specs, journals acceptance before
/// acknowledging, runs jobs on the shared [`Runtime`] (whose
/// single-flight coalesces identical concurrent submissions), and
/// renders finished records (see the module docs).
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
            state: Mutex::new(ApiState { next_id: 0, jobs: HashMap::new(), journal: None }),
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
            state: Mutex::new(ApiState { next_id, jobs, journal: Some(journal) }),
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
                            ApiJob::new(job.label.clone(), job.machine_name.clone(), job.mode()),
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
    pub(crate) fn max_body(&self) -> usize {
        self.max_body
    }

    /// Accounts bytes of a finished record streamed to a client.
    pub(crate) fn note_streamed(&self, bytes: u64) {
        self.runtime.stats().api_streamed_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Submits a `POST /jobs` body: a single spec object or an array of
    /// spec objects (an array is validated as a whole — one malformed
    /// element rejects the request before anything is journaled — and
    /// each member then runs as its own job). Under a distributed trace
    /// every accepted job gets its own child span of `trace` (so a
    /// multi-job array fans out into per-job spans of one request
    /// context), attached to the runtime's tracer for span joining and
    /// echoed back as the job's `X-CF-Trace`.
    ///
    /// # Errors
    ///
    /// See [`SubmitError`]; each variant maps to one HTTP status.
    pub fn submit_body(
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
            self.submit_parsed(parsed, trace).map(SubmitOk::Many)
        } else {
            let job = parse_spec_value(&value).map_err(SubmitError::Bad)?;
            self.submit_parsed(vec![job], trace).map(|ids| SubmitOk::One(ids[0]))
        }
    }

    /// Accepts validated `(canonical line, job)` pairs: front-door
    /// admission on the total cost, one journaled accept per job, then
    /// [`run_job`](JobApi::run_job) for each.
    fn submit_parsed(
        self: &Arc<Self>,
        parsed: Vec<(String, Job)>,
        trace: Option<TraceContext>,
    ) -> Result<Vec<u64>, SubmitError> {
        // Shed before journaling: the whole array is admitted or none of
        // it is (a partial accept would ack ids the pool cannot take).
        let total_cost: usize = parsed.iter().map(|(_, job)| job.cost()).sum();
        if let Err(e) = self.runtime.check_admission(total_cost) {
            self.runtime.stats().api_shed.fetch_add(parsed.len() as u64, Ordering::Relaxed);
            return Err(shed_error(&self.runtime, e));
        }

        let mut accepted: Vec<(u64, Job, Option<TraceContext>)> = Vec::with_capacity(parsed.len());
        {
            let mut st = sync::lock(&self.state);
            // Durability before acknowledgement: every accept is on disk
            // (one write, one fdatasync for the whole array) before any
            // id leaves this call. An append failure rejects the whole
            // request — whatever part of the array reached disk was never
            // acknowledged and holds no in-memory job; a later resume
            // runs it as unanswered.
            let base = st.next_id;
            if let Some(journal) = st.journal.as_mut() {
                let accepts: Vec<AcceptedEntry> = parsed
                    .iter()
                    .enumerate()
                    .map(|(offset, (line, _))| AcceptedEntry {
                        index: base + offset as u64,
                        spec: line.clone(),
                    })
                    .collect();
                journal
                    .append_accepts(&accepts)
                    .map_err(|e| SubmitError::Journal(e.to_string()))?;
            }
            st.next_id = base + parsed.len() as u64;
            for (offset, (_, job)) in parsed.into_iter().enumerate() {
                let id = base + offset as u64;
                let job_trace = trace.map(|t| t.child());
                let mut tracked =
                    ApiJob::new(job.label.clone(), job.machine_name.clone(), job.mode());
                tracked.trace = job_trace;
                st.jobs.insert(id, tracked);
                self.runtime.stats().api_accepted.fetch_add(1, Ordering::Relaxed);
                accepted.push((id, job, job_trace));
            }
        }

        let ids = accepted.iter().map(|(id, _, _)| *id).collect();
        for (id, job, job_trace) in accepted {
            if self.run_job(id, job, job_trace) {
                self.runtime.stats().api_coalesced.fetch_add(1, Ordering::Relaxed);
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

    /// Submits one job to the runtime and hands its completion to a
    /// parked thread. Admission was already checked at the front door; a
    /// capacity race between that check and this submit is absorbed with
    /// a few retries, after which the shed becomes the job's terminal
    /// outcome (the accept is durable, so the id must settle either way).
    /// Returns whether the job parked behind a same-key job.
    fn run_job(self: &Arc<Self>, id: u64, job: Job, trace: Option<TraceContext>) -> bool {
        let mut attempt = 0u32;
        let opts = JobOptions { trace, ..Default::default() };
        loop {
            match self.runtime.submit_job(opts, &job) {
                Ok((handle, parked)) => {
                    self.note_scheduled(id, handle.id());
                    self.complete_when_done(id, job, handle);
                    return parked;
                }
                Err(JobError::Shed { .. }) if attempt < SUBMIT_RACE_RETRIES => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => {
                    self.complete(id, Err(e.to_string()), None);
                    return false;
                }
            }
        }
    }

    /// Joins `handle` on a parked thread and settles job `id` with the
    /// outcome there, so the completion's journal write never holds up a
    /// scheduler pool worker. Whether the result came from the plan
    /// cache feeds the attribution's `cached` flag.
    fn complete_when_done(self: &Arc<Self>, id: u64, job: Job, handle: JobHandle<JobDone>) {
        let api = Arc::clone(self);
        let started = crate::parked::run(move || match api.runtime.join_job(&job, handle) {
            Ok(done) => api.complete(id, Ok(done.output), done.cache_hit),
            Err(e) => api.complete(id, Err(e.to_string()), None),
        });
        if started.is_err() {
            self.complete(id, Err("completion thread spawn failed".to_string()), None);
        }
    }

    /// Settles job `id`: compute the latency attribution from the job's
    /// own spans, journal the completion record, store the outcome, wake
    /// long-pollers. A failed journal append loses durability for the
    /// record but must not take down the completion path (the in-memory
    /// outcome still answers the client).
    fn complete(&self, id: u64, outcome: Result<JobOutput, String>, cached: Option<bool>) {
        let mut st = sync::lock(&self.state);
        let Some(job) = st.jobs.get_mut(&id) else { return };
        if job.trace.is_some() {
            job.attribution = Some(render_attribution(
                self.runtime.tracer(),
                job.accepted_at,
                job.admission_us,
                job.sched_token,
                cached,
            ));
        }
        let entry = JobEntry {
            index: id,
            label: job.label.clone(),
            machine: job.machine.clone(),
            mode: job.mode,
            outcome: outcome.clone(),
        };
        job.outcome = Some(outcome);
        if let Some(journal) = st.journal.as_mut() {
            let _ = journal.append(&entry);
        }
        drop(st);
        self.done.notify_all();
    }

    /// The distributed trace context job `id` runs under, if any.
    pub(crate) fn trace_of(&self, id: u64) -> Option<TraceContext> {
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
    pub(crate) fn status_json(&self, id: u64) -> Option<String> {
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
    /// Appends fsync before they return already; drain calls this as a
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
/// `run_us` and `retry_us` are mined from the span ring by the job's own
/// scheduler token and clipped into that window latest-first; `other_us`
/// is the remainder (for a job that parked behind a same-key job, the
/// parked time), so the execution components sum to `total_us` exactly.
/// With tracing disabled the mined stages read 0 and `other_us` absorbs
/// the whole window.
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
        tracer.scan(|e| {
            if e.token != token {
                return;
            }
            let us = e.duration.map_or(0, duration_us);
            match e.kind {
                SpanKind::JobStart => queue_us = us,
                SpanKind::JobSettle => run_us = us,
                SpanKind::JobRetry => retry_us += us,
                _ => {}
            }
        });
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

/// The fleet-routing fingerprint of a `POST /jobs` body: the content
/// hash of its canonical spec line with `label` and every key spelled at
/// its default (`machine=f1`, `mode=simulate`, …) left out, so the same
/// job lands on the same backend (whose plan cache is then warm for it)
/// whatever its key order, label or spelling. Routing never builds the program:
/// the backend that gets the job does that once. Array submissions route
/// by their first element (all-or-nothing arrays stay on one backend);
/// anything without a canonical line falls back to a content hash of
/// the raw body, so routing is total — invalid specs still map onto a
/// backend, which answers with the authoritative 400.
pub fn routing_fingerprint(body: &str) -> u64 {
    let fallback = || fnv1a(body.as_bytes());
    let Ok(value) = serde_json::from_str(body) else {
        return fallback();
    };
    let first = match value.as_array() {
        Some([first, ..]) => first,
        Some([]) => return fallback(),
        None => &value,
    };
    let Ok(line) = canonical_line(first) else {
        return fallback();
    };
    let key: Vec<&str> = line
        .split(' ')
        .filter(|kv| !kv.starts_with("label=") && !manifest::DEFAULT_KEYS.contains(kv))
        .collect();
    fnv1a(key.join(" ").as_bytes())
}

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

/// The canonical key order of a rendered spec line: deterministic
/// regardless of JSON key order, so identical specs produce identical
/// journal records and cache keys.
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

/// Parses one JSON spec object into its canonical line and resolved job.
fn parse_spec_value(value: &serde_json::Value) -> Result<(String, Job), String> {
    let line = canonical_line(value)?;
    let job = parse_spec_line(&line)?;
    Ok((line, job))
}

/// Parses a canonical manifest line into a validated, fully-resolved
/// job (also the resume path for journaled accepts).
fn parse_spec_line(line: &str) -> Result<Job, String> {
    let specs = manifest::parse_manifest(line).map_err(|e| e.to_string())?;
    let [spec] = specs.as_slice() else {
        return Err("spec must describe exactly one job".to_string());
    };
    if let ProgramSource::File(path) = &spec.source {
        confine_program_path(path)?;
    }
    manifest::resolve(spec).map_err(|e| e.to_string())
}

/// Admits a `program=` path from the network only when it names a
/// regular file under the server's working directory: relative, with no
/// `..` component, and resolving (symlinks followed) inside the working
/// directory. Anything else — an absolute path, a device, a FIFO, a
/// directory, a way out — is refused before the file is opened.
fn confine_program_path(path: &str) -> Result<(), String> {
    let refuse = |why: &str| Err(format!("program `{path}`: {why}"));
    let relative = std::path::Path::new(path);
    if relative.has_root()
        || relative.components().any(|c| !matches!(c, Component::Normal(_) | Component::CurDir))
    {
        return refuse("the job API reads only relative paths without `..`");
    }
    let inside = std::env::current_dir()
        .and_then(|root| Ok((root.canonicalize()?, relative.canonicalize()?)))
        .is_ok_and(|(root, file)| file.starts_with(root));
    let regular = std::fs::metadata(relative).is_ok_and(|m| m.is_file());
    if !(inside && regular) {
        return refuse("not a regular file under the server's working directory");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{LoadPolicy, RuntimeConfig};
    use std::sync::atomic::Ordering;
    use std::sync::mpsc;

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
    fn routing_fingerprint_ignores_key_order_and_label() {
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
    fn routing_fingerprint_ignores_keys_spelled_at_their_default() {
        let bare = routing_fingerprint(r#"{"workload":"matmul","order":32}"#);
        let f1 = routing_fingerprint(r#"{"workload":"matmul","order":32,"machine":"f1"}"#);
        assert_eq!(bare, f1, "machine=f1 is the default");
        let spelled = routing_fingerprint(
            r#"{"workload":"matmul","order":32,"machine":"f1","mode":"simulate","batch":1,"size":"small","seed":51966,"profile":false}"#,
        );
        assert_eq!(bare, spelled);
        let f100 = routing_fingerprint(r#"{"workload":"matmul","order":32,"machine":"f100"}"#);
        assert_ne!(bare, f100, "another machine routes by its own key");
        assert_eq!(
            f100,
            routing_fingerprint(
                r#"{"machine":"f100","order":32,"workload":"matmul","mode":"simulate"}"#
            )
        );
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

    #[test]
    fn program_paths_are_confined_to_the_working_directory() {
        // Unit tests run from the crate root.
        assert_eq!(confine_program_path("src/lib.rs"), Ok(()));
        assert_eq!(confine_program_path("./src/lib.rs"), Ok(()));
        for (path, why) in [
            ("/etc/hostname", "relative"),
            (concat!(env!("CARGO_MANIFEST_DIR"), "/src/lib.rs"), "relative"),
            ("src/../src/lib.rs", "`..`"),
            ("../runtime/src/lib.rs", "`..`"),
            ("src", "regular file"),
            ("no/such/file.cfasm", "regular file"),
        ] {
            let err = confine_program_path(path).unwrap_err();
            assert!(err.starts_with(&format!("program `{path}`")) && err.contains(why), "{err}");
        }
        // Routing never reads the program: a spec naming a file under the
        // working directory keeps its route when the file's content changes.
        struct Remove(&'static str);
        impl Drop for Remove {
            fn drop(&mut self) {
                std::fs::remove_file(self.0).ok();
            }
        }
        let file = Remove("routing-fingerprint-test.cfasm");
        let body = format!(r#"{{"program":"{}","machine":"tiny"}}"#, file.0);
        let program =
            |n: usize| format!(".tensor a [{n}x{n}]\n.tensor c [{n}x{n}]\nMatMul a, a -> c\n");
        std::fs::write(file.0, program(8)).unwrap();
        let before = routing_fingerprint(&body);
        std::fs::write(file.0, program(16)).unwrap();
        assert_eq!(routing_fingerprint(&body), before);
    }

    // -- JobApi -------------------------------------------------------------

    fn test_runtime(load: LoadPolicy) -> Arc<Runtime> {
        Arc::new(Runtime::new(RuntimeConfig { workers: 1, load, ..Default::default() }))
    }

    #[test]
    fn submit_wait_roundtrip_renders_a_record() {
        let api = JobApi::new(test_runtime(LoadPolicy::default()), DEFAULT_MAX_BODY_BYTES);
        let ok = api
            .submit_body(r#"{"workload":"matmul","order":32,"machine":"tiny","label":"t"}"#, None)
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
            .submit_body(r#"{"workload":"matmul","order":32,"machine":"tiny"}"#, Some(root))
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
            api.submit_body(r#"{"workload":"matmul","order":48,"machine":"tiny"}"#, None).unwrap()
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
        // Block the single worker so the first job is still queued when
        // the second arrives.
        let (hold_tx, hold_rx) = mpsc::channel::<()>();
        let blocker = runtime.submit_task(move || {
            let _ = hold_rx.recv();
        });
        let api = JobApi::new(Arc::clone(&runtime), DEFAULT_MAX_BODY_BYTES);
        let spec = r#"{"workload":"matmul","order":32,"machine":"tiny"}"#;
        let SubmitOk::One(a) = api.submit_body(spec, None).unwrap() else { panic!() };
        let SubmitOk::One(b) = api.submit_body(spec, None).unwrap() else { panic!() };
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
        // Exactly one cold simulation ran for the pair; the parked job
        // read what it filled.
        assert_eq!(stats.api_accepted.load(Ordering::Relaxed), 2);
        assert_eq!(stats.api_coalesced.load(Ordering::Relaxed), 1);
        let snap = stats.snapshot();
        assert_eq!((snap.cache_misses, snap.cache_hits), (1, 1), "{snap:?}");
    }

    #[test]
    fn overload_sheds_with_retry_after_before_journaling() {
        let runtime = test_runtime(LoadPolicy::max_in_flight(1));
        let (hold_tx, hold_rx) = mpsc::channel::<()>();
        let blocker = runtime.submit_task(move || {
            let _ = hold_rx.recv();
        });
        let api = JobApi::new(Arc::clone(&runtime), DEFAULT_MAX_BODY_BYTES);
        let err = api
            .submit_body(r#"{"workload":"matmul","order":32,"machine":"tiny"}"#, None)
            .unwrap_err();
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
        let SubmitOk::Many(ids) = api.submit_body(body, None).unwrap() else { panic!() };
        assert_eq!(ids.len(), 3);
        for (&id, label) in ids.iter().zip(["a", "b", "c"]) {
            let JobWait::Done(record) = api.wait(id, Duration::from_secs(30)).unwrap() else {
                panic!("{label} timed out")
            };
            assert!(record.contains(&format!("\"label\":\"{label}\"")), "{record}");
            assert!(record.contains("\"ok\":true"), "{record}");
        }
        // One malformed element rejects the whole array, accepting none.
        let before = api.runtime.stats().api_accepted.load(Ordering::Relaxed);
        let err =
            api.submit_body(r#"[{"workload":"matmul"},{"workload":"nope"}]"#, None).unwrap_err();
        assert!(matches!(err, SubmitError::Bad(ref m) if m.contains("jobs[1]")), "{err:?}");
        assert_eq!(api.runtime.stats().api_accepted.load(Ordering::Relaxed), before);
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
