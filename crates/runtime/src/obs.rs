//! Observability: span tracing, per-stage latency histograms and the
//! publication hub the HTTP status server reads from.
//!
//! The runtime's hot paths are instrumented with **span events** — job
//! submit/start/retry/settle, cache hit/miss/corrupt, admission-control
//! sheds, journal append/compact — emitted into a bounded ring buffer,
//! plus **latency histograms** (power-of-two microsecond buckets) for the
//! per-stage durations that matter when profiling a serving instance:
//! queue wait, job run, cache lookup, retry backoff, journal append.
//!
//! Everything is **off by default and lock-cheap when off**: a disabled
//! [`Tracer`] reduces every instrumentation site to one relaxed atomic
//! load, details are built lazily (closures, not eager `format!`), and
//! the ring buffer holds the last `capacity` events, dropping the oldest
//! under pressure (the drop count is itself observable).
//!
//! [`Obs`] ties a tracer to the live [`RuntimeStats`] registry and
//! [`LoadPolicy`] of a run so the [`status`](crate::status) HTTP server
//! can answer `/healthz`, `/stats` and `/trace` while the run is in
//! flight. See DESIGN.md §8.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cf_core::profile::{PipeStage, ProfileReport, TRACE_PID_RUNTIME};
use serde_json::{Map, Value};

use crate::scheduler::LoadPolicy;
use crate::serve::json_str;
use crate::stats::RuntimeStats;
use crate::sync;
use crate::trace::TraceContext;

/// What happened, at the granularity the trace ring records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A job was accepted into the submission queue.
    JobSubmit,
    /// A worker dequeued a job and is about to run it.
    JobStart,
    /// A supervised attempt failed transiently and will be retried.
    JobRetry,
    /// A job reached a terminal outcome (ok or error).
    JobSettle,
    /// A verified plan-cache hit.
    CacheHit,
    /// A plan-cache miss.
    CacheMiss,
    /// A cache entry failed its checksum and was evicted.
    CacheCorrupt,
    /// Admission control rejected a submission.
    Shed,
    /// One record was durably appended to the serve journal.
    JournalAppend,
    /// The serve journal was compacted (rewritten without dead records).
    JournalCompact,
    /// One HTTP request completed its lifecycle on the job API / status
    /// server (the closed-over duration is read → response write).
    ApiRequest,
}

impl SpanKind {
    /// The event's stable wire name (kebab-case, used in `/trace` JSON
    /// and the `--trace` timeline).
    pub(crate) fn name(self) -> &'static str {
        match self {
            SpanKind::JobSubmit => "job-submit",
            SpanKind::JobStart => "job-start",
            SpanKind::JobRetry => "job-retry",
            SpanKind::JobSettle => "job-settle",
            SpanKind::CacheHit => "cache-hit",
            SpanKind::CacheMiss => "cache-miss",
            SpanKind::CacheCorrupt => "cache-corrupt",
            SpanKind::Shed => "shed",
            SpanKind::JournalAppend => "journal-append",
            SpanKind::JournalCompact => "journal-compact",
            SpanKind::ApiRequest => "api-request",
        }
    }
}

/// Whether this kind's token is a scheduler job id (the namespace
/// [`Tracer::attach`] registers trace contexts under). Cache events
/// carry cache-key digests and compactions carry no token, so joining
/// those to a trace by token would be meaningless.
fn job_scoped(kind: SpanKind) -> bool {
    matches!(
        kind,
        SpanKind::JobSubmit
            | SpanKind::JobStart
            | SpanKind::JobRetry
            | SpanKind::JobSettle
            | SpanKind::JournalAppend
    )
}

/// The histogram stage whose duration this kind closes over, if any.
fn stage_of(kind: SpanKind) -> Option<Stage> {
    match kind {
        SpanKind::JobStart => Some(Stage::QueueWait),
        SpanKind::JobSettle => Some(Stage::Run),
        SpanKind::CacheHit | SpanKind::CacheMiss | SpanKind::CacheCorrupt => {
            Some(Stage::CacheLookup)
        }
        SpanKind::JobRetry => Some(Stage::RetryBackoff),
        SpanKind::JournalAppend => Some(Stage::JournalAppend),
        SpanKind::ApiRequest => Some(Stage::ApiRequest),
        SpanKind::JobSubmit | SpanKind::JournalCompact | SpanKind::Shed => None,
    }
}

/// `GET /trace?stage=` matching: accepts either the event's kind wire
/// name (`job-settle`) or the stage name whose histogram the event
/// feeds (`run`).
fn kind_matches_stage(kind: SpanKind, want: &str) -> bool {
    kind.name() == want || stage_of(kind).is_some_and(|s| s.name() == want)
}

/// Renders one event, annotated with `trace`/`span`/`parent` hex fields
/// when a [`TraceContext`] is attached to its token.
fn render_event_json(e: &SpanEvent, ctx: Option<TraceContext>) -> String {
    let mut s = e.render_json();
    if let Some(c) = ctx {
        s.pop();
        s.push_str(&format!(",\"trace\":\"{:032x}\",\"span\":\"{:016x}\"", c.trace_id, c.span_id));
        if let Some(p) = c.parent {
            s.push_str(&format!(",\"parent\":\"{p:016x}\""));
        }
        s.push('}');
    }
    s
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Monotonic sequence number (gaps mean ring-buffer drops).
    pub seq: u64,
    /// When the event happened, relative to tracer creation.
    pub at: Duration,
    /// What happened.
    pub kind: SpanKind,
    /// The stable token the event is about: a job's submission id, a
    /// cache key digest, or 0 when no token applies.
    pub token: u64,
    /// Short free-form context (`"limit=in-flight"`, `"ok=true"`, …).
    pub detail: String,
    /// The duration the event closes over (queue wait for `JobStart`,
    /// busy time for `JobSettle`, backoff for `JobRetry`, …).
    pub duration: Option<Duration>,
}

impl SpanEvent {
    /// Renders the event as one `/trace` JSON object.
    pub(crate) fn render_json(&self) -> String {
        let duration = match self.duration {
            Some(d) => format!("{:?}", d.as_secs_f64()),
            None => "null".to_string(),
        };
        format!(
            "{{\"seq\":{},\"at_s\":{:?},\"kind\":{},\"token\":{},\"detail\":{},\"duration_s\":{duration}}}",
            self.seq,
            self.at.as_secs_f64(),
            json_str(self.kind.name()),
            self.token,
            json_str(&self.detail),
        )
    }
}

/// The instrumented pipeline stages with latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Submission → worker pickup.
    QueueWait = 0,
    /// Worker job-body execution.
    Run = 1,
    /// Plan-cache lookup (including checksum verification).
    CacheLookup = 2,
    /// Supervised retry backoff sleeps.
    RetryBackoff = 3,
    /// Journal record write + fsync.
    JournalAppend = 4,
    /// HTTP request lifecycle on the job API / status server.
    ApiRequest = 5,
}

/// Every [`Stage`], in histogram-slot order.
pub(crate) const STAGES: [Stage; 6] = [
    Stage::QueueWait,
    Stage::Run,
    Stage::CacheLookup,
    Stage::RetryBackoff,
    Stage::JournalAppend,
    Stage::ApiRequest,
];

impl Stage {
    /// The stage's stable wire name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Run => "run",
            Stage::CacheLookup => "cache_lookup",
            Stage::RetryBackoff => "retry_backoff",
            Stage::JournalAppend => "journal_append",
            Stage::ApiRequest => "api_request",
        }
    }
}

/// Histogram bucket count: bucket `i` counts durations in
/// `[2^i, 2^(i+1))` microseconds (bucket 0 also catches sub-microsecond
/// samples), so 30 buckets span 1 µs to ~18 minutes.
pub(crate) const HISTOGRAM_BUCKETS: usize = 30;

/// A lock-free power-of-two latency histogram over microseconds.
#[derive(Debug)]
pub(crate) struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    total_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_micros: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one sample.
    pub(crate) fn observe(&self, d: Duration) {
        let micros = d.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket =
            (64 - micros.leading_zeros() as usize).saturating_sub(1).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time per-bucket counts; slot `i` counts samples in
    /// `[2^i, 2^(i+1))` µs (the Prometheus exporter accumulates these
    /// into cumulative `le` buckets).
    pub(crate) fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Sum of all recorded sample durations.
    pub(crate) fn total(&self) -> Duration {
        Duration::from_micros(self.total_micros.load(Ordering::Relaxed))
    }

    /// Renders the histogram as one JSON object; `buckets[i]` counts
    /// samples in `[2^i, 2^(i+1))` µs, trailing zero buckets trimmed.
    pub(crate) fn render_json(&self) -> String {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let last = counts.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        let buckets: Vec<String> = counts[..last].iter().map(u64::to_string).collect();
        format!(
            "{{\"count\":{},\"total_us\":{},\"buckets\":[{}]}}",
            self.count(),
            self.total_micros.load(Ordering::Relaxed),
            buckets.join(","),
        )
    }
}

/// The span recorder: a bounded event ring plus per-stage histograms.
///
/// Construct one per run ([`Tracer::new`]) and share it via `Arc` through
/// [`RuntimeConfig::tracer`](crate::RuntimeConfig); a
/// `Tracer::disabled` instance makes every instrumentation site a
/// single relaxed atomic load.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    started: Instant,
    seq: AtomicU64,
    dropped: AtomicU64,
    capacity: usize,
    ring: Mutex<VecDeque<SpanEvent>>,
    histograms: [LatencyHistogram; STAGES.len()],
    profile: Mutex<ProfileStore>,
    attached: AtomicU64,
    contexts: Mutex<ContextStore>,
}

/// Bounded token → [`TraceContext`] registry: joins span-ring events to
/// the distributed trace they belong to at *render* time, so attaching
/// a context costs nothing on the event-record hot path. Holds the most
/// recent `capacity` attachments (insertion order, oldest evicted).
#[derive(Debug, Default)]
struct ContextStore {
    map: HashMap<u64, TraceContext>,
    order: VecDeque<u64>,
}

/// Aggregated simulator attribution for one (machine, level), summed
/// over every profiled job of a run (see
/// [`ProfileReport`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ProfileAgg {
    /// Machine configuration name the jobs ran on.
    pub machine: String,
    /// Hierarchy level (0 = root).
    pub level: usize,
    /// Busy seconds per pipeline stage, indexed by
    /// [`PipeStage::index`].
    pub stage_seconds: [f64; 5],
    /// Parent-link traffic in bytes.
    pub traffic_bytes: u64,
    /// Memoization-table hits.
    pub memo_hits: u64,
    /// Memoization-table misses.
    pub memo_misses: u64,
    /// Seconds saved by pipeline concatenating.
    pub concat_saved_s: f64,
}

#[derive(Debug, Default)]
struct ProfileStore {
    jobs: BTreeMap<String, u64>,
    levels: BTreeMap<(String, usize), ProfileAgg>,
}

impl Tracer {
    /// An enabled tracer retaining the last `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            enabled: AtomicBool::new(true),
            started: Instant::now(),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            histograms: std::array::from_fn(|_| LatencyHistogram::default()),
            profile: Mutex::new(ProfileStore::default()),
            attached: AtomicU64::new(0),
            contexts: Mutex::new(ContextStore::default()),
        }
    }

    /// A disabled tracer: every record/observe is a cheap no-op.
    pub(crate) fn disabled() -> Self {
        let tracer = Tracer::new(1);
        tracer.set_enabled(false);
        tracer
    }

    /// Whether events are being recorded.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off at runtime.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Records one span event. `detail` is only invoked when the tracer
    /// is enabled, so callers can pass a closing-over `format!` closure
    /// without paying for it on the disabled path.
    pub fn record(
        &self,
        kind: SpanKind,
        token: u64,
        duration: Option<Duration>,
        detail: impl FnOnce() -> String,
    ) {
        if !self.enabled() {
            return;
        }
        let event = SpanEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            at: self.started.elapsed(),
            kind,
            token,
            detail: detail(),
            duration,
        };
        let mut ring = sync::lock(&self.ring);
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Records a latency sample for `stage`.
    pub fn observe(&self, stage: Stage, d: Duration) {
        if !self.enabled() {
            return;
        }
        self.histograms[stage as usize].observe(d);
    }

    /// The histogram for `stage`.
    pub(crate) fn histogram(&self, stage: Stage) -> &LatencyHistogram {
        &self.histograms[stage as usize]
    }

    /// Events dropped from the ring under pressure.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Attaches a distributed [`TraceContext`] to `token` (a scheduler
    /// job id), so every span-ring event recorded under that token can
    /// be joined to its trace at render time. No-op when the tracer is
    /// disabled — the instrumentation-site cost stays one relaxed load.
    /// The registry is bounded at ring capacity; oldest attachments are
    /// evicted first.
    pub(crate) fn attach(&self, token: u64, ctx: TraceContext) {
        if !self.enabled() {
            return;
        }
        self.attached.fetch_add(1, Ordering::Relaxed);
        let mut store = sync::lock(&self.contexts);
        if store.map.insert(token, ctx).is_none() {
            store.order.push_back(token);
        }
        while store.order.len() > self.capacity {
            if let Some(old) = store.order.pop_front() {
                store.map.remove(&old);
            }
        }
    }

    /// The trace context attached to `token`, if any.
    pub(crate) fn context_for(&self, token: u64) -> Option<TraceContext> {
        sync::lock(&self.contexts).map.get(&token).copied()
    }

    /// Total contexts ever attached (exported as
    /// `cf_trace_attached_total`).
    pub(crate) fn attached_total(&self) -> u64 {
        self.attached.load(Ordering::Relaxed)
    }

    /// Folds one profiled job's simulator attribution into the
    /// per-(machine, level) aggregate exported on `/metrics`.
    pub(crate) fn absorb_profile(&self, machine: &str, report: &ProfileReport) {
        let mut store = sync::lock(&self.profile);
        *store.jobs.entry(machine.to_string()).or_insert(0) += 1;
        for l in &report.levels {
            let agg = store.levels.entry((machine.to_string(), l.level)).or_insert_with(|| {
                ProfileAgg { machine: machine.to_string(), level: l.level, ..ProfileAgg::default() }
            });
            for stage in PipeStage::ALL {
                agg.stage_seconds[stage.index()] += l.seconds.get(stage);
            }
            agg.traffic_bytes += l.traffic_bytes;
            agg.memo_hits += l.memo_hits;
            agg.memo_misses += l.memo_misses;
            agg.concat_saved_s += l.concat_saved_s;
        }
    }

    /// The profile aggregate: profiled-job counts per machine, plus the
    /// per-(machine, level) rows in deterministic order.
    pub(crate) fn profile_aggregate(&self) -> (Vec<(String, u64)>, Vec<ProfileAgg>) {
        let store = sync::lock(&self.profile);
        (
            store.jobs.iter().map(|(m, &n)| (m.clone(), n)).collect(),
            store.levels.values().cloned().collect(),
        )
    }

    /// Renders the recent span ring as Chrome Trace Events on the
    /// runtime process track (pid [`TRACE_PID_RUNTIME`]): spans with a
    /// closed-over duration become complete (`ph:"X"`) events ending at
    /// their record time, the rest become instants (`ph:"i"`). Tracks
    /// split by subsystem: jobs, cache, journal, api.
    pub fn chrome_events(&self) -> Vec<Value> {
        fn base(name: &str, ph: &str, tid: u64, ts_us: f64, e: &SpanEvent) -> Map {
            let mut m = Map::new();
            m.insert("name", name);
            m.insert("cat", "runtime");
            m.insert("ph", ph);
            m.insert("ts", ts_us);
            m.insert("pid", TRACE_PID_RUNTIME);
            m.insert("tid", tid);
            let mut args = Map::new();
            args.insert("token", e.token);
            if !e.detail.is_empty() {
                args.insert("detail", e.detail.as_str());
            }
            m.insert("args", Value::Object(args));
            m
        }
        let mut out = vec![
            cf_core::profile::trace_process_name(TRACE_PID_RUNTIME, "cf-runtime"),
            cf_core::profile::trace_thread_name(TRACE_PID_RUNTIME, 0, "jobs"),
            cf_core::profile::trace_thread_name(TRACE_PID_RUNTIME, 1, "cache"),
            cf_core::profile::trace_thread_name(TRACE_PID_RUNTIME, 2, "journal"),
            cf_core::profile::trace_thread_name(TRACE_PID_RUNTIME, 3, "api"),
        ];
        for e in self.recent(usize::MAX) {
            let tid = match e.kind {
                SpanKind::JobSubmit
                | SpanKind::JobStart
                | SpanKind::JobRetry
                | SpanKind::JobSettle
                | SpanKind::Shed => 0,
                SpanKind::CacheHit | SpanKind::CacheMiss | SpanKind::CacheCorrupt => 1,
                SpanKind::JournalAppend | SpanKind::JournalCompact => 2,
                SpanKind::ApiRequest => 3,
            };
            let at_us = e.at.as_secs_f64() * 1e6;
            let v = match e.duration {
                Some(d) if d > Duration::ZERO => {
                    let dur_us = d.as_secs_f64() * 1e6;
                    let mut m = base(e.kind.name(), "X", tid, (at_us - dur_us).max(0.0), &e);
                    m.insert("dur", dur_us.min(at_us));
                    Value::Object(m)
                }
                _ => {
                    let mut m = base(e.kind.name(), "i", tid, at_us, &e);
                    m.insert("s", "t");
                    Value::Object(m)
                }
            };
            out.push(v);
        }
        out
    }

    /// Visits every event in the ring, oldest first, under its lock and
    /// without copying any.
    pub(crate) fn scan(&self, visit: impl FnMut(&SpanEvent)) {
        sync::lock(&self.ring).iter().for_each(visit);
    }

    /// The most recent `limit` events, oldest first.
    pub fn recent(&self, limit: usize) -> Vec<SpanEvent> {
        let ring = sync::lock(&self.ring);
        let skip = ring.len().saturating_sub(limit);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Renders the `/trace` payload: recent events plus every stage's
    /// histogram. Note `seq` gaps between consecutive events mean the
    /// ring dropped events under pressure (the top-level `dropped`
    /// count says how many over the run's lifetime). The `GET /trace`
    /// query filters apply: `stage` keeps only events of that wire kind
    /// (and only that stage's histogram), `trace` keeps only events
    /// whose token has a matching attached [`TraceContext`]. Filters
    /// run *before* the `limit` cut, so a filtered query still returns
    /// up to `limit` matching events. Matching events are annotated
    /// with `trace`/`span`/`parent` hex fields.
    pub(crate) fn render_json_filtered(
        &self,
        limit: usize,
        stage: Option<&str>,
        trace: Option<u128>,
    ) -> String {
        let mut rendered: Vec<String> = Vec::new();
        for e in self.recent(usize::MAX) {
            if let Some(want) = stage {
                if !kind_matches_stage(e.kind, want) {
                    continue;
                }
            }
            let ctx = if job_scoped(e.kind) { self.context_for(e.token) } else { None };
            if let Some(want) = trace {
                if ctx.map(|c| c.trace_id) != Some(want) {
                    continue;
                }
            }
            rendered.push(render_event_json(&e, ctx));
        }
        let skip = rendered.len().saturating_sub(limit);
        let events = rendered[skip..].join(",");
        let histograms: Vec<String> = STAGES
            .iter()
            .filter(|s| stage.is_none_or(|want| s.name() == want))
            .map(|&s| format!("{}:{}", json_str(s.name()), self.histogram(s).render_json()))
            .collect();
        format!(
            "{{\"dropped\":{},\"events\":[{events}],\"histograms\":{{{}}}}}",
            self.dropped(),
            histograms.join(","),
        )
    }

    /// Renders the span timeline as human-readable text (one event per
    /// line, for `cfrun --trace`).
    pub fn render_timeline(&self) -> String {
        let mut out = String::new();
        for e in self.recent(usize::MAX) {
            let duration = match e.duration {
                Some(d) => format!(" [{d:.3?}]"),
                None => String::new(),
            };
            let detail = if e.detail.is_empty() { String::new() } else { format!(" {}", e.detail) };
            out.push_str(&format!(
                "+{:>11.6}s {:<15} #{}{}{}\n",
                e.at.as_secs_f64(),
                e.kind.name(),
                e.token,
                detail,
                duration,
            ));
        }
        let dropped = self.dropped();
        if dropped > 0 {
            out.push_str(&format!("({dropped} earlier event(s) dropped from the ring)\n"));
        }
        out
    }
}

/// What a run publishes for the status server: its live stats registry
/// and the admission-control limits that define overload.
#[derive(Debug, Clone)]
struct RuntimeView {
    stats: Arc<RuntimeStats>,
    load: LoadPolicy,
}

/// The observability hub: one shared [`Tracer`] plus the live runtime
/// view a serve run publishes once its pool exists.
///
/// Built by the caller (`cfserve --status-port` constructs one, hands it
/// to both the [`status`](crate::status) server and
/// [`ServeOptions::obs`](crate::ServeOptions)), so the HTTP server can
/// answer before, during and after the run itself.
#[derive(Debug)]
pub struct Obs {
    tracer: Arc<Tracer>,
    runtime: Mutex<Option<RuntimeView>>,
    api: Mutex<Option<Arc<crate::api::JobApi>>>,
    instance: Mutex<String>,
    /// Set by the drain path (SIGTERM / `POST /drain`): the instance
    /// stops admitting work and `/healthz` flips to `"draining"` so a
    /// router treats the removal as planned rather than as failure.
    draining: AtomicBool,
}

impl Obs {
    /// A hub with an enabled tracer retaining `capacity` events.
    pub fn new(capacity: usize) -> Arc<Obs> {
        Arc::new(Obs {
            tracer: Arc::new(Tracer::new(capacity)),
            runtime: Mutex::new(None),
            api: Mutex::new(None),
            instance: Mutex::new("cf-serve".to_string()),
            draining: AtomicBool::new(false),
        })
    }

    /// Flips the hub into draining: `/healthz` answers 503 with
    /// `"status":"draining"`, `POST /jobs` refuses new work, and the
    /// `cf_draining` gauge reads 1. Irreversible for the process
    /// lifetime — drain ends in exit.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// The hub's tracer.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Sets the `instance` label value stamped on every `/metrics`
    /// series (`cfserve --instance`).
    pub fn set_instance(&self, name: &str) {
        *sync::lock(&self.instance) = name.to_string();
    }

    /// The configured `instance` label value.
    pub(crate) fn instance(&self) -> String {
        sync::lock(&self.instance).clone()
    }

    /// Publishes a runtime's live stats and load limits; called by the
    /// serve engine as soon as its pool is constructed.
    pub fn publish(&self, stats: Arc<RuntimeStats>, load: LoadPolicy) {
        *sync::lock(&self.runtime) = Some(RuntimeView { stats, load });
    }

    /// Publishes the HTTP job API so the status server can route
    /// `POST /jobs` and `GET /jobs/<id>` to it.
    pub fn publish_api(&self, api: Arc<crate::api::JobApi>) {
        *sync::lock(&self.api) = Some(api);
    }

    /// The published job API, if any.
    pub(crate) fn api(&self) -> Option<Arc<crate::api::JobApi>> {
        sync::lock(&self.api).clone()
    }

    /// The `/healthz` response: `(healthy, body)`. Healthy means a load
    /// balancer may route new work here: the run is either unlimited or
    /// has admission headroom left, and no drain has begun.
    /// `healthy == false` maps to HTTP 503; the body's `status` field
    /// distinguishes `"draining"` (planned removal — a router drops the
    /// backend without counting a failure) from `"overloaded"`
    /// (transient pressure — retry later).
    pub(crate) fn healthz(&self) -> (bool, String) {
        let draining = self.draining();
        let Some(view) = sync::lock(&self.runtime).clone() else {
            let status = if draining { "draining" } else { "starting" };
            return (!draining, format!("{{\"status\":\"{status}\"}}"));
        };
        let snap = view.stats.snapshot();
        let load = view.load;
        let inflight_full = load.max_in_flight > 0 && snap.in_flight >= load.max_in_flight as u64;
        let bytes_full =
            load.max_queued_bytes > 0 && snap.queued_bytes >= load.max_queued_bytes as u64;
        let overloaded = inflight_full || bytes_full;
        let headroom = if load.max_in_flight > 0 {
            (load.max_in_flight as u64).saturating_sub(snap.in_flight).to_string()
        } else {
            "null".to_string()
        };
        let status = if draining {
            "\"draining\""
        } else if overloaded {
            "\"overloaded\""
        } else {
            "\"ok\""
        };
        let body = format!(
            "{{\"status\":{status},\"draining\":{draining},\"in_flight\":{},\"max_in_flight\":{},\"headroom\":{headroom},\"queued_bytes\":{},\"max_queued_bytes\":{},\"uptime_s\":{:?}}}",
            snap.in_flight,
            load.max_in_flight,
            snap.queued_bytes,
            load.max_queued_bytes,
            snap.uptime.as_secs_f64(),
        );
        (!overloaded && !draining, body)
    }

    /// The `/stats` response: `(ready, body)` — the live
    /// [`StatsSnapshot`](crate::StatsSnapshot) as JSON once a runtime has
    /// published, a `"starting"` placeholder (HTTP 503) before that.
    pub(crate) fn stats_json(&self) -> (bool, String) {
        match sync::lock(&self.runtime).clone() {
            Some(view) => {
                let mut snap = view.stats.snapshot();
                snap.spans_dropped = self.tracer.dropped();
                (true, snap.render_json())
            }
            None => (false, "{\"status\":\"starting\"}".to_string()),
        }
    }

    /// The `/metrics` response body: Prometheus text exposition over the
    /// live stats snapshot, stage latency histograms and simulator
    /// profile aggregate. Always renders (families without a published
    /// runtime simply omit their samples).
    pub(crate) fn metrics(&self) -> String {
        let view = sync::lock(&self.runtime).clone();
        let (snap, load) = match view {
            Some(view) => {
                let mut snap = view.stats.snapshot();
                snap.spans_dropped = self.tracer.dropped();
                (Some(snap), Some(view.load))
            }
            None => (None, None),
        };
        crate::metrics::render(&self.instance(), snap.as_ref(), load, self.draining(), &self.tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.record(SpanKind::JobSubmit, 1, None, || unreachable!("detail built while disabled"));
        t.observe(Stage::Run, Duration::from_millis(5));
        assert!(t.recent(10).is_empty());
        assert_eq!(t.histogram(Stage::Run).count(), 0);
    }

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let t = Tracer::new(3);
        for i in 0..5u64 {
            t.record(SpanKind::JobSubmit, i, None, String::new);
        }
        let events: Vec<u64> = t.recent(10).iter().map(|e| e.token).collect();
        assert_eq!(events, vec![2, 3, 4]);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.recent(1).len(), 1);
        assert_eq!(t.recent(1)[0].token, 4);
    }

    #[test]
    fn histogram_buckets_by_power_of_two_micros() {
        let h = LatencyHistogram::default();
        h.observe(Duration::from_micros(0)); // bucket 0
        h.observe(Duration::from_micros(1)); // bucket 0
        h.observe(Duration::from_micros(3)); // bucket 1
        h.observe(Duration::from_micros(1000)); // bucket 9 (512..1024 µs → 1000 ∈ [2^9, 2^10))
        assert_eq!(h.count(), 4);
        let json = h.render_json();
        assert!(json.starts_with("{\"count\":4"), "{json}");
        assert!(json.contains("\"buckets\":[2,1,0,0,0,0,0,0,0,1]"), "{json}");
    }

    #[test]
    fn trace_json_and_timeline_render() {
        let t = Tracer::new(8);
        t.record(SpanKind::CacheHit, 42, Some(Duration::from_micros(7)), || "key=abc".to_string());
        t.observe(Stage::CacheLookup, Duration::from_micros(7));
        let json = t.render_json_filtered(10, None, None);
        assert!(json.contains("\"kind\":\"cache-hit\""), "{json}");
        assert!(json.contains("\"token\":42"), "{json}");
        assert!(json.contains("\"cache_lookup\":{\"count\":1"), "{json}");
        let timeline = t.render_timeline();
        assert!(timeline.contains("cache-hit"), "{timeline}");
        assert!(timeline.contains("key=abc"), "{timeline}");
    }

    #[test]
    fn obs_healthz_transitions() {
        let obs = Obs::new(8);
        let (ok, body) = obs.healthz();
        assert!(ok);
        assert!(body.contains("starting"), "{body}");
        assert!(sync::lock(&obs.runtime).is_none());

        let stats = Arc::new(RuntimeStats::new(1));
        obs.publish(Arc::clone(&stats), LoadPolicy::max_in_flight(2));
        let (ok, body) = obs.healthz();
        assert!(ok, "{body}");
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"headroom\":2"), "{body}");

        stats.in_flight.store(2, Ordering::Relaxed);
        let (ok, body) = obs.healthz();
        assert!(!ok, "{body}");
        assert!(body.contains("\"status\":\"overloaded\""), "{body}");
        assert!(body.contains("\"headroom\":0"), "{body}");

        let (ready, stats_body) = obs.stats_json();
        assert!(ready);
        assert!(stats_body.contains("\"in_flight\":2"), "{stats_body}");
    }

    #[test]
    fn obs_drain_beats_overload_and_starting() {
        // Draining before a runtime publishes still reads as draining.
        let obs = Obs::new(8);
        obs.begin_drain();
        let (ok, body) = obs.healthz();
        assert!(!ok, "{body}");
        assert!(body.contains("\"status\":\"draining\""), "{body}");

        // Draining with headroom left: still draining, still 503 —
        // planned removal is not the same signal as overload.
        let obs = Obs::new(8);
        let stats = Arc::new(RuntimeStats::new(1));
        obs.publish(Arc::clone(&stats), LoadPolicy::max_in_flight(2));
        assert!(!obs.draining());
        obs.begin_drain();
        assert!(obs.draining());
        let (ok, body) = obs.healthz();
        assert!(!ok, "{body}");
        assert!(body.contains("\"status\":\"draining\""), "{body}");
        assert!(body.contains("\"draining\":true"), "{body}");
        assert!(!body.contains("overloaded"), "{body}");

        // The gauge follows the flag in the exposition.
        let metrics = obs.metrics();
        assert!(metrics.contains("cf_draining 1"), "{metrics}");
    }

    #[test]
    fn attach_joins_events_to_traces_at_render_time() {
        let t = Tracer::new(8);
        let ctx = crate::trace::TraceContext::mint().child();
        t.attach(7, ctx);
        assert_eq!(t.context_for(7), Some(ctx));
        assert_eq!(t.attached_total(), 1);
        t.record(SpanKind::JobStart, 7, Some(Duration::from_micros(3)), String::new);
        t.record(SpanKind::JobStart, 8, None, String::new); // no context
        t.record(SpanKind::CacheHit, 7, None, String::new); // digest namespace

        // Unfiltered render annotates the attached event only.
        let json = t.render_json_filtered(10, None, None);
        assert!(json.contains(&format!("\"trace\":\"{:032x}\"", ctx.trace_id)), "{json}");
        assert!(json.contains(&format!("\"span\":\"{:016x}\"", ctx.span_id)), "{json}");
        let parent = ctx.parent.unwrap_or(0);
        assert!(json.contains(&format!("\"parent\":\"{parent:016x}\"")), "{json}");

        // Trace filter keeps only the joined job event.
        let json = t.render_json_filtered(10, None, Some(ctx.trace_id));
        assert_eq!(json.matches("\"kind\":").count(), 1, "{json}");
        assert!(json.contains("\"kind\":\"job-start\""), "{json}");

        // Stage filter accepts stage names and kind names alike, and
        // narrows the histogram section.
        let by_stage = t.render_json_filtered(10, Some("queue_wait"), None);
        assert_eq!(by_stage.matches("\"kind\":").count(), 2, "{by_stage}");
        assert!(!by_stage.contains("\"cache_lookup\""), "{by_stage}");
        let by_kind = t.render_json_filtered(10, Some("cache-hit"), None);
        assert!(by_kind.contains("\"kind\":\"cache-hit\""), "{by_kind}");

        // An unknown trace id matches nothing.
        let none = t.render_json_filtered(10, None, Some(0xDEAD));
        assert!(none.contains("\"events\":[]"), "{none}");
    }

    #[test]
    fn disabled_tracer_ignores_attach_and_registry_is_bounded() {
        let t = Tracer::disabled();
        t.attach(1, crate::trace::TraceContext::mint());
        assert_eq!(t.context_for(1), None);
        assert_eq!(t.attached_total(), 0);

        let t = Tracer::new(2);
        for token in 0..4u64 {
            t.attach(token, crate::trace::TraceContext::mint());
        }
        assert_eq!(t.context_for(0), None, "oldest attachments evict first");
        assert_eq!(t.context_for(1), None);
        assert!(t.context_for(2).is_some());
        assert!(t.context_for(3).is_some());
    }
}
