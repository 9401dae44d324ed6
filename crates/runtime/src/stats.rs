//! The `RuntimeStats` registry: lock-free counters describing what the
//! runtime has done so far, readable at any time from any thread.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serde_json::{Map, Serialize, Value};

/// Per-worker counters (one slot per pool thread).
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Jobs this worker ran to completion (ok or error).
    pub jobs: AtomicU64,
    /// Nanoseconds this worker spent executing job bodies.
    pub busy_nanos: AtomicU64,
}

/// Aggregate counters for one [`Runtime`](crate::Runtime) instance.
///
/// All counters are monotonically increasing atomics; [`snapshot`] folds
/// them into a plain value for reporting.
///
/// [`snapshot`]: RuntimeStats::snapshot
#[derive(Debug)]
pub struct RuntimeStats {
    /// Jobs accepted into the queue.
    pub submitted: AtomicU64,
    /// Jobs that ran and produced `Ok`.
    pub completed: AtomicU64,
    /// Jobs that ran and produced `Err` (including panicked bodies).
    pub failed: AtomicU64,
    /// Jobs cancelled before they started.
    pub cancelled: AtomicU64,
    /// Jobs whose deadline passed before a worker picked them up.
    pub expired: AtomicU64,
    /// Simulation jobs answered from the plan/report cache.
    pub cache_hits: AtomicU64,
    /// Simulation jobs that had to run the planner.
    pub cache_misses: AtomicU64,
    /// Cache hits whose checksum failed (entry dropped, job recomputed).
    pub cache_corruptions: AtomicU64,
    /// Supervised attempts that were retried after a transient failure.
    pub retries: AtomicU64,
    /// Jobs shed by the open circuit breaker.
    pub shed: AtomicU64,
    /// Submissions rejected by [`LoadPolicy`](crate::LoadPolicy)
    /// admission control.
    pub shed_jobs: AtomicU64,
    /// Jobs answered from a resume journal instead of re-running.
    pub resumed_jobs: AtomicU64,
    /// Bytes appended to the serve journal this run.
    pub journal_bytes: AtomicU64,
    /// Times the serve journal was compacted (resume + live).
    pub journal_compactions: AtomicU64,
    /// Bytes reclaimed from the serve journal by compaction.
    pub journal_bytes_reclaimed: AtomicU64,
    /// Shape-memo hits accumulated across cold (cache-miss / bypass)
    /// simulations — split decisions served from the planner's shape
    /// memo instead of recomputed.
    pub cold_memo_hits: AtomicU64,
    /// Shape-memo misses across cold simulations (decisions computed).
    pub cold_memo_misses: AtomicU64,
    /// High-water bytes of plan buffers retained by any one cold
    /// simulation's arena (a maximum, not a sum).
    pub cold_arena_bytes: AtomicU64,
    /// Cold subtrees fanned out to extra threads by parallel simulation.
    pub cold_parallel_tasks: AtomicU64,
    /// Plan steps whose timing cold simulations served from the step
    /// memo.
    pub cold_step_memo_hits: AtomicU64,
    /// Plan steps cold simulations timed child by child.
    pub cold_step_memo_misses: AtomicU64,
    /// Subtree outcomes cold simulations served from the simulator's
    /// outcome cache — including ones an earlier job on the same worker
    /// computed.
    pub cold_outcome_hits: AtomicU64,
    /// Subtree outcomes cold simulations planned and timed.
    pub cold_outcome_misses: AtomicU64,
    /// Gauge: estimated bytes of the simulation tables the workers keep
    /// across jobs.
    pub sim_table_bytes: AtomicU64,
    /// Times a worker's kept simulation tables were dropped as one
    /// generation (budget overruns and worker respawns).
    pub sim_table_resets: AtomicU64,
    /// Faults the [`FaultPlan`](crate::FaultPlan) injected.
    pub faults_injected: AtomicU64,
    /// Worker loops respawned after an escaped panic.
    pub worker_respawns: AtomicU64,
    /// Jobs accepted through the HTTP job API (`POST /jobs`).
    pub api_accepted: AtomicU64,
    /// HTTP submissions shed at the front door with 503.
    pub api_shed: AtomicU64,
    /// HTTP submissions coalesced onto an identical in-flight job.
    pub api_coalesced: AtomicU64,
    /// Result bytes streamed to HTTP clients by `GET /jobs/<id>`.
    pub api_streamed_bytes: AtomicU64,
    /// Total nanoseconds jobs waited in the queue before starting.
    pub queue_wait_nanos: AtomicU64,
    /// Gauge: jobs accepted into the queue and not yet terminal.
    pub in_flight: AtomicU64,
    /// Gauge: estimated bytes of queued, not-yet-started work.
    pub queued_bytes: AtomicU64,
    /// Per-worker slots, fixed at pool construction.
    pub workers: Vec<WorkerStats>,
    started: Instant,
}

impl RuntimeStats {
    /// A zeroed registry for a pool of `workers` threads.
    pub fn new(workers: usize) -> Self {
        RuntimeStats {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_corruptions: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            shed_jobs: AtomicU64::new(0),
            resumed_jobs: AtomicU64::new(0),
            journal_bytes: AtomicU64::new(0),
            journal_compactions: AtomicU64::new(0),
            journal_bytes_reclaimed: AtomicU64::new(0),
            cold_memo_hits: AtomicU64::new(0),
            cold_memo_misses: AtomicU64::new(0),
            cold_arena_bytes: AtomicU64::new(0),
            cold_parallel_tasks: AtomicU64::new(0),
            cold_step_memo_hits: AtomicU64::new(0),
            cold_step_memo_misses: AtomicU64::new(0),
            cold_outcome_hits: AtomicU64::new(0),
            cold_outcome_misses: AtomicU64::new(0),
            sim_table_bytes: AtomicU64::new(0),
            sim_table_resets: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            worker_respawns: AtomicU64::new(0),
            api_accepted: AtomicU64::new(0),
            api_shed: AtomicU64::new(0),
            api_coalesced: AtomicU64::new(0),
            api_streamed_bytes: AtomicU64::new(0),
            queue_wait_nanos: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            queued_bytes: AtomicU64::new(0),
            workers: (0..workers).map(|_| WorkerStats::default()).collect(),
            started: Instant::now(),
        }
    }

    /// Folds one cold simulation's planner instrumentation into the
    /// registry: hits/misses/fan-out accumulate, arena bytes keep the
    /// maximum (it is a per-run high-water mark, not a flow).
    pub(crate) fn record_cold(&self, cold: &cf_core::perf::ColdStats) {
        self.cold_memo_hits.fetch_add(cold.shape_memo_hits, Ordering::Relaxed);
        self.cold_memo_misses.fetch_add(cold.shape_memo_misses, Ordering::Relaxed);
        self.cold_arena_bytes.fetch_max(cold.arena_bytes, Ordering::Relaxed);
        self.cold_parallel_tasks.fetch_add(cold.parallel_tasks, Ordering::Relaxed);
        self.cold_step_memo_hits.fetch_add(cold.step_memo_hits, Ordering::Relaxed);
        self.cold_step_memo_misses.fetch_add(cold.step_memo_misses, Ordering::Relaxed);
        self.cold_outcome_hits.fetch_add(cold.outcome_hits, Ordering::Relaxed);
        self.cold_outcome_misses.fetch_add(cold.outcome_misses, Ordering::Relaxed);
    }

    /// Records one finished job body on worker `worker`.
    pub(crate) fn record_run(&self, worker: usize, busy: Duration, ok: bool) {
        let w = &self.workers[worker];
        w.jobs.fetch_add(1, Ordering::Relaxed);
        w.busy_nanos.fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
        if ok {
            self.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        let per_worker: Vec<WorkerSnapshot> = self
            .workers
            .iter()
            .map(|w| WorkerSnapshot {
                jobs: w.jobs.load(Ordering::Relaxed),
                busy: Duration::from_nanos(w.busy_nanos.load(Ordering::Relaxed)),
            })
            .collect();
        StatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_corruptions: self.cache_corruptions.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            shed_jobs: self.shed_jobs.load(Ordering::Relaxed),
            resumed_jobs: self.resumed_jobs.load(Ordering::Relaxed),
            journal_bytes: self.journal_bytes.load(Ordering::Relaxed),
            journal_compactions: self.journal_compactions.load(Ordering::Relaxed),
            journal_bytes_reclaimed: self.journal_bytes_reclaimed.load(Ordering::Relaxed),
            cold_memo_hits: self.cold_memo_hits.load(Ordering::Relaxed),
            cold_memo_misses: self.cold_memo_misses.load(Ordering::Relaxed),
            cold_arena_bytes: self.cold_arena_bytes.load(Ordering::Relaxed),
            cold_parallel_tasks: self.cold_parallel_tasks.load(Ordering::Relaxed),
            cold_step_memo_hits: self.cold_step_memo_hits.load(Ordering::Relaxed),
            cold_step_memo_misses: self.cold_step_memo_misses.load(Ordering::Relaxed),
            cold_outcome_hits: self.cold_outcome_hits.load(Ordering::Relaxed),
            cold_outcome_misses: self.cold_outcome_misses.load(Ordering::Relaxed),
            sim_table_bytes: self.sim_table_bytes.load(Ordering::Relaxed),
            sim_table_resets: self.sim_table_resets.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
            api_accepted: self.api_accepted.load(Ordering::Relaxed),
            api_shed: self.api_shed.load(Ordering::Relaxed),
            api_coalesced: self.api_coalesced.load(Ordering::Relaxed),
            api_streamed_bytes: self.api_streamed_bytes.load(Ordering::Relaxed),
            queue_wait: Duration::from_nanos(self.queue_wait_nanos.load(Ordering::Relaxed)),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            queued_bytes: self.queued_bytes.load(Ordering::Relaxed),
            spans_dropped: 0,
            uptime: self.started.elapsed(),
            per_worker,
        }
    }
}

/// Plain-value view of [`RuntimeStats`]; see [`RuntimeStats::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs finished with `Ok`.
    pub completed: u64,
    /// Jobs finished with `Err`.
    pub failed: u64,
    /// Jobs cancelled before starting.
    pub cancelled: u64,
    /// Jobs that missed their deadline in the queue.
    pub expired: u64,
    /// Plan/report cache hits.
    pub cache_hits: u64,
    /// Plan/report cache misses.
    pub cache_misses: u64,
    /// Checksum-detected corrupt cache hits (recomputed).
    pub cache_corruptions: u64,
    /// Retried supervised attempts.
    pub retries: u64,
    /// Jobs shed by the open circuit breaker.
    pub shed: u64,
    /// Submissions rejected by admission control.
    pub shed_jobs: u64,
    /// Jobs answered from a resume journal.
    pub resumed_jobs: u64,
    /// Bytes appended to the serve journal this run.
    pub journal_bytes: u64,
    /// Times the serve journal was compacted (resume + live).
    pub journal_compactions: u64,
    /// Bytes reclaimed from the serve journal by compaction.
    pub journal_bytes_reclaimed: u64,
    /// Shape-memo hits across cold simulations.
    pub cold_memo_hits: u64,
    /// Shape-memo misses across cold simulations.
    pub cold_memo_misses: u64,
    /// High-water arena bytes of any one cold simulation.
    pub cold_arena_bytes: u64,
    /// Cold subtrees fanned out to extra threads.
    pub cold_parallel_tasks: u64,
    /// Step-memo hits across cold simulations.
    pub cold_step_memo_hits: u64,
    /// Step-memo misses across cold simulations.
    pub cold_step_memo_misses: u64,
    /// Outcome-cache hits across cold simulations.
    pub cold_outcome_hits: u64,
    /// Outcome-cache misses across cold simulations.
    pub cold_outcome_misses: u64,
    /// Gauge at snapshot time: estimated bytes of the workers' kept
    /// simulation tables.
    pub sim_table_bytes: u64,
    /// Generations of kept simulation tables dropped so far.
    pub sim_table_resets: u64,
    /// Faults injected by the fault plan.
    pub faults_injected: u64,
    /// Worker loops respawned after an escaped panic.
    pub worker_respawns: u64,
    /// Jobs accepted through the HTTP job API.
    pub api_accepted: u64,
    /// HTTP submissions shed at the front door with 503.
    pub api_shed: u64,
    /// HTTP submissions coalesced onto an identical in-flight job.
    pub api_coalesced: u64,
    /// Result bytes streamed to HTTP clients.
    pub api_streamed_bytes: u64,
    /// Cumulative queue waiting time across jobs.
    pub queue_wait: Duration,
    /// Gauge at snapshot time: accepted-but-unfinished jobs.
    pub in_flight: u64,
    /// Gauge at snapshot time: estimated bytes of queued work.
    pub queued_bytes: u64,
    /// Span events dropped from the observability ring buffer under
    /// pressure. [`RuntimeStats::snapshot`] sets this to 0 — the registry
    /// does not own the tracer — and holders of both (the serve engine,
    /// the `Obs` hub) overwrite it from
    /// [`Tracer::dropped`](crate::obs::Tracer::dropped).
    pub spans_dropped: u64,
    /// Time since the runtime started.
    pub uptime: Duration,
    /// Per-worker job/busy counters.
    pub per_worker: Vec<WorkerSnapshot>,
}

/// Counters for one [`Router`](crate::router::Router) instance — the
/// fleet-level analogue of [`RuntimeStats`]. All monotonically
/// increasing atomics; the router renders them into its `/stats` JSON
/// and `cf_router_*` Prometheus series.
#[derive(Debug, Default)]
pub struct RouterStats {
    /// Jobs accepted and routed to a backend.
    pub routed: AtomicU64,
    /// Finished records streamed back through the router.
    pub records_streamed: AtomicU64,
    /// Requests failed over to another ring replica.
    pub failovers: AtomicU64,
    /// Hedged duplicate requests fired past the latency quantile.
    pub hedges: AtomicU64,
    /// Hedged duplicates that answered before the primary.
    pub hedge_wins: AtomicU64,
    /// Backends ejected by the health prober.
    pub ejections: AtomicU64,
    /// Ejected backends re-admitted after consecutive healthy probes.
    pub readmissions: AtomicU64,
    /// Health probes that failed (503 / timeout / connect error).
    pub probe_failures: AtomicU64,
    /// Backend responses rejected for a digest mismatch — the
    /// `X-CF-Digest` header or the per-record digest field. Corrupt
    /// payloads never reach a client; they count here and fail over.
    pub corrupt_responses: AtomicU64,
    /// Backends moved to `quarantined` after repeated corrupt responses.
    pub quarantines: AtomicU64,
    /// Finished records that carried an `X-CF-Attribution` breakdown
    /// (the denominator for the `attr_*` sums below).
    pub attr_records: AtomicU64,
    /// Sum of backend-reported end-to-end job time (`total_us`).
    pub attr_total_us: AtomicU64,
    /// Sum of backend admission-control time (`admission_us`).
    pub attr_admission_us: AtomicU64,
    /// Sum of backend queue-wait time (`queue_us`).
    pub attr_queue_us: AtomicU64,
    /// Sum of backend simulate/execute time (`run_us`).
    pub attr_run_us: AtomicU64,
    /// Sum of router-measured network time (submit + poll dials and
    /// transfers, `net_*_us` — overhead outside the backend's total).
    pub attr_net_us: AtomicU64,
    /// Sum of router-side retry/resubmit backoff sleeps (`backoff_us`).
    pub attr_backoff_us: AtomicU64,
}

/// One worker's share of a [`StatsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// Jobs the worker ran.
    pub jobs: u64,
    /// Time the worker spent in job bodies.
    pub busy: Duration,
}

impl StatsSnapshot {
    /// Jobs that reached a terminal state.
    pub fn finished(&self) -> u64 {
        self.completed + self.failed + self.cancelled + self.expired
    }

    /// Completed jobs per second of runtime uptime.
    pub fn throughput_jobs_per_sec(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }

    /// Cache hits as a fraction of all cache-eligible jobs (0 when none
    /// ran yet).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total > 0 {
            self.cache_hits as f64 / total as f64
        } else {
            0.0
        }
    }

    /// Aggregate busy time across workers.
    pub fn total_busy(&self) -> Duration {
        self.per_worker.iter().map(|w| w.busy).sum()
    }

    /// Renders the snapshot as one JSON object (for `--stats-json` and
    /// `/stats`) — [`Serialize::to_value`] printed compactly, so every
    /// consumer shares one schema.
    ///
    /// Durations are seconds as JSON numbers; `shed_breaker` is the
    /// circuit-breaker shed count, `shed_jobs` the admission-control one.
    pub fn render_json(&self) -> String {
        serde_json::to_string(self)
    }
}

impl Serialize for WorkerSnapshot {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("jobs", self.jobs);
        m.insert("busy_s", self.busy.as_secs_f64());
        Value::Object(m)
    }
}

impl Serialize for StatsSnapshot {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("submitted", self.submitted);
        m.insert("completed", self.completed);
        m.insert("failed", self.failed);
        m.insert("cancelled", self.cancelled);
        m.insert("expired", self.expired);
        m.insert("cache_hits", self.cache_hits);
        m.insert("cache_misses", self.cache_misses);
        m.insert("cache_corruptions", self.cache_corruptions);
        m.insert("retries", self.retries);
        m.insert("shed_breaker", self.shed);
        m.insert("shed_jobs", self.shed_jobs);
        m.insert("resumed_jobs", self.resumed_jobs);
        m.insert("journal_bytes", self.journal_bytes);
        m.insert("journal_compactions", self.journal_compactions);
        m.insert("journal_bytes_reclaimed", self.journal_bytes_reclaimed);
        m.insert("cold_memo_hits", self.cold_memo_hits);
        m.insert("cold_memo_misses", self.cold_memo_misses);
        m.insert("cold_arena_bytes", self.cold_arena_bytes);
        m.insert("cold_parallel_tasks", self.cold_parallel_tasks);
        m.insert("cold_step_memo_hits", self.cold_step_memo_hits);
        m.insert("cold_step_memo_misses", self.cold_step_memo_misses);
        m.insert("cold_outcome_hits", self.cold_outcome_hits);
        m.insert("cold_outcome_misses", self.cold_outcome_misses);
        m.insert("sim_table_bytes", self.sim_table_bytes);
        m.insert("sim_table_resets", self.sim_table_resets);
        m.insert("faults_injected", self.faults_injected);
        m.insert("worker_respawns", self.worker_respawns);
        m.insert("api_accepted", self.api_accepted);
        m.insert("api_shed", self.api_shed);
        m.insert("api_coalesced", self.api_coalesced);
        m.insert("api_streamed_bytes", self.api_streamed_bytes);
        m.insert("spans_dropped", self.spans_dropped);
        m.insert("queue_wait_s", self.queue_wait.as_secs_f64());
        m.insert("in_flight", self.in_flight);
        m.insert("queued_bytes", self.queued_bytes);
        m.insert("uptime_s", self.uptime.as_secs_f64());
        m.insert("workers", self.per_worker.to_value());
        Value::Object(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_derived_metrics() {
        let stats = RuntimeStats::new(2);
        stats.submitted.fetch_add(4, Ordering::Relaxed);
        stats.record_run(0, Duration::from_millis(10), true);
        stats.record_run(1, Duration::from_millis(30), true);
        stats.record_run(1, Duration::from_millis(5), false);
        stats.cache_hits.fetch_add(3, Ordering::Relaxed);
        stats.cache_misses.fetch_add(1, Ordering::Relaxed);

        let snap = stats.snapshot();
        assert_eq!(snap.submitted, 4);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.finished(), 3);
        assert_eq!(snap.per_worker.len(), 2);
        assert_eq!(snap.per_worker[1].jobs, 2);
        assert!((snap.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(snap.total_busy(), Duration::from_millis(45));
        assert!(snap.throughput_jobs_per_sec() >= 0.0);
    }

    #[test]
    fn render_json_is_one_object_with_new_counters() {
        let stats = RuntimeStats::new(1);
        stats.shed_jobs.fetch_add(2, Ordering::Relaxed);
        stats.resumed_jobs.fetch_add(3, Ordering::Relaxed);
        stats.journal_bytes.fetch_add(512, Ordering::Relaxed);
        stats.journal_compactions.fetch_add(1, Ordering::Relaxed);
        stats.journal_bytes_reclaimed.fetch_add(128, Ordering::Relaxed);
        stats.in_flight.fetch_add(4, Ordering::Relaxed);
        stats.queued_bytes.fetch_add(64, Ordering::Relaxed);
        stats.api_accepted.fetch_add(5, Ordering::Relaxed);
        stats.api_shed.fetch_add(1, Ordering::Relaxed);
        stats.api_coalesced.fetch_add(2, Ordering::Relaxed);
        stats.api_streamed_bytes.fetch_add(256, Ordering::Relaxed);
        stats.record_cold(&cf_core::perf::ColdStats {
            shape_memo_hits: 9,
            shape_memo_misses: 4,
            arena_bytes: 1024,
            parallel_tasks: 3,
            step_memo_hits: 40,
            step_memo_misses: 2,
            outcome_hits: 7,
            outcome_misses: 5,
        });
        stats.record_cold(&cf_core::perf::ColdStats {
            shape_memo_hits: 1,
            shape_memo_misses: 1,
            arena_bytes: 512, // smaller high-water: the max must stick
            parallel_tasks: 0,
            step_memo_hits: 0,
            step_memo_misses: 1,
            outcome_hits: 2,
            outcome_misses: 0,
        });
        stats.sim_table_bytes.store(4096, Ordering::Relaxed);
        stats.sim_table_resets.fetch_add(1, Ordering::Relaxed);
        let json = stats.snapshot().render_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"shed_jobs\":2"), "{json}");
        assert!(json.contains("\"api_accepted\":5"), "{json}");
        assert!(json.contains("\"api_shed\":1"), "{json}");
        assert!(json.contains("\"api_coalesced\":2"), "{json}");
        assert!(json.contains("\"api_streamed_bytes\":256"), "{json}");
        assert!(json.contains("\"resumed_jobs\":3"), "{json}");
        assert!(json.contains("\"journal_bytes\":512"), "{json}");
        assert!(json.contains("\"journal_compactions\":1"), "{json}");
        assert!(json.contains("\"journal_bytes_reclaimed\":128"), "{json}");
        assert!(json.contains("\"cold_memo_hits\":10"), "{json}");
        assert!(json.contains("\"cold_memo_misses\":5"), "{json}");
        assert!(json.contains("\"cold_arena_bytes\":1024"), "{json}");
        assert!(json.contains("\"cold_parallel_tasks\":3"), "{json}");
        assert!(json.contains("\"cold_step_memo_hits\":40"), "{json}");
        assert!(json.contains("\"cold_step_memo_misses\":3"), "{json}");
        assert!(json.contains("\"cold_outcome_hits\":9"), "{json}");
        assert!(json.contains("\"cold_outcome_misses\":5"), "{json}");
        assert!(json.contains("\"sim_table_bytes\":4096"), "{json}");
        assert!(json.contains("\"sim_table_resets\":1"), "{json}");
        assert!(json.contains("\"in_flight\":4"), "{json}");
        assert!(json.contains("\"queued_bytes\":64"), "{json}");
        assert!(json.contains("\"workers\":[{"), "{json}");
    }

    #[test]
    fn render_json_parses_and_carries_spans_dropped() {
        let stats = RuntimeStats::new(2);
        let mut snap = stats.snapshot();
        snap.spans_dropped = 7;
        let json = snap.render_json();
        let v = serde_json::from_str(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        assert_eq!(v.get("spans_dropped").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("workers").and_then(Value::as_array).map(<[Value]>::len), Some(2));
        assert!(v.get("queue_wait_s").and_then(Value::as_f64).is_some());
        assert!(v.get("uptime_s").and_then(Value::as_f64).is_some());
    }

    #[test]
    fn empty_rates_are_zero() {
        let snap = RuntimeStats::new(1).snapshot();
        assert_eq!(snap.cache_hit_rate(), 0.0);
        assert_eq!(snap.finished(), 0);
    }
}
