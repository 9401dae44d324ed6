//! The counter registries — [`RuntimeStats`] for a backend,
//! [`RouterStats`] for the fleet router — declared once each.
//!
//! Every counter and gauge is one line of a table below: its field, its
//! `/stats` JSON key, its Prometheus family, kind and help text. The
//! table generates the struct of lock-free atomics (so call sites keep
//! writing `stats.<field>.fetch_add`), the plain-value
//! [`StatsSnapshot`] and its `/stats` JSON, and a list of [`Stat`]
//! declarations that [`crate::metrics`] renders as `/metrics` families.
//! A new counter is one table line plus its increment site; DESIGN.md
//! §8 has the naming rules.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serde_json::{Map, Serialize, Value};

/// One declared counter or gauge: everything `/stats` and `/metrics`
/// need to render it, generated from its table line.
pub struct Stat<T> {
    /// The `/stats` JSON key.
    pub key: &'static str,
    /// The Prometheus family name.
    pub family: &'static str,
    /// The Prometheus type: `"counter"` or `"gauge"`.
    pub kind: &'static str,
    /// The `# HELP` text (also the field's doc comment).
    pub help: &'static str,
    /// Reads the value from a `T` as a JSON number, whose text is also
    /// the exposition sample.
    pub value: fn(&T) -> Value,
}

/// The Prometheus type of a table kind: `seconds` is a counter kept in
/// nanoseconds and exported in seconds.
macro_rules! stat_kind {
    (counter) => {
        "counter"
    };
    (gauge) => {
        "gauge"
    };
    (seconds) => {
        "counter"
    };
}

/// A table value as a JSON number (`seconds` entries hold nanoseconds).
macro_rules! stat_value {
    (seconds, $v:expr) => {
        Value::from(Duration::from_nanos($v).as_secs_f64())
    };
    ($kind:ident, $v:expr) => {
        Value::from($v)
    };
}

/// A table line's `/stats` key: the field name unless the line gives
/// one in parentheses.
macro_rules! stat_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// Generates [`RuntimeStats`], [`StatsSnapshot`] (with its `/stats`
/// JSON) and [`StatsSnapshot::STATS`] from one table. A line is
/// `field("key")?: kind "family" "help";`. An `@name;` line before an
/// entry places the snapshot-only field `name` there in `/stats`.
macro_rules! runtime_stats {
    ($(
        $(@ $extra:ident;)?
        $(#[$doc:meta])*
        $field:ident $(($key:literal))?: $kind:ident $family:literal $help:literal;
    )*) => {
        /// Aggregate counters for one [`Runtime`](crate::Runtime) instance.
        ///
        /// All lock-free atomics; [`snapshot`] folds them into a plain
        /// value for reporting.
        ///
        /// [`snapshot`]: RuntimeStats::snapshot
        // Field docs are the help texts, which are plain text (`<id>`).
        #[allow(rustdoc::invalid_html_tags)]
        #[derive(Debug)]
        pub struct RuntimeStats {
            $(
                #[doc = $help]
                $(#[$doc])*
                pub $field: AtomicU64,
            )*
            /// Per-worker slots, fixed at pool construction.
            pub workers: Vec<WorkerStats>,
            started: Instant,
        }

        impl RuntimeStats {
            /// A zeroed registry for a pool of `workers` threads.
            pub fn new(workers: usize) -> Self {
                RuntimeStats {
                    $($field: AtomicU64::new(0),)*
                    workers: (0..workers).map(|_| WorkerStats::default()).collect(),
                    started: Instant::now(),
                }
            }

            /// A point-in-time copy of every counter.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($field: self.$field.load(Ordering::Relaxed),)*
                    spans_dropped: 0,
                    uptime: self.started.elapsed(),
                    per_worker: self.workers.iter().map(WorkerStats::snapshot).collect(),
                }
            }
        }

        /// Plain-value view of [`RuntimeStats`]; see
        /// [`RuntimeStats::snapshot`].
        #[allow(rustdoc::invalid_html_tags)]
        #[derive(Debug, Clone, PartialEq)]
        pub struct StatsSnapshot {
            $(
                #[doc = $help]
                pub $field: u64,
            )*
            /// Span events dropped from the observability ring buffer
            /// under pressure. [`RuntimeStats::snapshot`] sets this to 0
            /// — the registry does not own the tracer — and holders of
            /// both (the serve engine, the `Obs` hub) overwrite it from
            /// [`Tracer::dropped`](crate::obs::Tracer::dropped).
            pub spans_dropped: u64,
            /// Time since the runtime started.
            pub uptime: Duration,
            /// Per-worker job/busy counters.
            pub per_worker: Vec<WorkerSnapshot>,
        }

        impl StatsSnapshot {
            /// Every table line, in `/stats` order.
            pub const STATS: &'static [Stat<StatsSnapshot>] = &[$(
                Stat {
                    key: stat_key!($field $($key)?),
                    family: $family,
                    kind: stat_kind!($kind),
                    help: $help,
                    value: |s| stat_value!($kind, s.$field),
                },
            )*];
        }

        /// The `/stats` schema: the table in order, then `uptime_s` and
        /// the `workers` array. Durations are seconds as JSON numbers.
        impl Serialize for StatsSnapshot {
            fn to_value(&self) -> Value {
                let mut m = Map::new();
                $(
                    $(m.insert(stringify!($extra), self.$extra);)?
                    m.insert(stat_key!($field $($key)?), stat_value!($kind, self.$field));
                )*
                m.insert("uptime_s", self.uptime.as_secs_f64());
                m.insert("workers", self.per_worker.to_value());
                Value::Object(m)
            }
        }
    };
}

runtime_stats! {
    submitted: counter "cf_jobs_submitted_total" "Jobs accepted into the queue.";
    completed: counter "cf_jobs_completed_total" "Jobs finished with Ok.";
    /// Includes panicked bodies.
    failed: counter "cf_jobs_failed_total" "Jobs finished with Err.";
    cancelled: counter "cf_jobs_cancelled_total" "Jobs cancelled before starting.";
    expired: counter "cf_jobs_expired_total" "Jobs whose deadline passed in the queue.";
    cache_hits: counter "cf_cache_hits_total" "Plan/report cache hits.";
    cache_misses: counter "cf_cache_misses_total" "Plan/report cache misses.";
    /// The entry is dropped and the job recomputed.
    cache_corruptions: counter "cf_cache_corruptions_total" "Checksum-detected corrupt cache hits.";
    retries: counter "cf_retries_total" "Retried supervised attempts.";
    shed("shed_breaker"): counter "cf_shed_breaker_total" "Jobs shed by the open circuit breaker.";
    /// See [`LoadPolicy`](crate::LoadPolicy).
    shed_jobs: counter "cf_shed_jobs_total" "Submissions rejected by admission control.";
    resumed_jobs: counter "cf_resumed_jobs_total" "Jobs answered from a resume journal.";
    journal_bytes: counter "cf_journal_bytes_total" "Bytes appended to the serve journal.";
    journal_compactions: counter "cf_journal_compactions_total"
        "Serve-journal compactions (resume + live).";
    journal_bytes_reclaimed: counter "cf_journal_bytes_reclaimed_total"
        "Bytes reclaimed from the serve journal by compaction.";
    /// Split decisions served from the planner's shape memo.
    cold_memo_hits: counter "cf_cold_simulate_memo_hits_total"
        "Shape-memo hits across cold (uncached) simulations.";
    cold_memo_misses: counter "cf_cold_simulate_memo_misses_total"
        "Shape-memo misses across cold (uncached) simulations.";
    /// A maximum over simulations, not a sum.
    cold_arena_bytes: gauge "cf_cold_simulate_arena_bytes"
        "High-water plan-buffer bytes retained by any one cold simulation's arena.";
    cold_parallel_tasks: counter "cf_cold_simulate_parallel_tasks_total"
        "Cold subtrees fanned out to extra threads by parallel simulation.";
    cold_step_memo_hits: counter "cf_cold_step_memo_hits_total"
        "Plan steps cold simulations timed from the step memo.";
    cold_step_memo_misses: counter "cf_cold_step_memo_misses_total"
        "Plan steps cold simulations timed child by child.";
    /// Including ones an earlier job on the same worker computed.
    cold_outcome_hits: counter "cf_cold_outcome_hits_total"
        "Subtree outcomes cold simulations served from the outcome cache.";
    cold_outcome_misses: counter "cf_cold_outcome_misses_total"
        "Subtree outcomes cold simulations planned and timed.";
    sim_table_bytes: gauge "cf_sim_table_bytes"
        "Estimated bytes of the simulation tables workers keep across jobs.";
    /// Budget overruns and worker respawns each drop one generation.
    sim_table_resets: counter "cf_sim_table_resets_total"
        "Generations of the workers' kept simulation tables dropped.";
    /// See [`FaultPlan`](crate::FaultPlan).
    faults_injected: counter "cf_faults_injected_total" "Faults injected by the fault plan.";
    worker_respawns: counter "cf_worker_respawns_total"
        "Worker loops respawned after an escaped panic.";
    /// Through `POST /jobs`.
    api_accepted: counter "cf_api_accepted_total" "Jobs accepted through the HTTP job API.";
    api_shed: counter "cf_api_shed_total" "HTTP submissions shed at the front door with 503.";
    api_coalesced: counter "cf_api_coalesced_total"
        "HTTP submissions coalesced onto an identical in-flight job.";
    api_streamed_bytes: counter "cf_api_streamed_bytes_total"
        "Result bytes streamed to HTTP clients by GET /jobs/<id>.";
    // `/stats` carries the tracer's span-drop count here.
    @spans_dropped;
    /// In nanoseconds; see [`StatsSnapshot::queue_wait`].
    queue_wait_nanos("queue_wait_s"): seconds "cf_queue_wait_seconds_total"
        "Cumulative queue waiting time across jobs.";
    in_flight: gauge "cf_in_flight" "Jobs accepted into the queue and not yet terminal.";
    queued_bytes: gauge "cf_queued_bytes" "Estimated bytes of queued, not-yet-started work.";
}

/// Per-worker counters (one slot per pool thread).
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Jobs this worker ran to completion (ok or error).
    pub jobs: AtomicU64,
    /// Nanoseconds this worker spent executing job bodies.
    pub busy_nanos: AtomicU64,
}

impl WorkerStats {
    fn snapshot(&self) -> WorkerSnapshot {
        WorkerSnapshot {
            jobs: self.jobs.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed)),
        }
    }
}

impl RuntimeStats {
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
}

/// Generates [`RouterStats`] and [`RouterStats::COUNTERS`]: `counters`
/// lines (`field: kind "family" "help";`) are top-level `/stats` keys
/// and `cf_router_*` families; `attribution` lines
/// (`field("key"): "help";`) are the `/stats` `attribution` object only.
macro_rules! router_stats {
    (
        counters {
            $($field:ident: $kind:ident $family:literal $help:literal;)*
        }
        attribution {
            $($(#[$adoc:meta])* $afield:ident($akey:literal): $ahelp:literal;)*
        }
    ) => {
        /// Counters for one [`Router`](crate::router::Router) instance —
        /// the fleet-level analogue of [`RuntimeStats`]. All
        /// monotonically increasing atomics.
        #[derive(Debug, Default)]
        pub struct RouterStats {
            $(
                #[doc = $help]
                pub $field: AtomicU64,
            )*
            $(
                #[doc = $ahelp]
                $(#[$adoc])*
                pub $afield: AtomicU64,
            )*
        }

        impl RouterStats {
            /// The headline counters, in `/stats` order.
            pub(crate) const COUNTERS: &'static [Stat<RouterStats>] = &[$(
                Stat {
                    key: stringify!($field),
                    family: $family,
                    kind: stat_kind!($kind),
                    help: $help,
                    value: |s| Value::from(s.$field.load(Ordering::Relaxed)),
                },
            )*];

            /// The `/stats` `attribution` object: sums over finished
            /// records' `X-CF-Attribution` breakdowns.
            pub(crate) fn attribution(&self) -> Map {
                let mut m = Map::new();
                $(m.insert($akey, self.$afield.load(Ordering::Relaxed));)*
                m
            }
        }
    };
}

router_stats! {
    counters {
        routed: counter "cf_router_routed_total" "Jobs accepted and routed to a backend.";
        records_streamed: counter "cf_router_records_streamed_total"
            "Finished records streamed through the router.";
        failovers: counter "cf_router_failovers_total" "Requests failed over to another ring replica.";
        hedges: counter "cf_router_hedges_total"
            "Hedged duplicate requests fired past the latency quantile.";
        hedge_wins: counter "cf_router_hedge_wins_total" "Hedged duplicates that answered first.";
        ejections: counter "cf_router_ejections_total" "Backends ejected by the health prober.";
        readmissions: counter "cf_router_readmissions_total"
            "Ejected backends re-admitted after consecutive healthy probes.";
        probe_failures: counter "cf_router_probe_failures_total"
            "Health probes that failed (503 / timeout / connect error).";
        corrupt_responses: counter "cf_router_corrupt_responses"
            "Backend responses rejected for a digest mismatch (header or record field).";
        quarantines: counter "cf_router_quarantines_total"
            "Backends quarantined after repeated corrupt responses.";
    }
    attribution {
        attr_records("records"):
            "Finished records that carried an X-CF-Attribution breakdown.";
        attr_total_us("total_us"): "Sum of backend-reported end-to-end job time.";
        attr_admission_us("admission_us"): "Sum of backend admission-control time.";
        attr_queue_us("queue_us"): "Sum of backend queue-wait time.";
        attr_run_us("run_us"): "Sum of backend simulate/execute time.";
        /// Submit and poll dials and transfers: overhead outside the
        /// backend's total.
        attr_net_us("net_us"): "Sum of router-measured network time.";
        attr_backoff_us("backoff_us"): "Sum of router-side retry/resubmit backoff sleeps.";
    }
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

    /// Cumulative queue waiting time across jobs.
    pub fn queue_wait(&self) -> Duration {
        Duration::from_nanos(self.queue_wait_nanos)
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

    /// Renders the snapshot as one JSON object (for `--stats-json` and
    /// `/stats`) — [`Serialize::to_value`] printed compactly, so every
    /// consumer shares one schema.
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
        assert_eq!(
            snap.per_worker.iter().map(|w| w.busy).sum::<Duration>(),
            Duration::from_millis(45)
        );
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
            planned_steps: 6,
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
            planned_steps: 1,
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
