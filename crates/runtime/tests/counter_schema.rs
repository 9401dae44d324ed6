//! Pins the counter schema byte for byte: the backend's `/stats` JSON
//! and `/metrics` family blocks, and the router's `/stats` JSON and own
//! `cf_router_*` / `cf_slo_*` series. Every `RuntimeStats` and
//! `RouterStats` atomic is set to a distinct value first, so a counter
//! that renders under the wrong key, family or position fails here.
//!
//! `/metrics` is compared as a set of family blocks (a `# HELP` line up
//! to the next one): Prometheus reads nothing into the order of whole
//! blocks, but every header and sample line inside one is pinned.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;

use cf_runtime::metrics::{build_info, render};
use cf_runtime::obs::{SpanKind, Stage, Tracer};
use cf_runtime::{LoadPolicy, Router, RouterConfig, RuntimeStats, StatsSnapshot};

/// A two-worker registry with every atomic at a distinct value, and
/// its snapshot with the clock-derived fields fixed.
fn pinned_snapshot() -> StatsSnapshot {
    let s = RuntimeStats::new(2);
    let values = [
        (&s.submitted, 101),
        (&s.completed, 102),
        (&s.failed, 103),
        (&s.cancelled, 104),
        (&s.expired, 105),
        (&s.cache_hits, 106),
        (&s.cache_misses, 107),
        (&s.cache_corruptions, 108),
        (&s.retries, 109),
        (&s.shed, 110),
        (&s.shed_jobs, 111),
        (&s.resumed_jobs, 112),
        (&s.journal_bytes, 113),
        (&s.journal_compactions, 114),
        (&s.journal_bytes_reclaimed, 115),
        (&s.cold_memo_hits, 116),
        (&s.cold_memo_misses, 117),
        (&s.cold_arena_bytes, 118),
        (&s.cold_parallel_tasks, 119),
        (&s.cold_step_memo_hits, 120),
        (&s.cold_step_memo_misses, 121),
        (&s.cold_outcome_hits, 122),
        (&s.cold_outcome_misses, 123),
        (&s.sim_table_bytes, 124),
        (&s.sim_table_resets, 125),
        (&s.faults_injected, 126),
        (&s.worker_respawns, 127),
        (&s.api_accepted, 128),
        (&s.api_shed, 129),
        (&s.api_coalesced, 130),
        (&s.api_streamed_bytes, 131),
        (&s.queue_wait_nanos, 1_250_000_132),
        (&s.in_flight, 133),
        (&s.queued_bytes, 134),
        (&s.workers[0].jobs, 135),
        (&s.workers[0].busy_nanos, 500_000_136),
        (&s.workers[1].jobs, 137),
        (&s.workers[1].busy_nanos, 2_000_000_138),
    ];
    for (atomic, value) in values {
        atomic.store(value, Relaxed);
    }
    let mut snap = s.snapshot();
    snap.spans_dropped = 139;
    snap.uptime = Duration::from_millis(7_140);
    snap
}

/// A tracer with one dropped span and two latency observations.
fn pinned_tracer() -> Tracer {
    let tracer = Tracer::new(2);
    for job in 0..3 {
        tracer.record(SpanKind::JobSubmit, job, None, String::new);
    }
    tracer.observe(Stage::Run, Duration::from_micros(3));
    tracer.observe(Stage::QueueWait, Duration::from_micros(1_000));
    tracer
}

/// A router over one unreachable backend with every counter at a
/// distinct value (`slo` configures SLO accounting).
fn pinned_router(slo: Option<Duration>) -> Arc<Router> {
    let router = Router::new(RouterConfig {
        backends: vec!["127.0.0.1:1".into()],
        slo_target: slo,
        ..Default::default()
    });
    let s = router.stats();
    let values = [
        (&s.routed, 201),
        (&s.records_streamed, 202),
        (&s.failovers, 203),
        (&s.hedges, 204),
        (&s.hedge_wins, 205),
        (&s.ejections, 206),
        (&s.readmissions, 207),
        (&s.probe_failures, 208),
        (&s.corrupt_responses, 209),
        (&s.quarantines, 210),
        (&s.attr_records, 211),
        (&s.attr_total_us, 212),
        (&s.attr_admission_us, 213),
        (&s.attr_queue_us, 214),
        (&s.attr_run_us, 215),
        (&s.attr_net_us, 216),
        (&s.attr_backoff_us, 217),
    ];
    for (atomic, value) in values {
        atomic.store(value, Relaxed);
    }
    router
}

/// The exposition split into family blocks (each from a `# HELP` line
/// up to the next), sorted.
fn blocks(body: &str) -> Vec<String> {
    let mut blocks: Vec<String> = Vec::new();
    for line in body.lines() {
        if line.starts_with("# HELP ") || blocks.is_empty() {
            blocks.push(String::new());
        }
        if let Some(block) = blocks.last_mut() {
            block.push_str(line);
            block.push('\n');
        }
    }
    blocks.sort();
    blocks
}

/// Asserts `body` has exactly the family blocks of `expected`, naming
/// the first block that differs.
fn assert_same_blocks(body: &str, expected: &str) {
    let (got, want) = (blocks(body), blocks(expected));
    for block in &want {
        assert!(got.contains(block), "missing or changed block:\n{block}\nin:\n{body}");
    }
    for block in &got {
        assert!(want.contains(block), "unexpected block:\n{block}\nin:\n{body}");
    }
    assert_eq!(got.len(), want.len(), "{body}");
}

/// The build-info sample with this binary's identity filled in.
fn with_build_info(expected: &str) -> String {
    let (version, git) = build_info();
    expected.replace("{version}", version).replace("{git}", git)
}

#[test]
fn backend_stats_json_is_pinned() {
    assert_eq!(pinned_snapshot().render_json(), BACKEND_STATS);
}

#[test]
fn backend_metrics_blocks_are_pinned_with_a_snapshot() {
    let load = LoadPolicy { max_in_flight: 140, max_queued_bytes: 141, deadline_budget: None };
    let body = render("pin", Some(&pinned_snapshot()), Some(load), true, &pinned_tracer());
    assert_same_blocks(&body, &with_build_info(&format!("{BACKEND_METRICS}{STAGE_HISTOGRAM}")));
}

#[test]
fn backend_metrics_blocks_are_pinned_without_a_snapshot() {
    let body = render("pin", None, None, false, &pinned_tracer());
    assert_same_blocks(
        &body,
        &with_build_info(&format!("{BACKEND_METRICS_EMPTY}{STAGE_HISTOGRAM}")),
    );
}

#[test]
fn router_stats_json_is_pinned() {
    assert_eq!(pinned_router(None).stats_json(), ROUTER_STATS);
}

#[test]
fn router_series_are_pinned() {
    assert_same_blocks(&pinned_router(None).metrics(), ROUTER_METRICS);
    let with_slo = pinned_router(Some(Duration::from_millis(5))).metrics();
    assert_same_blocks(&with_slo, ROUTER_METRICS_SLO);
}

/// `/stats` of [`pinned_snapshot`].
const BACKEND_STATS: &str = r##"{"submitted":101,"completed":102,"failed":103,"cancelled":104,"expired":105,"cache_hits":106,"cache_misses":107,"cache_corruptions":108,"retries":109,"shed_breaker":110,"shed_jobs":111,"resumed_jobs":112,"journal_bytes":113,"journal_compactions":114,"journal_bytes_reclaimed":115,"cold_memo_hits":116,"cold_memo_misses":117,"cold_arena_bytes":118,"cold_parallel_tasks":119,"cold_step_memo_hits":120,"cold_step_memo_misses":121,"cold_outcome_hits":122,"cold_outcome_misses":123,"sim_table_bytes":124,"sim_table_resets":125,"faults_injected":126,"worker_respawns":127,"api_accepted":128,"api_shed":129,"api_coalesced":130,"api_streamed_bytes":131,"spans_dropped":139,"queue_wait_s":1.250000132,"in_flight":133,"queued_bytes":134,"uptime_s":7.14,"workers":[{"jobs":135,"busy_s":0.500000136},{"jobs":137,"busy_s":2.000000138}]}"##;

/// `/metrics` of [`pinned_snapshot`] while draining, less [`STAGE_HISTOGRAM`].
const BACKEND_METRICS: &str = r##"# HELP cf_jobs_submitted_total Jobs accepted into the queue.
# TYPE cf_jobs_submitted_total counter
cf_jobs_submitted_total{instance="pin"} 101
# HELP cf_jobs_completed_total Jobs finished with Ok.
# TYPE cf_jobs_completed_total counter
cf_jobs_completed_total{instance="pin"} 102
# HELP cf_jobs_failed_total Jobs finished with Err.
# TYPE cf_jobs_failed_total counter
cf_jobs_failed_total{instance="pin"} 103
# HELP cf_jobs_cancelled_total Jobs cancelled before starting.
# TYPE cf_jobs_cancelled_total counter
cf_jobs_cancelled_total{instance="pin"} 104
# HELP cf_jobs_expired_total Jobs whose deadline passed in the queue.
# TYPE cf_jobs_expired_total counter
cf_jobs_expired_total{instance="pin"} 105
# HELP cf_cache_hits_total Plan/report cache hits.
# TYPE cf_cache_hits_total counter
cf_cache_hits_total{instance="pin"} 106
# HELP cf_cache_misses_total Plan/report cache misses.
# TYPE cf_cache_misses_total counter
cf_cache_misses_total{instance="pin"} 107
# HELP cf_cache_corruptions_total Checksum-detected corrupt cache hits.
# TYPE cf_cache_corruptions_total counter
cf_cache_corruptions_total{instance="pin"} 108
# HELP cf_retries_total Retried supervised attempts.
# TYPE cf_retries_total counter
cf_retries_total{instance="pin"} 109
# HELP cf_shed_breaker_total Jobs shed by the open circuit breaker.
# TYPE cf_shed_breaker_total counter
cf_shed_breaker_total{instance="pin"} 110
# HELP cf_shed_jobs_total Submissions rejected by admission control.
# TYPE cf_shed_jobs_total counter
cf_shed_jobs_total{instance="pin"} 111
# HELP cf_resumed_jobs_total Jobs answered from a resume journal.
# TYPE cf_resumed_jobs_total counter
cf_resumed_jobs_total{instance="pin"} 112
# HELP cf_journal_bytes_total Bytes appended to the serve journal.
# TYPE cf_journal_bytes_total counter
cf_journal_bytes_total{instance="pin"} 113
# HELP cf_journal_compactions_total Serve-journal compactions (resume + live).
# TYPE cf_journal_compactions_total counter
cf_journal_compactions_total{instance="pin"} 114
# HELP cf_journal_bytes_reclaimed_total Bytes reclaimed from the serve journal by compaction.
# TYPE cf_journal_bytes_reclaimed_total counter
cf_journal_bytes_reclaimed_total{instance="pin"} 115
# HELP cf_cold_simulate_memo_hits_total Shape-memo hits across cold (uncached) simulations.
# TYPE cf_cold_simulate_memo_hits_total counter
cf_cold_simulate_memo_hits_total{instance="pin"} 116
# HELP cf_cold_simulate_memo_misses_total Shape-memo misses across cold (uncached) simulations.
# TYPE cf_cold_simulate_memo_misses_total counter
cf_cold_simulate_memo_misses_total{instance="pin"} 117
# HELP cf_cold_simulate_parallel_tasks_total Cold subtrees fanned out to extra threads by parallel simulation.
# TYPE cf_cold_simulate_parallel_tasks_total counter
cf_cold_simulate_parallel_tasks_total{instance="pin"} 119
# HELP cf_cold_step_memo_hits_total Plan steps cold simulations timed from the step memo.
# TYPE cf_cold_step_memo_hits_total counter
cf_cold_step_memo_hits_total{instance="pin"} 120
# HELP cf_cold_step_memo_misses_total Plan steps cold simulations timed child by child.
# TYPE cf_cold_step_memo_misses_total counter
cf_cold_step_memo_misses_total{instance="pin"} 121
# HELP cf_cold_outcome_hits_total Subtree outcomes cold simulations served from the outcome cache.
# TYPE cf_cold_outcome_hits_total counter
cf_cold_outcome_hits_total{instance="pin"} 122
# HELP cf_cold_outcome_misses_total Subtree outcomes cold simulations planned and timed.
# TYPE cf_cold_outcome_misses_total counter
cf_cold_outcome_misses_total{instance="pin"} 123
# HELP cf_sim_table_resets_total Generations of the workers' kept simulation tables dropped.
# TYPE cf_sim_table_resets_total counter
cf_sim_table_resets_total{instance="pin"} 125
# HELP cf_faults_injected_total Faults injected by the fault plan.
# TYPE cf_faults_injected_total counter
cf_faults_injected_total{instance="pin"} 126
# HELP cf_worker_respawns_total Worker loops respawned after an escaped panic.
# TYPE cf_worker_respawns_total counter
cf_worker_respawns_total{instance="pin"} 127
# HELP cf_api_accepted_total Jobs accepted through the HTTP job API.
# TYPE cf_api_accepted_total counter
cf_api_accepted_total{instance="pin"} 128
# HELP cf_api_shed_total HTTP submissions shed at the front door with 503.
# TYPE cf_api_shed_total counter
cf_api_shed_total{instance="pin"} 129
# HELP cf_api_coalesced_total HTTP submissions coalesced onto an identical in-flight job.
# TYPE cf_api_coalesced_total counter
cf_api_coalesced_total{instance="pin"} 130
# HELP cf_api_streamed_bytes_total Result bytes streamed to HTTP clients by GET /jobs/<id>.
# TYPE cf_api_streamed_bytes_total counter
cf_api_streamed_bytes_total{instance="pin"} 131
# HELP cf_queue_wait_seconds_total Cumulative queue waiting time across jobs.
# TYPE cf_queue_wait_seconds_total counter
cf_queue_wait_seconds_total{instance="pin"} 1.250000132
# HELP cf_spans_dropped_total Span events dropped from the observability ring buffer.
# TYPE cf_spans_dropped_total counter
cf_spans_dropped_total{instance="pin"} 1
# HELP cf_trace_attached_total Jobs attached to a distributed trace context.
# TYPE cf_trace_attached_total counter
cf_trace_attached_total{instance="pin"} 0
# HELP cf_draining 1 while the instance is draining (stopped admitting, finishing in-flight work).
# TYPE cf_draining gauge
cf_draining{instance="pin"} 1
# HELP cf_in_flight Jobs accepted into the queue and not yet terminal.
# TYPE cf_in_flight gauge
cf_in_flight{instance="pin"} 133
# HELP cf_queued_bytes Estimated bytes of queued, not-yet-started work.
# TYPE cf_queued_bytes gauge
cf_queued_bytes{instance="pin"} 134
# HELP cf_cold_simulate_arena_bytes High-water plan-buffer bytes retained by any one cold simulation's arena.
# TYPE cf_cold_simulate_arena_bytes gauge
cf_cold_simulate_arena_bytes{instance="pin"} 118
# HELP cf_sim_table_bytes Estimated bytes of the simulation tables workers keep across jobs.
# TYPE cf_sim_table_bytes gauge
cf_sim_table_bytes{instance="pin"} 124
# HELP cf_uptime_seconds Seconds since the runtime started.
# TYPE cf_uptime_seconds gauge
cf_uptime_seconds{instance="pin"} 7.14
# HELP cf_max_in_flight Admission-control in-flight limit (0 = unlimited).
# TYPE cf_max_in_flight gauge
cf_max_in_flight{instance="pin"} 140
# HELP cf_max_queued_bytes Admission-control queued-bytes limit (0 = unlimited).
# TYPE cf_max_queued_bytes gauge
cf_max_queued_bytes{instance="pin"} 141
# HELP cf_build_info Build identity of this instance (constant 1; version and git labels).
# TYPE cf_build_info gauge
cf_build_info{instance="pin",version="{version}",git="{git}"} 1
# HELP cf_worker_jobs_total Jobs the worker ran.
# TYPE cf_worker_jobs_total counter
cf_worker_jobs_total{instance="pin",worker="0"} 135
cf_worker_jobs_total{instance="pin",worker="1"} 137
# HELP cf_worker_busy_seconds_total Seconds the worker spent in job bodies.
# TYPE cf_worker_busy_seconds_total counter
cf_worker_busy_seconds_total{instance="pin",worker="0"} 0.500000136
cf_worker_busy_seconds_total{instance="pin",worker="1"} 2.000000138
# HELP cf_profile_jobs_total Profiled simulation jobs absorbed, per machine.
# TYPE cf_profile_jobs_total counter
# HELP cf_profile_stage_seconds_total Simulated busy seconds per hierarchy level and pipeline stage.
# TYPE cf_profile_stage_seconds_total counter
# HELP cf_profile_traffic_bytes_total Simulated parent-link traffic per hierarchy level.
# TYPE cf_profile_traffic_bytes_total counter
# HELP cf_profile_memo_hits_total Memoization-table hits per hierarchy level.
# TYPE cf_profile_memo_hits_total counter
# HELP cf_profile_memo_misses_total Memoization-table misses per hierarchy level.
# TYPE cf_profile_memo_misses_total counter
# HELP cf_profile_concat_saved_seconds_total Simulated seconds saved by pipeline concatenating per level.
# TYPE cf_profile_concat_saved_seconds_total counter
"##;

/// `/metrics` before a runtime publishes, less [`STAGE_HISTOGRAM`].
const BACKEND_METRICS_EMPTY: &str = r##"# HELP cf_jobs_submitted_total Jobs accepted into the queue.
# TYPE cf_jobs_submitted_total counter
# HELP cf_jobs_completed_total Jobs finished with Ok.
# TYPE cf_jobs_completed_total counter
# HELP cf_jobs_failed_total Jobs finished with Err.
# TYPE cf_jobs_failed_total counter
# HELP cf_jobs_cancelled_total Jobs cancelled before starting.
# TYPE cf_jobs_cancelled_total counter
# HELP cf_jobs_expired_total Jobs whose deadline passed in the queue.
# TYPE cf_jobs_expired_total counter
# HELP cf_cache_hits_total Plan/report cache hits.
# TYPE cf_cache_hits_total counter
# HELP cf_cache_misses_total Plan/report cache misses.
# TYPE cf_cache_misses_total counter
# HELP cf_cache_corruptions_total Checksum-detected corrupt cache hits.
# TYPE cf_cache_corruptions_total counter
# HELP cf_retries_total Retried supervised attempts.
# TYPE cf_retries_total counter
# HELP cf_shed_breaker_total Jobs shed by the open circuit breaker.
# TYPE cf_shed_breaker_total counter
# HELP cf_shed_jobs_total Submissions rejected by admission control.
# TYPE cf_shed_jobs_total counter
# HELP cf_resumed_jobs_total Jobs answered from a resume journal.
# TYPE cf_resumed_jobs_total counter
# HELP cf_journal_bytes_total Bytes appended to the serve journal.
# TYPE cf_journal_bytes_total counter
# HELP cf_journal_compactions_total Serve-journal compactions (resume + live).
# TYPE cf_journal_compactions_total counter
# HELP cf_journal_bytes_reclaimed_total Bytes reclaimed from the serve journal by compaction.
# TYPE cf_journal_bytes_reclaimed_total counter
# HELP cf_cold_simulate_memo_hits_total Shape-memo hits across cold (uncached) simulations.
# TYPE cf_cold_simulate_memo_hits_total counter
# HELP cf_cold_simulate_memo_misses_total Shape-memo misses across cold (uncached) simulations.
# TYPE cf_cold_simulate_memo_misses_total counter
# HELP cf_cold_simulate_parallel_tasks_total Cold subtrees fanned out to extra threads by parallel simulation.
# TYPE cf_cold_simulate_parallel_tasks_total counter
# HELP cf_cold_step_memo_hits_total Plan steps cold simulations timed from the step memo.
# TYPE cf_cold_step_memo_hits_total counter
# HELP cf_cold_step_memo_misses_total Plan steps cold simulations timed child by child.
# TYPE cf_cold_step_memo_misses_total counter
# HELP cf_cold_outcome_hits_total Subtree outcomes cold simulations served from the outcome cache.
# TYPE cf_cold_outcome_hits_total counter
# HELP cf_cold_outcome_misses_total Subtree outcomes cold simulations planned and timed.
# TYPE cf_cold_outcome_misses_total counter
# HELP cf_sim_table_resets_total Generations of the workers' kept simulation tables dropped.
# TYPE cf_sim_table_resets_total counter
# HELP cf_faults_injected_total Faults injected by the fault plan.
# TYPE cf_faults_injected_total counter
# HELP cf_worker_respawns_total Worker loops respawned after an escaped panic.
# TYPE cf_worker_respawns_total counter
# HELP cf_api_accepted_total Jobs accepted through the HTTP job API.
# TYPE cf_api_accepted_total counter
# HELP cf_api_shed_total HTTP submissions shed at the front door with 503.
# TYPE cf_api_shed_total counter
# HELP cf_api_coalesced_total HTTP submissions coalesced onto an identical in-flight job.
# TYPE cf_api_coalesced_total counter
# HELP cf_api_streamed_bytes_total Result bytes streamed to HTTP clients by GET /jobs/<id>.
# TYPE cf_api_streamed_bytes_total counter
# HELP cf_queue_wait_seconds_total Cumulative queue waiting time across jobs.
# TYPE cf_queue_wait_seconds_total counter
# HELP cf_spans_dropped_total Span events dropped from the observability ring buffer.
# TYPE cf_spans_dropped_total counter
cf_spans_dropped_total{instance="pin"} 1
# HELP cf_trace_attached_total Jobs attached to a distributed trace context.
# TYPE cf_trace_attached_total counter
cf_trace_attached_total{instance="pin"} 0
# HELP cf_draining 1 while the instance is draining (stopped admitting, finishing in-flight work).
# TYPE cf_draining gauge
cf_draining{instance="pin"} 0
# HELP cf_in_flight Jobs accepted into the queue and not yet terminal.
# TYPE cf_in_flight gauge
# HELP cf_queued_bytes Estimated bytes of queued, not-yet-started work.
# TYPE cf_queued_bytes gauge
# HELP cf_cold_simulate_arena_bytes High-water plan-buffer bytes retained by any one cold simulation's arena.
# TYPE cf_cold_simulate_arena_bytes gauge
# HELP cf_sim_table_bytes Estimated bytes of the simulation tables workers keep across jobs.
# TYPE cf_sim_table_bytes gauge
# HELP cf_uptime_seconds Seconds since the runtime started.
# TYPE cf_uptime_seconds gauge
# HELP cf_max_in_flight Admission-control in-flight limit (0 = unlimited).
# TYPE cf_max_in_flight gauge
# HELP cf_max_queued_bytes Admission-control queued-bytes limit (0 = unlimited).
# TYPE cf_max_queued_bytes gauge
# HELP cf_build_info Build identity of this instance (constant 1; version and git labels).
# TYPE cf_build_info gauge
cf_build_info{instance="pin",version="{version}",git="{git}"} 1
# HELP cf_worker_jobs_total Jobs the worker ran.
# TYPE cf_worker_jobs_total counter
# HELP cf_worker_busy_seconds_total Seconds the worker spent in job bodies.
# TYPE cf_worker_busy_seconds_total counter
# HELP cf_profile_jobs_total Profiled simulation jobs absorbed, per machine.
# TYPE cf_profile_jobs_total counter
# HELP cf_profile_stage_seconds_total Simulated busy seconds per hierarchy level and pipeline stage.
# TYPE cf_profile_stage_seconds_total counter
# HELP cf_profile_traffic_bytes_total Simulated parent-link traffic per hierarchy level.
# TYPE cf_profile_traffic_bytes_total counter
# HELP cf_profile_memo_hits_total Memoization-table hits per hierarchy level.
# TYPE cf_profile_memo_hits_total counter
# HELP cf_profile_memo_misses_total Memoization-table misses per hierarchy level.
# TYPE cf_profile_memo_misses_total counter
# HELP cf_profile_concat_saved_seconds_total Simulated seconds saved by pipeline concatenating per level.
# TYPE cf_profile_concat_saved_seconds_total counter
"##;

/// The stage-latency histogram block of [`pinned_tracer`].
const STAGE_HISTOGRAM: &str = r##"# HELP cf_stage_latency_seconds Runtime pipeline-stage latency (queue wait, run, cache lookup, retry backoff, journal append, api request).
# TYPE cf_stage_latency_seconds histogram
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="2e-6"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="4e-6"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="8e-6"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="1.6e-5"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="3.2e-5"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="6.4e-5"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="0.000128"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="0.000256"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="0.000512"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="0.001024"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="0.002048"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="0.004096"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="0.008192"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="0.016384"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="0.032768"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="0.065536"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="0.131072"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="0.262144"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="0.524288"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="1.048576"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="2.097152"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="4.194304"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="8.388608"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="16.777216"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="33.554432"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="67.108864"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="134.217728"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="268.435456"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="536.870912"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="1073.741824"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="queue_wait",le="+Inf"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="2e-6"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="4e-6"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="8e-6"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="1.6e-5"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="3.2e-5"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="6.4e-5"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="0.000128"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="0.000256"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="0.000512"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="0.001024"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="0.002048"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="0.004096"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="0.008192"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="0.016384"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="0.032768"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="0.065536"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="0.131072"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="0.262144"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="0.524288"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="1.048576"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="2.097152"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="4.194304"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="8.388608"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="16.777216"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="33.554432"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="67.108864"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="134.217728"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="268.435456"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="536.870912"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="1073.741824"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="run",le="+Inf"} 1
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="2e-6"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="4e-6"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="8e-6"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="1.6e-5"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="3.2e-5"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="6.4e-5"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="0.000128"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="0.000256"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="0.000512"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="0.001024"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="0.002048"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="0.004096"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="0.008192"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="0.016384"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="0.032768"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="0.065536"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="0.131072"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="0.262144"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="0.524288"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="1.048576"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="2.097152"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="4.194304"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="8.388608"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="16.777216"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="33.554432"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="67.108864"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="134.217728"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="268.435456"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="536.870912"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="1073.741824"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="cache_lookup",le="+Inf"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="2e-6"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="4e-6"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="8e-6"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="1.6e-5"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="3.2e-5"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="6.4e-5"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="0.000128"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="0.000256"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="0.000512"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="0.001024"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="0.002048"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="0.004096"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="0.008192"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="0.016384"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="0.032768"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="0.065536"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="0.131072"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="0.262144"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="0.524288"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="1.048576"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="2.097152"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="4.194304"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="8.388608"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="16.777216"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="33.554432"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="67.108864"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="134.217728"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="268.435456"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="536.870912"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="1073.741824"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="retry_backoff",le="+Inf"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="2e-6"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="4e-6"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="8e-6"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="1.6e-5"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="3.2e-5"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="6.4e-5"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="0.000128"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="0.000256"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="0.000512"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="0.001024"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="0.002048"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="0.004096"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="0.008192"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="0.016384"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="0.032768"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="0.065536"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="0.131072"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="0.262144"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="0.524288"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="1.048576"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="2.097152"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="4.194304"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="8.388608"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="16.777216"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="33.554432"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="67.108864"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="134.217728"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="268.435456"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="536.870912"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="1073.741824"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="journal_append",le="+Inf"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="2e-6"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="4e-6"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="8e-6"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="1.6e-5"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="3.2e-5"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="6.4e-5"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="0.000128"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="0.000256"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="0.000512"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="0.001024"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="0.002048"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="0.004096"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="0.008192"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="0.016384"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="0.032768"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="0.065536"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="0.131072"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="0.262144"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="0.524288"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="1.048576"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="2.097152"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="4.194304"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="8.388608"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="16.777216"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="33.554432"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="67.108864"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="134.217728"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="268.435456"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="536.870912"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="1073.741824"} 0
cf_stage_latency_seconds_bucket{instance="pin",stage="api_request",le="+Inf"} 0
cf_stage_latency_seconds_sum{instance="pin",stage="queue_wait"} 0.001
cf_stage_latency_seconds_count{instance="pin",stage="queue_wait"} 1
cf_stage_latency_seconds_sum{instance="pin",stage="run"} 3e-6
cf_stage_latency_seconds_count{instance="pin",stage="run"} 1
cf_stage_latency_seconds_sum{instance="pin",stage="cache_lookup"} 0.0
cf_stage_latency_seconds_count{instance="pin",stage="cache_lookup"} 0
cf_stage_latency_seconds_sum{instance="pin",stage="retry_backoff"} 0.0
cf_stage_latency_seconds_count{instance="pin",stage="retry_backoff"} 0
cf_stage_latency_seconds_sum{instance="pin",stage="journal_append"} 0.0
cf_stage_latency_seconds_count{instance="pin",stage="journal_append"} 0
cf_stage_latency_seconds_sum{instance="pin",stage="api_request"} 0.0
cf_stage_latency_seconds_count{instance="pin",stage="api_request"} 0
"##;

/// `/stats` of [`pinned_router`].
const ROUTER_STATS: &str = r##"{"routed":201,"records_streamed":202,"failovers":203,"hedges":204,"hedge_wins":205,"ejections":206,"readmissions":207,"probe_failures":208,"corrupt_responses":209,"quarantines":210,"jobs":0,"spans":0,"attribution":{"records":211,"total_us":212,"admission_us":213,"queue_us":214,"run_us":215,"net_us":216,"backoff_us":217},"backends":[{"addr":"127.0.0.1:1","health":"up","breaker":"closed","jobs":0,"consecutive_failures":0,"consecutive_successes":0,"consecutive_corruptions":0,"hedges_won":0,"hedges_cancelled":0,"last_probe_error":null,"last_probe_error_age_s":null}]}"##;

/// The router's own series without an SLO target.
const ROUTER_METRICS: &str = r##"# HELP cf_router_routed_total Jobs accepted and routed to a backend.
# TYPE cf_router_routed_total counter
cf_router_routed_total 201
# HELP cf_router_records_streamed_total Finished records streamed through the router.
# TYPE cf_router_records_streamed_total counter
cf_router_records_streamed_total 202
# HELP cf_router_failovers_total Requests failed over to another ring replica.
# TYPE cf_router_failovers_total counter
cf_router_failovers_total 203
# HELP cf_router_hedges_total Hedged duplicate requests fired past the latency quantile.
# TYPE cf_router_hedges_total counter
cf_router_hedges_total 204
# HELP cf_router_hedge_wins_total Hedged duplicates that answered first.
# TYPE cf_router_hedge_wins_total counter
cf_router_hedge_wins_total 205
# HELP cf_router_ejections_total Backends ejected by the health prober.
# TYPE cf_router_ejections_total counter
cf_router_ejections_total 206
# HELP cf_router_readmissions_total Ejected backends re-admitted after consecutive healthy probes.
# TYPE cf_router_readmissions_total counter
cf_router_readmissions_total 207
# HELP cf_router_probe_failures_total Health probes that failed (503 / timeout / connect error).
# TYPE cf_router_probe_failures_total counter
cf_router_probe_failures_total 208
# HELP cf_router_corrupt_responses Backend responses rejected for a digest mismatch (header or record field).
# TYPE cf_router_corrupt_responses counter
cf_router_corrupt_responses 209
# HELP cf_router_quarantines_total Backends quarantined after repeated corrupt responses.
# TYPE cf_router_quarantines_total counter
cf_router_quarantines_total 210
# HELP cf_router_backend_up Backend routability as seen by the prober (1 = up, 0 = ejected, draining or quarantined).
# TYPE cf_router_backend_up gauge
cf_router_backend_up{backend="127.0.0.1:1",state="up"} 1
# HELP cf_slo_good_total Finished jobs whose SLO latency met the target.
# TYPE cf_slo_good_total counter
# HELP cf_slo_bad_total Finished jobs whose SLO latency missed the target.
# TYPE cf_slo_bad_total counter
# HELP cf_slo_error_budget_remaining Fraction of the error budget still unspent (1 = untouched, 0 = exhausted).
# TYPE cf_slo_error_budget_remaining gauge
# HELP cf_slo_burn_rate_5m Error-budget burn rate over the trailing 5 minutes (1 = burning exactly at budget).
# TYPE cf_slo_burn_rate_5m gauge
# HELP cf_slo_burn_rate_1h Error-budget burn rate over the trailing hour (1 = burning exactly at budget).
# TYPE cf_slo_burn_rate_1h gauge
# HELP cf_slo_target_seconds Configured SLO latency target.
# TYPE cf_slo_target_seconds gauge
# HELP cf_slo_objective Configured SLO availability objective (e.g. 0.99).
# TYPE cf_slo_objective gauge
"##;

/// The router's own series with a 5 ms SLO target.
const ROUTER_METRICS_SLO: &str = r##"# HELP cf_router_routed_total Jobs accepted and routed to a backend.
# TYPE cf_router_routed_total counter
cf_router_routed_total 201
# HELP cf_router_records_streamed_total Finished records streamed through the router.
# TYPE cf_router_records_streamed_total counter
cf_router_records_streamed_total 202
# HELP cf_router_failovers_total Requests failed over to another ring replica.
# TYPE cf_router_failovers_total counter
cf_router_failovers_total 203
# HELP cf_router_hedges_total Hedged duplicate requests fired past the latency quantile.
# TYPE cf_router_hedges_total counter
cf_router_hedges_total 204
# HELP cf_router_hedge_wins_total Hedged duplicates that answered first.
# TYPE cf_router_hedge_wins_total counter
cf_router_hedge_wins_total 205
# HELP cf_router_ejections_total Backends ejected by the health prober.
# TYPE cf_router_ejections_total counter
cf_router_ejections_total 206
# HELP cf_router_readmissions_total Ejected backends re-admitted after consecutive healthy probes.
# TYPE cf_router_readmissions_total counter
cf_router_readmissions_total 207
# HELP cf_router_probe_failures_total Health probes that failed (503 / timeout / connect error).
# TYPE cf_router_probe_failures_total counter
cf_router_probe_failures_total 208
# HELP cf_router_corrupt_responses Backend responses rejected for a digest mismatch (header or record field).
# TYPE cf_router_corrupt_responses counter
cf_router_corrupt_responses 209
# HELP cf_router_quarantines_total Backends quarantined after repeated corrupt responses.
# TYPE cf_router_quarantines_total counter
cf_router_quarantines_total 210
# HELP cf_router_backend_up Backend routability as seen by the prober (1 = up, 0 = ejected, draining or quarantined).
# TYPE cf_router_backend_up gauge
cf_router_backend_up{backend="127.0.0.1:1",state="up"} 1
# HELP cf_slo_good_total Finished jobs whose SLO latency met the target.
# TYPE cf_slo_good_total counter
cf_slo_good_total 0
# HELP cf_slo_bad_total Finished jobs whose SLO latency missed the target.
# TYPE cf_slo_bad_total counter
cf_slo_bad_total 0
# HELP cf_slo_error_budget_remaining Fraction of the error budget still unspent (1 = untouched, 0 = exhausted).
# TYPE cf_slo_error_budget_remaining gauge
cf_slo_error_budget_remaining 1.0
# HELP cf_slo_burn_rate_5m Error-budget burn rate over the trailing 5 minutes (1 = burning exactly at budget).
# TYPE cf_slo_burn_rate_5m gauge
cf_slo_burn_rate_5m 0.0
# HELP cf_slo_burn_rate_1h Error-budget burn rate over the trailing hour (1 = burning exactly at budget).
# TYPE cf_slo_burn_rate_1h gauge
cf_slo_burn_rate_1h 0.0
# HELP cf_slo_target_seconds Configured SLO latency target.
# TYPE cf_slo_target_seconds gauge
cf_slo_target_seconds 0.005
# HELP cf_slo_objective Configured SLO availability objective (e.g. 0.99).
# TYPE cf_slo_objective gauge
cf_slo_objective 0.99
"##;
