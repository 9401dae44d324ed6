//! Prometheus text-exposition rendering for the `/metrics` endpoint.
//!
//! One renderer turns a [`StatsSnapshot`], the run's [`LoadPolicy`] and
//! the live [`Tracer`] (latency histograms, span-drop counter, simulator
//! profile aggregate) into the Prometheus text format, version 0.0.4:
//!
//! * every series carries the `cf_` prefix and an `instance` label;
//! * counters end in `_total`, durations are seconds, sizes are bytes;
//! * histograms use cumulative `le` buckets derived from the tracer's
//!   power-of-two-microsecond buckets, closed by `+Inf`;
//! * simulator profile series add `machine`, `level` and `stage` labels.
//!
//! `# HELP` and `# TYPE` headers are emitted for every family even when
//! it currently has no samples, so scrapes are schema-stable across the
//! lifetime of a run. See DESIGN.md §8 for the naming convention.

use crate::obs::{Tracer, HISTOGRAM_BUCKETS, STAGES};
use crate::scheduler::LoadPolicy;
use crate::stats::StatsSnapshot;

/// Escapes a label value per the exposition format (`\` → `\\`,
/// `"` → `\"`, newline → `\n`).
fn label_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Appends one sample line: `name{labels} value`.
fn sample_line(out: &mut String, name: &str, labels: &[(&str, &str)], value: &str) {
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{k}=\"{}\"", label_escape(v)));
    }
    out.push_str(&format!("}} {value}\n"));
}

/// One metric family under construction.
struct Family<'a> {
    out: &'a mut String,
    name: &'static str,
}

impl<'a> Family<'a> {
    /// Opens a family: writes its `# HELP` and `# TYPE` headers.
    fn new(out: &'a mut String, name: &'static str, kind: &str, help: &str) -> Family<'a> {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        Family { out, name }
    }

    /// Emits one sample with the given labels (values escaped here).
    fn sample(&mut self, labels: &[(&str, &str)], value: &str) {
        sample_line(self.out, self.name, labels, value);
    }
}

fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

/// The build identity stamped on `cf_build_info` and `/version`:
/// `(crate version, git describe)`. The git half comes from the
/// `CF_GIT_DESCRIBE` compile-time environment variable (injected by CI
/// builds); `"unknown"` when the binary was built without it.
pub fn build_info() -> (&'static str, &'static str) {
    (env!("CARGO_PKG_VERSION"), option_env!("CF_GIT_DESCRIBE").unwrap_or("unknown"))
}

/// Renders the full `/metrics` payload.
///
/// `snap` and `load` are `None` before a runtime has published (the
/// families are still declared, just sample-less); `tracer`-derived
/// series (histograms, span drops, profile aggregate) always render, as
/// does the `cf_draining` gauge (`draining` is process state, not
/// runtime state — a router reads it to tell planned removal from
/// overload).
pub fn render(
    instance: &str,
    snap: Option<&StatsSnapshot>,
    load: Option<LoadPolicy>,
    draining: bool,
    tracer: &Tracer,
) -> String {
    let mut out = String::with_capacity(16 * 1024);
    let inst: &[(&str, &str)] = &[("instance", instance)];

    // -- Runtime counters -------------------------------------------------
    let counters: [(&'static str, &'static str, Option<u64>); 26] = [
        ("cf_jobs_submitted_total", "Jobs accepted into the queue.", snap.map(|s| s.submitted)),
        ("cf_jobs_completed_total", "Jobs finished with Ok.", snap.map(|s| s.completed)),
        ("cf_jobs_failed_total", "Jobs finished with Err.", snap.map(|s| s.failed)),
        ("cf_jobs_cancelled_total", "Jobs cancelled before starting.", snap.map(|s| s.cancelled)),
        (
            "cf_jobs_expired_total",
            "Jobs whose deadline passed in the queue.",
            snap.map(|s| s.expired),
        ),
        ("cf_cache_hits_total", "Plan/report cache hits.", snap.map(|s| s.cache_hits)),
        ("cf_cache_misses_total", "Plan/report cache misses.", snap.map(|s| s.cache_misses)),
        (
            "cf_cache_corruptions_total",
            "Checksum-detected corrupt cache hits.",
            snap.map(|s| s.cache_corruptions),
        ),
        ("cf_retries_total", "Retried supervised attempts.", snap.map(|s| s.retries)),
        ("cf_shed_breaker_total", "Jobs shed by the open circuit breaker.", snap.map(|s| s.shed)),
        (
            "cf_shed_jobs_total",
            "Submissions rejected by admission control.",
            snap.map(|s| s.shed_jobs),
        ),
        (
            "cf_resumed_jobs_total",
            "Jobs answered from a resume journal.",
            snap.map(|s| s.resumed_jobs),
        ),
        (
            "cf_journal_bytes_total",
            "Bytes appended to the serve journal.",
            snap.map(|s| s.journal_bytes),
        ),
        (
            "cf_journal_compactions_total",
            "Serve-journal compactions (resume + live).",
            snap.map(|s| s.journal_compactions),
        ),
        (
            "cf_journal_bytes_reclaimed_total",
            "Bytes reclaimed from the serve journal by compaction.",
            snap.map(|s| s.journal_bytes_reclaimed),
        ),
        (
            "cf_cold_simulate_memo_hits_total",
            "Shape-memo hits across cold (uncached) simulations.",
            snap.map(|s| s.cold_memo_hits),
        ),
        (
            "cf_cold_simulate_memo_misses_total",
            "Shape-memo misses across cold (uncached) simulations.",
            snap.map(|s| s.cold_memo_misses),
        ),
        (
            "cf_cold_simulate_parallel_tasks_total",
            "Cold subtrees fanned out to extra threads by parallel simulation.",
            snap.map(|s| s.cold_parallel_tasks),
        ),
        (
            "cf_cold_step_memo_hits_total",
            "Plan steps cold simulations timed from the step memo.",
            snap.map(|s| s.cold_step_memo_hits),
        ),
        (
            "cf_cold_step_memo_misses_total",
            "Plan steps cold simulations timed child by child.",
            snap.map(|s| s.cold_step_memo_misses),
        ),
        (
            "cf_faults_injected_total",
            "Faults injected by the fault plan.",
            snap.map(|s| s.faults_injected),
        ),
        (
            "cf_worker_respawns_total",
            "Worker loops respawned after an escaped panic.",
            snap.map(|s| s.worker_respawns),
        ),
        (
            "cf_api_accepted_total",
            "Jobs accepted through the HTTP job API.",
            snap.map(|s| s.api_accepted),
        ),
        (
            "cf_api_shed_total",
            "HTTP submissions shed at the front door with 503.",
            snap.map(|s| s.api_shed),
        ),
        (
            "cf_api_coalesced_total",
            "HTTP submissions coalesced onto an identical in-flight job.",
            snap.map(|s| s.api_coalesced),
        ),
        (
            "cf_api_streamed_bytes_total",
            "Result bytes streamed to HTTP clients by GET /jobs/<id>.",
            snap.map(|s| s.api_streamed_bytes),
        ),
    ];
    for (name, help, value) in counters {
        let mut f = Family::new(&mut out, name, "counter", help);
        if let Some(v) = value {
            f.sample(inst, &v.to_string());
        }
    }
    {
        let mut f = Family::new(
            &mut out,
            "cf_queue_wait_seconds_total",
            "counter",
            "Cumulative queue waiting time across jobs.",
        );
        if let Some(s) = snap {
            f.sample(inst, &fmt_f64(s.queue_wait.as_secs_f64()));
        }
    }
    {
        let mut f = Family::new(
            &mut out,
            "cf_spans_dropped_total",
            "counter",
            "Span events dropped from the observability ring buffer.",
        );
        f.sample(inst, &tracer.dropped().to_string());
    }
    {
        let mut f = Family::new(
            &mut out,
            "cf_trace_attached_total",
            "counter",
            "Jobs attached to a distributed trace context.",
        );
        f.sample(inst, &tracer.attached_total().to_string());
    }

    // -- Gauges -----------------------------------------------------------
    let gauges: [(&'static str, &'static str, Option<String>); 7] = [
        (
            "cf_draining",
            "1 while the instance is draining (stopped admitting, finishing in-flight work).",
            Some(if draining { "1" } else { "0" }.to_string()),
        ),
        (
            "cf_in_flight",
            "Jobs accepted into the queue and not yet terminal.",
            snap.map(|s| s.in_flight.to_string()),
        ),
        (
            "cf_queued_bytes",
            "Estimated bytes of queued, not-yet-started work.",
            snap.map(|s| s.queued_bytes.to_string()),
        ),
        (
            "cf_cold_simulate_arena_bytes",
            "High-water plan-buffer bytes retained by any one cold simulation's arena.",
            snap.map(|s| s.cold_arena_bytes.to_string()),
        ),
        (
            "cf_uptime_seconds",
            "Seconds since the runtime started.",
            snap.map(|s| fmt_f64(s.uptime.as_secs_f64())),
        ),
        (
            "cf_max_in_flight",
            "Admission-control in-flight limit (0 = unlimited).",
            load.map(|l| l.max_in_flight.to_string()),
        ),
        (
            "cf_max_queued_bytes",
            "Admission-control queued-bytes limit (0 = unlimited).",
            load.map(|l| l.max_queued_bytes.to_string()),
        ),
    ];
    for (name, help, value) in gauges {
        let mut f = Family::new(&mut out, name, "gauge", help);
        if let Some(v) = value {
            f.sample(inst, &v);
        }
    }
    {
        let mut f = Family::new(
            &mut out,
            "cf_build_info",
            "gauge",
            "Build identity of this instance (constant 1; version and git labels).",
        );
        let (version, git) = build_info();
        f.sample(&[("instance", instance), ("version", version), ("git", git)], "1");
    }

    // -- Per-worker counters ----------------------------------------------
    {
        let mut f =
            Family::new(&mut out, "cf_worker_jobs_total", "counter", "Jobs the worker ran.");
        if let Some(s) = snap {
            for (i, w) in s.per_worker.iter().enumerate() {
                let idx = i.to_string();
                f.sample(&[("instance", instance), ("worker", &idx)], &w.jobs.to_string());
            }
        }
    }
    {
        let mut f = Family::new(
            &mut out,
            "cf_worker_busy_seconds_total",
            "counter",
            "Seconds the worker spent in job bodies.",
        );
        if let Some(s) = snap {
            for (i, w) in s.per_worker.iter().enumerate() {
                let idx = i.to_string();
                f.sample(
                    &[("instance", instance), ("worker", &idx)],
                    &fmt_f64(w.busy.as_secs_f64()),
                );
            }
        }
    }

    // -- Stage latency histograms -----------------------------------------
    let mut stage_totals: Vec<u64> = Vec::with_capacity(STAGES.len());
    {
        out.push_str(concat!(
            "# HELP cf_stage_latency_seconds Runtime pipeline-stage latency ",
            "(queue wait, run, cache lookup, retry backoff, journal append, api request).\n",
            "# TYPE cf_stage_latency_seconds histogram\n",
        ));
        // One bucket snapshot per stage: `+Inf` and `_count` are both
        // derived from it, so the exposition stays internally
        // consistent even while workers are observing concurrently
        // (reading `count()` separately could disagree with the
        // buckets mid-run).
        for &stage in &STAGES {
            let h = tracer.histogram(stage);
            let counts = h.bucket_counts();
            let mut cumulative = 0u64;
            for (i, &c) in counts.iter().enumerate().take(HISTOGRAM_BUCKETS) {
                cumulative += c;
                // Bucket i counts samples in [2^i, 2^(i+1)) µs.
                let le = fmt_f64(f64::powi(2.0, i as i32 + 1) / 1e6);
                sample_line(
                    &mut out,
                    "cf_stage_latency_seconds_bucket",
                    &[("instance", instance), ("stage", stage.name()), ("le", &le)],
                    &cumulative.to_string(),
                );
            }
            sample_line(
                &mut out,
                "cf_stage_latency_seconds_bucket",
                &[("instance", instance), ("stage", stage.name()), ("le", "+Inf")],
                &cumulative.to_string(),
            );
            stage_totals.push(cumulative);
        }
    }
    for (&stage, &total) in STAGES.iter().zip(&stage_totals) {
        let h = tracer.histogram(stage);
        let labels: &[(&str, &str)] = &[("instance", instance), ("stage", stage.name())];
        sample_line(
            &mut out,
            "cf_stage_latency_seconds_sum",
            labels,
            &fmt_f64(h.total().as_secs_f64()),
        );
        sample_line(&mut out, "cf_stage_latency_seconds_count", labels, &total.to_string());
    }

    // -- Simulator profile aggregate ---------------------------------------
    let (jobs, rows) = tracer.profile_aggregate();
    {
        let mut f = Family::new(
            &mut out,
            "cf_profile_jobs_total",
            "counter",
            "Profiled simulation jobs absorbed, per machine.",
        );
        for (machine, n) in &jobs {
            f.sample(&[("instance", instance), ("machine", machine)], &n.to_string());
        }
    }
    {
        let mut f = Family::new(
            &mut out,
            "cf_profile_stage_seconds_total",
            "counter",
            "Simulated busy seconds per hierarchy level and pipeline stage.",
        );
        for r in &rows {
            let level = r.level.to_string();
            for stage in cf_core::PipeStage::ALL {
                f.sample(
                    &[
                        ("instance", instance),
                        ("machine", &r.machine),
                        ("level", &level),
                        ("stage", stage.name()),
                    ],
                    &fmt_f64(r.stage_seconds[stage.index()]),
                );
            }
        }
    }
    type AggValue = fn(&crate::obs::ProfileAgg) -> String;
    let per_level: [(&'static str, &'static str, AggValue); 4] = [
        (
            "cf_profile_traffic_bytes_total",
            "Simulated parent-link traffic per hierarchy level.",
            |r| r.traffic_bytes.to_string(),
        ),
        ("cf_profile_memo_hits_total", "Memoization-table hits per hierarchy level.", |r| {
            r.memo_hits.to_string()
        }),
        ("cf_profile_memo_misses_total", "Memoization-table misses per hierarchy level.", |r| {
            r.memo_misses.to_string()
        }),
        (
            "cf_profile_concat_saved_seconds_total",
            "Simulated seconds saved by pipeline concatenating per level.",
            |r| fmt_f64(r.concat_saved_s),
        ),
    ];
    for (name, help, value) in per_level {
        let mut f = Family::new(&mut out, name, "counter", help);
        for r in &rows {
            let level = r.level.to_string();
            f.sample(
                &[("instance", instance), ("machine", &r.machine), ("level", &level)],
                &value(r),
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{SpanKind, Stage};
    use std::time::Duration;

    #[test]
    fn renders_every_family_without_a_snapshot() {
        let tracer = Tracer::new(8);
        let body = render("t0", None, None, false, &tracer);
        for family in [
            "cf_jobs_submitted_total",
            "cf_spans_dropped_total",
            "cf_in_flight",
            "cf_stage_latency_seconds",
            "cf_profile_stage_seconds_total",
        ] {
            assert!(body.contains(&format!("# TYPE {family} ")), "{family} missing:\n{body}");
            assert!(body.contains(&format!("# HELP {family} ")), "{family} missing:\n{body}");
        }
        // No snapshot → tracer-derived counters still have samples.
        assert!(body.contains("cf_spans_dropped_total{instance=\"t0\"} 0"), "{body}");
        assert!(body.contains("cf_trace_attached_total{instance=\"t0\"} 0"), "{body}");
        // But stats counters have none.
        assert!(!body.contains("cf_jobs_submitted_total{"), "{body}");
        // The api counter families are declared even without a snapshot.
        for family in [
            "cf_api_accepted_total",
            "cf_api_shed_total",
            "cf_api_coalesced_total",
            "cf_api_streamed_bytes_total",
            "cf_cold_simulate_memo_hits_total",
            "cf_cold_simulate_memo_misses_total",
            "cf_cold_simulate_parallel_tasks_total",
            "cf_cold_step_memo_hits_total",
            "cf_cold_step_memo_misses_total",
        ] {
            assert!(body.contains(&format!("# TYPE {family} counter")), "{family}:\n{body}");
        }
        // Build info always has its constant sample.
        let (version, git) = build_info();
        assert!(
            body.contains(&format!(
                "cf_build_info{{instance=\"t0\",version=\"{version}\",git=\"{git}\"}} 1"
            )),
            "{body}"
        );
        // cf_draining is process state: sampled even without a snapshot.
        assert!(body.contains("cf_draining{instance=\"t0\"} 0"), "{body}");
    }

    #[test]
    fn draining_gauge_follows_the_flag() {
        let tracer = Tracer::new(8);
        let body = render("t0", None, None, true, &tracer);
        assert!(body.contains("# TYPE cf_draining gauge"), "{body}");
        assert!(body.contains("cf_draining{instance=\"t0\"} 1"), "{body}");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_closed_by_inf() {
        let tracer = Tracer::new(8);
        tracer.observe(Stage::Run, Duration::from_micros(3)); // bucket 1
        tracer.observe(Stage::Run, Duration::from_micros(3));
        tracer.observe(Stage::Run, Duration::from_micros(1000)); // bucket 9
        let body = render("t0", None, None, false, &tracer);
        // [2^1, 2^2) µs bucket upper bound is 4 µs = 4e-6 s.
        assert!(
            body.contains(
                "cf_stage_latency_seconds_bucket{instance=\"t0\",stage=\"run\",le=\"4e-6\"} 2"
            ),
            "{body}"
        );
        assert!(
            body.contains(
                "cf_stage_latency_seconds_bucket{instance=\"t0\",stage=\"run\",le=\"+Inf\"} 3"
            ),
            "{body}"
        );
        assert!(
            body.contains("cf_stage_latency_seconds_count{instance=\"t0\",stage=\"run\"} 3"),
            "{body}"
        );
        let sum_line = body
            .lines()
            .find(|l| l.starts_with("cf_stage_latency_seconds_sum{instance=\"t0\",stage=\"run\"}"))
            .map(str::to_string);
        let sum_line = match sum_line {
            Some(l) => l,
            None => panic!("missing sum line:\n{body}"),
        };
        let value: f64 = match sum_line.rsplit(' ').next().map(str::parse) {
            Some(Ok(v)) => v,
            other => panic!("bad sum sample {other:?}: {sum_line}"),
        };
        assert!((value - 1006e-6).abs() < 1e-9, "{sum_line}");
    }

    #[test]
    fn profile_rows_label_machine_level_stage() {
        let tracer = Tracer::new(8);
        let machine = cf_core::Machine::new(cf_core::MachineConfig::cambricon_f1());
        let mut b = cf_isa::ProgramBuilder::new();
        let a = b.alloc("a", vec![256, 256]);
        let w = b.alloc("w", vec![256, 256]);
        let _ = match b.apply(cf_isa::Opcode::MatMul, [a, w]) {
            Ok(ids) => ids,
            Err(e) => panic!("{e}"),
        };
        let program = b.build();
        let (_, report) = match machine.simulate_profiled(&program, 8) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        };
        tracer.absorb_profile("Cambricon-F1", &report);
        let body = render("t0", None, None, false, &tracer);
        assert!(
            body.contains("cf_profile_jobs_total{instance=\"t0\",machine=\"Cambricon-F1\"} 1"),
            "{body}"
        );
        assert!(
            body.contains(
                "cf_profile_stage_seconds_total{instance=\"t0\",machine=\"Cambricon-F1\",level=\"0\",stage=\"ex\"}"
            ),
            "{body}"
        );
        assert!(
            body.contains(
                "cf_profile_memo_hits_total{instance=\"t0\",machine=\"Cambricon-F1\",level=\"0\"}"
            ),
            "{body}"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let tracer = Tracer::new(2);
        tracer.record(SpanKind::JobSubmit, 1, None, String::new);
        tracer.record(SpanKind::JobSubmit, 2, None, String::new);
        tracer.record(SpanKind::JobSubmit, 3, None, String::new); // drops one
        let body = render("a\"b\\c\nd", None, None, false, &tracer);
        assert!(body.contains("instance=\"a\\\"b\\\\c\\nd\""), "{body}");
        assert!(body.contains("cf_spans_dropped_total{instance=\"a\\\"b\\\\c\\nd\"} 1"), "{body}");
    }
}
