//! Prometheus text-exposition rendering for the `/metrics` endpoint —
//! the one exposition writer of the crate.
//!
//! [`render`] turns a [`StatsSnapshot`], the run's [`LoadPolicy`] and
//! the live [`Tracer`] (latency histograms, span-drop counter, simulator
//! profile aggregate) into the Prometheus text format, version 0.0.4.
//! The counters and gauges come from the declaration table in
//! [`crate::stats`] through `write_stats`; the histograms, per-worker
//! series, profile aggregate and process-state gauges are written here
//! by hand. The router renders its `cf_router_*` and `cf_slo_*` series
//! through the same `Family` writer.
//!
//! * every series carries the `cf_` prefix; backend series carry an
//!   `instance` label, the router's own series none;
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
use crate::stats::{Stat, StatsSnapshot};

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

/// One metric family under construction.
pub(crate) struct Family<'a> {
    out: &'a mut String,
    name: &'static str,
}

impl<'a> Family<'a> {
    /// Opens a family: writes its `# HELP` and `# TYPE` headers.
    pub(crate) fn new(
        out: &'a mut String,
        name: &'static str,
        kind: &str,
        help: &str,
    ) -> Family<'a> {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        Family { out, name }
    }

    /// Emits one sample with the given labels (values escaped here);
    /// no labels writes a bare `name value` line.
    pub(crate) fn sample(&mut self, labels: &[(&str, &str)], value: &str) {
        self.sample_of("", labels, value);
    }

    /// Emits one sample of the family's `name{suffix}` series (a
    /// histogram's `_bucket`, `_sum` and `_count`).
    fn sample_of(&mut self, suffix: &str, labels: &[(&str, &str)], value: &str) {
        self.out.push_str(self.name);
        self.out.push_str(suffix);
        if !labels.is_empty() {
            let pairs: Vec<String> =
                labels.iter().map(|(k, v)| format!("{k}=\"{}\"", label_escape(v))).collect();
            self.out.push_str(&format!("{{{}}}", pairs.join(",")));
        }
        self.out.push_str(&format!(" {value}\n"));
    }
}

/// Writes one family per declared stat, each sampled from `of` when
/// there is one (without, the headers still declare the family).
pub(crate) fn write_stats<T>(
    out: &mut String,
    stats: &[Stat<T>],
    of: Option<&T>,
    labels: &[(&str, &str)],
) {
    for stat in stats {
        let mut f = Family::new(out, stat.family, stat.kind, stat.help);
        if let Some(of) = of {
            f.sample(labels, &(stat.value)(of).to_string());
        }
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

    // -- The declared counters and gauges ----------------------------------
    write_stats(&mut out, StatsSnapshot::STATS, snap, inst);

    // -- Tracer, process and configuration state ----------------------------
    let state: [(&'static str, &str, &str, Option<String>); 6] = [
        (
            "cf_spans_dropped_total",
            "counter",
            "Span events dropped from the observability ring buffer.",
            Some(tracer.dropped().to_string()),
        ),
        (
            "cf_trace_attached_total",
            "counter",
            "Jobs attached to a distributed trace context.",
            Some(tracer.attached_total().to_string()),
        ),
        (
            "cf_draining",
            "gauge",
            "1 while the instance is draining (stopped admitting, finishing in-flight work).",
            Some(u8::from(draining).to_string()),
        ),
        (
            "cf_uptime_seconds",
            "gauge",
            "Seconds since the runtime started.",
            snap.map(|s| fmt_f64(s.uptime.as_secs_f64())),
        ),
        (
            "cf_max_in_flight",
            "gauge",
            "Admission-control in-flight limit (0 = unlimited).",
            load.map(|l| l.max_in_flight.to_string()),
        ),
        (
            "cf_max_queued_bytes",
            "gauge",
            "Admission-control queued-bytes limit (0 = unlimited).",
            load.map(|l| l.max_queued_bytes.to_string()),
        ),
    ];
    for (name, kind, help, value) in state {
        let mut f = Family::new(&mut out, name, kind, help);
        if let Some(v) = value {
            f.sample(inst, &v);
        }
    }
    let (version, git) = build_info();
    Family::new(
        &mut out,
        "cf_build_info",
        "gauge",
        "Build identity of this instance (constant 1; version and git labels).",
    )
    .sample(&[("instance", instance), ("version", version), ("git", git)], "1");

    // -- Per-worker counters ----------------------------------------------
    type WorkerValue = fn(&crate::stats::WorkerSnapshot) -> String;
    let per_worker: [(&'static str, &'static str, WorkerValue); 2] = [
        ("cf_worker_jobs_total", "Jobs the worker ran.", |w| w.jobs.to_string()),
        ("cf_worker_busy_seconds_total", "Seconds the worker spent in job bodies.", |w| {
            fmt_f64(w.busy.as_secs_f64())
        }),
    ];
    for (name, help, value) in per_worker {
        let mut f = Family::new(&mut out, name, "counter", help);
        for (i, w) in snap.map_or(&[][..], |s| &s.per_worker).iter().enumerate() {
            f.sample(&[("instance", instance), ("worker", &i.to_string())], &value(w));
        }
    }

    // -- Stage latency histograms -----------------------------------------
    let mut f = Family::new(
        &mut out,
        "cf_stage_latency_seconds",
        "histogram",
        "Runtime pipeline-stage latency \
         (queue wait, run, cache lookup, retry backoff, journal append, api request).",
    );
    // One bucket snapshot per stage: `+Inf` and `_count` are both
    // derived from it, so the exposition stays internally consistent
    // even while workers are observing concurrently (reading `count()`
    // separately could disagree with the buckets mid-run).
    let mut stage_totals: Vec<u64> = Vec::with_capacity(STAGES.len());
    for &stage in &STAGES {
        let counts = tracer.histogram(stage).bucket_counts();
        let mut cumulative = 0u64;
        for (i, &c) in counts.iter().enumerate().take(HISTOGRAM_BUCKETS) {
            cumulative += c;
            // Bucket i counts samples in [2^i, 2^(i+1)) µs.
            let le = fmt_f64(f64::powi(2.0, i as i32 + 1) / 1e6);
            let labels = [("instance", instance), ("stage", stage.name()), ("le", &le)];
            f.sample_of("_bucket", &labels, &cumulative.to_string());
        }
        let labels = [("instance", instance), ("stage", stage.name()), ("le", "+Inf")];
        f.sample_of("_bucket", &labels, &cumulative.to_string());
        stage_totals.push(cumulative);
    }
    for (&stage, &total) in STAGES.iter().zip(&stage_totals) {
        let labels = [("instance", instance), ("stage", stage.name())];
        f.sample_of("_sum", &labels, &fmt_f64(tracer.histogram(stage).total().as_secs_f64()));
        f.sample_of("_count", &labels, &total.to_string());
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
        // Every declared counter and gauge is declared even without a
        // snapshot.
        for stat in StatsSnapshot::STATS {
            let header = format!("# TYPE {} {}\n", stat.family, stat.kind);
            assert!(body.contains(&header), "{}:\n{body}", stat.family);
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
