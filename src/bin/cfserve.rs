//! `cfserve` — serve a manifest of simulation jobs through the
//! cf-runtime pool, streaming JSON-lines results.
//!
//! ```text
//! cfserve <manifest>|- [--workers N] [--cache-capacity N] [--no-cache]
//!         [--retries N] [--fault-seed S] [--fault-spec SPEC]
//!         [--journal PATH] [--resume] [--compact-threshold BYTES]
//!         [--max-inflight N] [--stats-json PATH] [--status-port N]
//!         [--instance NAME] [--listen] [--max-body-bytes N]
//! ```
//!
//! The manifest grammar is documented in `cf_runtime::manifest` (one job
//! per line: `workload=vgg16 machine=f1 repeat=4 …`). Every job becomes
//! one JSON object on stdout, **in manifest order**, carrying only
//! deterministic fields — so two serves of the same manifest produce
//! byte-identical stdout regardless of worker count, cache settings or
//! (when retries mask them) injected faults. Wall-clock timing, the
//! runtime-stats summary and the failure summary go to stderr.
//!
//! `--journal PATH` write-ahead journals every finished job (fsync'd,
//! checksummed JSONL); after a crash, the same command line plus
//! `--resume` skips the journaled jobs and merges their recorded
//! outputs, producing stdout byte-identical to an uninterrupted run.
//! Journals past `--compact-threshold BYTES` (default 1 MiB, `0`
//! disables) are compacted in place: superseded and failed records are
//! dropped, the run-identity header and checksummed framing are
//! preserved, and the merged report is unchanged.
//! `--max-inflight N` sheds over-capacity submissions immediately
//! instead of queueing them unboundedly. `--stats-json PATH` dumps the
//! final runtime counters as one JSON object.
//!
//! `--status-port N` starts a loopback HTTP/1.1 server (port `0` picks
//! a free port, printed to stderr) serving `GET /healthz`, `/stats`,
//! `/trace`, `/metrics` (Prometheus text exposition) and `/version` —
//! plus the **job API**: `POST /jobs` accepts a JSON job spec (the same
//! fields as one manifest line), journals the acceptance durably
//! *before* acknowledging the id, and `GET /jobs/<id>` long-polls the
//! finished record (byte-identical to the record the same manifest line
//! would produce). With `--status-port`, the manifest run and the job
//! API share one worker pool and one stats registry, so `cf_api_*`
//! counters land on the same `/metrics` page. The API's write-ahead
//! journal lives at `<--journal PATH>.api`; `--resume` replays it —
//! completed jobs answer from disk, journaled-but-unanswered accepts
//! re-run under their original ids. A manifest of `-` serves the API
//! only (requires `--status-port`); `--listen` keeps serving the API
//! after the manifest run finishes. `--max-body-bytes N` bounds request
//! bodies (413 beyond it; default 1 MiB). `--instance NAME` sets the
//! `instance` label stamped on every `/metrics` series (default
//! `cf-serve`).
//!
//! **Graceful drain.** In `--listen` / API-only mode, `SIGTERM` or
//! `POST /drain` begins a drain: `/healthz` flips to 503
//! `"status":"draining"` (so a router treats the removal as planned,
//! not failed), new `POST /jobs` submissions are refused, in-flight
//! jobs run to completion and stay pollable, the API journal is
//! fsync'd, and the process exits 0. Rolling restarts behind `cfrouter`
//! lose nothing.
//!
//! Exit codes: `0` all jobs succeeded, `2` bad arguments, `3` manifest
//! or journal validation failed — including resume onto a different
//! manifest or fault seed — (nothing ran), `4` at least one job
//! ultimately failed (after retries). In `--listen` / API-only mode the
//! process serves until killed or drained.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use std::sync::Arc;

use cambricon_f::runtime::api::{JobApi, DEFAULT_MAX_BODY_BYTES};
use cambricon_f::runtime::manifest;
use cambricon_f::runtime::obs::Obs;
use cambricon_f::runtime::serve::{
    render_record_json, serve_manifest, serve_specs_on, JournalOptions, ServeOptions, ServeReport,
    DEFAULT_COMPACT_THRESHOLD,
};
use cambricon_f::runtime::status::StatusServer;
use cambricon_f::runtime::{FaultPlan, FaultSpec, RetryPolicy, Runtime, RuntimeConfig};

/// Span-ring capacity behind `--status-port`'s `/trace` endpoint.
const TRACE_CAPACITY: usize = 4096;

/// How often the listen loop polls for a drain request.
const DRAIN_POLL: std::time::Duration = std::time::Duration::from_millis(100);

/// How often the drain path re-checks the pending-job count.
const DRAIN_SETTLE_POLL: std::time::Duration = std::time::Duration::from_millis(25);

/// SIGTERM-to-drain plumbing: the handler only flips an atomic (the one
/// operation that is async-signal-safe), and the listen loop polls it.
/// Declared against libc's `signal` directly — std already links libc on
/// unix, so this needs no new dependency.
#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    /// Routes SIGTERM into the drain flag instead of immediate death.
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
        }
    }

    /// Whether a SIGTERM has arrived since [`install`].
    pub fn requested() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

const EXIT_BAD_ARGS: u8 = 2;
const EXIT_VALIDATION: u8 = 3;
const EXIT_JOB_FAILED: u8 = 4;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cfserve <manifest>|- [--workers N] [--cache-capacity N] [--no-cache] \\\n\
         \x20              [--retries N] [--fault-seed S] [--fault-spec SPEC] \\\n\
         \x20              [--journal PATH] [--resume] [--compact-threshold BYTES] \\\n\
         \x20              [--max-inflight N] [--stats-json PATH] [--status-port N] \\\n\
         \x20              [--instance NAME] [--listen] [--max-body-bytes N]"
    );
    eprintln!("manifest `-` serves the HTTP job API only (requires --status-port)");
    eprintln!("manifest lines: workload=<name>|program=<file.cfasm> \\");
    eprintln!("    [machine=f1|f100|embedded|tiny] [mode=simulate|exec] [seed=N]");
    eprintln!("    [batch=N] [order=N] [size=small|paper] [repeat=N] [label=TAG]");
    eprintln!("    [profile=true] [trace_json=PATH]");
    eprintln!("fault spec: comma-separated site=rate pairs, e.g.");
    eprintln!(
        "    panic=0.1,corrupt=0.05,latency=0.02,latency_ms=5,expire=0.01,mem=0.001,kill=0.005"
    );
    ExitCode::from(EXIT_BAD_ARGS)
}

/// Streams the report's records to stdout and its summaries to stderr;
/// `Err` carries the exit code.
fn emit_report(
    report: &ServeReport,
    wall: std::time::Duration,
    stats_json: Option<&str>,
) -> Result<(), ExitCode> {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for record in &report.records {
        if writeln!(out, "{}", render_record_json(record)).is_err() {
            return Err(ExitCode::from(EXIT_JOB_FAILED));
        }
    }
    drop(out);

    let snap = &report.stats;
    let submitted = report.records.len();
    eprintln!(
        "cfserve: {submitted} jobs in {:.3}s on {} worker(s) | cache {} hits / {} misses ({:.0}% hit rate) | mean queue wait {:.3}ms",
        wall.as_secs_f64(),
        report.workers,
        snap.cache_hits,
        snap.cache_misses,
        snap.cache_hit_rate() * 100.0,
        if submitted > 0 {
            snap.queue_wait().as_secs_f64() * 1e3 / submitted as f64
        } else {
            0.0
        },
    );
    eprintln!(
        "cfserve: resilience | {} retries, {} corrupt cache hits healed, {} faults injected, {} worker respawns, {} shed",
        snap.retries, snap.cache_corruptions, snap.faults_injected, snap.worker_respawns, snap.shed,
    );
    if snap.shed_jobs > 0 || snap.resumed_jobs > 0 || snap.journal_bytes > 0 {
        eprintln!(
            "cfserve: durability | {} resumed from journal, {} journal bytes written, {} compaction(s) reclaimed {} bytes, {} submissions shed",
            snap.resumed_jobs,
            snap.journal_bytes,
            snap.journal_compactions,
            snap.journal_bytes_reclaimed,
            snap.shed_jobs,
        );
    }
    for (i, w) in snap.per_worker.iter().enumerate() {
        eprintln!("cfserve:   worker {i}: {} job(s), {:.3}s busy", w.jobs, w.busy.as_secs_f64());
    }

    if let Some(path) = stats_json {
        if let Err(e) = std::fs::write(path, snap.render_json() + "\n") {
            eprintln!("cfserve: cannot write {path}: {e}");
            return Err(ExitCode::from(EXIT_JOB_FAILED));
        }
    }

    let failures = report.failures();
    if failures > 0 {
        eprintln!("cfserve: {failures} job(s) failed:");
        for r in report.failed_records() {
            let err = match &r.outcome {
                Err(e) => e.to_string(),
                Ok(_) => continue,
            };
            eprintln!("cfserve:   job {} ({}): {err}", r.index, r.label);
        }
        return Err(ExitCode::from(EXIT_JOB_FAILED));
    }
    Ok(())
}

/// One-line visibility for span-ring overflow: a dropped span means a
/// trace scraped later may be missing events (a `seq` gap marks the
/// spot), which is silent data loss for whoever reads the merged trace.
fn warn_dropped_spans(obs: &Obs) {
    let dropped = obs.tracer().dropped();
    if dropped > 0 {
        eprintln!(
            "cfserve: warning: {dropped} span(s) dropped from the /trace ring (capacity {TRACE_CAPACITY}); merged traces may have seq gaps"
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(manifest_path) = args.first().filter(|a| !a.starts_with("--") || *a == "-") else {
        return usage();
    };
    let api_only = manifest_path == "-";
    let mut opts = ServeOptions::default();
    let mut fault_seed: Option<u64> = None;
    let mut fault_spec: Option<FaultSpec> = None;
    let mut journal_path: Option<String> = None;
    let mut resume = false;
    let mut compact_threshold = DEFAULT_COMPACT_THRESHOLD;
    let mut stats_json: Option<String> = None;
    let mut status_port: Option<u16> = None;
    let mut instance: Option<String> = None;
    let mut listen = false;
    let mut max_body_bytes = DEFAULT_MAX_BODY_BYTES;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--journal" => match it.next() {
                Some(p) => journal_path = Some(p.clone()),
                None => return usage(),
            },
            "--resume" => resume = true,
            "--listen" => listen = true,
            "--compact-threshold" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => compact_threshold = n,
                None => return usage(),
            },
            "--status-port" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => status_port = Some(n),
                None => return usage(),
            },
            "--instance" => match it.next() {
                Some(n) => instance = Some(n.clone()),
                None => return usage(),
            },
            "--max-inflight" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.load.max_in_flight = n,
                None => return usage(),
            },
            "--max-body-bytes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => max_body_bytes = n,
                None => return usage(),
            },
            "--stats-json" => match it.next() {
                Some(p) => stats_json = Some(p.clone()),
                None => return usage(),
            },
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.workers = n,
                None => return usage(),
            },
            "--cache-capacity" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.cache_capacity = n,
                None => return usage(),
            },
            "--no-cache" => opts.cache_capacity = 0,
            "--retries" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.retry = RetryPolicy::retries(n),
                None => return usage(),
            },
            "--fault-seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => fault_seed = Some(s),
                None => return usage(),
            },
            "--fault-spec" => match it.next().map(|v| FaultSpec::parse(v)) {
                Some(Ok(spec)) => fault_spec = Some(spec),
                Some(Err(e)) => {
                    eprintln!("cfserve: --fault-spec: {e}");
                    return ExitCode::from(EXIT_BAD_ARGS);
                }
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if fault_seed.is_some() || fault_spec.is_some() {
        let spec = fault_spec.unwrap_or_else(FaultSpec::chaos);
        opts.fault_plan = Some(FaultPlan::new(fault_seed.unwrap_or(0), spec));
    }
    match &journal_path {
        Some(path) => {
            opts.journal = Some(JournalOptions { path: path.into(), resume, compact_threshold });
        }
        None if resume => {
            eprintln!("cfserve: --resume requires --journal PATH");
            return usage();
        }
        None => {}
    }
    if (api_only || listen) && status_port.is_none() {
        eprintln!("cfserve: manifest `-` / --listen require --status-port");
        return usage();
    }

    // Bind the status server before the run starts so probes can watch
    // the whole lifecycle. The bound address is announced on stderr only
    // after the job API is published below, so a client that scrapes the
    // announce line can POST /jobs immediately.
    let mut _status_server = None;
    let mut obs_handle: Option<Arc<Obs>> = None;
    let mut status_addr = None;
    if let Some(port) = status_port {
        let obs = Obs::new(TRACE_CAPACITY);
        if let Some(name) = &instance {
            obs.set_instance(name);
        }
        match StatusServer::bind(port, Arc::clone(&obs)) {
            Ok(server) => {
                status_addr = Some(server.local_addr());
                _status_server = Some(server);
                obs_handle = Some(Arc::clone(&obs));
                opts.obs = Some(obs);
            }
            Err(e) => {
                eprintln!("cfserve: cannot bind status port {port}: {e}");
                return ExitCode::from(EXIT_BAD_ARGS);
            }
        }
    }

    let text = if api_only {
        String::new()
    } else {
        match std::fs::read_to_string(manifest_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cfserve: cannot read {manifest_path}: {e}");
                return ExitCode::from(EXIT_VALIDATION);
            }
        }
    };
    if !api_only && text.lines().all(|l| l.split('#').next().unwrap_or("").trim().is_empty()) {
        eprintln!("cfserve: {manifest_path}: no jobs");
        return ExitCode::from(EXIT_VALIDATION);
    }

    let t0 = Instant::now();
    if let Some(obs) = obs_handle {
        // Shared-runtime path: the manifest run and the HTTP job API use
        // one pool, one plan cache and one stats registry, so /metrics
        // tells a single story (cf_api_* included) and one single-flight
        // spans both ingestion paths.
        let runtime = Arc::new(Runtime::new(RuntimeConfig {
            workers: opts.workers,
            cache_capacity: opts.cache_capacity,
            retry: opts.retry.clone(),
            breaker: opts.breaker.clone(),
            fault_plan: opts.fault_plan.clone(),
            load: opts.load,
            tracer: Some(Arc::clone(obs.tracer())),
            ..Default::default()
        }));
        obs.publish(runtime.stats_arc(), runtime.load_policy());

        // The API's write-ahead journal rides next to the manifest's.
        let api = match &journal_path {
            Some(path) => {
                let api_path = std::path::PathBuf::from(format!("{path}.api"));
                match JobApi::with_journal(
                    Arc::clone(&runtime),
                    &api_path,
                    resume,
                    compact_threshold,
                    max_body_bytes,
                ) {
                    Ok((api, summary)) => {
                        if summary.replayed > 0 || summary.resubmitted > 0 {
                            eprintln!(
                                "cfserve: api journal | {} job(s) replayed, {} accepted job(s) re-run",
                                summary.replayed, summary.resubmitted,
                            );
                        }
                        api
                    }
                    Err(e) => {
                        eprintln!("cfserve: api journal {}: {e}", api_path.display());
                        return ExitCode::from(EXIT_VALIDATION);
                    }
                }
            }
            None => JobApi::new(Arc::clone(&runtime), max_body_bytes),
        };
        obs.publish_api(Arc::clone(&api));
        if let Some(addr) = status_addr {
            eprintln!(
                "cfserve: status on http://{addr} (GET /healthz /stats /trace /metrics /version, POST /jobs /drain)"
            );
        }

        let mut exit = ExitCode::SUCCESS;
        if !api_only {
            let specs = match manifest::parse_manifest(&text) {
                Ok(specs) => specs,
                Err(e) => {
                    eprintln!("cfserve: {manifest_path}: {e}");
                    return ExitCode::from(EXIT_VALIDATION);
                }
            };
            let report = match serve_specs_on(&specs, &opts, &runtime) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("cfserve: {manifest_path}: {e}");
                    return ExitCode::from(EXIT_VALIDATION);
                }
            };
            if let Err(code) = emit_report(&report, t0.elapsed(), stats_json.as_deref()) {
                exit = code;
            }
        }
        if api_only || listen {
            #[cfg(unix)]
            sigterm::install();
            eprintln!(
                "cfserve: serving the job API until killed or drained (POST /jobs, POST /drain)"
            );
            loop {
                std::thread::sleep(DRAIN_POLL);
                #[cfg(unix)]
                if sigterm::requested() {
                    obs.begin_drain();
                }
                if obs.draining() {
                    // Graceful drain: stop admitting (the status server
                    // already refuses POST /jobs), let in-flight jobs
                    // settle — they stay pollable throughout — then make
                    // the journal durable and exit cleanly.
                    eprintln!("cfserve: draining ({} job(s) pending)", api.pending());
                    while api.pending() > 0 {
                        std::thread::sleep(DRAIN_SETTLE_POLL);
                    }
                    api.sync_journal();
                    warn_dropped_spans(&obs);
                    eprintln!("cfserve: drained; exiting");
                    return exit;
                }
            }
        }
        warn_dropped_spans(&obs);
        return exit;
    }

    // No status server: the classic one-shot manifest path.
    let report = match serve_manifest(&text, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cfserve: {manifest_path}: {e}");
            return ExitCode::from(EXIT_VALIDATION);
        }
    };
    match emit_report(&report, t0.elapsed(), stats_json.as_deref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}
