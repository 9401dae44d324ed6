//! Crash-recovery and overload integration tests: a serve run aborted
//! mid-flight by the crash drill resumes from its journal into a report
//! byte-identical to an uninterrupted run (with and without injected
//! faults); resume onto a different run is refused naming the mismatched
//! field; a torn journal tail is recovered, not fatal; and sustained
//! over-capacity submission sheds instead of blocking, with every shed
//! job retried to completion or surfaced in the failure summary.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use cf_runtime::manifest::{self, JobKind, JobSpec};
use cf_runtime::serve::{
    render_record_json, serve_manifest, JournalOptions, ServeError, ServeOptions,
};
use cf_runtime::{
    CacheKey, FaultPlan, FaultSite, FaultSpec, JobError, JobOptions, JournalError, LoadPolicy,
    RetryPolicy, Runtime, RuntimeConfig,
};

/// The repo's example manifest (19 jobs), program paths made absolute so
/// the test is independent of the working directory.
fn manifest_text() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = format!("{root}/assets/serve.jobs");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    text.replace("program=assets/", &format!("program={root}/assets/"))
}

/// A fresh journal path, unique per process and call.
fn journal_path(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cf-recovery-{tag}-{}-{seq}.wal", std::process::id()))
}

fn rendered(report: &cf_runtime::ServeReport) -> Vec<String> {
    report.records.iter().map(render_record_json).collect()
}

/// Same seed search as the chaos test: at least one predicted panic and
/// repeated-key corruption, every job survivable within 4 retries.
fn chaos_seed(specs: &[JobSpec]) -> u64 {
    let mut repeated_key_tokens = Vec::new();
    let mut jobs = 0u64;
    for spec in specs {
        if spec.repeat >= 2 && spec.kind == JobKind::Simulate {
            let program =
                manifest::resolve_program(&spec.source).unwrap_or_else(|e| panic!("resolve: {e}"));
            let cfg = manifest::machine_by_name(&spec.machine)
                .unwrap_or_else(|| panic!("machine {}", spec.machine));
            let key = CacheKey::new(&cfg, &program);
            repeated_key_tokens.push(key.machine ^ key.program.rotate_left(32));
        }
        jobs += spec.repeat as u64;
    }
    for seed in 0..10_000u64 {
        let plan = FaultPlan::new(seed, FaultSpec::chaos());
        let panics = (0..jobs).any(|id| plan.fires(FaultSite::WorkerPanic, id, 0));
        let corrupts =
            repeated_key_tokens.iter().any(|&t| plan.fires(FaultSite::CacheCorrupt, t, 0));
        let survivable =
            (0..jobs).all(|id| (0..=4).any(|a| !plan.fires(FaultSite::WorkerPanic, id, a)));
        if panics && corrupts && survivable {
            return seed;
        }
    }
    panic!("no suitable chaos seed in 0..10000");
}

fn chaos_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 4,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        total_deadline: None,
    }
}

/// Runs the crash drill at `abort_after` jobs, then resumes from the
/// journal and returns the merged report.
fn crash_then_resume(
    text: &str,
    base: &ServeOptions,
    path: &std::path::Path,
    abort_after: usize,
) -> cf_runtime::ServeReport {
    crash_then_resume_ct(text, base, path, abort_after, 0)
}

/// [`crash_then_resume`] with an explicit compaction threshold applied
/// to the resume leg (0 disables compaction).
fn crash_then_resume_ct(
    text: &str,
    base: &ServeOptions,
    path: &std::path::Path,
    abort_after: usize,
    compact_threshold: u64,
) -> cf_runtime::ServeReport {
    let crash_opts = ServeOptions {
        journal: Some(JournalOptions {
            path: path.to_path_buf(),
            resume: false,
            compact_threshold: 0,
        }),
        abort_after_jobs: Some(abort_after),
        ..base.clone()
    };
    match serve_manifest(text, &crash_opts) {
        Err(ServeError::Aborted { journaled }) => assert_eq!(journaled, abort_after),
        other => panic!("crash drill should abort, got {other:?}"),
    }

    let resume_opts = ServeOptions {
        journal: Some(JournalOptions { path: path.to_path_buf(), resume: true, compact_threshold }),
        ..base.clone()
    };
    serve_manifest(text, &resume_opts).unwrap_or_else(|e| panic!("resume: {e}"))
}

#[test]
fn crash_resume_merges_a_byte_identical_report() {
    let text = manifest_text();
    let base = ServeOptions { workers: 4, ..Default::default() };
    let clean = serve_manifest(&text, &base).unwrap_or_else(|e| panic!("clean: {e}"));
    assert_eq!(clean.failures(), 0);

    let path = journal_path("clean");
    let resumed = crash_then_resume(&text, &base, &path, 7);

    assert_eq!(resumed.stats.resumed_jobs, 7, "exactly the journaled prefix is skipped");
    assert_eq!(resumed.failures(), 0);
    assert!(resumed.stats.journal_bytes > 0);
    assert_eq!(rendered(&resumed), rendered(&clean), "resumed stdout must be byte-identical");
    std::fs::remove_file(&path).ok();
}

#[test]
fn crash_resume_is_byte_identical_under_fault_injection() {
    let text = manifest_text();
    let specs = manifest::parse_manifest(&text).unwrap_or_else(|e| panic!("parse: {e}"));
    let seed = chaos_seed(&specs);

    let clean = serve_manifest(&text, &ServeOptions { workers: 4, ..Default::default() })
        .unwrap_or_else(|e| panic!("clean: {e}"));
    let base = ServeOptions {
        workers: 4,
        retry: chaos_retry(),
        fault_plan: Some(FaultPlan::new(seed, FaultSpec::chaos())),
        ..Default::default()
    };
    let path = journal_path("chaos");
    let resumed = crash_then_resume(&text, &base, &path, 9);

    assert_eq!(resumed.stats.resumed_jobs, 9, "seed {seed}");
    assert_eq!(resumed.failures(), 0, "retries must mask faults in the resumed half (seed {seed})");
    assert_eq!(
        rendered(&resumed),
        rendered(&clean),
        "journal replay + fresh chaos runs must merge byte-identical (seed {seed})"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_onto_a_different_manifest_or_seed_is_refused() {
    let text = manifest_text();
    let base = ServeOptions { workers: 2, ..Default::default() };
    let path = journal_path("mismatch");
    let crash_opts = ServeOptions {
        journal: Some(JournalOptions { path: path.clone(), resume: false, compact_threshold: 0 }),
        abort_after_jobs: Some(3),
        ..base.clone()
    };
    assert!(matches!(serve_manifest(&text, &crash_opts), Err(ServeError::Aborted { .. })));

    // A manifest edit (one extra job) changes the run identity.
    let edited = format!("{text}workload=matmul order=64 label=extra\n");
    let resume = |manifest: &str, opts: &ServeOptions| {
        serve_manifest(
            manifest,
            &ServeOptions {
                journal: Some(JournalOptions {
                    path: path.clone(),
                    resume: true,
                    compact_threshold: 0,
                }),
                ..opts.clone()
            },
        )
    };
    match resume(&edited, &base) {
        Err(ServeError::Journal(e @ JournalError::Mismatch { field, .. })) => {
            assert_eq!(field, "manifest fingerprint");
            assert!(e.to_string().contains("manifest fingerprint"), "{e}");
        }
        other => panic!("expected manifest mismatch, got {other:?}"),
    }

    // Same manifest, different fault seed: also a different run.
    let seeded = ServeOptions {
        fault_plan: Some(FaultPlan::new(1234, FaultSpec::chaos())),
        retry: chaos_retry(),
        ..base.clone()
    };
    match resume(&text, &seeded) {
        Err(ServeError::Journal(JournalError::Mismatch { field, .. })) => {
            assert_eq!(field, "fault_seed");
        }
        other => panic!("expected fault_seed mismatch, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn torn_journal_tail_is_recovered_not_fatal() {
    let text = manifest_text();
    let base = ServeOptions { workers: 2, ..Default::default() };
    let clean = serve_manifest(&text, &base).unwrap_or_else(|e| panic!("clean: {e}"));

    let path = journal_path("torn");
    let crash_opts = ServeOptions {
        journal: Some(JournalOptions { path: path.clone(), resume: false, compact_threshold: 0 }),
        abort_after_jobs: Some(5),
        ..base.clone()
    };
    assert!(matches!(serve_manifest(&text, &crash_opts), Err(ServeError::Aborted { .. })));

    // A torn final write: garbage with no trailing newline.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"crc\":\"0000deadbeef0000\",\"rec\":{\"type\":\"job\",\"ind").unwrap();
    }

    let resumed = serve_manifest(
        &text,
        &ServeOptions {
            journal: Some(JournalOptions {
                path: path.clone(),
                resume: true,
                compact_threshold: 0,
            }),
            ..base.clone()
        },
    )
    .unwrap_or_else(|e| panic!("resume after torn tail must succeed: {e}"));
    assert_eq!(resumed.stats.resumed_jobs, 5, "torn tail dropped, intact prefix replayed");
    assert_eq!(resumed.failures(), 0);
    assert_eq!(rendered(&resumed), rendered(&clean));
    std::fs::remove_file(&path).ok();
}

#[test]
fn overload_sheds_then_retries_every_job_to_completion() {
    let text = "workload=matmul order=64 repeat=8\n";
    let opts = ServeOptions {
        workers: 2,
        retry: RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
            total_deadline: None,
        },
        load: LoadPolicy::max_in_flight(1),
        ..Default::default()
    };
    let report = serve_manifest(text, &opts).unwrap_or_else(|e| panic!("serve: {e}"));
    assert_eq!(report.records.len(), 8);
    assert_eq!(report.failures(), 0, "every shed submission must be retried to completion");
    assert!(
        report.stats.shed_jobs >= 1,
        "sustained over-capacity submission must shed (shed_jobs = {})",
        report.stats.shed_jobs
    );
}

#[test]
fn shed_error_carries_structured_queue_context() {
    // One byte of queue budget is below any job's cost, so admission
    // rejects deterministically regardless of worker timing.
    let runtime = Runtime::new(RuntimeConfig {
        workers: 1,
        load: LoadPolicy { max_queued_bytes: 1, ..Default::default() },
        ..Default::default()
    });
    let job =
        manifest::resolve(&manifest::parse_manifest("workload=matmul order=64\n").unwrap()[0])
            .unwrap();
    let err = match runtime.submit_job(JobOptions::default(), &job) {
        Err(err @ JobError::Shed { limit, in_flight, queued_bytes }) => {
            assert_eq!(limit, "queued-bytes");
            assert_eq!(in_flight, 0);
            assert_eq!(queued_bytes, 0, "nothing was queued when the submission was rejected");
            err
        }
        other => panic!("expected queued-bytes shed, got {other:?}"),
    };
    // A shed is transient (the caller may retry), and the gauges never
    // counted the rejected job.
    assert!(err.is_transient(), "{err}");
    assert_eq!(runtime.in_flight(), 0);
    assert_eq!(runtime.queued_bytes(), 0);
    assert_eq!(runtime.stats().snapshot().shed_jobs, 1);
    runtime.shutdown();
}

#[test]
fn terminal_shed_lands_in_the_failure_summary() {
    // Queue budget below one job's cost: every submission sheds, there is
    // never a pending job to settle, and the retry budget runs out — the
    // shed becomes the job's terminal outcome instead of a hang.
    let opts = ServeOptions {
        workers: 1,
        retry: RetryPolicy {
            max_retries: 1,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(1),
            total_deadline: None,
        },
        load: LoadPolicy { max_queued_bytes: 1, ..Default::default() },
        ..Default::default()
    };
    let report = serve_manifest("workload=matmul order=64 label=doomed\n", &opts)
        .unwrap_or_else(|e| panic!("serve must degrade gracefully, not error: {e}"));
    assert_eq!(report.failures(), 1);
    let record = &report.records[0];
    assert!(
        matches!(record.outcome, Err(JobError::Shed { limit: "queued-bytes", .. })),
        "{:?}",
        record.outcome
    );
    assert!(report.stats.shed_jobs >= 2, "initial try and the retry both shed");
    let line = render_record_json(record);
    assert!(line.contains("\"ok\":false") && line.contains("job shed"), "{line}");
}

#[test]
fn resume_onto_a_truncated_header_reports_the_byte_offset() {
    // A crash can tear the very first journal write: the file ends
    // mid-way through the run-identity header, before any newline.
    let text = "workload=matmul order=64 repeat=2\n";
    let path = journal_path("torn-header");
    let torn = b"{\"crc\":\"7d61aa00bb11cc22\",\"rec\":{\"type\":\"header\",\"vers";
    std::fs::write(&path, torn).unwrap();

    let opts = ServeOptions {
        workers: 1,
        journal: Some(JournalOptions { path: path.clone(), resume: true, compact_threshold: 0 }),
        ..Default::default()
    };
    match serve_manifest(text, &opts) {
        Err(ServeError::Journal(e @ JournalError::TruncatedHeader { offset, .. })) => {
            assert_eq!(offset, torn.len() as u64, "offset must be where the file ends");
            let msg = e.to_string();
            assert!(msg.contains("truncated run-identity header"), "{msg}");
            assert!(msg.contains(&format!("byte offset {}", torn.len())), "{msg}");
        }
        other => panic!("expected TruncatedHeader, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_compaction_is_byte_identical_and_counted() {
    let text = manifest_text();
    let base = ServeOptions { workers: 4, ..Default::default() };
    let clean = serve_manifest(&text, &base).unwrap_or_else(|e| panic!("clean: {e}"));

    // Threshold of 1 byte: any journaled prefix triggers compaction on
    // resume, and the live run keeps compacting whenever failed entries
    // leave reclaimable bytes behind.
    let path = journal_path("compact-clean");
    let resumed = crash_then_resume_ct(&text, &base, &path, 7, 1);

    assert_eq!(resumed.stats.resumed_jobs, 7);
    assert_eq!(resumed.failures(), 0);
    assert!(
        resumed.stats.journal_compactions >= 1,
        "resume past the threshold must compact (got {})",
        resumed.stats.journal_compactions
    );
    assert_eq!(rendered(&resumed), rendered(&clean), "compaction must not change the report");

    // The compacted file is still a valid journal: resuming again (all
    // jobs already journaled) replays every record byte-identically.
    let replayed = serve_manifest(
        &text,
        &ServeOptions {
            journal: Some(JournalOptions {
                path: path.clone(),
                resume: true,
                compact_threshold: 1,
            }),
            ..base.clone()
        },
    )
    .unwrap_or_else(|e| panic!("second resume: {e}"));
    assert_eq!(replayed.stats.resumed_jobs as usize, replayed.records.len());
    assert_eq!(rendered(&replayed), rendered(&clean));
    std::fs::remove_file(&path).ok();
}

#[test]
fn compaction_under_chaos_stays_byte_identical() {
    let text = manifest_text();
    let specs = manifest::parse_manifest(&text).unwrap_or_else(|e| panic!("parse: {e}"));
    let seed = chaos_seed(&specs);

    let clean = serve_manifest(&text, &ServeOptions { workers: 4, ..Default::default() })
        .unwrap_or_else(|e| panic!("clean: {e}"));
    let base = ServeOptions {
        workers: 4,
        retry: chaos_retry(),
        fault_plan: Some(FaultPlan::new(seed, FaultSpec::chaos())),
        ..Default::default()
    };
    let path = journal_path("compact-chaos");
    let resumed = crash_then_resume_ct(&text, &base, &path, 9, 1);

    assert_eq!(resumed.stats.resumed_jobs, 9, "seed {seed}");
    assert_eq!(resumed.failures(), 0, "seed {seed}");
    assert!(resumed.stats.journal_compactions >= 1, "seed {seed}");
    assert_eq!(
        rendered(&resumed),
        rendered(&clean),
        "compaction under injected faults must not change the merged report (seed {seed})"
    );
    std::fs::remove_file(&path).ok();
}
