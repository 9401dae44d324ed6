//! The manifest-serving engine behind the `cfserve` binary.
//!
//! Lives in the library (rather than the binary) so the chaos tests can
//! drive the *exact* production path — parse, resolve, submit, join in
//! submission order, render JSON — and assert byte-identical output
//! between fault-free and fault-injected runs. Each line resolves through
//! [`manifest::resolve`] and each of its repeats runs through
//! [`Runtime::submit_job`], the path the HTTP job API takes too.
//!
//! Output determinism: every [`JobRecord`] carries only fields that are
//! pure functions of the manifest (no wall-clock, no cache-hit flags, no
//! worker identities), so [`render_record_json`] of the same manifest is
//! byte-identical across worker counts, cache settings and — because
//! supervised retries and checksum-verified cache fills mask transient
//! faults — across seeded fault plans whose faults all heal.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cf_core::Machine;
use serde_json::Value;

use crate::cache::CacheKey;
use crate::fault::{fnv1a, FaultPlan};
pub use crate::job::JobOutput;
use crate::job::{JobError, JobHandle, JobOptions};
use crate::journal::{JobEntry, Journal, JournalError, RunHeader, JOURNAL_VERSION};
use crate::manifest::{self, Job, JobKind, JobSpec, ManifestError};
use crate::obs::{Obs, SpanKind, Stage, Tracer};
use crate::scheduler::{JobDone, LoadPolicy, Runtime, RuntimeConfig};
use crate::stats::StatsSnapshot;
use crate::supervisor::{next_retry, BreakerConfig, RetryPolicy};

/// Default [`JournalOptions::compact_threshold`]: 1 MiB.
pub const DEFAULT_COMPACT_THRESHOLD: u64 = 1 << 20;

/// Where to journal a serve run, and whether to resume from it.
#[derive(Debug, Clone)]
pub struct JournalOptions {
    /// The journal file (created/truncated unless resuming).
    pub path: PathBuf,
    /// Resume: verify the journal's header against the current run, skip
    /// jobs it already records and replay their outcomes.
    pub resume: bool,
    /// Compact the journal — rewrite it without failed entries and torn
    /// tails — once its on-disk size reaches this many bytes, both on
    /// resume and live after appends (0 disables;
    /// [`DEFAULT_COMPACT_THRESHOLD`] by default).
    pub compact_threshold: u64,
}

impl JournalOptions {}

/// How to run a manifest.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Plan/report cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// Retry policy for the supervised jobs.
    pub retry: RetryPolicy,
    /// Circuit-breaker thresholds (disabled by default).
    pub breaker: BreakerConfig,
    /// Deterministic fault-injection plan (`None` = no injection).
    pub fault_plan: Option<FaultPlan>,
    /// Write-ahead journal for crash-consistent resume (`None` = off).
    pub journal: Option<JournalOptions>,
    /// Admission-control limits forwarded to the runtime.
    pub load: LoadPolicy,
    /// Crash drill: abort the run (as `ServeError::Aborted`) after this
    /// many jobs have settled, leaving the journal exactly as a process
    /// crash at that point would. Test/ops hook; `None` in production.
    pub abort_after_jobs: Option<usize>,
    /// Observability hub: when set, the run records spans into the hub's
    /// tracer and publishes its live stats + load limits so the HTTP
    /// status server can answer `/healthz`, `/stats` and `/trace` while
    /// the run is in flight.
    pub obs: Option<Arc<Obs>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            cache_capacity: 256,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            fault_plan: None,
            journal: None,
            load: LoadPolicy::default(),
            abort_after_jobs: None,
            obs: None,
        }
    }
}

/// Why a serve run did not produce a report.
#[derive(Debug)]
pub enum ServeError {
    /// The manifest failed validation (nothing ran).
    Manifest(ManifestError),
    /// The journal could not be created, resumed or appended to.
    Journal(JournalError),
    /// The configured [`ServeOptions::abort_after_jobs`] crash drill
    /// fired.
    Aborted {
        /// Jobs settled (and journaled, when a journal is on) before the
        /// abort.
        journaled: usize,
    },
    /// Writing a `trace_json=` per-job Chrome trace file failed.
    Trace {
        /// The requested output path.
        path: String,
        /// The underlying message.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Manifest(e) => write!(f, "{e}"),
            ServeError::Journal(e) => write!(f, "{e}"),
            ServeError::Aborted { journaled } => {
                write!(f, "run aborted by crash drill after {journaled} job(s)")
            }
            ServeError::Trace { path, message } => {
                write!(f, "trace file `{path}`: {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Manifest(e) => Some(e),
            ServeError::Journal(e) => Some(e),
            ServeError::Aborted { .. } | ServeError::Trace { .. } => None,
        }
    }
}

impl From<ManifestError> for ServeError {
    fn from(e: ManifestError) -> Self {
        ServeError::Manifest(e)
    }
}

impl From<JournalError> for ServeError {
    fn from(e: JournalError) -> Self {
        ServeError::Journal(e)
    }
}

/// One job's result, in submission (= manifest) order.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Submission index (0-based, manifest order).
    pub index: usize,
    /// The spec's output tag.
    pub label: String,
    /// The spec's machine name.
    pub machine: String,
    /// `"simulate"` or `"exec"`.
    pub mode: &'static str,
    /// The payload, or why the job ultimately failed.
    pub outcome: Result<JobOutput, JobError>,
}

/// Everything a serve run produced.
#[derive(Debug)]
pub struct ServeReport {
    /// Per-job records in submission order.
    pub records: Vec<JobRecord>,
    /// Runtime counters at the end of the run.
    pub stats: StatsSnapshot,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time from first submission to last join.
    pub wall: Duration,
}

impl ServeReport {
    /// Jobs whose outcome is an error.
    pub fn failures(&self) -> usize {
        self.records.iter().filter(|r| r.outcome.is_err()).count()
    }

    /// The failed records (submission order).
    pub fn failed_records(&self) -> impl Iterator<Item = &JobRecord> {
        self.records.iter().filter(|r| r.outcome.is_err())
    }
}

/// Derives the run-identity header the journal binds to: a fingerprint
/// of the expanded job list (labels, machine fingerprints, program
/// content hashes, modes, exec seeds), the machine set, and the fault
/// plan. Everything a job's deterministic output depends on.
fn compute_run_header(flat: &[&Job], opts: &ServeOptions) -> RunHeader {
    let mut manifest_src = String::new();
    let mut machines_src = String::new();
    for (i, job) in flat.iter().enumerate() {
        let key = job.cache_key.unwrap_or_else(|| CacheKey::new(&job.machine, &job.program));
        let seed = match job.kind {
            JobKind::Exec { seed } => seed.to_string(),
            JobKind::Simulate => "-".to_string(),
        };
        manifest_src.push_str(&format!(
            "{i}|{}|{}|{:016x}|{:016x}|{}|{seed}\n",
            job.label,
            job.machine_name,
            key.machine,
            key.program,
            job.mode(),
        ));
        machines_src.push_str(&job.machine.fingerprint_hex());
        machines_src.push('\n');
    }
    let (fault_seed, fault_spec) = match &opts.fault_plan {
        Some(plan) => (Some(plan.seed()), fnv1a(plan.spec().render().as_bytes())),
        None => (None, 0),
    };
    RunHeader {
        version: JOURNAL_VERSION,
        manifest: fnv1a(manifest_src.as_bytes()),
        machines: fnv1a(machines_src.as_bytes()),
        fault_seed,
        fault_spec,
        jobs: flat.len() as u64,
    }
}

/// The mutable per-run state the settle path threads through: outcomes
/// by index, the journal, and the crash-drill countdown.
struct RunState<'a> {
    flat: &'a [&'a Job],
    runtime: &'a Runtime,
    outcomes: Vec<Option<Result<JobOutput, JobError>>>,
    journal: Option<Journal>,
    abort_after: Option<usize>,
    settled_fresh: usize,
    compact_threshold: u64,
    compactions: u64,
    bytes_reclaimed: u64,
}

impl RunState<'_> {
    /// Joins and records one freshly-run job, journaling it durably
    /// before the outcome becomes visible in the report (write-ahead
    /// order), then fires the crash drill if its countdown reached zero.
    ///
    /// A profiled job that asked for `trace_json=` also writes its
    /// Chrome trace file.
    fn settle(&mut self, index: usize, handle: JobHandle<JobDone>) -> Result<(), ServeError> {
        let job = self.flat[index];
        let outcome = self.runtime.join_job(job, handle).map(|done| done.output);
        let profiled_ok = job.profile && outcome.is_ok();
        self.record(index, outcome)?;
        if let Some(path) = job.trace_json.as_ref().filter(|_| profiled_ok) {
            write_job_trace(path, job, self.runtime.tracer())?;
        }
        Ok(())
    }

    fn record(
        &mut self,
        index: usize,
        outcome: Result<JobOutput, JobError>,
    ) -> Result<(), ServeError> {
        if let Some(journal) = &mut self.journal {
            let job = &self.flat[index];
            let t0 = Instant::now();
            journal.append(&JobEntry {
                index: index as u64,
                label: job.label.clone(),
                machine: job.machine_name.clone(),
                mode: job.mode(),
                outcome: outcome.clone().map_err(|e| e.to_string()),
            })?;
            let elapsed = t0.elapsed();
            let tracer = self.runtime.tracer();
            tracer.observe(Stage::JournalAppend, elapsed);
            let ok = outcome.is_ok();
            tracer.record(SpanKind::JournalAppend, index as u64, Some(elapsed), || {
                format!("ok={ok}")
            });
            if let Some(stats) = journal.maybe_compact(self.compact_threshold)? {
                self.compactions += 1;
                self.bytes_reclaimed += stats.reclaimed();
                tracer.record(SpanKind::JournalCompact, index as u64, None, || {
                    format!(
                        "live bytes {}->{} dropped={}",
                        stats.bytes_before, stats.bytes_after, stats.dropped
                    )
                });
            }
        }
        self.outcomes[index] = Some(outcome);
        self.settled_fresh += 1;
        if self.abort_after.is_some_and(|n| self.settled_fresh >= n) {
            return Err(ServeError::Aborted { journaled: self.settled_fresh });
        }
        Ok(())
    }
}

/// Parses `text` and runs every job it describes.
///
/// # Errors
///
/// Grammar, machine-resolution and program-resolution errors — all
/// *validation* failures, surfaced before any job runs — plus journal
/// create/resume failures (including [`JournalError::Mismatch`] when
/// resuming onto a different run). Individual job failures do **not**
/// error here: they become `Err` outcomes in the report (graceful
/// degradation).
pub fn serve_manifest(text: &str, opts: &ServeOptions) -> Result<ServeReport, ServeError> {
    let specs = manifest::parse_manifest(text)?;
    serve_specs(&specs, opts)
}

/// [`serve_manifest`] for already-parsed specs.
///
/// # Errors
///
/// Machine-/program-resolution and journal failures; see
/// [`serve_manifest`].
pub fn serve_specs(specs: &[JobSpec], opts: &ServeOptions) -> Result<ServeReport, ServeError> {
    let tracer = match &opts.obs {
        Some(obs) => Arc::clone(obs.tracer()),
        None => Arc::new(Tracer::disabled()),
    };
    let runtime = Runtime::new(RuntimeConfig {
        workers: opts.workers,
        cache_capacity: opts.cache_capacity,
        retry: opts.retry.clone(),
        breaker: opts.breaker.clone(),
        fault_plan: opts.fault_plan.clone(),
        load: opts.load,
        tracer: Some(tracer),
        ..Default::default()
    });
    // Publish the live counters and load limits so a status server can
    // answer /healthz and /stats while the run is in flight.
    if let Some(obs) = &opts.obs {
        obs.publish(runtime.stats_arc(), runtime.load_policy());
    }
    let result = serve_specs_on(specs, opts, &runtime);
    runtime.shutdown();
    result
}

/// [`serve_specs`] on an externally-owned runtime: the caller constructs
/// the pool (and publishes it to its [`Obs`] hub), this function only
/// submits/joins/journals, and the pool stays alive afterwards — the
/// shape `cfserve --listen` needs to share one pool (and one stats
/// registry) between the manifest run and the HTTP job API.
///
/// # Errors
///
/// Machine-/program-resolution and journal failures; see
/// [`serve_manifest`].
pub fn serve_specs_on(
    specs: &[JobSpec],
    opts: &ServeOptions,
    runtime: &Runtime,
) -> Result<ServeReport, ServeError> {
    // Resolve every spec up front so validation errors abort before any
    // job runs; a spec's repeats share its one resolved job.
    let jobs = specs.iter().map(manifest::resolve).collect::<Result<Vec<Job>, _>>()?;
    let flat: Vec<&Job> = specs
        .iter()
        .zip(&jobs)
        .flat_map(|(spec, job)| std::iter::repeat_n(job, spec.repeat))
        .collect();

    let tracer = runtime.tracer();

    // Journal setup before any job runs: a resume that fails header
    // verification must abort without submitting anything.
    let header = compute_run_header(&flat, opts);
    let mut replayed: HashMap<u64, JobEntry> = HashMap::new();
    let mut resume_compactions = 0u64;
    let mut resume_reclaimed = 0u64;
    let journal = match &opts.journal {
        Some(j) if j.resume => {
            let (journal, recovery) = Journal::resume_opts(&j.path, &header, j.compact_threshold)?;
            if let Some(stats) = recovery.compaction {
                resume_compactions = 1;
                resume_reclaimed = stats.reclaimed();
                tracer.record(SpanKind::JournalCompact, 0, None, || {
                    format!(
                        "resume bytes {}->{} dropped={}",
                        stats.bytes_before, stats.bytes_after, stats.dropped
                    )
                });
            }
            for entry in recovery.entries {
                replayed.insert(entry.index, entry);
            }
            Some(journal)
        }
        Some(j) => Some(Journal::create(&j.path, &header)?),
        None => None,
    };

    let workers = runtime.worker_count();
    let t0 = Instant::now();

    let resumed = replayed.len() as u64;
    let mut state = RunState {
        flat: &flat,
        runtime,
        outcomes: (0..flat.len()).map(|_| None).collect(),
        journal,
        abort_after: opts.abort_after_jobs,
        settled_fresh: 0,
        compact_threshold: opts.journal.as_ref().map_or(0, |j| j.compact_threshold),
        compactions: 0,
        bytes_reclaimed: 0,
    };

    // Submit in manifest order and join in submission order, so both the
    // record list and the journal are deterministic. Replayed jobs are
    // answered from the journal without resubmitting; admission-control
    // sheds are absorbed by settling the oldest pending job (which frees
    // capacity) or, with nothing pending, by backing off inside the retry
    // budget — a job whose sheds outlast the budget fails terminally.
    let mut pending: VecDeque<(usize, JobHandle<JobDone>)> = VecDeque::new();
    for (index, job) in flat.iter().enumerate() {
        if let Some(entry) = replayed.remove(&(index as u64)) {
            state.outcomes[index] = Some(match entry.outcome {
                Ok(output) => Ok(output),
                Err(message) => Err(JobError::Journaled(message)),
            });
            continue;
        }
        let mut shed_failures = 0u32;
        let first_try = Instant::now();
        loop {
            match runtime.submit_job(JobOptions::default(), job) {
                Ok(handle) => {
                    pending.push_back((index, handle));
                    break;
                }
                Err(shed @ JobError::Shed { .. }) => {
                    if let Some((settled_index, settled)) = pending.pop_front() {
                        // Settling the oldest in-flight job frees
                        // capacity; resubmit right after.
                        state.settle(settled_index, settled)?;
                    } else {
                        shed_failures += 1;
                        match next_retry(&opts.retry, shed_failures, first_try.elapsed(), 1.0) {
                            Some(delay) => std::thread::sleep(delay),
                            None => {
                                // Out of retry budget: the shed is this
                                // job's terminal outcome.
                                state.record(index, Err(shed))?;
                                break;
                            }
                        }
                    }
                }
                Err(other) => {
                    state.record(index, Err(other))?;
                    break;
                }
            }
        }
    }
    while let Some((index, handle)) = pending.pop_front() {
        state.settle(index, handle)?;
    }

    let wall = t0.elapsed();
    runtime.stats().resumed_jobs.fetch_add(resumed, Ordering::Relaxed);
    if let Some(journal) = &state.journal {
        runtime.stats().journal_bytes.fetch_add(journal.bytes_appended(), Ordering::Relaxed);
    }
    runtime
        .stats()
        .journal_compactions
        .fetch_add(resume_compactions + state.compactions, Ordering::Relaxed);
    runtime
        .stats()
        .journal_bytes_reclaimed
        .fetch_add(resume_reclaimed + state.bytes_reclaimed, Ordering::Relaxed);
    let mut stats = runtime.stats().snapshot();
    stats.spans_dropped = tracer.dropped();

    let records = state
        .outcomes
        .into_iter()
        .enumerate()
        .map(|(index, outcome)| JobRecord {
            index,
            label: flat[index].label.clone(),
            machine: flat[index].machine_name.clone(),
            mode: flat[index].mode(),
            // Every index was either replayed, settled or recorded as a
            // terminal shed above; `None` cannot survive to here.
            outcome: outcome.map_or(Err(JobError::Shutdown), |o| o),
        })
        .collect();
    Ok(ServeReport { records, stats, workers, wall })
}

/// Writes one profiled job's Chrome Trace Event JSON: the simulation
/// timeline (coarse per-level DMA/compute tracks plus fine pipeline-
/// stage tracks) merged with the runtime tracer's span tracks into one
/// `chrome://tracing`-loadable array.
fn write_job_trace(path: &str, job: &Job, tracer: &Tracer) -> Result<(), ServeError> {
    let err = |message: String| ServeError::Trace { path: path.to_string(), message };
    let depth = job.machine.levels.len().max(1);
    let tl = Machine::new(job.machine.clone())
        .timeline(&job.program, depth)
        .map_err(|e| err(e.to_string()))?;
    let mut events = cf_core::profile::chrome_trace_events(&job.machine, &tl);
    events.extend(tracer.chrome_events());
    std::fs::write(path, serde_json::to_string(&Value::Array(events)))
        .map_err(|e| err(e.to_string()))
}

/// Escapes a string for a JSON value position.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders one record as the JSON-lines object `cfserve` prints.
///
/// Carries only deterministic fields; float formatting uses `{:?}`, which
/// round-trips exactly. The trailing `digest` field is the FNV-1a of the
/// *core* — every byte between `{"job":N,` and `,"digest"` — so the
/// record carries its own end-to-end integrity check
/// ([`verify_record_json`]). The id is deliberately excluded: the fleet
/// router rewrites backend-local ids to fleet-wide ones at the edge, and
/// that rewrite must not invalidate the digest.
///
/// Trace context and latency attribution are likewise **never** part of
/// the record body — they ride only as HTTP response headers
/// (`X-CF-Trace`, `X-CF-Attribution`), because they vary run-to-run
/// while the record must stay byte-identical across replays, failovers
/// and resubmissions.
pub fn render_record_json(record: &JobRecord) -> String {
    let head = format!(
        "\"label\":{},\"machine\":{},\"mode\":{}",
        json_str(&record.label),
        json_str(&record.machine),
        json_str(record.mode),
    );
    let core = match &record.outcome {
        Ok(JobOutput::Sim {
            makespan_s,
            steady_s,
            attained_tops,
            peak_fraction,
            root_intensity,
        }) => {
            format!(
                "{head},\"ok\":true,\"makespan_s\":{makespan_s:?},\"steady_s\":{steady_s:?},\"attained_tops\":{attained_tops:?},\"peak_fraction\":{peak_fraction:?},\"root_intensity\":{root_intensity:?}"
            )
        }
        Ok(JobOutput::Exec { elems, memory_hash }) => {
            format!("{head},\"ok\":true,\"elems\":{elems},\"memory_hash\":\"{memory_hash:016x}\"")
        }
        Err(e) => format!("{head},\"ok\":false,\"error\":{}", json_str(&e.to_string())),
    };
    format!("{{\"job\":{},{core},\"digest\":\"{:016x}\"}}", record.index, fnv1a(core.as_bytes()))
}

/// Checks a rendered record line against its embedded `digest` field
/// (and, when `expected_id` is given, against the leading `{"job":N,`
/// id). Any single-byte change to the core is detected — FNV-1a's
/// xor-and-odd-multiply steps are bijections, so flips never cancel at
/// fixed length. Returns `false` for anything that is not a well-formed
/// digest-stamped record.
pub fn verify_record_json(line: &str, expected_id: Option<u64>) -> bool {
    let Some(rest) = line.strip_prefix("{\"job\":") else {
        return false;
    };
    let Some(comma) = rest.find(',') else {
        return false;
    };
    let (id_part, tail) = rest.split_at(comma);
    if id_part.is_empty() || !id_part.bytes().all(|b| b.is_ascii_digit()) {
        return false;
    }
    if let Some(expected) = expected_id {
        if id_part.parse::<u64>() != Ok(expected) {
            return false;
        }
    }
    let tail = &tail[1..];
    // `json_str` escapes quotes inside values, so this marker can only
    // be the structural field — rfind keeps it out of the digest's core.
    let Some(marker) = tail.rfind(",\"digest\":\"") else {
        return false;
    };
    let core = &tail[..marker];
    let suffix = &tail[marker + ",\"digest\":\"".len()..];
    let Some(hex) = suffix.strip_suffix("\"}") else {
        return false;
    };
    if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return false;
    }
    match u64::from_str_radix(hex, 16) {
        Ok(digest) => digest == fnv1a(core.as_bytes()),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;

    fn quick_opts() -> ServeOptions {
        ServeOptions { workers: 2, ..Default::default() }
    }

    #[test]
    fn serves_a_small_manifest_in_order() {
        let text = "workload=matmul order=64 repeat=2\nworkload=matmul order=64 mode=exec seed=3 label=x\n";
        let report = serve_manifest(text, &quick_opts()).unwrap();
        assert_eq!(report.records.len(), 3);
        assert_eq!(report.failures(), 0);
        assert_eq!(report.records[0].mode, "simulate");
        assert_eq!(report.records[2].mode, "exec");
        assert_eq!(report.records[2].label, "x");
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.index, i);
        }
        // The repeat is answered by the cache.
        assert!(report.stats.cache_hits >= 1);
    }

    #[test]
    fn journal_fault_fingerprint_hashes_the_canonical_spec_text() {
        let opts = ServeOptions {
            fault_plan: Some(FaultPlan::new(7, FaultSpec::chaos())),
            ..quick_opts()
        };
        let header = compute_run_header(&[], &opts);
        assert_eq!(header.fault_seed, Some(7));
        // fnv1a("panic=0.1,latency=0,latency_ms=1,corrupt=0.05,expire=0,mem=0,kill=0"):
        // a changed value makes every journal written under the default
        // chaos plan refuse to resume.
        assert_eq!(header.fault_spec, 0x0FA9_8CE1_3975_6822);
    }

    #[test]
    fn validation_errors_surface_before_running() {
        let err = serve_manifest("program=/no/such/file.cfasm\n", &quick_opts()).unwrap_err();
        assert!(matches!(err, ServeError::Manifest(ManifestError::Program { .. })), "{err}");
    }

    #[test]
    fn rendered_json_escapes_and_errors() {
        let record = JobRecord {
            index: 1,
            label: "a\"b".into(),
            machine: "f1".into(),
            mode: "simulate",
            outcome: Err(JobError::Panicked("boom".into())),
        };
        let line = render_record_json(&record);
        assert!(line.contains("\"label\":\"a\\\"b\""), "{line}");
        assert!(line.contains("\"ok\":false"), "{line}");
        assert!(line.contains("boom"), "{line}");
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(verify_record_json(&line, Some(1)), "{line}");
    }

    #[test]
    fn record_digest_round_trips_and_flags_any_flip() {
        let record = JobRecord {
            index: 7,
            label: "chaos".into(),
            machine: "f1".into(),
            mode: "simulate",
            outcome: Ok(JobOutput::Exec { elems: 4096, memory_hash: 0xDEAD_BEEF }),
        };
        let line = render_record_json(&record);
        assert!(line.contains(",\"digest\":\""), "{line}");
        assert!(verify_record_json(&line, None), "{line}");
        assert!(verify_record_json(&line, Some(7)), "{line}");
        // The wrong id fails even though the digest (which excludes the
        // id, so the router's rewrite survives) still matches.
        assert!(!verify_record_json(&line, Some(8)), "{line}");
        let rewritten = line.replacen("{\"job\":7,", "{\"job\":123,", 1);
        assert!(verify_record_json(&rewritten, Some(123)), "id rewrite keeps the digest valid");
        // Any single-byte corruption of the core is caught.
        let bytes = line.as_bytes();
        let core_start = "{\"job\":7,".len();
        let core_end = line.rfind(",\"digest\":\"").unwrap();
        for at in core_start..core_end {
            let mut mutated = bytes.to_vec();
            mutated[at] ^= 0x01;
            let mutated = String::from_utf8_lossy(&mutated).to_string();
            assert!(!verify_record_json(&mutated, Some(7)), "flip at {at} undetected: {mutated}");
        }
        // Junk is rejected, not panicked on.
        assert!(!verify_record_json("", None));
        assert!(!verify_record_json("{\"job\":7}", None));
        assert!(!verify_record_json("{\"job\":7,\"ok\":true,\"digest\":\"xyz\"}", None));
    }

    #[test]
    fn profiled_jobs_match_unprofiled_output_and_feed_the_aggregate() {
        let obs = Obs::new(64);
        let plain = serve_manifest("workload=matmul order=64\n", &quick_opts()).unwrap();
        let profiled = serve_manifest(
            "workload=matmul order=64 profile=true\n",
            &ServeOptions { obs: Some(Arc::clone(&obs)), ..quick_opts() },
        )
        .unwrap();
        // Profiling must not change the deterministic record.
        assert_eq!(render_record_json(&plain.records[0]), render_record_json(&profiled.records[0]),);
        let (jobs, rows) = obs.tracer().profile_aggregate();
        assert_eq!(jobs, vec![("f1".to_string(), 1)]);
        assert!(!rows.is_empty());
        assert!(rows.iter().any(|r| r.stage_seconds.iter().sum::<f64>() > 0.0), "{rows:?}");
    }

    #[test]
    fn trace_json_writes_a_chrome_trace_file() {
        let dir = std::env::temp_dir().join(format!("cf-serve-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.trace.json");
        let manifest = format!("workload=matmul order=64 trace_json={}\n", path.to_string_lossy());
        let report = serve_manifest(&manifest, &quick_opts()).unwrap();
        assert_eq!(report.failures(), 0);
        let body = std::fs::read_to_string(&path).unwrap();
        let v = serde_json::from_str(&body).unwrap_or_else(|e| panic!("{e}"));
        let events = v.as_array().unwrap();
        assert!(!events.is_empty());
        // Every event is an object with ph/pid/tid/name.
        for e in events {
            let obj = e.as_object().unwrap();
            assert!(obj.get("ph").and_then(Value::as_str).is_some(), "{e}");
            assert!(obj.get("pid").and_then(Value::as_u64).is_some(), "{e}");
            assert!(obj.get("tid").and_then(Value::as_u64).is_some(), "{e}");
            assert!(obj.get("name").and_then(Value::as_str).is_some(), "{e}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn two_runs_render_byte_identical() {
        let text = "workload=matmul order=96 repeat=3\n";
        let a = serve_manifest(text, &quick_opts()).unwrap();
        let b = serve_manifest(
            text,
            &ServeOptions { workers: 1, cache_capacity: 0, ..Default::default() },
        )
        .unwrap();
        let ra: Vec<String> = a.records.iter().map(render_record_json).collect();
        let rb: Vec<String> = b.records.iter().map(render_record_json).collect();
        assert_eq!(ra, rb);
    }
}
