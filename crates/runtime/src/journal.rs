//! Crash-consistent write-ahead journal for serve runs.
//!
//! A journal is a JSONL file: one [`RunHeader`] line followed by one
//! [`JobEntry`] line per finished job, appended **in submission order**
//! and fsync'd before each append returns (a batch of records shares one
//! write and one fdatasync), so the file is always a valid prefix of the
//! run plus at most one torn trailing line. Every line carries an
//! FNV-1a content checksum (the same `fnv1a` the plan cache uses), so
//! a torn or corrupted tail is *detected and truncated* on resume rather
//! than silently replayed:
//!
//! ```text
//! {"crc":"7d61…","rec":{"type":"header","version":1,"manifest":"ab…",…}}
//! {"crc":"90ff…","rec":{"type":"job","job":0,"label":"vgg16",…,"ok":true,…}}
//! ```
//!
//! **Resume invariants.** A journal binds to one exact run: the header
//! records a fingerprint of the fully-expanded job list (labels, machine
//! fingerprints, program content hashes, modes, exec seeds), the combined
//! machine fingerprints, the fault seed and a fingerprint of the fault
//! spec. [`Journal::resume`] re-derives the same header from the current
//! manifest and refuses — with a [`JournalError::Mismatch`] naming the
//! first differing field — to replay records onto a different run, so a
//! resumed report is guaranteed to merge outputs that the interrupted run
//! itself produced. Records are keyed by job index; a record whose index
//! is out of range or repeated marks the end of the trustworthy prefix
//! (the tail after it is truncated like a torn line).
//!
//! The writer controls the exact byte layout, so the parser is a strict
//! sequential scanner: *any* deviation — a flipped byte, a missing brace,
//! an unknown field — fails the line, and the checksum catches the
//! (astronomically unlikely) flips the grammar would accept.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::fault::fnv1a;
use crate::serve::{json_str, JobOutput};

/// Journal format version; bumped on any layout change.
pub const JOURNAL_VERSION: u32 = 1;

/// The first record of every journal: the identity of the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunHeader {
    /// [`JOURNAL_VERSION`] at write time.
    pub version: u32,
    /// Fingerprint of the fully-expanded job list (see the module docs).
    pub manifest: u64,
    /// Combined fingerprint of every job's machine structure.
    pub machines: u64,
    /// The fault plan's seed (`None` when no faults are injected).
    pub fault_seed: Option<u64>,
    /// Fingerprint of the fault spec's rates (0 when no plan).
    pub fault_spec: u64,
    /// Total jobs the run will produce.
    pub jobs: u64,
}

/// One finished job, as journaled.
#[derive(Debug, Clone, PartialEq)]
pub struct JobEntry {
    /// Submission index (0-based, manifest order).
    pub index: u64,
    /// The spec's output tag.
    pub label: String,
    /// The spec's machine name.
    pub machine: String,
    /// `"simulate"` or `"exec"`.
    pub mode: &'static str,
    /// The deterministic payload, or the terminal failure message.
    pub outcome: Result<JobOutput, String>,
}

/// One accepted-but-not-yet-finished job, as journaled by the HTTP job
/// API *before* the job id is acknowledged to the client. The spec is
/// the canonical manifest line the submission parsed to, so a resume
/// can re-create and re-run the job under the same id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcceptedEntry {
    /// The job id the client was (about to be) given.
    pub index: u64,
    /// The canonical manifest line of the accepted spec.
    pub spec: String,
}

/// Any journal line.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// The run-identity header (always line 1).
    Header(RunHeader),
    /// A finished job.
    Job(JobEntry),
    /// A durably-accepted job the API has not yet finished (the
    /// write-ahead half of the acceptance handshake).
    Accepted(AcceptedEntry),
}

/// Why a single journal line did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The `{"crc":"…","rec":…}` envelope is malformed or incomplete.
    Framing(&'static str),
    /// The stored checksum does not match the record's content.
    Checksum {
        /// The checksum the line carries.
        stored: u64,
        /// The checksum its content hashes to.
        computed: u64,
    },
    /// The envelope is intact but the record grammar is not.
    Grammar(&'static str),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Framing(what) => write!(f, "bad record framing: {what}"),
            RecordError::Checksum { stored, computed } => {
                write!(f, "checksum mismatch: line says {stored:016x}, content is {computed:016x}")
            }
            RecordError::Grammar(what) => write!(f, "bad record grammar: {what}"),
        }
    }
}

impl std::error::Error for RecordError {}

/// Why a journal could not be created, resumed or appended to.
#[derive(Debug)]
pub enum JournalError {
    /// An I/O failure on the journal file.
    Io {
        /// The journal path.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// The journal's first line is not a valid header record.
    NoHeader {
        /// The journal path.
        path: String,
        /// Why the line failed.
        reason: RecordError,
    },
    /// The file ends inside the run-identity header: the very first
    /// append was torn by a crash before its newline reached disk, so
    /// the journal never recorded which run it belongs to.
    TruncatedHeader {
        /// The journal path.
        path: String,
        /// Where the file ends, in bytes from the start (= the file
        /// length, since the torn header is the only content).
        offset: u64,
    },
    /// The journal belongs to a different run; resume refused.
    Mismatch {
        /// The first header field that differs.
        field: &'static str,
        /// The journaled value.
        journal: String,
        /// The current run's value.
        current: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, message } => write!(f, "journal {path}: {message}"),
            JournalError::NoHeader { path, reason } => {
                write!(f, "journal {path}: no valid header record ({reason})")
            }
            JournalError::TruncatedHeader { path, offset } => write!(
                f,
                "journal {path}: truncated run-identity header (file ends mid-line at byte \
                 offset {offset}; the header never became durable, so there is nothing to \
                 resume — delete the journal or re-run without --resume)"
            ),
            JournalError::Mismatch { field, journal, current } => write!(
                f,
                "journal mismatch on {field}: journal has {journal}, current run has {current} \
                 (refusing to resume onto a different run)"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err(path: &Path, e: &std::io::Error) -> JournalError {
    JournalError::Io { path: path.display().to_string(), message: e.to_string() }
}

/// Encodes one record as its journal line (no trailing newline).
pub fn encode_record(record: &Record) -> String {
    let rec = match record {
        Record::Header(h) => {
            let seed = match h.fault_seed {
                Some(s) => format!("\"{s:016x}\""),
                None => "null".to_string(),
            };
            format!(
                "{{\"type\":\"header\",\"version\":{},\"manifest\":\"{:016x}\",\"machines\":\"{:016x}\",\"fault_seed\":{seed},\"fault_spec\":\"{:016x}\",\"jobs\":{}}}",
                h.version, h.manifest, h.machines, h.fault_spec, h.jobs,
            )
        }
        Record::Job(j) => {
            let head = format!(
                "{{\"type\":\"job\",\"job\":{},\"label\":{},\"machine\":{},\"mode\":{}",
                j.index,
                json_str(&j.label),
                json_str(&j.machine),
                json_str(j.mode),
            );
            match &j.outcome {
                Ok(JobOutput::Sim {
                    makespan_s,
                    steady_s,
                    attained_tops,
                    peak_fraction,
                    root_intensity,
                }) => format!(
                    "{head},\"ok\":true,\"sim\":{{\"makespan_s\":{makespan_s:?},\"steady_s\":{steady_s:?},\"attained_tops\":{attained_tops:?},\"peak_fraction\":{peak_fraction:?},\"root_intensity\":{root_intensity:?}}}}}"
                ),
                Ok(JobOutput::Exec { elems, memory_hash }) => format!(
                    "{head},\"ok\":true,\"exec\":{{\"elems\":{elems},\"memory_hash\":\"{memory_hash:016x}\"}}}}"
                ),
                Err(message) => format!("{head},\"ok\":false,\"error\":{}}}", json_str(message)),
            }
        }
        Record::Accepted(a) => {
            format!("{{\"type\":\"accept\",\"job\":{},\"spec\":{}}}", a.index, json_str(&a.spec))
        }
    };
    format!("{{\"crc\":\"{:016x}\",\"rec\":{rec}}}", fnv1a(rec.as_bytes()))
}

/// Parses one journal line (without its newline), verifying the checksum.
///
/// # Errors
///
/// [`RecordError::Framing`] for a malformed envelope,
/// [`RecordError::Checksum`] when the content does not hash to the stored
/// checksum, [`RecordError::Grammar`] for a record body the scanner does
/// not recognise.
pub fn parse_record(line: &str) -> Result<Record, RecordError> {
    let rest = line.strip_prefix("{\"crc\":\"").ok_or(RecordError::Framing("no crc prefix"))?;
    if rest.len() < 16 || !rest.is_char_boundary(16) {
        return Err(RecordError::Framing("truncated crc"));
    }
    let (crc_hex, rest) = rest.split_at(16);
    let stored =
        u64::from_str_radix(crc_hex, 16).map_err(|_| RecordError::Framing("non-hex crc"))?;
    let rec = rest
        .strip_prefix("\",\"rec\":")
        .and_then(|r| r.strip_suffix('}'))
        .ok_or(RecordError::Framing("no rec envelope"))?;
    let computed = fnv1a(rec.as_bytes());
    if computed != stored {
        return Err(RecordError::Checksum { stored, computed });
    }
    parse_rec_body(rec)
}

fn parse_rec_body(rec: &str) -> Result<Record, RecordError> {
    let mut c = Cursor { s: rec };
    c.lit("{\"type\":\"")?;
    if c.eat("header\",") {
        c.lit("\"version\":")?;
        let version = c.u64()? as u32;
        c.lit(",\"manifest\":\"")?;
        let manifest = c.hex16()?;
        c.lit("\",\"machines\":\"")?;
        let machines = c.hex16()?;
        c.lit("\",\"fault_seed\":")?;
        let fault_seed = if c.eat("null") {
            None
        } else {
            c.lit("\"")?;
            let s = c.hex16()?;
            c.lit("\"")?;
            Some(s)
        };
        c.lit(",\"fault_spec\":\"")?;
        let fault_spec = c.hex16()?;
        c.lit("\",\"jobs\":")?;
        let jobs = c.u64()?;
        c.lit("}")?;
        c.end()?;
        Ok(Record::Header(RunHeader { version, manifest, machines, fault_seed, fault_spec, jobs }))
    } else if c.eat("job\",") {
        c.lit("\"job\":")?;
        let index = c.u64()?;
        c.lit(",\"label\":")?;
        let label = c.string()?;
        c.lit(",\"machine\":")?;
        let machine = c.string()?;
        c.lit(",\"mode\":")?;
        let mode = match c.string()?.as_str() {
            "simulate" => "simulate",
            "exec" => "exec",
            _ => return Err(RecordError::Grammar("unknown mode")),
        };
        c.lit(",\"ok\":")?;
        let outcome = if c.eat("true,") {
            if c.eat("\"sim\":{\"makespan_s\":") {
                let makespan_s = c.f64()?;
                c.lit(",\"steady_s\":")?;
                let steady_s = c.f64()?;
                c.lit(",\"attained_tops\":")?;
                let attained_tops = c.f64()?;
                c.lit(",\"peak_fraction\":")?;
                let peak_fraction = c.f64()?;
                c.lit(",\"root_intensity\":")?;
                let root_intensity = c.f64()?;
                c.lit("}")?;
                Ok(JobOutput::Sim {
                    makespan_s,
                    steady_s,
                    attained_tops,
                    peak_fraction,
                    root_intensity,
                })
            } else if c.eat("\"exec\":{\"elems\":") {
                let elems = c.u64()? as usize;
                c.lit(",\"memory_hash\":\"")?;
                let memory_hash = c.hex16()?;
                c.lit("\"}")?;
                Ok(JobOutput::Exec { elems, memory_hash })
            } else {
                return Err(RecordError::Grammar("unknown ok payload"));
            }
        } else if c.eat("false,\"error\":") {
            Err(c.string()?)
        } else {
            return Err(RecordError::Grammar("bad ok flag"));
        };
        c.lit("}")?;
        c.end()?;
        Ok(Record::Job(JobEntry { index, label, machine, mode, outcome }))
    } else if c.eat("accept\",") {
        c.lit("\"job\":")?;
        let index = c.u64()?;
        c.lit(",\"spec\":")?;
        let spec = c.string()?;
        c.lit("}")?;
        c.end()?;
        Ok(Record::Accepted(AcceptedEntry { index, spec }))
    } else {
        Err(RecordError::Grammar("unknown record type"))
    }
}

/// A strict sequential scanner over one record body: the writer fixes the
/// field order, so anything that does not match is corruption.
struct Cursor<'a> {
    s: &'a str,
}

impl<'a> Cursor<'a> {
    fn lit(&mut self, lit: &str) -> Result<(), RecordError> {
        self.s = self.s.strip_prefix(lit).ok_or(RecordError::Grammar("missing literal"))?;
        Ok(())
    }

    /// Consumes `lit` if present; reports whether it did.
    fn eat(&mut self, lit: &str) -> bool {
        match self.s.strip_prefix(lit) {
            Some(rest) => {
                self.s = rest;
                true
            }
            None => false,
        }
    }

    fn end(&self) -> Result<(), RecordError> {
        if self.s.is_empty() {
            Ok(())
        } else {
            Err(RecordError::Grammar("trailing bytes"))
        }
    }

    fn u64(&mut self) -> Result<u64, RecordError> {
        let digits = self.s.len() - self.s.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        if digits == 0 {
            return Err(RecordError::Grammar("expected digits"));
        }
        let (num, rest) = self.s.split_at(digits);
        self.s = rest;
        num.parse().map_err(|_| RecordError::Grammar("integer overflow"))
    }

    fn hex16(&mut self) -> Result<u64, RecordError> {
        if self.s.len() < 16 || !self.s.is_char_boundary(16) {
            return Err(RecordError::Grammar("truncated hex field"));
        }
        let (hex, rest) = self.s.split_at(16);
        self.s = rest;
        u64::from_str_radix(hex, 16).map_err(|_| RecordError::Grammar("non-hex field"))
    }

    /// A float formatted with `{:?}` (round-trips exactly), delimited by
    /// the next `,` or `}`.
    fn f64(&mut self) -> Result<f64, RecordError> {
        let len = self.s.find([',', '}']).unwrap_or(self.s.len());
        let (num, rest) = self.s.split_at(len);
        self.s = rest;
        num.parse().map_err(|_| RecordError::Grammar("bad float"))
    }

    /// A quoted JSON string with the escapes [`json_str`] produces.
    fn string(&mut self) -> Result<String, RecordError> {
        self.lit("\"")?;
        let mut out = String::new();
        let mut chars = self.s.char_indices();
        loop {
            let (i, ch) = chars.next().ok_or(RecordError::Grammar("unterminated string"))?;
            match ch {
                '"' => {
                    self.s = &self.s[i + 1..];
                    return Ok(out);
                }
                '\\' => {
                    let (_, esc) = chars.next().ok_or(RecordError::Grammar("dangling escape"))?;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let (_, h) =
                                    chars.next().ok_or(RecordError::Grammar("short \\u"))?;
                                let digit = h
                                    .to_digit(16)
                                    .ok_or(RecordError::Grammar("non-hex \\u digit"))?;
                                code = code * 16 + digit;
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or(RecordError::Grammar("bad \\u code point"))?,
                            );
                        }
                        _ => return Err(RecordError::Grammar("unknown escape")),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

/// What one journal compaction did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// On-disk bytes before the rewrite.
    pub bytes_before: u64,
    /// On-disk bytes after the rewrite.
    pub bytes_after: u64,
    /// Records dropped by the rewrite (failed entries, which get a
    /// fresh chance on resume, plus any out-of-contract lines).
    pub dropped: u64,
}

impl CompactionStats {
    /// Bytes the rewrite gave back.
    pub(crate) fn reclaimed(&self) -> u64 {
        self.bytes_before.saturating_sub(self.bytes_after)
    }
}

/// Rewrites a journal image to its compacted form: the canonical
/// re-encoding of the run-identity header plus every *successful* job
/// entry of the valid prefix, in order. Failed entries are dropped — on
/// resume those jobs re-run instead of replaying the recorded failure —
/// and so is any torn or out-of-contract tail. Acceptance records are
/// kept only while no successful completion for the same index exists
/// (a still-owed job must survive the rewrite so resume can re-run it);
/// once the completion is durable the accept is redundant and dropped.
/// Idempotent: compacting a compacted image returns it byte-identically.
pub fn compact_image(bytes: &[u8], jobs: u64) -> (Vec<u8>, CompactionStats) {
    let (records, valid_len) = scan_valid_prefix(bytes, jobs);
    let settled: std::collections::HashSet<u64> = records
        .iter()
        .filter_map(|r| match r {
            Record::Job(e) if e.outcome.is_ok() => Some(e.index),
            _ => None,
        })
        .collect();
    let mut out = Vec::with_capacity(valid_len as usize);
    let mut dropped = 0u64;
    for record in &records {
        let keep = match record {
            Record::Header(_) => true,
            Record::Job(e) => e.outcome.is_ok(),
            Record::Accepted(a) => !settled.contains(&a.index),
        };
        if keep {
            out.extend_from_slice(encode_record(record).as_bytes());
            out.push(b'\n');
        } else {
            dropped += 1;
        }
    }
    let stats = CompactionStats {
        bytes_before: bytes.len() as u64,
        bytes_after: out.len() as u64,
        dropped,
    };
    (out, stats)
}

/// What [`Journal::resume`] recovered from an existing journal.
#[derive(Debug)]
pub struct Recovery {
    /// The journaled jobs, in journal (= submission) order. When resume
    /// compacted the journal, failed entries are dropped from here too
    /// (the file no longer records them, so those jobs re-run).
    pub entries: Vec<JobEntry>,
    /// Durably-accepted jobs, in journal order. Entries whose index also
    /// appears in [`Recovery::entries`] already finished; the rest are
    /// journaled-but-unanswered and must be re-run by the resumer.
    pub accepted: Vec<AcceptedEntry>,
    /// Bytes of torn/corrupt tail that were truncated away (0 for a
    /// cleanly-closed journal).
    pub truncated_bytes: u64,
    /// The resume-time compaction, when
    /// `Journal::resume_opts`'s threshold triggered one.
    pub compaction: Option<CompactionStats>,
}

/// An open, append-only journal file (see the module docs).
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    bytes: u64,
    /// Total jobs of the run (from the header); the scan contract for
    /// compaction rewrites.
    jobs: u64,
    /// Current on-disk length.
    file_bytes: u64,
    /// Bytes held by failed-entry lines and by acceptance records whose
    /// completion is durable — what compaction can give back.
    reclaimable: u64,
    /// Line bytes of acceptance records not yet superseded by a
    /// successful completion, keyed by job index.
    pending_accepts: std::collections::HashMap<u64, u64>,
}

impl Journal {
    /// Creates (or truncates) a journal at `path` and durably writes the
    /// run header.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on any filesystem failure.
    pub fn create(path: &Path, header: &RunHeader) -> Result<Journal, JournalError> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err(path, &e))?;
        let mut journal = Journal {
            file,
            path: path.to_path_buf(),
            bytes: 0,
            jobs: header.jobs,
            file_bytes: 0,
            reclaimable: 0,
            pending_accepts: std::collections::HashMap::new(),
        };
        journal.append_lines(&[encode_record(&Record::Header(header.clone()))])?;
        Ok(journal)
    }

    /// Opens an existing journal for resumption: verifies its header
    /// against `header` (the identity of the *current* run), recovers the
    /// valid record prefix, truncates any torn or corrupt tail in place,
    /// and re-opens for appending.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failures,
    /// [`JournalError::NoHeader`] when line 1 is unreadable, and
    /// [`JournalError::Mismatch`] when the journal belongs to a different
    /// manifest, machine set, fault seed/spec or job count.
    pub fn resume(path: &Path, header: &RunHeader) -> Result<(Journal, Recovery), JournalError> {
        Journal::resume_opts(path, header, 0)
    }

    /// [`resume`](Journal::resume) with a compaction threshold: after
    /// recovery, a journal whose on-disk size is at least
    /// `compact_threshold` bytes (0 disables) is rewritten via
    /// [`compact_image`], dropping failed entries (those jobs re-run)
    /// and reporting the rewrite in [`Recovery::compaction`].
    ///
    /// # Errors
    ///
    /// Everything [`resume`](Journal::resume) reports, plus
    /// [`JournalError::TruncatedHeader`] when the file is non-empty but
    /// ends inside its first line — a crash tore the run-identity header
    /// itself, so there is no run to verify against.
    pub(crate) fn resume_opts(
        path: &Path,
        header: &RunHeader,
        compact_threshold: u64,
    ) -> Result<(Journal, Recovery), JournalError> {
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| io_err(path, &e))?;

        if !bytes.is_empty() && !bytes.contains(&b'\n') {
            return Err(JournalError::TruncatedHeader {
                path: path.display().to_string(),
                offset: bytes.len() as u64,
            });
        }

        let (records, valid_len) = scan_valid_prefix(&bytes, header.jobs);
        let mut records = records.into_iter();
        let journaled = match records.next() {
            Some(Record::Header(h)) => h,
            _ => {
                let reason = first_line_error(&bytes);
                return Err(JournalError::NoHeader { path: path.display().to_string(), reason });
            }
        };
        check_header(&journaled, header)?;
        let mut entries: Vec<JobEntry> = Vec::new();
        let mut accepted: Vec<AcceptedEntry> = Vec::new();
        for r in records {
            match r {
                Record::Job(e) => entries.push(e),
                Record::Accepted(a) => accepted.push(a),
                // scan_valid_prefix admits a header only at line 1.
                Record::Header(_) => unreachable!("header past line 1 survived the scan"),
            }
        }

        let truncated_bytes = bytes.len() as u64 - valid_len;
        let file =
            OpenOptions::new().write(true).read(true).open(path).map_err(|e| io_err(path, &e))?;
        file.set_len(valid_len).map_err(|e| io_err(path, &e))?;
        file.sync_data().map_err(|e| io_err(path, &e))?;
        let settled: std::collections::HashSet<u64> =
            entries.iter().filter(|e| e.outcome.is_ok()).map(|e| e.index).collect();
        // Journaled lines are canonical (we wrote them), so the
        // re-encoding is exactly the on-disk line.
        let failed_bytes: u64 = entries
            .iter()
            .filter(|e| e.outcome.is_err())
            .map(|e| encode_record(&Record::Job(e.clone())).len() as u64 + 1)
            .sum();
        let stale_accept_bytes: u64 = accepted
            .iter()
            .filter(|a| settled.contains(&a.index))
            .map(|a| encode_record(&Record::Accepted((*a).clone())).len() as u64 + 1)
            .sum();
        let pending_accepts = accepted
            .iter()
            .filter(|a| !settled.contains(&a.index))
            .map(|a| (a.index, encode_record(&Record::Accepted((*a).clone())).len() as u64 + 1))
            .collect();
        let mut journal = Journal {
            file,
            path: path.to_path_buf(),
            bytes: 0,
            jobs: header.jobs,
            file_bytes: valid_len,
            reclaimable: failed_bytes + stale_accept_bytes,
            pending_accepts,
        };
        journal.seek_end(valid_len)?;
        let compaction = if compact_threshold > 0 && journal.file_bytes >= compact_threshold {
            let stats = journal.compact()?;
            // The file no longer records the failed entries: drop them
            // from the recovery too, so the resumed run re-runs them
            // (and journals their fresh outcomes) instead of replaying
            // failures the journal has forgotten. Accepts that were
            // settled successfully are gone from the file as well.
            entries.retain(|e| e.outcome.is_ok());
            accepted.retain(|a| !settled.contains(&a.index));
            Some(stats)
        } else {
            None
        };
        Ok((journal, Recovery { entries, accepted, truncated_bytes, compaction }))
    }

    /// Rewrites the journal in place to its compacted form (see
    /// [`compact_image`]): the rewrite goes to a temporary file that is
    /// fsync'd and atomically renamed over the journal, so a crash
    /// during compaction leaves either the old or the new file — never a
    /// mix.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on any filesystem failure.
    pub(crate) fn compact(&mut self) -> Result<CompactionStats, JournalError> {
        let mut bytes = Vec::new();
        File::open(&self.path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| io_err(&self.path, &e))?;
        let (image, stats) = compact_image(&bytes, self.jobs);
        let mut tmp_name = self.path.as_os_str().to_owned();
        tmp_name.push(".compact");
        let tmp = PathBuf::from(tmp_name);
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)
                .map_err(|e| io_err(&tmp, &e))?;
            f.write_all(&image).and_then(|()| f.sync_data()).map_err(|e| io_err(&tmp, &e))?;
        }
        std::fs::rename(&tmp, &self.path).map_err(|e| io_err(&self.path, &e))?;
        self.file = OpenOptions::new()
            .write(true)
            .read(true)
            .open(&self.path)
            .map_err(|e| io_err(&self.path, &e))?;
        self.file.sync_data().map_err(|e| io_err(&self.path, &e))?;
        self.file_bytes = image.len() as u64;
        self.reclaimable = 0;
        self.seek_end(self.file_bytes)?;
        Ok(stats)
    }

    /// [`compact`](Journal::compact) guarded by a size threshold: only
    /// rewrites when the file has reached `threshold` bytes (0 disables)
    /// *and* there are reclaimable (failed-entry) bytes to give back, so
    /// an append-heavy run does not rewrite the file on every record.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on any filesystem failure.
    pub(crate) fn maybe_compact(
        &mut self,
        threshold: u64,
    ) -> Result<Option<CompactionStats>, JournalError> {
        if threshold == 0 || self.file_bytes < threshold || self.reclaimable == 0 {
            return Ok(None);
        }
        self.compact().map(Some)
    }

    fn seek_end(&mut self, len: u64) -> Result<(), JournalError> {
        use std::io::{Seek, SeekFrom};
        self.file.seek(SeekFrom::Start(len)).map_err(|e| io_err(&self.path, &e))?;
        Ok(())
    }

    /// Durably appends one finished job: [`append_all`](Journal::append_all)
    /// of one entry.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on any filesystem failure.
    pub fn append(&mut self, entry: &JobEntry) -> Result<(), JournalError> {
        self.append_all(std::slice::from_ref(entry))
    }

    /// Durably appends finished jobs, in order, with one write and one
    /// fdatasync. A successful completion supersedes any pending
    /// acceptance record for the same index: the accept's bytes become
    /// reclaimable by compaction. The file bytes are exactly those of
    /// one [`append`](Journal::append) per entry.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on any filesystem failure.
    pub fn append_all(&mut self, entries: &[JobEntry]) -> Result<(), JournalError> {
        let lines: Vec<String> =
            entries.iter().map(|e| encode_record(&Record::Job(e.clone()))).collect();
        self.append_lines(&lines)?;
        for (entry, line) in entries.iter().zip(&lines) {
            if entry.outcome.is_err() {
                self.reclaimable += line.len() as u64 + 1;
            } else if let Some(accept_bytes) = self.pending_accepts.remove(&entry.index) {
                self.reclaimable += accept_bytes;
            }
        }
        Ok(())
    }

    /// Durably appends one acceptance record:
    /// [`append_accepts`](Journal::append_accepts) of one record.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on any filesystem failure.
    pub fn append_accept(&mut self, accept: &AcceptedEntry) -> Result<(), JournalError> {
        self.append_accepts(std::slice::from_ref(accept))
    }

    /// Durably appends acceptance records, in order, with one write and
    /// one fdatasync — the write-ahead half of the job API's acceptance
    /// handshake. Must return *before* any of the job ids is
    /// acknowledged to the client.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on any filesystem failure.
    pub fn append_accepts(&mut self, accepts: &[AcceptedEntry]) -> Result<(), JournalError> {
        let lines: Vec<String> =
            accepts.iter().map(|a| encode_record(&Record::Accepted(a.clone()))).collect();
        self.append_lines(&lines)?;
        for (accept, line) in accepts.iter().zip(&lines) {
            self.pending_accepts.insert(accept.index, line.len() as u64 + 1);
        }
        Ok(())
    }

    /// Forces journal bytes to durable storage. Appends already fsync
    /// before they return, so this is a final barrier for drain paths that
    /// must not exit with anything buffered.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on any filesystem failure.
    pub(crate) fn sync(&mut self) -> Result<(), JournalError> {
        self.file.sync_data().map_err(|e| io_err(&self.path, &e))
    }

    /// Writes `lines`, each newline-terminated, in one write, then one
    /// fdatasync. A crash in between leaves a torn tail that resume
    /// truncates back to the last complete line.
    fn append_lines(&mut self, lines: &[String]) -> Result<(), JournalError> {
        if lines.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            buf.extend_from_slice(line.as_bytes());
            buf.push(b'\n');
        }
        self.file
            .write_all(&buf)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io_err(&self.path, &e))?;
        self.bytes += buf.len() as u64;
        self.file_bytes += buf.len() as u64;
        Ok(())
    }

    /// Bytes this handle has appended (header included for fresh
    /// journals; 0 right after a resume).
    pub(crate) fn bytes_appended(&self) -> u64 {
        self.bytes
    }

    /// Current on-disk length of the journal file.
    pub fn file_len(&self) -> u64 {
        self.file_bytes
    }
}

/// Field-by-field header comparison; the error names the first mismatch.
fn check_header(journaled: &RunHeader, current: &RunHeader) -> Result<(), JournalError> {
    let mismatch = |field, journal: String, now: String| {
        Err(JournalError::Mismatch { field, journal, current: now })
    };
    if journaled.version != current.version {
        return mismatch(
            "journal version",
            journaled.version.to_string(),
            current.version.to_string(),
        );
    }
    if journaled.manifest != current.manifest {
        return mismatch(
            "manifest fingerprint",
            format!("{:016x}", journaled.manifest),
            format!("{:016x}", current.manifest),
        );
    }
    if journaled.machines != current.machines {
        return mismatch(
            "machine fingerprints",
            format!("{:016x}", journaled.machines),
            format!("{:016x}", current.machines),
        );
    }
    if journaled.fault_seed != current.fault_seed {
        let show = |s: Option<u64>| s.map_or("none".to_string(), |v| v.to_string());
        return mismatch("fault_seed", show(journaled.fault_seed), show(current.fault_seed));
    }
    if journaled.fault_spec != current.fault_spec {
        return mismatch(
            "fault spec",
            format!("{:016x}", journaled.fault_spec),
            format!("{:016x}", current.fault_spec),
        );
    }
    if journaled.jobs != current.jobs {
        return mismatch("job count", journaled.jobs.to_string(), current.jobs.to_string());
    }
    Ok(())
}

/// Why the first line failed, for [`JournalError::NoHeader`] reporting.
fn first_line_error(bytes: &[u8]) -> RecordError {
    let line_bytes = bytes.split(|&b| b == b'\n').next().unwrap_or(&[]);
    match std::str::from_utf8(line_bytes) {
        Ok(line) => parse_record(line).err().unwrap_or(RecordError::Grammar("not a header")),
        Err(_) => RecordError::Framing("not UTF-8"),
    }
}

/// Scans the longest valid record prefix of a journal image: complete,
/// checksum-verified lines with a header first and in-contract job
/// records after (index `< jobs`, no repeats — acceptance records keep
/// their own index set, since a job may legitimately appear once as an
/// accept and once as its completion). Returns the records and the byte
/// length of the valid prefix — everything past it (a torn final line
/// after a crash, or a corrupted tail) is to be truncated.
pub fn scan_valid_prefix(bytes: &[u8], jobs: u64) -> (Vec<Record>, u64) {
    let mut records = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut seen_accepts = std::collections::HashSet::new();
    let mut valid_len = 0u64;
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') else {
            break; // torn trailing line: no terminator
        };
        let line_bytes = &bytes[pos..pos + nl];
        let Ok(line) = std::str::from_utf8(line_bytes) else { break };
        let Ok(record) = parse_record(line) else { break };
        let in_contract = match (&record, records.is_empty()) {
            (Record::Header(_), true) => true,
            (Record::Job(e), false) => e.index < jobs && seen.insert(e.index),
            (Record::Accepted(a), false) => a.index < jobs && seen_accepts.insert(a.index),
            _ => false,
        };
        if !in_contract {
            break;
        }
        records.push(record);
        pos += nl + 1;
        valid_len = pos as u64;
    }
    (records, valid_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> RunHeader {
        RunHeader {
            version: JOURNAL_VERSION,
            manifest: 0xAB12,
            machines: 0xCD34,
            fault_seed: Some(7),
            fault_spec: 0xEF56,
            jobs: 3,
        }
    }

    fn sim_entry(index: u64) -> JobEntry {
        JobEntry {
            index,
            label: "vgg\"16\\x".into(),
            machine: "f1".into(),
            mode: "simulate",
            outcome: Ok(JobOutput::Sim {
                makespan_s: 0.001_234_567_89,
                steady_s: 9.87e-4,
                attained_tops: 1.5,
                peak_fraction: 0.25,
                root_intensity: 31.75,
            }),
        }
    }

    #[test]
    fn records_round_trip() {
        let exec = JobEntry {
            index: 2,
            label: "kmeans".into(),
            machine: "tiny".into(),
            mode: "exec",
            outcome: Ok(JobOutput::Exec { elems: 4096, memory_hash: 0xDEAD_BEEF }),
        };
        let failed = JobEntry {
            index: 1,
            label: "x\ty".into(),
            machine: "f100".into(),
            mode: "exec",
            outcome: Err("job panicked: \"boom\"\n".into()),
        };
        for record in [
            Record::Header(header()),
            Record::Header(RunHeader { fault_seed: None, ..header() }),
            Record::Job(sim_entry(0)),
            Record::Job(exec),
            Record::Job(failed),
        ] {
            let line = encode_record(&record);
            assert_eq!(parse_record(&line).unwrap(), record, "{line}");
        }
    }

    #[test]
    fn corruption_and_truncation_are_detected() {
        let line = encode_record(&Record::Job(sim_entry(0)));
        // Flip one content byte: checksum must catch it.
        let mut corrupt = line.clone().into_bytes();
        let target = corrupt.len() - 5;
        corrupt[target] ^= 0x01;
        let corrupt = String::from_utf8(corrupt).unwrap();
        assert!(parse_record(&corrupt).is_err(), "{corrupt}");
        // Any proper prefix must fail too (framing or checksum).
        for cut in 0..line.len() {
            assert!(parse_record(&line[..cut]).is_err(), "prefix {cut} parsed");
        }
    }

    #[test]
    fn scan_stops_at_torn_line_and_bad_records() {
        let h = encode_record(&Record::Header(header()));
        let j0 = encode_record(&Record::Job(sim_entry(0)));
        let j1 = encode_record(&Record::Job(sim_entry(1)));
        let clean = format!("{h}\n{j0}\n{j1}\n");
        let (records, len) = scan_valid_prefix(clean.as_bytes(), 3);
        assert_eq!(records.len(), 3);
        assert_eq!(len, clean.len() as u64);

        // Torn final line: drop the last 7 bytes (and its newline).
        let torn = &clean[..clean.len() - 8];
        let (records, len) = scan_valid_prefix(torn.as_bytes(), 3);
        assert_eq!(records.len(), 2);
        assert_eq!(len, (h.len() + 1 + j0.len() + 1) as u64);

        // A duplicate or out-of-range index ends the trustworthy prefix.
        let dup = format!("{h}\n{j0}\n{j0}\n");
        let (records, _) = scan_valid_prefix(dup.as_bytes(), 3);
        assert_eq!(records.len(), 2);
        let wild = encode_record(&Record::Job(sim_entry(99)));
        let out_of_range = format!("{h}\n{wild}\n");
        let (records, len) = scan_valid_prefix(out_of_range.as_bytes(), 3);
        assert_eq!(records.len(), 1);
        assert_eq!(len, (h.len() + 1) as u64);

        // A header is only in contract at line 1.
        let double_header = format!("{h}\n{h}\n");
        let (records, _) = scan_valid_prefix(double_header.as_bytes(), 3);
        assert_eq!(records.len(), 1);
    }

    fn failed_entry(index: u64) -> JobEntry {
        JobEntry {
            index,
            label: "x".into(),
            machine: "f1".into(),
            mode: "simulate",
            outcome: Err("job panicked: boom".into()),
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cf-journal-unit-{tag}-{}.wal", std::process::id()))
    }

    #[test]
    fn compact_image_drops_failures_and_is_idempotent() {
        let mut image = Vec::new();
        for r in [
            Record::Header(header()),
            Record::Job(sim_entry(0)),
            Record::Job(failed_entry(1)),
            Record::Job(sim_entry(2)),
        ] {
            image.extend_from_slice(encode_record(&r).as_bytes());
            image.push(b'\n');
        }
        // A torn tail is dropped by the rewrite too.
        image.extend_from_slice(b"{\"crc\":\"00");

        let (compacted, stats) = compact_image(&image, 3);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.bytes_before, image.len() as u64);
        assert!(stats.bytes_after < stats.bytes_before);
        assert_eq!(stats.reclaimed(), stats.bytes_before - stats.bytes_after);

        let (records, len) = scan_valid_prefix(&compacted, 3);
        assert_eq!(len as usize, compacted.len());
        assert_eq!(records.len(), 3);
        assert!(matches!(&records[0], Record::Header(h) if *h == header()));
        assert!(matches!(&records[1], Record::Job(e) if e.index == 0 && e.outcome.is_ok()));
        assert!(matches!(&records[2], Record::Job(e) if e.index == 2 && e.outcome.is_ok()));

        let (again, stats2) = compact_image(&compacted, 3);
        assert_eq!(again, compacted);
        assert_eq!(stats2.dropped, 0);
        assert_eq!(stats2.reclaimed(), 0);
    }

    #[test]
    fn truncated_header_is_reported_with_offset() {
        let path = temp_path("trunc-header");
        let line = encode_record(&Record::Header(header()));
        let cut = line.len() / 2;
        std::fs::write(&path, &line.as_bytes()[..cut]).unwrap();
        let err = Journal::resume(&path, &header()).unwrap_err();
        match &err {
            JournalError::TruncatedHeader { offset, .. } => assert_eq!(*offset, cut as u64),
            other => panic!("expected TruncatedHeader, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("truncated run-identity header"), "{msg}");
        assert!(msg.contains(&format!("byte offset {cut}")), "{msg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn on_disk_compaction_reclaims_failed_entries() {
        let path = temp_path("compact");
        let h = header();
        let mut journal = Journal::create(&path, &h).unwrap();
        journal.append(&sim_entry(0)).unwrap();
        journal.append(&failed_entry(1)).unwrap();
        let before = journal.file_len();
        assert_eq!(before, std::fs::metadata(&path).unwrap().len());
        assert!(journal.reclaimable > 0);

        // Below the threshold: no rewrite.
        assert_eq!(journal.maybe_compact(u64::MAX).unwrap(), None);
        // At/above the threshold with reclaimable bytes: rewrite.
        let stats = journal.maybe_compact(1).unwrap().unwrap();
        assert_eq!(stats.dropped, 1);
        assert_eq!(journal.file_len(), stats.bytes_after);
        assert_eq!(journal.file_len(), std::fs::metadata(&path).unwrap().len());
        assert_eq!(journal.reclaimable, 0);
        // Nothing left to reclaim: no further rewrite.
        assert_eq!(journal.maybe_compact(1).unwrap(), None);

        // The compacted journal stays appendable and resumable; the
        // dropped failure's index is free to be re-journaled.
        journal.append(&sim_entry(1)).unwrap();
        drop(journal);
        let (_journal, recovery) = Journal::resume(&path, &h).unwrap();
        assert_eq!(recovery.entries.len(), 2);
        assert!(recovery.entries.iter().all(|e| e.outcome.is_ok()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_opts_compacts_past_threshold_and_drops_failures() {
        let path = temp_path("resume-compact");
        let h = header();
        let mut journal = Journal::create(&path, &h).unwrap();
        journal.append(&sim_entry(0)).unwrap();
        journal.append(&failed_entry(1)).unwrap();
        drop(journal);

        // Threshold larger than the file: no compaction on resume.
        let (journal, recovery) = Journal::resume_opts(&path, &h, u64::MAX).unwrap();
        assert!(recovery.compaction.is_none());
        assert_eq!(recovery.entries.len(), 2);
        drop(journal);

        // Threshold of 1 byte: compaction fires, failures drop.
        let (journal, recovery) = Journal::resume_opts(&path, &h, 1).unwrap();
        let stats = recovery.compaction.unwrap();
        assert_eq!(stats.dropped, 1);
        assert_eq!(recovery.entries.len(), 1);
        assert_eq!(recovery.entries[0].index, 0);
        assert_eq!(journal.file_len(), std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn accept_records_round_trip_and_scan() {
        let accept = AcceptedEntry { index: 0, spec: "workload=matmul order=64 \"x\"\n".into() };
        let line = encode_record(&Record::Accepted(accept.clone()));
        assert_eq!(parse_record(&line).unwrap(), Record::Accepted(accept.clone()));

        // Accept then completion for the same index is in contract; a
        // repeated accept for the same index is not.
        let h = encode_record(&Record::Header(header()));
        let j0 = encode_record(&Record::Job(sim_entry(0)));
        let image = format!("{h}\n{line}\n{j0}\n");
        let (records, len) = scan_valid_prefix(image.as_bytes(), 3);
        assert_eq!(records.len(), 3);
        assert_eq!(len, image.len() as u64);
        let dup = format!("{h}\n{line}\n{line}\n");
        let (records, _) = scan_valid_prefix(dup.as_bytes(), 3);
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn compaction_keeps_unanswered_accepts_and_drops_settled_ones() {
        let settled = AcceptedEntry { index: 0, spec: "workload=matmul".into() };
        let pending = AcceptedEntry { index: 1, spec: "workload=mlp3".into() };
        let mut image = Vec::new();
        for r in [
            Record::Header(header()),
            Record::Accepted(settled),
            Record::Accepted(pending.clone()),
            Record::Job(sim_entry(0)),
        ] {
            image.extend_from_slice(encode_record(&r).as_bytes());
            image.push(b'\n');
        }
        let (compacted, stats) = compact_image(&image, 3);
        assert_eq!(stats.dropped, 1, "only the settled accept drops");
        let (records, _) = scan_valid_prefix(&compacted, 3);
        assert_eq!(records.len(), 3);
        assert!(records.iter().any(|r| matches!(r, Record::Accepted(a) if *a == pending)));
        let (twice, stats2) = compact_image(&compacted, 3);
        assert_eq!(twice, compacted);
        assert_eq!(stats2.dropped, 0);
    }

    #[test]
    fn resume_surfaces_pending_accepts_and_reclaims_settled_ones() {
        let path = temp_path("accepts");
        let h = header();
        let mut journal = Journal::create(&path, &h).unwrap();
        journal.append_accept(&AcceptedEntry { index: 0, spec: "workload=matmul".into() }).unwrap();
        journal.append_accept(&AcceptedEntry { index: 1, spec: "workload=mlp3".into() }).unwrap();
        assert_eq!(journal.reclaimable, 0, "pending accepts are not reclaimable");
        journal.append(&sim_entry(0)).unwrap();
        assert!(journal.reclaimable > 0, "a settled accept becomes reclaimable");
        drop(journal);

        let (_journal, recovery) = Journal::resume(&path, &h).unwrap();
        assert_eq!(recovery.entries.len(), 1);
        assert_eq!(recovery.accepted.len(), 2);
        assert_eq!(recovery.accepted[1].index, 1);

        // Compaction on resume drops the settled accept, keeps the other.
        let (_journal, recovery) = Journal::resume_opts(&path, &h, 1).unwrap();
        assert!(recovery.compaction.is_some());
        assert_eq!(recovery.accepted.len(), 1);
        assert_eq!(recovery.accepted[0].index, 1);
        assert_eq!(recovery.accepted[0].spec, "workload=mlp3");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_mismatch_names_the_field() {
        let base = header();
        let cases = [
            (RunHeader { manifest: 1, ..base.clone() }, "manifest fingerprint"),
            (RunHeader { machines: 1, ..base.clone() }, "machine fingerprints"),
            (RunHeader { fault_seed: None, ..base.clone() }, "fault_seed"),
            (RunHeader { fault_spec: 1, ..base.clone() }, "fault spec"),
            (RunHeader { jobs: 99, ..base.clone() }, "job count"),
            (RunHeader { version: 2, ..base.clone() }, "journal version"),
        ];
        for (other, field) in cases {
            match check_header(&other, &base) {
                Err(JournalError::Mismatch { field: f, .. }) => assert_eq!(f, field),
                other => panic!("expected mismatch on {field}, got {other:?}"),
            }
        }
        assert!(check_header(&base, &base).is_ok());
    }
}
