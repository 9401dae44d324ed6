//! Property tests for the serve journal: arbitrary records round-trip
//! through encode/parse exactly, any single-byte corruption is detected
//! by the checksum, and a torn final line is recovered by truncation —
//! never fatal, never silently replayed.

use std::sync::atomic::{AtomicUsize, Ordering};

use cf_runtime::journal::{
    compact_image, encode_record, parse_record, scan_valid_prefix, AcceptedEntry, JobEntry,
    Journal, Record, Recovery, RunHeader, JOURNAL_VERSION,
};
use cf_runtime::JobOutput;
use proptest::prelude::*;

/// Characters labels/machines/errors are built from: covers every escape
/// class the JSON string encoder handles (quote, backslash, control
/// chars, multi-byte UTF-8) plus plain ASCII.
const CHARS: &[char] =
    &['a', 'Z', '0', ' ', '_', '"', '\\', '\n', '\t', '\r', '\u{1}', 'é', '界', '/'];

fn string_from(indices: &[usize]) -> String {
    indices.iter().map(|&i| CHARS[i % CHARS.len()]).collect()
}

/// A fresh path in the target tmp dir, unique per process and call.
fn temp_path(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cf-journal-{tag}-{}-{seq}.wal", std::process::id()))
}

fn header(jobs: u64) -> RunHeader {
    RunHeader {
        version: JOURNAL_VERSION,
        manifest: 0x1234_5678_9ABC_DEF0,
        machines: 0x0FED_CBA9_8765_4321,
        fault_seed: Some(7),
        fault_spec: 42,
        jobs,
    }
}

/// Builds an entry from proptest-generated raw parts: `outcome_sel`
/// picks sim / exec / failed.
#[allow(clippy::too_many_arguments)]
fn entry(
    index: u64,
    label_idx: &[usize],
    machine_idx: &[usize],
    exec_mode: bool,
    outcome_sel: u8,
    floats: (f64, f64, f64, f64, f64),
    elems: usize,
    hash: u64,
) -> JobEntry {
    let outcome = match outcome_sel % 3 {
        0 => Ok(JobOutput::Sim {
            makespan_s: floats.0,
            steady_s: floats.1,
            attained_tops: floats.2,
            peak_fraction: floats.3,
            root_intensity: floats.4,
        }),
        1 => Ok(JobOutput::Exec { elems, memory_hash: hash }),
        _ => Err(format!("job panicked: {}", string_from(label_idx))),
    };
    JobEntry {
        index,
        label: string_from(label_idx),
        machine: string_from(machine_idx),
        mode: if exec_mode { "exec" } else { "simulate" },
        outcome,
    }
}

proptest! {
    /// encode → parse is the identity for any job record, including
    /// labels exercising every JSON escape class and `{:?}`-formatted
    /// floats (which round-trip bit-exactly).
    #[test]
    fn job_records_round_trip(
        index in 0u64..1_000_000,
        label_idx in prop::collection::vec(0usize..CHARS.len(), 0..12),
        machine_idx in prop::collection::vec(0usize..CHARS.len(), 1..6),
        exec_mode in any::<bool>(),
        outcome_sel in 0u8..3,
        floats in (
            0.0f64..1e9, 1e-12f64..1.0, 0.0f64..1e3, 0.0f64..1.0, 0.0f64..1e6,
        ),
        elems in 0usize..1_000_000,
        hash in any::<u64>(),
    ) {
        let record = Record::Job(entry(
            index, &label_idx, &machine_idx, exec_mode, outcome_sel, floats, elems, hash,
        ));
        let line = encode_record(&record);
        prop_assert_eq!(parse_record(&line).unwrap(), record, "{}", line);
    }

    /// Header records round-trip too, with and without a fault seed.
    #[test]
    fn header_records_round_trip(
        version in 0u32..10,
        manifest in any::<u64>(),
        machines in any::<u64>(),
        seeded in any::<bool>(),
        seed in any::<u64>(),
        fault_spec in any::<u64>(),
        jobs in 0u64..100_000,
    ) {
        let record = Record::Header(RunHeader {
            version,
            manifest,
            machines,
            fault_seed: seeded.then_some(seed),
            fault_spec,
            jobs,
        });
        let line = encode_record(&record);
        prop_assert_eq!(parse_record(&line).unwrap(), record, "{}", line);
    }

    /// Flipping any single bit of any byte of an encoded line makes it
    /// unparseable — the checksum (or the strict framing) catches it.
    #[test]
    fn single_byte_corruption_is_detected(
        label_idx in prop::collection::vec(0usize..CHARS.len(), 0..10),
        outcome_sel in 0u8..3,
        byte_pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let record = Record::Job(entry(
            7, &label_idx, &[0, 1], false, outcome_sel,
            (1.5, 0.25, 3.0, 0.5, 12.0), 64, 0xDEAD_BEEF,
        ));
        let line = encode_record(&record);
        let mut bytes = line.clone().into_bytes();
        let pos = byte_pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        match String::from_utf8(bytes) {
            // Corruption that breaks UTF-8 can never reach the parser
            // from a journal scan (the line is rejected earlier).
            Err(_) => {}
            Ok(corrupt) => prop_assert!(
                parse_record(&corrupt).is_err(),
                "flip at {} bit {} parsed: {}", pos, bit, corrupt
            ),
        }
    }

    /// Truncating a journal image at any byte keeps the valid-prefix
    /// scan lossless: complete leading lines are all recovered, the torn
    /// tail is dropped, and re-scanning the recovered prefix is stable
    /// (truncation recovery is idempotent).
    #[test]
    fn torn_tail_truncation_recovers_the_valid_prefix(
        entries in prop::collection::vec(
            (prop::collection::vec(0usize..CHARS.len(), 0..8), 0u8..3),
            1..6,
        ),
        cut_sel in any::<usize>(),
    ) {
        let jobs = entries.len() as u64;
        let mut image = encode_record(&Record::Header(header(jobs))).into_bytes();
        image.push(b'\n');
        let mut line_ends = vec![image.len()];
        for (i, (label_idx, sel)) in entries.iter().enumerate() {
            let e = entry(
                i as u64, label_idx, &[2, 3], *sel == 1, *sel,
                (0.5, 0.25, 1.0, 0.75, 2.0), 16, i as u64,
            );
            image.extend_from_slice(encode_record(&Record::Job(e)).as_bytes());
            image.push(b'\n');
            line_ends.push(image.len());
        }
        let cut = cut_sel % (image.len() + 1);
        let torn = &image[..cut];
        let (records, valid_len) = scan_valid_prefix(torn, jobs);
        // The valid prefix is exactly the complete lines before the cut.
        let expected_lines = line_ends.iter().filter(|&&end| end <= cut).count();
        prop_assert_eq!(records.len(), expected_lines);
        prop_assert_eq!(valid_len as usize, line_ends.get(expected_lines.wrapping_sub(1)).copied().unwrap_or(0));
        // Idempotent: scanning the recovered prefix changes nothing.
        let (again, len_again) = scan_valid_prefix(&torn[..valid_len as usize], jobs);
        prop_assert_eq!(again.len(), records.len());
        prop_assert_eq!(len_again, valid_len);
    }

    /// Compacting a journal image never changes what a resume replays:
    /// the successful entries (the merged report's journaled half) come
    /// out of the compacted image identical and in order, failed entries
    /// are dropped for a fresh retry, and compaction is idempotent.
    #[test]
    fn compaction_replays_the_same_merged_outcomes(
        entries in prop::collection::vec(
            (prop::collection::vec(0usize..CHARS.len(), 0..8), 0u8..3),
            1..10,
        ),
    ) {
        let jobs = entries.len() as u64;
        let mut image = encode_record(&Record::Header(header(jobs))).into_bytes();
        image.push(b'\n');
        for (i, (label_idx, sel)) in entries.iter().enumerate() {
            let e = entry(
                i as u64, label_idx, &[2, 3], *sel == 1, *sel,
                (0.5, 0.25, 1.0, 0.75, 2.0), 16, i as u64,
            );
            image.extend_from_slice(encode_record(&Record::Job(e)).as_bytes());
            image.push(b'\n');
        }

        let (original, _) = scan_valid_prefix(&image, jobs);
        let ok_entries: Vec<&Record> = original[1..]
            .iter()
            .filter(|r| matches!(r, Record::Job(j) if j.outcome.is_ok()))
            .collect();
        let failed = original.len() - 1 - ok_entries.len();

        let (compacted, stats) = compact_image(&image, jobs);
        prop_assert_eq!(stats.dropped as usize, failed);
        prop_assert_eq!(stats.bytes_before as usize, image.len());
        prop_assert_eq!(stats.bytes_after as usize, compacted.len());
        prop_assert!(compacted.len() <= image.len());

        // The compacted image replays to exactly the successful entries.
        let (replayed, valid_len) = scan_valid_prefix(&compacted, jobs);
        prop_assert_eq!(valid_len as usize, compacted.len(), "compacted image must be fully valid");
        prop_assert!(matches!(replayed[0], Record::Header(_)));
        let replayed_jobs: Vec<&Record> = replayed[1..].iter().collect();
        prop_assert_eq!(replayed_jobs, ok_entries);

        // Idempotent: compacting a compacted image is the identity.
        let (twice, stats2) = compact_image(&compacted, jobs);
        prop_assert_eq!(twice, compacted);
        prop_assert_eq!(stats2.dropped, 0);
    }
}

/// Journal `n` jobs through a real file: every job is accepted, then
/// each one whose bit in `done` is set completes. `batched` writes the
/// accepts as one batch and the completions in batches of `batch`
/// (leader plus followers, as the job API settles them); otherwise
/// every record is its own append. Returns the file bytes.
fn journal_jobs(path: &std::path::Path, entries: &[JobEntry], batched: Option<usize>) -> Vec<u8> {
    let mut journal = Journal::create(path, &header(entries.len() as u64)).unwrap();
    let accepts: Vec<AcceptedEntry> = entries
        .iter()
        .map(|e| AcceptedEntry {
            index: e.index,
            spec: format!("workload=matmul order={}", e.index),
        })
        .collect();
    match batched {
        Some(batch) => {
            journal.append_accepts(&accepts).unwrap();
            for chunk in entries.chunks(batch.max(1)) {
                journal.append_all(chunk).unwrap();
            }
        }
        None => {
            for a in &accepts {
                journal.append_accept(a).unwrap();
            }
            for e in entries {
                journal.append(e).unwrap();
            }
        }
    }
    drop(journal);
    std::fs::read(path).unwrap()
}

/// The comparable part of a [`Recovery`].
fn recovered(r: &Recovery) -> (Vec<JobEntry>, Vec<AcceptedEntry>, u64) {
    (r.entries.clone(), r.accepted.clone(), r.truncated_bytes)
}

proptest! {
    /// A batched append writes exactly the bytes of one append per
    /// record, and resumes to the same recovery.
    #[test]
    fn batched_appends_match_single_appends(
        entries in prop::collection::vec(
            (prop::collection::vec(0usize..CHARS.len(), 0..8), 0u8..3),
            1..8,
        ),
        batch in 1usize..5,
    ) {
        let entries: Vec<JobEntry> = entries
            .iter()
            .enumerate()
            .map(|(i, (label, sel))| {
                entry(i as u64, label, &[2, 3], *sel == 1, *sel, (0.5, 0.25, 1.0, 0.75, 2.0), 16, 0)
            })
            .collect();
        let (single_path, batch_path) = (temp_path("single"), temp_path("batch"));
        let single = journal_jobs(&single_path, &entries, None);
        let batched = journal_jobs(&batch_path, &entries, Some(batch));
        prop_assert_eq!(&single, &batched);
        let h = header(entries.len() as u64);
        let (_, from_single) = Journal::resume(&single_path, &h).unwrap();
        let (_, from_batch) = Journal::resume(&batch_path, &h).unwrap();
        prop_assert_eq!(recovered(&from_single), recovered(&from_batch));
        prop_assert_eq!(from_batch.entries.len(), entries.len());
        std::fs::remove_file(&single_path).ok();
        std::fs::remove_file(&batch_path).ok();
    }

    /// A crash inside one batch's write leaves a torn tail somewhere in
    /// the batch: resume keeps exactly the complete lines before the cut
    /// and truncates the rest.
    #[test]
    fn torn_batch_resumes_to_a_valid_prefix(
        labels in prop::collection::vec(prop::collection::vec(0usize..CHARS.len(), 0..8), 2..8),
        cut_sel in any::<usize>(),
    ) {
        let entries: Vec<JobEntry> = labels
            .iter()
            .enumerate()
            .map(|(i, label)| entry(i as u64, label, &[1], false, 0, (1.0, 0.5, 2.0, 0.25, 8.0), 0, 0))
            .collect();
        let path = temp_path("torn-batch");
        let mut journal = Journal::create(&path, &header(entries.len() as u64)).unwrap();
        let before = journal.file_len() as usize;
        journal.append_all(&entries).unwrap();
        drop(journal);
        let bytes = std::fs::read(&path).unwrap();
        let cut = before + cut_sel % (bytes.len() - before + 1);
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let mut line_end = before;
        let mut complete = 0;
        for e in &entries {
            let next = line_end + encode_record(&Record::Job(e.clone())).len() + 1;
            if next > cut {
                break;
            }
            line_end = next;
            complete += 1;
        }
        let (_, recovery) = Journal::resume(&path, &header(entries.len() as u64)).unwrap();
        prop_assert_eq!(&recovery.entries[..], &entries[..complete]);
        prop_assert_eq!(recovery.truncated_bytes as usize, cut - line_end);
        prop_assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, line_end);
        std::fs::remove_file(&path).ok();
    }
}

/// End-to-end torn-tail recovery through the real file path: append
/// garbage + a partial record to a journal on disk, resume, and observe
/// the file truncated back to its valid prefix with all entries intact.
#[test]
fn resume_truncates_torn_tail_on_disk() {
    let path = temp_path("torn");
    let h = header(3);
    let mut journal = Journal::create(&path, &h).unwrap();
    for i in 0..2u64 {
        journal
            .append(&entry(i, &[0, 1, 2], &[3], false, 0, (1.0, 0.5, 2.0, 0.25, 8.0), 0, 0))
            .unwrap();
    }
    drop(journal);
    let clean_len = std::fs::metadata(&path).unwrap().len();

    // A crash mid-append leaves a partial record: simulate one.
    let full = encode_record(&Record::Job(entry(
        2,
        &[4],
        &[3],
        false,
        0,
        (1.0, 0.5, 2.0, 0.25, 8.0),
        0,
        0,
    )));
    let torn = &full[..full.len() / 2];
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(torn.as_bytes()).unwrap();
    }

    let (journal, recovery) = Journal::resume(&path, &h).unwrap();
    assert_eq!(recovery.entries.len(), 2);
    assert_eq!(recovery.truncated_bytes, torn.len() as u64);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
    drop(journal);
    std::fs::remove_file(&path).ok();
}
