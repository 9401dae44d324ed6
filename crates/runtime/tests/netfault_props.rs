//! Property tests for the network-chaos layer (`cf_runtime::netfault`)
//! and the end-to-end record digest (`cf_runtime::serve`):
//!
//! * the seeded wire-fault schedule that [`WireFaults::draw`] hands out
//!   is a pure function of `(seed, site, backend, request identity,
//!   attempt)` — so any interleaving of the same request multiset draws
//!   the same per-request fault sequence, which is what makes a chaos
//!   run reproducible at any concurrency;
//! * a request's `X-CF-Trace` value is not part of its identity, so a
//!   retry stamped with a fresh span draws like the first attempt's
//!   successor;
//! * the record digest catches **every** single-byte flip in a rendered
//!   record's core, and survives the router's id rewrite.

use std::collections::HashMap;

use cf_runtime::serve::{render_record_json, verify_record_json, JobOutput, JobRecord};
use cf_runtime::{FaultPlan, FaultSpec, JobError, NetFault, WireFaults, TRACE_HEADER};
use proptest::prelude::*;

fn spec(rate: f64) -> FaultSpec {
    FaultSpec {
        refuse_rate: rate,
        tear_rate: rate,
        garbage_rate: rate,
        wire_corrupt_rate: rate,
        connect_latency_rate: rate,
        trickle_rate: rate,
        ..FaultSpec::none()
    }
}

fn addr(backend: u64) -> String {
    format!("127.0.0.1:{}", 8100 + backend)
}

/// A router-shaped `POST /jobs` for job `job`, stamped with `trace`.
fn submit(job: u64, trace: u64) -> Vec<u8> {
    let body = format!("{{\"workload\":\"matmul\",\"order\":{}}}", 64 + job);
    format!(
        "POST /jobs HTTP/1.1\r\nHost: cfrouter\r\n{TRACE_HEADER}: {trace:032x}-{:016x}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        trace | 1,
        body.len()
    )
    .into_bytes()
}

/// Stable site label, so shrunk failures read well.
fn label(fault: Option<NetFault>) -> Option<&'static str> {
    fault.map(|f| match f {
        NetFault::Refuse => "refuse",
        NetFault::ConnectLatency(_) => "connect_latency",
        NetFault::Trickle(_) => "trickle",
        NetFault::Tear => "tear",
        NetFault::Garbage => "garbage",
        NetFault::Corrupt(_) => "corrupt",
    })
}

/// Feeds `exchanges` — `(backend, job, trace)` — through one fresh
/// shipped draw, in order, and returns each `(backend, job)` pair's
/// decisions in the order its exchanges drew them.
fn schedule(
    plan: &FaultPlan,
    exchanges: &[(u64, u64, u64)],
) -> HashMap<(u64, u64), Vec<Option<&'static str>>> {
    let faults = WireFaults::new(plan.clone());
    let mut out: HashMap<(u64, u64), Vec<Option<&'static str>>> = HashMap::new();
    for &(backend, job, trace) in exchanges {
        let decision = label(faults.draw(&addr(backend), &submit(job, trace)));
        out.entry((backend, job)).or_default().push(decision);
    }
    out
}

proptest! {
    /// Same seed ⇒ identical fault schedule regardless of request
    /// interleaving: shuffling the exchange order arbitrarily (each
    /// exchange keeps a fresh trace span) gives every `(backend,
    /// request)` pair the same decision sequence.
    #[test]
    fn schedule_is_interleaving_independent(
        seed in any::<u64>(),
        rate in 0.05f64..0.5,
        exchanges in proptest::collection::vec((0u64..4, 0u64..16, any::<u64>()), 1..64),
        shuffle_seed in any::<u64>(),
    ) {
        let plan = FaultPlan::new(seed, spec(rate));
        // A second interleaving: deterministic Fisher-Yates over the
        // same multiset of exchanges.
        let mut shuffled = exchanges.clone();
        let mut state = shuffle_seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (state % (i as u64 + 1)) as usize);
        }
        prop_assert_eq!(schedule(&plan, &exchanges), schedule(&plan, &shuffled));
    }

    /// Two requests that differ only in their `X-CF-Trace` value draw
    /// identical schedules.
    #[test]
    fn trace_span_does_not_change_the_schedule(
        seed in any::<u64>(),
        rate in 0.05f64..0.5,
        backend in 0u64..4,
        job in 0u64..16,
        traces in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..32),
    ) {
        let plan = FaultPlan::new(seed, spec(rate));
        let (a, b) = (WireFaults::new(plan.clone()), WireFaults::new(plan));
        for (ta, tb) in traces {
            prop_assert_eq!(
                a.draw(&addr(backend), &submit(job, ta)),
                b.draw(&addr(backend), &submit(job, tb))
            );
        }
    }

    /// Two plans with the same seed and spec agree on every decision
    /// point; a different seed diverges somewhere on a dense grid.
    #[test]
    fn same_seed_same_decisions(seed in any::<u64>(), rate in 0.05f64..0.95) {
        let a = WireFaults::new(FaultPlan::new(seed, spec(rate)));
        let b = WireFaults::new(FaultPlan::new(seed, spec(rate)));
        let c = WireFaults::new(FaultPlan::new(seed ^ 0x9E37_79B9, spec(rate)));
        let mut diverged = false;
        for backend in 0..4u64 {
            for job in 0..32u64 {
                for attempt in 0..2u64 {
                    let raw = submit(job, attempt);
                    let d = a.draw(&addr(backend), &raw);
                    prop_assert_eq!(d, b.draw(&addr(backend), &raw));
                    diverged |= d != c.draw(&addr(backend), &raw);
                }
            }
        }
        prop_assert!(diverged, "seed change never altered any of 256 draws");
    }

    /// The rendered record round-trips through its digest, survives the
    /// router's id rewrite, and any single-byte flip in the core fails
    /// verification.
    #[test]
    fn record_digest_detects_every_single_byte_flip(
        index in 0usize..100_000,
        label_idx in prop::collection::vec(0usize..64, 0..24),
        ok in any::<bool>(),
        elems in 0usize..1_000_000,
        hash in any::<u64>(),
        new_id in 0u64..1_000_000,
    ) {
        // Labels drawn from an alphabet that includes JSON-hostile
        // characters, so the digest marker scan is exercised against
        // escaped quotes and backslashes inside values.
        const ALPHABET: &[u8; 64] =
            b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123_ \"\\-.:,";
        let label: String =
            label_idx.iter().map(|&i| ALPHABET[i] as char).collect();
        let record = JobRecord {
            index,
            label,
            machine: "f1".to_string(),
            mode: "exec",
            outcome: if ok {
                Ok(JobOutput::Exec { elems, memory_hash: hash })
            } else {
                Err(JobError::Panicked(format!("worker died ({hash:x})")))
            },
        };
        let line = render_record_json(&record);
        prop_assert!(verify_record_json(&line, Some(index as u64)), "{}", line);
        prop_assert!(!verify_record_json(&line, Some(index as u64 + 1)), "{}", line);
        // The router's edge rewrite keeps the digest valid.
        let rewritten = line.replacen(
            &format!("{{\"job\":{index},"),
            &format!("{{\"job\":{new_id},"),
            1,
        );
        prop_assert_eq!(verify_record_json(&rewritten, Some(new_id)), true);
        // Every single-byte flip of the core is caught.
        let core_start = line.find(',').unwrap_or(0) + 1;
        let core_end = line.rfind(",\"digest\":\"").unwrap_or(line.len());
        let bytes = line.as_bytes();
        for at in core_start..core_end {
            let mut mutated = bytes.to_vec();
            mutated[at] ^= 0x20;
            if mutated == bytes {
                continue;
            }
            let mutated = String::from_utf8_lossy(&mutated).to_string();
            prop_assert!(
                !verify_record_json(&mutated, Some(index as u64)),
                "flip at {} undetected: {}", at, mutated
            );
        }
    }
}
