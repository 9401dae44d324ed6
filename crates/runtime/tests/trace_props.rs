//! Property tests for the distributed-trace wire format
//! (`cf_runtime::trace`): the `X-CF-Trace` header encode/parse
//! round-trips exactly for every valid context, parsing is
//! case-insensitive on input while encoding stays lowercase, child
//! contexts chain correctly, malformed headers are rejected (never
//! panicking, never half-parsing), the `X-CF-Attribution`
//! component list survives its own encode/parse round-trip, and the
//! attribution partitions the wall time it describes: a backend's stays
//! inside each job's own window, the router's view closes the router's
//! accept → stream time.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cf_runtime::trace::{Attribution, TraceContext};
use cf_runtime::{FaultPlan, FaultSpec, JobApi, JobWait, Runtime, RuntimeConfig, SubmitOk, Tracer};
use proptest::prelude::*;

/// A nonzero `u128` trace id assembled from two `u64` halves (the
/// compat `proptest` has no `u128` `Arbitrary`).
fn trace_id(hi: u64, lo: u64) -> u128 {
    (((hi as u128) << 64) | lo as u128) | 1
}

proptest! {
    /// encode → parse is the identity for every valid context, with
    /// and without a parent span.
    #[test]
    fn header_round_trips(
        hi in any::<u64>(),
        lo in any::<u64>(),
        span in any::<u64>(),
        parent in any::<u64>(),
        with_parent in any::<bool>(),
    ) {
        let ctx = TraceContext {
            trace_id: trace_id(hi, lo),
            span_id: span | 1,
            parent: if with_parent { Some(parent | 1) } else { None },
        };
        let encoded = ctx.encode();
        let parsed = TraceContext::parse(&encoded);
        prop_assert_eq!(parsed, Ok(ctx), "header {}", encoded);
        // The wire form is lowercase hex, but parsing accepts either
        // case — a proxy uppercasing headers must not break the chain.
        prop_assert_eq!(&encoded, &encoded.to_ascii_lowercase());
        prop_assert_eq!(TraceContext::parse(&encoded.to_ascii_uppercase()), Ok(ctx));
    }

    /// `child()` stays in the same trace, parents to the caller's span,
    /// and never mints a zero span id — and the child's header also
    /// round-trips.
    #[test]
    fn child_contexts_chain(
        hi in any::<u64>(),
        lo in any::<u64>(),
        span in any::<u64>(),
    ) {
        let root = TraceContext {
            trace_id: trace_id(hi, lo),
            span_id: span | 1,
            parent: None,
        };
        let child = root.child();
        prop_assert_eq!(child.trace_id, root.trace_id);
        prop_assert_eq!(child.parent, Some(root.span_id));
        prop_assert!(child.span_id != 0);
        prop_assert_eq!(TraceContext::parse(&child.encode()), Ok(child));
    }

    /// Malformed headers never panic and never parse: wrong segment
    /// counts, oversized fields, zero ids, and non-hex bytes are all
    /// rejected.
    #[test]
    fn malformed_headers_are_rejected(
        hi in any::<u64>(),
        lo in any::<u64>(),
        span in any::<u64>(),
        junk in proptest::collection::vec(any::<u8>(), 0..48usize),
    ) {
        let t = trace_id(hi, lo);
        let s = span | 1;
        // `{:Nx}` width is a minimum, not a truncation — shift the
        // value down so the short forms really are short.
        let mut nonhex = format!("{t:032x}-{s:016x}");
        nonhex.replace_range(0..1, "g");
        let bad = [
            String::new(),
            format!("{t:032x}"),                          // span missing
            format!("{t:032x}-{s:016x}-{s:016x}-{s:016x}"), // too many parts
            format!("{:031x}-{s:016x}", t >> 4),          // short trace id
            format!("0{t:032x}-{s:016x}"),                // long trace id
            format!("{t:032x}-{:015x}", s >> 4),          // short span id
            format!("{t:032x}-0{s:016x}"),                // long span id
            format!("{:032x}-{s:016x}", 0u128),           // zero trace id
            format!("{t:032x}-{:016x}", 0u64),            // zero span id
            format!("{t:032x}-{s:016x}-{:016x}", 0u64),   // zero parent
            nonhex,                                       // non-hex byte
        ];
        for input in &bad {
            prop_assert!(
                TraceContext::parse(input).is_err(),
                "accepted malformed header {:?}", input
            );
        }
        // Arbitrary bytes (lossily stringified) must never panic; any
        // accepted parse must re-encode to a canonical header that
        // parses back to the same context.
        let wild = String::from_utf8_lossy(&junk).to_string();
        if let Ok(ctx) = TraceContext::parse(&wild) {
            prop_assert_eq!(TraceContext::parse(&ctx.encode()), Ok(ctx));
        }
    }

    /// The attribution component list round-trips through its header
    /// form: names and values survive in order.
    #[test]
    fn attribution_round_trips(
        values in proptest::collection::vec(any::<u64>(), 1..6usize),
    ) {
        let mut attr = Attribution::new();
        for (i, &v) in values.iter().enumerate() {
            attr.push(&format!("part{i}_us"), v);
        }
        let encoded = attr.encode();
        let parsed = Attribution::parse(&encoded).expect("canonical form parses");
        let before: Vec<(String, u64)> =
            attr.iter().map(|(k, v)| (k.to_string(), v)).collect();
        let after: Vec<(String, u64)> =
            parsed.iter().map(|(k, v)| (k.to_string(), v)).collect();
        prop_assert_eq!(before, after, "header {}", encoded);
    }

    /// The router's components close the sum exactly: `total_us +
    /// net_submit_us + net_poll_us + backoff_us` is the router window
    /// whenever the backend's total and the backoff fit in it, however
    /// far the submit window overlaps the total.
    #[test]
    fn router_view_partitions_the_window(
        total in 0u64..1_000_000,
        backoff in 0u64..1_000_000,
        net in 0u64..1_000_000,
        submit in 0u64..3_000_000,
    ) {
        let window = total + backoff + net;
        let mut attr = Attribution::new();
        attr.push("total_us", total);
        let (net_submit, net_poll) = attr.push_router_view(window, submit, backoff);
        prop_assert_eq!(net_submit, submit.min(net));
        let sum = attr.total_us()
            + attr.get("net_submit_us").unwrap()
            + attr.get("net_poll_us").unwrap()
            + attr.get("backoff_us").unwrap();
        prop_assert_eq!(sum, window, "{}", attr.encode());
        prop_assert_eq!(net_submit + net_poll, net);
        prop_assert_eq!(attr.execution_sum_us(), 0, "router parts stay out of the execution sum");
    }
}

/// Synthetic timings where the submit window overlaps the backend's
/// total: the router window is 1000 µs, the backend total 600, backoff
/// 100, and the submit window 500 — so 200 µs of it ran concurrently
/// with the job. Summed naively (with the poll residue clamped at 0)
/// that is 1200 µs against a 1000 µs window; capped, it closes
/// exactly.
#[test]
fn overlapping_submit_window_is_capped_to_close_the_sum() {
    let mut attr = Attribution::new();
    attr.push("total_us", 600);
    assert_eq!(attr.push_router_view(1000, 500, 100), (300, 0));
    assert_eq!(attr.encode(), "total_us=600,net_submit_us=300,net_poll_us=0,backoff_us=100");
    // No overlap: the poll side takes the residue.
    let mut attr = Attribution::new();
    attr.push("total_us", 600);
    assert_eq!(attr.push_router_view(1000, 120, 100), (120, 180));
    // A total longer than the window (a coalesced follower reporting
    // its leader's clock) leaves the network nothing.
    let mut attr = Attribution::new();
    attr.push("total_us", 1200);
    assert_eq!(attr.push_router_view(1000, 300, 0), (0, 0));
}

/// A coalesced follower rides its leader's computation but is accepted
/// later, so its attribution must stay inside its own accept → settle
/// window — else the router's sum overshoots the client's clock. Every
/// job sleeps 200 ms in an injected latency fault, so a follower
/// accepted 50 ms after its leader always coalesces.
#[test]
fn coalesced_follower_attribution_stays_inside_its_own_window() {
    let spec =
        FaultSpec { latency_rate: 1.0, latency: Duration::from_millis(200), ..FaultSpec::none() };
    let runtime = Arc::new(Runtime::new(RuntimeConfig {
        workers: 1,
        fault_plan: Some(FaultPlan::new(1, spec)),
        tracer: Some(Arc::new(Tracer::new(256))),
        ..Default::default()
    }));
    let api = JobApi::new(Arc::clone(&runtime), 4096);
    let submit = || {
        let body = r#"{"workload":"matmul","order":32,"machine":"tiny"}"#;
        match api.submit_body(body, Some(TraceContext::mint())).unwrap() {
            SubmitOk::One(id) => id,
            other => panic!("{other:?}"),
        }
    };
    let leader = submit();
    thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    let follower = submit();
    assert!(matches!(api.wait(follower, Duration::from_secs(30)), Some(JobWait::Done(_))));
    let window_us = t0.elapsed().as_micros() as u64;
    assert_eq!(runtime.stats().api_coalesced.load(Ordering::Relaxed), 1, "no coalescing");

    let attr = |id| Attribution::parse(&api.attribution_of(id).unwrap()).unwrap();
    let (lead, follow) = (attr(leader), attr(follower));
    assert!(
        follow.total_us() <= window_us,
        "follower total {}µs > its own window {window_us}µs: {}",
        follow.total_us(),
        follow.encode(),
    );
    assert_eq!(follow.execution_sum_us(), follow.total_us(), "{}", follow.encode());
    assert!(
        lead.total_us() >= follow.total_us() + 40_000,
        "{} vs {}",
        lead.encode(),
        follow.encode()
    );
}
