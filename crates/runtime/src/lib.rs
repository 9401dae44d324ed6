//! `cf-runtime` — a concurrent simulation-service runtime for the
//! Cambricon-F reproduction.
//!
//! The simulator crates (`cf-core`, `cf-model`) are synchronous,
//! single-job libraries. This crate turns them into a *service*:
//!
//! * [`Runtime`] — a bounded submission queue feeding a `std::thread`
//!   worker pool; every submission returns a [`JobHandle`] with
//!   deadlines, cancellation and graceful shutdown.
//! * [`PlanCache`] — an LRU over finished [`PerfReport`]s keyed by
//!   `(machine fingerprint, program content hash)`, so repeated
//!   simulations of the same workload skip the fractal planner and
//!   pipeline model entirely. Simulation is a pure function of machine
//!   structure and program content, which is what makes the cache exact;
//!   functional execution is not (it reads memory contents) and bypasses
//!   the cache — see DESIGN.md §6.
//! * [`batch`] — fan-out helpers for design-space sweeps
//!   ([`batch::sweep_designs`]) and labelled job suites
//!   ([`batch::run_batch`], used by the experiment harness).
//! * [`manifest`] — the `cfserve` job-manifest grammar and builtin
//!   workload registry.
//! * [`serve`] — the manifest-serving engine shared by the `cfserve`
//!   binary and the chaos tests: resolve, submit, join in submission
//!   order, render deterministic JSON records.
//! * [`journal`] — a crash-consistent write-ahead journal for serve
//!   runs: fsync'd, checksummed JSONL records that let
//!   `cfserve --journal run.wal --resume` skip already-completed jobs
//!   and merge their recorded outputs byte-identically. Paired with
//!   [`LoadPolicy`] admission control (immediate [`JobError::Shed`]
//!   instead of unbounded queueing). See DESIGN.md §7.
//! * [`RuntimeStats`] — lock-free counters (submissions, completions,
//!   cache hits, retries, injected faults, queue wait, per-worker busy
//!   time) snapshotted on demand.
//! * [`fault`] / [`supervisor`] — the resilience layer: a seeded,
//!   deterministic [`FaultPlan`] injecting panics, latency, cache
//!   corruption, deadline expiries and DMA faults; retry-with-backoff
//!   under a budget; a consecutive-failure [`CircuitBreaker`]; worker
//!   respawn on panic. See DESIGN.md §7.
//! * [`obs`] / [`status`] — the observability layer: a lock-cheap
//!   [`Tracer`] (span ring buffer + per-stage latency histograms,
//!   off by default), the [`Obs`] hub publishing live stats and
//!   admission headroom, and a dependency-free HTTP/1.1
//!   [`StatusServer`] exposing `/healthz`, `/stats`, `/trace`,
//!   `/version` and a Prometheus `/metrics` text exposition
//!   ([`metrics`], with simulator profile aggregates from
//!   `profile=true` manifest jobs) (`cfserve --status-port`). Journal
//!   files past a size threshold are compacted — superseded/failed
//!   records dropped, checksummed framing preserved — on resume and
//!   during live runs. See DESIGN.md §8.
//! * [`api`] — the HTTP job subsystem behind `POST /jobs`: JSON job
//!   specs accepted over the status listener, journaled durably
//!   *before* the id is acknowledged, coalesced across requests by
//!   plan-cache identity, shed at the front door under overload
//!   (`503` + `Retry-After`), and streamed back from
//!   `GET /jobs/<id>` byte-identically to the manifest serving path.
//!   See DESIGN.md §9.
//! * [`router`] — the fleet layer: a consistent-hash [`Router`] front
//!   door (`cfrouter`) sharding jobs by plan-cache fingerprint across
//!   N `cfserve` backends, with a background health prober
//!   (eject/readmit), failover to ring replicas with bounded backoff,
//!   hedged duplicates past a latency quantile, per-backend circuit
//!   breakers, and fleet-aggregated `/metrics`; `cfserve` pairs it with
//!   a graceful drain path (SIGTERM / `POST /drain`). One fleet is one
//!   more fractal level, with the router as the parent node. See
//!   DESIGN.md §10.
//! * [`netfault`] — deterministic *network* chaos paired with
//!   end-to-end record integrity: a seeded [`NetFaultPlan`] (the wire
//!   sibling of [`FaultPlan`]) injects connect refusals, stalls,
//!   slow-loris trickle, mid-body tears, garbage status lines and
//!   single-byte corruption — either in-process behind the router's
//!   [`Connector`] seam or as a standalone byte-level [`FaultProxy`]
//!   (`cfrouter --fault-proxy`). Backends stamp every response with an
//!   `X-CF-Digest` header and every record with a digest field
//!   ([`serve::verify_record_json`]); the router rejects mismatches and
//!   quarantines repeat offenders. See DESIGN.md §11.
//! * [`trace`] — fleet-wide distributed tracing: the router mints a
//!   [`TraceContext`] per accepted job and propagates it as the
//!   `X-CF-Trace` header; backends attach it to their span ring so
//!   `GET /trace/<trace-id>` on the router can assemble one merged,
//!   causally-ordered Chrome trace across every process, and finished
//!   records carry an [`Attribution`] latency breakdown feeding the
//!   router's `cf_slo_*` burn-rate series. See DESIGN.md §16.
//!
//! # Example
//!
//! ```
//! use cf_runtime::{Runtime, RuntimeConfig};
//! use cf_core::MachineConfig;
//! use cf_workloads::nets;
//! use std::sync::Arc;
//!
//! let runtime = Runtime::new(RuntimeConfig { workers: 2, ..Default::default() });
//! let program = Arc::new(nets::matmul_program(128));
//!
//! // Submit the same workload twice: the second run is a cache hit and
//! // returns the identical report.
//! let a = runtime.submit_simulate(MachineConfig::cambricon_f1(), Arc::clone(&program));
//! let b = runtime.submit_simulate(MachineConfig::cambricon_f1(), program);
//! let (a, b) = (a.join().unwrap(), b.join().unwrap());
//! assert_eq!(a.report, b.report);
//! ```
//!
//! [`PerfReport`]: cf_core::PerfReport

#![warn(missing_docs)]

pub mod api;
pub mod batch;
pub mod cache;
pub mod fault;
pub mod job;
pub mod journal;
pub mod listener;
pub mod manifest;
pub mod metrics;
pub mod netfault;
pub mod obs;
pub mod router;
pub mod scheduler;
pub mod serve;
pub mod stats;
pub mod status;
pub mod supervisor;
pub(crate) mod sync;
pub mod trace;

pub use api::{ApiResume, HttpParseError, HttpRequest, JobApi, JobWait, SubmitError, SubmitOk};
pub use cache::{report_checksum, CacheKey, CacheLookup, PlanCache};
pub use fault::{FaultPlan, FaultSite, FaultSpec};
pub use job::{JobError, JobHandle, JobOptions};
pub use journal::{
    CompactionStats, JobEntry, Journal, JournalError, Record, RecordError, RunHeader,
};
pub use netfault::{
    FaultConnector, FaultProxy, NetFault, NetFaultPlan, NetFaultSite, NetFaultSpec,
};
pub use obs::{LatencyHistogram, Obs, ProfileAgg, SpanEvent, SpanKind, Stage, Tracer};
pub use router::{
    BackendHealth, CancelSlot, Connector, Ring, Router, RouterConfig, RouterServer, TcpConnector,
};
pub use scheduler::{ExecResult, LoadPolicy, ProfiledSimResult, Runtime, RuntimeConfig, SimResult};
pub use serve::{
    JobOutput, JobRecord, JournalOptions, ServeError, ServeOptions, ServeReport,
    DEFAULT_COMPACT_THRESHOLD,
};
pub use stats::{RouterStats, RuntimeStats, StatsSnapshot, WorkerSnapshot};
pub use status::StatusServer;
pub use supervisor::{next_retry, BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
pub use trace::{Attribution, TraceContext, ATTRIBUTION_HEADER, TRACE_HEADER};
