//! `bench_gate` — the CI performance gate over the cf-runtime service
//! layer.
//!
//! Measures nine numbers, writes them to `BENCH_runtime.json`
//! (the artifact CI uploads) and gates five of them against a
//! committed baseline:
//!
//! * `cached_speedup` — best-case (per-iteration minimum) uncached
//!   simulate latency over best-case cached simulate latency for the
//!   same `(machine, program)` key. This is
//!   the number the plan cache exists to produce, so it is gated: the
//!   gate **fails when it regresses more than 20%** below the committed
//!   baseline (`current < 0.8 × baseline`).
//! * `uncached_us` — best-case *cold* simulate latency (cache bypassed,
//!   full planner + model run). The cold path carries its own optimisations
//!   (shape memo, plan arena, parallel fan-out), so it is **also
//!   gated**: the gate fails when the measured latency exceeds the
//!   baseline's as-written value (headroom undone) by more than 20%
//!   (`current > 1.2 × baseline / headroom`).
//! * `cold_sim_2100_us` — best-case `Machine::simulate` of an f1 matmul
//!   of order 2100, simulator only (no runtime, no cache): the
//!   `cold-unique` fleet workload's cost plateau, where one level-1 plan
//!   runs 512 SD steps of 32 children and the step memo times only the
//!   distinct ones. **Gated** exactly like `uncached_us`.
//! * `warm_net_us` — best-case simulate of an f1 alexnet at batch
//!   [`WARM_NET_BATCH`] on a [`SimCache`] that has just simulated the
//!   same net at batch [`WARM_NET_PRIMER`] (a fresh cache per
//!   iteration): what a cold `cold-shared` job costs once its worker's
//!   tables hold a same-lane neighbour's layer shapes. **Gated** exactly
//!   like `uncached_us`; a simulator that stopped reusing its tables
//!   across calls would time the whole net cold.
//! * `serve_jobs_per_s` — the 19-job `assets/serve.jobs` manifest
//!   through `serve_manifest`, end to end (informational).
//! * `replay_records_per_s` — `scan_valid_prefix` over a synthetic
//!   5000-record journal image (informational).
//! * `profile_overhead` — `simulate_profiled` wall time over plain
//!   `simulate` for the same program (informational; the *disabled*
//!   profiler costs one branch and is covered by the gated number).
//! * `http_rtt_us` — median round trip of 32 sequential `GET /jobs/<id>`
//!   polls of a finished job through an in-process `RouterServer` →
//!   `StatusServer` pair, each after a 15 ms idle gap (longer than a
//!   10 ms idle poll, so a polling accept loop would be asleep). The
//!   router answers `/healthz` from its own table, so the gate polls a
//!   record instead: that crosses both listeners, like every job's
//!   poll. **Gated** like `uncached_us`
//!   (ceiling = baseline with the headroom undone × 3), and never above
//!   4 ms — a bar that two 10 ms polling hops (median ≈ 10 ms) cannot
//!   meet.
//!
//! ```text
//! bench_gate [--out PATH] [--baseline PATH] [--write-baseline]
//! ```
//!
//! The baseline lives at `crates/bench/baselines/runtime.json` and is
//! deliberately conservative (about half of what a developer laptop
//! measures) so shared CI runners don't flake; `--write-baseline`
//! regenerates it from the current measurement with the same headroom.
//!
//! Exit codes: `0` pass, `1` gate failure or I/O error.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cf_core::perf::SimCache;
use cf_core::{Machine, MachineConfig};
use cf_runtime::journal::{encode_record, scan_valid_prefix, JOURNAL_VERSION};
use cf_runtime::serve::serve_manifest;
use cf_runtime::{
    JobApi, JobEntry, JobOptions, JobOutput, Obs, Record, Router, RouterConfig, RouterServer,
    RunHeader, Runtime, RuntimeConfig, ServeOptions, StatusServer,
};
use cf_workloads::nets;
use serde_json::{Map, Serialize, Value};

/// Cached-simulate iterations (cheap: microseconds each).
const CACHED_ITERS: u32 = 200;
/// Uncached-simulate iterations (each runs the full planner + model;
/// enough samples for the minimum to escape scheduler noise).
const UNCACHED_ITERS: u32 = 16;
/// Simulator-only cold iterations of the order-2100 matmul (a few ms
/// each).
const COLD_SIM_ITERS: u32 = 12;
/// f1 matmul order of the simulator-only cold gate.
const COLD_SIM_ORDER: usize = 2100;
/// Warm-net iterations (each primes a fresh cache, then times one net).
const WARM_NET_ITERS: u32 = 24;
/// The alexnet batch the warm-net gate times …
const WARM_NET_BATCH: usize = 32;
/// … after the same cache simulated this batch.
const WARM_NET_PRIMER: usize = 29;
/// Synthetic journal records for the replay-rate measurement.
const REPLAY_RECORDS: u64 = 5000;
/// Profiled-vs-plain simulate iterations for the overhead measurement.
const PROFILE_ITERS: u32 = 6;
/// Hottest-signature budget passed to `simulate_profiled` (matches the
/// serve default order of magnitude; the top-N heap is O(log N) per
/// memo event either way).
const PROFILE_TOP_SIGNATURES: usize = 16;
/// Gate threshold: fail when cached_speedup < this fraction of baseline.
const GATE_FRACTION: f64 = 0.8;
/// Cold-latency gate: fail when measured uncached latency exceeds the
/// baseline's at-write-time measurement (its committed value with the
/// `BASELINE_HEADROOM` undone) by more than this factor.
const COLD_GATE_FACTOR: f64 = 1.2;
/// Headroom applied by `--write-baseline` (baseline = measured / 2).
const BASELINE_HEADROOM: f64 = 0.5;
/// Sequential round trips behind the `http_rtt_us` median.
const HTTP_RTT_ITERS: usize = 32;
/// Idle time before each round trip: longer than a 10 ms accept poll.
const HTTP_IDLE_GAP: Duration = Duration::from_millis(15);
/// HTTP gate: fail when the median round trip exceeds the baseline's
/// at-write-time value by more than this factor (loopback round trips
/// cross two thread spawns, so the allowance is wider than the cold
/// gate's) …
const HTTP_GATE_FACTOR: f64 = 3.0;
/// … or exceeds this many µs, whatever the baseline says.
const HTTP_RTT_CEILING_US: f64 = 4000.0;

fn repo_root() -> PathBuf {
    // crates/bench/ -> crates/ -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// The `BENCH_runtime.json` artifact (also the baseline-file schema).
struct GateReport {
    cached_speedup: f64,
    cached_us: f64,
    uncached_us: f64,
    cold_sim_2100_us: f64,
    warm_net_us: f64,
    serve_jobs_per_s: f64,
    replay_records_per_s: f64,
    profile_overhead: f64,
    http_rtt_us: f64,
}

/// Rounds to two decimals so the committed baseline diffs stay readable.
fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

impl Serialize for GateReport {
    fn to_value(&self) -> Value {
        let mut obj = Map::new();
        obj.insert("cached_speedup", round2(self.cached_speedup));
        obj.insert("cached_us", round2(self.cached_us));
        obj.insert("uncached_us", round2(self.uncached_us));
        obj.insert("cold_sim_2100_us", round2(self.cold_sim_2100_us));
        obj.insert("warm_net_us", round2(self.warm_net_us));
        obj.insert("serve_jobs_per_s", round2(self.serve_jobs_per_s));
        obj.insert("replay_records_per_s", self.replay_records_per_s.round());
        obj.insert("profile_overhead", round2(self.profile_overhead));
        obj.insert("http_rtt_us", round2(self.http_rtt_us));
        Value::Object(obj)
    }
}

/// Extracts a gated number from a baseline file (parsed as real JSON;
/// older baselines without the newer informational fields still work).
fn baseline_field(text: &str, field: &str) -> Option<f64> {
    serde_json::from_str(text).ok()?.get(field)?.as_f64()
}

fn measure_cached_speedup() -> (f64, f64, f64) {
    let program = Arc::new(nets::matmul_program(512));
    let runtime = Runtime::new(RuntimeConfig { workers: 1, ..Default::default() });
    // Warm: the first submit fills the cache.
    runtime
        .submit_simulate(MachineConfig::cambricon_f1(), Arc::clone(&program))
        .join()
        .expect("warmup simulate");

    // Both latencies take the per-iteration *minimum*, not the mean: on
    // a shared CI runner, interference (host contention, timer wakeups,
    // frequency drift) is strictly additive, so the minimum is the
    // stable estimate of what the code actually costs and the gate
    // doesn't flake when a neighbour steals the core mid-run.
    let mut cached = Duration::MAX;
    for _ in 0..CACHED_ITERS {
        let t0 = Instant::now();
        runtime
            .submit_simulate(MachineConfig::cambricon_f1(), Arc::clone(&program))
            .join()
            .expect("cached simulate");
        cached = cached.min(t0.elapsed());
    }

    let opts = JobOptions { bypass_cache: true, ..Default::default() };
    let mut uncached = Duration::MAX;
    for _ in 0..UNCACHED_ITERS {
        let t0 = Instant::now();
        runtime
            .submit_simulate_opts(opts, MachineConfig::cambricon_f1(), Arc::clone(&program))
            .join()
            .expect("uncached simulate");
        uncached = uncached.min(t0.elapsed());
    }
    (uncached.as_secs_f64() / cached.as_secs_f64(), cached.as_secs_f64(), uncached.as_secs_f64())
}

/// Per-iteration minimum µs of a cold `Machine::simulate` (every call
/// builds a fresh simulator) of the order-[`COLD_SIM_ORDER`] f1 matmul.
fn measure_cold_sim() -> f64 {
    let program = nets::matmul_program(COLD_SIM_ORDER);
    let machine = Machine::new(MachineConfig::cambricon_f1());
    let mut best = Duration::MAX;
    for _ in 0..COLD_SIM_ITERS {
        let t0 = Instant::now();
        std::hint::black_box(machine.simulate(&program).expect("cold simulate"));
        best = best.min(t0.elapsed());
    }
    best.as_secs_f64() * 1e6
}

/// Per-iteration minimum µs of an f1 alexnet batch-[`WARM_NET_BATCH`]
/// simulate on a fresh [`SimCache`] primed (untimed) by batch
/// [`WARM_NET_PRIMER`].
fn measure_warm_net() -> f64 {
    let net = nets::alexnet();
    let primer = nets::build_program(&net, WARM_NET_PRIMER).expect("alexnet primer");
    let program = nets::build_program(&net, WARM_NET_BATCH).expect("alexnet");
    let cfg = MachineConfig::cambricon_f1();
    let mut best = Duration::MAX;
    for _ in 0..WARM_NET_ITERS {
        let mut cache = SimCache::new();
        cache.simulate(&cfg, &primer, 1).expect("primer simulate");
        let t0 = Instant::now();
        std::hint::black_box(cache.simulate(&cfg, &program, 1).expect("warm simulate"));
        best = best.min(t0.elapsed());
    }
    best.as_secs_f64() * 1e6
}

/// The cold-latency gate: fails (returns `true`) when `current_us`
/// exceeds the baseline's `field` with the headroom undone by more than
/// [`COLD_GATE_FACTOR`]. Baselines that predate `field` skip the gate.
fn latency_gate(text: &str, field: &str, what: &str, current_us: f64) -> bool {
    let Some(base) = baseline_field(text, field) else {
        eprintln!("bench_gate: baseline has no {field}; {what} gate skipped");
        return false;
    };
    let ceiling = base / BASELINE_HEADROOM * COLD_GATE_FACTOR;
    let failed = current_us > ceiling;
    eprintln!(
        "bench_gate: {} — {what} {current_us:.1}µs {} {ceiling:.1}µs \
         (baseline {base:.1}µs, headroom undone, +{:.0}% allowed)",
        if failed { "FAIL" } else { "PASS" },
        if failed { "is above" } else { "<=" },
        (COLD_GATE_FACTOR - 1.0) * 100.0,
    );
    failed
}

fn measure_serve_throughput() -> Result<f64, String> {
    let root = repo_root();
    let manifest_path = root.join("assets").join("serve.jobs");
    let text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    // The manifest references programs relative to the repo root; the
    // gate may run from anywhere, so absolutize them.
    let text = text.replace("program=assets/", &format!("program={}/assets/", root.display()));
    let opts = ServeOptions { workers: 4, ..Default::default() };
    let t0 = Instant::now();
    let report = serve_manifest(&text, &opts).map_err(|e| format!("serve failed: {e}"))?;
    let wall = t0.elapsed();
    if report.failures() > 0 {
        return Err(format!("{} serve job(s) failed", report.failures()));
    }
    Ok(report.records.len() as f64 / wall.as_secs_f64())
}

fn measure_replay_rate() -> f64 {
    let header = RunHeader {
        version: JOURNAL_VERSION,
        manifest: 0x1234_5678_9abc_def0,
        machines: 0x0fed_cba9_8765_4321,
        fault_seed: None,
        fault_spec: 0,
        jobs: REPLAY_RECORDS,
    };
    let mut image = String::new();
    image.push_str(&encode_record(&Record::Header(header)));
    image.push('\n');
    for index in 0..REPLAY_RECORDS {
        let entry = JobEntry {
            index,
            label: format!("job{index}"),
            machine: "f1".to_string(),
            mode: "simulate",
            outcome: Ok(JobOutput::Sim {
                makespan_s: 0.001 + index as f64 * 1e-9,
                steady_s: 0.0009,
                attained_tops: 12.5,
                peak_fraction: 0.85,
                root_intensity: 40.0,
            }),
        };
        image.push_str(&encode_record(&Record::Job(entry)));
        image.push('\n');
    }
    let bytes = image.as_bytes();
    let t0 = Instant::now();
    let (records, valid) = scan_valid_prefix(bytes, REPLAY_RECORDS);
    let wall = t0.elapsed().max(Duration::from_nanos(1));
    assert_eq!(records.len() as u64, REPLAY_RECORDS + 1, "scan lost records");
    assert_eq!(valid, bytes.len() as u64, "scan truncated a clean image");
    records.len() as f64 / wall.as_secs_f64()
}

/// Profiled-vs-plain simulate wall-time ratio on the direct (uncached)
/// path. ~1.0x means the profiler's bookkeeping is in the noise.
fn measure_profile_overhead() -> f64 {
    let program = nets::matmul_program(512);
    let machine = Machine::new(MachineConfig::cambricon_f1());
    machine.simulate(&program).expect("warmup simulate");

    let t0 = Instant::now();
    for _ in 0..PROFILE_ITERS {
        machine.simulate(&program).expect("plain simulate");
    }
    let plain = t0.elapsed().max(Duration::from_nanos(1));

    let t0 = Instant::now();
    for _ in 0..PROFILE_ITERS {
        machine.simulate_profiled(&program, PROFILE_TOP_SIGNATURES).expect("profiled simulate");
    }
    let profiled = t0.elapsed();
    profiled.as_secs_f64() / plain.as_secs_f64()
}

/// One `Connection: close` exchange; returns the whole response.
fn http(addr: SocketAddr, request: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response)
}

/// Median µs of [`HTTP_RTT_ITERS`] idle-gapped `GET /jobs/0` polls of a
/// finished job through a router in front of one status server.
fn measure_http_rtt() -> Result<f64, String> {
    let obs = Obs::new(64);
    let runtime = Arc::new(Runtime::new(RuntimeConfig { workers: 1, ..Default::default() }));
    obs.publish(runtime.stats_arc(), runtime.load_policy());
    obs.publish_api(JobApi::new(Arc::clone(&runtime), 4096));
    let backend = StatusServer::bind(0, obs).map_err(|e| format!("backend bind: {e}"))?;
    let router = Router::new(RouterConfig {
        backends: vec![backend.local_addr().to_string()],
        ..RouterConfig::default()
    });
    let server = RouterServer::bind(0, router).map_err(|e| format!("router bind: {e}"))?;
    let addr = server.local_addr();
    let spec = r#"{"workload":"matmul","order":32,"machine":"tiny","label":"rtt"}"#;
    let submit = format!("POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{spec}", spec.len());
    let accepted = http(addr, &submit).map_err(|e| format!("submit: {e}"))?;
    if !accepted.starts_with("HTTP/1.1 202") {
        return Err(format!("submit answered {accepted:?}"));
    }
    // The first poll waits the job out; the timed ones find it done.
    let poll = "GET /jobs/0 HTTP/1.1\r\nHost: bench\r\n\r\n";
    let mut samples = Vec::with_capacity(HTTP_RTT_ITERS);
    for i in 0..=HTTP_RTT_ITERS {
        thread::sleep(HTTP_IDLE_GAP);
        let t0 = Instant::now();
        let record = http(addr, poll).map_err(|e| format!("poll: {e}"))?;
        if !record.starts_with("HTTP/1.1 200") {
            return Err(format!("poll answered {record:?}"));
        }
        if i > 0 {
            samples.push(t0.elapsed());
        }
    }
    samples.sort_unstable();
    Ok(samples[HTTP_RTT_ITERS / 2].as_secs_f64() * 1e6)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = PathBuf::from("BENCH_runtime.json");
    let mut baseline =
        repo_root().join("crates").join("bench").join("baselines").join("runtime.json");
    let mut write_baseline = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out = PathBuf::from(p),
                None => {
                    eprintln!("bench_gate: --out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--baseline" => match it.next() {
                Some(p) => baseline = PathBuf::from(p),
                None => {
                    eprintln!("bench_gate: --baseline needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--write-baseline" => write_baseline = true,
            _ => {
                eprintln!("usage: bench_gate [--out PATH] [--baseline PATH] [--write-baseline]");
                return ExitCode::FAILURE;
            }
        }
    }

    let (speedup, cached_s, uncached_s) = measure_cached_speedup();
    eprintln!(
        "bench_gate: cached {:.1}µs, uncached {:.1}µs -> speedup {speedup:.1}x",
        cached_s * 1e6,
        uncached_s * 1e6,
    );
    let cold_sim_2100_us = measure_cold_sim();
    eprintln!("bench_gate: cold f1 matmul {COLD_SIM_ORDER} simulate {cold_sim_2100_us:.1}µs");
    let warm_net_us = measure_warm_net();
    eprintln!(
        "bench_gate: f1 alexnet b{WARM_NET_BATCH} simulate after b{WARM_NET_PRIMER} {warm_net_us:.1}µs"
    );
    let serve = match measure_serve_throughput() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("bench_gate: serve throughput {serve:.1} jobs/s");
    let replay = measure_replay_rate();
    eprintln!("bench_gate: journal replay {replay:.0} records/s");
    let profile_overhead = measure_profile_overhead();
    eprintln!("bench_gate: simulate_profiled overhead {profile_overhead:.2}x of plain simulate");
    let http_rtt_us = match measure_http_rtt() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench_gate: http round trip: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("bench_gate: router -> status round trip {http_rtt_us:.1}µs (median)");

    let report = GateReport {
        cached_speedup: speedup,
        cached_us: cached_s * 1e6,
        uncached_us: uncached_s * 1e6,
        cold_sim_2100_us,
        warm_net_us,
        serve_jobs_per_s: serve,
        replay_records_per_s: replay,
        profile_overhead,
        http_rtt_us,
    };
    let json = serde_json::to_string(&report) + "\n";
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("bench_gate: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("bench_gate: wrote {}", out.display());

    if write_baseline {
        let conservative = GateReport {
            cached_speedup: speedup * BASELINE_HEADROOM,
            cached_us: cached_s * 1e6 / BASELINE_HEADROOM,
            uncached_us: uncached_s * 1e6 * BASELINE_HEADROOM,
            cold_sim_2100_us: cold_sim_2100_us * BASELINE_HEADROOM,
            warm_net_us: warm_net_us * BASELINE_HEADROOM,
            serve_jobs_per_s: serve * BASELINE_HEADROOM,
            replay_records_per_s: replay * BASELINE_HEADROOM,
            profile_overhead,
            http_rtt_us: http_rtt_us * BASELINE_HEADROOM,
        };
        let json = serde_json::to_string(&conservative) + "\n";
        if let Some(dir) = baseline.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("bench_gate: cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
        if let Err(e) = std::fs::write(&baseline, &json) {
            eprintln!("bench_gate: cannot write {}: {e}", baseline.display());
            return ExitCode::FAILURE;
        }
        eprintln!("bench_gate: baseline rewritten at {}", baseline.display());
        return ExitCode::SUCCESS;
    }

    let text = match std::fs::read_to_string(&baseline) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_gate: cannot read baseline {}: {e}", baseline.display());
            return ExitCode::FAILURE;
        }
    };
    let Some(base_speedup) = baseline_field(&text, "cached_speedup") else {
        eprintln!("bench_gate: baseline {} has no cached_speedup", baseline.display());
        return ExitCode::FAILURE;
    };
    let mut failed = false;
    let floor = base_speedup * GATE_FRACTION;
    if speedup < floor {
        eprintln!(
            "bench_gate: FAIL — cached_speedup {speedup:.1}x is below {floor:.1}x \
             (baseline {base_speedup:.1}x, gate at {:.0}%)",
            GATE_FRACTION * 100.0,
        );
        failed = true;
    } else {
        eprintln!(
            "bench_gate: PASS — cached_speedup {speedup:.1}x >= {floor:.1}x \
             (baseline {base_speedup:.1}x, gate at {:.0}%)",
            GATE_FRACTION * 100.0,
        );
    }
    failed |= latency_gate(&text, "uncached_us", "cold simulate", uncached_s * 1e6);
    failed |= latency_gate(
        &text,
        "cold_sim_2100_us",
        &format!("cold f1 matmul {COLD_SIM_ORDER} simulate"),
        cold_sim_2100_us,
    );
    failed |= latency_gate(
        &text,
        "warm_net_us",
        &format!("f1 alexnet b{WARM_NET_BATCH} simulate after b{WARM_NET_PRIMER}"),
        warm_net_us,
    );
    // HTTP round-trip gate. Older baselines predate the field; skip then.
    if let Some(base_rtt) = baseline_field(&text, "http_rtt_us") {
        let ceiling = (base_rtt / BASELINE_HEADROOM * HTTP_GATE_FACTOR).min(HTTP_RTT_CEILING_US);
        let verdict = if http_rtt_us > ceiling { "FAIL" } else { "PASS" };
        eprintln!(
            "bench_gate: {verdict} — http round trip {http_rtt_us:.1}µs vs ceiling {ceiling:.1}µs \
             (baseline {base_rtt:.1}µs, headroom undone, x{HTTP_GATE_FACTOR} allowed, \
             {HTTP_RTT_CEILING_US:.0}µs cap)",
        );
        failed |= http_rtt_us > ceiling;
    } else {
        eprintln!("bench_gate: baseline has no http_rtt_us; http gate skipped");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
