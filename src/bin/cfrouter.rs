//! `cfrouter` — a fault-tolerant shard router over a fleet of `cfserve`
//! backends.
//!
//! ```text
//! cfrouter --backend [NAME=]HOST:PORT [--backend ...] [--port N]
//!          [--vnodes N] [--probe-interval-ms N] [--probe-timeout-ms N]
//!          [--eject-after N] [--readmit-after N] [--failover-retries N]
//!          [--hedge-after-ms N] [--breaker-failures N]
//!          [--breaker-open-ms N] [--max-body-bytes N]
//!          [--quarantine-after N] [--quarantine-ms N]
//!          [--netfault-seed N] [--netfault-spec SPEC]
//!          [--slo-ms N] [--slo-objective F]
//! cfrouter --fault-proxy HOST:PORT [--port N] --netfault-seed N
//!          --netfault-spec SPEC [--instance NAME]
//! cfrouter --help
//! ```
//!
//! Jobs POSTed to the router's `/jobs` are consistent-hashed by their
//! canonical spec (label left out; the router never builds the program)
//! onto the backend whose plan cache is already warm for it, and polled back
//! through `GET /jobs/<id>` under fleet-wide ids — a client cannot tell
//! the fleet from one big `cfserve`. A background prober watches every
//! backend's `/healthz`, ejecting failed instances (`--eject-after`
//! consecutive failed probes) and re-admitting them after
//! `--readmit-after` consecutive healthy ones; backends answering
//! `"draining"` are removed as *planned* — no failure counted. Failed
//! requests fail over to the next ring replica with bounded, jittered
//! backoff (`--failover-retries`); submissions slower than the observed
//! p95 (floored by `--hedge-after-ms`; `0` disables hedging) fire one
//! hedged duplicate and the first answer wins; per-backend circuit
//! breakers (`--breaker-failures` / `--breaker-open-ms`) stop hammering
//! a dying instance between probes.
//!
//! Every backend response is integrity-checked (`X-CF-Digest` header +
//! per-record digest field) before the router trusts it: a mismatch
//! counts in `cf_router_corrupt_responses`, fails over, and —
//! after `--quarantine-after` consecutive mismatches — quarantines the
//! backend for at least `--quarantine-ms` (distinct from `ejected` in
//! `/ring` and `/stats`). `--netfault-seed`/`--netfault-spec` decorate
//! the router's own dialer with the seeded wire-fault plan from
//! `cf_runtime::netfault` (chaos testing); `--fault-proxy HOST:PORT`
//! instead runs a standalone byte-level fault proxy in front of one
//! upstream — black-box chaos with no router involved. `GET /metrics`
//! merges every backend's Prometheus exposition (distinct `instance`
//! labels) with the router's own `cf_router_*` series; `GET /stats` and
//! `GET /ring` expose the counters and the routing table. The listener
//! binds 127.0.0.1 only. See DESIGN.md §10 and §11.
//!
//! **Tracing and SLOs.** Every accepted job gets a distributed trace
//! context (`X-CF-Trace` response header; a client-supplied header
//! parents the router's spans); `GET /trace/<trace-id>` merges the
//! router's dispatch/attempt spans with matching spans scraped from
//! every backend into one Chrome-trace JSON document. Finished records
//! carry an `X-CF-Attribution` latency breakdown. `--slo-ms N` sets a
//! latency target and turns on the `cf_slo_*` metric families
//! (good/bad counters, error-budget remaining, 5m/1h burn rates);
//! `--slo-objective F` sets the availability objective (default 0.99).
//! See DESIGN.md §16.
//!
//! Exit codes: `0` clean shutdown, `2` bad arguments.

use std::process::ExitCode;
use std::time::Duration;

use cambricon_f::runtime::api::DEFAULT_MAX_BODY_BYTES;
use cambricon_f::runtime::router::{Router, RouterConfig, RouterServer};
use cambricon_f::runtime::{BreakerConfig, FaultPlan, FaultProxy, FaultSpec, RetryPolicy};

const EXIT_BAD_ARGS: u8 = 2;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cfrouter --backend HOST:PORT [--backend HOST:PORT ...] [options]\n\
         \x20      cfrouter --fault-proxy HOST:PORT [--port N] --netfault-seed N --netfault-spec SPEC\n\
         \x20      cfrouter --help"
    );
    eprintln!("each --backend is one cfserve --status-port address, e.g. 127.0.0.1:8100");
    ExitCode::from(EXIT_BAD_ARGS)
}

/// The full flag list with the `RouterConfig` defaults filled in, so
/// `--help` is the documentation of record for tuning the fleet.
fn help() -> ExitCode {
    let d = RouterConfig::default();
    println!(
        "cfrouter — consistent-hash front door over N cfserve backends\n\
         \n\
         usage:\n\
         \x20 cfrouter --backend HOST:PORT [--backend HOST:PORT ...] [options]\n\
         \x20 cfrouter --fault-proxy HOST:PORT [--port N] --netfault-seed N --netfault-spec SPEC\n\
         \x20          [--instance NAME]\n\
         \n\
         routing:\n\
         \x20 --backend [NAME=]HOST:PORT  a cfserve --status-port address (repeatable,\n\
         \x20                          required); NAME (default the address) places it on\n\
         \x20                          the ring and keys its wire faults\n\
         \x20 --port N                 listen port on 127.0.0.1 (default 0 = pick a free port)\n\
         \x20 --vnodes N               consistent-hash points per backend (default {vnodes})\n\
         \x20 --max-body-bytes N       client request-body cap (default {max_body})\n\
         \n\
         health probing:\n\
         \x20 --probe-interval-ms N    /healthz probe cadence (default {probe_interval})\n\
         \x20 --probe-timeout-ms N     per-probe connect/read timeout (default {probe_timeout})\n\
         \x20 --eject-after N          consecutive probe failures that eject (default {eject_after})\n\
         \x20 --readmit-after N        consecutive healthy probes that readmit (default {readmit_after})\n\
         \n\
         failover, hedging, breakers:\n\
         \x20 --failover-retries N     failover retry budget per request (default {retries})\n\
         \x20 --hedge-after-ms N       hedge-duplicate floor over the p95; 0 disables (default {hedge})\n\
         \x20 --breaker-failures N     consecutive failures that open a breaker (default {brk_fail})\n\
         \x20 --breaker-open-ms N      how long an open breaker rejects (default {brk_open})\n\
         \n\
         tracing and SLOs:\n\
         \x20 --slo-ms N               per-job latency target; enables the cf_slo_* series\n\
         \x20                          (default off; latency = backend total + submit dial + backoff)\n\
         \x20 --slo-objective F        availability objective in [0,1) (default {slo_obj})\n\
         \n\
         integrity and chaos:\n\
         \x20 --quarantine-after N     consecutive corrupt responses that quarantine (default {q_after})\n\
         \x20 --quarantine-ms N        minimum quarantine window (default {q_ms})\n\
         \x20 --netfault-seed N        seed for the wire-fault plan (default 0)\n\
         \x20 --netfault-spec SPEC     comma-separated site=rate pairs enabling wire faults:\n\
         \x20                          refuse, connect_latency, trickle, tear, garbage, corrupt\n\
         \x20                          (rates in [0,1]) plus latency_ms=N, trickle_ms=N\n\
         \x20 --fault-proxy HOST:PORT  run as a standalone byte-level fault proxy for this\n\
         \x20                          upstream instead of a router (black-box chaos)\n\
         \x20 --instance NAME          with --fault-proxy: the backend name its faults draw\n\
         \x20                          under (default the upstream address)\n\
         \x20 --help                   this text",
        vnodes = d.vnodes,
        max_body = d.max_body,
        probe_interval = d.probe_interval.as_millis(),
        probe_timeout = d.probe_timeout.as_millis(),
        eject_after = d.eject_after,
        readmit_after = d.readmit_after,
        retries = d.retry.max_retries,
        hedge = d.hedge_floor.as_millis(),
        brk_fail = d.breaker.failure_threshold,
        brk_open = d.breaker.open_for.as_millis(),
        q_after = d.quarantine_after,
        q_ms = d.quarantine_for.as_millis(),
        slo_obj = d.slo_objective,
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = RouterConfig::default();
    let mut port: u16 = 0;
    let mut netfault_seed: u64 = 0;
    let mut netfault_spec: Option<FaultSpec> = None;
    let mut fault_proxy: Option<String> = None;
    let mut instance: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return help(),
            "--backend" => match it.next() {
                Some(arg) => {
                    let (name, addr) = arg.split_once('=').unwrap_or((arg, arg));
                    config.names.push(name.to_string());
                    config.backends.push(addr.to_string());
                }
                None => return usage(),
            },
            "--instance" => match it.next() {
                Some(name) => instance = Some(name.clone()),
                None => return usage(),
            },
            "--port" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => port = n,
                None => return usage(),
            },
            "--vnodes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.vnodes = n,
                None => return usage(),
            },
            "--probe-interval-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.probe_interval = Duration::from_millis(n),
                None => return usage(),
            },
            "--probe-timeout-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.probe_timeout = Duration::from_millis(n),
                None => return usage(),
            },
            "--eject-after" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.eject_after = n,
                None => return usage(),
            },
            "--readmit-after" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.readmit_after = n,
                None => return usage(),
            },
            "--failover-retries" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => {
                    config.retry = RetryPolicy { max_retries: n, ..config.retry };
                }
                None => return usage(),
            },
            "--hedge-after-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.hedge_floor = Duration::from_millis(n),
                None => return usage(),
            },
            "--breaker-failures" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => {
                    config.breaker = BreakerConfig { failure_threshold: n, ..config.breaker };
                }
                None => return usage(),
            },
            "--breaker-open-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => {
                    config.breaker =
                        BreakerConfig { open_for: Duration::from_millis(n), ..config.breaker };
                }
                None => return usage(),
            },
            "--max-body-bytes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.max_body = n,
                None => return usage(),
            },
            "--quarantine-after" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.quarantine_after = n,
                None => return usage(),
            },
            "--quarantine-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.quarantine_for = Duration::from_millis(n),
                None => return usage(),
            },
            "--slo-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.slo_target = Some(Duration::from_millis(n)),
                None => return usage(),
            },
            "--slo-objective" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(f) if (0.0..1.0).contains(&f) => config.slo_objective = f,
                _ => return usage(),
            },
            "--netfault-seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => netfault_seed = n,
                None => return usage(),
            },
            "--netfault-spec" => match it.next() {
                Some(text) => match FaultSpec::parse_wire(text) {
                    Ok(spec) => netfault_spec = Some(spec),
                    Err(e) => {
                        eprintln!("cfrouter: {e}");
                        return ExitCode::from(EXIT_BAD_ARGS);
                    }
                },
                None => return usage(),
            },
            "--fault-proxy" => match it.next() {
                Some(addr) => fault_proxy = Some(addr.clone()),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    if let Some(upstream) = fault_proxy {
        if !config.backends.is_empty() {
            eprintln!("cfrouter: --fault-proxy and --backend are mutually exclusive");
            return usage();
        }
        let plan = FaultPlan::new(netfault_seed, netfault_spec.unwrap_or_else(FaultSpec::none));
        let name = instance.as_deref().unwrap_or(&upstream);
        let proxy = match FaultProxy::bind(port, &upstream, name, plan) {
            Ok(proxy) => proxy,
            Err(e) => {
                eprintln!("cfrouter: cannot bind port {port}: {e}");
                return ExitCode::from(EXIT_BAD_ARGS);
            }
        };
        eprintln!(
            "cfrouter: fault proxy for {upstream} on http://{} (seed {netfault_seed})",
            proxy.local_addr(),
        );
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }

    if config.backends.is_empty() {
        eprintln!("cfrouter: at least one --backend HOST:PORT is required");
        return usage();
    }
    if config.max_body == 0 {
        config.max_body = DEFAULT_MAX_BODY_BYTES;
    }
    config.netfault = netfault_spec.map(|spec| FaultPlan::new(netfault_seed, spec));
    let chaos = config.netfault.is_some();

    let backends = config.backends.len();
    let router = Router::new(config);
    let server = match RouterServer::bind(port, router) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cfrouter: cannot bind port {port}: {e}");
            return ExitCode::from(EXIT_BAD_ARGS);
        }
    };
    let chaos_note = if chaos { ", netfault on" } else { "" };
    eprintln!(
        "cfrouter: routing {backends} backend(s) on http://{} (GET /healthz /stats /ring /metrics /trace/<trace-id>, POST /jobs{chaos_note})",
        server.local_addr(),
    );
    // Serve until killed: the accept loop and the prober run on
    // background threads; this thread just keeps the process alive.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
