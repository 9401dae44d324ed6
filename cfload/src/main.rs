//! `cfload` — the repository's benchmark: an open-loop load generator
//! driving a real fleet (`cfrouter` over two `cfserve` backends) through
//! its public HTTP API, with per-layer attribution and a traced pass.
//!
//! ```text
//! cfload --workload W --seed N --seconds S --trace 0|1
//! cfload suite --seed N [--seconds S] --out FILE
//! cfload check A.json B.json
//! ```
//!
//! A run builds `cfserve` and `cfrouter` from this checkout, renders the
//! reference record of every job in-process, then starts [`STARTS`]
//! fresh fleets one after another and drives each for `S / STARTS`
//! seconds of the workload's seeded Poisson schedule. Pooling many
//! starts averages out the per-start phase of the servers' 10 ms accept
//! loops. `--trace 0` prints the end-to-end metrics; `--trace 1` records
//! the benchmark's own spans, times each layer's entry point in-process
//! over the same jobs, prints the per-layer metrics and writes a
//! Chrome-trace JSON under `.cfload/`. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `suite` runs every workload untraced (three times) and traced into one
//! result file; `check` compares the untraced medians of two result files
//! against each end-to-end metric's bound in `BENCHMARK.json`. Exit codes:
//! 0 success, 1 a wrong record or a failed run (or, for `check`, a pair
//! that is worse or unresolved), 2 bad arguments.

mod drive;
mod fleet;
mod gen;
mod http;
mod layers;
mod oracle;
mod report;
mod spans;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde_json::{Map, Value};

use crate::fleet::{Bins, Fleet};
use crate::gen::{Arrival, Spec, Workload};
use crate::layers::Placed;
use crate::oracle::Oracle;
use crate::report::{Metric, Window};
use crate::spans::{Recorder, PID_LAYERS};

/// Fresh fleet starts per run. Each start fixes the relative phase of
/// the router's and the backends' 10 ms accept loops for its whole
/// lifetime, which adds 0-10 ms to every job of the start (and a whole
/// extra 10 ms turn in about one start of ten); only many short windows
/// average that out.
const STARTS: usize = 40;

/// Untraced runs per workload in a `suite`; `check` compares their
/// medians, since one run of a cold workload moves with the box's CPU
/// speed by more than the bounds.
const SUITE_REPEATS: usize = 3;

/// Wall-clock budget of the traced pass's in-process layer timing.
const LAYER_BUDGET: Duration = Duration::from_secs(5);

/// Lead time between scheduling a window and its first intended send.
const LEAD: Duration = Duration::from_millis(10);

/// The checkout this binary was built from.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("cfload sits in the checkout")
        .to_path_buf()
}

/// Where runs write traces, results and scratch journals (git-ignored).
fn out_dir() -> PathBuf {
    root().join(".cfload")
}

#[derive(Debug, Clone, Copy)]
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// One run's outcome.
struct RunOutput {
    args: RunArgs,
    attempted: usize,
    failed: usize,
    correct: bool,
    e2e: Vec<Metric>,
    /// Empty on untraced runs.
    layer: Vec<Metric>,
    extra: Vec<Metric>,
}

impl RunOutput {
    /// What the last stdout line reports: end-to-end metrics, or per-layer
    /// ones when traced.
    fn reported_metrics(&self) -> &[Metric] {
        if self.args.trace {
            &self.layer
        } else {
            &self.e2e
        }
    }

    /// The run's entry in a result file.
    fn entry(&self) -> Value {
        let mut entry = Map::new();
        entry.insert("workload", self.args.workload.name());
        entry.insert("seed", self.args.seed);
        entry.insert("seconds", self.args.seconds);
        entry.insert("trace", u64::from(self.args.trace));
        entry.insert("rate", self.args.workload.rate());
        entry.insert("clients", drive::CLIENTS);
        entry.insert("starts", STARTS);
        entry.insert("attempted", self.attempted);
        entry.insert("failed", self.failed);
        entry.insert("correct", self.correct);
        let both: Vec<Metric> = self.e2e.iter().chain(&self.layer).cloned().collect();
        entry.insert("metrics", report::metrics_json(&both));
        entry.insert("extra", report::metrics_json(&self.extra));
        Value::Object(entry)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("suite") => suite(&args[1..]),
        _ => single(&args),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cfload --workload hot|cold-shared|cold-unique|burst --seed N --seconds S --trace 0|1\n\
         \x20      cfload suite --seed N [--seconds S] --out FILE\n\
         \x20      cfload check A.json B.json"
    );
    ExitCode::from(2)
}

/// Parses `--flag value` pairs.
fn flags(args: &[String]) -> Option<Vec<(&str, &str)>> {
    args.chunks(2)
        .map(|pair| match pair {
            [flag, value] if flag.starts_with("--") => Some((&flag[2..], value.as_str())),
            _ => None,
        })
        .collect()
}

fn parse_seconds(value: &str) -> Option<f64> {
    value.parse::<f64>().ok().filter(|s| *s > 0.0 && *s <= gen::MAX_SECONDS)
}

fn single(args: &[String]) -> ExitCode {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for (flag, value) in flags(args).unwrap_or_default() {
        match flag {
            "workload" => workload = Workload::parse(value),
            "seed" => seed = value.parse().ok(),
            "seconds" => seconds = parse_seconds(value),
            "trace" => trace = matches!(value, "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let bins = match fleet::build(&root()) {
        Ok(bins) => bins,
        Err(e) => {
            eprintln!("cfload: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = match run(&bins, RunArgs { workload, seed, seconds, trace }) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("cfload: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut line = Map::new();
    line.insert("correct", out.correct);
    line.insert("attempted", out.attempted);
    line.insert("failed", out.failed);
    line.insert("metrics", report::metrics_json(out.reported_metrics()));
    println!("{}", Value::Object(line));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Streams `specs` through the fleet all at once and checks every record:
/// the set-up warm-up, after which hot specs are plan-cache hits.
fn warm_up(fleet: &Fleet, specs: &[Spec], oracle: &Oracle) -> Result<(), String> {
    let arrivals: Vec<Arrival> =
        specs.iter().map(|s| Arrival { at: 0.0, specs: vec![s.clone()] }).collect();
    let (samples, _) =
        drive::drive(&fleet.router, &arrivals, oracle, specs.len(), Instant::now(), false);
    match samples.iter().flat_map(|r| &r.jobs).find_map(|j| j.failure.as_ref()) {
        Some(f) => Err(format!("warm-up failed: {f:?}")),
        None => Ok(()),
    }
}

/// One fleet start: set up, drive one window, tear down.
fn window(
    bins: &Bins,
    dir: PathBuf,
    arrivals: &[Arrival],
    oracle: &Oracle,
    trace: bool,
) -> Result<(Window, Vec<spans::Span>), String> {
    let t0 = Instant::now();
    let fleet = Fleet::start(bins, dir)?;
    let hot = gen::hot_specs();
    warm_up(&fleet, &hot, oracle)?;
    let setup = t0.elapsed();
    let counters0 = fleet.counters()?;
    let cpu0 = fleet.cpu()?;
    let start = Instant::now() + LEAD;
    let (requests, spans) =
        drive::drive(&fleet.router, arrivals, oracle, drive::CLIENTS, start, trace);
    let cpu1 = fleet.cpu()?;
    let counters = fleet.counters()?.since(counters0);
    let cpu = fleet::Cpu {
        router_ms: cpu1.router_ms - cpu0.router_ms,
        backends_ms: cpu1.backends_ms - cpu0.backends_ms,
    };

    let warm_routes: Vec<usize> = hot.iter().map(|s| fleet.route(&s.json())).collect();
    let routes: Vec<usize> = arrivals.iter().map(|a| fleet.route(&a.body())).collect();
    let mut expected = vec![0u64; fleet::BACKENDS];
    for &b in &warm_routes {
        expected[b] += 1;
    }
    for (a, &b) in arrivals.iter().zip(&routes) {
        expected[b] += a.specs.len() as u64;
    }
    let routed = fleet.routed()?;
    if routed != expected {
        eprintln!(
            "cfload: warning: the router booked {routed:?} jobs per backend, the ring predicts \
             {expected:?}; sim.cross_job_sig_share assumes the prediction"
        );
    }
    Ok((Window { setup, requests, cpu, counters, warm_routes, routes }, spans))
}

fn run(bins: &Bins, args: RunArgs) -> Result<RunOutput, String> {
    let RunArgs { workload, seed, seconds, trace } = args;
    let schedule = gen::schedule(workload, seed, seconds, STARTS);
    let all_specs: Vec<&Spec> = schedule.iter().flatten().flat_map(|a| &a.specs).collect();
    let hot = gen::hot_specs();
    eprintln!(
        "cfload: {} seed {seed}: {} fleet starts x {:.1} s, {} clients, Poisson {} req/s, {} jobs{}",
        workload.name(),
        STARTS, seconds / STARTS as f64,
        drive::CLIENTS,
        workload.rate(),
        all_specs.len(),
        if trace { ", traced" } else { "" },
    );
    let t = Instant::now();
    let oracle = Oracle::build(hot.iter().chain(all_specs.iter().copied()))?;
    eprintln!("cfload: references rendered in {:.2} s", t.elapsed().as_secs_f64());

    let tmp = out_dir().join("tmp");
    let epoch = Instant::now();
    let mut windows = Vec::with_capacity(STARTS);
    let mut spans = Vec::new();
    for (i, arrivals) in schedule.iter().enumerate() {
        let dir = tmp.join(format!("fleet-{}-{i}", std::process::id()));
        let (w, s) = window(bins, dir, arrivals, &oracle, trace)?;
        let lat = report::mean(
            &w.requests
                .iter()
                .flat_map(|r| &r.jobs)
                .map(|j| j.latency.as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        );
        eprintln!(
            "cfload: start {}/{}: setup {:.3} s, {} requests, mean latency {:.2} ms",
            i + 1,
            STARTS,
            w.setup.as_secs_f64(),
            w.requests.len(),
            lat.unwrap_or(0.0),
        );
        windows.push(w);
        spans.extend(s);
    }

    let (attempted, failed, correct) = report::tally(&windows);
    if let Some(wrong) = report::first_wrong_record(&windows) {
        eprintln!("cfload: {wrong}");
    }
    let e2e = report::end_to_end(&windows);
    let mut layer_stats = None;
    if trace {
        let dir = tmp.join(format!("layers-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let (mut warm, mut jobs) = (Vec::new(), Vec::new());
        for (window, (arrivals, w)) in schedule.iter().zip(&windows).enumerate() {
            let place = |spec, &backend| Placed { spec, window, backend };
            warm.extend(hot.iter().zip(&w.warm_routes).map(|(s, b)| place(s, b)));
            for (a, b) in arrivals.iter().zip(&w.routes) {
                jobs.extend(a.specs.iter().map(|s| place(s, b)));
            }
        }
        let mut rec = Recorder::new(PID_LAYERS, 0);
        let measured = layers::measure(&jobs, &warm, &oracle, &dir, LAYER_BUDGET, &mut rec);
        let _ = std::fs::remove_dir_all(&dir);
        spans.extend(rec.spans);
        layer_stats = Some(measured?);
        let path = out_dir().join(format!("trace-{}-seed{seed}.json", workload.name()));
        std::fs::write(&path, spans::chrome_json(epoch, &spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("cfload: wrote {}", path.display());
    }
    let layer = layer_stats.as_ref().map(|l| report::per_layer(&windows, l)).unwrap_or_default();
    let extra = report::extras(&windows, layer_stats.as_ref());

    let mut log = String::new();
    log.push_str(&report::table("end-to-end", &e2e));
    if trace {
        log.push_str(&report::table("per-layer", &layer));
    }
    log.push_str(&report::table("other", &extra));
    eprint!("{log}");
    eprintln!("cfload: {attempted} jobs attempted, {failed} failed, records correct: {correct}");

    Ok(RunOutput { args, attempted, failed, correct, e2e, layer, extra })
}

fn suite(args: &[String]) -> ExitCode {
    let (mut seed, mut seconds, mut out) = (None, Some(20.0), None);
    for (flag, value) in flags(args).unwrap_or_default() {
        match flag {
            "seed" => seed = value.parse().ok(),
            "seconds" => seconds = parse_seconds(value),
            "out" => out = Some(PathBuf::from(value)),
            _ => return usage(),
        }
    }
    let (Some(seed), Some(seconds), Some(out)) = (seed, seconds, out) else {
        return usage();
    };
    let result = fleet::build(&root()).and_then(|bins| {
        let mut runs = Vec::new();
        let mut all_correct = true;
        for workload in Workload::ALL {
            let mut untraced_lat = Vec::new();
            for _ in 0..SUITE_REPEATS {
                let untraced = run(&bins, RunArgs { workload, seed, seconds, trace: false })?;
                untraced_lat.extend(report::value(&untraced.e2e, "lat_mean_ms"));
                all_correct &= untraced.correct;
                runs.push(untraced.entry());
            }
            let mut traced = run(&bins, RunArgs { workload, seed, seconds, trace: true })?;
            let overhead = report::value(&traced.e2e, "lat_mean_ms")
                .zip(report::median(&untraced_lat))
                .map(|(t, u)| t - u);
            traced.extra.push(Metric {
                name: "client.trace_overhead_ms",
                unit: "ms",
                value: overhead,
            });
            all_correct &= traced.correct;
            runs.push(traced.entry());
        }
        Ok((runs, all_correct))
    });
    let (runs, correct) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cfload: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut doc = Map::new();
    doc.insert("seed", seed);
    doc.insert("seconds", seconds);
    doc.insert("runs", Value::Array(runs));
    if let Err(e) = std::fs::write(&out, Value::Object(doc).to_string() + "\n") {
        eprintln!("cfload: {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("cfload: wrote {}", out.display());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn check(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        return usage();
    };
    let loaded = (|| {
        let bounds = report::bounds(&read_json(&root().join("BENCHMARK.json"))?)?;
        Ok::<_, String>((bounds, read_json(Path::new(a))?, read_json(Path::new(b))?))
    })();
    let (bounds, a, b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("cfload: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<22} {:<12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "metric", "workload", "A", "B", "change", "bound"
    );
    let mut ok = true;
    for bound in &bounds {
        for w in Workload::ALL {
            let (va, vb) = (
                report::lookup(&a, w.name(), &bound.name),
                report::lookup(&b, w.name(), &bound.name),
            );
            let verdict = report::compare(bound, va, vb);
            ok &= matches!(verdict, report::Verdict::Agree | report::Verdict::Better);
            let show = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.4}"));
            let change = match (va, vb) {
                (Some(x), Some(y)) if x > 0.0 => format!("{:+.1}%", (y / x - 1.0) * 100.0),
                _ => "-".to_string(),
            };
            println!(
                "{:<22} {:<12} {:>12} {:>12} {:>8} {:>5.0}%  {}",
                bound.name,
                w.name(),
                show(va),
                show(vb),
                change,
                bound.bound * 100.0,
                format!("{verdict:?}").to_lowercase(),
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
