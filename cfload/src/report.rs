//! Turns one run's samples into its named metrics, and compares two
//! result files against the bounds in `BENCHMARK.json`.

use std::time::Duration;

use serde_json::{Map, Value};

use crate::drive::{Failure, JobSample, RequestSample};
use crate::fleet::{Counters, Cpu};
use crate::layers::Layers;

/// One fleet start's measurements.
#[derive(Debug)]
pub struct Window {
    /// Spawn → router healthy with every backend up → warm-up streamed.
    pub setup: Duration,
    pub requests: Vec<RequestSample>,
    /// CPU and counters accrued during the window.
    pub cpu: Cpu,
    pub counters: Counters,
    /// The backend each warm-up spec and each request went to.
    pub warm_routes: Vec<usize>,
    pub routes: Vec<usize>,
}

/// A named measurement; `None` when the workload gives it no samples.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
}

fn metric(name: &'static str, unit: &'static str, value: Option<f64>) -> Metric {
    Metric { name, unit, value }
}

/// Nearest-rank percentile of `values` (`0 < p <= 1`).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied()
}

pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn jobs(windows: &[Window]) -> impl Iterator<Item = &JobSample> {
    windows.iter().flat_map(|w| w.requests.iter().flat_map(|r| r.jobs.iter()))
}

fn requests(windows: &[Window]) -> impl Iterator<Item = &RequestSample> {
    windows.iter().flat_map(|w| &w.requests)
}

fn ok_latencies_ms<'a>(requests: impl IntoIterator<Item = &'a RequestSample>) -> Vec<f64> {
    requests
        .into_iter()
        .flat_map(|r| &r.jobs)
        .filter(|j| j.failure.is_none())
        .map(|j| ms(j.latency))
        .collect()
}

/// The value of the metric called `name`.
pub fn value(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics.iter().find(|m| m.name == name)?.value
}

/// Samples of one attribution component over jobs that satisfy `keep`.
fn attr_us(windows: &[Window], key: &str, keep: impl Fn(Option<u64>) -> bool) -> Vec<f64> {
    jobs(windows)
        .filter_map(|j| j.attribution.as_ref())
        .filter(|a| keep(a.get("cached")))
        .filter_map(|a| a.get(key))
        .map(|v| v as f64)
        .collect()
}

/// Jobs attempted, jobs failed, and whether every streamed record was
/// correct (digest valid and byte-identical to the reference).
pub fn tally(windows: &[Window]) -> (usize, usize, bool) {
    let attempted = jobs(windows).count();
    let failed = jobs(windows).filter(|j| j.failure.is_some()).count();
    let correct = jobs(windows)
        .all(|j| !matches!(j.failure, Some(Failure::Digest(_) | Failure::Mismatch { .. })));
    (attempted, failed, correct)
}

/// The first incorrect record, for the run log.
pub fn first_wrong_record(windows: &[Window]) -> Option<String> {
    jobs(windows).find_map(|j| match &j.failure {
        Some(Failure::Digest(got)) => Some(format!("digest does not verify: {got}")),
        Some(Failure::Mismatch { got, expected }) => {
            Some(format!("record differs from the reference\n  got:      {got}\n  expected: {{\"job\":N,{expected}"))
        }
        _ => None,
    })
}

/// Fleet CPU time per completed job, in milliseconds.
fn cpu_per_job(cpu_ms: f64, jobs: usize) -> Option<f64> {
    (jobs > 0).then(|| cpu_ms / jobs as f64)
}

/// The end-to-end metrics (`BENCHMARK.json` `end_to_end`).
pub fn end_to_end(windows: &[Window]) -> Vec<Metric> {
    let setups: Vec<f64> = windows.iter().map(|w| w.setup.as_secs_f64()).collect();
    vec![
        metric("setup_s", "s", median(&setups)),
        metric("lat_mean_ms", "ms", mean(&ok_latencies_ms(requests(windows)))),
    ]
}

/// The per-layer metrics (`BENCHMARK.json` `per_layer`): every one is
/// defined on every workload. Attribution components arrive as whole
/// microseconds, so they are summarised by their mean and p95 rather than
/// a median that would repeat exactly from run to run.
pub fn per_layer(windows: &[Window], layers: &Layers) -> Vec<Metric> {
    let submit: Vec<f64> = requests(windows).map(|r| ms(r.submit_rtt)).collect();
    let lag: Vec<f64> = requests(windows).map(|r| ms(r.lag)).collect();
    let poll: Vec<f64> = jobs(windows).map(|j| ms(j.poll_rtt)).collect();
    let lat = ok_latencies_ms(requests(windows));
    let attr = |key| attr_us(windows, key, |_| true);
    let (net_submit, net_poll) = (attr("net_submit_us"), attr("net_poll_us"));
    let (admission, queue, run) = (attr("admission_us"), attr("queue_us"), attr("run_us"));
    let flags: Vec<f64> = jobs(windows)
        .filter_map(|j| j.attribution.as_ref()?.get("cached"))
        .map(|c| c as f64)
        .collect();
    let done = lat.len();
    let cpu = |f: fn(&Window) -> f64| cpu_per_job(windows.iter().map(f).sum(), done);
    let ratio =
        |hits: u64, misses: u64| (hits + misses > 0).then(|| hits as f64 / (hits + misses) as f64);
    vec![
        metric("client.submit_rtt_p50_ms", "ms", percentile(&submit, 0.5)),
        metric("client.submit_rtt_p95_ms", "ms", percentile(&submit, 0.95)),
        metric("client.poll_rtt_p50_ms", "ms", percentile(&poll, 0.5)),
        metric("client.poll_rtt_p95_ms", "ms", percentile(&poll, 0.95)),
        metric("client.gen_lag_p95_ms", "ms", percentile(&lag, 0.95)),
        metric("client.lat_p50_ms", "ms", percentile(&lat, 0.5)),
        metric("client.lat_p95_ms", "ms", percentile(&lat, 0.95)),
        metric("router.net_submit_mean_us", "us", mean(&net_submit)),
        metric("router.net_submit_p95_us", "us", percentile(&net_submit, 0.95)),
        metric("router.net_poll_mean_us", "us", mean(&net_poll)),
        metric("router.net_poll_p95_us", "us", percentile(&net_poll, 0.95)),
        metric("router.cpu_ms_per_job", "ms", cpu(|w| w.cpu.router_ms)),
        metric("backend.cpu_ms_per_job", "ms", cpu(|w| w.cpu.backends_ms)),
        metric("api.admission_mean_us", "us", mean(&admission)),
        metric("api.admission_p95_us", "us", percentile(&admission, 0.95)),
        metric("scheduler.queue_mean_us", "us", mean(&queue)),
        metric("scheduler.queue_p95_us", "us", percentile(&queue, 0.95)),
        metric("backend.run_mean_us", "us", mean(&run)),
        metric("backend.run_p95_us", "us", percentile(&run, 0.95)),
        metric("cache.hit_ratio", "ratio", mean(&flags)),
        metric("api.parse_us", "us", median(&layers.parse_us)),
        metric("manifest.resolve_us", "us", median(&layers.resolve_us)),
        metric("journal.append_us", "us", median(&layers.append_us)),
        metric("cache.get_us", "us", median(&layers.cache_get_us)),
        metric("sim.simulate_us", "us", median(&layers.simulate_us)),
        metric(
            "sim.shape_memo_hit_ratio",
            "ratio",
            ratio(layers.shape_memo_hits, layers.shape_memo_misses),
        ),
        metric("sim.parallel_tasks", "count", mean(&layers.parallel_tasks)),
        metric(
            "sim.outcome_memo_hit_ratio",
            "ratio",
            ratio(layers.outcome_memo_hits, layers.outcome_memo_misses),
        ),
        metric("sim.cross_job_sig_share", "ratio", mean(&layers.sig_share)),
    ]
}

/// Metrics that only some workloads define, that a fault-free run keeps
/// at zero, or that drift with the box's CPU speed too much to gate
/// (`fleet.cpu_ms_per_job`): printed and recorded in result files, but
/// not listed in `BENCHMARK.json`.
pub fn extras(windows: &[Window], layers: Option<&Layers>) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&Counters) -> u64| {
        Some(windows.iter().map(|w| f(&w.counters) as f64).sum::<f64>())
    };
    let (attempted, failed, _) = tally(windows);
    let backoff: f64 = attr_us(windows, "backoff_us", |_| true).iter().sum();
    let total_cpu = windows.iter().map(|w| w.cpu.router_ms + w.cpu.backends_ms).sum();
    let done = ok_latencies_ms(requests(windows)).len();
    vec![
        metric("fleet.cpu_ms_per_job", "ms", cpu_per_job(total_cpu, done)),
        metric("sim.run_cold_us", "us", median(&attr_us(windows, "run_us", |c| c == Some(0)))),
        metric("cache.run_cached_us", "us", median(&attr_us(windows, "run_us", |c| c == Some(1)))),
        metric("exec.run_us", "us", median(&attr_us(windows, "run_us", |c| c.is_none()))),
        metric("exec.machine_run_us", "us", layers.and_then(|l| median(&l.machine_run_us))),
        metric("api.coalesced", "count", sum(&|c| c.coalesced)),
        metric("api.shed", "count", sum(&|c| c.shed)),
        metric("router.failovers", "count", sum(&|c| c.failovers)),
        metric("router.hedges", "count", sum(&|c| c.hedges)),
        metric("router.backoff_us", "us", Some(backoff)),
        metric(
            "client.fail_frac",
            "ratio",
            (attempted > 0).then(|| failed as f64 / attempted as f64),
        ),
        metric("layers.jobs", "count", layers.map(|l| l.jobs as f64)),
    ]
}

/// `{"name": {"value": v, "unit": u}, ...}`; metrics without a value are
/// left out.
pub fn metrics_json(metrics: &[Metric]) -> Value {
    let mut m = Map::new();
    for x in metrics {
        let Some(value) = x.value else { continue };
        let mut entry = Map::new();
        entry.insert("value", value);
        entry.insert("unit", x.unit);
        m.insert(x.name, entry);
    }
    Value::Object(m)
}

/// The aligned human table the run prints on stderr.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("  {title}\n");
    for x in metrics {
        let value = x.value.map_or_else(|| "-".to_string(), |v| format!("{v:.4}"));
        out.push_str(&format!("    {:<28} {:>14} {}\n", x.name, value, x.unit));
    }
    out
}

// ---------------------------------------------------------------------------
// `cfload check`
// ---------------------------------------------------------------------------

/// One end-to-end metric's contract from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn bounds(benchmark: &Value) -> Result<Vec<Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(|v| v.as_array())
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name =
                m.get("name").and_then(|v| v.as_str()).ok_or("end_to_end entry without name")?;
            let better = m.get("better").and_then(|v| v.as_str()).ok_or("entry without better")?;
            let bound = m.get("bound").and_then(|v| v.as_f64()).ok_or("entry without bound")?;
            Ok(Bound { name: name.to_string(), lower_is_better: better == "lower", bound })
        })
        .collect()
}

/// How B compares with A on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Agree,
    /// Worse by more than the bound.
    Worse,
    /// Better by more than the bound.
    Better,
    /// A value is missing or not positive.
    Unresolved,
}

pub fn compare(bound: &Bound, a: Option<f64>, b: Option<f64>) -> Verdict {
    match (a, b) {
        (Some(a), Some(b)) if a > 0.0 && b > 0.0 => {
            let worse_by = if bound.lower_is_better { b / a - 1.0 } else { a / b - 1.0 };
            if worse_by > bound.bound {
                Verdict::Worse
            } else if worse_by < -bound.bound {
                Verdict::Better
            } else {
                Verdict::Agree
            }
        }
        _ => Verdict::Unresolved,
    }
}

/// The median over a result file's untraced runs of `workload` of the
/// end-to-end metric `metric`.
pub fn lookup(results: &Value, workload: &str, metric: &str) -> Option<f64> {
    let values: Vec<f64> = results
        .get("runs")?
        .as_array()?
        .iter()
        .filter_map(|run| {
            (run.get("workload")?.as_str()? == workload && run.get("trace")?.as_u64()? == 0)
                .then(|| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
                .flatten()
        })
        .collect();
    median(&values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), Some(190.0));
        assert_eq!(percentile(&v, 0.5), Some(100.0));
        assert_eq!(median(&v), Some(100.5));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(mean(&[1.0, 2.0]), Some(1.5));
    }

    #[test]
    fn compare_respects_direction_and_bound() {
        let lower = Bound { name: "lat".into(), lower_is_better: true, bound: 0.1 };
        assert_eq!(compare(&lower, Some(10.0), Some(10.9)), Verdict::Agree);
        assert_eq!(compare(&lower, Some(10.0), Some(11.2)), Verdict::Worse);
        assert_eq!(compare(&lower, Some(10.0), Some(8.0)), Verdict::Better);
        assert_eq!(compare(&lower, None, Some(8.0)), Verdict::Unresolved);
        let higher = Bound { name: "rate".into(), lower_is_better: false, bound: 0.1 };
        assert_eq!(compare(&higher, Some(10.0), Some(8.0)), Verdict::Worse);
    }

    #[test]
    fn lookup_takes_the_median_of_untraced_runs() {
        let results: Value = serde_json::from_str(
            r#"{"runs":[
                {"workload":"hot","trace":0,"metrics":{"lat":{"value":30.0}}},
                {"workload":"hot","trace":1,"metrics":{"lat":{"value":99.0}}},
                {"workload":"hot","trace":0,"metrics":{"lat":{"value":10.0}}},
                {"workload":"burst","trace":0,"metrics":{"lat":{"value":50.0}}},
                {"workload":"hot","trace":0,"metrics":{"lat":{"value":20.0}}}]}"#,
        )
        .unwrap();
        assert_eq!(lookup(&results, "hot", "lat"), Some(20.0));
        assert_eq!(lookup(&results, "hot", "setup"), None);
    }
}
