//! Batch helper: running labelled job suites (such as the
//! paper-experiment harness) through the pool.

use std::time::Instant;

use crate::job::{JobError, JobHandle};
use crate::scheduler::Runtime;

/// One labelled batch job's outcome.
#[derive(Debug)]
pub struct BatchOutcome<T> {
    /// The label the job was submitted under.
    pub label: String,
    /// Wall-clock seconds the job body took on its worker.
    pub seconds: f64,
    /// The job's result.
    pub result: Result<T, JobError>,
}

/// Submits every `(label, body)` pair to the pool and joins them in
/// submission order, timing each body on its worker.
///
/// This is how the experiment suite (`exp_all`) fans out: all jobs are
/// queued up front so the pool keeps every worker busy, and results come
/// back in the deterministic submission order regardless of which worker
/// finished first.
pub fn run_batch<T, F>(runtime: &Runtime, jobs: Vec<(String, F)>) -> Vec<BatchOutcome<T>>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let handles: Vec<(String, JobHandle<(T, f64)>)> = jobs
        .into_iter()
        .map(|(label, body)| {
            let handle = runtime.submit_task(move || {
                let t0 = Instant::now();
                let value = body();
                (value, t0.elapsed().as_secs_f64())
            });
            (label, handle)
        })
        .collect();
    handles
        .into_iter()
        .map(|(label, handle)| match handle.join() {
            Ok((value, seconds)) => BatchOutcome { label, seconds, result: Ok(value) },
            Err(e) => BatchOutcome { label, seconds: 0.0, result: Err(e) },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RuntimeConfig;

    #[test]
    fn run_batch_preserves_order_and_times() {
        let rt = Runtime::new(RuntimeConfig { workers: 2, ..Default::default() });
        let jobs: Vec<(String, Box<dyn FnOnce() -> u32 + Send>)> = (0u32..6)
            .map(|i| {
                (format!("job{i}"), Box::new(move || i * i) as Box<dyn FnOnce() -> u32 + Send>)
            })
            .collect();
        let outcomes = run_batch(&rt, jobs);
        assert_eq!(outcomes.len(), 6);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.label, format!("job{i}"));
            assert_eq!(*o.result.as_ref().unwrap(), (i * i) as u32);
            assert!(o.seconds >= 0.0);
        }
    }
}
