//! The simulation tables a worker keeps across jobs never show in a
//! record: on one worker, a job whose simulation fails part-way (a
//! planning error at level 1, after the worker's tables took its first
//! entries), then a job whose worker loop panics (the respawn discards
//! the tables), then good jobs on the same and on another machine — and
//! every record is byte-identical to the one a fresh runtime renders.

use cf_runtime::manifest::parse_manifest;
use cf_runtime::serve::{render_record_json, serve_specs, serve_specs_on, ServeOptions};
use cf_runtime::{FaultPlan, FaultSite, FaultSpec, Runtime, RuntimeConfig};

const MANIFEST: &str = "\
workload=alexnet machine=embedded batch=2 label=warm
workload=knn machine=embedded size=paper label=fails-at-level-1
workload=alexnet machine=embedded batch=3 label=after-failure
workload=resnet152 machine=embedded batch=1 label=worker-killed
workload=alexnet machine=embedded batch=4 label=after-panic
workload=knn machine=embedded label=knn-small
workload=alexnet machine=f1 batch=2 label=other-machine
";

/// The job (submission id) whose worker loop is killed once it finishes.
const KILLED: u64 = 3;

/// A fault plan that kills the worker after job [`KILLED`] and after no
/// other job of the manifest — found by a deterministic seed search.
fn kill_after_one_job(jobs: u64) -> FaultPlan {
    let spec = FaultSpec { kill_rate: 0.5, ..FaultSpec::none() };
    (0..10_000u64)
        .map(|seed| FaultPlan::new(seed, spec.clone()))
        .find(|plan| (0..jobs).all(|id| plan.fires(FaultSite::WorkerKill, id, 0) == (id == KILLED)))
        .expect("some seed kills exactly one job")
}

#[test]
fn kept_tables_survive_a_failed_job_and_a_worker_panic_byte_identically() {
    let specs = parse_manifest(MANIFEST).unwrap();
    let opts = ServeOptions { workers: 1, ..Default::default() };
    let render = |report: &cf_runtime::serve::ServeReport| -> Vec<String> {
        report.records.iter().map(render_record_json).collect()
    };

    // Every job on its own fresh runtime: no table outlives a job.
    let mut fresh_misses = 0;
    let fresh: Vec<String> = specs
        .iter()
        .map(|spec| {
            let report = serve_specs(std::slice::from_ref(spec), &opts).unwrap();
            fresh_misses += report.stats.cold_outcome_misses;
            render(&report).remove(0)
        })
        .collect();

    let runtime = Runtime::new(RuntimeConfig {
        workers: 1,
        fault_plan: Some(kill_after_one_job(specs.len() as u64)),
        ..Default::default()
    });
    let report = serve_specs_on(&specs, &opts, &runtime).unwrap();
    let kept = render(&report);

    assert_eq!(kept.len(), fresh.len());
    for (i, (k, f)) in kept.iter().zip(&fresh).enumerate() {
        // Records number jobs by manifest position; a fresh one-job run
        // numbers its only job 0.
        let f = f.replacen("{\"job\":0,", &format!("{{\"job\":{i},"), 1);
        let strip = |r: &str| r.rsplit_once(",\"digest\":").map(|(head, _)| head.to_string());
        assert_eq!(strip(k), strip(&f), "job {i}");
    }
    assert!(kept[1].contains("\"ok\":false") && kept[1].contains("level-1"), "{}", kept[1]);

    let snap = runtime.stats().snapshot();
    assert_eq!(snap.worker_respawns, 1, "the killed worker loop respawned");
    assert_eq!(snap.failed, 1, "only the planning error failed");
    assert!(snap.sim_table_resets >= 1, "the panic discarded non-empty tables");
    assert!(
        snap.cold_outcome_misses < fresh_misses,
        "later jobs reused kept subtree outcomes: {} vs {fresh_misses} misses",
        snap.cold_outcome_misses
    );
    assert!(snap.sim_table_bytes > 0, "the respawned worker keeps tables again");
    runtime.shutdown();
}
