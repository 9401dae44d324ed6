//! Integration tests for the cf-runtime service: cache identity,
//! concurrent-vs-sequential determinism, deadlines, cancellation,
//! shutdown semantics and queue bounds.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use cf_core::{Machine, MachineConfig};
use cf_isa::Program;
use cf_runtime::{
    FaultPlan, FaultSite, FaultSpec, JobError, JobHandle, JobOptions, RetryPolicy, Runtime,
    RuntimeConfig, SimResult,
};
use cf_workloads::nets;

fn small_runtime(workers: usize) -> Runtime {
    Runtime::new(RuntimeConfig {
        workers,
        queue_capacity: 64,
        cache_capacity: 32,
        ..Default::default()
    })
}

/// The repeated-workload mix the acceptance criterion exercises: a few
/// distinct programs, each submitted several times.
fn workload_mix() -> Vec<(MachineConfig, Arc<Program>)> {
    let programs = [
        Arc::new(nets::matmul_program(96)),
        Arc::new(nets::matmul_program(128)),
        Arc::new(nets::build_program(&nets::mlp3(), 1).unwrap()),
    ];
    let machines = [MachineConfig::cambricon_f1(), MachineConfig::cambricon_f100()];
    let mut jobs = Vec::new();
    for round in 0..3 {
        for (i, p) in programs.iter().enumerate() {
            let m = machines[(round + i) % machines.len()].clone();
            jobs.push((m, Arc::clone(p)));
        }
    }
    jobs
}

/// Submits every job before joining any.
fn submit_all(rt: &Runtime, jobs: Vec<(MachineConfig, Arc<Program>)>) -> Vec<JobHandle<SimResult>> {
    jobs.into_iter().map(|(m, p)| rt.submit_simulate(JobOptions::default(), m, p)).collect()
}

#[test]
fn cache_hit_report_identical_to_cold_run() {
    let rt = small_runtime(1);
    let program = Arc::new(nets::matmul_program(128));
    let cfg = MachineConfig::cambricon_f1();

    let direct = Machine::new(cfg.clone()).simulate(&program).unwrap();

    let cold = rt
        .submit_simulate(JobOptions::default(), cfg.clone(), Arc::clone(&program))
        .join()
        .unwrap();
    assert!(!cold.cache_hit);
    assert_eq!(*cold.report, direct);

    let warm = rt.submit_simulate(JobOptions::default(), cfg, program).join().unwrap();
    assert!(warm.cache_hit);
    // Not just equal: the very same report object the cold run cached.
    assert!(Arc::ptr_eq(&warm.report, &cold.report));
    assert_eq!(*warm.report, direct);

    let snap = rt.stats().snapshot();
    assert_eq!(snap.cache_hits, 1);
    assert_eq!(snap.cache_misses, 1);
}

#[test]
fn bypass_cache_skips_lookup_and_fill() {
    let rt = small_runtime(1);
    let program = Arc::new(nets::matmul_program(64));
    let cfg = MachineConfig::cambricon_f1();
    let opts = JobOptions { bypass_cache: true, ..Default::default() };

    let a = rt.submit_simulate(opts, cfg.clone(), Arc::clone(&program)).join().unwrap();
    let b = rt.submit_simulate(opts, cfg, program).join().unwrap();
    assert!(!a.cache_hit && !b.cache_hit);
    assert_eq!(a.report, b.report);
    assert!(rt.cache().is_empty());
    assert_eq!(rt.stats().snapshot().cache_misses, 0);
}

#[test]
fn cold_simulation_populates_cold_counters_and_stays_identical() {
    // A multi-op program so the parallel cold path has a frontier to fan
    // out; 4 workers so Machine::simulate_parallel gets a thread budget.
    let rt = small_runtime(4);
    let program = Arc::new(nets::build_program(&nets::mlp3(), 1).unwrap());
    let cfg = MachineConfig::cambricon_f1();

    let direct = Machine::new(cfg.clone()).simulate(&program).unwrap();
    let cold = rt.submit_simulate(JobOptions::default(), cfg, Arc::clone(&program)).join().unwrap();
    assert!(!cold.cache_hit);
    assert_eq!(*cold.report, direct, "parallel cold path must match sequential");

    let snap = rt.stats().snapshot();
    assert!(snap.cold_memo_misses > 0, "planner must have computed splits");
    assert!(snap.cold_memo_hits > 0, "self-similar siblings must hit the shape memo");
    assert!(snap.cold_step_memo_misses > 0, "every distinct step is timed once");
    assert!(snap.cold_arena_bytes > 0, "arena high-water must be recorded");
    let json = snap.render_json();
    assert!(json.contains("\"cold_memo_hits\":"), "{json}");
    assert!(json.contains("\"cold_parallel_tasks\":"), "{json}");
}

#[test]
fn concurrent_simulation_matches_sequential_byte_for_byte() {
    let jobs = workload_mix();

    // Sequential reference, no runtime involved.
    let sequential: Vec<String> = jobs
        .iter()
        .map(|(m, p)| format!("{:?}", Machine::new(m.clone()).simulate(p).unwrap()))
        .collect();

    // Concurrent, submitted all at once to a 4-worker pool.
    let rt = small_runtime(4);
    let handles = submit_all(&rt, jobs);
    let concurrent: Vec<String> =
        handles.into_iter().map(|h| format!("{:?}", *h.join().unwrap().report)).collect();

    assert_eq!(sequential, concurrent);
}

#[test]
fn concurrent_exec_matches_sequential_memory() {
    let cfg = MachineConfig::tiny(2, 2, 64 << 10);
    let program = Arc::new(nets::matmul_program(32));

    let rt = small_runtime(4);
    let handles: Vec<_> =
        (0..4).map(|seed| rt.submit_exec(cfg.clone(), Arc::clone(&program), seed)).collect();
    let concurrent: Vec<Vec<f32>> = handles.into_iter().map(|h| h.join().unwrap().memory).collect();

    // Same seed twice gives bit-identical memory; different seeds differ.
    let again = rt.submit_exec(cfg, Arc::clone(&program), 0).join().unwrap().memory;
    assert_eq!(concurrent[0], again);
    assert_ne!(concurrent[0], concurrent[1]);
}

#[test]
fn deadline_expires_queued_job() {
    // One worker, blocked by a slow job; the deadlined job behind it
    // cannot start in time.
    let rt = small_runtime(1);
    let _slow = rt.submit_task(|| std::thread::sleep(Duration::from_millis(120)));
    let opts = JobOptions::with_deadline(Duration::from_millis(10));
    let program = Arc::new(nets::matmul_program(32));
    let late = rt.submit_simulate(opts, MachineConfig::cambricon_f1(), program);
    match late.join() {
        Err(JobError::DeadlineExceeded { late_by }) => {
            assert!(late_by > Duration::ZERO);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(rt.stats().snapshot().expired, 1);
}

#[test]
fn cancel_resolves_queued_job_without_running_it() {
    let rt = small_runtime(1);
    let ran = Arc::new(AtomicUsize::new(0));
    let _slow = rt.submit_task(|| std::thread::sleep(Duration::from_millis(100)));
    let ran2 = Arc::clone(&ran);
    let victim = rt.submit_task(move || ran2.fetch_add(1, Ordering::SeqCst));
    victim.cancel();
    assert!(victim.is_cancelled());
    assert_eq!(victim.join(), Err(JobError::Cancelled));
    assert_eq!(ran.load(Ordering::SeqCst), 0);
    assert_eq!(rt.stats().snapshot().cancelled, 1);
}

#[test]
fn graceful_shutdown_drains_queue() {
    let rt = small_runtime(2);
    let log = Arc::new(Mutex::new(Vec::new()));
    let handles: Vec<_> = (0..10)
        .map(|i| {
            let log = Arc::clone(&log);
            rt.submit_task(move || {
                std::thread::sleep(Duration::from_millis(5));
                log.lock().unwrap().push(i);
                i
            })
        })
        .collect();
    rt.shutdown();
    assert_eq!(log.lock().unwrap().len(), 10);
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), i);
    }
}

#[test]
fn shutdown_now_discards_queued_jobs() {
    let rt = small_runtime(1);
    let _slow = rt.submit_task(|| std::thread::sleep(Duration::from_millis(80)));
    let queued: Vec<_> = (0..5).map(|i| rt.submit_task(move || i)).collect();
    let stats = rt.stats_arc();
    rt.shutdown_now();
    let mut discarded = 0;
    for h in queued {
        if h.join() == Err(JobError::Shutdown) {
            discarded += 1;
        }
    }
    // The worker may have started at most one of them before the close.
    assert!(discarded >= 4, "only {discarded} jobs were discarded");
    // Discarded jobs count as cancelled: no job leaves the counters.
    let snap = stats.snapshot();
    assert!(snap.cancelled >= discarded, "{snap:?}");
    assert_eq!(snap.submitted, snap.finished() + snap.in_flight, "{snap:?}");
}

#[test]
fn submit_after_shutdown_resolves_to_shutdown_error() {
    // Drop runs the graceful shutdown path; a clone of nothing remains,
    // so exercise close-then-submit through a second handle scope.
    let rt = small_runtime(1);
    let h = rt.submit_task(|| 1u8);
    assert_eq!(h.join().unwrap(), 1);
    rt.shutdown();
    // `rt` is consumed by shutdown; nothing left to submit on — the
    // closed-queue path is covered by shutdown_now_discards_queued_jobs.
}

#[test]
fn bounded_queue_blocks_submitters_until_a_slot_frees() {
    let rt = Arc::new(Runtime::new(RuntimeConfig {
        workers: 1,
        queue_capacity: 2,
        cache_capacity: 0,
        ..Default::default()
    }));
    // Occupy the one worker, then fill the queue behind it.
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let busy = rt.submit_task(move || {
        started_tx.send(()).unwrap();
        release_rx.recv().unwrap();
    });
    started_rx.recv().unwrap();
    let queued = [rt.submit_task(|| 1u8), rt.submit_task(|| 2u8)];
    // A third submission waits for a slot instead of failing.
    let (submitted_tx, submitted_rx) = mpsc::channel::<()>();
    let submitter = {
        let rt = Arc::clone(&rt);
        std::thread::spawn(move || {
            let handle = rt.submit_task(|| 3u8);
            submitted_tx.send(()).unwrap();
            handle.join()
        })
    };
    assert!(
        submitted_rx.recv_timeout(Duration::from_millis(150)).is_err(),
        "a full queue must block the submitter"
    );
    assert_eq!(rt.stats().snapshot().submitted, 3);
    // Freeing the worker frees a slot: the submitter returns and its job
    // runs after the two queued ones.
    release_tx.send(()).unwrap();
    submitted_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("a freed slot unblocks the submitter");
    assert_eq!(submitter.join().unwrap(), Ok(3));
    busy.join().unwrap();
    for (h, want) in queued.into_iter().zip([1u8, 2]) {
        assert_eq!(h.join(), Ok(want));
    }
    assert_eq!(rt.stats().snapshot().completed, 4);
}

#[test]
fn panicking_job_reports_panicked_error() {
    let rt = small_runtime(1);
    let h = rt.submit_task(|| -> u32 { panic!("kernel exploded") });
    match h.join() {
        Err(JobError::Panicked(msg)) => assert!(msg.contains("kernel exploded")),
        other => panic!("expected Panicked, got {other:?}"),
    }
    // The pool survives a panicking job.
    assert_eq!(rt.submit_task(|| 7u32).join().unwrap(), 7);
    assert_eq!(rt.stats().snapshot().failed, 1);
}

#[test]
fn warm_cache_answers_repeated_mix_without_resimulating() {
    let jobs = workload_mix();
    let distinct = 6; // 3 programs × 2 machines in the mix
    let rt = small_runtime(2);
    let handles = submit_all(&rt, jobs.clone());
    for h in handles {
        h.join().unwrap();
    }
    let snap = rt.stats().snapshot();
    assert_eq!(snap.cache_hits + snap.cache_misses, jobs.len() as u64);
    // Single-flight coalescing: concurrent same-key jobs wait for the
    // leader's fill instead of duplicating the planner run, so the miss
    // count is exactly the number of distinct (machine, program) pairs.
    assert_eq!(snap.cache_misses, distinct, "misses {}", snap.cache_misses);
    assert_eq!(snap.cache_hits, jobs.len() as u64 - distinct);
}

/// A runtime whose every supervised attempt first sleeps `hold` on its
/// worker (a timing-only fault: records are unchanged), so a keyed
/// simulate job stays queued or running for as long as a test needs.
fn held_runtime(workers: usize, hold: Duration) -> Runtime {
    let spec = FaultSpec::parse(&format!("latency=1,latency_ms={}", hold.as_millis())).unwrap();
    Runtime::new(RuntimeConfig {
        workers,
        fault_plan: Some(FaultPlan::new(0, spec)),
        ..Default::default()
    })
}

/// `[A, A, B]` on two workers: the second A parks behind the first
/// instead of taking worker 1, so B runs while A's leader is still held,
/// and the parked A then answers from the cache its leader filled.
#[test]
fn a_same_key_job_parks_instead_of_holding_a_worker() {
    let hold = Duration::from_millis(600);
    let rt = held_runtime(2, hold);
    let (cfg, program) = (MachineConfig::cambricon_f1(), Arc::new(nets::matmul_program(64)));
    let t0 = Instant::now();
    let leader = rt.submit_simulate(JobOptions::default(), cfg.clone(), Arc::clone(&program));
    let follower = rt.submit_simulate(JobOptions::default(), cfg, program);
    let b = rt.submit_task(move || t0.elapsed());
    let b_done = b.join().unwrap();
    let lead = leader.join().unwrap();
    let lead_done = t0.elapsed();
    assert!(lead_done >= hold, "the leader settled after {lead_done:?}");
    assert!(b_done < hold / 2, "B waited {b_done:?} behind a same-key duplicate");
    let follow = follower.join().unwrap();
    assert!(!lead.cache_hit && follow.cache_hit);
    assert!(Arc::ptr_eq(&lead.report, &follow.report));
    let snap = rt.stats().snapshot();
    assert_eq!((snap.cache_misses, snap.cache_hits), (1, 1), "{snap:?}");
}

/// Holds a runtime's one worker until the returned sender fires (or is
/// dropped), so the jobs submitted next stay queued or parked.
fn hold_worker(rt: &Runtime) -> (mpsc::Sender<()>, JobHandle<()>) {
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let busy = rt.submit_task(move || {
        let _ = release_rx.recv();
    });
    (release_tx, busy)
}

/// A key holder that fails terminally still hands its key on: the job
/// parked behind it runs, misses the cache and computes.
#[test]
fn a_failed_key_holder_releases_the_parked_job_to_compute() {
    // Job 0 holds the worker; the faulted holder is job 1, the parked
    // job 2. Find a seed that panics job 1's only attempt, not job 2's.
    let spec = FaultSpec::parse("panic=0.5").unwrap();
    let seed = (0..1000u64)
        .find(|&s| {
            let plan = FaultPlan::new(s, spec.clone());
            plan.fires(FaultSite::WorkerPanic, 1, 0) && !plan.fires(FaultSite::WorkerPanic, 2, 0)
        })
        .expect("a seed that fails only the key holder");
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        retry: RetryPolicy { max_retries: 0, ..Default::default() },
        fault_plan: Some(FaultPlan::new(seed, spec)),
        ..Default::default()
    });
    let (release, busy) = hold_worker(&rt);
    let (cfg, program) = (MachineConfig::cambricon_f1(), Arc::new(nets::matmul_program(64)));
    let holder = rt.submit_simulate(JobOptions::default(), cfg.clone(), Arc::clone(&program));
    let parked = rt.submit_simulate(JobOptions::default(), cfg, program);
    release.send(()).unwrap();
    busy.join().unwrap();
    assert!(matches!(holder.join(), Err(JobError::Panicked(_))));
    let computed = parked.join().unwrap();
    assert!(!computed.cache_hit);
    let snap = rt.stats().snapshot();
    assert_eq!((snap.cache_misses, snap.cache_hits, snap.failed), (1, 0, 1), "{snap:?}");
}

/// `shutdown_now` resolves a parked job to `Shutdown` without waiting
/// for the running key holder, and the parked job leaves no hole in the
/// counters.
#[test]
fn shutdown_now_resolves_a_parked_job_to_shutdown() {
    let rt = held_runtime(1, Duration::from_millis(200));
    let (cfg, program) = (MachineConfig::cambricon_f1(), Arc::new(nets::matmul_program(64)));
    let holder = rt.submit_simulate(JobOptions::default(), cfg.clone(), Arc::clone(&program));
    let parked = rt.submit_simulate(JobOptions::default(), cfg, program);
    let stats = rt.stats_arc();
    rt.shutdown_now();
    assert_eq!(parked.join().unwrap_err(), JobError::Shutdown);
    // The holder was running or queued when the runtime closed.
    let holder = holder.join();
    assert!(matches!(holder, Ok(_) | Err(JobError::Shutdown)), "{holder:?}");
    let snap = stats.snapshot();
    assert_eq!(snap.submitted, 2, "{snap:?}");
    assert_eq!(snap.submitted, snap.finished() + snap.in_flight, "{snap:?}");
    assert_eq!(snap.in_flight, 0, "{snap:?}");
}

/// A parked job cancelled before its key holder settles resolves to
/// `Cancelled` when released, without running.
#[test]
fn a_parked_job_cancelled_before_release_resolves_cancelled() {
    let rt = small_runtime(1);
    let (release, busy) = hold_worker(&rt);
    let (cfg, program) = (MachineConfig::cambricon_f1(), Arc::new(nets::matmul_program(64)));
    let holder = rt.submit_simulate(JobOptions::default(), cfg.clone(), Arc::clone(&program));
    let parked = rt.submit_simulate(JobOptions::default(), cfg, program);
    parked.cancel();
    release.send(()).unwrap();
    busy.join().unwrap();
    assert!(!holder.join().unwrap().cache_hit);
    assert_eq!(parked.join().unwrap_err(), JobError::Cancelled);
    let snap = rt.stats().snapshot();
    assert_eq!((snap.cache_misses, snap.cache_hits, snap.cancelled), (1, 0, 1), "{snap:?}");
    assert_eq!(snap.submitted, snap.finished() + snap.in_flight, "{snap:?}");
}
