//! Criterion benchmarks of the cf-runtime service layer: cached vs
//! uncached simulation, and batch throughput as the worker count grows.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use cf_core::{Machine, MachineConfig};
use cf_runtime::{JobOptions, Runtime, RuntimeConfig};
use cf_workloads::nets;

/// The repeated-workload job mix (8 jobs, 2 distinct keys): the shape the
/// plan cache is built for.
fn mix(programs: &[Arc<cf_isa::Program>]) -> Vec<(MachineConfig, Arc<cf_isa::Program>)> {
    (0..8).map(|i| (MachineConfig::cambricon_f1(), Arc::clone(&programs[i % 2]))).collect()
}

/// Submits every job before joining any, as a manifest run does.
fn submit_and_join(rt: &Runtime, jobs: Vec<(MachineConfig, Arc<cf_isa::Program>)>) {
    let handles: Vec<_> =
        jobs.into_iter().map(|(m, p)| rt.submit_simulate(JobOptions::default(), m, p)).collect();
    for h in handles {
        h.join().unwrap();
    }
}

fn bench_runtime(c: &mut Criterion) {
    let programs = [Arc::new(nets::matmul_program(512)), Arc::new(nets::matmul_program(768))];

    // One warm runtime reused across iterations: after the first fill,
    // every simulate is answered from the cache.
    let warm = Runtime::new(RuntimeConfig { workers: 1, ..Default::default() });
    let plain = JobOptions::default();
    let f1 = MachineConfig::cambricon_f1;
    warm.submit_simulate(plain, f1(), Arc::clone(&programs[0])).join().unwrap();
    c.bench_function("simulate_cached", |bench| {
        bench.iter(|| {
            warm.submit_simulate(plain, f1(), black_box(Arc::clone(&programs[0]))).join().unwrap()
        })
    });

    c.bench_function("simulate_uncached", |bench| {
        let opts = JobOptions { bypass_cache: true, ..Default::default() };
        bench.iter(|| {
            warm.submit_simulate(opts, f1(), black_box(Arc::clone(&programs[0]))).join().unwrap()
        })
    });

    // The cold simulator alone — no pool, no queue, no cache — so the
    // planner-side optimisations (shape memo, arena, inline shapes) are
    // measured without the service round-trip.
    c.bench_function("simulate_cold_direct", |bench| {
        let machine = Machine::new(MachineConfig::cambricon_f1());
        bench.iter(|| machine.simulate(black_box(&programs[0])).unwrap())
    });

    // Same, through the parallel cold path with a 4-thread budget (the
    // report is byte-identical; the fan-out only pays off on multi-op
    // programs, so this also tracks its overhead on a single-op one).
    c.bench_function("simulate_cold_parallel4", |bench| {
        let machine = Machine::new(MachineConfig::cambricon_f1());
        bench.iter(|| machine.simulate_parallel(black_box(&programs[0]), 4).unwrap())
    });

    // Batch throughput: the same 8-job repeated mix on a cold 1-worker
    // pool vs a 4-worker pool with a shared cache. Pool construction is
    // inside the measurement on purpose: this is the serve-a-manifest
    // round-trip.
    c.bench_function("batch_8jobs_1worker_cold", |bench| {
        bench.iter(|| {
            let rt =
                Runtime::new(RuntimeConfig { workers: 1, cache_capacity: 0, ..Default::default() });
            submit_and_join(&rt, black_box(mix(&programs)));
        })
    });

    c.bench_function("batch_8jobs_4workers_cached", |bench| {
        bench.iter(|| {
            let rt = Runtime::new(RuntimeConfig { workers: 4, ..Default::default() });
            submit_and_join(&rt, black_box(mix(&programs)));
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_runtime
}
criterion_main!(benches);
