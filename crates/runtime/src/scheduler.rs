//! The job scheduler: a bounded submission queue feeding a fixed pool of
//! `std::thread` workers, supervised for resilience.
//!
//! Design:
//!
//! * **Bounded queue** — [`Runtime::submit_task`] and friends block while
//!   the queue is at capacity (backpressure); `try_*` variants return
//!   [`JobError::QueueFull`] instead.
//! * **Handles** — every submission returns a [`JobHandle`], a blocking
//!   future with cancellation. Cancellation is cooperative at job
//!   granularity: queued jobs resolve to [`JobError::Cancelled`], a job
//!   already on a worker runs to completion.
//! * **Deadlines** — a job may carry a *start* deadline
//!   ([`JobOptions::deadline`]); a worker that picks an expired job up
//!   resolves it to [`JobError::DeadlineExceeded`] without running it.
//! * **Graceful shutdown** — [`Runtime::shutdown`] (and `Drop`) closes the
//!   queue, lets the workers drain every queued job, then joins them;
//!   [`Runtime::shutdown_now`] resolves still-queued jobs to
//!   [`JobError::Shutdown`] instead of running them.
//! * **Caching** — simulation jobs consult the shared [`PlanCache`] keyed
//!   by `(machine fingerprint, program hash)`; every entry carries an FNV
//!   content checksum re-verified on hit, and a corrupt hit falls back to
//!   recomputation (counted in [`RuntimeStats`]). Functional-execution
//!   jobs bypass the cache by construction (their results depend on
//!   memory contents, which the key does not cover).
//! * **Supervision** — simulation/execution jobs (idempotent by
//!   construction) run under the [`supervisor`](crate::supervisor):
//!   transient failures retry with exponential backoff inside a budget, a
//!   circuit breaker sheds load under sustained failure, and a worker
//!   whose loop panics is respawned so the pool never shrinks. A seeded
//!   [`FaultPlan`] can deterministically inject panics, latency, cache
//!   corruption, deadline expiries and DMA faults at every one of those
//!   seams (see [`fault`](crate::fault)).

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use cf_core::perf::SimCache;
use cf_core::{Machine, MachineConfig, PerfReport};
use cf_isa::Program;
use cf_tensor::gen::DataGen;
use cf_tensor::{Memory, Shape};

use crate::cache::{CacheKey, CacheLookup, PlanCache};
use crate::fault::{FaultPlan, FaultSite};
use crate::job::{JobError, JobHandle, JobOptions};
use crate::obs::{SpanKind, Stage, Tracer};
use crate::stats::RuntimeStats;
use crate::supervisor::{panic_message, BreakerConfig, CircuitBreaker, RetryPolicy, Supervisor};
use crate::sync;

/// Construction parameters for a [`Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Maximum queued (not yet started) jobs before submission blocks.
    pub queue_capacity: usize,
    /// Plan/report cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Retry policy for supervised (simulate/exec) jobs.
    pub retry: RetryPolicy,
    /// Circuit-breaker thresholds (disabled by default).
    pub breaker: BreakerConfig,
    /// Deterministic fault-injection plan (`None` = no injection).
    pub fault_plan: Option<FaultPlan>,
    /// Admission-control limits (unlimited by default).
    pub load: LoadPolicy,
    /// Shared span tracer (`None` = tracing disabled, near-zero cost).
    pub tracer: Option<Arc<Tracer>>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            queue_capacity: 1024,
            cache_capacity: 256,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            fault_plan: None,
            load: LoadPolicy::default(),
            tracer: None,
        }
    }
}

/// Admission-control limits enforced at `submit_*` time.
///
/// Unlike the bounded queue — which exerts *backpressure* by blocking
/// the submitter — an over-capacity submission under a `LoadPolicy` is
/// rejected **immediately** as [`JobError::Shed`] with queue-depth
/// context, so a caller that cannot afford to block (or to let memory
/// grow with queued work) learns about the overload right away and
/// decides for itself whether to back off, retry or fail.
///
/// The admission check reads the gauges without holding the queue lock,
/// so under concurrent submitters the limits are enforced approximately
/// (a handful of jobs can race past a freshly-reached limit); they are
/// exact for a single submitting thread, which is how the serve engine
/// drives the pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadPolicy {
    /// Maximum accepted-but-unfinished jobs (0 = unlimited).
    pub max_in_flight: usize,
    /// Maximum estimated bytes of queued work, per
    /// [`JobOptions::cost_bytes`] (0 = unlimited).
    pub max_queued_bytes: usize,
    /// Run-level deadline budget: every job's start deadline is clamped
    /// to "runtime construction + budget", so a run that overstays its
    /// budget expires its remaining queued jobs instead of running them.
    pub deadline_budget: Option<Duration>,
}

impl LoadPolicy {
    /// A policy bounding only the number of in-flight jobs.
    pub fn max_in_flight(n: usize) -> Self {
        LoadPolicy { max_in_flight: n, ..Default::default() }
    }
}

/// What a worker decided to do with a dequeued job.
enum Disposition {
    Run,
    Cancelled,
    Expired { late_by: std::time::Duration },
    Shutdown,
}

struct QueuedJob {
    /// The job's submission id — the token fault/jitter decisions key on.
    id: u64,
    enqueued: Instant,
    deadline: Option<Instant>,
    /// Bytes charged against the queued-bytes gauge while queued.
    cost: usize,
    cancelled: Arc<AtomicBool>,
    /// Completes the handle according to the disposition; returns whether
    /// the body ran and succeeded (`None` when the body did not run).
    run: Box<dyn FnOnce(Disposition) -> Option<bool> + Send>,
}

struct QueueState {
    jobs: VecDeque<QueuedJob>,
    closed: bool,
}

/// Single-flight marker: the first job to miss on a key becomes the
/// *leader* and simulates; concurrent same-key jobs wait here for the
/// cache fill instead of duplicating the planner run.
#[derive(Default)]
struct Inflight {
    done: Mutex<bool>,
    cv: Condvar,
}

/// Removes the inflight marker and releases its waiters even if the
/// leader's simulation panics (without this, an unwinding leader would
/// strand every waiter forever).
struct InflightGuard<'a> {
    inner: &'a PoolInner,
    key: CacheKey,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        if let Some(w) = sync::lock(&self.inner.inflight).remove(&self.key) {
            *sync::lock(&w.done) = true;
            w.cv.notify_all();
        }
    }
}

struct PoolInner {
    queue: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    queue_capacity: usize,
    load: LoadPolicy,
    /// Construction time — the origin of the run-level deadline budget.
    started: Instant,
    cache: PlanCache,
    inflight: Mutex<HashMap<CacheKey, Arc<Inflight>>>,
    /// Shared so an [`Obs`](crate::Obs) hub can read the live counters
    /// (including the in-flight/queued-bytes gauges) from other threads.
    stats: Arc<RuntimeStats>,
    tracer: Arc<Tracer>,
    supervisor: Supervisor,
    next_id: AtomicU64,
    /// Cold simulations currently running; divides the parallel-simulate
    /// thread budget so N concurrent cold jobs share the pool instead of
    /// each fanning out to the full worker count.
    cold_inflight: AtomicUsize,
}

/// Outcome of a cached simulation job.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The performance report (shared with the cache on hits and fills).
    pub report: Arc<PerfReport>,
    /// Whether the report came out of the plan/report cache.
    pub cache_hit: bool,
    /// The cache key the job used.
    pub key: CacheKey,
}

/// Outcome of a profiled simulation job
/// ([`Runtime::submit_simulate_profiled_checked`]).
#[derive(Debug, Clone)]
pub struct ProfiledSimResult {
    /// The performance report (identical to the unprofiled one).
    pub report: Arc<PerfReport>,
    /// The simulator's per-level / per-signature attribution.
    pub profile: Arc<cf_core::ProfileReport>,
    /// The cache key identifying the job (the job itself bypasses the
    /// cache so the attribution reflects a real planner run).
    pub key: CacheKey,
}

/// Outcome of a functional-execution job.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    /// Final external memory after the program ran (seeded inputs
    /// included), element for element.
    pub memory: Vec<f32>,
}

/// Per-attempt DMA fault hook for functional-execution jobs: decides per
/// transfer from `(seed, MemFault, token, attempt, op)`, so a retried
/// attempt draws fresh decisions.
struct MemFaultHook {
    inner: Arc<PoolInner>,
    token: u64,
    attempt: u32,
}

impl cf_core::fault::DmaFaultHook for MemFaultHook {
    fn fires(&self, op: u64) -> bool {
        let Some(plan) = &self.inner.supervisor.plan else { return false };
        let fire = plan.fires_at(FaultSite::MemFault, self.token, self.attempt, op);
        if fire {
            self.inner.stats.faults_injected.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }
}

/// The concurrent simulation-service runtime: worker pool + bounded queue
/// + plan/report cache + supervision + stats registry.
///
/// # Examples
///
/// ```
/// use cf_runtime::{Runtime, RuntimeConfig};
/// use cf_core::MachineConfig;
/// use cf_isa::{Opcode, ProgramBuilder};
/// use std::sync::Arc;
///
/// let runtime = Runtime::new(RuntimeConfig { workers: 2, ..Default::default() });
/// let mut b = ProgramBuilder::new();
/// let a = b.alloc("a", vec![64, 64]);
/// let w = b.alloc("w", vec![64, 64]);
/// b.apply(Opcode::MatMul, [a, w])?;
/// let program = Arc::new(b.build());
///
/// let cold =
///     runtime.submit_simulate(MachineConfig::cambricon_f1(), Arc::clone(&program)).join()?;
/// let warm = runtime.submit_simulate(MachineConfig::cambricon_f1(), program).join()?;
/// assert_eq!(cold.report, warm.report);
/// assert!(warm.cache_hit);
/// assert_eq!(runtime.stats().snapshot().cache_hits, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Runtime {
    inner: Arc<PoolInner>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.workers.len())
            .field("queue_capacity", &self.inner.queue_capacity)
            .field("cache_capacity", &self.inner.cache.capacity())
            .finish()
    }
}

impl Runtime {
    /// Builds the pool and starts its workers.
    pub fn new(config: RuntimeConfig) -> Self {
        let workers = config.workers.max(1);
        let tracer = config.tracer.unwrap_or_else(|| Arc::new(Tracer::disabled()));
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(QueueState { jobs: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            queue_capacity: config.queue_capacity.max(1),
            load: config.load,
            started: Instant::now(),
            cache: PlanCache::with_tracer(config.cache_capacity, Arc::clone(&tracer)),
            inflight: Mutex::new(HashMap::new()),
            stats: Arc::new(RuntimeStats::new(workers)),
            tracer: Arc::clone(&tracer),
            supervisor: Supervisor {
                policy: config.retry,
                breaker: CircuitBreaker::new(config.breaker),
                plan: config.fault_plan,
                tracer,
            },
            next_id: AtomicU64::new(0),
            cold_inflight: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("cf-runtime-worker-{i}"))
                    .spawn(move || worker_entry(&inner, i))
                    .unwrap_or_else(|e| panic!("failed to spawn cf-runtime worker {i}: {e}"))
            })
            .collect();
        Runtime { inner, workers: handles }
    }

    /// A runtime with `workers` threads and default queue/cache sizing.
    pub fn with_workers(workers: usize) -> Self {
        Runtime::new(RuntimeConfig { workers, ..Default::default() })
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The live counters registry.
    pub fn stats(&self) -> &RuntimeStats {
        &self.inner.stats
    }

    /// The live counters registry as a shared handle, for publishing to
    /// an [`Obs`](crate::Obs) hub that outlives this borrow.
    pub fn stats_arc(&self) -> Arc<RuntimeStats> {
        Arc::clone(&self.inner.stats)
    }

    /// The span tracer this pool records into (a disabled instance when
    /// none was configured).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.inner.tracer
    }

    /// The shared plan/report cache.
    pub fn cache(&self) -> &PlanCache {
        &self.inner.cache
    }

    /// The admission-control policy this pool enforces.
    pub fn load_policy(&self) -> LoadPolicy {
        self.inner.load
    }

    /// Accepted-but-unfinished jobs right now (the in-flight gauge).
    pub fn in_flight(&self) -> usize {
        self.inner.stats.in_flight.load(Ordering::Relaxed) as usize
    }

    /// Estimated bytes of queued, not-yet-started work right now.
    pub fn queued_bytes(&self) -> usize {
        self.inner.stats.queued_bytes.load(Ordering::Relaxed) as usize
    }

    /// Whether a submission of `cost_bytes` would pass [`LoadPolicy`]
    /// admission control *right now* — the front-door check the HTTP job
    /// API runs before journaling an acceptance. Advisory: the gauges can
    /// move between this check and the actual submission, so submitters
    /// that must not race still use the `_checked` variants.
    ///
    /// # Errors
    ///
    /// [`JobError::Shed`] naming the exhausted limit and the gauge values
    /// that tripped it. Does **not** count toward `shed_jobs` (nothing
    /// was submitted).
    pub fn check_admission(&self, cost_bytes: usize) -> Result<(), JobError> {
        self.admit(cost_bytes)
    }

    /// Submits an arbitrary closure job (blocking while the queue is
    /// full). Used for batch sweeps and the experiment harness.
    ///
    /// Task jobs are **not** supervised: the runtime cannot know they are
    /// idempotent, so they get no retries and no fault injection.
    pub fn submit_task<T, F>(&self, f: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.submit_with(JobOptions::default(), move || Ok(f()), true)
    }

    /// [`submit_task`](Runtime::submit_task) with explicit options.
    pub fn submit_task_opts<T, F>(&self, opts: JobOptions, f: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.submit_with(opts, move || Ok(f()), true)
    }

    /// Non-blocking [`submit_task`](Runtime::submit_task): fails with
    /// [`JobError::QueueFull`] instead of waiting for queue space.
    pub fn try_submit_task<T, F>(&self, f: F) -> Result<JobHandle<T>, JobError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (handle, admitted) = self.submit_inner(JobOptions::default(), move || Ok(f()), false);
        admitted.map(|()| handle)
    }

    /// Submits a cached performance simulation of `program` on `machine`.
    pub fn submit_simulate(
        &self,
        machine: MachineConfig,
        program: Arc<Program>,
    ) -> JobHandle<SimResult> {
        self.submit_simulate_opts(JobOptions::default(), machine, program)
    }

    /// [`submit_simulate`](Runtime::submit_simulate) with explicit options
    /// (deadline, cache bypass).
    pub fn submit_simulate_opts(
        &self,
        opts: JobOptions,
        machine: MachineConfig,
        program: Arc<Program>,
    ) -> JobHandle<SimResult> {
        self.submit_simulate_checked(opts, machine, program).0
    }

    /// [`submit_simulate_opts`](Runtime::submit_simulate_opts), also
    /// reporting whether admission control accepted the job: `Err` means
    /// the job never entered the queue (the handle is already resolved to
    /// the same error). Blocks for queue space like the plain submit;
    /// only [`LoadPolicy`] rejections surface here.
    pub fn submit_simulate_checked(
        &self,
        opts: JobOptions,
        machine: MachineConfig,
        program: Arc<Program>,
    ) -> (JobHandle<SimResult>, Result<(), JobError>) {
        let opts = self.charge_default_cost(opts, &program);
        let inner = Arc::clone(&self.inner);
        let bypass = opts.bypass_cache;
        self.submit_supervised(opts, move |id, _attempt| {
            simulate_once(&inner, &machine, &program, bypass, id)
        })
    }

    /// Submits a **profiled** performance simulation: timing identical to
    /// [`submit_simulate`](Runtime::submit_simulate) but also returning
    /// the simulator's per-level/per-stage attribution with the `top`
    /// hottest instruction signatures. Always bypasses the plan cache —
    /// a cached report carries no fresh attribution — and is counted as
    /// a cache miss for neither side. Same admission-control reporting
    /// as [`submit_simulate_checked`](Runtime::submit_simulate_checked).
    pub fn submit_simulate_profiled_checked(
        &self,
        opts: JobOptions,
        machine: MachineConfig,
        program: Arc<Program>,
        top: usize,
    ) -> (JobHandle<ProfiledSimResult>, Result<(), JobError>) {
        let opts = self.charge_default_cost(opts, &program);
        self.submit_supervised(opts, move |_id, _attempt| {
            let key = CacheKey::new(&machine, &program);
            let (report, profile) = Machine::new(machine.clone())
                .simulate_profiled(&program, top)
                .map_err(JobError::Sim)?;
            Ok(ProfiledSimResult { report: Arc::new(report), profile: Arc::new(profile), key })
        })
    }

    /// Submits a functional execution of `program` on `machine`, inputs
    /// seeded from `seed` exactly as `cfrun --exec` seeds them.
    ///
    /// Functional jobs **bypass the report cache**: their output is the
    /// transformed memory, which depends on the seeded input data — not
    /// covered by the `(machine, program)` cache key (see DESIGN.md §6).
    pub fn submit_exec(
        &self,
        machine: MachineConfig,
        program: Arc<Program>,
        seed: u64,
    ) -> JobHandle<ExecResult> {
        self.submit_exec_opts(JobOptions::default(), machine, program, seed)
    }

    /// [`submit_exec`](Runtime::submit_exec) with explicit options.
    pub fn submit_exec_opts(
        &self,
        opts: JobOptions,
        machine: MachineConfig,
        program: Arc<Program>,
        seed: u64,
    ) -> JobHandle<ExecResult> {
        self.submit_exec_checked(opts, machine, program, seed).0
    }

    /// [`submit_exec_opts`](Runtime::submit_exec_opts) with the same
    /// admission-control reporting as
    /// [`submit_simulate_checked`](Runtime::submit_simulate_checked).
    pub fn submit_exec_checked(
        &self,
        opts: JobOptions,
        machine: MachineConfig,
        program: Arc<Program>,
        seed: u64,
    ) -> (JobHandle<ExecResult>, Result<(), JobError>) {
        let opts = self.charge_default_cost(opts, &program);
        let inner = Arc::clone(&self.inner);
        self.submit_supervised(opts, move |id, attempt| {
            let elems = program.extern_elems() as usize;
            let mut mem = Memory::new(elems);
            let data = DataGen::new(seed).uniform(Shape::new(vec![elems]), -1.0, 1.0);
            mem.as_mut_slice().copy_from_slice(data.data());
            let mut m = Machine::new(machine.clone());
            if inner.supervisor.plan.is_some() {
                m = m.with_fault_hook(Arc::new(MemFaultHook {
                    inner: Arc::clone(&inner),
                    token: id,
                    attempt,
                }));
            }
            m.run(&program, &mut mem).map_err(JobError::Sim)?;
            Ok(ExecResult { memory: mem.as_mut_slice().to_vec() })
        })
    }

    /// Submits a batch of simulations, returning the handles in order.
    pub fn simulate_batch(
        &self,
        jobs: impl IntoIterator<Item = (MachineConfig, Arc<Program>)>,
    ) -> Vec<JobHandle<SimResult>> {
        jobs.into_iter().map(|(m, p)| self.submit_simulate(m, p)).collect()
    }

    /// Closes the queue, drains every queued job, then joins the workers.
    pub fn shutdown(mut self) {
        self.shutdown_impl(false);
    }

    /// Closes the queue, resolves still-queued jobs to
    /// [`JobError::Shutdown`] without running them, then joins the
    /// workers (the job each worker is currently running still finishes).
    pub fn shutdown_now(mut self) {
        self.shutdown_impl(true);
    }

    fn shutdown_impl(&mut self, discard_queued: bool) {
        {
            let mut q = sync::lock(&self.inner.queue);
            q.closed = true;
            if discard_queued {
                for job in q.jobs.drain(..) {
                    self.inner.stats.queued_bytes.fetch_sub(job.cost as u64, Ordering::Relaxed);
                    (job.run)(Disposition::Shutdown);
                    self.inner.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
                }
            }
            self.inner.not_empty.notify_all();
            self.inner.not_full.notify_all();
        }
        if self.workers.is_empty() {
            return;
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // The workers took their simulation tables with them.
        release_freed_memory();
    }

    /// Fills [`JobOptions::cost_bytes`] with the program's external
    /// memory footprint when the caller did not estimate it.
    fn charge_default_cost(&self, mut opts: JobOptions, program: &Program) -> JobOptions {
        if opts.cost_bytes == 0 {
            opts.cost_bytes = program.extern_elems() as usize * std::mem::size_of::<f32>();
        }
        opts
    }

    /// Wraps an idempotent per-attempt body in the supervisor (retry,
    /// breaker, fault injection) and submits it.
    fn submit_supervised<T, F>(
        &self,
        opts: JobOptions,
        attempt_body: F,
    ) -> (JobHandle<T>, Result<(), JobError>)
    where
        T: Send + 'static,
        F: Fn(u64, u32) -> Result<T, JobError> + Send + 'static,
    {
        let inner = Arc::clone(&self.inner);
        self.submit_with_id(opts, true, move |id| {
            inner.supervisor.supervise(&inner.stats, id, |attempt| attempt_body(id, attempt))
        })
    }

    /// The blocking submission path (waits for queue space).
    fn submit_with<T, F>(&self, opts: JobOptions, body: F, block_when_full: bool) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> Result<T, JobError> + Send + 'static,
    {
        self.submit_inner(opts, body, block_when_full).0
    }

    fn submit_inner<T, F>(
        &self,
        opts: JobOptions,
        body: F,
        block_when_full: bool,
    ) -> (JobHandle<T>, Result<(), JobError>)
    where
        T: Send + 'static,
        F: FnOnce() -> Result<T, JobError> + Send + 'static,
    {
        self.submit_with_id(opts, block_when_full, move |_| body())
    }

    /// Checks the [`LoadPolicy`] gauges; `Err` is the shed error to
    /// resolve the handle with.
    fn admit(&self, cost: usize) -> Result<(), JobError> {
        let load = &self.inner.load;
        if load.max_in_flight == 0 && load.max_queued_bytes == 0 {
            return Ok(());
        }
        let in_flight = self.inner.stats.in_flight.load(Ordering::Relaxed) as usize;
        let queued_bytes = self.inner.stats.queued_bytes.load(Ordering::Relaxed) as usize;
        let limit = if load.max_in_flight > 0 && in_flight >= load.max_in_flight {
            "in-flight"
        } else if load.max_queued_bytes > 0 && queued_bytes + cost > load.max_queued_bytes {
            "queued-bytes"
        } else {
            return Ok(());
        };
        Err(JobError::Shed { limit, in_flight, queued_bytes })
    }

    /// The generic submission path; the body receives the job's
    /// submission id (the supervision/fault token). With
    /// `block_when_full` the call waits for queue space; otherwise a full
    /// queue returns `Err(QueueFull)` in the second slot. In every `Err`
    /// case (shed, queue full, shutdown) the handle is already resolved
    /// to the same error, so plain submitters can ignore the second slot.
    fn submit_with_id<T, F>(
        &self,
        opts: JobOptions,
        block_when_full: bool,
        body: F,
    ) -> (JobHandle<T>, Result<(), JobError>)
    where
        T: Send + 'static,
        F: FnOnce(u64) -> Result<T, JobError> + Send + 'static,
    {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        // Attached before admission control so even a shed outcome is
        // joinable to its distributed trace (no-op when tracing is off).
        if let Some(ctx) = opts.trace {
            self.inner.tracer.attach(id, ctx);
        }
        let (handle, shared) = JobHandle::<T>::new(id);
        // The queue entry shares the handle's cancel flag so workers can
        // observe cancellation without knowing `T`.
        let cancelled = Arc::clone(&shared.cancelled);

        // Admission control: shed *before* blocking on queue space — an
        // overloaded pool answers immediately, it does not stall callers.
        if let Err(shed) = self.admit(opts.cost_bytes) {
            self.inner.stats.shed_jobs.fetch_add(1, Ordering::Relaxed);
            let detail = shed.to_string();
            self.inner.tracer.record(SpanKind::Shed, id, None, move || detail);
            shared.complete(Err(shed.clone()));
            return (handle, Err(shed));
        }

        let now = Instant::now();
        let mut deadline = opts.deadline.map(|d| now + d);
        // Clamp to the run-level deadline budget, if any.
        if let Some(budget) = self.inner.load.deadline_budget {
            let run_deadline = self.inner.started + budget;
            deadline = Some(deadline.map_or(run_deadline, |d| d.min(run_deadline)));
        }
        let run = {
            let shared = Arc::clone(&shared);
            Box::new(move |disposition: Disposition| match disposition {
                Disposition::Run => {
                    let outcome = catch_unwind(AssertUnwindSafe(move || body(id)));
                    let (ok, result) = match outcome {
                        Ok(Ok(value)) => (true, Ok(value)),
                        Ok(Err(e)) => (false, Err(e)),
                        Err(payload) => (false, Err(JobError::Panicked(panic_message(&*payload)))),
                    };
                    shared.complete(result);
                    Some(ok)
                }
                Disposition::Cancelled => {
                    shared.complete(Err(JobError::Cancelled));
                    None
                }
                Disposition::Expired { late_by } => {
                    shared.complete(Err(JobError::DeadlineExceeded { late_by }));
                    None
                }
                Disposition::Shutdown => {
                    shared.complete(Err(JobError::Shutdown));
                    None
                }
            }) as Box<dyn FnOnce(Disposition) -> Option<bool> + Send>
        };
        let cost = opts.cost_bytes;
        let job = QueuedJob { id, enqueued: now, deadline, cost, cancelled, run };

        let mut q = sync::lock(&self.inner.queue);
        while !q.closed && q.jobs.len() >= self.inner.queue_capacity {
            if !block_when_full {
                drop(q);
                shared.complete(Err(JobError::QueueFull));
                return (handle, Err(JobError::QueueFull));
            }
            q = sync::wait(&self.inner.not_full, q);
        }
        if q.closed {
            drop(q);
            shared.complete(Err(JobError::Shutdown));
            return (handle, Err(JobError::Shutdown));
        }
        q.jobs.push_back(job);
        drop(q);
        self.inner.stats.in_flight.fetch_add(1, Ordering::Relaxed);
        self.inner.stats.queued_bytes.fetch_add(cost as u64, Ordering::Relaxed);
        self.inner.stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.inner.tracer.record(SpanKind::JobSubmit, id, None, || format!("cost_bytes={cost}"));
        self.inner.not_empty.notify_one();
        (handle, Ok(()))
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown_impl(false);
    }
}

/// One simulation attempt: cache lookup (checksum-verified), single-flight
/// leadership, planner run and cache fill, with deterministic
/// corruption injection on the fill when a fault plan says so.
fn simulate_once(
    inner: &PoolInner,
    machine: &MachineConfig,
    program: &Program,
    bypass: bool,
    _job_id: u64,
) -> Result<SimResult, JobError> {
    let key = CacheKey::new(machine, program);
    if bypass || inner.cache.capacity() == 0 {
        let report = Arc::new(cold_simulate(inner, machine, program, false)?);
        return Ok(SimResult { report, cache_hit: false, key });
    }
    loop {
        match inner.cache.get_verified(&key) {
            CacheLookup::Hit(report) => {
                inner.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(SimResult { report, cache_hit: true, key });
            }
            CacheLookup::Corrupt => {
                // Checksum mismatch: the entry has been evicted; fall
                // through and recompute (the next loop iteration misses).
                inner.stats.cache_corruptions.fetch_add(1, Ordering::Relaxed);
            }
            CacheLookup::Miss => {}
        }
        // Single-flight: the first job to miss on this key becomes the
        // leader; concurrent same-key jobs wait for its cache fill
        // instead of re-running the planner.
        let waiter = {
            let mut inflight = sync::lock(&inner.inflight);
            match inflight.get(&key) {
                Some(w) => Some(Arc::clone(w)),
                None => {
                    inflight.insert(key, Arc::new(Inflight::default()));
                    None
                }
            }
        };
        let Some(waiter) = waiter else {
            // Leader. The guard releases waiters even if the planner
            // panics below.
            let _guard = InflightGuard { inner, key };
            // Re-check the cache first: a previous leader may have filled
            // it between this job's miss and its registration.
            if let CacheLookup::Hit(report) = inner.cache.get_verified(&key) {
                inner.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(SimResult { report, cache_hit: true, key });
            }
            // Simulate, fill, release the waiters (guard drop).
            let report = Arc::new(cold_simulate(inner, machine, program, true)?);
            inner.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
            fill_cache(inner, key, &report);
            return Ok(SimResult { report, cache_hit: false, key });
        };
        let mut done = sync::lock(&waiter.done);
        while !*done {
            done = sync::wait(&waiter.cv, done);
        }
        // Loop to re-check the cache: if the leader failed, this job
        // takes over as the next leader.
    }
}

/// One worker's simulation tables, kept across the jobs it runs, and
/// the bytes of them it has booked on the `sim_table_bytes` gauge.
#[derive(Default)]
struct WorkerSims {
    cache: SimCache,
    booked: u64,
}

impl WorkerSims {
    /// [`SimCache::simulate`], keeping the table gauges current.
    fn simulate(
        &mut self,
        stats: &RuntimeStats,
        machine: &MachineConfig,
        program: &Program,
        threads: usize,
    ) -> Result<(PerfReport, cf_core::perf::ColdStats), cf_core::CoreError> {
        let resets = self.cache.resets();
        let result = self.cache.simulate(machine, program, threads);
        stats.sim_table_resets.fetch_add(self.cache.resets() - resets, Ordering::Relaxed);
        let bytes = self.cache.table_bytes();
        stats.sim_table_bytes.fetch_add(bytes.wrapping_sub(self.booked), Ordering::Relaxed);
        self.booked = bytes;
        result
    }
}

thread_local! {
    /// The running worker's [`WorkerSims`]: installed by
    /// [`worker_entry`] for each run of the worker loop and discarded
    /// when that loop ends or panics, so the tables live no longer than
    /// the worker — and the worker no longer than its [`Runtime`].
    static WORKER_SIMS: RefCell<Option<WorkerSims>> = const { RefCell::new(None) };
}

/// Drops the running worker's simulation tables, takes their bytes off
/// the gauge, and returns how many bytes that was.
fn discard_worker_sims(stats: &RuntimeStats) -> u64 {
    let booked = WORKER_SIMS.with(|slot| slot.borrow_mut().take()).map_or(0, |sims| sims.booked);
    stats.sim_table_bytes.fetch_sub(booked, Ordering::Relaxed);
    booked
}

/// Hands the pages of freed heap memory back to the OS. Kept simulation
/// tables are many small allocations interleaved with long-lived ones
/// (reports, records), so once dropped the allocator keeps their pages
/// resident, and a process that outlives its runtime — a benchmark that
/// renders reference records before spawning a fleet — would carry them
/// into every later `fork`.
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only returns free pages to the
        // OS; it takes the allocator's own locks and has no
        // preconditions.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// One *cold* (uncached) planner run. With `keep` it simulates on the
/// worker's kept [`SimCache`], so the job reuses the subtree outcomes,
/// split decisions and step timings earlier jobs on this worker computed
/// for the same machine; a job that bypasses the plan cache passes
/// `false` and is timed on tables of its own, from scratch. Either way a
/// large job's unique cold subtrees fan out across the pool's thread
/// budget, and the planner's instrumentation folds into
/// [`RuntimeStats`]. The report is byte-identical to a fresh sequential
/// `Machine::simulate` — every kept entry is a pure function of the
/// machine and its key, and the parallel pass only pre-warms the outcome
/// cache — so cache fills and single-flight followers observe the exact
/// same value either way.
fn cold_simulate(
    inner: &PoolInner,
    machine: &MachineConfig,
    program: &Program,
    keep: bool,
) -> Result<PerfReport, JobError> {
    // Split the thread budget across concurrent cold simulations: each
    // runs on a worker thread already, so N distinct-key cold jobs each
    // fanning out to the full worker count would spawn ~N^2 scoped
    // threads under a cold burst. The guard decrements even if the
    // planner panics (the worker loop respawns).
    struct ColdGuard<'a>(&'a AtomicUsize);
    impl Drop for ColdGuard<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::Relaxed);
        }
    }
    let in_flight = inner.cold_inflight.fetch_add(1, Ordering::Relaxed) + 1;
    let _guard = ColdGuard(&inner.cold_inflight);
    let threads = (inner.stats.workers.len() / in_flight).max(1);
    let (report, cold) = WORKER_SIMS
        .with(|slot| match slot.borrow_mut().as_mut() {
            Some(sims) if keep => sims.simulate(&inner.stats, machine, program, threads),
            // Off a pool worker (never, today) a job gets tables of its own
            // too.
            _ => SimCache::new().simulate(machine, program, threads),
        })
        .map_err(JobError::Sim)?;
    inner.stats.record_cold(&cold);
    Ok(report)
}

/// Fills the cache for `key`, corrupting the stored checksum when the
/// fault plan fires for this key (keyed by cache key, not job, so a
/// poisoned workload reproduces exactly under a given seed).
fn fill_cache(inner: &PoolInner, key: CacheKey, report: &Arc<PerfReport>) {
    let corrupt = inner.supervisor.plan.as_ref().is_some_and(|plan| {
        plan.fires(FaultSite::CacheCorrupt, key.machine ^ key.program.rotate_left(32), 0)
    });
    if corrupt {
        inner.stats.faults_injected.fetch_add(1, Ordering::Relaxed);
        let checksum = crate::cache::report_checksum(report) ^ 0xDEAD_BEEF_DEAD_BEEF;
        inner.cache.insert_with_checksum(key, Arc::clone(report), checksum);
    } else {
        inner.cache.insert(key, Arc::clone(report));
    }
}

/// Worker thread entry: runs [`worker_loop`] behind an unwind barrier and
/// respawns it (same OS thread, fresh loop) if it ever panics, so the
/// pool never shrinks permanently. Each run of the loop gets fresh
/// simulation tables: a panic discards the worker's tables with it.
fn worker_entry(inner: &PoolInner, worker_index: usize) {
    loop {
        WORKER_SIMS.with(|slot| *slot.borrow_mut() = Some(WorkerSims::default()));
        let outcome = catch_unwind(AssertUnwindSafe(|| worker_loop(inner, worker_index)));
        let discarded = discard_worker_sims(&inner.stats);
        match outcome {
            Ok(()) => return, // clean shutdown
            Err(_) => {
                inner.stats.worker_respawns.fetch_add(1, Ordering::Relaxed);
                if discarded > 0 {
                    inner.stats.sim_table_resets.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

fn worker_loop(inner: &PoolInner, worker_index: usize) {
    loop {
        let job = {
            let mut q = sync::lock(&inner.queue);
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break Some(job);
                }
                if q.closed {
                    break None;
                }
                q = sync::wait(&inner.not_empty, q);
            }
        };
        let Some(job) = job else { return };
        inner.not_full.notify_one();
        inner.stats.queued_bytes.fetch_sub(job.cost as u64, Ordering::Relaxed);
        let queue_wait = job.enqueued.elapsed();
        inner.stats.queue_wait_nanos.fetch_add(queue_wait.as_nanos() as u64, Ordering::Relaxed);
        inner.tracer.observe(Stage::QueueWait, queue_wait);

        if job.cancelled.load(Ordering::SeqCst) {
            (job.run)(Disposition::Cancelled);
            inner.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
            inner.stats.cancelled.fetch_add(1, Ordering::Relaxed);
            inner.tracer.record(SpanKind::JobSettle, job.id, None, || "cancelled".to_string());
            continue;
        }
        if let Some(deadline) = job.deadline {
            let now = Instant::now();
            if now > deadline {
                (job.run)(Disposition::Expired { late_by: now - deadline });
                inner.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
                inner.stats.expired.fetch_add(1, Ordering::Relaxed);
                inner.tracer.record(SpanKind::JobSettle, job.id, None, || "expired".to_string());
                continue;
            }
        }
        let id = job.id;
        inner
            .tracer
            .record(SpanKind::JobStart, id, Some(queue_wait), || format!("worker={worker_index}"));
        let t0 = Instant::now();
        let ran = (job.run)(Disposition::Run);
        inner.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
        let busy = t0.elapsed();
        if let Some(ok) = ran {
            inner.stats.record_run(worker_index, busy, ok);
            inner.tracer.observe(Stage::Run, busy);
            inner.tracer.record(SpanKind::JobSettle, id, Some(busy), || format!("ok={ok}"));
        }
        // Worker-kill injection: panic the loop *after* the job handle
        // resolved, exercising the respawn path without stranding
        // joiners. Deterministic per job id.
        if let Some(plan) = &inner.supervisor.plan {
            if plan.fires(FaultSite::WorkerKill, id, 0) {
                inner.stats.faults_injected.fetch_add(1, Ordering::Relaxed);
                resume_unwind_quietly();
            }
        }
    }
}

/// Unwinds the worker loop without going through `panic!` (no panic-hook
/// message on stderr; the respawn barrier in [`worker_entry`] catches it).
fn resume_unwind_quietly() -> ! {
    std::panic::resume_unwind(Box::new("injected worker kill"))
}
