//! The supervision layer: retry-with-backoff for idempotent jobs and a
//! circuit breaker that sheds load under sustained failure.
//!
//! Simulation and functional-execution jobs are pure functions of their
//! inputs, so a failed attempt can be re-run safely. The scheduler wraps
//! those job bodies in `Supervisor::supervise`: each attempt that fails
//! with a
//! *transient* error (a panic, an injected fault, a transient DMA error)
//! is retried up to [`RetryPolicy::max_retries`] times, sleeping an
//! exponentially growing, deterministically jittered backoff between
//! attempts, bounded by [`RetryPolicy::total_deadline`].
//!
//! The [`CircuitBreaker`] watches terminal outcomes across jobs: after
//! [`BreakerConfig::failure_threshold`] *consecutive* failures it opens
//! and sheds new jobs ([`crate::JobError::CircuitOpen`]) for
//! [`BreakerConfig::open_for`]; the first job after that interval runs as
//! a half-open probe whose outcome closes the breaker or re-opens it.
//! All breaker methods take explicit [`Instant`]s so the state machine is
//! testable without sleeping.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::fault::{FaultPlan, FaultSite};
use crate::job::JobError;
use crate::obs::{SpanKind, Stage, Tracer};
use crate::stats::RuntimeStats;
use crate::sync;
use std::sync::Arc;

/// Retry policy for supervised (idempotent) jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 disables retrying).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
    /// Upper bound on time spent in the job including backoffs; a retry
    /// whose backoff would cross this gives up instead. `None` = no bound.
    pub total_deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(200),
            total_deadline: None,
        }
    }
}

impl RetryPolicy {
    /// A policy retrying up to `max_retries` times with default backoffs.
    pub fn retries(max_retries: u32) -> Self {
        RetryPolicy { max_retries, ..Default::default() }
    }

    /// The backoff before retry number `failures` (1-based: the retry
    /// after the first failed attempt is `failures = 1`), jittered by
    /// `jitter ∈ [0, 1)` into `[½·nominal, nominal]`, capped at
    /// [`max_backoff`](RetryPolicy::max_backoff).
    pub fn backoff(&self, failures: u32, jitter: f64) -> Duration {
        let doublings = failures.saturating_sub(1).min(20);
        let nominal =
            self.base_backoff.saturating_mul(1u32 << doublings).min(self.max_backoff).as_secs_f64();
        Duration::from_secs_f64(nominal * (0.5 + 0.5 * jitter.clamp(0.0, 1.0)))
    }
}

/// Decides whether a job that has failed `failures` times (≥ 1) after
/// running for `elapsed` may retry, and with what backoff.
///
/// Returns `None` when the retry budget is exhausted or the backoff would
/// cross the total deadline — the invariants the resilience proptests
/// pin down.
pub fn next_retry(
    policy: &RetryPolicy,
    failures: u32,
    elapsed: Duration,
    jitter: f64,
) -> Option<Duration> {
    if failures > policy.max_retries {
        return None;
    }
    let backoff = policy.backoff(failures, jitter);
    if let Some(deadline) = policy.total_deadline {
        if elapsed + backoff > deadline {
            return None;
        }
    }
    Some(backoff)
}

/// Circuit-breaker construction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive terminal failures that open the breaker
    /// (0 disables the breaker entirely).
    pub failure_threshold: u32,
    /// How long an open breaker sheds load before probing.
    pub open_for: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        // Disabled by default: shedding is an opt-in service behaviour.
        BreakerConfig { failure_threshold: 0, open_for: Duration::from_millis(500) }
    }
}

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Admitting jobs; counting consecutive failures.
    Closed,
    /// Shedding jobs until the open interval passes.
    Open,
    /// One probe job is in flight; its outcome decides the next state.
    HalfOpen,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    open_until: Option<Instant>,
}

/// A consecutive-failure circuit breaker (see the module docs).
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                open_until: None,
            }),
        }
    }

    /// Whether the breaker can trip at all.
    pub(crate) fn enabled(&self) -> bool {
        self.config.failure_threshold > 0
    }

    /// The current state (transitions lazily on [`allow_at`]).
    ///
    /// [`allow_at`]: CircuitBreaker::allow_at
    pub fn state(&self) -> BreakerState {
        sync::lock(&self.inner).state
    }

    /// Whether a job arriving at `now` may run. Open → `false` until the
    /// open interval passes, then the first caller becomes the half-open
    /// probe (`true`) and subsequent callers are shed until the probe
    /// resolves.
    pub fn allow_at(&self, now: Instant) -> bool {
        if !self.enabled() {
            return true;
        }
        let mut inner = sync::lock(&self.inner);
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false,
            BreakerState::Open => match inner.open_until {
                Some(until) if now < until => false,
                _ => {
                    inner.state = BreakerState::HalfOpen;
                    true
                }
            },
        }
    }

    /// [`allow_at`](CircuitBreaker::allow_at) at the current instant.
    pub(crate) fn allow(&self) -> bool {
        self.allow_at(Instant::now())
    }

    /// Records a job that reached a terminal success.
    pub fn record_success(&self) {
        if !self.enabled() {
            return;
        }
        let mut inner = sync::lock(&self.inner);
        inner.consecutive_failures = 0;
        inner.open_until = None;
        inner.state = BreakerState::Closed;
    }

    /// Records a job that reached a terminal failure at `now`.
    pub fn record_failure_at(&self, now: Instant) {
        if !self.enabled() {
            return;
        }
        let mut inner = sync::lock(&self.inner);
        match inner.state {
            BreakerState::HalfOpen => {
                // Failed probe: back to a full open interval.
                inner.state = BreakerState::Open;
                inner.open_until = Some(now + self.config.open_for);
            }
            _ => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.config.failure_threshold {
                    inner.state = BreakerState::Open;
                    inner.open_until = Some(now + self.config.open_for);
                }
            }
        }
    }

    /// [`record_failure_at`](CircuitBreaker::record_failure_at) at the
    /// current instant.
    pub(crate) fn record_failure(&self) {
        self.record_failure_at(Instant::now());
    }
}

/// Everything [`supervise`] needs from the pool.
pub(crate) struct Supervisor {
    pub(crate) policy: RetryPolicy,
    pub(crate) breaker: CircuitBreaker,
    pub(crate) plan: Option<FaultPlan>,
    pub(crate) tracer: Arc<Tracer>,
}

impl Supervisor {
    /// Whether an error is worth retrying (attempt-scoped, transient).
    fn retryable(e: &JobError) -> bool {
        match e {
            JobError::Panicked(_) => true,
            JobError::Sim(core) => core.is_transient(),
            _ => false,
        }
    }

    /// Runs `body` under supervision: breaker admission, per-attempt
    /// fault injection, panic isolation and retry-with-backoff.
    ///
    /// `token` is the job's stable identity (its submission id) — every
    /// fault and jitter decision keys off it so runs reproduce.
    pub(crate) fn supervise<T>(
        &self,
        stats: &RuntimeStats,
        token: u64,
        body: impl Fn(u32) -> Result<T, JobError>,
    ) -> Result<T, JobError> {
        if !self.breaker.allow() {
            stats.shed.fetch_add(1, Ordering::Relaxed);
            return Err(JobError::CircuitOpen);
        }
        let started = Instant::now();
        let mut failures = 0u32;
        loop {
            let attempt = failures;
            let outcome = match self.inject_attempt(stats, token, attempt) {
                Some(err) => Err(err),
                None => catch_unwind(AssertUnwindSafe(|| body(attempt)))
                    .unwrap_or_else(|payload| Err(JobError::Panicked(panic_message(&*payload)))),
            };
            match outcome {
                Ok(value) => {
                    self.breaker.record_success();
                    return Ok(value);
                }
                Err(e) => {
                    if Self::retryable(&e) {
                        failures += 1;
                        let jitter =
                            self.plan.as_ref().map(|p| p.jitter(token, attempt)).unwrap_or(1.0);
                        if let Some(backoff) =
                            next_retry(&self.policy, failures, started.elapsed(), jitter)
                        {
                            stats.retries.fetch_add(1, Ordering::Relaxed);
                            self.tracer.observe(Stage::RetryBackoff, backoff);
                            self.tracer.record(SpanKind::JobRetry, token, Some(backoff), || {
                                format!("attempt={attempt} error={e}")
                            });
                            if !backoff.is_zero() {
                                std::thread::sleep(backoff);
                            }
                            continue;
                        }
                    }
                    self.breaker.record_failure();
                    return Err(e);
                }
            }
        }
    }

    /// Fires the per-attempt fault sites; returns the injected error, if
    /// any. Latency injection sleeps and returns `None`.
    fn inject_attempt(&self, stats: &RuntimeStats, token: u64, attempt: u32) -> Option<JobError> {
        let plan = self.plan.as_ref()?;
        if plan.fires(FaultSite::JobLatency, token, attempt) {
            stats.faults_injected.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(plan.spec().latency);
        }
        if plan.fires(FaultSite::DeadlineExpiry, token, attempt) {
            stats.faults_injected.fetch_add(1, Ordering::Relaxed);
            // An injected expiry is transient by construction (a clean
            // rerun meets the deadline), so surface it as a retryable
            // panic-class error rather than a genuine DeadlineExceeded.
            return Some(JobError::Panicked(format!(
                "injected deadline expiry (job {token}, attempt {attempt})"
            )));
        }
        if plan.fires(FaultSite::WorkerPanic, token, attempt) {
            stats.faults_injected.fetch_add(1, Ordering::Relaxed);
            // Synthesized rather than a real unwind so chaos runs do not
            // spray panic messages on stderr; genuine panics still take
            // the catch_unwind path in `supervise`.
            return Some(JobError::Panicked(format!(
                "injected worker panic (job {token}, attempt {attempt})"
            )));
        }
        None
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(40),
            total_deadline: Some(Duration::from_millis(100)),
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = policy();
        assert_eq!(p.backoff(1, 1.0), Duration::from_millis(10));
        assert_eq!(p.backoff(2, 1.0), Duration::from_millis(20));
        assert_eq!(p.backoff(3, 1.0), Duration::from_millis(40));
        assert_eq!(p.backoff(10, 1.0), Duration::from_millis(40));
        // Jitter 0 halves the nominal backoff.
        assert_eq!(p.backoff(1, 0.0), Duration::from_millis(5));
    }

    #[test]
    fn next_retry_respects_budget_and_deadline() {
        let p = policy();
        assert!(next_retry(&p, 1, Duration::ZERO, 1.0).is_some());
        assert!(next_retry(&p, 3, Duration::ZERO, 1.0).is_some());
        assert!(next_retry(&p, 4, Duration::ZERO, 1.0).is_none());
        assert!(next_retry(&p, 1, Duration::from_millis(95), 1.0).is_none());
    }

    #[test]
    fn breaker_full_cycle() {
        let cfg = BreakerConfig { failure_threshold: 2, open_for: Duration::from_millis(100) };
        let b = CircuitBreaker::new(cfg);
        let t0 = Instant::now();
        assert!(b.allow_at(t0));
        b.record_failure_at(t0);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure_at(t0);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow_at(t0 + Duration::from_millis(50)));
        // Interval passed: one probe allowed, the rest shed.
        assert!(b.allow_at(t0 + Duration::from_millis(150)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow_at(t0 + Duration::from_millis(151)));
        // Failed probe re-opens for a fresh interval.
        b.record_failure_at(t0 + Duration::from_millis(160));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow_at(t0 + Duration::from_millis(200)));
        // Successful probe closes.
        assert!(b.allow_at(t0 + Duration::from_millis(300)));
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow_at(t0 + Duration::from_millis(301)));
    }

    #[test]
    fn disabled_breaker_always_allows() {
        let b = CircuitBreaker::new(BreakerConfig::default());
        for _ in 0..10 {
            b.record_failure();
        }
        assert!(b.allow());
        assert_eq!(b.state(), BreakerState::Closed);
    }
}
